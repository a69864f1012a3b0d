"""perfbench.tracing wraps curllab functions by name from outside src/.

Installing the tracer must find every name it patches, and uninstalling
it must put each original back. A change that removes or renames a
patched name then fails here instead of breaking a traced benchmark run.
"""

from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_install_patches_every_name_and_uninstall_restores(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT))
    from perfbench.tracing import Tracer, install

    tracer = Tracer()
    try:
        install(tracer)
        patched = list(tracer._patches)
        assert patched
        for owner, attr, original in patched:
            assert getattr(owner, attr) is not original, attr
    finally:
        tracer.uninstall()
    for owner, attr, original in patched:
        assert getattr(owner, attr) is original, attr
