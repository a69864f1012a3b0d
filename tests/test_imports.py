"""What curllab imports: neither scipy.integrate nor scipy.fft.

Every CLI command and sweep starts a fresh interpreter, so an import that
does no work for curllab is paid on every start. scipy.integrate held
only the DOP853 tableau, now in curllab._dop853, and scipy.fft served
one transform that numpy.fft does as well. Each check of what a process
imported runs in a fresh interpreter.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
from scipy.integrate._ivp import dop853_coefficients

from curllab import _dop853

SRC = Path(__file__).resolve().parents[1] / "src"

# a one-sample certified N = 2 sweep under the benchmark's budget, after
# the CLI's imports: the eigensolve, the zeros, the orbit scan and the
# wave packets all run
SWEEP = """
import sys
import curllab.cli
from curllab.lab import SweepConfig, run_sweep

config = SweepConfig(samples=1, truncation=2, seed=1, certify_pairs=True,
                     window={"interval": [0.9, 1.1]},
                     budget={"T_max": 6, "orbit_seeds": 2, "n_seeds": 2,
                             "wkb_T": 20})
(record,) = run_sweep(config)
assert record.error is None, record.error
assert all(p["mechanism"] for p in record.pair_reports), record.pair_reports
print(sorted(name for name in sys.modules
             if name.split(".")[:2] in (["scipy", "integrate"], ["scipy", "fft"])))
"""

# perfbench/tracing.py patches solve_ivp in both modules
SOLVE_IVP = """
import scipy.integrate
from curllab import dynamics, instability

assert dynamics.solve_ivp is scipy.integrate.solve_ivp
assert instability.solve_ivp is scipy.integrate.solve_ivp
try:
    dynamics.no_such_name
except AttributeError as err:
    assert "no_such_name" in str(err)
else:
    raise AssertionError("no AttributeError")
print("ok")
"""


def _run(script: str) -> str:
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ,
           "PYTHONPATH": str(SRC) + (os.pathsep + path if path else "")}
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_cli_and_a_certified_sweep_import_neither_integrate_nor_fft():
    assert _run(SWEEP) == "[]"


def test_solve_ivp_still_resolves_to_scipys():
    assert _run(SOLVE_IVP) == "ok"


def test_tableau_is_scipys():
    for name in ("A", "B", "E3", "E5", "D", "N_STAGES", "N_STAGES_EXTENDED"):
        assert np.array_equal(getattr(_dop853, name),
                              getattr(dop853_coefficients, name)), name
