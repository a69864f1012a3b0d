"""Benchmark entry point for curllab.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload sweep-certified-n2 --seed 1 --seconds 40 --trace 0

The script imports neither numpy nor curllab itself. It starts fresh
worker processes (perfbench/worker.py) with the BLAS thread count fixed
in their environment before numpy loads: one that fills the benchmark's
own bytecode cache, then one that runs the timed closed loop and checks
its outputs, with a few that only measure set-up before and after it. Human
readable lines go first; the last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics. With
--trace 0 the metrics are the end-to-end ones, with --trace 1 the
per-layer ones from a run whose layer calls are wrapped from outside.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
OUT_DIR = Path(".perfbench_out")
TIME_LIMIT_S = 175.0
# set-up probes before and after the timed worker: the median of all seven
# set-ups then spans the run, not one moment of the machine's speed
SETUP_PROBES = 3

# (python threads, BLAS threads) per workload. With one BLAS thread each
# Python thread does its own BLAS work, so no run computes on more than
# the two cores the benchmark is specified for.
THREADS = {
    "spectrum-bumpy-n5": (1, 2),
    "sweep-certified-n2": (2, 1),
}

# readable name of each workload's throughput metric
THROUGHPUT_NAMES = {
    "spectrum-bumpy-n5": "solves_per_s",
    "sweep-certified-n2": "samples_per_s",
}


def _code_identity(root: Path) -> dict:
    """Hash and line count of the code under test, plus the git head if any."""
    digest = hashlib.sha256()
    lines = 0
    for path in sorted((root / "src").rglob("*.py")):
        data = path.read_bytes()
        digest.update(str(path.relative_to(root)).encode() + b"\0" + data)
        lines += data.count(b"\n")
    bench = hashlib.sha256()
    for path in sorted(HERE.glob("*.py")):
        bench.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None
    head = root / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = root / ".git" / ref[5:]
            commit = ref_file.read_text().strip() if ref_file.is_file() else None
        else:
            commit = ref
    return {
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "src_lines": lines,
        "bench_sha256": bench.hexdigest(),
    }


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _worker(args, mode: str, env: dict, deadline: float) -> dict:
    cmd = [
        sys.executable, str(HERE / "worker.py"), "--mode", mode,
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise RuntimeError("time limit reached before the worker started")
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                          timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(
            f"worker ({mode}) exited with {proc.returncode}:\n{proc.stderr[-4000:]}"
        )
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"worker ({mode}) printed no result")
    return json.loads(lines[-1])


def _report(result: dict, workload: str, trace: int) -> None:
    print(f"# workload {workload} seed {result['seed']} trace {trace}")
    for key, value in result["inputs"].items():
        print(f"#   input {key}: {json.dumps(value)}")
    for key, value in result["machine"].items():
        print(f"#   machine {key}: {value}")
    if trace:
        for row in result["self_time"]:
            print(f"#   self {row['name']:40s} calls {row['calls']:>8d}  "
                  f"self {row['self_s']:9.3f} s  share {row['share']:6.1%}")
    else:
        m = result["metrics"]
        named = {
            THROUGHPUT_NAMES[workload]: m["ops_per_s"],
            "setup_s": m["setup_s"],
            "peak_rss_mb": m["peak_rss_mb"],
            "failed_frac": {"value": 1.0 - m["ok_frac"]["value"], "unit": "ratio"},
        }
        if workload == "spectrum-bumpy-n5":
            named["solve_s"] = {"value": result["op_s"], "unit": "s"}
        for name, metric in named.items():
            print(f"{workload}  {name:14s} {metric['value']:.6g} {metric['unit']}")
    for problem in result["problems"]:
        print(f"# problem: {problem}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(THREADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + TIME_LIMIT_S

    root = Path.cwd()
    if not (root / "src" / "curllab" / "__init__.py").is_file():
        print("perfbench: run from the root of a curllab checkout "
              "(src/curllab not found)", file=sys.stderr)
        return 2

    py_threads, blas_threads = THREADS[args.workload]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), env.get("PYTHONPATH")) if p
    )
    # every worker reads bytecode from a cache of the benchmark's own, which
    # the untimed first worker fills: set-up time then depends neither on
    # what other programs left in __pycache__ nor on which sources changed
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPYCACHEPREFIX"] = str((root / OUT_DIR / "pycache").resolve())
    env["OPENBLAS_NUM_THREADS"] = str(blas_threads)
    env["OMP_NUM_THREADS"] = str(blas_threads)
    env["PERFBENCH_PYTHON_THREADS"] = str(py_threads)
    # numpy asks for transparent huge pages for large arrays; whether the
    # kernel can grant them depends on memory fragmentation left by other
    # processes, which made eigensolve time and peak RSS bimodal between runs
    env["NUMPY_MADVISE_HUGEPAGE"] = "0"
    identity = _code_identity(root)
    env["PERFBENCH_CODE_ID"] = identity["src_sha256"][:16] + identity["bench_sha256"][:16]

    try:
        _worker(args, "setup", env, deadline)
        n_probes = 0 if args.trace else SETUP_PROBES
        probes = [_worker(args, "setup", env, deadline) for _ in range(n_probes)]
        result = _worker(args, "run", env, deadline)
        probes += [_worker(args, "setup", env, deadline) for _ in range(n_probes)]
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 1

    probes.append(result)
    result["machine"].update(
        cpu=_cpu_model(), nproc=len(os.sched_getaffinity(0)),
        python_threads=py_threads, blas_threads=blas_threads, **identity,
    )
    if args.trace:
        metrics = result["metrics"]
    else:
        metrics = dict(result["metrics"])
        metrics["setup_s"] = {"value": statistics.median(
            p["setup_s"] for p in probes), "unit": "s"}
        result["setup_samples_s"] = [p["setup_s"] for p in probes]
        metrics = {k: metrics[k] for k in ("ops_per_s", "setup_s",
                                           "peak_rss_mb", "ok_frac")}
    result["metrics"] = metrics

    out = OUT_DIR / "results"
    out.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (out / name).write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")

    _report(result, args.workload, args.trace)
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
