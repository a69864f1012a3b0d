"""One benchmark process; started by perfbench/run.py, which fixes its threads.

--mode setup imports curllab, builds the workload's inputs and reports
how long that took. --mode run does the same, then runs rounds of calls
back to back until --seconds have passed (at least two rounds), checks
every output, and compares output digests with earlier runs of the same
code and seed.
With --trace 1 the rounds run with the layer wrappers of tracing.py
installed; the first call is then replayed untraced, which must give the
same bytes and yields the tracing overhead. The last line of standard
output is the result as JSON.
"""

import time

T_START = time.perf_counter()  # set-up is timed from before the heavy imports

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

OUT_DIR = Path(".perfbench_out")
MIN_ROUNDS = 2


def _digest_check(path: Path, digests: dict) -> list:
    """Compare with digests an earlier run of this code and seed stored."""
    stored = json.loads(path.read_text()) if path.is_file() else {}
    problems = [f"output of call {key} differs from an earlier run"
                for key, value in digests.items()
                if key in stored and stored[key] != value]
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({**digests, **stored}, sort_keys=True))
    return problems


def _machine() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "platform": platform.platform(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--mode", choices=("setup", "run"), required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if "PERFBENCH_CODE_ID" not in os.environ:
        print("worker.py is started by perfbench/run.py", file=sys.stderr)
        return 2

    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import workloads

    out_dir = OUT_DIR / "outputs"
    out_dir.mkdir(parents=True, exist_ok=True)
    threads = int(os.environ["PERFBENCH_PYTHON_THREADS"])
    workload = workloads.WORKLOADS[args.workload](args.seed, out_dir, threads)
    setup_s = time.perf_counter() - T_START
    if args.mode == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return 0

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    rounds = []  # (call, CallResult) per round
    loop_start = time.perf_counter()
    try:
        while True:
            call = workload.call(len(rounds))
            c0 = time.perf_counter()
            result = workload.run(call)
            result.seconds = time.perf_counter() - c0
            rounds.append((call, result))
            gc.collect()  # each round starts from a clean heap
            if (len(rounds) >= MIN_ROUNDS
                    and time.perf_counter() - loop_start >= args.seconds):
                break
    finally:
        if tracer is not None:
            tracer.uninstall()

    results = [r for _, r in rounds]
    attempted = sum(r.ops for r in results)
    failed = sum(r.failed for r in results)
    problems = [p for r in results for p in r.problems]
    digests = {str(k): hashlib.sha256(r.output).hexdigest()
               for k, r in enumerate(results)}
    problems += _digest_check(
        OUT_DIR / "digests" / os.environ["PERFBENCH_CODE_ID"]
        / f"{args.workload}-seed{args.seed}.json", digests)

    # a round is timed by the median over the run's rounds, which the
    # machine's short slow spells do not move
    ops_per_round = results[0].ops
    round_s = statistics.median(r.seconds for r in results)
    wall_s = sum(r.seconds for r in results)
    out = {
        "workload": args.workload,
        "seed": args.seed,
        "setup_s": setup_s,
        "inputs": {**workload.inputs,
                   "rounds": [workload.describe(c) for c, _ in rounds]},
        "machine": _machine(),
        "rounds": [{"ops": r.ops, "failed": r.failed, "seconds": r.seconds}
                   for r in results],
        "op_s": round_s / ops_per_round,
    }

    if tracer is None:
        out["metrics"] = {
            "ops_per_s": {"value": ops_per_round / round_s, "unit": "1/s"},
            "peak_rss_mb": {"value": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0, "unit": "MB"},
            "ok_frac": {"value": (attempted - failed) / attempted,
                        "unit": "ratio"},
        }
    else:
        first_call, first = rounds[0]
        r0 = time.perf_counter()
        replay = workload.run(first_call)
        replay_s = time.perf_counter() - r0
        if replay.output != first.output:
            problems.append("untraced replay of the first call gave other "
                            "output than the traced call")
        agg = tracer.aggregate()
        metrics = tracing.layer_metrics(
            agg, [d for r in results for d in r.certificates], attempted,
            wall_s, threads)
        metrics["bench.trace_overhead_frac"] = {
            "value": first.seconds / replay_s - 1.0, "unit": "ratio"}
        out["metrics"] = metrics
        out["self_time"] = tracing.self_time_table(agg, wall_s, threads)
        trace_dir = OUT_DIR / "traces"
        trace_dir.mkdir(parents=True, exist_ok=True)
        (trace_dir / f"{args.workload}-seed{args.seed}.json").write_text(
            json.dumps(tracer.to_json_dict(loop_start)))

    out.update(correct=not problems and failed == 0, attempted=attempted,
               failed=failed, problems=problems[:20])
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
