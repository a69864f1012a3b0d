"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --seeds 1-10 [--workloads a,b] [--trace 0|1]
                                [--baseline perfbench/baseline.json]

For every workload it runs perfbench/run.py once per seed, one run at a
time, with run_seconds from BENCHMARK.json, and prints each metric's
median and its quartile spread, (Q3 - Q1) / median with the quartiles
of statistics.quantiles(values, n=4), beside the metric's bound. With
--baseline the medians, spreads and per-run values are written to that
file, merged into what it already holds.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def _seeds(text: str) -> list:
    if "-" in text:
        lo, hi = (int(x) for x in text.split("-"))
        return list(range(lo, hi + 1))
    return [int(x) for x in text.split(",")]


def spread(values):
    """(Q3 - Q1) / median, or None when the median is 0."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med if med else None


def main(argv=None) -> int:
    bench = json.loads(Path("BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--baseline", type=Path)
    args = parser.parse_args(argv)
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    summary = {}
    for workload in args.workloads.split(","):
        runs = []
        for seed in _seeds(args.seeds):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(seconds),
                 "--trace", str(args.trace)],
                capture_output=True, text=True,
            )
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n"
                      f"{proc.stderr[-2000:]}", file=sys.stderr)
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            runs.append({"seed": seed, **result})
            print(f"{workload} seed {seed}: correct {result['correct']} "
                  + " ".join(f"{k}={v['value']:.6g}"
                             for k, v in result["metrics"].items()), flush=True)
        rows = {}
        for name, metric in runs[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in runs]
            rows[name] = {"median": statistics.median(values),
                          "unit": metric["unit"],
                          "spread": spread(values) if len(values) > 1 else 0.0,
                          "values": values}
            bound = bounds.get(name)
            width = rows[name]["spread"]
            print(f"  {workload} {name}: median {rows[name]['median']:.6g} "
                  f"{metric['unit']}  spread "
                  + ("n/a" if width is None else f"{width:.3f}")
                  + (f"  bound {bound}" if bound is not None and not args.trace
                     else ""))
        summary[workload] = {
            "seeds": [r["seed"] for r in runs],
            "all_correct": all(r["correct"] for r in runs),
            "metrics": rows,
        }

    if args.baseline:
        key = "per_layer" if args.trace else "end_to_end"
        data = (json.loads(args.baseline.read_text())
                if args.baseline.is_file() else {})
        for workload, row in summary.items():
            data.setdefault(key, {})[workload] = row
        args.baseline.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
