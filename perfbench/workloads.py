"""The benchmark's workloads: inputs made from the seed, one call, output checks.

Each workload runs in rounds of one call. A call does one or more
operations (an eigensolve, or the samples of one sweep) on inputs drawn
for its round and returns a CallResult with its canonical output bytes,
which the worker compares across runs of the same code and seed. Calls
go through module attributes (``lab.run_sweep``, not a name imported
once) so that a traced run sees the wrapped layers.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

from curllab import curlspec, fields, lab

MECHANISMS = ("saddle_fixed_point", "hyperbolic_orbit",
              "positive_wkb_exponent", "inconclusive")


def derive_seed(*parts) -> int:
    """A 32-bit input seed derived from the benchmark seed and a label."""
    text = ":".join(str(p) for p in parts)
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:4], "big")


def canonical_json(obj) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()


@dataclass
class CallResult:
    ops: int
    problems: list = field(default_factory=list)  # one message per failed op
    output: bytes = b""
    certificates: list = field(default_factory=list)  # certificate JSON dicts
    seconds: float = 0.0

    @property
    def failed(self) -> int:
        return min(len(self.problems), self.ops)


def check_certificate(doc: dict) -> list:
    """Problems found when re-checking a certificate from its JSON alone."""
    problems = []
    mechanism = doc.get("mechanism")
    if mechanism not in MECHANISMS:
        return [f"unknown mechanism {mechanism!r}"]
    if mechanism != "inconclusive":
        exponent = doc.get("exponent")
        if not (isinstance(exponent, float) and math.isfinite(exponent)
                and exponent > 0):
            problems.append(f"{mechanism} with exponent {exponent!r}")
    if mechanism == "hyperbolic_orbit":
        mult_tol = doc["tolerances"]["mult_tol"]
        mults = [complex(re, im) for re, im in doc["witness"]["multipliers"]]
        if not mults or min(abs(abs(m) - 1.0) for m in mults) <= mult_tol:
            problems.append(f"hyperbolic witness with multipliers {mults}")
    return problems


class SpectrumBumpy:
    """Dense N = 5 eigensolve (dim 3993) on a bumpy random metric."""

    name = "spectrum-bumpy-n5"
    TRUNCATION = 5
    WINDOW = {"count": 6}
    TOL = 1e-10

    def __init__(self, seed: int, out_dir: Path, n_threads: int):
        self.seed = seed
        self.inputs = {
            "metric": "random_metric(2.0, 1e-2, metric_seed)",
            "truncation": self.TRUNCATION,
            "window": self.WINDOW,
        }
        self._first = self._metric(0)

    def _metric_seed(self, round_index: int) -> int:
        return derive_seed(self.name, self.seed, round_index)

    def _metric(self, round_index: int):
        return (round_index,
                fields.random_metric(2.0, 1e-2, self._metric_seed(round_index)))

    def call(self, round_index: int):
        return self._first if round_index == 0 else self._metric(round_index)

    def describe(self, call) -> dict:
        return {"metric_seed": self._metric_seed(call[0])}

    def run(self, call) -> CallResult:
        _, metric = call
        try:
            pairs = curlspec.eigenpairs(metric, self.TRUNCATION, self.WINDOW)
        except Exception as err:
            return CallResult(1, [f"{type(err).__name__}: {err}"])
        problems = []
        if len(pairs) != self.WINDOW["count"]:
            problems.append(f"{len(pairs)} pairs for {self.WINDOW}")
        worst = max((max(p.residual, p.coexact_residual) for p in pairs),
                    default=0.0)
        if not worst <= self.TOL:
            problems.append(f"pair residual {worst:.3e} above {self.TOL:.0e}")
        summary = [[p.eigenvalue, p.residual, p.coexact_residual,
                    p.cluster_id, p.cluster_size] for p in pairs]
        output = canonical_json(summary) + b"".join(
            p.form.coeffs.tobytes() for p in pairs)
        return CallResult(1, ["; ".join(problems)] if problems else [], output)


class SweepCertified:
    """Certified sweeps at N = 2 on the lab's thread pool, two samples each.

    A round is one sweep with as many samples as pool threads (twelve
    certificates, about 8 s on two cores), so a run times several rounds,
    each on a config seed of its own.
    """

    name = "sweep-certified-n2"
    SAMPLES = 2
    WINDOW = {"interval": [0.9, 1.1]}
    BUDGET = {"T_max": 6.0, "orbit_seeds": 2, "n_seeds": 2, "wkb_T": 20.0}

    def __init__(self, seed: int, out_dir: Path, n_threads: int):
        self.seed = seed
        self.out_dir = out_dir
        self.n_threads = n_threads
        self.inputs = {
            "config": {"samples": self.SAMPLES, "truncation": 2,
                       "certify_pairs": True, "window": self.WINDOW,
                       "budget": self.BUDGET},
            "n_threads": self.n_threads,
        }
        self._first = self._config(0)

    def _config(self, round_index: int):
        return lab.SweepConfig(
            samples=self.SAMPLES, truncation=2,
            seed=derive_seed(self.name, self.seed, round_index),
            certify_pairs=True, window=self.WINDOW, budget=self.BUDGET,
            out_jsonl=str(self.out_dir / f"sweep-round{round_index}.jsonl"),
        )

    def call(self, round_index: int):
        return self._first if round_index == 0 else self._config(round_index)

    def describe(self, config) -> dict:
        return {"config_seed": config.seed, "config_hash": config.config_hash}

    def run(self, config) -> CallResult:
        try:
            records = lab.run_sweep(config, n_threads=self.n_threads)
            output = Path(config.out_jsonl).read_bytes()
        except Exception as err:
            return CallResult(self.SAMPLES, [f"sweep: {type(err).__name__}: "
                                             f"{err}"] * self.SAMPLES)
        problems, certificates = [], []
        for record in records:
            found = []
            if record.error:
                found.append(f"error {record.error}")
            for k, report in enumerate(record.pair_reports):
                if report.get("mechanism") is None:
                    found.append(f"pair {k} has no mechanism "
                                 f"({report.get('error')})")
                    continue
                certificates.append(report["certificate"])
                found.extend(f"pair {k}: {p}"
                             for p in check_certificate(report["certificate"]))
            if found:
                problems.append(f"sample {record.sample}: " + "; ".join(found))
        if len(records) != self.SAMPLES:
            problems.append(f"{len(records)} records for {self.SAMPLES} samples")
        return CallResult(self.SAMPLES, problems, output, certificates)


WORKLOADS = {w.name: w for w in (SpectrumBumpy, SweepCertified)}
