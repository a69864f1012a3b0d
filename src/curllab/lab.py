"""Experiment orchestration: random-metric sweeps with reproducible outputs.

A sweep draws random perturbations of a base metric, solves the curl
eigenproblem in a window for each sample, optionally runs the
instability certification per eigenpair, and streams one JSON-lines
record per sample plus a plot-ready CSV summary. Samples run in forked
worker processes. All randomness comes from one counter-based generator
keyed by the configuration hash and the sample id, so a config
reproduces its outputs bit for bit, independent of the worker-process
count, as long as the BLAS thread count is fixed: the eigensolve's
round-off depends on it, and every number downstream follows.
"""

from __future__ import annotations

import functools
import hashlib
import json
import multiprocessing
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass
from dataclasses import field as dataclass_field, fields as dataclass_fields
from pathlib import Path

import numpy as np

from .curlspec import assemble, eigenpairs, parse_window
from .fields import (MetricField, check_count, check_real, named_metric,
                     random_metric)
# certify is unused here; perfbench/tracing.py patches lab.certify
from .instability import CertifyBudget, certify, certify_batch  # noqa: F401

CSV_COLUMNS = (
    "sample",
    "gap",
    "frac_simple",
    "frac_nondeg_fp",
    "frac_nondeg_orbits",
    "frac_certified",
)


@dataclass(frozen=True)
class SweepConfig:
    """Reproducible description of one sweep.

    The output paths are carried for convenience but excluded from the
    configuration hash, so where results land never changes what they
    contain. budget holds CertifyBudget effort fields; any other key
    (seed included: the sweep draws one per pair), or a value that
    CertifyBudget rejects, is a ValueError, as is a bad window, truncation,
    sample count, cutoff, seed, smoothness, amplitude or base metric name.
    """

    base_metric: str = "flat"
    smoothness: float = 2.0
    amplitude: float = 1e-2
    cutoff: int = 2
    seed: int = 0
    samples: int = 20
    truncation: int = 2
    window: dict = dataclass_field(
        default_factory=lambda: {"interval": [0.7, 1.2]}
    )
    certify_pairs: bool = False
    budget: dict = dataclass_field(default_factory=dict)
    out_jsonl: str | None = None
    out_csv: str | None = None

    def __post_init__(self):
        efforts = [f.name for f in dataclass_fields(CertifyBudget)
                   if f.name != "seed"]
        for key in self.budget:
            if key not in efforts:
                raise ValueError(f"unknown budget key {key!r}; a sweep budget "
                                 f"takes {', '.join(efforts)}")
        CertifyBudget(**self.budget)  # raises on a bad value
        parse_window(self.window)
        check_count(self.truncation, "truncation", minimum=1)
        check_count(self.samples, "samples", 0)
        check_count(self.cutoff, "cutoff", 0)
        check_count(self.seed, "seed")
        check_real(self.smoothness, "smoothness")
        check_real(self.amplitude, "amplitude")
        named_metric(self.base_metric)  # raises on a bad name or base

    def to_json_dict(self, include_paths: bool = True) -> dict:
        data = asdict(self)
        if not include_paths:
            data.pop("out_jsonl")
            data.pop("out_csv")
        return data

    @classmethod
    def from_json_dict(cls, data: dict) -> "SweepConfig":
        return cls(**data)

    @property
    def config_hash(self) -> str:
        canonical = json.dumps(
            self.to_json_dict(include_paths=False),
            sort_keys=True, separators=(",", ":"),
        )
        return hashlib.sha256(canonical.encode()).hexdigest()[:16]


def _sample_generator(config_hash: str, seed: int,
                      sample_id: int) -> np.random.Generator:
    """Counter-based generator keyed by (config hash, master seed, sample)."""
    # the trailing ":0" keeps the keys, so the samples, of earlier sweeps
    digest = hashlib.sha256(
        f"{config_hash}:{seed}:{sample_id}:0".encode()
    ).digest()
    key = int.from_bytes(digest[:16], "big")
    return np.random.Generator(np.random.Philox(key=key))


def sample_metric(config: SweepConfig, seed) -> MetricField:
    """One random SPD metric from the ensemble a sweep config describes.

    seed may be an integer or a prepared Generator. Identical inputs give
    identical coefficients.
    """
    return random_metric(
        float(config.smoothness),
        float(config.amplitude),
        seed,
        cutoff=int(config.cutoff),
        base=named_metric(config.base_metric),
    )


@dataclass
class SweepRecord:
    """Per-sample results; everything needed to re-verify is embedded."""

    sample: int
    seed_key: str
    min_gap: float
    eigenvalues: list
    pair_reports: list
    error: str | None = None

    @property
    def frac_simple(self) -> float:
        if not self.pair_reports:
            return 1.0
        simple = sum(1 for p in self.pair_reports if p["cluster_size"] == 1)
        return simple / len(self.pair_reports)

    @property
    def frac_nondeg_fixed_points(self) -> float:
        total = sum(p.get("n_fixed_points", 0) for p in self.pair_reports)
        if total == 0:
            return 1.0
        good = sum(p.get("n_nondegenerate_fixed_points", 0)
                   for p in self.pair_reports)
        return good / total

    @property
    def frac_nondeg_orbits(self) -> float:
        total = sum(p.get("n_orbits_resolved", 0) for p in self.pair_reports)
        if total == 0:
            return 1.0
        good = sum(p.get("n_orbits_nondegenerate", 0)
                   for p in self.pair_reports)
        return good / total

    @property
    def frac_certified(self) -> float:
        reports = [p for p in self.pair_reports if "mechanism" in p]
        if not reports:
            return 0.0
        hits = sum(1 for p in reports
                   if p["mechanism"] not in (None, "inconclusive"))
        return hits / len(reports)

    def to_json_dict(self) -> dict:
        return {
            "sample": self.sample,
            "seed_key": self.seed_key,
            "min_gap": self.min_gap,
            "eigenvalues": self.eigenvalues,
            "pair_reports": self.pair_reports,
            "error": self.error,
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "SweepRecord":
        return cls(
            sample=int(data["sample"]),
            seed_key=data["seed_key"],
            min_gap=float(data["min_gap"]),
            eigenvalues=list(data["eigenvalues"]),
            pair_reports=list(data["pair_reports"]),
            error=data.get("error"),
        )

    def csv_row(self) -> list:
        return [
            self.sample,
            self.min_gap,
            self.frac_simple,
            self.frac_nondeg_fixed_points,
            self.frac_nondeg_orbits,
            self.frac_certified,
        ]


def _min_pairwise_gap(values) -> float:
    vals = np.sort(np.asarray(values, float))
    if len(vals) < 2:
        return float("inf")
    return float(np.diff(vals).min())


def _stage(diag: dict, name: str) -> dict:
    for stage in diag.get("stages", []):
        if stage.get("stage") == name:
            return stage
    return {}


def _run_one_sample(config: SweepConfig, sample_id: int) -> SweepRecord:
    chash = config.config_hash
    rng = _sample_generator(chash, config.seed, sample_id)
    seed_key = f"{chash}:{config.seed}:{sample_id}"
    try:
        metric = sample_metric(config, rng)
        operator = assemble(metric, config.truncation)
        pairs = eigenpairs(metric, config.truncation, config.window,
                           operator=operator)
    except Exception as err:  # per-sample failures never abort the sweep
        return SweepRecord(
            sample=sample_id, seed_key=seed_key, min_gap=float("nan"),
            eigenvalues=[], pair_reports=[], error=f"{type(err).__name__}: {err}",
        )
    eigenvalues = [p.eigenvalue for p in pairs]
    record = SweepRecord(
        sample=sample_id,
        seed_key=seed_key,
        min_gap=_min_pairwise_gap(eigenvalues),
        eigenvalues=eigenvalues,
        pair_reports=[
            {"eigenvalue": pair.eigenvalue, "residual": pair.residual,
             "cluster_size": pair.cluster_size}
            for pair in pairs
        ],
    )
    if not config.certify_pairs:
        return record
    budgets = []
    for k in range(len(pairs)):
        budget_seed = int.from_bytes(
            hashlib.sha256(f"{seed_key}:{k}".encode()).digest()[:4], "big"
        )
        budgets.append(CertifyBudget(**{**config.budget, "seed": budget_seed}))
    # one batch per sample: the orbit scans of its pairs share a solve, and
    # so do their wave packets
    for report, cert in zip(record.pair_reports,
                            certify_batch(metric, pairs, budgets)):
        if isinstance(cert, Exception):
            report["mechanism"] = None
            report["error"] = f"{type(cert).__name__}: {cert}"
            continue
        fp = _stage(cert.diagnostics, "fixed_points")
        orbits = _stage(cert.diagnostics, "orbits")
        report.update(
            {
                "mechanism": cert.mechanism,
                "exponent": cert.exponent,
                "n_fixed_points": fp.get("found", 0),
                "n_nondegenerate_fixed_points": fp.get("nondegenerate", 0),
                "n_orbits_resolved": orbits.get("resolved", 0),
                "n_orbits_nondegenerate": orbits.get("nondegenerate", 0),
                "n_orbits_hyperbolic": orbits.get("hyperbolic", 0),
                "certificate": cert.to_json_dict(),
            }
        )
    return record


def run_sweep(config: SweepConfig, *, n_threads: int = 1):
    """Execute a sweep; returns the records in sample order.

    Samples run on min(n_threads, samples) worker processes, forked so
    that they inherit the imported modules; with one worker or at most
    one sample they run in this process and no pool starts. Emission
    order and content are independent of the pool size at a fixed BLAS
    thread count (the bytes differ between OPENBLAS_NUM_THREADS=1 and 2,
    whatever the pool size). Within a sample
    the pairs are certified as one certify_batch: zeros pair by pair, the
    orbit scans of every undecided pair as lanes of one solve, with each
    pair shooting its own close returns, then the wave packets of every
    undecided pair as lanes of one solve, each lane with its own step
    control. A packet's numbers do
    not depend on the lanes beside it, so a pair's certificate does not
    depend on the other pairs, and a pair whose stages raise is reported
    with its error while the others still certify. When the config
    carries output paths the JSON-lines stream and the CSV summary are
    written as well. An exception raised in a worker is raised here,
    after the pool has shut down.

    With more than one worker, pin BLAS to one thread per process
    (OPENBLAS_NUM_THREADS=1 before numpy is imported): each worker has
    its own BLAS thread pool, and workers times BLAS threads
    oversubscribe the cores. The jet kernel starts it on every call from
    truncation 3 on (jets at N = 7, a 5400-element value block), not at
    truncation 2 (3549 elements; OpenBLAS 0.3.31 threads a zgemv from
    4096). n_threads must be an integer >= 1; anything
    else is a ValueError, raised before any sample runs.
    """
    check_count(n_threads, "n_threads", minimum=1)
    ids = range(config.samples)
    workers = min(n_threads, config.samples)
    if workers <= 1:
        records = [_run_one_sample(config, i) for i in ids]
    else:
        # named, not the default: children inherit the imported modules,
        # and Python 3.14 makes forkserver the default start method
        context = multiprocessing.get_context("fork")
        with ProcessPoolExecutor(max_workers=workers,
                                 mp_context=context) as pool:
            records = list(pool.map(functools.partial(_run_one_sample, config),
                                    ids))
    records.sort(key=lambda r: r.sample)
    if config.out_jsonl:
        emit_report(records, config.out_jsonl, "jsonl", config=config)
    if config.out_csv:
        emit_report(records, config.out_csv, "csv", config=config)
    return records


def emit_report(records, path, fmt: str = "jsonl", *,
                config: SweepConfig) -> str:
    """Write a sweep's records to path as JSON-lines, after a line with
    its config and config hash, or as a summary CSV with fixed columns
    under a config-hash comment."""
    if fmt == "jsonl":
        write_json_lines([{"config": config.to_json_dict(include_paths=False),
                           "config_hash": config.config_hash},
                          *(r.to_json_dict() for r in records)], path)
    elif fmt == "csv":
        write_csv(CSV_COLUMNS, [r.csv_row() for r in records], path,
                  comment=f"config_hash={config.config_hash}")
    else:
        raise ValueError(f"unknown report format {fmt!r}")
    return path


def write_json_lines(docs, path=None) -> None:
    """Each document as one line of compact JSON with sorted keys, to the
    file at path or to stdout. Every JSON output but the field and metric
    files (FourierField.save) is written here."""
    text = "".join(json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"
                   for doc in docs)
    if path:
        Path(path).write_text(text)
    else:
        sys.stdout.write(text)


def write_csv(columns, rows, path, *, comment: str | None = None) -> None:
    """A CSV file: an optional "# comment" line, the header, then one line
    per row; floats are written by repr, so they read back exactly."""
    lines = [f"# {comment}"] if comment else []
    lines.append(",".join(columns))
    lines.extend(",".join(repr(float(v)) if isinstance(v, float) else str(v)
                          for v in row) for row in rows)
    Path(path).write_text("\n".join(lines) + "\n")
