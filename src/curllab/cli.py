"""Command-line front end.

Subcommands mirror the library surface: spectrum, fixed-points, orbits,
adapted-metric, reeb, instability, genericity-sweep, certify-all. All
outputs are deterministic JSON / JSON-lines / CSV documents.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

from .contact import adapted_metric, reeb_field, tight_form
from .curlspec import eigenpairs, parse_window
from .dynamics import find_fixed_points, find_periodic_orbits, named_field
from .fields import FourierField, MetricField, named_metric, sharp
from .instability import CertifyBudget, certify
from .lab import SweepConfig, run_sweep

BUDGET_PRESETS = {
    "default": {},
    "fast": {"T_max": 10.0, "n_seeds": 4, "orbit_seeds": 4, "wkb_T": 50.0},
    "thorough": {"T_max": 100.0, "n_seeds": 128, "orbit_seeds": 32},
}
SECTION_AXES = {"x": 0, "y": 1, "z": 2, "0": 0, "1": 1, "2": 2}


def _dump(obj, path: str | None):
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    if path:
        Path(path).write_text(text + "\n")
    else:
        print(text)


def _dump_lines(objs, path: str | None):
    lines = [json.dumps(o, sort_keys=True, separators=(",", ":")) for o in objs]
    payload = "\n".join(lines) + ("\n" if lines else "")
    if path:
        Path(path).write_text(payload)
    else:
        sys.stdout.write(payload)


def _load_metric(spec: str) -> MetricField:
    if Path(spec).exists():
        return MetricField.load(spec)
    return named_metric(spec)


def _load_field(spec: str, metric: MetricField) -> FourierField:
    """Vector field from a file or a named analytic family.

    A 1-form file is interpreted as an eigenform and converted to its
    metric-dual vector field.
    """
    if Path(spec).exists():
        field = FourierField.load(spec)
        if field.rank == "one_form":
            return sharp(metric, field)
        if field.rank == "vector":
            return field
        raise ValueError(f"cannot flow a field of rank {field.rank}")
    return named_field(spec)


def _window(text: str) -> dict:
    """--window a,b as an interval window, checked by curlspec.parse_window."""
    try:
        a, b = (float(v) for v in text.split(","))
        window = {"interval": [a, b]}
        parse_window(window)
    except ValueError as err:
        raise argparse.ArgumentTypeError(
            f"expected a finite interval a,b that excludes 0, got {text!r} ({err})"
        ) from None
    return window


def _section(text: str) -> dict:
    """--section axis,offset as a seeding plane for find_periodic_orbits."""
    try:
        name, offset = (part.strip() for part in text.split(","))
        if name not in SECTION_AXES:
            raise ValueError(f"unknown axis {name!r}")
        offset = float(offset)
        if not math.isfinite(offset):
            raise ValueError("the offset must be finite")
    except ValueError as err:
        raise argparse.ArgumentTypeError(
            f"expected axis,offset with axis x, y, z, 0, 1 or 2 and a finite "
            f"offset, got {text!r} ({err})"
        ) from None
    return {"axis": SECTION_AXES[name], "offset": offset}


def _budget(spec: str) -> CertifyBudget:
    """--budget as a preset name, inline JSON of budget fields (an object,
    so it starts with "{") or the path of a file holding that JSON."""
    try:
        if spec in BUDGET_PRESETS:
            return CertifyBudget(**BUDGET_PRESETS[spec])
        text = spec if spec.lstrip().startswith("{") else Path(spec).read_text()
        return CertifyBudget(**json.loads(text))
    except (OSError, TypeError, ValueError) as err:
        raise argparse.ArgumentTypeError(
            f"expected a preset ({', '.join(BUDGET_PRESETS)}), a JSON file "
            f"or inline JSON of budget fields, got {spec!r} ({err})"
        ) from None


def cmd_spectrum(args) -> int:
    metric = _load_metric(args.metric)
    pairs = eigenpairs(metric, args.truncation,
                       args.window or {"count": args.count})
    sidecar = Path(args.fields_dir) if args.fields_dir else None
    if sidecar:
        sidecar.mkdir(parents=True, exist_ok=True)
    records = []
    for pair in pairs:
        rec = pair.to_json_dict(include_form=args.inline_fields)
        if sidecar:
            form_path = sidecar / f"eigenform_{pair.index:04d}.json"
            pair.form.save(form_path)
            rec["form_file"] = str(form_path)
        records.append(rec)
    _dump_lines(records, args.out)
    return 0


def cmd_fixed_points(args) -> int:
    metric = _load_metric(args.metric)
    u = _load_field(args.field, metric)
    records = find_fixed_points(u, grid_density=args.grid_density)
    _dump_lines([r.to_json_dict() for r in records], args.out)
    return 0


def cmd_orbits(args) -> int:
    metric = _load_metric(args.metric)
    u = _load_field(args.field, metric)
    records = find_periodic_orbits(
        u, T_max=args.t_max, section_spec=args.section, n_seeds=args.seeds,
        seed=args.seed,
    )
    _dump_lines(
        [r.to_json_dict(include_trajectory=args.trajectories) for r in records],
        args.out,
    )
    if args.csv:
        rows = ["seed_x,seed_y,seed_z,period,mult1_re,mult1_im,"
                "mult2_re,mult2_im,orbit_type"]
        for r in records:
            m = r.multipliers
            rows.append(",".join(
                [repr(float(v)) for v in r.seed]
                + [repr(r.period)]
                + [repr(float(m[0].real)), repr(float(m[0].imag)),
                   repr(float(m[1].real)), repr(float(m[1].imag))]
                + [r.orbit_type]
            ))
        Path(args.csv).write_text("\n".join(rows) + "\n")
    return 0


def cmd_adapted_metric(args) -> int:
    result = adapted_metric(tight_form(args.k))
    result.metric.save(args.out)
    _dump(
        {
            "metric_file": args.out,
            "eigenvalue": result.eigenvalue,
            "residual": result.residual,
        },
        None,
    )
    return 0


def cmd_reeb(args) -> int:
    form = FourierField.load(args.form)
    X = reeb_field(form)
    if args.out:
        X.save(args.out)
    else:
        _dump(X.to_json_dict(tol=1e-14), None)
    return 0


def cmd_instability(args) -> int:
    metric = _load_metric(args.metric)
    pairs = eigenpairs(metric, args.truncation, {"count": args.eigen_index + 1})
    pair = pairs[args.eigen_index]
    cert = certify(metric, pair, args.budget)
    _dump(cert.to_json_dict(), args.out)
    return 0


def cmd_genericity_sweep(args) -> int:
    config = SweepConfig.from_json_dict(json.loads(Path(args.config).read_text()))
    if args.out_jsonl:
        config = SweepConfig.from_json_dict(
            {**config.to_json_dict(), "out_jsonl": args.out_jsonl}
        )
    if args.out_csv:
        config = SweepConfig.from_json_dict(
            {**config.to_json_dict(), "out_csv": args.out_csv}
        )
    records = run_sweep(config, n_threads=args.threads)
    failures = [r for r in records if r.error is not None]
    for r in failures:
        print(f"sample {r.sample} failed: {r.error}", file=sys.stderr)
    return 1 if failures else 0


def cmd_certify_all(args) -> int:
    metric = _load_metric(args.metric)
    pairs = eigenpairs(metric, args.truncation,
                       args.window or {"count": args.count})
    docs = []
    for pair in pairs:
        cert = certify(metric, pair, args.budget)
        docs.append(cert.to_json_dict())
    _dump_lines(docs, args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="curllab",
        description="Curl eigenfields, Reeb dynamics, and instability "
                    "certificates on the flat 3-torus.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("spectrum", help="solve the curl eigenproblem")
    p.add_argument("--metric", default="flat",
                   help="metric file or name (flat, conformal(c), "
                        "random_cr(r,eps,seed))")
    p.add_argument("--truncation", type=int, required=True)
    p.add_argument("--window", type=_window, help="interval a,b excluding 0")
    p.add_argument("--count", type=int, default=12,
                   help="number of eigenvalues nearest zero (used when no "
                        "--window is given)")
    p.add_argument("--out", help="JSON-lines output path (default stdout)")
    p.add_argument("--inline-fields", action="store_true",
                   help="embed eigenform coefficients in each record")
    p.add_argument("--fields-dir", help="write eigenforms as sidecar files")
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("fixed-points", help="locate and classify zeros")
    p.add_argument("--field", required=True,
                   help="field file, abc:A,B,C, or xi:k")
    p.add_argument("--metric", default="flat")
    p.add_argument("--grid-density", type=int, default=24)
    p.add_argument("--out")
    p.set_defaults(func=cmd_fixed_points)

    p = sub.add_parser("orbits", help="hunt periodic orbits")
    p.add_argument("--field", required=True)
    p.add_argument("--metric", default="flat")
    p.add_argument("--t-max", type=float, default=30.0)
    p.add_argument("--seeds", type=int, default=16)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--section", type=_section,
                   help="axis,offset seeding plane, e.g. z,0.0")
    p.add_argument("--trajectories", action="store_true",
                   help="include dense trajectory samples in the records")
    p.add_argument("--out")
    p.add_argument("--csv", help="also write seed/period/multiplier table")
    p.set_defaults(func=cmd_orbits)

    p = sub.add_parser("adapted-metric",
                       help="metric adapted to a canonical tight form")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_adapted_metric)

    p = sub.add_parser("reeb", help="Reeb field of a contact form")
    p.add_argument("--form", required=True, help="1-form JSON file")
    p.add_argument("--out")
    p.set_defaults(func=cmd_reeb)

    p = sub.add_parser("instability", help="certify one eigenpair")
    p.add_argument("--metric", required=True)
    p.add_argument("--truncation", type=int, required=True)
    p.add_argument("--eigen-index", type=int, default=0)
    p.add_argument("--budget", type=_budget, default="default",
                   help="preset name, JSON file, or inline JSON")
    p.add_argument("--out")
    p.set_defaults(func=cmd_instability)

    p = sub.add_parser("genericity-sweep", help="run a sweep config")
    p.add_argument("--config", required=True)
    p.add_argument("--out-jsonl")
    p.add_argument("--out-csv")
    p.add_argument("--threads", type=int, default=1,
                   help="worker threads (default: 1); "
                        "with more than one, set OPENBLAS_NUM_THREADS=1 so "
                        "BLAS threads do not oversubscribe the cores")
    p.set_defaults(func=cmd_genericity_sweep)

    p = sub.add_parser("certify-all", help="certify every pair in a window")
    p.add_argument("--metric", required=True)
    p.add_argument("--truncation", type=int, required=True)
    p.add_argument("--window", type=_window, help="interval a,b excluding 0")
    p.add_argument("--count", type=int, default=6)
    p.add_argument("--budget", type=_budget, default="fast",
                   help="preset name, JSON file, or inline JSON")
    p.add_argument("--out")
    p.set_defaults(func=cmd_certify_all)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
