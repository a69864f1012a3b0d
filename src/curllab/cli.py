"""Command-line front end.

Subcommands mirror the library surface: spectrum, fixed-points, orbits,
adapted-metric, reeb, instability, genericity-sweep, certify-all. All
outputs are deterministic JSON / JSON-lines / CSV documents.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

from .contact import adapted_metric, reeb_field, tight_form
from .curlspec import eigenpairs, parse_window
from .dynamics import (check_horizon, find_fixed_points, find_periodic_orbits,
                       named_field, parse_section)
from .errors import DegenerateMetricError, EnsembleAmplitudeError
from .fields import FourierField, MetricField, check_count, named_metric, sharp
from .instability import CertifyBudget, certify, certify_batch
from .lab import SweepConfig, run_sweep

BUDGET_PRESETS = {
    "default": {},
    "fast": {"T_max": 10.0, "n_seeds": 4, "orbit_seeds": 4, "wkb_T": 50.0},
    "thorough": {"T_max": 100.0, "n_seeds": 128, "orbit_seeds": 32},
}


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


def _metric(spec: str) -> MetricField:
    """--metric as a metric file, or a name that fields.named_metric reads."""
    try:
        if Path(spec).exists():
            return MetricField.load(spec)
        return named_metric(spec)
    except (OSError, KeyError, ValueError, DegenerateMetricError,
            EnsembleAmplitudeError) as err:
        raise argparse.ArgumentTypeError(
            f"expected a metric file or flat, conformal(c) or "
            f"random_cr(r,eps,seed[,cutoff]), got {spec!r} ({err})"
        ) from None


def _field(spec: str) -> FourierField:
    """--field as a vector or 1-form file, or a name that
    dynamics.named_field reads."""
    try:
        if Path(spec).exists():
            field = FourierField.load(spec)
            if field.rank not in ("one_form", "vector"):
                raise ValueError(f"cannot flow a field of rank {field.rank}")
            return field
        return named_field(spec)
    except (OSError, KeyError, ValueError) as err:
        raise argparse.ArgumentTypeError(
            f"expected a vector or 1-form file, abc:A,B,C or xi:k, got "
            f"{spec!r} ({err})"
        ) from None


def _flow_field(field: FourierField, metric: MetricField) -> FourierField:
    """The vector field u the CLI flows: a 1-form is read as an eigenform
    and flowed as its dual u = sharp(metric, form), the field certify
    starts from. The CLI flows u in the input field's time; certificates
    report times in the unit-mean-speed time of u rescaled."""
    return sharp(metric, field) if field.rank == "one_form" else field


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
    """--section axis,offset as a seeding plane for find_periodic_orbits,
    checked by dynamics.parse_section."""
    try:
        name, offset = (part.strip() for part in text.split(","))
        axis, offset = parse_section({"axis": name, "offset": offset})
    except ValueError as err:
        raise argparse.ArgumentTypeError(
            f"expected axis,offset with axis x, y, z, 0, 1 or 2 and a finite "
            f"offset, got {text!r} ({err})"
        ) from None
    return {"axis": axis, "offset": offset}


def _checked(convert, check, expected: str):
    """type= checker: convert the text, then check raises ValueError on a
    value out of range."""
    def parse(text: str):
        try:
            value = convert(text)
            check(value)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"expected {expected}, got {text!r}") from None
        return value
    return parse


def _at_least(minimum: int):
    """An integer option >= minimum, checked by fields.check_count."""
    return _checked(int, lambda n: check_count(n, "value", minimum),
                    f"an integer >= {minimum}")


# --t-max as a finite time > 0, checked by dynamics.check_horizon
_horizon = _checked(float, lambda T: check_horizon(T, "--t-max"),
                    "a finite time > 0")


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


def _sweep_config(path: str) -> SweepConfig:
    """--config as the path of a SweepConfig JSON file, checked up front."""
    try:
        return SweepConfig.from_json_dict(json.loads(Path(path).read_text()))
    except (OSError, TypeError, ValueError) as err:
        raise argparse.ArgumentTypeError(
            f"expected a sweep config JSON file, got {path!r} ({err})"
        ) from None


def cmd_spectrum(args) -> int:
    pairs = eigenpairs(args.metric, args.truncation,
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
    u = _flow_field(args.field, args.metric)
    records = find_fixed_points(u, grid_density=args.grid_density)
    _dump_lines([r.to_json_dict() for r in records], args.out)
    return 0


def cmd_orbits(args) -> int:
    u = _flow_field(args.field, args.metric)
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
    pairs = eigenpairs(args.metric, args.truncation,
                       {"count": args.eigen_index + 1})
    pair = pairs[args.eigen_index]
    cert = certify(args.metric, pair, args.budget)
    _dump(cert.to_json_dict(), args.out)
    return 0


def cmd_genericity_sweep(args) -> int:
    config = replace(args.config,
                     out_jsonl=args.out_jsonl or args.config.out_jsonl,
                     out_csv=args.out_csv or args.config.out_csv)
    records = run_sweep(config, n_threads=args.threads)
    failures = [r for r in records if r.error is not None]
    for r in failures:
        print(f"sample {r.sample} failed: {r.error}", file=sys.stderr)
    return 1 if failures else 0


def cmd_certify_all(args) -> int:
    pairs = eigenpairs(args.metric, args.truncation,
                       args.window or {"count": args.count})
    certs = certify_batch(args.metric, pairs, [args.budget] * len(pairs))
    for cert in certs:
        if isinstance(cert, Exception):
            raise cert
    _dump_lines([cert.to_json_dict() for cert in certs], args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="curllab",
        description="Curl eigenfields, Reeb dynamics, and instability "
                    "certificates on the flat 3-torus.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("spectrum", help="solve the curl eigenproblem")
    p.add_argument("--metric", type=_metric, default="flat",
                   help="metric file or name (flat, conformal(c), "
                        "random_cr(r,eps,seed[,cutoff]))")
    p.add_argument("--truncation", type=_at_least(1), required=True)
    p.add_argument("--window", type=_window, help="interval a,b excluding 0")
    p.add_argument("--count", type=_at_least(1), default=12,
                   help="number of eigenvalues nearest zero (used when no "
                        "--window is given)")
    p.add_argument("--out", help="JSON-lines output path (default stdout)")
    p.add_argument("--inline-fields", action="store_true",
                   help="embed eigenform coefficients in each record")
    p.add_argument("--fields-dir", help="write eigenforms as sidecar files")
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("fixed-points", help="locate and classify zeros")
    p.add_argument("--field", type=_field, required=True,
                   help="field file, abc:A,B,C, or xi:k")
    p.add_argument("--metric", type=_metric, default="flat")
    p.add_argument("--grid-density", type=int, default=24)
    p.add_argument("--out")
    p.set_defaults(func=cmd_fixed_points)

    p = sub.add_parser("orbits", help="hunt periodic orbits")
    p.add_argument("--field", type=_field, required=True)
    p.add_argument("--metric", type=_metric, default="flat")
    p.add_argument("--t-max", type=_horizon, default=30.0)
    p.add_argument("--seeds", type=_at_least(0), default=16)
    p.add_argument("--seed", type=_at_least(0), default=0)
    p.add_argument("--section", type=_section,
                   help="axis,offset seeding plane, e.g. z,0.0")
    p.add_argument("--trajectories", action="store_true",
                   help="include dense trajectory samples in the records")
    p.add_argument("--out")
    p.add_argument("--csv", help="also write seed/period/multiplier table")
    p.set_defaults(func=cmd_orbits)

    p = sub.add_parser("adapted-metric",
                       help="metric adapted to a canonical tight form")
    nonzero = _checked(int, lambda k: check_count(abs(k), "|k|", 1),
                       "a nonzero integer")
    p.add_argument("--k", type=nonzero, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_adapted_metric)

    p = sub.add_parser("reeb", help="Reeb field of a contact form")
    p.add_argument("--form", required=True, help="1-form JSON file")
    p.add_argument("--out")
    p.set_defaults(func=cmd_reeb)

    p = sub.add_parser("instability", help="certify one eigenpair")
    p.add_argument("--metric", type=_metric, required=True)
    p.add_argument("--truncation", type=_at_least(1), required=True)
    p.add_argument("--eigen-index", type=_at_least(0), default=0)
    p.add_argument("--budget", type=_budget, default="default",
                   help="preset name, JSON file, or inline JSON")
    p.add_argument("--out")
    p.set_defaults(func=cmd_instability)

    p = sub.add_parser("genericity-sweep", help="run a sweep config")
    p.add_argument("--config", type=_sweep_config, required=True,
                   help="sweep config JSON file")
    p.add_argument("--out-jsonl")
    p.add_argument("--out-csv")
    p.add_argument("--threads", type=_at_least(1), default=1,
                   help="worker processes (default: 1); "
                        "with more than one, set OPENBLAS_NUM_THREADS=1 so "
                        "BLAS threads do not oversubscribe the cores. The "
                        "JSONL bytes do not depend on this count, but they "
                        "do on the BLAS thread count")
    p.set_defaults(func=cmd_genericity_sweep)

    p = sub.add_parser("certify-all", help="certify every pair in a window")
    p.add_argument("--metric", type=_metric, required=True)
    p.add_argument("--truncation", type=_at_least(1), required=True)
    p.add_argument("--window", type=_window, help="interval a,b excluding 0")
    p.add_argument("--count", type=_at_least(1), default=6)
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
