"""Command-line front end.

Subcommands mirror the library surface: spectrum, fixed-points, orbits,
adapted-metric, reeb, instability, genericity-sweep, certify-all. Each
option value goes through one converter, _argument, around the library's
own parser for it (fields.named_metric, dynamics.named_field,
curlspec.parse_window, dynamics.parse_section, CertifyBudget,
SweepConfig and the count and horizon checks), so a malformed value
exits 2 with "argument --X: expected ..., got '...' (reason)". Outputs
are deterministic: JSON documents, one per line, from lab.write_json_lines,
CSV tables from lab.write_csv, and field and metric files in their own
format (FourierField.save).
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
from .errors import CurlLabError
from .fields import FourierField, MetricField, check_count, named_metric, sharp
from .instability import CertifyBudget, certify, certify_batch
from .lab import SweepConfig, run_sweep, write_csv, write_json_lines

BUDGET_PRESETS = {
    "default": {},
    "fast": {"T_max": 10.0, "n_seeds": 4, "orbit_seeds": 4, "wkb_T": 50.0},
    "thorough": {"T_max": 100.0, "n_seeds": 128, "orbit_seeds": 32},
}
ORBIT_CSV_COLUMNS = ("seed_x", "seed_y", "seed_z", "period", "mult1_re",
                     "mult1_im", "mult2_re", "mult2_im", "orbit_type")
SECTION_KEYS = ("axis", "offset")


def _argument(parse, expected: str):
    """An argparse type from one of the library's parsers: parse(text)
    returns the option's value, and any error it raises makes the usage
    error "argument --X: expected ..., got '...' (reason)"."""
    def convert(text: str):
        try:
            return parse(text)
        except (OSError, KeyError, TypeError, ValueError, CurlLabError) as err:
            raise argparse.ArgumentTypeError(
                f"expected {expected}, got {text!r} ({err})") from None
    return convert


def _flow_field(field: FourierField, metric: MetricField) -> FourierField:
    """The vector field u the CLI flows: a 1-form is read as an eigenform
    and flowed as its dual u = sharp(metric, form), the field certify
    starts from. The CLI flows u in the input field's time; certificates
    report times in the unit-mean-speed time of u rescaled."""
    return sharp(metric, field) if field.rank == "one_form" else field


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
    write_json_lines(records, args.out)
    return 0


def cmd_fixed_points(args) -> int:
    u = _flow_field(args.field, args.metric)
    records = find_fixed_points(u, grid_density=args.grid_density)
    write_json_lines([r.to_json_dict() for r in records], args.out)
    return 0


def cmd_orbits(args) -> int:
    u = _flow_field(args.field, args.metric)
    records = find_periodic_orbits(
        u, T_max=args.t_max, section_spec=args.section, n_seeds=args.seeds,
        seed=args.seed,
    )
    write_json_lines(
        [r.to_json_dict(include_trajectory=args.trajectories) for r in records],
        args.out,
    )
    if args.csv:
        write_csv(ORBIT_CSV_COLUMNS,
                  [[*r.seed, r.period, r.multipliers[0].real,
                    r.multipliers[0].imag, r.multipliers[1].real,
                    r.multipliers[1].imag, r.orbit_type] for r in records],
                  args.csv)
    return 0


def cmd_adapted_metric(args) -> int:
    result = adapted_metric(args.k)
    result.metric.save(args.out)
    write_json_lines([{"metric_file": args.out, "eigenvalue": result.eigenvalue,
                       "residual": result.residual}])
    return 0


def cmd_reeb(args) -> int:
    X = reeb_field(args.form)
    if args.out:
        X.save(args.out)
    else:
        write_json_lines([X.to_json_dict(tol=1e-14)])
    return 0


def cmd_instability(args) -> int:
    pairs = eigenpairs(args.metric, args.truncation,
                       {"count": args.eigen_index + 1})
    pair = pairs[args.eigen_index]
    cert = certify(args.metric, pair, args.budget)
    write_json_lines([cert.to_json_dict()], args.out)
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
    write_json_lines([cert.to_json_dict() for cert in certs], args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="curllab",
        description="Curl eigenfields, Reeb dynamics, and instability "
                    "certificates on the flat 3-torus.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    metric = _argument(
        lambda spec: (MetricField.load(spec) if Path(spec).exists()
                      else named_metric(spec)),
        "a metric file or flat, conformal(c) or random_cr(r,eps,seed[,cutoff])")
    field = _argument(named_field, "a vector or 1-form file, abc:A,B,C or xi:k")
    window = _argument(
        lambda text: {"interval": list(parse_window(
            {"interval": [float(v) for v in text.split(",")]})[1:])},
        "a finite interval a,b that excludes 0")
    positive = _argument(lambda text: check_count(int(text), "value", 1),
                         "an integer >= 1")
    natural = _argument(lambda text: check_count(int(text), "value", 0),
                        "an integer >= 0")
    budget = _argument(
        lambda spec: CertifyBudget(**(
            BUDGET_PRESETS[spec] if spec in BUDGET_PRESETS else json.loads(
                spec if spec.lstrip().startswith("{")
                else Path(spec).read_text()))),
        f"a preset ({', '.join(BUDGET_PRESETS)}), a JSON file or inline "
        f"JSON of budget fields")
    horizon = _argument(lambda text: check_horizon(float(text), "--t-max"),
                        "a finite time > 0")
    section = _argument(
        lambda text: dict(zip(SECTION_KEYS, parse_section(dict(zip(
            SECTION_KEYS, text.replace(" ", "").split(","), strict=True))))),
        "axis,offset with axis x, y, z, 0, 1 or 2 and a finite offset")
    config = _argument(
        lambda path: SweepConfig.from_json_dict(json.loads(Path(path).read_text())),
        "a sweep config JSON file")

    p = sub.add_parser("spectrum", help="solve the curl eigenproblem")
    p.add_argument("--metric", type=metric, default="flat",
                   help="metric file or name (flat, conformal(c), "
                        "random_cr(r,eps,seed[,cutoff]))")
    p.add_argument("--truncation", type=positive, required=True)
    p.add_argument("--window", type=window, help="interval a,b excluding 0")
    p.add_argument("--count", type=positive, default=12,
                   help="number of eigenvalues nearest zero (used when no "
                        "--window is given)")
    p.add_argument("--out", help="JSON-lines output path (default stdout)")
    p.add_argument("--inline-fields", action="store_true",
                   help="embed eigenform coefficients in each record")
    p.add_argument("--fields-dir", help="write eigenforms as sidecar files")
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("fixed-points", help="locate and classify zeros")
    p.add_argument("--field", type=field, required=True,
                   help="field file, abc:A,B,C, or xi:k")
    p.add_argument("--metric", type=metric, default="flat")
    p.add_argument("--grid-density", type=_argument(int, "an integer"),
                   default=24)
    p.add_argument("--out")
    p.set_defaults(func=cmd_fixed_points)

    p = sub.add_parser("orbits", help="hunt periodic orbits")
    p.add_argument("--field", type=field, required=True)
    p.add_argument("--metric", type=metric, default="flat")
    p.add_argument("--t-max", type=horizon, default=30.0)
    p.add_argument("--seeds", type=natural, default=16)
    p.add_argument("--seed", type=natural, default=0)
    p.add_argument("--section", type=section,
                   help="axis,offset seeding plane, e.g. z,0.0")
    p.add_argument("--trajectories", action="store_true",
                   help="include dense trajectory samples in the records")
    p.add_argument("--out")
    p.add_argument("--csv", help="also write seed/period/multiplier table")
    p.set_defaults(func=cmd_orbits)

    p = sub.add_parser("adapted-metric",
                       help="metric adapted to a canonical tight form")
    p.add_argument("--k", required=True,
                   type=_argument(lambda text: tight_form(int(text)),
                                  "a nonzero integer"),
                   help="the tight form sin(kz) dx + cos(kz) dy")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_adapted_metric)

    p = sub.add_parser("reeb", help="Reeb field of a contact form")
    p.add_argument("--form", required=True, help="1-form JSON file",
                   type=_argument(FourierField.load, "a 1-form JSON file"))
    p.add_argument("--out")
    p.set_defaults(func=cmd_reeb)

    p = sub.add_parser("instability", help="certify one eigenpair")
    p.add_argument("--metric", type=metric, required=True)
    p.add_argument("--truncation", type=positive, required=True)
    p.add_argument("--eigen-index", type=natural, default=0)
    p.add_argument("--budget", type=budget, default="default",
                   help="preset name, JSON file, or inline JSON")
    p.add_argument("--out")
    p.set_defaults(func=cmd_instability)

    p = sub.add_parser("genericity-sweep", help="run a sweep config")
    p.add_argument("--config", type=config, required=True,
                   help="sweep config JSON file")
    p.add_argument("--out-jsonl")
    p.add_argument("--out-csv")
    p.add_argument("--threads", type=positive, default=1,
                   help="worker processes (default: 1); "
                        "with more than one, set OPENBLAS_NUM_THREADS=1 so "
                        "BLAS threads do not oversubscribe the cores. The "
                        "JSONL bytes do not depend on this count, but they "
                        "do on the BLAS thread count")
    p.set_defaults(func=cmd_genericity_sweep)

    p = sub.add_parser("certify-all", help="certify every pair in a window")
    p.add_argument("--metric", type=metric, required=True)
    p.add_argument("--truncation", type=positive, required=True)
    p.add_argument("--window", type=window, help="interval a,b excluding 0")
    p.add_argument("--count", type=positive, default=6)
    p.add_argument("--budget", type=budget, default="fast",
                   help="preset name, JSON file, or inline JSON")
    p.add_argument("--out")
    p.set_defaults(func=cmd_certify_all)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
