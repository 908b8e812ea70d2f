"""Command-line interface.

Subcommands: ``synth`` (emit a synthetic CSV), ``estimate <spec>``,
``refute <spec>``, ``validate``, ``compare <reports...>``.  ``--seed``
overrides the spec-file seed; the ``CAUSET_SEED`` environment variable is
the fallback when neither is given.  Exit code is 0 iff no errors; failures
print a machine-readable error block to stderr.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from pathlib import Path

from . import pipeline, synth
from .errors import CausetError
from .frame import write_csv
from .pipeline import parse_query_spec, report_to_json


def _resolve_seed(flag: int | None, spec_seed: int | None = None) -> int:
    """``--seed``, else the spec's ``seed``, else ``CAUSET_SEED`` (read only then), else 0."""
    for seed in (flag, spec_seed):
        if seed is not None:
            return seed
    raw = os.environ.get("CAUSET_SEED")
    if raw is None:
        return 0
    try:
        return int(raw)
    except ValueError:
        raise CausetError(f"CAUSET_SEED must be an integer, got {raw!r}") from None


def _load_spec(path: str, seed_flag: int | None):
    """The query spec, its seed resolved by :func:`_resolve_seed`."""
    spec = parse_query_spec(path, default_seed=None)
    return dataclasses.replace(spec, seed=_resolve_seed(seed_flag, spec.seed))


def _emit_report(report: dict, out_dir: Path, filename: str, fmt: str) -> None:
    text = report_to_json(report)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / filename).write_text(text, encoding="utf-8")
    if fmt == "machine":
        sys.stdout.write(text)
    elif report.get("kind") == "query":
        sys.stdout.write(
            pipeline.render_table(
                ("method", "estimand", "effect", "relative_effect"), report["effects"]
            )
        )
        if report["refutations"]:
            sys.stdout.write(
                pipeline.render_table(
                    ("refuter", "mean_refuted", "relative_change", "p_value", "verdict"),
                    report["refutations"],
                )
            )
    elif report.get("kind") == "validation":
        rows = [
            {"combo": label, **{m: stats["mean"] for m, stats in per.items()}}
            for label, per in report["aggregate"].items()
        ]
        sys.stdout.write(
            pipeline.render_table(
                ("combo", "ate", "ate_error", "mse_val", "kld_val", "auuc_val"), rows
            )
        )
    sys.stdout.write(f"report: {out_dir / filename}\n")


def _cmd_synth(args) -> int:
    seed = _resolve_seed(args.seed)
    dataset = synth.generate(n=args.n, p=args.p, sigma=args.sigma, seed=seed)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / "synthetic.csv"
    write_csv(dataset.to_frame(), path)
    if args.format == "machine":
        sys.stdout.write(json.dumps({"path": str(path), "n": dataset.n, "p": dataset.p,
                                     "sigma": args.sigma, "seed": seed}) + "\n")
    else:
        sys.stdout.write(f"wrote {path} ({dataset.n} rows, seed {seed})\n")
    return 0


def _cmd_estimate(args) -> int:
    spec = _load_spec(args.spec, args.seed)
    spec = dataclasses.replace(spec, refuters=())
    report = pipeline.run_query(spec, out_dir=args.out)
    _emit_report(report, Path(args.out), "report.json", args.format)
    return 0


def _cmd_refute(args) -> int:
    spec = _load_spec(args.spec, args.seed)
    if not spec.refuters:
        spec = dataclasses.replace(spec, refuters=pipeline.REFUTER_NAMES)
    if not spec.estimators:
        raise CausetError("refute needs at least one estimator in the spec")
    spec = dataclasses.replace(spec, estimators=spec.estimators[:1], metalearners=())
    report = pipeline.run_query(spec, out_dir=args.out)
    _emit_report(report, Path(args.out), "refutation_report.json", args.format)
    return 0


def _cmd_validate(args) -> int:
    seed = _resolve_seed(args.seed)
    report = pipeline.run_validation(
        n=args.n, repetitions=args.repetitions, sigma=args.sigma, seed=seed,
        out_dir=args.out,
    )
    _emit_report(report, Path(args.out), "validation_report.json", args.format)
    return 0


def _cmd_compare(args) -> int:
    reports = []
    for path in args.reports:
        try:
            report = json.loads(Path(path).read_text(encoding="utf-8-sig"))
        except OSError as exc:
            raise CausetError(f"cannot read report {path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise CausetError(f"report {path} is not valid JSON: {exc}") from exc
        if not isinstance(report, dict):
            raise CausetError(f"report {path} is not a JSON object")
        reports.append(report)
    comparison = pipeline.compare_report(reports)
    if args.format == "machine" or args.out is not None:
        text = report_to_json(comparison)
    if args.format == "machine":
        sys.stdout.write(text)
    else:
        sys.stdout.write(pipeline.render_table(comparison["columns"], comparison["rows"]))
    if args.out is not None:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / "comparison.json").write_text(text, encoding="utf-8")
    return 0


def _add_common(parser, default_out: str) -> None:
    parser.add_argument("--seed", type=int, default=None, help="seed override")
    parser.add_argument("--out", default=default_out, help="output directory")
    parser.add_argument("--format", choices=("table", "machine"), default="table")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="causet",
        description="Causal-effect estimation toolkit: identify, estimate, refute, validate.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="emit a synthetic ground-truth CSV")
    p.add_argument("--n", type=int, default=10000)
    p.add_argument("--p", type=int, default=5)
    p.add_argument("--sigma", type=float, default=1.0)
    _add_common(p, "out")
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("estimate", help="run every selected estimator and metalearner")
    p.add_argument("spec", help="query-spec file")
    _add_common(p, "out")
    p.set_defaults(func=_cmd_estimate)

    p = sub.add_parser("refute", help="run the refuter battery against the first estimator")
    p.add_argument("spec", help="query-spec file")
    _add_common(p, "out")
    p.set_defaults(func=_cmd_refute)

    p = sub.add_parser("validate", help="synthetic ground-truth comparison of all learners")
    p.add_argument("--n", type=int, default=10000)
    p.add_argument("--repetitions", type=int, default=10)
    p.add_argument("--sigma", type=float, default=1.0)
    _add_common(p, "out")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("compare", help="consolidate query reports into one table")
    p.add_argument("reports", nargs="+", help="report.json files")
    p.add_argument("--out", default=None, help="directory for comparison.json (optional)")
    p.add_argument("--format", choices=("table", "machine"), default="table")
    p.set_defaults(func=_cmd_compare)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (CausetError, OSError, ValueError) as exc:
        block = {"error": {"type": type(exc).__name__, "message": str(exc),
                           "command": args.command}}
        sys.stderr.write(json.dumps(block, indent=2, sort_keys=True) + "\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
