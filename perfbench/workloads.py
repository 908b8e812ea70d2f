"""The benchmark's workloads: inputs made from a seed, CLI operations, checks.

Every workload draws its inputs from one *case*, an integer in
``range(POOL)`` picked by the run's ``--seed``.  ``references.json`` holds
the sha256 of every file each operation writes for every case, taken at the
seed commit, so a change that moves any reported number fails the check.
The program sees only the generated files and the command line.

Import this module only after ``src`` is on ``sys.path`` (``run.py`` does
that); it calls causet through module attributes so that the tracer's
patches on ``causet.synth.generate`` and ``causet.frame.write_csv`` apply.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from causet import frame as frame_mod
from causet import synth

POOL = 16

REFUTERS = ("random_common_cause", "placebo_treatment", "data_subset", "unobserved_confounder")
TRUTH_COLUMNS = ("tau_true", "e_true", "b_true")
NINE_CONFOUNDERS = [f"x{i}" for i in range(9)]


@dataclass(frozen=True)
class Op:
    """One CLI invocation; ``oracle`` replaces the reference-hash check."""

    name: str
    argv: tuple[str, ...]
    oracle: Callable[[Path], bool] | None = None


@dataclass(frozen=True)
class Workload:
    name: str
    setup_repeats: int
    make_inputs: Callable[[Path, int], None]
    operations: Callable[[Path, int], tuple[Op, ...]]


def _write_query(inputs: Path, stem: str, n: int, p: int, case: int,
                 edges: list[str], keys: dict[str, str]) -> None:
    """Synthetic CSV (covariates x0.., treatment w, outcome y), graph and spec."""
    f = synth.generate(n=n, p=p, seed=case).to_frame()
    for name in TRUTH_COLUMNS:
        f = f.drop(name)
    frame_mod.write_csv(f, inputs / f"{stem}.csv")
    graph = ["@treatment w", "@outcome y", "w -> y", *edges]
    (inputs / f"{stem}.graph").write_text("\n".join(graph) + "\n", encoding="utf-8")
    spec = {"data": f"{stem}.csv", "graph": f"{stem}.graph", "treatment": "w",
            "outcome": "y", "seed": str(case), **keys}
    (inputs / f"{stem}.spec").write_text(
        "".join(f"{k} = {v}\n" for k, v in spec.items()), encoding="utf-8")


# -- validate_gbt --------------------------------------------------------------
# `causet validate` at n=10000 with all eight learner/base combos; gbt fitting
# is about 98% of it.  One repetition per operation fits two operations in a
# 30 s run, so the reported median has two samples, not one.


def _validate_inputs(inputs: Path, case: int) -> None:
    """validate generates its own data from the seed; nothing to write."""


def _validate_ops(inputs: Path, case: int) -> tuple[Op, ...]:
    return (Op("validate", ("validate", "--n", "10000", "--repetitions", "1",
                            "--seed", str(case))),)


# -- refute_psm ----------------------------------------------------------------
# `causet refute` with psm as the target and all four refuters at 30
# repetitions over n=10000: propensity IRLS, quadratic PSM and frame
# derivation in every repetition, no gbt, a trivial graph.


def _refute_inputs(inputs: Path, case: int) -> None:
    edges = ["x0 -> w", "x1 -> w", *(f"x{i} -> y" for i in range(5))]
    _write_query(inputs, "psm", 10000, 5, case, edges, {
        "estimators": "psm",
        "refuters": ", ".join(REFUTERS),
        "refuter_repetitions": "30",
    })


def _refute_ops(inputs: Path, case: int) -> tuple[Op, ...]:
    return (Op("refute", ("refute", str(inputs / "psm.spec"))),)


# -- estimate_wide -------------------------------------------------------------
# `causet estimate` on 100k rows with 16 covariates: 6 confounders (x0..x5)
# and 10 outcome-only parents (x6..x15).  The DAG is sized so that both the
# CSV load and the subset enumeration of the backdoor search stay above a
# fifth of the operation.  The second, small query has 9 confounders; the
# backdoor search caps set size at 8 and wrongly reports it unidentifiable,
# a known defect that this operation keeps visible as a failure.


def _wide_inputs(inputs: Path, case: int) -> None:
    edges = [f"x{i} -> w" for i in range(6)] + [f"x{i} -> y" for i in range(16)]
    _write_query(inputs, "wide", 100_000, 16, case, edges, {
        "estimators": "regression_adjustment, ipw, stratification",
        "metalearners": "S:linear, T:linear, X:linear, R:linear",
    })
    edges = [f"{c} -> {v}" for c in NINE_CONFOUNDERS for v in ("w", "y")]
    _write_query(inputs, "nine", 3000, 9, case, edges,
                 {"estimators": "regression_adjustment"})


def _nine_confounders_adjusted(out: Path) -> bool:
    """Oracle: each x_i opens its own path w <- x_i -> y, so the only
    minimal backdoor set is all nine confounders."""
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    return report["adjustment_set"] == NINE_CONFOUNDERS


def _wide_ops(inputs: Path, case: int) -> tuple[Op, ...]:
    return (
        Op("wide", ("estimate", str(inputs / "wide.spec"))),
        Op("nine_confounders", ("estimate", str(inputs / "nine.spec")),
           oracle=_nine_confounders_adjusted),
    )


WORKLOADS = {
    w.name: w
    for w in (
        Workload("validate_gbt", 5, _validate_inputs, _validate_ops),
        Workload("refute_psm", 5, _refute_inputs, _refute_ops),
        Workload("estimate_wide", 3, _wide_inputs, _wide_ops),
    )
}
