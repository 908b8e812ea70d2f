"""Sensitivity battery: four refuters plus a normal-tail p-value.

A refuter re-runs an estimation procedure on perturbed copies of the data
and summarizes how far the estimate moves.  Procedures are described by an
:class:`EstimationTask` so the refuters can re-fit everything (including
nuisance models) on each perturbed frame.

All four run through one loop, ``_refute``; each refuter supplies only its
perturbation and its verdict rule.  Every refuter is deterministic per
(seed, repetitions): repetition ``i`` draws from its own child stream
``derive_seed(seed, i)``.  Refuted effects are sorted before any statistic
or verdict is computed, so aggregation order can never change a report, and
a verdict always follows from the mean the report shows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import EmptyFrameError
from .frame import Column, Frame
from .learners import _sigmoid
from .rng import derive_seed, make_rng

DEFAULT_REPETITIONS = 100
DEFAULT_SUBSET_FRACTION = 0.8
PLACEBO_RATIO = 0.25       # pass when |mean refuted| < ratio * |original|
STABLE_CHANGE = 0.10       # pass when relative change stays below this


@dataclass(frozen=True)
class EstimationTask:
    """A re-runnable estimation bound to column roles, not to one frame.

    ``estimate`` receives a frame and an adjustment set and returns the
    effect value; refuters call it with perturbed frames (and, for the
    random-common-cause refuter, an extended adjustment set).
    """

    estimate: Callable[[Frame, tuple[str, ...]], float]
    treatment: str
    outcome: str
    adjustment: tuple[str, ...]

    def run(self, f: Frame, adjustment: Sequence[str] | None = None) -> float:
        z = self.adjustment if adjustment is None else tuple(adjustment)
        return float(self.estimate(f, z))


@dataclass(frozen=True)
class RefutationReport:
    """Outcome of one refuter: the moved estimates and their summary.

    ``p_value`` is the two-sided tail probability of the original effect
    under a normal fit to the refuted effects.  For the placebo and
    random-common-cause refuters a HIGH p means the perturbation did not
    move the estimate in a way inconsistent with the original; the verdict
    rule applied is spelled out in ``verdict_rule``.
    """

    refuter: str
    original_effect: float
    refuted_effects: tuple[float, ...]
    mean_refuted: float
    relative_change: float
    p_value: float
    repetitions: int
    seed: int
    verdict: str
    verdict_rule: str


def _normal_tail_p(refuted: np.ndarray, original: float) -> float:
    """Two-sided tail probability of ``original`` under a normal fitted to
    ``refuted``, clamped to 1; with zero variance, 1 when ``original``
    equals the constant, else 0."""
    mean = float(refuted.mean())
    std = float(refuted.std())
    if std == 0.0:
        return 1.0 if original == mean else 0.0
    zscore = abs(original - mean) / std
    return min(1.0, math.erfc(zscore / math.sqrt(2.0)))


def _relative_change(mean_refuted: float, original: float) -> float:
    if original == 0.0:
        return 0.0 if mean_refuted == 0.0 else math.inf
    return abs(mean_refuted - original) / abs(original)


def _refute(
    name: str,
    task: EstimationTask,
    f: Frame,
    repetitions: int,
    seed: int,
    perturb: Callable[[np.random.Generator], tuple],
    judge: Callable[[float, tuple[float, ...], float], tuple[str, str]],
) -> RefutationReport:
    """The one refuter loop: the original run, then one perturbed run per repetition.

    Repetition ``i`` calls ``perturb`` with its own stream ``derive_seed(seed,
    i)``, and ``perturb`` returns the arguments of that ``task.run``.
    ``judge(original, refuted, mean)`` returns the verdict and its rule from
    the sorted effects and their mean, the same numbers the report holds.
    """
    if repetitions < 1:
        raise ValueError("repetitions must be >= 1")
    original = task.run(f)
    runs = [task.run(*perturb(make_rng(derive_seed(seed, i)))) for i in range(repetitions)]
    arr = np.sort(np.asarray(runs, dtype=float))
    refuted = tuple(arr.tolist())
    mean = float(arr.mean())
    verdict, rule = judge(original, refuted, mean)
    return RefutationReport(
        refuter=name, original_effect=original, refuted_effects=refuted, mean_refuted=mean,
        relative_change=_relative_change(mean, original), p_value=_normal_tail_p(arr, original),
        repetitions=repetitions, seed=seed, verdict=verdict, verdict_rule=rule,
    )


def _stable_judge(original: float, refuted: tuple[float, ...], mean: float) -> tuple[str, str]:
    """The random-common-cause and data-subset rule."""
    ok = _relative_change(mean, original) < STABLE_CHANGE
    return ("pass" if ok else "fail"), f"pass when relative change < {STABLE_CHANGE}"


def _fresh_name(f: Frame, stem: str) -> str:
    name = stem
    suffix = 0
    while name in f.names:
        suffix += 1
        name = f"{stem}_{suffix}"
    return name


def refute_random_common_cause(
    task: EstimationTask,
    f: Frame,
    repetitions: int = DEFAULT_REPETITIONS,
    seed: int = 0,
) -> RefutationReport:
    """Re-estimate with an independent standard-normal covariate adjoined.

    The new column is appended to the frame and to the adjustment set for
    every repetition.  A sound estimate should barely move.
    """
    n = f.n_rows
    name = _fresh_name(f, "random_cause")

    def perturb(rng):
        col = Column(name, "numeric", rng.standard_normal(n), np.zeros(n, dtype=bool))
        return f.with_column(col), (*task.adjustment, name)

    return _refute("random_common_cause", task, f, repetitions, seed, perturb, _stable_judge)


def refute_placebo(
    task: EstimationTask,
    f: Frame,
    repetitions: int = DEFAULT_REPETITIONS,
    seed: int = 0,
) -> RefutationReport:
    """Re-estimate with the treatment replaced by an independent coin flip.

    The placebo treatment is Bernoulli with the original prevalence, so arm
    sizes stay comparable.  A sound estimate collapses towards zero.
    """
    prevalence = float(f.binary_vector(task.treatment).mean())
    n = f.n_rows

    def perturb(rng):
        placebo = (rng.uniform(size=n) < prevalence).astype(float)
        col = Column(task.treatment, "binary", placebo, np.zeros(n, dtype=bool))
        return (f.with_column(col),)

    def judge(original, refuted, mean):
        ok = abs(mean) < PLACEBO_RATIO * abs(original)
        rule = f"pass when |mean refuted| < {PLACEBO_RATIO} * |original|"
        return ("pass" if ok else "fail"), rule

    return _refute("placebo_treatment", task, f, repetitions, seed, perturb, judge)


def refute_subset(
    task: EstimationTask,
    f: Frame,
    fraction: float = DEFAULT_SUBSET_FRACTION,
    repetitions: int = DEFAULT_REPETITIONS,
    seed: int = 0,
) -> RefutationReport:
    """Re-estimate on seeded uniform row subsamples of the given fraction."""
    if not 0.0 < fraction < 1.0:
        raise ValueError("fraction must be strictly between 0 and 1")
    n = f.n_rows
    if n == 0:
        raise EmptyFrameError("cannot subsample an empty frame")
    m = math.ceil(n * fraction - 1e-9)
    return _refute(
        "data_subset", task, f, repetitions, seed,
        lambda rng: (f.subset_rows(np.sort(rng.permutation(n)[:m])),), _stable_judge,
    )


def _simulate_confounder(rng, tv: np.ndarray, strength_t: float, base_p: float) -> np.ndarray:
    """Latent u ~ N(0,1) drawn conditional on the observed arms.

    Under the tilt model P(t=1 | u) = sigmoid(logit(base_p) + strength_t*u),
    treated units carry upward-tilted u and controls downward-tilted u, so
    the simulated confounder is exactly as predictive of treatment as the
    logit shift implies.  Sampled by vectorized rejection with a fixed
    round count, so results are deterministic per stream.
    """
    n = tv.shape[0]
    logit_base = math.log(base_p / (1.0 - base_p))
    u = np.zeros(n)
    pending = np.ones(n, dtype=bool)
    for _ in range(64):
        proposal = rng.standard_normal(n)
        u[pending] = proposal[pending]
        p_treat = _sigmoid(logit_base + strength_t * proposal)
        accept_p = np.where(tv == 1.0, p_treat, 1.0 - p_treat)
        pending &= ~(rng.uniform(size=n) < accept_p)
        if not pending.any():
            break
    return u


def refute_unobserved_confounder(
    task: EstimationTask,
    f: Frame,
    strength_t: float,
    strength_y: float,
    repetitions: int = DEFAULT_REPETITIONS,
    seed: int = 0,
) -> RefutationReport:
    """Re-estimate after simulating a latent confounder of given strengths.

    Each repetition simulates a standard-normal confounder u that tilts the
    treatment-assignment probability by a logit shift of strength_t * u --
    u is drawn conditional on the observed arms under that model, so the
    factual assignment is kept -- and shifts the outcome additively by
    strength_y * u.  The estimate is re-run without conditioning on u, so
    the report shows the effect range a hidden confounder of this strength
    would induce.  Zero strengths leave the frame untouched, bit for bit.
    """
    for s in (strength_t, strength_y):
        if not 0.0 <= s < 1.0:
            raise ValueError("strengths must lie in [0, 1)")
    tv = f.binary_vector(task.treatment)
    yc = f.column(task.outcome)
    base_p = min(max(float(tv.mean()), 0.05), 0.95)

    def perturb(rng):
        u = _simulate_confounder(rng, tv, strength_t, base_p)
        if strength_y > 0.0:
            y = yc.values + strength_y * u
            return (f.with_column(Column(task.outcome, "numeric", y, yc.missing)),)
        return (f,)

    def judge(original, refuted, mean):
        return "info", (
            f"induced effect range [{refuted[0]!r}, {refuted[-1]!r}] at strengths "
            f"({strength_t!r}, {strength_y!r}); informational"
        )

    return _refute("unobserved_confounder", task, f, repetitions, seed, perturb, judge)
