"""Classical average-effect estimators over a backdoor adjustment set.

All four estimators are pure functions of an immutable frame: regression
adjustment, propensity-score matching (ATT), inverse propensity weighting,
and propensity stratification.  Propensity scores are always clipped away
from 0 and 1 so the weighting estimators stay finite.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import NoValidStrataError, SingleClassError
from .frame import Frame
from .learners import FittedModel, fit_linear, fit_logistic

DEFAULT_CLIP = 0.05
DEFAULT_STRATA = 5


@dataclass(frozen=True)
class EffectEstimate:
    """One method's average-effect estimate in outcome units.

    ``estimand`` is "ATE" or "ATT"; ``adjustment_set`` records the covariates
    conditioned on.
    """

    method: str
    estimand: str
    value: float
    n_treated: int
    n_control: int
    adjustment_set: tuple[str, ...]

    def __post_init__(self):
        if not np.isfinite(self.value):
            raise ValueError(f"effect estimate for {self.method!r} is not finite")


class PropensityModel:
    """Fitted treatment-assignment model with clipped scores.

    A model made by :func:`fit_propensity` keeps its fitting frame's
    treatment and adjustment ``Column`` objects, its scores there and, once
    made, its matching there.  Columns are immutable, so the kept results
    answer, bit for bit, on any frame that holds those very objects
    (:meth:`fitted_on`), as one that replaces only the outcome does.

    Args:
        model: Logistic model of treatment on the adjustment set.
        adjustment: Covariate names the model was fitted on.
        clip: Scores are clamped into [clip, 1 - clip].
    """

    def __init__(self, model: FittedModel, adjustment: tuple[str, ...], clip: float = DEFAULT_CLIP):
        if not 0.0 < clip < 0.5:
            raise ValueError("clip must be in (0, 0.5)")
        self.model = model
        self.adjustment = tuple(adjustment)
        self.clip = clip
        self._columns: tuple = ()  # (treatment, *adjustment) columns of the fitting frame
        self._scores = self._matched = None  # the scores and the matching there

    def fitted_on(self, f: Frame, t: str) -> bool:
        """Whether ``f`` holds, as ``t`` and the adjustment set, the very
        ``Column`` objects this model was fitted on (compared by identity)."""
        names = f.names
        return bool(self._columns) and all(
            name in names and f.column(name) is c
            for name, c in zip((t, *self.adjustment), self._columns))

    def scores(self, f: Frame) -> np.ndarray:
        """Clipped propensity scores for every row of ``f``, as a read-only array."""
        if self._columns and self.fitted_on(f, self._columns[0].name):
            return self._scores
        return self._clip_predict(f.numeric_matrix(self.adjustment))

    def match(self, f: Frame, t: str) -> np.ndarray:
        """Each treated row's matched control (:func:`_match_controls`), kept on the fitting frame."""
        if not self.fitted_on(f, t):
            return _match_controls(self.scores(f), f.binary_vector(t))
        if self._matched is None:
            self._matched = _match_controls(self._scores, f.binary_vector(t))
        return self._matched

    def _clip_predict(self, X: np.ndarray) -> np.ndarray:
        e = np.clip(self.model.predict(X, self.adjustment), self.clip, 1.0 - self.clip)
        e.setflags(write=False)
        return e


def _treatment_vector(f: Frame, t: str) -> np.ndarray:
    tv = f.binary_vector(t)
    if tv.min() == tv.max():
        raise SingleClassError(f"treatment column {t!r} has a single class")
    return tv


def fit_propensity(
    f: Frame, t: str, z: Sequence[str], clip: float = DEFAULT_CLIP
) -> PropensityModel:
    """Fit a logistic propensity model of ``t`` on the adjustment set ``z``.

    With an empty adjustment set this reduces to an intercept-only model
    whose score is the (clipped) treatment prevalence.
    """
    tv = _treatment_vector(f, t)
    X = f.numeric_matrix(z)
    pm = PropensityModel(fit_logistic(X, tv, feature_names=tuple(z)), tuple(z), clip)
    pm._columns = tuple(f.column(name) for name in (t, *z))
    pm._scores = pm._clip_predict(X)
    return pm


def regression_adjustment(f: Frame, t: str, y: str, z: Sequence[str]) -> EffectEstimate:
    """ATE as the treatment coefficient of an OLS of y on (t, z, intercept)."""
    tv = _treatment_vector(f, t)
    yv = f.column(y).values
    X = np.column_stack([tv, f.numeric_matrix(z)])
    model = fit_linear(X, yv, feature_names=(t, *z))
    effect = model.coefficient(t)
    return EffectEstimate(
        method="regression_adjustment",
        estimand="ATE",
        value=effect,
        n_treated=int(tv.sum()),
        n_control=int((1 - tv).sum()),
        adjustment_set=tuple(z),
    )


def _match_controls(e: np.ndarray, tv: np.ndarray) -> np.ndarray:
    """Row index of the matched control for each treated row, in row order.

    The match minimises the computed ``abs(e_t - e_c)``; among equal
    distances the lowest row index wins.  Control scores are sorted (in any
    order among equal scores) and collapsed into runs of equal scores, each
    represented by its lowest row.  The treated scores are searched into the
    runs in ascending order, which keeps each search near the last one, and
    each is compared with the nearest run on either side.  Rounding can give
    several distinct neighbouring scores on one side the same computed
    distance, so each side keeps stepping outward while the next run still
    ties the minimum.
    """
    e_t = e[tv == 1.0]
    control = np.flatnonzero(tv == 0.0)
    e_c = e[control]
    order = np.argsort(e_c)
    s = e_c[order]
    starts = np.flatnonzero(np.r_[True, s[1:] != s[:-1]])
    # Infinite sentinels on both ends stop the outward steps.
    u = np.r_[-np.inf, s[starts], np.inf]
    lowest = np.r_[-1, np.minimum.reduceat(control[order], starts), -1]
    by_score = np.argsort(e_t)
    k = np.empty(len(e_t), dtype=np.intp)
    k[by_score] = np.searchsorted(u, e_t[by_score])  # u[k - 1] < e_t <= u[k]
    d = np.minimum(np.abs(e_t - u[k - 1]), np.abs(e_t - u[k]))
    matched = np.full(len(e_t), len(e), dtype=np.int64)
    for step, j in ((-1, k - 1), (1, k)):
        rows = np.flatnonzero(np.abs(e_t - u[j]) == d)
        j = j[rows]
        while rows.size:
            matched[rows] = np.minimum(matched[rows], lowest[j])
            j = j + step
            tied = np.abs(e_t[rows] - u[j]) == d[rows]
            rows, j = rows[tied], j[tied]
    return matched


def psm_att(f: Frame, t: str, y: str, pm: PropensityModel) -> EffectEstimate:
    """ATT by 1-nearest-neighbor propensity matching with replacement.

    Each treated unit is matched to the control whose clipped score gives the
    smallest computed ``abs(e_t - e_c)``; equal distances go to the lowest
    row index.  Matching is a sorted search: an argsort of the control
    scores, ``searchsorted`` of the treated scores in ascending order, and a
    comparison with the nearest distinct score on each side (see
    :func:`_match_controls`).  It costs O(n_t log n_t + n_c log n_c) time,
    plus one vectorised step for each further score that rounding ties
    (about 16 at most for scores in [0.05, 0.95]), and O(n) memory.  The
    effect is the mean of (treated outcome - matched control outcome);
    ``n_control`` counts the distinct matched controls.  ``pm`` makes the
    matching once on its fitting frame (:meth:`PropensityModel.match`).
    """
    tv = _treatment_vector(f, t)
    yv = f.column(y).values
    treated = np.flatnonzero(tv == 1.0)
    matched = pm.match(f, t)
    effect = float(np.mean(yv[treated] - yv[matched]))
    return EffectEstimate(
        method="psm",
        estimand="ATT",
        value=effect,
        n_treated=len(treated),
        n_control=int(np.count_nonzero(np.bincount(matched))),
        adjustment_set=pm.adjustment,
    )


def ipw_ate(f: Frame, t: str, y: str, pm: PropensityModel) -> EffectEstimate:
    """Horvitz-Thompson inverse propensity weighted ATE with clipped scores."""
    tv = _treatment_vector(f, t)
    yv = f.column(y).values
    e = pm.scores(f)
    effect = float(np.mean(tv * yv / e) - np.mean((1.0 - tv) * yv / (1.0 - e)))
    return EffectEstimate(
        method="ipw",
        estimand="ATE",
        value=effect,
        n_treated=int(tv.sum()),
        n_control=int((1 - tv).sum()),
        adjustment_set=pm.adjustment,
    )


def stratified_ate(
    f: Frame, t: str, y: str, pm: PropensityModel, k: int = DEFAULT_STRATA
) -> EffectEstimate:
    """ATE from ``k`` propensity-quantile strata.

    Strata missing either arm are dropped and the remaining strata weights
    renormalize; with ``k=1`` this is exactly the difference of arm means.
    Raises :class:`NoValidStrataError` when no stratum keeps both arms.
    """
    if k < 1:
        raise ValueError("stratum count k must be >= 1")
    tv = _treatment_vector(f, t)
    yv = f.column(y).values
    e = pm.scores(f)
    edges = np.quantile(e, [i / k for i in range(1, k)]) if k > 1 else np.array([])
    # right-closed quantile bins: a score equal to an edge stays in the lower stratum
    stratum = np.searchsorted(edges, e, side="left")

    n_kept = 0
    pieces = []  # (n_s, diff_s)
    n_treated = 0
    n_control = 0
    for s in range(k):
        in_s = stratum == s
        ts = tv[in_s]
        if in_s.sum() == 0 or ts.min() == ts.max():
            continue
        ys = yv[in_s]
        diff = float(ys[ts == 1.0].mean() - ys[ts == 0.0].mean())
        pieces.append((int(in_s.sum()), diff))
        n_kept += int(in_s.sum())
        n_treated += int(ts.sum())
        n_control += int((1 - ts).sum())
    if not pieces:
        raise NoValidStrataError("every propensity stratum lacks one arm")
    effect = float(sum(n_s * d for n_s, d in pieces) / n_kept)
    return EffectEstimate(
        method="stratification",
        estimand="ATE",
        value=effect,
        n_treated=n_treated,
        n_control=n_control,
        adjustment_set=pm.adjustment,
    )
