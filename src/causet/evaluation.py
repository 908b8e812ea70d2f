"""Validation metrics: MSE, KL divergence, uplift curves / AUUC, scatter fits."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError

KL_BINS = 50
KL_SMOOTHING = 1e-9


def _pair(a, b) -> tuple[np.ndarray, np.ndarray]:
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.ndim != 1 or b.ndim != 1 or a.shape != b.shape:
        raise DimensionMismatchError(f"vector lengths differ: {a.shape} vs {b.shape}")
    if a.size < 1:
        raise DimensionMismatchError("vectors must be non-empty")
    return a, b


def mse(pred, truth) -> float:
    """Mean squared difference of two equal-length vectors."""
    a, b = _pair(pred, truth)
    return float(np.mean((a - b) ** 2))


def kl_divergence(p_sample, q_sample, bins: int = KL_BINS) -> float:
    """KL divergence of histogram densities, first sample against second.

    Both samples are histogrammed on their union range with equal-width
    bins; a smoothing mass of 1e-9 per bin is added before normalizing so
    the ratio stays defined.  Returns 0 when all values across both samples
    are identical (degenerate range).
    """
    p = np.asarray(p_sample, dtype=float)
    q = np.asarray(q_sample, dtype=float)
    if p.size == 0 or q.size == 0:
        raise DimensionMismatchError("samples must be non-empty")
    if bins < 1:
        raise ValueError("bins must be >= 1")
    lo = min(p.min(), q.min())
    hi = max(p.max(), q.max())
    if lo == hi:
        return 0.0
    ph, _ = np.histogram(p, bins=bins, range=(lo, hi))
    qh, _ = np.histogram(q, bins=bins, range=(lo, hi))
    pd = ph.astype(float) + KL_SMOOTHING
    qd = qh.astype(float) + KL_SMOOTHING
    pd /= pd.sum()
    qd /= qd.sum()
    return float(np.sum(pd * np.log(pd / qd)))


@dataclass(frozen=True, eq=False)
class UpliftCurve:
    """Cumulative gain curve over the population ranked by predicted effect.

    ``fractions[i]`` is (i+1)/n and ``gains[i]`` is the gain of the top i+1
    units.  ``auuc`` is the trapezoidal area of gain against fraction,
    divided by n so curves of different sizes are comparable.
    """

    fractions: np.ndarray
    gains: np.ndarray
    auuc: float

    def __post_init__(self):
        self.fractions.setflags(write=False)
        self.gains.setflags(write=False)


def uplift_curve_true(ite_pred, tau_true) -> UpliftCurve:
    """Uplift curve accumulating *known* per-unit effects along the ranking.

    For synthetic data the true effect of every unit is available, so the
    gain at prefix k is the sum of the true effects of the k units ranked
    highest by the prediction.  Observed outcomes play no part, so the curve
    is immune to confounded treatment assignment, and the true-effect
    ordering dominates every other ordering by construction.

    Units with equal predictions carry no ranking information, so tied
    blocks contribute their mean effect per unit (the expected gain over
    tie orderings); a constant predictor thus scores exactly the diagonal
    instead of a lucky permutation.
    """
    pred, tau = _pair(ite_pred, tau_true)
    n = pred.size
    order = np.argsort(-pred, kind="stable")
    sorted_pred = pred[order]
    contrib = tau[order].copy()
    block_start = 0
    for i in range(1, n + 1):
        if i == n or sorted_pred[i] != sorted_pred[block_start]:
            if i - block_start > 1:
                contrib[block_start:i] = contrib[block_start:i].mean()
            block_start = i
    gains = np.cumsum(contrib)
    fractions = np.arange(1, n + 1, dtype=float) / n
    auuc = float(np.trapezoid(gains, fractions) / n)
    return UpliftCurve(fractions=fractions, gains=gains, auuc=auuc)


@dataclass(frozen=True)
class ScatterFit:
    """The OLS line of predicted on true effects.

    A perfect effect model has slope 1 and intercept 0; a constant predictor
    has slope 0.
    """

    slope: float
    intercept: float


def prediction_scatter(ite_pred, tau_true) -> ScatterFit:
    """The least-squares fit of predicted on true effects."""
    pred, truth = _pair(ite_pred, tau_true)
    tc = truth - truth.mean()
    var = float(tc @ tc)
    if var == 0.0:
        slope = 0.0
    else:
        slope = float(tc @ (pred - pred.mean()) / var)
    intercept = float(pred.mean() - slope * truth.mean())
    return ScatterFit(slope=slope, intercept=intercept)
