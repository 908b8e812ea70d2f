"""S/T/X/R meta-learners: per-unit effect estimates from any base learner.

Each learner returns a :class:`CateModel` holding the in-sample individual
treatment effects, their mean, and the fitted sub-models needed to predict
effects for new rows.  Base learners must be regression models ("linear" or
"gbt"); the R-learner additionally requires weighted fitting, which both
support.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Sequence

import numpy as np

from .estimators import PropensityModel, _treatment_vector
from .frame import Frame
from .learners import FittedModel, LearnerSpec, fit_learner

BASES = ("linear", "gbt")  # the regression kinds a meta-learner can use


@dataclass
class CateModel:
    """Per-unit effect predictions from one meta-learner.

    ``models`` keeps the fitted sub-models (keys depend on the learner) so
    :meth:`predict_ite` works out of sample.  ``ite`` is :meth:`predict_ite`
    on the fitting frame, bit for bit, and ``ate`` is exactly its mean.
    """

    learner: str
    base: LearnerSpec
    ite: np.ndarray
    ate: float
    features: tuple[str, ...]
    treatment: str
    models: dict[str, FittedModel] = field(default_factory=dict)
    propensity: PropensityModel | None = None

    def __post_init__(self):
        self.ite = np.asarray(self.ite, dtype=float)
        self.ite.setflags(write=False)

    def predict_ite(self, f: Frame) -> np.ndarray:
        """Predicted per-unit effects for the rows of a new frame."""
        return EFFECTS[self.learner](self, f, f.numeric_matrix(self.features))

    def write_ite_csv(self, path: str | Path) -> None:
        """Dump the in-sample effects as ``row,ite`` lines."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("row,ite\n")
            for i, v in enumerate(self.ite):
                fh.write(f"{i},{float(v)!r}\n")


def _s_effect(cate: CateModel, f: Frame, X: np.ndarray) -> np.ndarray:
    # With a linear base the arm difference is identically the treatment
    # coefficient, so it is read off directly instead of differencing two
    # predictions (same value without the per-row rounding residue).
    mu = cate.models["mu"]
    if cate.base.kind == "linear":
        return np.full(X.shape[0], mu.coefficient(cate.treatment))
    ones = np.ones((X.shape[0], 1))
    treated = mu.predict(np.column_stack([X, ones]))
    return treated - mu.predict(np.column_stack([X, np.zeros_like(ones)]))


def _x_effect(cate: CateModel, f: Frame, X: np.ndarray) -> np.ndarray:
    g = cate.propensity.scores(f)
    return g * cate.models["tau0"].predict(X) + (1.0 - g) * cate.models["tau1"].predict(X)


# Learner name -> its effect function (cate, frame, X) -> tau-hat, where X is
# the frame's feature matrix.  Both ``predict_ite`` and each learner's
# in-sample ``ite`` (through ``_cate_model``) call it, so each effect formula
# is written once.  Entries reach the sub-models' ``predict`` when called, so
# a wrapper patched over ``FittedModel.predict`` sees every prediction; the
# learners call the entry directly, not predict_ite, so a wrapper over
# predict_ite (as perfbench's tracer has) sees out-of-sample prediction only.
EFFECTS = {
    "S": _s_effect,
    "T": lambda cate, f, X: cate.models["mu1"].predict(X) - cate.models["mu0"].predict(X),
    "X": _x_effect,
    "R": lambda cate, f, X: cate.models["tau"].predict(X),
}


def _cate_model(learner, base, f, X, z, t, models, pm=None) -> CateModel:
    """The fitted model, its ``ite`` from the learner's effect function on ``f``."""
    cate = CateModel(learner, base, np.empty(0), 0.0, tuple(z), t, models, pm)
    ite = EFFECTS[learner](cate, f, X)
    return replace(cate, ite=ite, ate=float(np.mean(ite)))


def _setup(f: Frame, t: str, y: str, z: Sequence[str], base: LearnerSpec):
    if base.kind not in BASES:
        raise ValueError(f"base learner must be a regression kind, got {base.kind!r}")
    tv = _treatment_vector(f, t)
    yv = f.column(y).values
    X = f.numeric_matrix(z)
    return tv, yv, X


def s_learner(
    f: Frame, t: str, y: str, z: Sequence[str], base: LearnerSpec
) -> CateModel:
    """Single-model learner: fit mu(x, t) and difference the two treatment arms."""
    tv, yv, X = _setup(f, t, y, z, base)
    mu = fit_learner(base, np.column_stack([X, tv]), yv, feature_names=(*z, t))
    return _cate_model("S", base, f, X, z, t, {"mu": mu})


def t_learner(
    f: Frame, t: str, y: str, z: Sequence[str], base: LearnerSpec
) -> CateModel:
    """Two-model learner: fit each arm separately and difference predictions."""
    tv, yv, X = _setup(f, t, y, z, base)
    treated = tv == 1.0
    mu1 = fit_learner(base, X[treated], yv[treated], feature_names=z)
    mu0 = fit_learner(base, X[~treated], yv[~treated], feature_names=z)
    return _cate_model("T", base, f, X, z, t, {"mu0": mu0, "mu1": mu1})


def x_learner(
    f: Frame,
    t: str,
    y: str,
    z: Sequence[str],
    base: LearnerSpec,
    pm: PropensityModel,
    stage1: CateModel | None = None,
) -> CateModel:
    """Cross-imputation learner blended by the propensity score.

    Stage 1 is the T-learner: its two arm models mu1 and mu0.  Pass the
    T-learner already fitted on the same frame, outcome, features and base
    as ``stage1`` to reuse its arm models; without it, the T-learner is
    fitted here.  Stage 2 regresses the imputed effects (observed minus
    counterfactual prediction) within each arm; predictions blend as
    e(x) * tau0(x) + (1 - e(x)) * tau1(x).

    Raises ``ValueError`` when ``stage1`` is not a T-learner with this base,
    treatment, feature set and row count.
    """
    tv, yv, X = _setup(f, t, y, z, base)
    if stage1 is None:
        stage1 = t_learner(f, t, y, z, base)
    elif (stage1.learner, stage1.base, stage1.features, stage1.treatment, stage1.ite.size) != (
        "T", base, tuple(z), t, f.n_rows
    ):
        raise ValueError(
            f"stage 1 must be the T-learner on the same frame, treatment, features and base; "
            f"got {stage1.learner}:{stage1.base.kind} over {list(stage1.features)}"
        )
    treated = tv == 1.0
    mu1, mu0 = stage1.models["mu1"], stage1.models["mu0"]
    d1 = yv[treated] - mu0.predict(X[treated])
    d0 = mu1.predict(X[~treated]) - yv[~treated]
    tau1 = fit_learner(base, X[treated], d1, feature_names=z)
    tau0 = fit_learner(base, X[~treated], d0, feature_names=z)
    models = {"mu0": mu0, "mu1": mu1, "tau0": tau0, "tau1": tau1}
    return _cate_model("X", base, f, X, z, t, models, pm)


def r_learner(
    f: Frame, t: str, y: str, z: Sequence[str], base: LearnerSpec, pm: PropensityModel
) -> CateModel:
    """Residual-on-residual learner (Robinson decomposition).

    Fits m(x) = E[y|x], forms residuals y - m(x) and t - e(x), then fits the
    effect model by weighted regression of the pseudo-outcome
    (y - m) / (t - e) with weights (t - e)^2.  Propensity clipping keeps the
    pseudo-outcome finite.
    """
    tv, yv, X = _setup(f, t, y, z, base)
    m = fit_learner(base, X, yv, feature_names=z)
    y_res = yv - m.predict(X)
    t_res = tv - pm.scores(f)
    pseudo = y_res / t_res
    weights = t_res**2
    tau = fit_learner(base, X, pseudo, w=weights, feature_names=z)
    return _cate_model("R", base, f, X, z, t, {"m": m, "tau": tau}, pm)
