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
from .frame import Frame, write_rows
from .learners import FittedModel, LearnerSpec, fit_learner

BASES = ("linear", "gbt")  # the regression kinds a meta-learner can use


@dataclass(eq=False)
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
        return LEARNERS[self.learner][1](self, f, f.numeric_matrix(self.features), None)

    def write_ite_csv(self, path: str | Path) -> None:
        """Dump the in-sample effects as ``row,ite`` lines."""
        write_rows(path, ("row", "ite"), [(np.arange(len(self.ite)), self.ite)])


def _predict(
    model: FittedModel, X: np.ndarray, treated: np.ndarray | None, arm: int | None = None
) -> np.ndarray:
    """``model.predict(X)`` for a model fitted on one arm of the fitting frame.

    ``arm`` is 1 for a model fitted on the treated rows, 0 for one fitted on
    the control rows and None for one fitted on every row.  Out of sample
    ``treated`` is None and every row of ``X`` is predicted.  In sample it
    is the fitting frame's treated mask: the rows the model was fitted on
    take ``model.fitted``, which equals ``predict`` on them bit for bit, and
    only the others are predicted.  A linear model keeps no ``fitted`` and
    predicts all of ``X`` in one call, because BLAS may round a product over
    a subset of the rows differently.
    """
    if treated is None or model.fitted is None:
        return model.predict(X)
    if arm is None:
        return model.fitted.copy()
    rows = treated == bool(arm)
    out = np.empty(X.shape[0])
    out[rows] = model.fitted
    out[~rows] = model.predict(X[~rows])
    return out


def _s_effect(cate: CateModel, f: Frame, X: np.ndarray, treated) -> np.ndarray:
    # With a linear base the arm difference is identically the treatment
    # coefficient, so it is read off directly instead of differencing two
    # predictions (same value without the per-row rounding residue).
    mu = cate.models["mu"]
    if cate.base.kind == "linear":
        return np.full(X.shape[0], mu.coefficient(cate.treatment))
    ones = np.ones((X.shape[0], 1))
    arm1, arm0 = np.column_stack([X, ones]), np.column_stack([X, np.zeros_like(ones)])
    if treated is None:
        return mu.predict(arm1) - mu.predict(arm0)
    # In sample, each row's own arm is the row mu was fitted on.
    out1, out0 = mu.fitted.copy(), mu.fitted.copy()
    out1[~treated] = mu.predict(arm1[~treated])
    out0[treated] = mu.predict(arm0[treated])
    return out1 - out0


def _x_effect(cate: CateModel, f: Frame, X: np.ndarray, treated) -> np.ndarray:
    g = cate.propensity.scores(f)
    tau0 = _predict(cate.models["tau0"], X, treated, 0)
    return g * tau0 + (1.0 - g) * _predict(cate.models["tau1"], X, treated, 1)


# Learner name -> (fit, effect).  ``fit(nuisances, base) -> CateModel`` fits
# the learner on a nuisance cache's frame, treatment, outcome and set
# (``pipeline.Nuisances``), which fits the propensity model and the
# T-learner per base once, so X reuses T's arm fits.  Fits look the learners
# up in this module when called, so a wrapper patched over ``x_learner`` (as
# perfbench's tracer has) sees every fit.  ``effect(cate, frame, X,
# treated) -> tau-hat`` takes the frame's feature matrix X and, in sample,
# the fitting frame's treated mask (None for a new frame): each gbt
# sub-model then reads its own training rows from its fit (see
# :func:`_predict`).  ``predict_ite`` and each learner's in-sample ``ite``
# (through ``_cate_model``) both call it, so each formula is written once.
# Effects reach ``FittedModel.predict`` when called, so a wrapper patched
# over it sees every prediction; the learners call the effect directly, so
# a wrapper over predict_ite sees out-of-sample prediction only.
LEARNERS = {
    "S": (lambda nu, base: s_learner(nu.frame, nu.t, nu.y, nu.z, base), _s_effect),
    "T": (lambda nu, base: nu.t_learner(nu.frame, nu.t, nu.y, nu.z, base),
          lambda cate, f, X, treated: (_predict(cate.models["mu1"], X, treated, 1)
                                       - _predict(cate.models["mu0"], X, treated, 0))),
    "X": (lambda nu, base: x_learner(nu.frame, nu.t, nu.y, nu.z, base, nu.propensity(),
                                     nu.t_learner), _x_effect),
    "R": (lambda nu, base: r_learner(nu.frame, nu.t, nu.y, nu.z, base, nu.propensity()),
          lambda cate, f, X, treated: _predict(cate.models["tau"], X, treated)),
}


def _cate_model(learner, base, f, X, z, t, models, treated, pm=None) -> CateModel:
    """The fitted model, its ``ite`` from the learner's effect function on ``f``."""
    cate = CateModel(learner, base, np.empty(0), 0.0, tuple(z), t, models, pm)
    ite = LEARNERS[learner][1](cate, f, X, treated)
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
    return _cate_model("S", base, f, X, z, t, {"mu": mu}, tv == 1.0)


def t_learner(
    f: Frame, t: str, y: str, z: Sequence[str], base: LearnerSpec
) -> CateModel:
    """Two-model learner: fit each arm separately and difference predictions."""
    tv, yv, X = _setup(f, t, y, z, base)
    treated = tv == 1.0
    mu1 = fit_learner(base, X[treated], yv[treated], feature_names=z)
    mu0 = fit_learner(base, X[~treated], yv[~treated], feature_names=z)
    return _cate_model("T", base, f, X, z, t, {"mu0": mu0, "mu1": mu1}, treated)


def x_learner(
    f: Frame,
    t: str,
    y: str,
    z: Sequence[str],
    base: LearnerSpec,
    pm: PropensityModel,
    t_fit=None,
) -> CateModel:
    """Cross-imputation learner blended by the propensity score.

    Stage 1 is the T-learner of these same arguments, ``(t_fit or
    t_learner)(f, t, y, z, base)``: its two arm models mu1 and mu0.  A
    ``t_fit`` with :func:`t_learner`'s signature, such as
    ``pipeline.Nuisances.t_learner``, may hand back a fit it already made
    for these arguments.  Stage 2 regresses the imputed effects (observed
    minus counterfactual prediction) within each arm; predictions blend as
    e(x) * tau0(x) + (1 - e(x)) * tau1(x).
    """
    tv, yv, X = _setup(f, t, y, z, base)
    stage1 = (t_fit or t_learner)(f, t, y, z, base)
    treated = tv == 1.0
    mu1, mu0 = stage1.models["mu1"], stage1.models["mu0"]
    d1 = yv[treated] - mu0.predict(X[treated])
    d0 = mu1.predict(X[~treated]) - yv[~treated]
    tau1 = fit_learner(base, X[treated], d1, feature_names=z)
    tau0 = fit_learner(base, X[~treated], d0, feature_names=z)
    models = {"mu0": mu0, "mu1": mu1, "tau0": tau0, "tau1": tau1}
    return _cate_model("X", base, f, X, z, t, models, treated, pm)


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
    y_res = yv - _predict(m, X, tv == 1.0)
    t_res = tv - pm.scores(f)
    pseudo = y_res / t_res
    weights = t_res**2
    tau = fit_learner(base, X, pseudo, w=weights, feature_names=z)
    return _cate_model("R", base, f, X, z, t, {"m": m, "tau": tau}, tv == 1.0, pm)

