"""causet: a deterministic causal-effect estimation toolkit.

Pipeline: describe a causal DAG, identify a backdoor adjustment set,
estimate average and per-unit treatment effects with classical estimators
and S/T/X/R meta-learners, stress the estimates with a refutation battery,
and validate learners against synthetic ground truth (MSE, KL divergence,
uplift curves / AUUC).
"""

from . import errors
from .errors import CausetError
from .evaluation import (
    ScatterFit,
    UpliftCurve,
    kl_divergence,
    mse,
    prediction_scatter,
    uplift_curve_true,
)
from .estimators import (
    EffectEstimate,
    PropensityModel,
    fit_propensity,
    ipw_ate,
    psm_att,
    regression_adjustment,
    stratified_ate,
)
from .frame import (
    Column,
    Frame,
    LabelRule,
    derive_binary_label,
    impute_mean,
    load_csv,
    one_hot,
    split,
    write_csv,
)
from .graph import CausalGraph, backdoor_sets, d_separated, parse_graph, serialize_graph
from .learners import FittedModel, LearnerSpec, fit_gbt, fit_learner, fit_linear, fit_logistic
from .metalearners import CateModel, r_learner, s_learner, t_learner, x_learner
from .pipeline import QuerySpec, compare_report, parse_query_spec, run_query, run_validation
from .refutation import (
    EstimationTask,
    RefutationReport,
    refute_placebo,
    refute_random_common_cause,
    refute_subset,
    refute_unobserved_confounder,
)
from .rng import derive_seed, make_rng
from .synth import SyntheticSet, generate

__version__ = "0.1.0"

__all__ = [
    "CausalGraph",
    "CausetError",
    "CateModel",
    "Column",
    "EffectEstimate",
    "EstimationTask",
    "FittedModel",
    "Frame",
    "LabelRule",
    "LearnerSpec",
    "PropensityModel",
    "QuerySpec",
    "RefutationReport",
    "ScatterFit",
    "SyntheticSet",
    "UpliftCurve",
    "backdoor_sets",
    "compare_report",
    "d_separated",
    "derive_binary_label",
    "derive_seed",
    "errors",
    "fit_gbt",
    "fit_learner",
    "fit_linear",
    "fit_logistic",
    "fit_propensity",
    "generate",
    "impute_mean",
    "ipw_ate",
    "kl_divergence",
    "load_csv",
    "make_rng",
    "mse",
    "one_hot",
    "parse_graph",
    "parse_query_spec",
    "prediction_scatter",
    "psm_att",
    "r_learner",
    "refute_placebo",
    "refute_random_common_cause",
    "refute_subset",
    "refute_unobserved_confounder",
    "regression_adjustment",
    "run_query",
    "run_validation",
    "s_learner",
    "serialize_graph",
    "split",
    "stratified_ate",
    "t_learner",
    "uplift_curve_true",
    "write_csv",
    "x_learner",
]
