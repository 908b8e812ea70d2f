"""Query-spec-driven orchestration: load, identify, estimate, refute, report.

A query spec is a key-value text file (``#`` comments, one ``key = value``
per line, comma-separated lists, repeatable ``label_rule`` lines):

    name        = windows_vs_electricity
    data        = homes.csv
    graph       = homes.graph
    treatment   = many_windows
    outcome     = electricity
    estimators  = regression_adjustment, psm, ipw, stratification
    metalearners = T:gbt, S:linear
    refuters    = placebo_treatment, data_subset
    label_rule  = many_windows from window_count
    seed        = 42

Paths are resolved relative to the spec file.  Every run is a pure function
of the resolved spec (defaults included), which is embedded in the report so
any report can be re-run from itself; equal seeds give byte-identical
reports.
"""

from __future__ import annotations

import dataclasses
import json
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from . import evaluation, metalearners, synth
from .errors import KindError, MissingDataError, ParseError, SchemaMismatchError
from .estimators import (
    DEFAULT_CLIP,
    DEFAULT_STRATA,
    EffectEstimate,
    PropensityModel,
    fit_propensity,
    ipw_ate,
    psm_att,
    regression_adjustment,
    stratified_ate,
)
from .frame import (Frame, LabelRule, derive_binary_label, impute_mean, load_csv, one_hot, split,
                    write_rows)
from .graph import backdoor_sets, parse_graph
from .learners import LearnerSpec
from .refutation import (
    DEFAULT_REPETITIONS,
    DEFAULT_SUBSET_FRACTION,
    EstimationTask,
    refute_placebo,
    refute_random_common_cause,
    refute_subset,
    refute_unobserved_confounder,
)
from .rng import derive_seed

REPORT_VERSION = 1

# Estimator name -> fn(nuisances, spec) -> EffectEstimate on the frame,
# treatment, outcome and set of a :class:`Nuisances` cache, whose
# ``propensity()`` fits on its first call, so a method that never calls it
# fits none.  Entries look the estimators up by module name when called, so
# a wrapper patched over ``pipeline.psm_att`` (as perfbench's tracer does)
# sees every call; a function object captured here would bypass it.
ESTIMATORS = {
    "regression_adjustment": lambda nu, spec: regression_adjustment(nu.frame, nu.t, nu.y, nu.z),
    "psm": lambda nu, spec: psm_att(nu.frame, nu.t, nu.y, nu.propensity()),
    "ipw": lambda nu, spec: ipw_ate(nu.frame, nu.t, nu.y, nu.propensity()),
    "stratification":
        lambda nu, spec: stratified_ate(nu.frame, nu.t, nu.y, nu.propensity(), k=spec.strata),
}
# Refuter name -> fn(task, frame, spec, seed, original) -> RefutationReport,
# where ``task`` re-runs the target estimator and ``original`` is its effect
# on ``frame``.  Looked up by name when called, for the same reason as
# ESTIMATORS.
REFUTERS = {
    "random_common_cause": lambda task, f, spec, seed, original: refute_random_common_cause(
        task, f, spec.refuter_repetitions, seed, original),
    "placebo_treatment": lambda task, f, spec, seed, original: refute_placebo(
        task, f, spec.refuter_repetitions, seed, original),
    "data_subset": lambda task, f, spec, seed, original: refute_subset(
        task, f, spec.subset_fraction, spec.refuter_repetitions, seed, original),
    "unobserved_confounder": lambda task, f, spec, seed, original: refute_unobserved_confounder(
        task, f, spec.confounder_strength_t, spec.confounder_strength_y,
        spec.refuter_repetitions, seed, original),
}
ESTIMATOR_NAMES = tuple(ESTIMATORS)
REFUTER_NAMES = tuple(REFUTERS)
LEARNER_NAMES = tuple(metalearners.LEARNERS)
BASE_NAMES = metalearners.BASES
TRAIN_FRACTION = 0.8  # share of each synthetic validation set the learners fit
VALIDATION_COMBOS = tuple(
    (learner, base) for learner in LEARNER_NAMES for base in BASE_NAMES
)


@dataclass(frozen=True)
class QuerySpec:
    """One causal query: data, graph, method selection, and seeds."""

    data: str
    graph: str
    treatment: str
    outcome: str
    estimators: tuple[str, ...] = ESTIMATOR_NAMES
    metalearners: tuple[tuple[str, str], ...] = ()
    refuters: tuple[str, ...] = ()
    seed: int = 0
    label_rules: tuple[LabelRule, ...] = ()
    name: str = "query"
    context: str = ""
    strata: int = DEFAULT_STRATA
    refuter_repetitions: int = DEFAULT_REPETITIONS
    propensity_clip: float = DEFAULT_CLIP
    subset_fraction: float = DEFAULT_SUBSET_FRACTION
    confounder_strength_t: float = 0.5
    confounder_strength_y: float = 0.5

    def __post_init__(self):
        for e in self.estimators:
            if e not in ESTIMATOR_NAMES:
                raise ParseError(f"unknown estimator {e!r}")
        for learner, base in self.metalearners:
            if learner not in LEARNER_NAMES or base not in BASE_NAMES:
                raise ParseError(f"unknown metalearner {learner}:{base}")
        for r in self.refuters:
            if r not in REFUTER_NAMES:
                raise ParseError(f"unknown refuter {r!r}")
        if not self.estimators and not self.metalearners:
            raise ParseError("select at least one estimator or metalearner")
        for key, ok, bounds in (
            ("refuter_repetitions", self.refuter_repetitions >= 1, ">= 1"),
            ("strata", self.strata >= 1, ">= 1"),
            ("propensity_clip", 0.0 < self.propensity_clip < 0.5, "in (0, 0.5)"),
            ("subset_fraction", 0.0 < self.subset_fraction < 1.0, "in (0, 1)"),
            ("confounder_strength_t", 0.0 <= self.confounder_strength_t < 1.0, "in [0, 1)"),
            ("confounder_strength_y", 0.0 <= self.confounder_strength_y < 1.0, "in [0, 1)"),
        ):
            if not ok:
                raise ParseError(f"key {key!r} must be {bounds}, got {getattr(self, key)!r}")


def parse_query_spec(path: str | Path, default_seed: int | None = 0) -> QuerySpec:
    """Parse a query-spec file; relative paths resolve against its directory.

    Keys are the :class:`QuerySpec` fields, each read by its default's type
    (a tuple is a comma list; a field with no default is required).
    ``default_seed`` is the seed when the file has no ``seed`` key; pass
    None to leave ``seed`` None then, so the caller can tell.
    """
    path = Path(path)
    base_dir = path.parent
    try:
        text = path.read_text(encoding="utf-8-sig")
    except OSError as exc:
        raise ParseError(f"cannot read query spec {path}: {exc}") from exc

    values: dict[str, str] = {}
    rules: list[LabelRule] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParseError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key == "label_rule":
            parts = value.split()
            if len(parts) != 3 or parts[1] != "from":
                raise ParseError(
                    f"{path}:{lineno}: label_rule must be '<target> from <source>'"
                )
            rules.append(LabelRule(source=parts[2], target=parts[0]))
        elif key in values:
            raise ParseError(f"{path}:{lineno}: duplicate key {key!r}")
        else:
            values[key] = value

    kwargs: dict = {"label_rules": tuple(rules), "seed": default_seed, "name": path.stem}
    for field in dataclasses.fields(QuerySpec):
        key, default = field.name, field.default
        if key not in values or key == "label_rules":  # label_rules: label_rule lines only
            if default is dataclasses.MISSING:
                raise ParseError(f"{path}: missing required key {key!r}")
            continue
        raw = values.pop(key)
        if key in ("data", "graph"):
            kwargs[key] = str(base_dir / raw)
        elif isinstance(default, tuple):
            items = tuple(tok.strip() for tok in raw.split(",") if tok.strip())
            if key == "metalearners":
                for tok in items:
                    if tok.count(":") != 1:
                        raise ParseError(f"{path}: metalearner {tok!r} must be '<learner>:<base>'")
                items = tuple(tuple(tok.split(":")) for tok in items)
            kwargs[key] = items
        elif isinstance(default, (int, float)):
            try:
                kwargs[key] = type(default)(raw)
            except ValueError:
                raise ParseError(f"{path}: key {key!r} needs a {type(default).__name__}") from None
        else:
            kwargs[key] = raw
    if values:
        raise ParseError(f"{path}: unknown keys {sorted(values)}")
    return QuerySpec(**kwargs)


def resolved_spec(spec: QuerySpec) -> dict:
    """The full spec, defaults included, as a plain JSON-ready mapping."""
    out = dataclasses.asdict(spec)
    out["metalearners"] = [f"{l}:{b}" for l, b in spec.metalearners]
    return out


# -- shared plumbing -----------------------------------------------------------


def report_to_json(report: Mapping) -> str:
    """Canonical JSON rendering; identical reports give identical bytes.
    A NaN or infinity, which RFC 8259 JSON cannot hold, raises ValueError."""
    return json.dumps(dict(report), indent=2, sort_keys=True, allow_nan=False) + "\n"


def _write_table(path: Path, fields: Sequence[str], rows: Sequence[Mapping]) -> None:
    """Sidecar CSV of ``fields`` from the report's row dicts; a missing key
    is an empty field and other keys of a row are left out."""
    write_rows(path, fields, [[[r.get(k) for r in rows] for k in fields]])


def _effect_row(est: EffectEstimate, control_mean: float | None) -> dict:
    relative = None
    if control_mean not in (None, 0.0):
        relative = est.value / control_mean
    return {
        "method": est.method,
        "estimand": est.estimand,
        "effect": est.value,
        "relative_effect": relative,
        "n_treated": est.n_treated,
        "n_control": est.n_control,
        "adjustment_set": list(est.adjustment_set),
        "seed": None,  # no estimator draws at random; kept so every row has the same keys
    }


def _prepare_frame(f: Frame, spec: QuerySpec, z: Sequence[str]) -> tuple[Frame, tuple[str, ...]]:
    """Apply the preprocessing recipe: encode categorical adjusters, impute.

    An outcome with no value at all is refused: imputing it would make every
    effect exactly 0.
    """
    if f.kind(spec.outcome) == "categorical":
        raise KindError(f"outcome {spec.outcome!r} is categorical; it must be numeric or binary")
    if f.column(spec.outcome).missing.all():
        raise MissingDataError(f"outcome {spec.outcome!r} has no values")
    zcols: list[str] = []
    for name in z:
        if f.kind(name) == "categorical":
            before = set(f.names)
            f = one_hot(f, name)
            zcols.extend(sorted(set(f.names) - before))
        else:
            zcols.append(name)
    for name in (*zcols, spec.outcome):
        if f.column(name).missing.any():
            f = impute_mean(f, name)
    return f, tuple(zcols)


class Nuisances:
    """The nuisance models of one frame, treatment, outcome and adjustment
    set, each fitted on first use: the propensity model and the T-learner
    per base.  A run makes one cache per frame and drops it when done.  Fits
    look up ``fit_propensity`` here and ``t_learner`` in :mod:`metalearners`
    when called, so wrappers patched over either see every fit."""

    def __init__(self, frame: Frame, t: str, y: str, z: Sequence[str], clip: float = DEFAULT_CLIP):
        self.frame, self.t, self.y, self.z, self.clip = frame, t, y, tuple(z), clip
        self._propensity, self._t_fits = None, {}

    def propensity(self) -> PropensityModel:
        if self._propensity is None:
            self._propensity = fit_propensity(self.frame, self.t, self.z, clip=self.clip)
        return self._propensity

    def t_learner(self, f: Frame, t: str, y: str, z: Sequence[str], base: LearnerSpec):
        """:func:`metalearners.t_learner`, made once per base on this cache's own
        frame (the same object), treatment, outcome and set, and afresh otherwise."""
        if f is not self.frame or (t, y, tuple(z)) != (self.t, self.y, self.z):
            return metalearners.t_learner(f, t, y, z, base)
        if base not in self._t_fits:
            self._t_fits[base] = metalearners.t_learner(f, t, y, z, base)
        return self._t_fits[base]


def _estimator_task(method: str, spec: QuerySpec, nu: Nuisances) -> EstimationTask:
    """``method`` adjusting for ``nu.z``, each run on a cache of its own.  That
    cache starts from the query's propensity fit, if made, when the run adjusts
    for ``nu.z`` and its frame holds the fit's columns (:meth:`PropensityModel.fitted_on`)."""
    def run(frame: Frame, adjustment: tuple[str, ...]) -> float:
        own = Nuisances(frame, nu.t, nu.y, adjustment, nu.clip)
        kept = nu._propensity
        if adjustment == nu.z and kept is not None and kept.fitted_on(frame, nu.t):
            own._propensity = kept
        return ESTIMATORS[method](own, spec).value

    return EstimationTask(estimate=run, treatment=nu.t, outcome=nu.y, adjustment=nu.z)


def run_query(spec: QuerySpec, out_dir: str | Path | None = None) -> dict:
    """Execute one query end to end and return its report document.

    Identifies the adjustment set first (first minimal backdoor set), which
    needs the graph alone, so a graph fault or an unidentifiable query
    raises before the data file is opened.  Then loads from the CSV only
    the columns the query reads (treatment, outcome, that set, and each
    label rule's source; the other columns are checked for row shape,
    encoding and a unique name, not parsed), applies the label rules, which
    add or replace their targets, runs every selected estimator and
    metalearner, runs every selected refuter against the first selected
    estimator, and emits plot-data CSVs when ``out_dir`` is given.
    Deterministic per seed.
    """
    if spec.refuters and not spec.estimators:
        raise ParseError("refuters need at least one selected estimator to target")
    g = parse_graph(Path(spec.graph).read_text(encoding="utf-8-sig"))
    all_sets = backdoor_sets(g, spec.treatment, spec.outcome)
    z_nodes = all_sets[0]

    read = {spec.treatment, spec.outcome, *z_nodes, *(rule.source for rule in spec.label_rules)}
    f = load_csv(spec.data, read)
    for rule in spec.label_rules:
        f = derive_binary_label(f, rule)

    f, z = _prepare_frame(f, spec, z_nodes)
    t, y = spec.treatment, spec.outcome
    tv = f.binary_vector(t)
    yv = f.column(y).values
    controls = yv[tv == 0.0]
    control_mean = float(controls.mean()) if controls.size else None

    nu = Nuisances(f, t, y, z, spec.propensity_clip)
    effects = []
    ite_files: dict[str, str] = {}
    out = Path(out_dir) if out_dir is not None else None
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)

    for method in spec.estimators:
        effects.append(_effect_row(ESTIMATORS[method](nu, spec), control_mean))

    n_treated, n_control = int(tv.sum()), int((1 - tv).sum())
    for learner, base in spec.metalearners:
        cate = metalearners.LEARNERS[learner][0](nu, LearnerSpec(base))
        label = f"{learner}:{base}"
        est = EffectEstimate(label, "ATE", cate.ate, n_treated, n_control, z)
        effects.append(_effect_row(est, control_mean))
        if out is not None:
            fname = f"ite_{learner}-{base}.csv"
            cate.write_ite_csv(out / fname)
            ite_files[label] = fname

    refutations = []
    if spec.refuters:
        target = spec.estimators[0]
        task = _estimator_task(target, spec, nu)
        original = effects[0]["effect"]
        for index, refuter in enumerate(spec.refuters):
            rep = REFUTERS[refuter](task, f, spec, derive_seed(spec.seed, index), original)
            row = {**dataclasses.asdict(rep), "target_method": target}
            del row["refuted_effects"]
            refutations.append(row)

    plot_files: dict = {}
    if out is not None:
        _write_table(out / "effects.csv", ("method", "effect", "relative_effect"), effects)
        plot_files["effects"] = "effects.csv"
        if ite_files:
            plot_files["ite"] = ite_files
        if refutations:
            _write_table(
                out / "refutations.csv",
                ("refuter", "target_method", "original_effect", "mean_refuted",
                 "relative_change", "p_value", "verdict"),
                refutations,
            )
            plot_files["refutations"] = "refutations.csv"

    return {
        "report_version": REPORT_VERSION,
        "kind": "query",
        "query": resolved_spec(spec),
        "adjustment_set": list(z_nodes),
        "adjustment_sets_considered": [list(s) for s in all_sets],
        "control_outcome_mean": control_mean,
        "effects": effects,
        "refutations": refutations,
        "plot_files": plot_files,
    }


# -- synthetic validation ------------------------------------------------------


def run_validation(
    n: int = 10000,
    repetitions: int = 10,
    sigma: float = 1.0,
    seed: int = 0,
    out_dir: str | Path | None = None,
) -> dict:
    """Fit all eight learner/base combos on synthetic sets and score them.

    Per repetition: generate a fresh synthetic set, split off a
    ``TRAIN_FRACTION`` train part and a validation part, fit every combo on
    the train part, then record train and validation MSE of predicted
    effects against the true ones, validation KL divergence and AUUC, the
    model ATE, and its error against the repetition's true mean
    effect.  Aggregates are means and standard deviations across repetitions.

    Because ground truth is available here, ``kld_val`` measures how far the
    true-effect distribution diverges from each learner's predicted one
    (truth as the first argument, so a learner whose predictions cover none
    of the truth's range scores high), and ``auuc_val`` accumulates known
    true effects along the predicted ranking, which is immune to the
    generator's confounded treatment assignment.
    """
    if repetitions < 1:
        raise ValueError("repetitions must be >= 1")
    rows = []
    plot_files: dict = {}
    out = Path(out_dir) if out_dir is not None else None
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)

    for rep in range(repetitions):
        rep_seed = derive_seed(seed, rep)
        dataset = synth.generate(n=n, sigma=sigma, seed=derive_seed(rep_seed, 0))
        frame = dataset.to_frame()
        train, val = split(frame, TRAIN_FRACTION, seed=derive_seed(rep_seed, 1))
        z = dataset.feature_names
        nu = Nuisances(train, "w", "y", z)
        tau_mean = float(dataset.tau_true.mean())
        tau_train = train.values("tau_true")
        tau_val = val.values("tau_true")

        for learner, base in VALIDATION_COMBOS:
            cate = metalearners.LEARNERS[learner][0](nu, LearnerSpec(base))
            ite_val = cate.predict_ite(val)
            scatter = evaluation.prediction_scatter(ite_val, tau_val)
            curve = evaluation.uplift_curve_true(ite_val, tau_val)
            rows.append(
                {
                    "rep": rep,
                    "learner": learner,
                    "base": base,
                    "mse_train": evaluation.mse(cate.ite, tau_train),
                    "mse_val": evaluation.mse(ite_val, tau_val),
                    "kld_val": evaluation.kl_divergence(tau_val, ite_val),
                    "auuc_val": curve.auuc,
                    "ate": cate.ate,
                    "tau_true_mean": tau_mean,
                    "ate_error": abs(cate.ate - tau_mean),
                    "scatter_slope": scatter.slope,
                    "scatter_intercept": scatter.intercept,
                }
            )
            if rep == 0 and out is not None:
                for name, columns in (
                    (f"scatter_{learner}-{base}", {"tau_true": tau_val, "ite_pred": ite_val}),
                    (f"uplift_{learner}-{base}",
                     {"fraction": curve.fractions, "cumulative_gain": curve.gains}),
                ):
                    write_rows(out / f"{name}.csv", tuple(columns), [tuple(columns.values())])
                    plot_files[name] = f"{name}.csv"

    metrics = ("mse_train", "mse_val", "kld_val", "auuc_val", "ate", "ate_error",
               "scatter_slope", "scatter_intercept")
    aggregate: dict[str, dict] = {}
    for learner, base in VALIDATION_COMBOS:
        combo_rows = [r for r in rows if r["learner"] == learner and r["base"] == base]
        label = f"{learner}:{base}"
        aggregate[label] = {
            m: {
                "mean": float(np.mean([r[m] for r in combo_rows])),
                "std": float(np.std([r[m] for r in combo_rows])),
            }
            for m in metrics
        }

    if out is not None:
        _write_table(out / "validation_rows.csv", ("rep", "learner", "base", *metrics), rows)
        plot_files["rows"] = "validation_rows.csv"
        _write_table(
            out / "validation_aggregate.csv",
            ("combo", "metric", "mean", "std"),
            [{"combo": label, "metric": m, **stats}
             for label, per_metric in aggregate.items() for m, stats in per_metric.items()],
        )
        plot_files["aggregate"] = "validation_aggregate.csv"

    return {
        "report_version": REPORT_VERSION,
        "kind": "validation",
        "config": {
            "n": n,
            "p": 5,
            "repetitions": repetitions,
            "sigma": sigma,
            "seed": seed,
            "train_fraction": TRAIN_FRACTION,
        },
        "rows": rows,
        "aggregate": aggregate,
        "plot_files": plot_files,
    }


# -- cross-report comparison ---------------------------------------------------


def compare_report(reports: Sequence[Mapping]) -> dict:
    """Consolidate query reports into one (query, method) table.

    Raises :class:`SchemaMismatchError` when report versions differ from
    this module's, a report part has the wrong JSON type or a row lacks a
    key the table reads.  Reports without effect rows are skipped with a warning.
    """
    if not reports:
        raise ValueError("need at least one report")
    columns = ("query", "method", "estimand", "effect", "relative_effect", "refutations")
    rows = []
    for report in reports:
        version = report.get("report_version")
        if version != REPORT_VERSION:
            raise SchemaMismatchError(
                f"report version {version!r} does not match {REPORT_VERSION}"
            )
        if report.get("kind") != "query":
            raise SchemaMismatchError("compare consumes query reports only")
        query = report.get("query", {})
        if not isinstance(query, Mapping):
            raise SchemaMismatchError("report key 'query' must be an object")
        qname = query.get("name", "query")
        effects, refutations = report.get("effects", []), report.get("refutations", [])
        for key, part in (("effects", effects), ("refutations", refutations)):
            if not isinstance(part, list):
                raise SchemaMismatchError(f"report {qname!r} key {key!r} must be a list")
        if not effects:
            warnings.warn(f"report {qname!r} has no effect rows; omitted", stacklevel=2)
            continue
        by_method: dict[str, list[str]] = {}
        for r in refutations:
            target, refuter, verdict = _fields(
                r, ("target_method", "refuter", "verdict"), f"report {qname!r} refutation row")
            by_method.setdefault(target, []).append(f"{refuter}={verdict}")
        for row in effects:
            values = _fields(row, columns[1:-1], f"report {qname!r} effect row")
            rows.append({"query": qname, **dict(zip(columns[1:-1], values)),
                         "refutations": " ".join(by_method.get(values[0], []))})
    return {"report_version": REPORT_VERSION, "kind": "comparison",
            "columns": list(columns), "rows": rows}


def _fields(row, keys: Sequence[str], where: str) -> list:
    """``row[key]`` for each key, the first (the join key) a string; else a SchemaMismatchError."""
    for key in keys:
        if not isinstance(row, Mapping) or key not in row:
            raise SchemaMismatchError(f"{where} lacks key {key!r}")
    if not isinstance(row[keys[0]], str):
        raise SchemaMismatchError(f"{where} key {keys[0]!r} must be a string")
    return [row[k] for k in keys]


def render_table(columns: Sequence[str], rows: Sequence[Mapping]) -> str:
    """Fixed-width text table with one aligned column per field."""
    def fmt(v) -> str:
        if v is None or v == "":
            return "-"
        if isinstance(v, float):
            return f"{v:.6g}"
        return str(v)

    cells = [[fmt(r.get(c)) for c in columns] for r in rows]
    widths = [
        max(len(c), *(len(row[i]) for row in cells)) if cells else len(c)
        for i, c in enumerate(columns)
    ]
    lines = ["  ".join(c.ljust(w) for c, w in zip(columns, widths)).rstrip()]
    lines.append("  ".join("-" * w for w in widths))
    for row in cells:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())
    return "\n".join(lines) + "\n"
