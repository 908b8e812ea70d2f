"""In-memory spans and work counts around causet's layer boundaries.

The tracer wraps public functions by patching the name in the module (or
class) where callers look it up at call time, e.g. ``causet.learners.fit_gbt``
(called by ``fit_learner``) or ``causet.pipeline.psm_att`` (imported by name
into the pipeline).  ``uninstall`` restores the originals, so untraced
operations run the unmodified program.

A span is ``[name, start, end, parent, op]``: ``parent`` indexes the
enclosing span (-1 at the top) and ``op`` is the operation (or set-up
repetition) id.  Spans stay in memory until the benchmark writes them out.
Counts are computed from each call's inputs at the same boundaries.
"""

from __future__ import annotations

import hashlib
import inspect
import os
import statistics
import time
from collections import defaultdict

import numpy as np

from causet import (
    cli,
    estimators,
    evaluation,
    frame,
    graph,
    learners,
    metalearners,
    pipeline,
    refutation,
    synth,
)

# Refuter name -> the function name the pipeline looks it up by.
REFUTERS = {
    "random_common_cause": "refute_random_common_cause",
    "placebo_treatment": "refute_placebo",
    "data_subset": "refute_subset",
    "unobserved_confounder": "refute_unobserved_confounder",
}

# (per-layer metric, unit, better): the order BENCHMARK.json lists them in.
LAYER_METRICS = (
    ("learners.fit_gbt.s", "s", "lower"),
    ("learners.fit_gbt.calls", "count", "lower"),
    ("learners.fit_gbt.rows", "count", "lower"),
    ("learners.fit_gbt.repeat_calls", "count", "lower"),
    ("learners.predict.s", "s", "lower"),
    ("learners.fit_logistic.s", "s", "lower"),
    ("metalearners.S.s", "s", "lower"),
    ("metalearners.T.s", "s", "lower"),
    ("metalearners.X.s", "s", "lower"),
    ("metalearners.R.s", "s", "lower"),
    ("metalearners.predict_ite.s", "s", "lower"),
    ("metalearners.write_ite_csv.s", "s", "lower"),
    ("estimators.psm_att.s", "s", "lower"),
    ("estimators.psm_att.calls", "count", "lower"),
    ("estimators.psm_att.pairs", "count", "lower"),
    ("estimators.fit_propensity.s", "s", "lower"),
    ("estimators.fit_propensity.calls", "count", "lower"),
    *((f"refutation.{r}.s", "s", "lower") for r in REFUTERS),
    ("refutation.reps", "count", "lower"),
    ("refutation.rep_p50_s", "s", "lower"),
    ("refutation.rep_p97_5_s", "s", "lower"),
    ("frame.derive.s", "s", "lower"),
    ("frame.derive.calls", "count", "lower"),
    ("graph.backdoor_sets.s", "s", "lower"),
    ("graph.d_separated.calls", "count", "lower"),
    ("graph.backdoor_sets.useful_ratio", "ratio", "higher"),
    ("frame.load_csv.s", "s", "lower"),
    ("frame.load_csv.bytes", "bytes", "lower"),
    ("frame.write_csv.s", "s", "lower"),
    ("synth.generate.s", "s", "lower"),
    ("evaluation.s", "s", "lower"),
    ("pipeline.report_to_json.s", "s", "lower"),
    ("pipeline.self_s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
)


def _bound(fn, args, kwargs) -> dict:
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; 0.0 for an empty list."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


class Tracer:
    """Spans and counts of one benchmark run; patches only while installed."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: dict = defaultdict(lambda: defaultdict(int))
        self.op: int | str = ""
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self.fits: set[bytes] = set()

    # -- recording ------------------------------------------------------------

    def start_op(self, op: int | str) -> None:
        self.op = op
        self.fits.clear()

    def count(self, name: str, amount: int = 1) -> None:
        self.counts[self.op][name] += amount

    def call(self, name: str, fn, args=(), kwargs=None):
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.op]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = time.perf_counter()
        try:
            return fn(*args, **(kwargs or {}))
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    # -- patching -------------------------------------------------------------

    def _wrap(self, owner, attr: str, name: str | None, before=None, after=None) -> None:
        original = getattr(owner, attr)
        tracer = self

        def wrapper(*args, **kwargs):
            if before is not None:
                before(tracer, original, args, kwargs)
            if name is None:
                result = original(*args, **kwargs)
            else:
                result = tracer.call(name, original, args, kwargs)
            if after is not None:
                after(tracer, result)
            return result

        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        w = self._wrap
        w(cli, "report_to_json", "pipeline.report_to_json")
        w(pipeline, "run_query", "pipeline")
        w(pipeline, "run_validation", "pipeline")
        w(pipeline, "load_csv", "frame.load_csv", before=_count_csv_bytes)
        w(pipeline, "backdoor_sets", "graph.backdoor_sets", after=_count_minimal_sets)
        w(graph, "d_separated", None, before=_count_call("graph.d_separated.calls"))
        w(pipeline, "fit_propensity", "estimators.fit_propensity",
          before=_count_call("estimators.fit_propensity.calls"))
        w(pipeline, "psm_att", "estimators.psm_att", before=_count_psm)
        w(estimators, "fit_logistic", "learners.fit_logistic")
        for refuter, attr in REFUTERS.items():
            w(pipeline, attr, f"refutation.{refuter}", before=_count_reps)
        w(refutation.EstimationTask, "run", "refutation.rep")
        for learner in ("s", "t", "x", "r"):
            w(metalearners, f"{learner}_learner", f"metalearners.{learner.upper()}")
        w(metalearners.CateModel, "predict_ite", "metalearners.predict_ite")
        w(metalearners.CateModel, "write_ite_csv", "metalearners.write_ite_csv")
        w(learners, "fit_gbt", "learners.fit_gbt", before=_count_gbt)
        w(learners.FittedModel, "predict", "learners.predict")
        w(frame.Frame, "with_column", "frame.derive", before=_count_call("frame.derive.calls"))
        w(frame.Frame, "subset_rows", "frame.derive", before=_count_call("frame.derive.calls"))
        for fn in ("mse", "kl_divergence", "uplift_curve_true", "prediction_scatter"):
            w(evaluation, fn, "evaluation")
        w(synth, "generate", "synth.generate", before=_new_repetition)
        w(frame, "write_csv", "frame.write_csv")

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- aggregation ----------------------------------------------------------

    def layer_metrics(self, ops: set) -> dict[str, float]:
        """Per-layer totals over the spans and counts of the given operations.

        A span nested in another of the same name is not added again.  Self
        time is a span's duration minus the durations of its direct children.
        """
        total: dict[str, float] = defaultdict(float)
        self_s: dict[str, float] = defaultdict(float)
        reps: list[float] = []
        for name, start, end, parent, op in self.spans:
            if op not in ops:
                continue
            dur = end - start
            self_s[name] += dur
            if parent >= 0:
                self_s[self.spans[parent][0]] -= dur
            if not _has_ancestor(self.spans, parent, name):
                total[name] += dur
            if name == "refutation.rep":
                reps.append(dur)
        counts: dict[str, int] = defaultdict(int)
        for op in ops:
            for name, value in self.counts[op].items():
                counts[name] += value

        out = {m: total[m[:-2]] if m.endswith(".s") else counts[m]
               for m, _unit, _better in LAYER_METRICS if m != "trace.overhead_s"}
        calls = counts["graph.d_separated.calls"]
        out.update({
            "refutation.rep_p50_s": _percentile(reps, 50),
            "refutation.rep_p97_5_s": _percentile(reps, 97.5),
            "graph.backdoor_sets.useful_ratio":
                counts["graph.backdoor_sets.minimal_sets"] / calls if calls else 0.0,
            "pipeline.self_s": self_s["pipeline"],
            "cli.self_s": self_s["cli"],
        })
        return out

    def setup_metrics(self, setup_ops: list) -> dict[str, float]:
        """Median over set-up repetitions of input generation and CSV writing."""
        per_rep = [self.layer_metrics({op}) for op in setup_ops]
        return {m: statistics.median(p[m] for p in per_rep)
                for m in ("synth.generate.s", "frame.write_csv.s")}


def _has_ancestor(spans: list, parent: int, name: str) -> bool:
    while parent >= 0:
        if spans[parent][0] == name:
            return True
        parent = spans[parent][3]
    return False


def _count_call(name: str):
    def before(tracer, fn, args, kwargs):
        tracer.count(name)
    return before


def _count_csv_bytes(tracer, fn, args, kwargs):
    tracer.count("frame.load_csv.bytes", os.path.getsize(_bound(fn, args, kwargs)["path"]))


def _count_minimal_sets(tracer, result):
    tracer.count("graph.backdoor_sets.minimal_sets", len(result))


def _count_psm(tracer, fn, args, kwargs):
    a = _bound(fn, args, kwargs)
    tv = a["f"].binary_vector(a["t"])
    treated = int((tv == 1.0).sum())
    tracer.count("estimators.psm_att.calls")
    tracer.count("estimators.psm_att.pairs", treated * (len(tv) - treated))


def _count_reps(tracer, fn, args, kwargs):
    tracer.count("refutation.reps", _bound(fn, args, kwargs)["repetitions"])


def _count_gbt(tracer, fn, args, kwargs):
    """Rows fitted, and fits on byte-identical (X, y, w, spec) already fit
    in the same repetition."""
    a = _bound(fn, args, kwargs)
    X = np.ascontiguousarray(a["X"], dtype=float)
    tracer.count("learners.fit_gbt.calls")
    tracer.count("learners.fit_gbt.rows", X.shape[0])
    digest = hashlib.sha256(repr(a["spec"]).encode())
    for arr in (X, a["y"], a["w"]):
        if arr is None:
            digest.update(b"none")
        else:
            digest.update(np.ascontiguousarray(arr, dtype=float).tobytes())
    key = digest.digest()
    if key in tracer.fits:
        tracer.count("learners.fit_gbt.repeat_calls")
    tracer.fits.add(key)


def _new_repetition(tracer, fn, args, kwargs):
    """run_validation draws one synthetic set per repetition."""
    tracer.fits.clear()
