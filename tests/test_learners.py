import gc
import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from causet.errors import DimensionMismatchError, SingleClassError
from causet.learners import (
    FittedModel,
    LearnerSpec,
    _grow_tree,
    fit_gbt,
    fit_learner,
    fit_linear,
    fit_logistic,
)
from causet.rng import make_rng

from oracles import grow_tree_per_feature, logistic_loglik, normal_equations_fit


class TestLearnerSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            LearnerSpec("mlp")
        with pytest.raises(ValueError):
            LearnerSpec("gbt", max_iterations=0)
        with pytest.raises(ValueError):
            LearnerSpec("gbt", learning_rate=-0.1)
        with pytest.raises(ValueError):
            LearnerSpec("gbt", max_depth=0)
        with pytest.raises(ValueError):
            LearnerSpec("linear", ridge=-1.0)

    def test_zero_learning_rate_allowed(self):
        LearnerSpec("gbt", learning_rate=0.0)


class TestFitLinear:
    def test_two_point_line(self):
        m = fit_linear(np.array([[0.0], [1.0]]), np.array([1.0, 3.0]))
        assert m.intercept == pytest.approx(1.0, abs=1e-6)
        assert m.coefficient("x0") == pytest.approx(2.0, abs=1e-6)

    def test_noiseless_recovery(self):
        x = np.linspace(0.0, 10.0, 50).reshape(-1, 1)
        y = 2.0 * x[:, 0]
        m = fit_linear(x, y)
        assert m.coefficient("x0") == pytest.approx(2.0, abs=1e-9)
        assert np.abs(m.predict(x) - y).max() < 1e-8

    def test_matches_normal_equations_oracle(self):
        rng = make_rng(21)
        for _ in range(30):
            X = rng.standard_normal((20, 3))
            y = rng.standard_normal(20)
            w = rng.uniform(0.1, 2.0, size=20)
            m = fit_linear(X, y, w=w)
            beta = normal_equations_fit(X, y, w=w, ridge=m.spec.ridge)
            got = np.array([m.intercept, *(m.coefficient(f"x{i}") for i in range(3))])
            assert np.allclose(got, beta, rtol=1e-8, atol=1e-10)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            fit_linear(np.zeros((3, 2)), np.zeros(4))

    def test_column_order_independence(self):
        rng = make_rng(2)
        X = rng.standard_normal((30, 3))
        y = X @ np.array([1.0, -2.0, 0.5]) + rng.standard_normal(30)
        m = fit_linear(X, y, feature_names=("a", "b", "c"))
        direct = m.predict(X, feature_names=("a", "b", "c"))
        permuted = m.predict(X[:, [2, 0, 1]], feature_names=("c", "a", "b"))
        assert np.array_equal(direct, permuted)

    def test_feature_set_enforced(self):
        m = fit_linear(np.zeros((2, 1)), np.zeros(2), feature_names=("a",))
        with pytest.raises(DimensionMismatchError):
            m.predict(np.zeros((2, 1)), feature_names=("b",))
        with pytest.raises(DimensionMismatchError):
            m.predict(np.zeros((2, 2)))


class TestFitLogistic:
    def test_symmetric_data_zero_intercept(self):
        X = np.array([[-1.0], [1.0], [-1.0], [1.0]])
        y = np.array([0.0, 1.0, 0.0, 1.0])
        m = fit_logistic(X, y)
        assert m.intercept == pytest.approx(0.0, abs=1e-6)

    def test_single_class_rejected(self):
        with pytest.raises(SingleClassError):
            fit_logistic(np.zeros((3, 1)), np.ones(3))

    def test_separable_hits_cap_and_stays_monotone(self):
        x = np.linspace(-2, 2, 40).reshape(-1, 1)
        y = (x[:, 0] > 0).astype(float)
        m = fit_logistic(x, y)
        p = m.predict(x)
        assert np.all(np.diff(p) >= 0)
        assert p[0] < 0.01 and p[-1] > 0.99

    def test_beats_grid_search_oracle(self):
        rng = make_rng(33)
        x = rng.standard_normal(60).reshape(-1, 1)
        y = (rng.uniform(size=60) < 1.0 / (1.0 + np.exp(-(0.4 + 1.3 * x[:, 0])))).astype(float)
        m = fit_logistic(x, y)
        best = logistic_loglik(x, y, m.intercept, [m.coefficient("x0")])
        grid = np.linspace(-10.0, 10.0, 201)
        for b0 in grid:
            etas = b0 + np.outer(grid, x[:, 0])
            lls = np.sum(y * etas - np.logaddexp(0.0, etas), axis=1)
            assert best >= lls.max() - 1e-6

    def test_intercept_only(self):
        y = np.array([1.0, 0.0, 0.0, 0.0])
        m = fit_logistic(np.empty((4, 0)), y)
        assert m.predict(np.empty((4, 0)))[0] == pytest.approx(0.25, abs=1e-6)


class TestFitGbt:
    def test_zero_learning_rate_predicts_mean(self):
        rng = make_rng(1)
        X = rng.uniform(size=(40, 2))
        y = rng.standard_normal(40)
        m = fit_gbt(X, y, spec=LearnerSpec("gbt", learning_rate=0.0, max_iterations=5))
        assert np.allclose(m.predict(X), y.mean())

    def test_step_function_depth_one(self):
        rng = make_rng(4)
        x = np.sort(rng.uniform(-1, 1, size=200)).reshape(-1, 1)
        y = (x[:, 0] > 0).astype(float)
        m = fit_gbt(x, y, spec=LearnerSpec("gbt", max_depth=1))
        assert np.mean((m.predict(x) - y) ** 2) < 1e-6

    def test_training_mse_non_increasing(self):
        for seed in range(20):
            rng = make_rng(seed)
            X = rng.uniform(size=(120, 3))
            y = np.sin(3 * X[:, 0]) + X[:, 1] + rng.standard_normal(120) * 0.3
            m = fit_gbt(X, y, spec=LearnerSpec("gbt", max_iterations=40))
            stages = m.staged_predictions(X)
            mses = np.mean((stages - y) ** 2, axis=1)
            assert np.all(np.diff(mses) <= 1e-12)

    def test_deterministic(self):
        rng = make_rng(8)
        X = rng.uniform(size=(100, 4))
        y = rng.standard_normal(100)
        a = fit_gbt(X, y).predict(X)
        b = fit_gbt(X, y).predict(X)
        assert np.array_equal(a, b)

    def test_column_order_independence(self):
        rng = make_rng(12)
        X = rng.uniform(size=(80, 3))
        y = X[:, 0] * 2 + (X[:, 1] > 0.5) + rng.standard_normal(80) * 0.1
        m = fit_gbt(X, y, feature_names=("a", "b", "c"))
        assert np.array_equal(
            m.predict(X, feature_names=("a", "b", "c")),
            m.predict(X[:, [1, 2, 0]], feature_names=("b", "c", "a")),
        )

    def test_weighted_fit_ignores_zero_weight_rows(self):
        X = np.array([[0.0], [1.0], [2.0], [3.0]])
        y = np.array([1.0, 1.0, 5.0, 5.0])
        w = np.array([1.0, 1.0, 1.0, 0.0])
        m = fit_gbt(X, y, w=w, spec=LearnerSpec("gbt", leaf_penalty=0.0, min_leaf=1))
        m2 = fit_gbt(X[:3], y[:3], spec=LearnerSpec("gbt", leaf_penalty=0.0, min_leaf=1))
        assert m.predict(X[:3]) == pytest.approx(m2.predict(X[:3]))

    def test_saturates_noiseless_data(self):
        rng = make_rng(15)
        X = rng.uniform(size=(60, 2))
        y = np.floor(X[:, 0] * 3) + 2 * (X[:, 1] > 0.7)
        m = fit_gbt(X, y, spec=LearnerSpec("gbt", leaf_penalty=0.0, min_leaf=1))
        assert np.mean((m.predict(X) - y) ** 2) < 1e-8

    def test_zero_features(self):
        y = np.array([1.0, 2.0, 3.0])
        m = fit_gbt(np.empty((3, 0)), y)
        assert np.allclose(m.predict(np.empty((3, 0))), y.mean())


# Per-row weights drawn from this pool cover zero and tiny weights, where
# rounding can leave a child with no positive weight.
WEIGHT_POOL = (0.0, 1e-300, 1e-8, 0.5, 1.0, 2.0)
TREE_ARRAYS = ("feature", "threshold", "left", "right", "value")


@st.composite
def grow_cases(draw):
    n = draw(st.integers(1, 150))
    p = draw(st.integers(0, 3))
    rng = make_rng(draw(st.integers(0, 2**32 - 1)))
    # None: no tied values; "ulp": 1.0 and its next two floats, where a
    # midpoint threshold rounds onto one of the two values it separates.
    levels = draw(st.sampled_from((2, 3, 6, "ulp", None)))
    if levels is None:
        X = rng.standard_normal((n, p))
    elif levels == "ulp":
        X = 1.0 + rng.integers(0, 3, size=(n, p)) * np.finfo(float).eps
    else:
        X = rng.integers(0, levels, size=(n, p)).astype(float)
    target = rng.standard_normal(n)
    weighting = draw(st.sampled_from(("ones", "uniform", "pool")))
    if weighting == "ones":
        w = np.ones(n)
    elif weighting == "uniform":
        w = rng.uniform(0.0, 2.0, size=n)
    else:
        w = np.array(WEIGHT_POOL)[rng.integers(0, len(WEIGHT_POOL), size=n)]
    return (
        X,
        target,
        w,
        draw(st.integers(1, 6)),
        draw(st.sampled_from((1, 2, 20))),
        draw(st.sampled_from((0.0, 1.0))),
    )


def assert_same_tree(X, target, w, max_depth, min_leaf, lam):
    """The stacked grower gives the per-feature grower's tree, bit for bit,
    and its per-row values equal ``tree.predict(X)``."""
    orders = [np.argsort(X[:, j], kind="stable") for j in range(X.shape[1])]
    XT = np.ascontiguousarray(X.T)
    stacked = np.argsort(XT, axis=1, kind="stable")
    try:
        want = grow_tree_per_feature(X, target, w, max_depth, orders, lam, min_leaf)
    except ZeroDivisionError:
        # a node with no positive weight: both growers must refuse it
        with pytest.raises(ZeroDivisionError):
            _grow_tree(XT, target, w, max_depth, stacked, lam, min_leaf)
        return None
    got, fitted = _grow_tree(XT, target, w, max_depth, stacked, lam, min_leaf)
    for name in TREE_ARRAYS:
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
    assert fitted.tobytes() == got.predict(X).tobytes()
    return got


class TestGrowTree:
    """The stacked grower against the per-feature one it replaced."""

    @settings(max_examples=400, deadline=None)
    @given(grow_cases())
    def test_matches_per_feature_grower(self, case):
        assert_same_tree(*case)

    def test_matches_per_feature_grower_on_deep_trees(self):
        splits = 0
        for seed in range(12):
            rng = make_rng(seed)
            X = rng.standard_normal((400, 3))
            X[:, 1] = np.round(X[:, 1])
            target = np.sin(2 * X[:, 0]) + X[:, 1] + rng.standard_normal(400)
            w = rng.uniform(0.0, 2.0, size=400) * (rng.uniform(size=400) > 0.1)
            for min_leaf in (1, 20):
                for lam in (0.0, 1.0):
                    tree = assert_same_tree(X, target, w, 6, min_leaf, lam)
                    splits += int((tree.feature >= 0).sum())
        assert splits > 1000

    def test_nan_rows_take_the_growth_route(self):
        # x <= threshold is false for NaN, so growth sends a NaN row right;
        # predict must send it right too.
        X = np.array([[0.0], [1.0], [2.0], [3.0], [np.nan], [np.nan]])
        y = np.array([0.0, 0.0, 5.0, 5.0, 5.0, 5.0])
        XT = np.ascontiguousarray(X.T)
        orders = np.argsort(XT, axis=1, kind="stable")
        tree, fitted = _grow_tree(XT, y, np.ones(6), 1, orders, 0.0, 1)
        assert fitted.tolist() == [0.0, 0.0, 5.0, 5.0, 5.0, 5.0]
        assert fitted.tobytes() == tree.predict(X).tobytes()
        spec = LearnerSpec("gbt", max_iterations=1, learning_rate=1.0, max_depth=1,
                           leaf_penalty=0.0, min_leaf=1)
        model = fit_gbt(X, y, spec=spec)
        assert model.predict(X) == pytest.approx([0.0, 0.0, 5.0, 5.0, 5.0, 5.0])


def _pinned_fits():
    rng = make_rng(2024)
    X = rng.standard_normal((1500, 4))
    X[:, 3] = np.round(X[:, 3])  # a feature with heavy ties
    y = np.sin(2 * X[:, 0]) + X[:, 1] * (X[:, 3] > 0) + 0.5 * rng.standard_normal(1500)
    w = rng.uniform(0.0, 2.0, size=1500)
    w[::9] = 0.0
    plain = fit_gbt(X, y, feature_names=("a", "b", "c", "d"))
    weighted = fit_gbt(
        X, y, w=w, spec=LearnerSpec("gbt", max_iterations=60, min_leaf=5, leaf_penalty=0.5)
    )
    return plain, weighted


class TestGbtPinned:
    def test_describe_hashes_unchanged(self):
        # Taken with the per-feature grower that re-predicted the training
        # rows every round.  gbt uses no BLAS, so these hold on any platform.
        plain, weighted = _pinned_fits()
        digest = [hashlib.sha256(m.describe().encode()).hexdigest() for m in (plain, weighted)]
        assert digest == [
            "0a4b9348e7c4340fcbc970d643c17b3b248bc9c43c29f0c20006c5cb68152ae7",
            "d4edf223517851ab4041e653aeac363b93add2b93d9eeec6dbf0be653245e377",
        ]

    def test_fit_leaves_no_cyclic_garbage(self):
        rng = make_rng(6)
        X = rng.standard_normal((500, 3))
        y = X[:, 0] + rng.standard_normal(500)
        gc.collect()
        gc.disable()
        try:
            fit_gbt(X, y, spec=LearnerSpec("gbt", max_iterations=30))
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestSerialization:
    def test_describe_roundtripable_text(self):
        rng = make_rng(3)
        X = rng.uniform(size=(30, 2))
        lin = fit_linear(X, X[:, 0] + 1.0, feature_names=("u", "v"))
        text = lin.describe()
        assert "kind: linear" in text and "coef u:" in text
        gbt = fit_gbt(X, X[:, 1], spec=LearnerSpec("gbt", max_iterations=3))
        gtext = gbt.describe()
        assert "kind: gbt" in gtext and "trees: 3" in gtext

    def test_dispatcher(self):
        X = np.array([[0.0], [1.0]])
        assert fit_learner(LearnerSpec("linear"), X, np.array([0.0, 1.0])).spec.kind == "linear"
        with pytest.raises(ValueError):
            fit_learner(LearnerSpec("logistic"), X, np.array([0.0, 1.0]), w=np.ones(2))
