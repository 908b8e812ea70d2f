import gc
import hashlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from causet.errors import DimensionMismatchError, SingleClassError
from causet.learners import (
    FittedModel,
    LearnerSpec,
    _best_split,
    _grow_tree,
    _sigmoid,
    _tied_features,
    _Tree,
    fit_gbt,
    fit_learner,
    fit_linear,
    fit_logistic,
)
from causet.rng import make_rng

from oracles import (
    fit_linear_stacked,
    grow_tree_per_feature,
    logistic_loglik,
    normal_equations_fit,
    sigmoid_two_branch,
    tree_predict_levelwise,
)


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


def linear_params(m: FittedModel) -> np.ndarray:
    return np.array([m.intercept, *(m.coefficient(name) for name in m.feature_names)])


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

    @pytest.mark.parametrize("k", [0, 1, 4])
    @pytest.mark.parametrize("ridge", [0.0, 1e-8, 0.5])
    @pytest.mark.parametrize("weights", ["none", "unit", "random"])
    def test_same_bits_as_the_stacked_design(self, k, ridge, weights):
        # One array each for the design and right-hand side give lstsq the
        # values it had before.
        rng = make_rng(17 + k)
        for n in (1, 7, 300):
            X = rng.standard_normal((n, k)) * 10.0 ** rng.integers(-3, 4, size=k)
            X[rng.uniform(size=(n, k)) < 0.1] = -0.0
            y = rng.standard_normal(n)
            w = {"none": None, "unit": np.ones(n),
                 "random": rng.uniform(0.0, 3.0, size=n)}[weights]
            m = fit_linear(X, y, w, spec=LearnerSpec("linear", ridge=ridge))
            intercept, coef = fit_linear_stacked(X, y, w, ridge=ridge)
            assert linear_params(m).tobytes() == np.array([intercept, *coef]).tobytes()

    @pytest.mark.parametrize("weighted", [False, True], ids=["unweighted", "weighted"])
    def test_peak_memory_is_one_design(self, weighted):
        # The design [1, X] is 1.125x X here.  Stacking, scaling and joining
        # the ridge rows in separate arrays peaked at 2.4-2.6x X; one design
        # and one right-hand side peak near 1.4x.
        rng = make_rng(8)
        n, k = 50_000, 8
        X, y = rng.standard_normal((n, k)), rng.standard_normal(n)
        w = rng.uniform(size=n) if weighted else None
        tracemalloc.start()
        try:
            fit_linear(X, y, w)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.8 * X.nbytes, f"peak {peak / X.nbytes:.2f}x X"

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

    @pytest.mark.parametrize("y", [[0.0, 0.0, 0.0, 0.0], [1.0, 1.0, 1.0, 1.0]])
    def test_all_zero_or_all_one_rejected(self, y):
        X = np.array([[-1.0], [1.0], [-2.0], [2.0]])
        with pytest.raises(SingleClassError, match="both classes"):
            fit_logistic(X, np.array(y))

    @pytest.mark.parametrize("bad", [2.0, 0.5, np.nan])
    @pytest.mark.parametrize("others", [[0.0, 1.0, 0.0], [1.0, 1.0, 1.0], [0.0, 0.0, 0.0]])
    def test_non_binary_y_rejected(self, bad, others):
        # a value outside {0, 1} is named before a missing class is
        X = np.array([[-1.0], [1.0], [-2.0], [2.0]])
        with pytest.raises(ValueError, match=r"^y must be a 0/1 vector$"):
            fit_logistic(X, np.array([*others, bad]))

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


class TestSigmoid:
    """The one-``exp`` sigmoid has the bits of the two-branch form."""

    EDGES = [0.0, -0.0, 35.0, -35.0, 35.5, -35.5, 1e300, -1e300, np.inf, -np.inf,
             5e-324, -5e-324, 2.2250738585072014e-308, -2.2250738585072014e-308]

    @staticmethod
    def bits(a):
        return np.asarray(a, dtype=float).view(np.uint64)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats(allow_nan=False, allow_infinity=True), min_size=1, max_size=50))
    def test_bit_equal_to_two_branch(self, values):
        eta = np.array(values + self.EDGES)
        assert np.array_equal(self.bits(_sigmoid(eta)), self.bits(sigmoid_two_branch(eta)))

    def test_bit_equal_where_exp_rounds_to_one(self):
        # exp(-|eta|) is at or next to 1 here, where the numerator select
        # must still give 1 for eta >= 0 and exp(-|eta|) otherwise
        tiny = np.ldexp(1.0, -np.arange(40, 1075))
        eta = np.concatenate([tiny, -tiny, np.arange(1, 4096) * 2.0**-60,
                              np.arange(1, 4096) * -(2.0**-60)])
        assert np.array_equal(self.bits(_sigmoid(eta)), self.bits(sigmoid_two_branch(eta)))

    def test_nan_stays_nan(self):
        out = _sigmoid(np.array([np.nan, 0.0, -np.nan]))
        assert np.isnan(out[0]) and np.isnan(out[2]) and out[1] == 0.5


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


def _grow_column(rng, kind, n: int) -> np.ndarray:
    """One feature column of ``kind`` (see :func:`grow_cases`)."""
    if kind is None:
        return rng.standard_normal(n)
    if kind == "ulp":
        return 1.0 + rng.integers(0, 3, size=n) * np.finfo(float).eps
    if kind == "nan":
        x = rng.standard_normal(n)
        x[rng.uniform(size=n) < 0.2] = np.nan
        return x
    if kind == "zero":
        x = rng.standard_normal(n)
        pair = rng.permutation(n)[:2]
        x[pair] = np.array([-0.0, 0.0])[: pair.size]
        return x
    return rng.integers(0, kind, size=n).astype(float)


@st.composite
def grow_cases(draw):
    n = draw(st.integers(1, 150))
    p = draw(st.integers(0, 3))
    rng = make_rng(draw(st.integers(0, 2**32 - 1)))
    # Each column draws its kind, so one X mixes tie-free columns (None:
    # standard normals) with tied ones: 2, 3 or 6 integer levels; "ulp": 1.0
    # and its next two floats, where a midpoint threshold rounds onto one of
    # the two values it separates; "nan": normals with NaN cells, which sort
    # last; "zero": normals holding one -0.0 and one 0.0, which compare equal.
    kinds = draw(st.lists(st.sampled_from((2, 3, 6, "ulp", "nan", "zero", None)),
                          min_size=p, max_size=p))
    X = np.column_stack([_grow_column(rng, kind, n) for kind in kinds] or [np.empty((n, 0))])
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


def _layouts(X: np.ndarray, rng) -> dict[str, np.ndarray]:
    """``X`` with some cells NaN, as C-ordered, Fortran-ordered and
    column-sliced arrays of the same values."""
    X = X.copy()
    X[rng.uniform(size=X.shape) < 0.1] = np.nan
    wide = np.full((X.shape[0], 2 * X.shape[1] + 1), -7.0)
    wide[:, 1::2] = X
    return {"c": X, "fortran": np.asfortranarray(X), "sliced": wide[:, 1::2]}


def _longest_path(tree: _Tree, node: int = 0) -> int:
    if tree.feature[node] < 0:
        return 0
    return 1 + max(_longest_path(tree, tree.left[node]), _longest_path(tree, tree.right[node]))


class TestTreePredict:
    """The fixed-depth child-table walk against the level-by-level walk it
    replaced."""

    @settings(max_examples=300, deadline=None)
    @given(grow_cases(), st.integers(0, 2**32 - 1))
    def test_matches_levelwise_walk(self, case, seed):
        X, target, w, max_depth, min_leaf, lam = case
        XT = np.ascontiguousarray(X.T)
        orders = np.argsort(XT, axis=1, kind="stable")
        try:
            tree, _ = _grow_tree(XT, target, w, max_depth, orders, lam, min_leaf)
        except ZeroDivisionError:
            return  # a node with no positive weight; see assert_same_tree
        assert tree.depth == _longest_path(tree)
        for name, Xl in _layouts(X, make_rng(seed)).items():
            got = tree.predict(Xl)
            assert got.tobytes() == tree_predict_levelwise(tree, Xl).tobytes(), name

    def test_one_leaf_tree(self):
        tree = _Tree([-1], [0.0], [-1], [-1], [2.5])
        assert tree.depth == 0
        assert tree.predict(np.empty((3, 0))).tolist() == [2.5] * 3
        X = np.array([[np.nan, 1.0], [0.0, -1.0]])
        assert tree.predict(X).tolist() == [2.5, 2.5]
        assert tree.predict(X).tobytes() == tree_predict_levelwise(tree, X).tobytes()

    def test_zero_columns(self):
        X = np.empty((3, 0))
        XT = np.ascontiguousarray(X.T)
        tree, fitted = _grow_tree(XT, np.array([1.0, 2.0, 4.0]), np.ones(3), 3,
                                  np.argsort(XT, axis=1, kind="stable"))
        assert tree.depth == 0
        assert tree.predict(X).tobytes() == fitted.tobytes()
        assert tree.predict(X).tobytes() == tree_predict_levelwise(tree, X).tobytes()

    def test_leaves_at_different_depths(self):
        # node 0 splits on x0; its right child is a leaf, its left splits on x1
        tree = _Tree([0, 1, -1, -1, -1], [0.5, 0.0, 0.0, 0.0, 0.0],
                     [1, 2, -1, -1, -1], [4, 3, -1, -1, -1], [9.0, 8.0, 1.0, 2.0, 3.0])
        assert tree.depth == 2
        X = np.array([[0.0, -1.0], [0.0, 1.0], [1.0, -1.0], [np.nan, -1.0], [0.0, np.nan]])
        assert tree.predict(X).tolist() == [1.0, 2.0, 3.0, 3.0, 2.0]
        assert tree.predict(X).tobytes() == tree_predict_levelwise(tree, X).tobytes()


class TestUnitWeightSplit:
    """With every weight 1, the split search without weight prefix sums
    gives the weighted search's answer bit for bit; so does a search that
    masks equal neighbours on the tied features alone."""

    @settings(max_examples=300, deadline=None)
    @given(grow_cases(), st.integers(0, 2**32 - 1))
    def test_same_split_as_weighted_path(self, case, seed):
        X, target, _, _, min_leaf, lam = case
        n, p = X.shape
        # a node: the rows a random mask keeps, in each feature's order
        keep = make_rng(seed).uniform(size=n) < 0.8
        n_node = int(keep.sum())
        if p == 0 or n_node < 2 * min_leaf:
            return
        w = np.ones(n)
        XT = np.ascontiguousarray(X.T)
        orders = np.argsort(XT, axis=1, kind="stable")
        node_orders = orders[keep[orders]].reshape(p, n_node)
        rows = node_orders[0]
        wsum, wysum = float(w[rows].sum()), float(target[rows].sum())
        buf, flags = np.empty((5, p * n)), np.empty((2, p * n), dtype=bool)
        args = (XT, w, w * target, node_orders, wsum, wysum, lam, min_leaf, buf, flags)
        want = _best_split(*args, range(p))  # weighted, every feature masked
        for tied in (_tied_features(XT, orders), range(p)):
            for ramp in (None, np.arange(1.0, n + 1) + lam):
                got = _best_split(*args, tied, ramp)
                assert got[1] == want[1]
                assert [float(got[k]).hex() for k in (0, 2)] == [float(want[k]).hex() for k in (0, 2)]

    def test_tied_features(self):
        X = np.array([
            [0.5, 1.0, 1.0, np.nan, -0.0],
            [0.25, 2.0, 1.0, 1.0, 0.0],
            [0.75, 3.0, 2.0, 2.0, 1.0],
        ])
        XT = np.ascontiguousarray(X.T)
        assert _tied_features(XT, np.argsort(XT, axis=1, kind="stable")) == [2, 3, 4]
        one = np.array([[np.nan]])
        assert _tied_features(one, np.zeros((1, 1), dtype=np.int64)) == []


class TestFittedValues:
    """A gbt fit keeps its training predictions: ``fitted`` is ``predict``
    on the training X, bit for bit, and read-only."""

    @settings(max_examples=150, deadline=None)
    @given(grow_cases(), st.booleans())
    def test_fitted_is_predict_on_the_training_rows(self, case, constant):
        X, target, w, max_depth, min_leaf, lam = case
        y = np.full(len(target), 2.5) if constant else target
        spec = LearnerSpec("gbt", max_iterations=4, max_depth=max_depth, min_leaf=min_leaf,
                           leaf_penalty=lam)
        try:
            model = fit_gbt(X, y, w=w, spec=spec)
        except (ValueError, ZeroDivisionError):
            return  # weights summing to zero, or a node with no positive weight
        assert model.fitted.tobytes() == model.predict(X).tobytes()
        assert not model.fitted.flags.writeable
        if constant and (w == 1.0).all():
            assert "trees: 0" in model.describe()

    def test_early_stop_at_round_zero(self):
        X = np.array([[0.0, np.nan], [1.0, 2.0], [2.0, -0.0], [3.0, 0.0]])
        model = fit_gbt(X, np.full(4, -1.5))
        assert "trees: 0" in model.describe()
        assert model.fitted.tolist() == [-1.5] * 4
        assert model.fitted.tobytes() == model.predict(X).tobytes()
        with pytest.raises(ValueError):
            model.fitted[0] = 0.0

    def test_only_gbt_keeps_it(self):
        X = np.array([[0.0], [1.0], [2.0]])
        y = np.array([0.0, 1.0, 1.0])
        assert fit_linear(X, y).fitted is None
        assert fit_logistic(X, y).fitted is None


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
