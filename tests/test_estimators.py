import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import psm_match_bruteforce, psm_match_chunked

from causet import estimators
from causet.errors import NoValidStrataError, SingleClassError, UnknownColumnError
from causet.estimators import (
    PropensityModel,
    _match_controls,
    fit_propensity,
    ipw_ate,
    psm_att,
    regression_adjustment,
    stratified_ate,
)
from causet.frame import Column, Frame
from causet.rng import make_rng
from causet.synth import generate


def make_frame(t, y, **covs):
    data = {"t": np.asarray(t, dtype=float), "y": np.asarray(y, dtype=float)}
    data.update({k: np.asarray(v, dtype=float) for k, v in covs.items()})
    kinds = {"t": "binary", "y": "numeric"}
    kinds.update({k: "numeric" for k in covs})
    return Frame.from_dict(data, kinds)


class TestFitPropensity:
    def test_intercept_only_gives_prevalence(self):
        f = make_frame([1, 0, 0, 0], [1.0, 2.0, 3.0, 4.0])
        pm = fit_propensity(f, "t", ())
        assert pm.scores(f) == pytest.approx(np.full(4, 0.25), abs=1e-6)

    def test_intercept_only_clipped(self):
        f = make_frame([1] + [0] * 99, np.zeros(100))
        pm = fit_propensity(f, "t", ())
        assert pm.scores(f) == pytest.approx(np.full(100, 0.05))

    def test_single_class(self):
        f = make_frame([1, 1], [0.0, 0.0])
        with pytest.raises(SingleClassError):
            fit_propensity(f, "t", ())

    def test_randomized_scores_concentrate(self):
        rng = make_rng(100)
        n = 10000
        x = rng.standard_normal(n)
        t = (rng.uniform(size=n) < 0.4).astype(float)
        f = make_frame(t, rng.standard_normal(n), x=x)
        scores = fit_propensity(f, "t", ("x",)).scores(f)
        assert scores.max() - scores.min() < 0.1
        assert abs(scores.mean() - t.mean()) < 0.02

    def test_recovers_synthetic_propensity(self):
        ss = generate(n=20000, seed=77)
        f = ss.to_frame()
        pm = fit_propensity(f, "w", ss.feature_names)
        r = np.corrcoef(pm.scores(f), ss.e_true)[0, 1]
        assert r > 0.5

    def test_clip_bounds_enforced(self):
        with pytest.raises(ValueError):
            PropensityModel(None, (), clip=0.6)


class TestFittedOn:
    """A model from fit_propensity keeps its fitting frame's treatment and
    adjustment columns, its scores there and its matching there; a frame
    that holds those very column objects gets the kept results back."""

    @staticmethod
    def world(n=300, seed=5):
        rng = make_rng(seed)
        x = rng.standard_normal(n)
        t = (rng.uniform(size=n) < 1.0 / (1.0 + np.exp(-x))).astype(float)
        return make_frame(t, x + t + rng.standard_normal(n), x=x)

    @staticmethod
    def counted_matching(monkeypatch):
        calls = []

        def counted(e, tv):
            calls.append(1)
            return _match_controls(e, tv)

        monkeypatch.setattr(estimators, "_match_controls", counted)
        return calls

    def test_frame_holding_the_columns_gets_the_kept_results(self, monkeypatch):
        calls = self.counted_matching(monkeypatch)
        f = self.world()
        pm = fit_propensity(f, "t", ("x",))
        e = pm.scores(f)
        assert not e.flags.writeable
        y = f.column("y")
        g = f.with_column(Column("y", "numeric", y.values + f.values("t")))
        assert pm.fitted_on(g, "t")
        assert pm.scores(g) is e
        assert pm.match(g, "t") is pm.match(f, "t")
        assert psm_att(g, "t", "y", pm).value == pytest.approx(
            psm_att(f, "t", "y", pm).value + 1.0)
        assert len(calls) == 1

    def test_kept_scores_are_the_scores_of_the_frame(self):
        f = self.world()
        pm = fit_propensity(f, "t", ("x",))
        fresh = PropensityModel(pm.model, pm.adjustment, pm.clip)
        assert not fresh.fitted_on(f, "t")
        np.testing.assert_array_equal(fresh.scores(f), pm.scores(f))

    def test_equal_new_column_gives_equal_bits_in_a_new_array(self):
        f = self.world()
        pm = fit_propensity(f, "t", ("x",))
        e = pm.scores(f)
        x = f.column("x")
        g = f.with_column(Column("x", "numeric", x.values))
        assert not pm.fitted_on(g, "t")
        e2 = pm.scores(g)
        assert e2 is not e and not e2.flags.writeable
        np.testing.assert_array_equal(e2, e)
        # the fitting frame keeps its own scores
        assert pm.scores(f) is e

    def test_row_subset_is_scored_afresh(self):
        f = self.world()
        pm = fit_propensity(f, "t", ())
        sub = f.subset_rows(np.arange(10))
        assert not pm.fitted_on(sub, "t")
        assert len(pm.scores(f)) == f.n_rows and len(pm.scores(sub)) == 10

    def test_missing_column_raises_the_same_error(self):
        f = self.world()
        pm = fit_propensity(f, "t", ("x",))
        pm.scores(f)
        assert not pm.fitted_on(f.drop("x"), "t")
        with pytest.raises(UnknownColumnError):
            pm.scores(f.drop("x"))

    def test_scores_need_no_treatment_column(self):
        f = self.world()
        pm = fit_propensity(f, "t", ("x",))
        np.testing.assert_array_equal(pm.scores(f.drop("t")), pm.scores(f))

    def test_new_treatment_column_is_matched_again(self, monkeypatch):
        calls = self.counted_matching(monkeypatch)
        f = self.world()
        pm = fit_propensity(f, "t", ("x",))
        first = psm_att(f, "t", "y", pm).value
        t = f.column("t")
        h = f.with_column(Column("t", "binary", t.values))
        assert not pm.fitted_on(h, "t")
        assert pm.scores(h) is not pm.scores(f)
        assert psm_att(h, "t", "y", pm).value == first
        assert len(calls) == 2


class TestRegressionAdjustment:
    def test_pure_shift(self):
        t = np.array([0.0, 1.0, 0.0, 1.0])
        f = make_frame(t, 3.0 + 2.0 * t)
        est = regression_adjustment(f, "t", "y", ())
        assert est.value == pytest.approx(2.0, abs=1e-6)
        assert est.estimand == "ATE"
        assert (est.n_treated, est.n_control) == (2, 2)

    def test_null_effect(self):
        rng = make_rng(42)
        n = 2000
        t = (rng.uniform(size=n) < 0.5).astype(float)
        y = rng.standard_normal(n)
        est = regression_adjustment(make_frame(t, y), "t", "y", ())
        se = 2.0 / np.sqrt(n)  # ~sd(y)*sqrt(4/n)
        assert abs(est.value) < 3 * se

    def test_confounding_removed_by_adjustment(self):
        rng = make_rng(7)
        n = 4000
        x = rng.standard_normal(n)
        t = ((x + rng.standard_normal(n)) > 0).astype(float)
        y = x + t
        f = make_frame(t, y, x=x)
        adjusted = regression_adjustment(f, "t", "y", ("x",)).value
        naive = y[t == 1].mean() - y[t == 0].mean()
        assert adjusted == pytest.approx(1.0, abs=0.1)
        assert naive > 1.3

    def test_relabel_negates(self):
        rng = make_rng(3)
        n = 500
        x = rng.standard_normal(n)
        t = (rng.uniform(size=n) < 0.5).astype(float)
        y = x + 2 * t + rng.standard_normal(n)
        f = make_frame(t, y, x=x)
        g = make_frame(1 - t, y, x=x)
        assert regression_adjustment(g, "t", "y", ("x",)).value == pytest.approx(
            -regression_adjustment(f, "t", "y", ("x",)).value, abs=1e-9
        )


class ConstantPropensity(PropensityModel):
    """Propensity model with given scores, for hand-computable tests."""

    def __init__(self, scores):
        super().__init__(None, ())
        self._given = np.asarray(scores, dtype=float)

    def scores(self, f):
        return self._given[: f.n_rows]


class SameScores(PropensityModel):
    """Propensity model that hands out the very same array every call."""

    def __init__(self, e):
        super().__init__(None, ())
        self.e = e

    def scores(self, f):
        return self.e


class TestPsm:
    def test_nearest_neighbor(self):
        f = make_frame([1, 0, 0], [10.0, 1.0, 2.0])
        pm = ConstantPropensity([0.5, 0.4, 0.45])
        est = psm_att(f, "t", "y", pm)
        assert est.value == pytest.approx(10.0 - 2.0)
        assert est.estimand == "ATT"

    def test_scores_of_a_model_not_fitted_here_are_matched_on_every_call(self):
        f = make_frame([1, 0, 0], [10.0, 1.0, 2.0])
        pm = SameScores(np.array([0.5, 0.4, 0.45]))
        assert psm_att(f, "t", "y", pm).value == 8.0
        pm.e[1] = 0.49
        assert psm_att(f, "t", "y", pm).value == 9.0

    def test_tie_break_lowest_row_index(self):
        f = make_frame([1, 0, 0], [10.0, 1.0, 2.0])
        pm = ConstantPropensity([0.5, 0.45, 0.55])
        est = psm_att(f, "t", "y", pm)
        assert est.value == pytest.approx(10.0 - 1.0)

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("single_control", [False, True])
    def test_n_control_counts_distinct_matches(self, seed, single_control):
        # Scores rounded to 2 decimals tie heavily, so many treated rows share
        # a matched control; a single control takes every match.
        rng = make_rng(seed)
        n = 400
        t = (rng.uniform(size=n) < 0.5).astype(float)
        if single_control:
            t[:] = 1.0
            t[rng.integers(n)] = 0.0
        e = np.round(rng.uniform(0.05, 0.95, size=n), 2)
        est = psm_att(make_frame(t, rng.standard_normal(n)), "t", "y", ConstantPropensity(e))
        assert est.n_control == len(np.unique(_match_controls(e, t)))
        if single_control:
            assert est.n_control == 1

    def test_att_recovers_constant_effect(self):
        rng = make_rng(19)
        n = 4000
        x = rng.uniform(size=n)
        e = 0.3 + 0.4 * x
        t = (rng.uniform(size=n) < e).astype(float)
        tau = 1.5
        y = x * 2 + tau * t + rng.standard_normal(n) * 0.5
        f = make_frame(t, y, x=x)
        pm = fit_propensity(f, "t", ("x",))
        est = psm_att(f, "t", "y", pm)
        se = 2 * 0.5 / np.sqrt(t.sum())
        assert est.value == pytest.approx(tau, abs=max(2 * se, 0.08))


def _ulp_run(start, towards, count):
    """``count`` consecutive floats from ``start`` stepping towards ``towards``."""
    out = [start]
    for _ in range(count - 1):
        out.append(float(np.nextafter(out[-1], towards)))
    return out


# Clip bounds, their 1-ulp neighbours and runs of consecutive floats: from
# 0.9 or 0.95, up to 16 consecutive floats above 0.05 share one computed
# distance, so rounding ties between distinct scores are common here.
SCORE_GRID = sorted(set(
    _ulp_run(0.05, 1.0, 20)
    + _ulp_run(0.95, 0.0, 4)
    + [float(np.nextafter(0.05, 0.0)), float(np.nextafter(0.95, 1.0))]
    + [0.1, 0.3, 0.45, 0.5, float(np.nextafter(0.5, 1.0)), 0.55, 0.7, 0.9]
))
grid_scores = st.sampled_from(SCORE_GRID)


def _assert_matches_oracle(e_t, e_c, shuffle):
    """Put treated and control scores in rows permuted by ``shuffle``, then
    compare the matcher's rows with the oracle's."""
    e = np.array([*e_t, *e_c])
    tv = np.r_[np.ones(len(e_t)), np.zeros(len(e_c))]
    rows = np.random.default_rng(shuffle).permutation(len(e))
    e, tv = e[rows], tv[rows]
    np.testing.assert_array_equal(_match_controls(e, tv), psm_match_bruteforce(e, tv))


shuffles = st.integers(0, 2**32 - 1)


class TestPsmMatching:
    """The sorted-search matcher against per-treated scans of every control."""

    @settings(max_examples=300, deadline=None)
    @given(
        e_t=st.lists(grid_scores, min_size=1, max_size=25),
        e_c=st.lists(grid_scores, min_size=1, max_size=25),
        shuffle=shuffles,
    )
    def test_grid_scores(self, e_t, e_c, shuffle):
        _assert_matches_oracle(e_t, e_c, shuffle)

    @settings(max_examples=100, deadline=None)
    @given(
        e_c=st.lists(grid_scores, min_size=1, max_size=25),
        pick=st.lists(st.integers(0, 24), min_size=1, max_size=10),
        shuffle=shuffles,
    )
    def test_treated_equal_to_a_control(self, e_c, pick, shuffle):
        e_t = [e_c[i % len(e_c)] for i in pick]
        _assert_matches_oracle(e_t, e_c, shuffle)

    @settings(max_examples=100, deadline=None)
    @given(
        e_t=st.lists(st.sampled_from(SCORE_GRID[:3] + SCORE_GRID[-3:]), min_size=1, max_size=10),
        e_c=st.lists(st.sampled_from(SCORE_GRID[3:-3]), min_size=1, max_size=25),
        shuffle=shuffles,
    )
    def test_treated_outside_every_control(self, e_t, e_c, shuffle):
        _assert_matches_oracle(e_t, e_c, shuffle)

    @settings(max_examples=100, deadline=None)
    @given(
        e_t=st.lists(grid_scores, min_size=1, max_size=25),
        e_c=grid_scores,
        shuffle=shuffles,
    )
    def test_one_control(self, e_t, e_c, shuffle):
        _assert_matches_oracle(e_t, [e_c], shuffle)

    @settings(max_examples=100, deadline=None)
    @given(
        e_t=grid_scores,
        e_c=st.lists(grid_scores, min_size=1, max_size=25),
        shuffle=shuffles,
    )
    def test_one_treated(self, e_t, e_c, shuffle):
        _assert_matches_oracle([e_t], e_c, shuffle)

    @settings(max_examples=200, deadline=None)
    @given(
        e_t=st.lists(grid_scores, min_size=1, max_size=15),
        runs=st.lists(st.tuples(grid_scores, st.integers(4, 16)), min_size=2, max_size=5,
                      unique_by=lambda run: run[0]),
        shuffle=shuffles,
    )
    def test_runs_of_equal_control_scores(self, e_t, runs, shuffle):
        # each run's lowest row must win whatever order the sort leaves it in
        e_c = [score for score, size in runs for _ in range(size)]
        _assert_matches_oracle(e_t, e_c, shuffle)

    @settings(max_examples=100, deadline=None)
    @given(
        e_t=st.lists(grid_scores, min_size=1, max_size=15),
        e_c=grid_scores,
        size=st.integers(2, 40),
        shuffle=shuffles,
    )
    def test_all_controls_equal(self, e_t, e_c, size, shuffle):
        _assert_matches_oracle(e_t, [e_c] * size, shuffle)

    def test_rounding_tie_goes_to_lowest_row(self):
        # Four distinct controls one ulp apart, all at the same computed
        # distance from the treated score: the lowest row wins whether it
        # holds the nearest score or the farthest.
        e_c = _ulp_run(0.05, 1.0, 4)[::-1]
        e = np.array([0.9, *e_c])
        tv = np.array([1.0, 0.0, 0.0, 0.0, 0.0])
        assert len({abs(0.9 - c) for c in e_c}) == 1
        assert _match_controls(e, tv).tolist() == [1]
        assert _match_controls(e[::-1], tv[::-1]).tolist() == [0]

    def test_synthetic_fit_matches_chunked(self):
        ss = generate(n=10000, seed=1)
        f = ss.to_frame()
        e = fit_propensity(f, "w", ss.feature_names).scores(f)
        tv = f.binary_vector("w")
        np.testing.assert_array_equal(_match_controls(e, tv), psm_match_chunked(e, tv))

    def test_large_frame_is_not_quadratic(self):
        # About 1e10 treated x control pairs: the former chunked matcher took
        # 65 s here on a 2-core host, the sorted search 0.09 s.
        rng = make_rng(4)
        n = 200_000
        t = (rng.uniform(size=n) < 0.5).astype(float)
        e = np.clip(rng.uniform(size=n), 0.05, 0.95)
        assert 0.08 < np.mean((e == 0.05) | (e == 0.95)) < 0.12
        f = make_frame(t, rng.standard_normal(n))
        start = time.perf_counter()
        est = psm_att(f, "t", "y", ConstantPropensity(e))
        assert time.perf_counter() - start < 10.0
        assert est.n_treated == int(t.sum())


class TestIpw:
    def test_hand_computation(self):
        f = make_frame([1, 0], [3.0, 1.0])
        est = ipw_ate(f, "t", "y", ConstantPropensity([0.5, 0.5]))
        assert est.value == 2.0

    def test_all_zero_outcomes(self):
        f = make_frame([1, 0, 1], [0.0, 0.0, 0.0])
        assert ipw_ate(f, "t", "y", ConstantPropensity([0.5] * 3)).value == 0.0

    def test_algebraic_oracle_at_half(self):
        rng = make_rng(55)
        n = 501  # deliberately unbalanced-able
        t = (rng.uniform(size=n) < 0.5).astype(float)
        y = rng.standard_normal(n) + t
        f = make_frame(t, y)
        est = ipw_ate(f, "t", "y", ConstantPropensity(np.full(n, 0.5)))
        oracle = 2.0 * np.mean(t * y) - 2.0 * np.mean((1 - t) * y)
        assert est.value == oracle

    def test_balanced_equals_diff_in_means(self):
        rng = make_rng(56)
        n = 400
        t = np.array([1.0, 0.0] * (n // 2))
        y = rng.standard_normal(n) + 2 * t
        f = make_frame(t, y)
        est = ipw_ate(f, "t", "y", ConstantPropensity(np.full(n, 0.5)))
        diff = y[t == 1].mean() - y[t == 0].mean()
        assert abs(est.value - diff) <= 1e-12


class TestStratified:
    def test_single_stratum_is_diff_of_means(self):
        rng = make_rng(60)
        n = 200
        t = (rng.uniform(size=n) < 0.5).astype(float)
        y = rng.standard_normal(n) + t
        f = make_frame(t, y)
        est = stratified_ate(f, "t", "y", ConstantPropensity(rng.uniform(0.2, 0.8, n)), k=1)
        assert est.value == pytest.approx(y[t == 1].mean() - y[t == 0].mean(), abs=1e-12)

    def test_single_arm_stratum_dropped(self):
        # scores put the only treated units in the upper stratum
        t = np.array([0.0, 0.0, 0.0, 0.0, 1.0, 0.0])
        y = np.array([1.0, 2.0, 3.0, 4.0, 10.0, 6.0])
        scores = np.array([0.1, 0.1, 0.1, 0.1, 0.9, 0.9])
        f = make_frame(t, y)
        est = stratified_ate(f, "t", "y", ConstantPropensity(scores), k=2)
        # lower stratum has no treated -> dropped; upper: 10 - 6 = 4
        assert est.value == pytest.approx(4.0)
        assert est.n_treated == 1 and est.n_control == 1

    def test_no_valid_strata(self):
        t = np.array([1.0, 0.0])
        y = np.array([1.0, 0.0])
        scores = np.array([0.9, 0.1])
        f = make_frame(t, y)
        with pytest.raises(NoValidStrataError):
            stratified_ate(f, "t", "y", ConstantPropensity(scores), k=2)

    @pytest.mark.parametrize("k", [2, 5, 10])
    def test_recovers_constant_effect(self, k):
        rng = make_rng(61)
        n = 5000
        x = rng.uniform(size=n)
        e = np.clip(0.2 + 0.6 * x, 0.05, 0.95)
        t = (rng.uniform(size=n) < e).astype(float)
        tau = 0.8
        y = tau * t + rng.standard_normal(n) * 0.5
        f = make_frame(t, y, x=x)
        pm = fit_propensity(f, "t", ("x",))
        est = stratified_ate(f, "t", "y", pm, k=k)
        assert est.value == pytest.approx(tau, abs=0.08)


class TestSharedInvariants:
    def setup_method(self):
        rng = make_rng(70)
        n = 600
        x = rng.standard_normal(n)
        self.t = (rng.uniform(size=n) < 0.5).astype(float)
        self.y = x + 1.5 * self.t + rng.standard_normal(n)
        self.x = x

    def estimates(self, y):
        f = make_frame(self.t, y, x=self.x)
        pm = fit_propensity(f, "t", ("x",))
        return [
            regression_adjustment(f, "t", "y", ("x",)).value,
            psm_att(f, "t", "y", pm).value,
            ipw_ate(f, "t", "y", pm).value,
            stratified_ate(f, "t", "y", pm).value,
        ]

    def test_scaling_outcome_scales_effects(self):
        base = self.estimates(self.y)
        scaled = self.estimates(self.y * 3.5)
        assert scaled == pytest.approx([3.5 * v for v in base], rel=1e-9)

    def test_shift_invariance_for_difference_estimators(self):
        base = self.estimates(self.y)
        shifted = self.estimates(self.y + 100.0)
        # regression, psm and stratification are exact differences
        assert shifted[0] == pytest.approx(base[0], abs=1e-6)
        assert shifted[1] == pytest.approx(base[1], abs=1e-9)
        assert shifted[3] == pytest.approx(base[3], abs=1e-9)
        # Horvitz-Thompson IPW is shift-invariant only when the weighted arm
        # masses match; with estimated scores it moves by c * (imbalance).
        tv = self.t
        f = make_frame(tv, self.y, x=self.x)
        pm = fit_propensity(f, "t", ("x",))
        e = pm.scores(f)
        imbalance = np.mean(tv / e) - np.mean((1 - tv) / (1 - e))
        assert shifted[2] - base[2] == pytest.approx(100.0 * imbalance, rel=1e-6)
