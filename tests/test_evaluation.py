import numpy as np
import pytest

from causet.errors import DimensionMismatchError, SingleClassError
from causet.evaluation import (
    kl_divergence,
    mse,
    prediction_scatter,
    uplift_curve,
    uplift_curve_true,
)
from causet.rng import make_rng
from causet.synth import generate

from oracles import mse_loop, uplift_gains_bruteforce


class TestMse:
    def test_identical(self):
        assert mse([1.0, 2.0], [1.0, 2.0]) == 0.0

    def test_unit_offset(self):
        assert mse([2.0, 3.0], [1.0, 2.0]) == 1.0

    def test_matches_loop_oracle(self):
        rng = make_rng(1)
        for _ in range(20):
            n = int(rng.integers(1, 200))
            a = rng.standard_normal(n)
            b = rng.standard_normal(n)
            assert mse(a, b) == pytest.approx(mse_loop(a, b), abs=1e-12)

    def test_symmetry(self):
        rng = make_rng(2)
        a, b = rng.standard_normal(50), rng.standard_normal(50)
        assert mse(a, b) == mse(b, a)

    def test_length_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            mse([1.0], [1.0, 2.0])


class TestKlDivergence:
    def test_identical_samples(self):
        rng = make_rng(3)
        x = rng.standard_normal(500)
        assert kl_divergence(x, x) < 1e-6

    def test_two_bin_closed_form(self):
        # masses (0.5, 0.5) vs (0.25, 0.75) over two bins
        p = np.array([0.0, 0.0, 1.0, 1.0])
        q = np.array([0.0, 1.0, 1.0, 1.0])
        expected = 0.5 * np.log(2.0) + 0.5 * np.log(2.0 / 3.0)
        assert kl_divergence(p, q, bins=2) == pytest.approx(expected, abs=1e-6)
        assert expected == pytest.approx(0.1438, abs=1e-4)

    def test_degenerate_range_returns_zero(self):
        assert kl_divergence([2.0, 2.0], [2.0, 2.0, 2.0]) == 0.0

    def test_non_negative(self):
        rng = make_rng(4)
        for _ in range(25):
            p = rng.standard_normal(int(rng.integers(1, 300)))
            q = rng.standard_normal(int(rng.integers(1, 300))) * rng.uniform(0.5, 2)
            assert kl_divergence(p, q) >= 0.0

    def test_point_mass_outside_support_is_huge(self):
        # a constant predictor far from the sample scores heavily
        truth = np.linspace(0, 1, 1000)
        pred = np.full(1000, 0.5)
        assert kl_divergence(truth, pred) > np.log(1e6)


class TestUpliftCurve:
    def test_worked_example(self):
        w = [1, 0, 1, 0]
        y = [2.0, 0.0, 1.0, 1.0]
        pred = [4.0, 3.0, 2.0, 1.0]
        curve = uplift_curve(pred, w, y)
        # hand computation: prefix treated/control means
        assert curve.gains.tolist() == [0.0, 4.0, 4.5, 4.0]
        assert curve.fractions.tolist() == [0.25, 0.5, 0.75, 1.0]
        assert curve.auuc == pytest.approx(0.65625)

    def test_matches_bruteforce_prefix_oracle(self):
        rng = make_rng(5)
        for _ in range(30):
            n = int(rng.integers(2, 80))
            w = (rng.uniform(size=n) < 0.5).astype(float)
            if w.min() == w.max():
                continue
            y = rng.standard_normal(n)
            pred = np.round(rng.standard_normal(n), 1)  # coarse -> ties exercised
            curve = uplift_curve(pred, w, y)
            assert curve.gains == pytest.approx(
                np.array(uplift_gains_bruteforce(pred, w, y)), abs=1e-10
            )

    def test_constant_outcome_zero_gain(self):
        w = np.array([1.0, 0.0, 1.0, 0.0, 1.0, 0.0])
        y = np.full(6, 3.0)
        curve = uplift_curve(np.arange(6.0)[::-1], w, y)
        assert np.abs(curve.gains[1:]).max() < 1e-12

    def test_final_gain_is_overall_difference(self):
        rng = make_rng(6)
        n = 200
        w = (rng.uniform(size=n) < 0.4).astype(float)
        y = rng.standard_normal(n)
        curve = uplift_curve(rng.standard_normal(n), w, y)
        expected = (y[w == 1].mean() - y[w == 0].mean()) * n
        assert curve.gains[-1] == pytest.approx(expected, abs=1e-9)

    def test_monotone_transform_invariance(self):
        rng = make_rng(7)
        n = 100
        w = (rng.uniform(size=n) < 0.5).astype(float)
        y = rng.standard_normal(n)
        pred = rng.standard_normal(n)
        a = uplift_curve(pred, w, y)
        b = uplift_curve(np.exp(3 * pred), w, y)
        assert a.auuc == b.auuc
        assert np.array_equal(a.gains, b.gains)

    def test_single_arm_rejected(self):
        with pytest.raises(SingleClassError):
            uplift_curve([1.0, 2.0], [1, 1], [0.0, 0.0])

    def test_oracle_beats_random_on_randomized_arms(self):
        # unconfounded assignment: the true-effect ordering should win
        wins = 0
        for seed in range(10):
            ss = generate(n=2000, sigma=1.0, seed=seed)
            rng = make_rng(900 + seed)
            w = (rng.uniform(size=ss.n) < 0.5).astype(float)
            y = ss.b_true + (w - 0.5) * ss.tau_true + rng.standard_normal(ss.n)
            auuc_oracle = uplift_curve(ss.tau_true, w, y).auuc
            auuc_rand = uplift_curve(rng.standard_normal(ss.n), w, y).auuc
            wins += auuc_oracle > auuc_rand
        assert wins >= 9


class TestUpliftCurveTrue:
    def test_oracle_ordering_dominates_everywhere(self):
        rng = make_rng(8)
        tau = rng.uniform(size=300)
        oracle = uplift_curve_true(tau, tau)
        other = uplift_curve_true(rng.standard_normal(300), tau)
        assert np.all(oracle.gains >= other.gains - 1e-12)
        assert oracle.auuc > other.auuc

    def test_total_gain_is_sum_of_effects(self):
        rng = make_rng(9)
        tau = rng.uniform(size=50)
        curve = uplift_curve_true(rng.standard_normal(50), tau)
        assert curve.gains[-1] == pytest.approx(tau.sum())

    def test_constant_predictions_score_the_diagonal(self):
        rng = make_rng(12)
        n = 200
        tau = rng.uniform(size=n)
        m = tau.mean()
        for c in (0.0, 5.0):
            curve = uplift_curve_true(np.full(n, c), tau)
            assert np.allclose(curve.gains, m * np.arange(1, n + 1))
            assert curve.auuc == pytest.approx(m * (n**2 - 1) / (2 * n**2))

    def test_tied_blocks_average(self):
        pred = np.array([2.0, 1.0, 1.0, 0.0])
        tau = np.array([1.0, 0.8, 0.2, 0.4])
        curve = uplift_curve_true(pred, tau)
        assert curve.gains.tolist() == [1.0, 1.5, 2.0, 2.4]


class TestPredictionScatter:
    def test_perfect_model(self):
        rng = make_rng(10)
        tau = rng.uniform(size=100)
        fit = prediction_scatter(tau, tau)
        assert fit.slope == pytest.approx(1.0, abs=1e-12)
        assert fit.intercept == pytest.approx(0.0, abs=1e-12)

    def test_constant_predictor(self):
        rng = make_rng(11)
        tau = rng.uniform(size=100)
        fit = prediction_scatter(np.full(100, tau.mean()), tau)
        assert fit.slope == pytest.approx(0.0, abs=1e-12)
