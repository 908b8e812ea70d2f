import numpy as np
import pytest

from causet.errors import DimensionMismatchError
from causet.evaluation import (
    kl_divergence,
    mse,
    prediction_scatter,
    uplift_curve_true,
)
from causet.rng import make_rng

from oracles import mse_loop


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

    def test_equality_is_identity(self):
        tau = np.array([1.0, 0.5])
        a, b = uplift_curve_true(tau, tau), uplift_curve_true(tau, tau)
        assert a == a and a != b and a not in [b]


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
