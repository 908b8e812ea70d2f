import numpy as np
import pytest

from causet.errors import InvalidDimensionError
from causet.rng import make_rng
from causet.synth import generate


class TestGenerate:
    def test_shapes(self):
        ss = generate(n=10000, p=5, seed=0)
        assert ss.X.shape == (10000, 5)
        for v in (ss.w, ss.y, ss.tau_true, ss.e_true, ss.b_true):
            assert v.shape == (10000,)

    def test_extra_features_are_noise(self):
        a = generate(n=50, p=5, seed=4)
        b = generate(n=50, p=8, seed=4)
        assert b.X.shape == (50, 8)
        # the structural pieces depend on the first five columns only
        assert np.array_equal(
            b.b_true,
            np.sin(np.pi * b.X[:, 0] * b.X[:, 1])
            + 2 * (b.X[:, 2] - 0.5) ** 2 + b.X[:, 3] + 0.5 * b.X[:, 4],
        )

    def test_p_too_small(self):
        with pytest.raises(InvalidDimensionError):
            generate(n=10, p=4, seed=0)
        with pytest.raises(InvalidDimensionError):
            generate(n=0, p=5, seed=0)

    def test_noiseless_decomposition(self):
        ss = generate(n=500, sigma=0.0, seed=9)
        assert np.array_equal(ss.y, ss.b_true + (ss.w - 0.5) * ss.tau_true)

    def test_noise_is_the_last_draw(self):
        # Criterion 1 splits the T-learner's ATE error using a sigma=0 twin,
        # which is only valid while sigma scales one shared final noise draw.
        noisy = generate(n=400, sigma=1.0, seed=29)
        twin = generate(n=400, sigma=0.0, seed=29)
        for name in ("X", "w", "tau_true", "e_true", "b_true"):
            assert np.array_equal(getattr(noisy, name), getattr(twin, name)), name
        rng = make_rng(29)
        rng.uniform(size=(400, 5))  # covariates
        rng.uniform(size=400)  # treatment
        noise = rng.standard_normal(400)
        assert np.array_equal(noisy.y, twin.y + noise)

    def test_structural_formulas(self):
        ss = generate(n=200, seed=11)
        s = np.sin(np.pi * ss.X[:, 0] * ss.X[:, 1])
        assert np.array_equal(ss.e_true, np.clip(s, 0.1, 0.9))
        assert np.array_equal(ss.tau_true, (ss.X[:, 0] + ss.X[:, 1]) / 2.0)

    def test_mean_tau_near_half(self):
        ss = generate(n=10000, seed=13)
        assert ss.tau_true.mean() == pytest.approx(0.5, abs=0.01)

    def test_seed_determinism(self):
        a = generate(n=300, seed=21)
        b = generate(n=300, seed=21)
        c = generate(n=300, seed=22)
        assert np.array_equal(a.X, b.X) and np.array_equal(a.y, b.y)
        assert not np.array_equal(a.X, c.X)

    def test_equality_is_identity(self):
        a, b = generate(n=30, seed=21), generate(n=30, seed=21)
        assert a == a and a != b and a not in [b]

    def test_propensity_clipped(self):
        ss = generate(n=5000, seed=17)
        assert ss.e_true.min() >= 0.1 and ss.e_true.max() <= 0.9

    def test_treated_fraction_tracks_propensity(self):
        ss = generate(n=10000, seed=19)
        expected = ss.e_true.mean()
        sd = np.sqrt(expected * (1 - expected) / ss.n)
        assert abs(ss.w.mean() - expected) < 3 * sd

    def test_to_frame_layout(self):
        ss = generate(n=20, p=6, seed=23)
        f = ss.to_frame()
        assert f.names == ("x0", "x1", "x2", "x3", "x4", "x5",
                           "w", "y", "tau_true", "e_true", "b_true")
        assert f.kind("w") == "binary"
        assert np.array_equal(f.values("y"), ss.y)
