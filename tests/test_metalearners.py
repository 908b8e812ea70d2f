from dataclasses import replace

import numpy as np
import pytest

from causet.errors import SingleClassError
from causet.estimators import PropensityModel, fit_propensity
from causet.frame import Column, Frame, write_csv
from causet.learners import LearnerSpec
from causet.metalearners import r_learner, s_learner, t_learner, x_learner
from causet.pipeline import QuerySpec, run_query
from causet.rng import make_rng
from causet.synth import generate

LINEAR = LearnerSpec("linear")
GBT_SMALL = LearnerSpec("gbt", min_leaf=1, leaf_penalty=0.0)


def make_frame(t, y, **covs):
    data = {"t": np.asarray(t, dtype=float), "y": np.asarray(y, dtype=float)}
    data.update({k: np.asarray(v, dtype=float) for k, v in covs.items()})
    kinds = {"t": "binary", "y": "numeric"}
    kinds.update({k: "numeric" for k in covs})
    return Frame.from_dict(data, kinds)


class ConstantPropensity(PropensityModel):
    def __init__(self, p):
        super().__init__(None, ())
        self.p = p

    def scores(self, f):
        return np.full(f.n_rows, self.p)


def balanced_world(n=80, tau=2.0, seed=1):
    """x duplicated across arms so in-sample fits are exact."""
    rng = make_rng(seed)
    x = rng.uniform(size=n // 2)
    xs = np.concatenate([x, x])
    t = np.concatenate([np.ones(n // 2), np.zeros(n // 2)])
    y = 3.0 * xs + tau * t
    return make_frame(t, y, x=xs)


class TestSLearner:
    def test_additive_shift(self):
        t = np.array([0.0, 1.0] * 10)
        f = make_frame(t, 3.0 + 2.0 * t)
        cate = s_learner(f, "t", "y", (), LINEAR)
        assert cate.ite == pytest.approx(np.full(20, 2.0), abs=1e-6)
        assert cate.ate == pytest.approx(2.0, abs=1e-6)

    def test_null_treatment(self):
        rng = make_rng(2)
        n = 400
        x = rng.standard_normal(n)
        t = (rng.uniform(size=n) < 0.5).astype(float)
        y = x * 2.0  # treatment has zero coefficient
        cate = s_learner(make_frame(t, y, x=x), "t", "y", ("x",), LINEAR)
        assert np.abs(cate.ite).max() < 1e-8

    def test_single_class(self):
        f = make_frame(np.ones(4), np.ones(4))
        with pytest.raises(SingleClassError):
            s_learner(f, "t", "y", (), LINEAR)

    def test_equality_is_identity(self):
        t = np.array([0.0, 1.0] * 10)
        f = make_frame(t, 3.0 + 2.0 * t)
        a, b = s_learner(f, "t", "y", (), LINEAR), s_learner(f, "t", "y", (), LINEAR)
        assert a == a and a != b and a not in [b]
        assert replace(a, ate=0.0).ite is a.ite


class TestTLearner:
    def test_constant_arms(self):
        t = np.array([1.0, 0.0, 1.0, 0.0])
        y = np.where(t == 1.0, 5.0, 2.0)
        for base in (LINEAR, GBT_SMALL):
            cate = t_learner(make_frame(t, y), "t", "y", (), base)
            assert cate.ite == pytest.approx(np.full(4, 3.0), abs=1e-9)

    def test_identical_arms_null(self):
        rng = make_rng(3)
        x = rng.uniform(size=100)
        t = np.concatenate([np.ones(50), np.zeros(50)])
        xs = np.concatenate([x[:50], x[:50]])
        y = np.concatenate([x[:50] * 2, x[:50] * 2])
        cate = t_learner(make_frame(t, y, x=xs), "t", "y", ("x",), LINEAR)
        assert np.abs(cate.ite).max() < 1e-9

    def test_out_of_sample_prediction(self):
        f = balanced_world(tau=2.0)
        cate = t_learner(f, "t", "y", ("x",), LINEAR)
        g = make_frame([1, 0], [0.0, 0.0], x=[0.25, 0.75])
        assert cate.predict_ite(g) == pytest.approx([2.0, 2.0], abs=1e-6)


class TestXLearner:
    def test_symmetric_blend_at_half(self):
        f = balanced_world(tau=1.5, seed=5)
        pm = ConstantPropensity(0.5)
        cate = x_learner(f, "t", "y", ("x",), LINEAR, pm)
        X = f.numeric_matrix(("x",))
        manual = 0.5 * cate.models["tau0"].predict(X) + 0.5 * cate.models["tau1"].predict(X)
        assert np.array_equal(cate.ite, manual)

    def test_exact_linear_constant_effect(self):
        f = balanced_world(tau=1.5, seed=6)
        pm = fit_propensity(f, "t", ("x",))
        cate = x_learner(f, "t", "y", ("x",), LINEAR, pm)
        assert cate.ite == pytest.approx(np.full(f.n_rows, 1.5), abs=1e-6)


class TestXLearnerStage1:
    """X's stage 1 is the T-learner's pair of arm models."""

    @staticmethod
    def world():
        f = generate(n=600, sigma=1.0, seed=31).to_frame()
        z = ("x0", "x1", "x2", "x3", "x4")
        return f, z, fit_propensity(f, "w", z)

    @pytest.mark.parametrize("base", [LINEAR, LearnerSpec("gbt", max_iterations=20)])
    def test_shared_stage1_equals_standalone(self, base):
        f, z, pm = self.world()
        alone = x_learner(f, "w", "y", z, base, pm)
        stage1 = t_learner(f, "w", "y", z, base)
        shared = x_learner(f, "w", "y", z, base, pm, stage1)
        assert shared.models["mu1"] is stage1.models["mu1"]
        assert shared.models["mu0"] is stage1.models["mu0"]
        assert shared.ite.tobytes() == alone.ite.tobytes()
        assert shared.ate == alone.ate
        g = generate(n=50, sigma=1.0, seed=32).to_frame()
        assert shared.predict_ite(g).tobytes() == alone.predict_ite(g).tobytes()

    def test_rejects_foreign_stage1(self):
        f, z, pm = self.world()
        gbt = LearnerSpec("gbt", max_iterations=5)
        foreign = {
            "another learner": s_learner(f, "w", "y", z, LINEAR),
            "another base": t_learner(f, "w", "y", z, gbt),
            "another feature set": t_learner(f, "w", "y", z[:3], LINEAR),
        }
        for why, stage1 in foreign.items():
            with pytest.raises(ValueError, match="stage 1"):
                x_learner(f, "w", "y", z, LINEAR, pm, stage1)

    def test_order_of_t_and_x_in_a_query_does_not_matter(self, tmp_path):
        f = generate(n=400, sigma=1.0, seed=33).to_frame()
        for name in ("tau_true", "e_true", "b_true"):
            f = f.drop(name)
        write_csv(f, tmp_path / "data.csv")
        edges = "".join(f"x{i} -> w; x{i} -> y\n" for i in range(5))
        (tmp_path / "model.graph").write_text(
            edges + "w -> y\n@treatment w\n@outcome y\n", encoding="utf-8"
        )

        def effects(*combos):
            spec = QuerySpec(
                data=str(tmp_path / "data.csv"),
                graph=str(tmp_path / "model.graph"),
                treatment="w",
                outcome="y",
                estimators=(),
                metalearners=combos,
            )
            return {r["method"]: r for r in run_query(spec)["effects"]}

        x_first = effects(("X", "gbt"), ("T", "linear"), ("T", "gbt"))
        t_first = effects(("T", "gbt"), ("X", "gbt"), ("T", "linear"))
        assert x_first == t_first
        for method, row in x_first.items():
            assert effects(tuple(method.split(":"))) == {method: row}


class TestRLearner:
    def test_oracle_nuisance_constant_effect(self):
        f = balanced_world(tau=2.5, seed=7)
        pm = fit_propensity(f, "t", ())  # balanced arms -> e = 0.5 exactly
        cate = r_learner(f, "t", "y", ("x",), LINEAR, pm)
        assert cate.ite == pytest.approx(np.full(f.n_rows, 2.5), abs=1e-6)

    def test_null_when_outcome_ignores_treatment(self):
        rng = make_rng(9)
        n = 1000
        x = rng.uniform(size=n)
        t = (rng.uniform(size=n) < 0.5).astype(float)
        y = np.sin(x * 3) + rng.standard_normal(n) * 0.1
        f = make_frame(t, y, x=x)
        pm = fit_propensity(f, "t", ("x",))
        cate = r_learner(f, "t", "y", ("x",), LINEAR, pm)
        assert abs(cate.ate) < 0.05

    def test_weighted_loss_minimizer(self):
        rng = make_rng(10)
        n = 500
        x = rng.uniform(size=n)
        t = (rng.uniform(size=n) < 0.5).astype(float)
        y = x + (0.5 + x) * t + rng.standard_normal(n) * 0.2
        f = make_frame(t, y, x=x)
        pm = fit_propensity(f, "t", ("x",))
        cate = r_learner(f, "t", "y", ("x",), LINEAR, pm)

        m = cate.models["m"]
        X = f.numeric_matrix(("x",))
        y_res = y - m.predict(X)
        t_res = t - pm.scores(f)
        pseudo = y_res / t_res
        weights = t_res**2

        def loss(tau_vec):
            return float(np.sum(weights * (pseudo - tau_vec) ** 2))

        fitted_loss = loss(cate.ite)
        assert fitted_loss <= loss(np.full(n, cate.ate)) + 1e-9
        assert fitted_loss <= loss(np.zeros(n)) + 1e-9


class TestSharedInvariants:
    def fit_all(self, f, pm):
        return {
            "S": s_learner(f, "t", "y", ("x",), LINEAR),
            "T": t_learner(f, "t", "y", ("x",), LINEAR),
            "X": x_learner(f, "t", "y", ("x",), LINEAR, pm),
            "R": r_learner(f, "t", "y", ("x",), LINEAR, pm),
        }

    def test_ate_is_mean_ite(self):
        rng = make_rng(20)
        n = 300
        x = rng.uniform(size=n)
        t = (rng.uniform(size=n) < 0.5).astype(float)
        y = x + (1 + x) * t + rng.standard_normal(n) * 0.3
        f = make_frame(t, y, x=x)
        pm = fit_propensity(f, "t", ("x",))
        gbt = LearnerSpec("gbt", min_leaf=5)
        models = list(self.fit_all(f, pm).values()) + [
            t_learner(f, "t", "y", ("x",), gbt),
            s_learner(f, "t", "y", ("x",), gbt),
        ]
        for cate in models:
            assert cate.ate == float(np.mean(cate.ite))

    def test_swapping_arms_negates_ite(self):
        rng = make_rng(21)
        n = 400
        x = rng.uniform(size=n)
        t = (rng.uniform(size=n) < 0.5).astype(float)
        y = x + (0.5 + 2 * x) * t + rng.standard_normal(n) * 0.2
        f = make_frame(t, y, x=x)
        g = make_frame(1 - t, y, x=x)

        pm_f = ConstantPropensity(0.4)
        pm_g = ConstantPropensity(0.6)
        swapped = {
            "S": (s_learner(f, "t", "y", ("x",), LINEAR), s_learner(g, "t", "y", ("x",), LINEAR)),
            "T": (t_learner(f, "t", "y", ("x",), LINEAR), t_learner(g, "t", "y", ("x",), LINEAR)),
            "X": (
                x_learner(f, "t", "y", ("x",), LINEAR, pm_f),
                x_learner(g, "t", "y", ("x",), LINEAR, pm_g),
            ),
            "R": (
                r_learner(f, "t", "y", ("x",), LINEAR, pm_f),
                r_learner(g, "t", "y", ("x",), LINEAR, pm_g),
            ),
        }
        for name, (orig, flipped) in swapped.items():
            assert flipped.ite == pytest.approx(-orig.ite, rel=1e-6, abs=1e-8), name

    def test_outcome_shift_leaves_ite_unchanged(self):
        rng = make_rng(22)
        n = 400
        x = rng.uniform(size=n)
        t = (rng.uniform(size=n) < 0.5).astype(float)
        y = x + (0.5 + x) * t + rng.standard_normal(n) * 0.2
        f = make_frame(t, y, x=x)
        g = make_frame(t, y + 50.0, x=x)
        pm = fit_propensity(f, "t", ("x",))
        base = self.fit_all(f, pm)
        shifted = self.fit_all(g, pm)
        for name in base:
            assert shifted[name].ite == pytest.approx(base[name].ite, rel=1e-6, abs=1e-7), name

    def test_constant_effect_recovered_by_all(self):
        f = balanced_world(n=120, tau=1.25, seed=23)
        pm = fit_propensity(f, "t", ())
        for name, cate in self.fit_all(f, pm).items():
            assert cate.ite == pytest.approx(np.full(120, 1.25), abs=1e-6), name

    def test_ite_is_predict_ite_on_the_fitting_frame(self):
        # predict_ite and the in-sample ite share one effect function per
        # learner, so on the fitting frame they agree bit for bit.
        # The gbt fits read their training predictions in sample and predict
        # out of sample; the last case's X mixes tied and tie-free columns.
        dataset = generate(n=300, sigma=1.0, seed=31)
        f, z = dataset.to_frame(), dataset.feature_names
        tied = f.with_column(Column(z[0], "numeric", np.round(3.0 * f.values(z[0]))))
        gbt = LearnerSpec("gbt", max_iterations=5)
        for frame, base in ((f, LINEAR), (f, gbt), (tied, gbt)):
            pm = fit_propensity(frame, "w", z)
            fits = {
                "S": s_learner(frame, "w", "y", z, base),
                "T": t_learner(frame, "w", "y", z, base),
                "X": x_learner(frame, "w", "y", z, base, pm),
                "R": r_learner(frame, "w", "y", z, base, pm),
            }
            for name, cate in fits.items():
                assert cate.predict_ite(frame).tobytes() == cate.ite.tobytes(), (name, base.kind)
