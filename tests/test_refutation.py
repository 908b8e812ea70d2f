import dataclasses
import hashlib
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import simulate_confounder_all_rows
from scipy import stats

from causet import refutation
from causet.estimators import fit_propensity, ipw_ate, regression_adjustment
from causet.frame import Frame
from causet.graph import backdoor_sets, parse_graph
from causet.refutation import (
    EstimationTask,
    _normal_tail_p,
    _simulate_confounder,
    refute_placebo,
    refute_random_common_cause,
    refute_subset,
    refute_unobserved_confounder,
)
from causet.rng import derive_seed, make_rng
from causet.synth import generate

SAMPLE_QUERIES = Path(__file__).parent.parent / "sample_queries"


def make_frame(t, y, **covs):
    data = {"t": np.asarray(t, dtype=float), "y": np.asarray(y, dtype=float)}
    data.update({k: np.asarray(v, dtype=float) for k, v in covs.items()})
    kinds = {"t": "binary", "y": "numeric"}
    kinds.update({k: "numeric" for k in covs})
    return Frame.from_dict(data, kinds)


def regression_task(z=("x",)):
    return EstimationTask(
        estimate=lambda f, zz: regression_adjustment(f, "t", "y", zz).value,
        treatment="t",
        outcome="y",
        adjustment=tuple(z),
    )


def sample_frame(seed=0, n=800, tau=1.0):
    rng = make_rng(seed)
    x = rng.standard_normal(n)
    t = ((x + rng.standard_normal(n)) > 0).astype(float)
    y = x + tau * t + rng.standard_normal(n) * 0.5
    return make_frame(t, y, x=x)


class TestRandomCommonCause:
    def test_covariate_blind_estimator_is_invariant(self):
        f = sample_frame(1)
        task = EstimationTask(
            estimate=lambda fr, z: float(
                fr.values("y")[fr.values("t") == 1].mean()
                - fr.values("y")[fr.values("t") == 0].mean()
            ),
            treatment="t",
            outcome="y",
            adjustment=(),
        )
        rep = refute_random_common_cause(task, f, repetitions=5, seed=3)
        assert rep.relative_change == 0.0
        assert all(e == rep.original_effect for e in rep.refuted_effects)

    def test_deterministic_per_seed(self):
        f = sample_frame(2, n=300)
        task = regression_task()
        a = refute_random_common_cause(task, f, repetitions=8, seed=11)
        b = refute_random_common_cause(task, f, repetitions=8, seed=11)
        c = refute_random_common_cause(task, f, repetitions=8, seed=12)
        assert a.refuted_effects == b.refuted_effects
        assert a.refuted_effects != c.refuted_effects

    def test_sound_estimate_barely_moves(self):
        f = sample_frame(3, n=2000)
        rep = refute_random_common_cause(regression_task(), f, repetitions=20, seed=5)
        assert rep.relative_change < 0.10
        assert rep.verdict == "pass"

    def test_column_name_collision_avoided(self):
        f = sample_frame(4, n=100)
        f = f.with_column(f.column("x"))  # no-op; keeps x present
        seen = []
        task = EstimationTask(
            estimate=lambda fr, z: seen.append(tuple(z)) or 0.0,
            treatment="t",
            outcome="y",
            adjustment=("x",),
        )
        refute_random_common_cause(task, f, repetitions=2, seed=1)
        for z in seen[1:]:
            assert len(z) == 2 and z[0] == "x" and z[1] not in f.names


class TestPlacebo:
    def test_effect_collapses_towards_zero(self):
        f = sample_frame(5, n=2000, tau=1.0)
        rep = refute_placebo(regression_task(), f, repetitions=30, seed=7)
        assert abs(rep.mean_refuted) < 0.25 * abs(rep.original_effect)
        assert rep.verdict == "pass"

    def test_null_world(self):
        rng = make_rng(6)
        n = 2000
        t = (rng.uniform(size=n) < 0.5).astype(float)
        y = rng.standard_normal(n)  # pure noise outcome
        f = make_frame(t, y)
        rep = refute_placebo(regression_task(()), f, repetitions=30, seed=9)
        assert abs(rep.original_effect) < 0.1
        assert abs(rep.mean_refuted) < 0.1

    def test_placebo_treatment_independent_of_original(self):
        f = sample_frame(8, n=5000)
        captured = []
        task = EstimationTask(
            estimate=lambda fr, z: captured.append(fr.values("t").copy()) or 0.0,
            treatment="t",
            outcome="y",
            adjustment=(),
        )
        refute_placebo(task, f, repetitions=4, seed=13)
        original = f.values("t")
        for placebo in captured[1:]:
            table = np.zeros((2, 2))
            for a in (0, 1):
                for b in (0, 1):
                    table[a, b] = np.sum((original == a) & (placebo == b))
            _, p, _, _ = stats.chi2_contingency(table)
            assert p > 0.01
            assert abs(placebo.mean() - original.mean()) < 0.05


class TestSubset:
    def test_near_identity_at_high_fraction(self):
        f = sample_frame(9, n=1500)
        rep = refute_subset(regression_task(), f, fraction=0.999, repetitions=10, seed=15)
        assert rep.relative_change < 0.01

    def test_relative_change_small_on_sound_estimate(self):
        f = sample_frame(10, n=2000)
        rep = refute_subset(regression_task(), f, fraction=0.8, repetitions=30, seed=17)
        assert rep.relative_change < 0.10
        assert rep.verdict == "pass"

    def test_spread_shrinks_with_n(self):
        small = sample_frame(11, n=500)
        big = sample_frame(11, n=5000)
        rs = refute_subset(regression_task(), small, repetitions=40, seed=19)
        rb = refute_subset(regression_task(), big, repetitions=40, seed=19)
        assert np.std(rb.refuted_effects) < np.std(rs.refuted_effects)

    def test_subsample_size(self):
        f = sample_frame(12, n=100)
        sizes = []
        task = EstimationTask(
            estimate=lambda fr, z: sizes.append(fr.n_rows) or 0.0,
            treatment="t",
            outcome="y",
            adjustment=(),
        )
        refute_subset(task, f, fraction=0.8, repetitions=3, seed=2)
        assert sizes[1:] == [80, 80, 80]


class TestUnobservedConfounder:
    def test_zero_strength_is_bitexact_identity(self):
        f = sample_frame(13, n=400)
        rep = refute_unobserved_confounder(
            regression_task(), f, strength_t=0.0, strength_y=0.0, repetitions=5, seed=21
        )
        assert all(e == rep.original_effect for e in rep.refuted_effects)
        assert rep.relative_change == 0.0

    # sha256 of repr(report) at strength_y 0, 30 repetitions and seed 7,
    # taken while every repetition still drew a confounder and dropped it
    NO_OUTCOME_STRENGTH_PINS = {
        0.0: "2c247ec26d42c2ec56976f836e11840bccf044fff12fc3aab66a15ddb13d3bb8",
        0.5: "51ed28925f7c19ac61ce26ecaad45fc5e49c0172cf2ffa4212f7ca78f761d873",
    }

    @pytest.mark.parametrize("strength_t", sorted(NO_OUTCOME_STRENGTH_PINS))
    def test_no_outcome_strength_draws_nothing(self, monkeypatch, strength_t):
        calls = []

        def counted(*args):
            calls.append(1)
            return _simulate_confounder(*args)

        monkeypatch.setattr(refutation, "_simulate_confounder", counted)
        f = sample_frame()
        rep = refute_unobserved_confounder(regression_task(), f, strength_t, 0.0, 30, 7)
        assert calls == []
        assert _sha256(repr(rep)) == self.NO_OUTCOME_STRENGTH_PINS[strength_t]
        refute_unobserved_confounder(regression_task(), f, strength_t, 0.5, 3, 7)
        assert len(calls) == 3

    def test_nonzero_strength_moves_estimate(self):
        f = sample_frame(14, n=3000)
        rep = refute_unobserved_confounder(
            regression_task(), f, strength_t=0.5, strength_y=0.5, repetitions=20, seed=23
        )
        assert 0.02 <= rep.relative_change <= 0.5
        assert rep.verdict == "info"

    def test_monotone_in_outcome_strength(self):
        f = sample_frame(15, n=2000)
        changes = []
        for sy in (0.2, 0.5, 0.8):
            rep = refute_unobserved_confounder(
                regression_task(), f, strength_t=0.5, strength_y=sy,
                repetitions=15, seed=25,
            )
            changes.append(rep.relative_change)
        assert changes[0] <= changes[1] <= changes[2]

    def test_strength_validation(self):
        f = sample_frame(16, n=50)
        with pytest.raises(ValueError):
            refute_unobserved_confounder(regression_task(), f, 1.0, 0.5, 2, 0)


def _arms(n, share):
    tv = np.zeros(n)
    tv[:: round(1 / share)] = 1.0
    return tv


class _RoundCounter:
    """A generator that counts the sampler's rounds (one normal draw each)."""

    def __init__(self, rng):
        self.rng = rng
        self.rounds = 0

    def standard_normal(self, n):
        self.rounds += 1
        return self.rng.standard_normal(n)

    def random(self, n):
        return self.rng.random(n)

    def uniform(self, size):
        return self.rng.uniform(size=size)


class TestConfounderSampler:
    """The sampler evaluates only pending rows, yet draws what the all-rows
    oracle draws and returns its u bit for bit."""

    @pytest.mark.parametrize("share", [0.05, 0.5])
    @pytest.mark.parametrize("base_p", [0.05, 0.5, 0.95])
    @pytest.mark.parametrize("strength_t", [0.0, 0.5, 0.99])
    def test_same_bits_as_all_rows_oracle(self, strength_t, base_p, share):
        tv = _arms(2000, share)
        for i in range(3):
            rng, oracle_rng = make_rng(derive_seed(11, i)), make_rng(derive_seed(11, i))
            u = _simulate_confounder(rng, tv, strength_t, base_p)
            expected = simulate_confounder_all_rows(oracle_rng, tv, strength_t, base_p)
            np.testing.assert_array_equal(u.view(np.int64), expected.view(np.int64))
            # both consumed the same draws: the streams go on alike
            np.testing.assert_array_equal(rng.random(8), oracle_rng.random(8))

    def test_round_cap_compared(self):
        # At 5% prevalence treated rows accept with probability near 0.05 per
        # round, so a few of the 100 are still pending when the 64 rounds end
        # and keep their last proposal.
        tv = _arms(2000, 0.05)
        for i in range(3):
            rng, oracle_rng = (_RoundCounter(make_rng(derive_seed(11, i))) for _ in range(2))
            u = _simulate_confounder(rng, tv, 0.5, 0.05)
            expected = simulate_confounder_all_rows(oracle_rng, tv, 0.5, 0.05)
            assert rng.rounds == oracle_rng.rounds == 64
            np.testing.assert_array_equal(u.view(np.int64), expected.view(np.int64))


class TestRepetitions:
    @pytest.mark.parametrize("refute", [
        lambda task, f, reps: refute_random_common_cause(task, f, reps, 1),
        lambda task, f, reps: refute_placebo(task, f, reps, 1),
        lambda task, f, reps: refute_subset(task, f, 0.8, reps, 1),
        lambda task, f, reps: refute_unobserved_confounder(task, f, 0.5, 0.5, reps, 1),
    ])
    def test_at_least_one(self, refute):
        with pytest.raises(ValueError, match="repetitions must be >= 1"):
            refute(regression_task(), sample_frame(19, n=100), 0)


class TestPValue:
    def test_degenerate_match(self):
        assert _normal_tail_p(np.full(30, 2.0), 2.0) == 1.0

    def test_degenerate_mismatch(self):
        assert _normal_tail_p(np.full(30, 2.0), 3.0) == 0.0

    def test_extreme_tail(self):
        rng = make_rng(30)
        refuted = rng.standard_normal(100)
        original = refuted.mean() + 10 * refuted.std()
        assert _normal_tail_p(refuted, original) < 1e-6

    def test_matches_monte_carlo_tail(self):
        rng = make_rng(31)
        refuted = rng.normal(loc=1.0, scale=0.5, size=200)
        original = 1.6
        p = _normal_tail_p(refuted, original)
        mu, sd = refuted.mean(), refuted.std()
        draws = rng.normal(loc=mu, scale=sd, size=1_000_000)
        mc = np.mean(np.abs(draws - mu) >= abs(original - mu))
        assert p == pytest.approx(mc, abs=0.02)

    def test_in_unit_interval_on_reports(self):
        f = sample_frame(17, n=500)
        rep = refute_subset(regression_task(), f, repetitions=31, seed=1)
        assert 0.0 <= rep.p_value <= 1.0


class TestReportShape:
    def test_effects_sorted_and_counted(self):
        f = sample_frame(18, n=300)
        rep = refute_placebo(regression_task(), f, repetitions=12, seed=2)
        assert rep.repetitions == 12 and len(rep.refuted_effects) == 12
        assert list(rep.refuted_effects) == sorted(rep.refuted_effects)
        assert rep.refuter == "placebo_treatment"

    def test_frame_never_mutated(self):
        f = sample_frame(19, n=200)
        before_t = f.values("t").copy()
        before_y = f.values("y").copy()
        for fn in (
            lambda: refute_placebo(regression_task(), f, 3, 0),
            lambda: refute_subset(regression_task(), f, 0.8, 3, 0),
            lambda: refute_random_common_cause(regression_task(), f, 3, 0),
            lambda: refute_unobserved_confounder(regression_task(), f, 0.4, 0.4, 3, 0),
        ):
            fn()
        assert np.array_equal(f.values("t"), before_t)
        assert np.array_equal(f.values("y"), before_y)


class TestOnSyntheticGroundTruth:
    def test_confounder_strengths_on_synth(self):
        ss = generate(n=3000, sigma=1.0, seed=50)
        f = ss.to_frame()
        task = EstimationTask(
            estimate=lambda fr, z: regression_adjustment(fr, "w", "y", z).value,
            treatment="w",
            outcome="y",
            adjustment=ss.feature_names,
        )
        rep = refute_unobserved_confounder(task, f, 0.5, 0.5, repetitions=15, seed=51)
        assert 0.02 <= rep.relative_change <= 0.5

    def test_ipw_task_battery(self):
        ss = generate(n=3000, sigma=1.0, seed=41)
        f = ss.to_frame()
        z = ss.feature_names

        def run_ipw(fr, zz):
            pm = fit_propensity(fr, "w", zz)
            return ipw_ate(fr, "w", "y", pm).value

        task = EstimationTask(estimate=run_ipw, treatment="w", outcome="y", adjustment=z)
        placebo = refute_placebo(task, f, repetitions=15, seed=43)
        assert abs(placebo.mean_refuted) < 0.25 * abs(placebo.original_effect)
        subset = refute_subset(task, f, repetitions=15, seed=44)
        assert subset.relative_change < 0.10

    def test_wrong_graph_passes_every_refuter(self):
        # The refuters cannot see a wrong graph.  With x0 -> w and x1 -> w left
        # out, x0 and x1 look outcome-only and the adjustment set drops them:
        # both estimators land near 0.88 against a true mean effect near 0.50,
        # yet every pass/fail refuter passes, since none of them tests the graph.
        text = (SAMPLE_QUERIES / "synthetic.graph").read_text(encoding="utf-8")
        g = parse_graph(text.replace("x0 -> w; ", "").replace("x1 -> w; ", ""))
        z = backdoor_sets(g, "w", "y")[0]
        assert z == ("x2", "x3", "x4")
        ss = generate(n=5000, seed=7)
        f = ss.to_frame()
        truth = float(ss.tau_true.mean())
        ipw = ipw_ate(f, "w", "y", fit_propensity(f, "w", z)).value
        task = EstimationTask(
            estimate=lambda fr, zz: regression_adjustment(fr, "w", "y", zz).value,
            treatment="w",
            outcome="y",
            adjustment=z,
        )
        assert abs(task.run(f) - truth) > 0.3 and abs(ipw - truth) > 0.3
        for refute, seed in ((refute_placebo, 1), (refute_random_common_cause, 2),
                             (refute_subset, 3)):
            assert refute(task, f, seed=seed).verdict == "pass"


# Each refuter with the extra arguments fixed: fn(task, frame, repetitions, seed).
REFUTERS = {
    "random_common_cause": refute_random_common_cause,
    "placebo_treatment": refute_placebo,
    "data_subset": lambda task, f, reps, seed, original=None:
        refute_subset(task, f, 0.8, reps, seed, original),
    "unobserved_confounder": lambda task, f, reps, seed, original=None:
        refute_unobserved_confounder(task, f, 0.5, 0.5, reps, seed, original),
}


def stub_task(effects):
    """A task whose runs return ``effects`` in order, whatever the frame."""
    it = iter(effects)
    return EstimationTask(estimate=lambda fr, z: next(it), treatment="t", outcome="y",
                          adjustment=("x",))


def verdict_from_fields(rep):
    """The verdict each rule gives on the report's own fields."""
    if rep.refuter == "placebo_treatment":
        ok = abs(rep.mean_refuted) < 0.25 * abs(rep.original_effect)
    elif rep.refuter == "unobserved_confounder":
        return "info"
    else:
        ok = rep.relative_change is not None and rep.relative_change < 0.10
    return "pass" if ok else "fail"


class TestVerdictMatchesReport:
    @pytest.mark.parametrize("name", ["random_common_cause", "data_subset"])
    def test_mean_summed_in_repetition_order_near_the_threshold(self, name):
        # In repetition order these sum to a mean just above 1.1; sorted,
        # just below, which is what the report shows.
        effects = (1.0, 1.0999999999999994, 1.1000000000000008, 1.1)
        rep = REFUTERS[name](stub_task(effects), sample_frame(n=50), 3, 0)
        assert rep.relative_change == 0.09999999999999987
        assert rep.verdict_rule == "pass when relative change < 0.1"
        assert rep.verdict == "pass"

    @settings(max_examples=100, deadline=None)
    @given(
        original=st.one_of(st.just(1.0), st.just(0.0), st.floats(-10.0, 10.0)),
        refuted=st.lists(
            st.one_of(
                st.sampled_from([1.1, 1.0999999999999994, 1.1000000000000008, 0.25, -0.25]),
                st.floats(-10.0, 10.0),
            ),
            min_size=1, max_size=6,
        ),
    )
    def test_verdict_follows_from_reported_fields(self, original, refuted):
        f = sample_frame(n=50)
        for name, refute in REFUTERS.items():
            rep = refute(stub_task((original, *refuted)), f, len(refuted), 0)
            assert rep.refuted_effects == tuple(sorted(refuted))
            assert rep.verdict == verdict_from_fields(rep), name
            if name == "unobserved_confounder":
                lo, hi = rep.refuted_effects[0], rep.refuted_effects[-1]
                assert rep.verdict_rule.startswith(f"induced effect range [{lo!r}, {hi!r}] ")


def _hex_fields(rep) -> dict:
    """Every report field, floats as ``float.hex`` so equality is bitwise."""
    def bits(v):
        if isinstance(v, float):
            return v.hex()
        if isinstance(v, tuple):
            return tuple(map(bits, v))
        return v
    return {field.name: bits(getattr(rep, field.name)) for field in dataclasses.fields(rep)}


def ipw_task(z=("x",)):
    return EstimationTask(
        estimate=lambda f, zz: ipw_ate(f, "t", "y", fit_propensity(f, "t", zz)).value,
        treatment="t",
        outcome="y",
        adjustment=tuple(z),
    )


class TestOriginalFromCaller:
    """A caller that passes the original effect gets the report the library
    computes without it, field for field."""

    @pytest.mark.parametrize("make_task", [regression_task, ipw_task])
    @pytest.mark.parametrize("name", sorted(REFUTERS))
    def test_given_original_matches_computed(self, name, make_task):
        task, f = make_task(), sample_frame(3, n=400)
        computed = REFUTERS[name](task, f, 5, 7)
        given = REFUTERS[name](task, f, 5, 7, task.run(f))
        assert _hex_fields(given) == _hex_fields(computed)

    @pytest.mark.parametrize("name", sorted(REFUTERS))
    def test_given_original_is_not_estimated_again(self, name):
        runs = []
        task = EstimationTask(estimate=lambda fr, z: runs.append(fr) or 1.0,
                              treatment="t", outcome="y", adjustment=("x",))
        rep = REFUTERS[name](task, sample_frame(n=50), 3, 0, 2.0)
        assert len(runs) == 3
        assert rep.original_effect == 2.0


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


class TestReportPins:
    # sha256 of repr(report) for each refuter on sample_frame() with the
    # regression task, 30 repetitions and seed 7, taken while each refuter
    # still had its own loop.  The regression fit goes through the BLAS, so
    # another platform may move the last bits.
    PINS = {
        "random_common_cause": "cfb0135a299055b31dd85b771c69747f60899f1370933c30fbe2293a1e3b3bac",
        "placebo_treatment": "a233618ae35f48c60a5c2daa4c79947488c4bcaa6d8a6b3b8dc72bc42d323dff",
        "data_subset": "a282dfb71c225a5f9c8e5ebbcf5704c38f495bd29d3548a2759ef9267c005818",
        "unobserved_confounder": "90a44e3afd3c6439dc457ceffacb20a4ef143735e7e75f22f27aa9facff6a868",
    }

    @pytest.mark.parametrize("name", sorted(PINS))
    def test_report_repr_unchanged(self, name):
        rep = REFUTERS[name](regression_task(), sample_frame(), 30, 7)
        assert _sha256(repr(rep)) == self.PINS[name]
