import numpy as np
import pytest

import hjbkit as hk
from hjbkit.errors import ParameterError, PathExclusionError
from hjbkit.simulate import _reduce, simulate_paths

from conftest import constant_model, ou_model, zero_policy


class TestPathGeneration:
    def test_ou_mean_matches_closed_form(self):
        # E Y_T = y0 e^{-T} for the mean-reverting factor, oracle 2/e
        m = ou_model()
        mc = hk.MonteCarloConfig(paths=20000, dt=2e-3, seed=0)
        batch = simulate_paths(m, zero_policy(), [2.0], 1.0, mc)
        est = float(np.mean(batch.y_final))
        se = float(np.std(batch.y_final) / np.sqrt(mc.paths))
        assert abs(est - 0.7357588823428847) < 4 * se + 2e-3

    def test_ou_variance_matches_closed_form(self):
        # Var Y_T = (1 - e^{-2T}) / 2
        m = ou_model()
        mc = hk.MonteCarloConfig(paths=20000, dt=2e-3, seed=1)
        batch = simulate_paths(m, zero_policy(), [0.0], 1.0, mc)
        var = float(np.var(batch.y_final))
        assert var == pytest.approx((1 - np.exp(-2.0)) / 2, rel=0.05)

    def test_constant_discount_is_exact(self):
        m = constant_model(h=-1.0)
        mc = hk.MonteCarloConfig(paths=50, dt=1e-2, seed=0)
        batch = simulate_paths(m, zero_policy(), [0.0], 1.0, mc)
        assert np.allclose(batch.log_discount, -1.0, atol=1e-12)

    def test_undiscounted_unit_reward_is_exact(self):
        m = constant_model(f=1.0, h=0.0)
        mc = hk.MonteCarloConfig(paths=50, dt=1e-2, seed=0)
        batch = simulate_paths(m, zero_policy(), [0.0], 1.0, mc)
        assert np.allclose(batch.reward_integral, 1.0, atol=1e-12)

    def test_checkpoints_recorded(self):
        m = ou_model()
        mc = hk.MonteCarloConfig(paths=100, dt=1e-2, seed=0)
        batch = simulate_paths(m, zero_policy(), [1.0], 1.0, mc,
                               checkpoints=[0.5, 1.0])
        assert batch.checkpoint_states.shape == (100, 2, 1)
        assert np.array_equal(batch.checkpoint_states[:, 1, 0],
                              batch.y_final[:, 0])


class TestReproducibility:
    def test_same_seed_bitwise_identical(self):
        m = ou_model()
        mc = hk.MonteCarloConfig(paths=500, dt=1e-2, seed=42)
        a = simulate_paths(m, zero_policy(), [1.0], 1.0, mc)
        b = simulate_paths(m, zero_policy(), [1.0], 1.0, mc)
        assert np.array_equal(a.y_final, b.y_final)
        assert np.array_equal(a.reward_integral, b.reward_integral)

    def test_different_seed_differs(self):
        m = ou_model()
        a = simulate_paths(m, zero_policy(), [1.0], 1.0,
                           hk.MonteCarloConfig(paths=100, dt=1e-2, seed=1))
        b = simulate_paths(m, zero_policy(), [1.0], 1.0,
                           hk.MonteCarloConfig(paths=100, dt=1e-2, seed=2))
        assert not np.array_equal(a.y_final, b.y_final)

    def test_path_count_does_not_reshuffle_streams(self):
        # per-path counter streams: the first 100 paths of a larger run
        # coincide bitwise with a 100-path run
        m = ou_model()
        small = simulate_paths(m, zero_policy(), [1.0], 1.0,
                               hk.MonteCarloConfig(paths=100, dt=1e-2, seed=9))
        large = simulate_paths(m, zero_policy(), [1.0], 1.0,
                               hk.MonteCarloConfig(paths=1000, dt=1e-2, seed=9))
        assert np.array_equal(large.y_final[:100], small.y_final)


class TestAntithetic:
    def test_pairs_mirror_the_noise(self):
        # linear drift: the pair sum is the deterministic recursion
        m = ou_model()
        mc = hk.MonteCarloConfig(paths=200, dt=1e-2, seed=5, antithetic=True)
        batch = simulate_paths(m, zero_policy(), [1.0], 1.0, mc)
        pair_mean = 0.5 * (batch.y_final[0::2] + batch.y_final[1::2])
        det = 1.0 * (1 - mc.dt) ** 100
        assert np.allclose(pair_mean, det, atol=1e-12)

    def test_antithetic_requires_even_paths(self):
        with pytest.raises(ParameterError):
            hk.MonteCarloConfig(paths=101, dt=1e-2, seed=5, antithetic=True)

    def test_variance_reduction_on_smooth_payoff(self):
        m = ou_model()
        plain = hk.estimate_value(m, zero_policy(), [1.0], 0.0, 1.0,
                                  hk.MonteCarloConfig(paths=4000, dt=5e-3,
                                                      seed=3))
        anti = hk.estimate_value(m, zero_policy(), [1.0], 0.0, 1.0,
                                 hk.MonteCarloConfig(paths=4000, dt=5e-3,
                                                     seed=3, antithetic=True))
        assert anti.std_error <= plain.std_error


    def test_excluded_path_drops_its_pair(self):
        mc = hk.MonteCarloConfig(paths=2000, dt=1e-2, seed=0, antithetic=True)
        rng = np.random.default_rng(4)
        payoffs = rng.normal(size=2000)
        excluded = np.zeros(2000, dtype=bool)
        excluded[7] = True          # forced exclusion: pair (6, 7) goes
        payoffs[7] = np.nan
        res = _reduce(payoffs, excluded, mc, 1.0)
        pairs = 0.5 * (payoffs[0::2] + payoffs[1::2])
        kept = np.delete(pairs, 3)
        assert res.excluded == 1
        assert res.mean == pytest.approx(np.mean(kept), rel=1e-12)
        assert res.std_error == pytest.approx(
            np.std(kept, ddof=1) / np.sqrt(len(kept)), rel=1e-12)


class TestExclusion:
    def test_budget_enforced(self):
        # super-linear expansion overflows nearly every path
        def drift(y, d):
            y = np.asarray(y, float)
            return y ** 7

        m = hk.ControlModel(
            dim=1, drift=drift,
            discount_rate=lambda y, d: np.zeros(np.asarray(y).shape[:-1]),
            running_reward=lambda y, d: np.ones(np.asarray(y).shape[:-1]),
            terminal_reward=lambda y: np.zeros(np.asarray(y).shape[:-1]),
            controls=np.array([[0.0]]), lip_L1=1.0, lip_L2=1.0)
        mc = hk.MonteCarloConfig(paths=200, dt=0.5, seed=0)
        with pytest.raises(PathExclusionError) as exc:
            hk.estimate_value(m, zero_policy(), [3.0], 0.0, 5.0, mc)
        assert exc.value.excluded > 0


class TestEstimateValue:
    def test_constant_model_closed_form(self):
        # value = (1 - e^{-T}) exactly; only quadrature bias remains
        m = constant_model()
        mc = hk.MonteCarloConfig(paths=100, dt=1e-3, seed=0)
        est = hk.estimate_value(m, zero_policy(), [0.0], 0.0, 1.0, mc)
        assert abs(est.mean - (1 - np.exp(-1.0))) < 1e-3

    def test_terminal_reward_included(self):
        m = constant_model(f=0.0, h=-1.0, g=1.0)
        mc = hk.MonteCarloConfig(paths=100, dt=1e-3, seed=0)
        est = hk.estimate_value(m, zero_policy(), [0.0], 0.0, 1.0, mc)
        assert est.mean == pytest.approx(np.exp(-1.0), abs=1e-12)

    def test_start_time_shortens_the_window(self):
        m = constant_model()
        mc = hk.MonteCarloConfig(paths=100, dt=1e-3, seed=0)
        est = hk.estimate_value(m, zero_policy(), [0.0], 0.5, 1.0, mc)
        assert abs(est.mean - (1 - np.exp(-0.5))) < 1e-3

    def test_result_serializes(self):
        m = constant_model()
        mc = hk.MonteCarloConfig(paths=100, dt=1e-2, seed=0)
        est = hk.estimate_value(m, zero_policy(), [0.0], 0.0, 1.0, mc)
        d = est.as_dict()
        assert set(d) >= {"mean", "std_error", "paths", "seed", "horizon"}


class TestCoupling:
    def test_linear_drift_discrete_ratio_is_one(self):
        m = ou_model()
        mc = hk.MonteCarloConfig(paths=200, dt=1e-2, seed=0)
        rep = hk.coupled_contraction(m, zero_policy(), [1.0], [0.25], 2.0, mc)
        assert abs(rep.worst_ratio_discrete - 1.0) < 1e-12

    def test_cubic_drift_contracts_within_tolerance(self):
        def drift(y, d):
            y = np.asarray(y, float)
            return -y - y ** 3

        m = hk.ControlModel(
            dim=1, drift=drift,
            discount_rate=lambda y, d: np.full(np.asarray(y).shape[:-1], -1.0),
            running_reward=lambda y, d: np.ones(np.asarray(y).shape[:-1]),
            terminal_reward=lambda y: np.zeros(np.asarray(y).shape[:-1]),
            controls=np.array([[0.0]]), lip_L1=1.0, lip_L2=-1.0)
        mc = hk.MonteCarloConfig(paths=1000, dt=1e-2, seed=0)
        rep = hk.coupled_contraction(m, zero_policy(), [1.5], [0.5], 2.0, mc)
        assert rep.worst_ratio <= 1.0 + 10 * mc.dt
        assert rep.initial_distance == pytest.approx(1.0)

    def test_identical_starts_rejected(self):
        m = ou_model()
        mc = hk.MonteCarloConfig(paths=10, dt=1e-2, seed=0)
        with pytest.raises(ParameterError):
            hk.coupled_contraction(m, zero_policy(), [1.0], [1.0], 1.0, mc)


class TestHorizonConvergence:
    def test_differences_shrink(self):
        m = ou_model(reward="bounded")
        mc = hk.MonteCarloConfig(paths=2000, dt=1e-2, seed=0)
        rep = hk.horizon_convergence(m, zero_policy(), [0.5],
                                     [1.0, 2.0, 4.0], mc)
        assert rep.converging
        assert np.all(np.diff(rep.differences) < 0)

    def test_tail_bound_with_table(self):
        m = ou_model(reward="bounded")
        mc = hk.MonteCarloConfig(paths=2000, dt=1e-2, seed=0)
        tab = hk.estimate_kappa(m, 1, 4.0, hk.constant_policies(m),
                                hk.MonteCarloConfig(paths=400, dt=2e-2,
                                                    seed=1))
        rep = hk.horizon_convergence(m, zero_policy(), [0.5],
                                     [1.0, 2.0, 4.0], mc, kappa_table=tab)
        assert rep.tail_bound is not None
        assert rep.within_tail


class TestBoundVerification:
    def test_drift_discount_bound_met(self):
        # contraction to 1 with discount -2 + y: the rate bound -0.5 holds
        def drift(y, d):
            return -np.asarray(y, float) + 1.0

        m = hk.ControlModel(
            dim=1, drift=drift,
            discount_rate=lambda y, d: -2.0 + np.sum(np.asarray(y, float),
                                                     axis=-1),
            running_reward=lambda y, d: np.ones(np.asarray(y).shape[:-1]),
            terminal_reward=lambda y: np.zeros(np.asarray(y).shape[:-1]),
            controls=np.array([[0.0]]), lip_L1=1.0, lip_L2=-1.0)
        spec = hk.DriftDiscountBound(alpha=1.0, beta=1.0, P=2.0, Q=1.0)
        mc = hk.MonteCarloConfig(paths=4000, dt=5e-3, seed=0)
        rep = hk.verify_bounds(m, spec, [0.0], 2.0, mc, times=[0.5, 1.0, 2.0])
        assert rep.met
        assert rep.worst_margin > 0

    def test_uniform_discount_bound_violated(self):
        # the e^{-wt}(1 + |y0| e^{L2 t}) envelope fails for f = 1 + |y|:
        # the diffusion pushes E|Y_t| above the noiseless decay
        def drift(y, d):
            return -np.asarray(y, float)

        m = hk.ControlModel(
            dim=1, drift=drift,
            discount_rate=lambda y, d: np.full(np.asarray(y).shape[:-1], -1.0),
            running_reward=lambda y, d: 1.0 + np.abs(
                np.sum(np.asarray(y, float), axis=-1)),
            terminal_reward=lambda y: np.zeros(np.asarray(y).shape[:-1]),
            controls=np.array([[0.0]]), lip_L1=1.0, lip_L2=-1.0)
        spec = hk.UniformDiscountBound(w=1.0, L1=1.0, L2=-1.0)
        mc = hk.MonteCarloConfig(paths=20000, dt=5e-3, seed=0)
        rep = hk.verify_bounds(m, spec, [1.0], 2.0, mc, times=[0.5, 1.0, 2.0])
        assert not rep.met
        assert any(not r["met"] for r in rep.rows)

    def test_envelope_bound(self):
        m = ou_model()
        spec = hk.ExponentialEnvelopeBound(K=3.0, M=1.0)
        mc = hk.MonteCarloConfig(paths=2000, dt=1e-2, seed=0)
        rep = hk.verify_bounds(m, spec, [0.5], 1.0, mc)
        assert rep.met
        assert {"t", "factor", "estimate", "bound", "met"} <= set(rep.rows[0])
