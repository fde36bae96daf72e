import dataclasses
import json
import pathlib
import re
import warnings

import numpy as np
import pytest
from scipy import optimize

import hjbkit as hk
from hjbkit.errors import CoefficientError, ParameterError
from hjbkit.finance import _reduced_coefficients

DATA = __file__.rsplit("/", 1)[0] + "/data"


def stationary_residual(u, market, n=801):
    """Independent oracle: max over a fine control grid of h*u + c^gamma.

    The benchmark value is the positive root of this map in u.
    """
    gamma, w = market.risk_aversion, market.discount
    r, b, s = market.short_rate, market.excess_drift, market.volatility
    pis = np.linspace(-market.position_cap, market.position_cap, n)
    cs = np.linspace(0.0, market.consumption_cap, n)
    h = gamma * (r + b * pis[:, None]
                 - 0.5 * (1 - gamma) * s ** 2 * pis[:, None] ** 2
                 - cs[None, :]) - w
    return float(np.max(h * u + cs[None, :] ** gamma))


class TestMertonBenchmark:
    def test_value_matches_root_finding_oracle(self, merton_market):
        bench = hk.merton_benchmark(merton_market)
        root = optimize.brentq(stationary_residual, 0.1, 50.0,
                               args=(merton_market,), xtol=1e-10)
        assert bench.u == pytest.approx(root, rel=1e-4)

    def test_frozen_closed_form_values(self, merton_market):
        # u = sqrt(50/7), pi* at the cap, c* = u^{-2} = 7/50
        bench = hk.merton_benchmark(merton_market)
        assert bench.u == pytest.approx(2.6726124191242437, abs=1e-12)
        assert bench.pi_star == pytest.approx(2.0, abs=1e-12)
        assert bench.c_star == pytest.approx(0.14, abs=1e-12)
        assert bench.A == pytest.approx(-0.07, abs=1e-12)

    def test_cap_flags(self, merton_market):
        from dataclasses import replace
        wide = replace(merton_market, position_cap=5.0)
        assert not hk.merton_benchmark(wide).pi_clipped
        narrow = replace(merton_market, position_cap=1.0)
        assert hk.merton_benchmark(narrow).pi_clipped

    def test_small_discount_rejected(self, merton_market):
        from dataclasses import replace
        greedy = replace(merton_market, discount=0.005)
        with pytest.raises(ParameterError):
            hk.merton_benchmark(greedy)


class TestMarketValidation:
    def test_parameter_ranges(self):
        base = dict(short_rate=0.02, excess_drift=0.04, volatility=0.2,
                    correlation=0.5, risk_aversion=0.5, discount=0.1,
                    position_cap=2.0, consumption_cap=1.0, factor_drift=0.0)
        for key, bad in [("risk_aversion", 1.5), ("risk_aversion", 0.0),
                         ("correlation", 1.5), ("discount", -0.1),
                         ("position_cap", 0.0), ("consumption_cap", -1.0)]:
            with pytest.raises(ParameterError):
                hk.MarketModel(**{**base, key: bad})

    def test_callable_coefficients_accepted(self):
        m = hk.MarketModel(
            short_rate=lambda y: 0.02 + 0.01 * np.tanh(y[..., 0]),
            excess_drift=0.04, volatility=0.2, correlation=0.5,
            risk_aversion=0.5, discount=0.1, position_cap=2.0,
            consumption_cap=1.0,
            factor_drift=lambda y: -y[..., 0], lip_L1=0.05, lip_L2=-1.0)
        assert not m.is_constant
        # the reduced discount rate reads r(0) = 0.02: gamma r - w = -0.09
        h = _reduced_coefficients(m)[1]
        assert h(np.array([[0.0]]), np.array([[0.0, 0.0]])) == pytest.approx([-0.09])


class TestReduction:
    def test_control_grid_shape(self, merton_market):
        m = hk.to_control_model(merton_market, (7, 5))
        assert m.dim == 1
        assert m.controls.shape == (35, 2)
        assert m.controls[:, 0].min() == -2.0
        assert m.controls[:, 0].max() == 2.0
        assert m.controls[:, 1].min() == 0.0
        assert m.controls[:, 1].max() == 1.0

    @pytest.mark.parametrize("resolution", [(2, 2), (5, 4), (21, 21), (41, 41)])
    def test_control_grid_is_the_nested_loop_one(self, merton_market, resolution):
        m = hk.to_control_model(merton_market, resolution)
        pis = np.linspace(-2.0, 2.0, resolution[0])
        cs = np.linspace(0.0, 1.0, resolution[1])
        loop = np.array([(p, c) for p in pis for c in cs])  # pi outer, c inner
        assert m.controls.tobytes() == loop.tobytes()
        assert m.controls.shape == loop.shape and m.controls.flags.c_contiguous

    def test_reduced_coefficients_match_formulas(self, merton_market):
        m = hk.to_control_model(merton_market, (5, 5))
        y = np.array([[0.3]])
        d = np.array([1.0, 0.5])
        gamma, w = 0.5, 0.1
        # drift i + rho*pi*sigma with i = 0
        assert np.allclose(m.drift(y, d), 0.5 * 1.0 * 0.2)
        h_ref = gamma * (0.02 + 0.04 * 1.0 - 0.5 * 0.5 * 0.04 * 1.0 - 0.5) - w
        assert m.discount_rate(y, d) == pytest.approx([h_ref])
        assert m.running_reward(y, d) == pytest.approx([0.5 ** gamma])
        assert m.terminal_reward(y) == pytest.approx([1.0])

    @staticmethod
    def _constant_and_callable_markets():
        # 2.0408 ** 2 and 2.0408 * 2.0408 round apart, and the volatility
        # term dominates the discount rate: the rates show whether both
        # forms square alike
        consts = dict(short_rate=0.02, excess_drift=0.04, volatility=2.0408,
                      factor_drift=-0.03)
        base = dict(correlation=0.5, risk_aversion=0.5, discount=0.1,
                    position_cap=2.0, consumption_cap=1.0, lip_L1=1.0,
                    lip_L2=0.01)
        callables = {k: (lambda v: lambda y: np.full(y.shape[:-1], v))(v)
                     for k, v in consts.items()}
        return (hk.MarketModel(**consts, **base),
                hk.MarketModel(**callables, **base))

    def test_constant_coefficients_match_callable_ones(self):
        const, call = (hk.to_control_model(m, (5, 4))
                       for m in self._constant_and_callable_markets())
        rng = np.random.default_rng(2)
        y = rng.uniform(-2.0, 2.0, (64, 1))
        rows = const.controls[rng.integers(len(const.controls), size=64)]
        for d in (rows, const.controls[7]):
            for name in ("drift", "discount_rate"):
                a, b = (np.asarray(getattr(m, name)(y, d)) for m in (const, call))
                assert a.shape == b.shape == (y.shape if name == "drift"
                                              else y.shape[:-1])
                assert a.tobytes() == b.tobytes(), name

    def test_constant_coefficients_simulate_like_callable_ones(self):
        const, call = (hk.to_control_model(m, (3, 3))
                       for m in self._constant_and_callable_markets())
        policies = [lambda y, t: const.controls[np.where(y[:, 0] > 0, 2, 6)],
                    lambda y, t: const.controls[4]]
        mc = hk.MonteCarloConfig(paths=200, dt=1e-2, seed=4)
        a, b = (hk.simulate_paths(m, policies, [[-0.5], [0.5]], 0.5, mc, (0.2,))
                for m in (const, call))
        for field in ("states", "log_discount", "reward_integral", "deltas"):
            assert getattr(a, field).tobytes() == getattr(b, field).tobytes()

    @pytest.mark.parametrize("L1, L2", [(0.01, 0.01), (0.01, -0.5),
                                        (None, 0.01), (None, -0.5),
                                        (0.01, None)])
    def test_numbers_take_the_sampled_screens_outcome(self, L1, L2):
        # the callable twin is screened by sampling, the constant one exactly:
        # the same constants, warning and error come out of both
        outcomes = []
        for market in self._constant_and_callable_markets():
            market = dataclasses.replace(market, lip_L1=L1, lip_L2=L2)
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                try:
                    cm = hk.to_control_model(market, (21, 21))
                    outcome = (cm.lip_L1, cm.lip_L2)
                except ParameterError as exc:
                    outcome = str(exc)
            outcomes.append((outcome, [str(w.message) for w in caught]))
        assert outcomes[0] == outcomes[1]
        assert (outcomes[0][1] != []) == (L2 is not None and L2 < 0)
        assert isinstance(outcomes[0][0], str) == (L2 is None)

    def test_only_markets_given_as_numbers_skip_the_sampled_screen(
            self, monkeypatch):
        calls = []
        screen = hk.finance.check_assumption1
        monkeypatch.setattr(hk.finance, "check_assumption1",
                            lambda *a, **k: calls.append(1) or screen(*a, **k))
        const, call = self._constant_and_callable_markets()
        descriptor = hk.load_market(dict(
            json.loads(pathlib.Path(DATA, "merton_market.json").read_text()),
            short_rate={"kind": "constant", "value": 0.02}))
        for market, sampled in ((const, False), (call, True),
                                (descriptor, True)):
            calls.clear()
            hk.to_control_model(market, (3, 3))
            assert bool(calls) == sampled
            assert market.all_numbers != sampled

    def test_numbers_are_checked_finite_for_every_control(self):
        # sigma^2 = inf, and inf * 0 = nan in the reduced discount rate
        m = hk.MarketModel(
            short_rate=0.02, excess_drift=0.04, volatility=1e200,
            correlation=0.5, risk_aversion=0.5, discount=0.1,
            position_cap=2.0, consumption_cap=1.0, factor_drift=0.0,
            lip_L1=0.01, lip_L2=0.01)
        with np.errstate(invalid="ignore"):
            with pytest.raises(CoefficientError, match=re.escape(
                    "'discount_rate' is non-finite at y=[0.0], "
                    "delta=[-2.0, 0.0]")):
                hk.to_control_model(m, (3, 3))

    def test_screen_warns_on_understated_constants(self):
        m = hk.MarketModel(
            short_rate=lambda y: 0.5 * y[..., 0], excess_drift=0.04,
            volatility=0.2, correlation=0.5, risk_aversion=0.5, discount=0.1,
            position_cap=2.0, consumption_cap=1.0, factor_drift=0.0,
            lip_L1=1e-6, lip_L2=0.01)
        with pytest.warns(UserWarning):
            hk.to_control_model(m, (3, 3))

    def test_lipschitz_fallback_estimation(self):
        m = hk.MarketModel(
            short_rate=0.02, excess_drift=0.04, volatility=0.2,
            correlation=0.5, risk_aversion=0.5, discount=0.1,
            position_cap=2.0, consumption_cap=1.0,
            factor_drift=lambda y: -y[..., 0])
        cm = hk.to_control_model(m, (3, 3))
        assert cm.lip_L1 > 0
        assert cm.lip_L2 < 0  # mean reversion detected from samples

    def test_lipschitz_fallback_covers_the_reduced_drift(self):
        # reduced drift -y + rho pi sigma(y) with sigma = 2 + 0.3y: the
        # portfolio term weakens the contraction to -1 + 0.5 * 2 * 0.3
        m = hk.MarketModel(
            short_rate=0.02, excess_drift=0.04,
            volatility=lambda y: 2.0 + 0.3 * y[..., 0], correlation=0.5,
            risk_aversion=0.5, discount=0.1, position_cap=2.0,
            consumption_cap=1.0, factor_drift=lambda y: -y[..., 0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cm = hk.to_control_model(m, (3, 3))
        assert cm.lip_L2 == pytest.approx(-0.7)
        assert hk.check_assumption1(cm, [(-5.0, 5.0)], 128, 0).passed

    @pytest.mark.parametrize("factor_drift", [0.0, lambda y: 0.1 * y[..., 0]],
                             ids=["flat", "expanding"])
    def test_lipschitz_fallback_needs_a_contracting_drift(self, factor_drift):
        # no L2 passes the screen for a drift that does not contract
        m = hk.MarketModel(
            short_rate=0.02, excess_drift=0.04, volatility=0.2,
            correlation=0.5, risk_aversion=0.5, discount=0.1,
            position_cap=2.0, consumption_cap=1.0, factor_drift=factor_drift)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ParameterError, match="L2 cannot be inferred"):
                hk.to_control_model(m, (3, 3))


class TestClosedFormControls:
    def test_beats_grid_search(self, merton_market):
        # the closed-form pair must attain at least the best grid value
        m = hk.to_control_model(merton_market, (41, 41))
        rng = np.random.default_rng(0)
        for _ in range(25):
            y = float(rng.uniform(-1, 1))
            u = float(rng.uniform(0.5, 5.0))
            uy = float(rng.uniform(-1, 1))
            pi, c = hk.closed_form_controls(y, u, uy, merton_market)
            assert -2.0 <= pi <= 2.0 and 0.0 <= c <= 1.0

            def value(d):
                ya = np.array([[y]])
                return (float(m.drift(ya, d)[0, 0]) * uy
                        + float(m.discount_rate(ya, d)[0]) * u
                        + float(m.running_reward(ya, d)[0]))

            best_grid = max(value(d) for d in m.controls)
            assert value(np.array([pi, c])) >= best_grid - 1e-9

    def test_requires_positive_value(self, merton_market):
        with pytest.raises(ParameterError):
            hk.closed_form_controls(0.0, -1.0, 0.0, merton_market)

    def test_override_shapes(self, merton_market):
        ov = hk.control_override(merton_market)
        out = ov(np.linspace(-1, 1, 11), np.full(11, 2.0), np.zeros(11))
        assert out.shape == (11, 2)
        assert np.all(np.abs(out[:, 0]) <= 2.0)
        assert np.all((0.0 <= out[:, 1]) & (out[:, 1] <= 1.0))


class TestDiscountAdmissible:
    def _mean_reverting(self):
        return hk.MarketModel(
            short_rate=0.02, excess_drift=0.04, volatility=0.2,
            correlation=0.5, risk_aversion=0.5, discount=0.1,
            position_cap=2.0, consumption_cap=1.0,
            factor_drift=lambda y: -y[..., 0], lip_L1=0.01, lip_L2=-1.0)

    def test_valid_scenario(self):
        m = self._mean_reverting()
        # constant short rate: gamma*r - w = -0.09, so P = 0.09, Q = 0 works
        rep = hk.discount_admissible(m, alpha=1.0, beta=0.0, P=0.09, Q=0.0)
        assert rep.admissible
        assert rep.precondition_witnesses == []
        assert rep.total_rate < 0

    def test_precondition_witnesses_on_violation(self):
        m = self._mean_reverting()
        rep = hk.discount_admissible(m, alpha=1.0, beta=0.0, P=5.0, Q=0.0)
        assert not rep.admissible
        assert any(w["condition"] == "short_rate"
                   for w in rep.precondition_witnesses)

    @pytest.mark.parametrize("r, b, sigma, gamma, w", [
        (0.02, 0.04, 0.2, 0.5, 0.1),     # demo 04's market, A = -0.07
        (0.02, 0.04, 0.2, 0.5, 0.025),   # A = +0.005: not admissible
        (0.01, 0.03, 0.25, 0.4, 0.05),   # interior portfolio, A < 0
        (0.01, 0.03, 0.25, 0.4, 0.005),  # interior portfolio, A > 0
    ])
    def test_constant_market_rate_is_merton_growth_rate(self, r, b, sigma,
                                                        gamma, w):
        # with Q = 0 and P = w - gamma r the screened exponent is the
        # reduced model's largest discount rate, Merton's A
        m = hk.MarketModel(short_rate=r, excess_drift=b, volatility=sigma,
                           correlation=0.5, risk_aversion=gamma, discount=w,
                           position_cap=2.0, consumption_cap=1.0,
                           factor_drift=0.0)
        A = gamma * r - w + gamma * b ** 2 / (2 * (1 - gamma) * sigma ** 2)
        rep = hk.discount_admissible(m, alpha=0.1, beta=0.5,
                                     P=w - gamma * r, Q=0.0)
        assert rep.total_rate == pytest.approx(A, abs=1e-12)
        assert rep.admissible == (A < 0)
        assert rep.precondition_witnesses == []

    def test_alpha_validated(self):
        with pytest.raises(ParameterError):
            hk.discount_admissible(self._mean_reverting(), alpha=0.0,
                                   beta=0.0, P=1.0, Q=0.0)


class TestWealthValue:
    def test_power_scaling(self, merton_market):
        u = 2.0
        assert hk.wealth_value(4.0, merton_market, u) == \
            pytest.approx(4.0 ** 0.5 / 0.5 * 2.0)

    def test_positive_wealth_required(self, merton_market):
        with pytest.raises(ParameterError):
            hk.wealth_value(0.0, merton_market, 1.0)


class TestSerialization:
    def test_load_market_file(self):
        m = hk.load_market(DATA + "/merton_market.json")
        assert m.short_rate == 0.02
        assert m.is_constant

    def test_load_market_path_and_open_file(self):
        path = pathlib.Path(DATA) / "merton_market.json"
        with open(path) as fh:
            markets = [hk.load_market(path), hk.load_market(fh)]
        assert markets == [hk.load_market(str(path))] * 2

    def test_load_market_callable_descriptor(self):
        doc = {"short_rate": 0.02, "excess_drift": 0.04, "volatility": 0.2,
               "correlation": 0.5, "risk_aversion": 0.5, "discount": 0.1,
               "position_cap": 2.0, "consumption_cap": 1.0,
               "factor_drift": {"kind": "affine", "y_coeff": [-1.0]},
               "L1": 0.01, "L2": -1.0}
        m = hk.load_market(doc)
        drift = _reduced_coefficients(m)[0]  # i(y) at pi = 0
        assert drift(np.array([[2.0]]), np.array([[0.0, 0.0]])) == pytest.approx(
            np.array([[-2.0]]))

    def test_reduced_descriptor_round_trip(self, merton_market):
        from hjbkit.finance import reduced_model_descriptor
        doc = reduced_model_descriptor(merton_market, (5, 5))
        json.dumps(doc)  # must be serializable
        m1 = hk.load_model(doc)
        m2 = hk.to_control_model(merton_market, (5, 5))
        y = np.array([[0.4]])
        assert np.array_equal(m1.controls, m2.controls)
        for d in m1.controls[::6]:
            assert np.allclose(m1.drift(y, d), m2.drift(y, d))
            assert np.allclose(m1.discount_rate(y, d), m2.discount_rate(y, d))
            assert np.allclose(m1.running_reward(y, d),
                               m2.running_reward(y, d))
        assert np.allclose(m1.terminal_reward(y), m2.terminal_reward(y))

    def test_reduced_descriptor_rejects_state_dependence(self):
        from hjbkit.finance import reduced_model_descriptor
        m = hk.MarketModel(
            short_rate=lambda y: 0.02 + 0 * y[..., 0], excess_drift=0.04,
            volatility=0.2, correlation=0.5, risk_aversion=0.5, discount=0.1,
            position_cap=2.0, consumption_cap=1.0, factor_drift=0.0,
            lip_L1=0.01, lip_L2=0.01)
        with pytest.raises(ParameterError):
            reduced_model_descriptor(m, (3, 3))
