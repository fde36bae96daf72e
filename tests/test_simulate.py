import dataclasses
import inspect
import json
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hjbkit as hk
from hjbkit import simulate as sim
from hjbkit.errors import ParameterError, PathExclusionError, RecordTimeError
from hjbkit.simulate import _reduce, simulate_paths

from conftest import DATA, constant_model, ou_model, zero_policy
from families import family_models

RECORDS = ("states", "log_discount", "reward_integral", "deltas", "excluded")


class TestPathGeneration:
    def test_ou_mean_matches_closed_form(self):
        # E Y_T = y0 e^{-T} for the mean-reverting factor, oracle 2/e
        m = ou_model()
        mc = hk.MonteCarloConfig(paths=20000, dt=2e-3, seed=0)
        batch = simulate_paths(m, [zero_policy()], [[2.0]], 1.0, mc)
        y_final = batch.states[0, 0, -1]
        est = float(np.mean(y_final))
        se = float(np.std(y_final) / np.sqrt(mc.paths))
        assert abs(est - 0.7357588823428847) < 4 * se + 2e-3

    def test_ou_variance_matches_closed_form(self):
        # Var Y_T = (1 - e^{-2T}) / 2
        m = ou_model()
        mc = hk.MonteCarloConfig(paths=20000, dt=2e-3, seed=1)
        batch = simulate_paths(m, [zero_policy()], [[0.0]], 1.0, mc)
        var = float(np.var(batch.states[0, 0, -1]))
        assert var == pytest.approx((1 - np.exp(-2.0)) / 2, rel=0.05)

    def test_constant_discount_is_exact(self):
        m = constant_model(h=-1.0)
        mc = hk.MonteCarloConfig(paths=50, dt=1e-2, seed=0)
        batch = simulate_paths(m, [zero_policy()], [[0.0]], 1.0, mc)
        assert np.allclose(batch.log_discount[0, 0, -1], -1.0, atol=1e-12)

    def test_undiscounted_unit_reward_is_exact(self):
        m = constant_model(f=1.0, h=0.0)
        mc = hk.MonteCarloConfig(paths=50, dt=1e-2, seed=0)
        batch = simulate_paths(m, [zero_policy()], [[0.0]], 1.0, mc)
        assert np.allclose(batch.reward_integral[0, 0, -1], 1.0, atol=1e-12)

    def test_checkpoints_recorded(self):
        m = ou_model()
        mc = hk.MonteCarloConfig(paths=100, dt=1e-2, seed=0)
        batch = simulate_paths(m, [zero_policy()], [[1.0]], 1.0, mc,
                               times=[0.5, 1.0])
        final = simulate_paths(m, [zero_policy()], [[1.0]], 1.0, mc)
        assert batch.states[0, 0].shape == (2, 100, 1)
        assert np.array_equal(batch.states[0, 0, 1, :, 0],
                              final.states[0, 0, -1, :, 0])

    def test_each_record_is_one_contiguous_row_of_paths(self):
        # [policy, start, record, path]: a record's paths are the row that
        # every estimate averages, read without a copy
        m = dataclasses.replace(
            ou_model(controls=((0.0,), (1.0,)), reward="bounded"),
            terminal_reward=lambda y: np.cos(np.sum(y, axis=-1)))
        policies = hk.constant_policies(m)
        starts = [[-0.5], [0.5]]
        mc = hk.MonteCarloConfig(paths=64, dt=1e-2, seed=5)
        batch = simulate_paths(m, policies, starts, 1.0, mc, [0.5])
        for p, s, r in np.ndindex(2, 2, 2):
            row = batch.states[p, s, r]
            assert row.shape == (mc.paths, m.dim) and row.flags.c_contiguous
            row = batch.reward_integral[p, s, r]
            assert row.shape == (mc.paths,) and row.flags.c_contiguous
        payoff = (batch.reward_integral[0, :, -1]
                  + np.exp(batch.log_discount[0, :, -1])
                  * m.terminal_reward(batch.states[0, :, -1]))
        want = _reduce(payoff, batch.excluded[0], mc, 1.0)
        got = hk.estimate_value(m, policies[0], starts, 0.0, 1.0, mc)
        assert [e.mean for e in got] == list(want.mean)
        assert [e.std_error for e in got] == list(want.std_error)


def _clipped_policy(y, t):
    # one control per row, varying with the state and the time
    return np.clip(np.asarray(y, float) + t, 0.0, 1.0)


def _noise_model(dim):
    """Zero drift, discount and rewards: the states are the summed noise."""
    return hk.ControlModel(
        dim=dim, drift=lambda y, d: np.zeros(np.asarray(y).shape),
        discount_rate=lambda y, d: np.zeros(np.asarray(y).shape[:-1]),
        running_reward=lambda y, d: np.zeros(np.asarray(y).shape[:-1]),
        terminal_reward=lambda y: np.zeros(np.asarray(y).shape[:-1]),
        controls=np.array([[0.0]]), lip_L1=1.0, lip_L2=1e-6)


class TestKernel:
    @settings(max_examples=25, deadline=None)
    @given(block=st.integers(1, 7), chunk=st.integers(1, 5),
           steps=st.integers(1, 12), pairs=st.integers(1, 5),
           antithetic=st.booleans(), seed=st.integers(0, 2 ** 32 - 1),
           starts=st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=3),
           sub=st.integers(1, 8), data=st.data())
    def test_batched_slices_equal_single_runs(self, block, chunk, steps, pairs,
                                              antithetic, seed, starts, sub,
                                              data):
        m = ou_model(reward="bounded")
        policies = [lambda y, t: np.array([0.5]), _clipped_policy,
                    zero_policy()]
        mc = hk.MonteCarloConfig(paths=2 * pairs, dt=0.05, seed=seed,
                                 antithetic=antithetic)
        T = 0.05 * steps
        times = [0.05 * data.draw(st.integers(1, steps))]
        starts = np.array(starts)[:, None]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(sim, "_BLOCK", block)
            mp.setattr(sim, "_CHUNK", chunk)
            # the batch draws its increments in sub-batches of `sub` paths,
            # the single runs in one sub-batch per block
            mp.setattr(sim, "_SUB", sub)
            batch = simulate_paths(m, policies, starts, T, mc, times)
            mp.setattr(sim, "_SUB", block)
            for p, policy in enumerate(policies):
                for s, y0 in enumerate(starts):
                    one = simulate_paths(m, [policy], [y0], T, mc, times)
                    assert np.array_equal(one.times, batch.times)
                    for name in RECORDS:
                        assert np.array_equal(getattr(one, name)[0, 0],
                                              getattr(batch, name)[p, s])

    # sub-batches of one path, of two (not a divisor of the block of 3) and
    # of the whole block
    @pytest.mark.parametrize("sub", [1, 2, 64])
    @pytest.mark.parametrize("antithetic", [False, True])
    def test_chunked_increments_equal_bulk_draws(self, monkeypatch,
                                                 antithetic, sub):
        monkeypatch.setattr(sim, "_BLOCK", 3)
        monkeypatch.setattr(sim, "_CHUNK", 4)
        monkeypatch.setattr(sim, "_SUB", sub)
        steps, dim, seed = 10, 2, 7
        mc = hk.MonteCarloConfig(paths=8, dt=0.1, seed=seed,
                                 antithetic=antithetic)
        batch = simulate_paths(_noise_model(dim), [zero_policy()],
                               np.zeros((1, dim)), 1.0, mc,
                               0.1 * np.arange(1, steps + 1))
        for p in range(mc.paths):
            stream = p // 2 if antithetic else p
            z = np.random.Generator(np.random.Philox(key=[seed, stream])) \
                .standard_normal((steps, dim))
            if antithetic and p % 2:
                z = -z
            y, expected = np.zeros(dim), []
            for s in range(steps):
                y = y + np.sqrt(1.0 / steps) * z[s]
                expected.append(y)
            assert np.array_equal(batch.states[0, 0, :, p], expected)

    # the odd paths' rows of a sub-batch of 3 out of a last chunk of one
    # step form a float64 view with a 64-byte stride, which some numpy
    # builds negate as if it were contiguous
    @pytest.mark.parametrize("sub", [1, 2, 3, 64])
    def test_antithetic_partners_mirror_at_every_record(self, monkeypatch, sub):
        monkeypatch.setattr(sim, "_BLOCK", 3)
        monkeypatch.setattr(sim, "_CHUNK", 4)
        monkeypatch.setattr(sim, "_SUB", sub)
        mc = hk.MonteCarloConfig(paths=6, dt=0.2, seed=7, antithetic=True)
        batch = simulate_paths(_noise_model(1), [zero_policy()], [[0.0]], 1.0,
                               mc, 0.2 * np.arange(1, 6))
        assert batch.states.shape[2] == 5
        assert np.array_equal(batch.states[..., 1::2, :],
                              -batch.states[..., 0::2, :])

    def test_policy_error_leaves_the_callers_error_state(self, monkeypatch):
        monkeypatch.setattr(sim, "_BLOCK", 3)

        def failing(y, t):
            if t > 0.2:
                raise RuntimeError("policy failed")
            return _clipped_policy(y, t)

        mc = hk.MonteCarloConfig(paths=8, dt=0.05, seed=0)
        with np.errstate(all="raise"):
            caller = np.geterr()
            with pytest.raises(RuntimeError, match="policy failed"):
                simulate_paths(ou_model(), [failing], [[0.5]], 1.0, mc, [0.1])
            assert np.geterr() == caller

    def test_consumer_runs_in_the_callers_error_state(self, monkeypatch):
        # the kernel ignores over, invalid and divide for its own steps
        # only: every yield hands back the caller's error state
        monkeypatch.setattr(sim, "_BLOCK", 3)
        monkeypatch.setattr(sim, "_CHUNK", 4)
        mc = hk.MonteCarloConfig(paths=8, dt=0.05, seed=0)
        seen = []
        with np.errstate(all="raise"):
            caller = np.geterr()
            for lo, s, *_ in sim._march(ou_model(), [zero_policy()],
                                        np.array([[0.5]]), 10, 0.05, mc,
                                        [1, 2, 5, 10], 0.0):
                seen.append((lo, s, np.geterr()))
        assert seen == [(lo, s, caller) for lo in (0, 3, 6)
                        for s in (1, 2, 5, 10)]

    def test_memory_flat_in_horizon(self):
        m = ou_model()
        mc = hk.MonteCarloConfig(paths=2000, dt=1e-2, seed=0)

        def peak(T):
            tracemalloc.start()
            try:
                simulate_paths(m, [zero_policy()], [[1.0]], T, mc)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        # both horizons span more than one chunk of increments
        T = 3.0
        assert T / mc.dt > sim._CHUNK
        simulate_paths(m, [zero_policy()], [[1.0]], T, mc)  # warm caches
        short, long = peak(T), peak(8 * T)
        # allowance for the Python ints and floats of the longer loop; a
        # bulk draw of the increments would add 2000 * 2100 * 8 B = 34 MB
        assert long <= short + 16 * 1024


class TestReproducibility:
    def test_same_seed_bitwise_identical(self):
        m = ou_model()
        mc = hk.MonteCarloConfig(paths=500, dt=1e-2, seed=42)
        a = simulate_paths(m, [zero_policy()], [[1.0]], 1.0, mc)
        b = simulate_paths(m, [zero_policy()], [[1.0]], 1.0, mc)
        assert np.array_equal(a.states[0, 0, -1], b.states[0, 0, -1])
        assert np.array_equal(a.reward_integral[0, 0, -1],
                              b.reward_integral[0, 0, -1])

    def test_different_seed_differs(self):
        m = ou_model()
        a = simulate_paths(m, [zero_policy()], [[1.0]], 1.0,
                           hk.MonteCarloConfig(paths=100, dt=1e-2, seed=1))
        b = simulate_paths(m, [zero_policy()], [[1.0]], 1.0,
                           hk.MonteCarloConfig(paths=100, dt=1e-2, seed=2))
        assert not np.array_equal(a.states[0, 0, -1],
                                  b.states[0, 0, -1])

    def test_path_count_does_not_reshuffle_streams(self):
        # per-path counter streams: the first 100 paths of a larger run
        # coincide bitwise with a 100-path run
        m = ou_model()
        small = simulate_paths(m, [zero_policy()], [[1.0]], 1.0,
                               hk.MonteCarloConfig(paths=100, dt=1e-2, seed=9))
        large = simulate_paths(m, [zero_policy()], [[1.0]], 1.0,
                               hk.MonteCarloConfig(paths=1000, dt=1e-2, seed=9))
        assert np.array_equal(large.states[0, 0, -1, :100],
                              small.states[0, 0, -1])


def _pooled_call(seed=5, antithetic=False, policy=_clipped_policy, paths=8):
    """Two starts, ten steps and a record inside the horizon."""
    mc = hk.MonteCarloConfig(paths=paths, dt=0.05, seed=seed,
                             antithetic=antithetic)
    return simulate_paths(ou_model(reward="bounded"), [policy],
                          [[0.5], [-1.0]], 0.5, mc, [0.25])


def _cold_call(monkeypatch, **kwargs):
    """``_pooled_call`` on an empty generator pool: every stream built new."""
    monkeypatch.setattr(sim, "_POOL", {})
    return _pooled_call(**kwargs)


def _assert_same(a, b):
    assert np.array_equal(a.times, b.times)
    for name in RECORDS:
        assert np.array_equal(getattr(a, name), getattr(b, name))


@pytest.mark.parametrize("antithetic", [False, True])
class TestGeneratorPool:
    """Pooled generators replay the streams a cold pool builds, bit for bit."""

    @pytest.fixture(autouse=True)
    def short_chunks(self, monkeypatch):
        # draws between steps, where a generator shared with another
        # simulation would have moved on
        monkeypatch.setattr(sim, "_CHUNK", 3)

    def test_warm_pool(self, monkeypatch, antithetic):
        cold = _cold_call(monkeypatch, antithetic=antithetic)
        _pooled_call(seed=9, paths=20)  # leaves 20 generators mid-stream
        _assert_same(_pooled_call(antithetic=antithetic), cold)

    @pytest.mark.parametrize("seed", [2 ** 63 + 1, 2 ** 64 - 1])
    def test_warm_pool_past_the_float64_integers(self, monkeypatch,
                                                 antithetic, seed):
        # a new generator must not read the seed through float64, which
        # rounds it and so draws a stream no re-keyed generator draws
        cold = _cold_call(monkeypatch, seed=seed, antithetic=antithetic)
        _pooled_call(seed=9, paths=20)
        _assert_same(_pooled_call(seed=seed, antithetic=antithetic), cold)

    def test_after_a_policy_raised_mid_march(self, monkeypatch, antithetic):
        cold = _cold_call(monkeypatch, antithetic=antithetic)

        def failing(y, t):
            if t > 0.2:
                raise RuntimeError("policy failed")
            return _clipped_policy(y, t)

        with pytest.raises(RuntimeError, match="policy failed"):
            _pooled_call(seed=9, antithetic=antithetic, policy=failing)
        assert len(sim._POOL["gens"]) == 8  # handed back by the failed block
        _assert_same(_pooled_call(antithetic=antithetic), cold)

    def test_policy_that_simulates(self, monkeypatch, antithetic):
        cold_inner = _cold_call(monkeypatch, seed=11, antithetic=antithetic)
        cold = _cold_call(monkeypatch, antithetic=antithetic)
        inner = []

        def nesting(y, t):
            inner.append(_pooled_call(seed=11, antithetic=antithetic))
            return _clipped_policy(y, t)

        _assert_same(_pooled_call(antithetic=antithetic, policy=nesting), cold)
        assert len(inner) == 10
        for batch in inner:
            _assert_same(batch, cold_inner)

    def test_threads_equal_serial_calls(self, monkeypatch, antithetic):
        seeds = [1, 2, 3, 4]  # more threads than cores
        serial = {seed: _cold_call(monkeypatch, seed=seed,
                                   antithetic=antithetic) for seed in seeds}
        results = {seed: [] for seed in seeds}

        def work(seed):
            for _ in range(5):
                results[seed].append(_pooled_call(seed=seed,
                                                  antithetic=antithetic))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(seed,))
                       for seed in seeds]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for seed in seeds:
            assert len(results[seed]) == 5
            for batch in results[seed]:
                _assert_same(batch, serial[seed])
        assert len(sim._POOL["gens"]) == 8

    def test_three_blocks(self, monkeypatch, antithetic):
        cold = _cold_call(monkeypatch, antithetic=antithetic)
        monkeypatch.setattr(sim, "_POOL", {})
        monkeypatch.setattr(sim, "_BLOCK", 3)  # blocks of 3, 3 and 2 paths
        _assert_same(_pooled_call(antithetic=antithetic), cold)
        assert len(sim._POOL["gens"]) <= sim._BLOCK


def _nine_control_model():
    """dim 1 and k = 9: a discount rate and a drift reading every column."""
    rng = np.random.default_rng(9)
    return hk.load_model({
        "dim": 1, "controls": rng.uniform(-1.0, 1.0, (2, 9)).tolist(),
        "drift": {"kind": "affine", "y_matrix": [[-1.0]],
                  "delta_matrix": [(0.1 * rng.standard_normal(9)).tolist()]},
        "discount_rate": {"kind": "affine", "const": -0.5,
                          "delta_coeff": rng.standard_normal(9).tolist()},
        "running_reward": {"kind": "constant", "value": 1.0},
        "terminal_reward": {"kind": "constant", "value": 0.0},
        "L1": 1.0, "L2": -1.0})


def _spy_model(k, seen):
    """Zero coefficients that note whether each control column is contiguous."""
    def spy(shape):
        def coefficient(y, delta):
            delta = np.asarray(delta)
            seen.append(all(delta[..., j].flags.c_contiguous for j in range(k)))
            return np.zeros(shape(np.shape(y)))
        return coefficient

    return hk.ControlModel(
        dim=1, drift=spy(lambda s: s), discount_rate=spy(lambda s: s[:-1]),
        running_reward=spy(lambda s: s[:-1]),
        terminal_reward=lambda y: np.zeros(np.shape(y)[:-1]),
        controls=np.zeros((1, k)), lip_L1=1.0, lip_L2=-1.0)


class TestControlLayout:
    def test_nine_control_log_discounts_equal_a_row_major_reference(self):
        # numpy reduces 8 or more columns in another order when the product
        # is not C-contiguous, so this fails if the layout leaks into a row
        model, steps, dt = _nine_control_model(), 6, 0.25
        mc = hk.MonteCarloConfig(paths=300, dt=dt, seed=3)
        starts = np.array([[-0.5], [1.0]])
        policies = [lambda y, t: np.sin(y[..., :1] * np.arange(1.0, 10.0) + t),
                    lambda y, t: model.controls[1]]
        batch = simulate_paths(model, policies, starts, steps * dt, mc,
                               dt * np.arange(1, steps + 1), reward=False)
        before = np.concatenate(
            [np.broadcast_to(starts[:, None, None], (2, 2, 1, mc.paths, 1)),
             batch.states[:, :, :-1]], axis=2)
        ld = np.zeros((2, 2, mc.paths))
        for r in range(steps):
            d = np.ascontiguousarray(batch.deltas[:, :, r]).reshape(-1, 9)
            h = model.discount_rate(before[:, :, r].reshape(-1, 1), d)
            ld = ld + h.reshape(ld.shape) * dt
            assert np.array_equal(ld.view(np.uint64),
                                  batch.log_discount[:, :, r].view(np.uint64))

    @pytest.mark.parametrize("reward", [True, False])
    def test_every_control_column_a_coefficient_reads_is_contiguous(self, reward):
        seen = []
        mc = hk.MonteCarloConfig(paths=5, dt=0.1, seed=0)
        simulate_paths(_spy_model(3, seen),
                       [lambda y, t: np.repeat(y, 3, axis=-1), lambda y, t: [1, 2, 3]],
                       [[0.0], [1.0]], 0.3, mc, reward=reward)
        assert len(seen) == 3 * (3 if reward else 2) and all(seen)


def test_simulate_paths_signature():
    # perfbench's tracer reads T and mc as the positional args[3] and args[4]
    params = list(inspect.signature(simulate_paths).parameters)
    assert params[:5] == ["model", "policies", "starts", "T", "mc"]
    # the generators live in the pool: no function carries them across calls
    assert [name for name, fn in inspect.getmembers(sim, inspect.isfunction)
            if "kept" in inspect.signature(fn).parameters] == []


class TestRecordTimes:
    def test_labelled_at_the_simulated_step(self):
        # dt 0.1: 0.125 is simulated at step 1 and 0.375 at step 4; 0.3 is
        # 3 dt to rounding and keeps its requested label
        m = ou_model()
        mc = hk.MonteCarloConfig(paths=20, dt=0.1, seed=1)
        batch = simulate_paths(m, [zero_policy()], [[0.5]], 2.0, mc,
                               [0.125, 0.375, 0.3])
        assert batch.times.tolist() == [0.1, 0.4, 0.3, 2.0]
        steps = simulate_paths(m, [zero_policy()], [[0.5]], 2.0, mc,
                               [0.1, 0.4, 0.3])
        _assert_same(batch, steps)

    def test_time_before_the_first_step(self):
        m = ou_model()
        mc = hk.MonteCarloConfig(paths=20, dt=0.1, seed=1)
        with pytest.raises(RecordTimeError, match="0.03 lies before") as exc:
            simulate_paths(m, [zero_policy()], [[0.5]], 0.5, mc, [0.03, 0.5])
        assert isinstance(exc.value, ParameterError)
        for t in (0.0, -0.2, 0.6):
            with pytest.raises(ParameterError, match=r"\(0, T\]"):
                simulate_paths(m, [zero_policy()], [[0.5]], 0.5, mc, [t])

    def test_horizons_labelled_at_the_simulated_step(self):
        # dt 0.1: 0.15 is simulated at step 1, where the integral of f = 1
        # is 0.1; the tail integral is taken between the simulated times
        m = constant_model(f=1.0, h=0.0)
        mc = hk.MonteCarloConfig(paths=10, dt=0.1, seed=0)
        tab = hk.KappaTable(t=[0.0, 1.0], kappa=[1.0, 0.0], p_terminal=[0, 0],
                            policy_ids=[0, 0], radius_n=0, policies_probed="",
                            integral_kappa=0.5, integral_weighted=0.5,
                            envelope_K=1.0, envelope_M=0.0, decay_rate=-1.0)
        rep = hk.horizon_convergence(m, zero_policy(), [0.5], [0.15, 0.5],
                                     mc, kappa_table=tab)
        assert rep.horizons.tolist() == [0.1, 0.5]
        assert [r.horizon for r in rep.results] == [0.1, 0.5]
        assert rep.results[0].mean == pytest.approx(0.1)
        assert rep.tail_bound == tab.integral(0.1, 0.5) != tab.integral(0.15, 0.5)

    @pytest.mark.parametrize("horizons", [[0.1, 0.12, 0.3],
                                          [0.1, 0.1 + 1e-10, 0.3]])
    def test_horizons_on_one_step_rejected(self, horizons):
        # both first horizons are read at Euler step 1 of 0.1: their
        # difference would be 0 by construction, not a sign of convergence
        m = constant_model(f=1.0, h=0.0)
        mc = hk.MonteCarloConfig(paths=10, dt=0.1, seed=0)
        with pytest.raises(ParameterError, match="Euler step 1 of 0.1"):
            hk.horizon_convergence(m, zero_policy(), [0.5], horizons, mc)

    def test_bound_rows_at_the_simulated_step(self):
        m = ou_model()
        spec = hk.UniformDiscountBound(w=1.0, L1=1.0, L2=-1.0)
        mc = hk.MonteCarloConfig(paths=200, dt=0.1, seed=0)
        off = hk.verify_bounds(m, spec, [0.5], 1.0, mc, times=[0.125, 0.375])
        on = hk.verify_bounds(m, spec, [0.5], 1.0, mc, times=[0.1, 0.4])
        assert [r["t"] for r in off.rows[:2]] == [0.1, 0.4]
        assert off.rows == on.rows


class TestAntithetic:
    def test_pairs_mirror_the_noise(self):
        # linear drift: the pair sum is the deterministic recursion
        m = ou_model()
        mc = hk.MonteCarloConfig(paths=200, dt=1e-2, seed=5, antithetic=True)
        batch = simulate_paths(m, [zero_policy()], [[1.0]], 1.0, mc)
        y_final = batch.states[0, 0, -1]
        pair_mean = 0.5 * (y_final[0::2] + y_final[1::2])
        det = 1.0 * (1 - mc.dt) ** 100
        assert np.allclose(pair_mean, det, atol=1e-12)

    def test_antithetic_requires_even_paths(self):
        with pytest.raises(ParameterError):
            hk.MonteCarloConfig(paths=101, dt=1e-2, seed=5, antithetic=True)

    def test_negative_seed_rejected(self):
        # Philox keys are unsigned: -1 would wrap to a different stream
        with pytest.raises(ParameterError, match="seed"):
            hk.MonteCarloConfig(paths=10, dt=1e-2, seed=-1)

    def test_seed_past_one_key_word_rejected(self):
        hk.MonteCarloConfig(paths=10, dt=1e-2, seed=2 ** 64 - 1)
        with pytest.raises(ParameterError, match="seed"):
            hk.MonteCarloConfig(paths=10, dt=1e-2, seed=2 ** 64)

    def test_variance_reduction_on_smooth_payoff(self):
        m = ou_model()
        plain, = hk.estimate_value(m, zero_policy(), [[1.0]], 0.0, 1.0,
                                   hk.MonteCarloConfig(paths=4000, dt=5e-3,
                                                       seed=3))
        anti, = hk.estimate_value(m, zero_policy(), [[1.0]], 0.0, 1.0,
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


def reduce_oracle(samples, excluded, antithetic):
    """Per-row 1-D means and standard errors over the kept samples.

    ``samples`` is ``(P, S, R, paths)``; ``excluded`` masks ``(P, S, paths)``.
    """
    mean = np.empty(samples.shape[:-1])
    se = np.empty_like(mean)
    for idx in np.ndindex(mean.shape):
        vals, excl = samples[idx], excluded[idx[:2]]
        if antithetic:
            keep = ~(excl[0::2] | excl[1::2])
            vals = 0.5 * (vals[0::2][keep] + vals[1::2][keep])
        else:
            vals = vals[~excl]
        mean[idx] = np.mean(vals)
        se[idx] = np.std(vals, ddof=1) / np.sqrt(len(vals))
    return mean, se


class TestReduce:
    @pytest.mark.parametrize("antithetic", [False, True])
    def test_matches_row_oracle_bit_for_bit(self, antithetic):
        # (policy, start, record, path) samples; two groups exclude paths
        # within the budget of 2 in 2000, the others exclude none
        mc = hk.MonteCarloConfig(paths=2000, dt=1e-2, seed=0,
                                 antithetic=antithetic)
        rng = np.random.default_rng(7)
        samples = np.exp(rng.normal(size=(3, 2, 4, 2000)))
        excluded = np.zeros((3, 2, 2000), dtype=bool)
        excluded[1, 0, [5, 1200]] = True
        excluded[2, 1, 999] = True
        samples[np.broadcast_to(excluded[:, :, None], samples.shape)] = np.nan
        res = _reduce(samples, excluded[:, :, None], mc, 1.0)
        mean, se = reduce_oracle(samples, excluded, antithetic)
        assert np.array_equal(res.mean, mean)
        assert np.array_equal(res.std_error, se)
        assert res.excluded.shape == mean.shape
        assert res.excluded[1, 0, 0] == 2 and res.excluded[2, 1, 3] == 1
        assert res.excluded.sum() == 4 * 3

    def test_budget_applies_per_mask_row(self):
        mc = hk.MonteCarloConfig(paths=2000, dt=1e-2, seed=0)
        excluded = np.zeros((2, 2000), dtype=bool)
        excluded[1, :3] = True      # 3 > 0.1% of 2000 in one row only
        with pytest.raises(PathExclusionError) as exc:
            _reduce(np.ones((2, 5, 2000)), excluded[:, None], mc, 1.0)
        assert (exc.value.excluded, exc.value.total) == (3, 2000)


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
            hk.estimate_value(m, zero_policy(), [[3.0]], 0.0, 5.0, mc)[0]
        assert exc.value.excluded > 0


class TestEstimateValue:
    def test_constant_model_closed_form(self):
        # value = (1 - e^{-T}) exactly; only quadrature bias remains
        m = constant_model()
        mc = hk.MonteCarloConfig(paths=100, dt=1e-3, seed=0)
        est = hk.estimate_value(m, zero_policy(), [[0.0]], 0.0, 1.0, mc)[0]
        assert abs(est.mean - (1 - np.exp(-1.0))) < 1e-3

    def test_terminal_reward_included(self):
        m = constant_model(f=0.0, h=-1.0, g=1.0)
        mc = hk.MonteCarloConfig(paths=100, dt=1e-3, seed=0)
        est = hk.estimate_value(m, zero_policy(), [[0.0]], 0.0, 1.0, mc)[0]
        assert est.mean == pytest.approx(np.exp(-1.0), abs=1e-12)

    def test_start_time_shortens_the_window(self):
        m = constant_model()
        mc = hk.MonteCarloConfig(paths=100, dt=1e-3, seed=0)
        est = hk.estimate_value(m, zero_policy(), [[0.0]], 0.5, 1.0, mc)[0]
        assert abs(est.mean - (1 - np.exp(-0.5))) < 1e-3

    def test_result_serializes(self):
        m = constant_model()
        mc = hk.MonteCarloConfig(paths=100, dt=1e-2, seed=0)
        est = hk.estimate_value(m, zero_policy(), [[0.0]], 0.0, 1.0, mc)[0]
        d = est.as_dict()
        assert set(d) >= {"mean", "std_error", "paths", "seed", "horizon"}


def _cubic_model():
    def drift(y, d):
        y = np.asarray(y, float)
        return -y - y ** 3

    return hk.ControlModel(
        dim=1, drift=drift,
        discount_rate=lambda y, d: np.full(np.asarray(y).shape[:-1], -1.0),
        running_reward=lambda y, d: np.ones(np.asarray(y).shape[:-1]),
        terminal_reward=lambda y: np.zeros(np.asarray(y).shape[:-1]),
        controls=np.array([[0.0]]), lip_L1=1.0, lip_L2=-1.0)


class TestCoupling:
    def test_linear_drift_discrete_ratio_is_one(self):
        m = ou_model()
        mc = hk.MonteCarloConfig(paths=200, dt=1e-2, seed=0)
        rep = hk.coupled_contraction(m, zero_policy(), [1.0], [0.25], 2.0, mc)
        assert abs(rep.worst_ratio_discrete - 1.0) < 1e-12

    def test_cubic_drift_contracts_within_tolerance(self):
        mc = hk.MonteCarloConfig(paths=1000, dt=1e-2, seed=0)
        rep = hk.coupled_contraction(_cubic_model(), zero_policy(), [1.5],
                                     [0.5], 2.0, mc)
        assert rep.worst_ratio <= 1.0 + 10 * mc.dt
        assert rep.initial_distance == pytest.approx(1.0)

    def test_blocks_reduce_like_one_block(self, monkeypatch):
        # distances differ across paths, so each block's extremes matter
        mc = hk.MonteCarloConfig(paths=10, dt=0.05, seed=2)
        args = (_cubic_model(), zero_policy(), [1.5], [0.5], 1.0, mc)
        whole = hk.coupled_contraction(*args)
        monkeypatch.setattr(sim, "_BLOCK", 3)
        monkeypatch.setattr(sim, "_CHUNK", 4)
        blocks = hk.coupled_contraction(*args)
        assert np.ptp(whole.path_spread) > 0
        for name, value in vars(whole).items():
            assert np.array_equal(getattr(blocks, name), value), name

    def test_identical_starts_rejected(self):
        m = ou_model()
        mc = hk.MonteCarloConfig(paths=10, dt=1e-2, seed=0)
        with pytest.raises(ParameterError):
            hk.coupled_contraction(m, zero_policy(), [1.0], [1.0], 1.0, mc)

    @pytest.mark.parametrize("T", [0.0, -1.0, float("nan")])
    def test_non_positive_horizon_rejected(self, T):
        # T = 0 read a vacuous worst ratio 1 off one zero-length step, and
        # T = -1 a NaN after a sqrt warning
        mc = hk.MonteCarloConfig(paths=10, dt=1e-2, seed=0)
        with pytest.raises(ParameterError, match="T must be positive"):
            hk.coupled_contraction(ou_model(), zero_policy(), [1.0], [0.25],
                                   T, mc)

    @pytest.mark.parametrize("L2", [-800.0, -20.0, 800.0])
    def test_bound_that_reaches_zero_or_inf_rejected(self, L2):
        # e^{L2 t} underflows at -800 and overflows at 800, and 1 + L2 dt is
        # 0 at -20: each divided by zero or warned in exp
        m = dataclasses.replace(ou_model(), lip_L2=L2)
        mc = hk.MonteCarloConfig(paths=10, dt=0.05, seed=0)
        with pytest.raises(ParameterError, match=r"L2 .*, T 1\.0, dt 0\.05"):
            hk.coupled_contraction(m, zero_policy(), [1.0], [0.25], 1.0, mc)

    def test_memory_flat_in_horizon(self):
        m = ou_model()
        mc = hk.MonteCarloConfig(paths=500, dt=1e-2, seed=0)

        def peak(T):
            tracemalloc.start()
            try:
                hk.coupled_contraction(m, zero_policy(), [1.0], [0.25], T, mc)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        T = 3.0
        hk.coupled_contraction(m, zero_policy(), [1.0], [0.25], T, mc)
        short, long = peak(T), peak(8 * T)
        # the report and its reductions hold a few floats per step; a record
        # of every step would add 2 starts x 500 paths x 4 floats per step
        extra_steps = 7 * T / mc.dt
        assert long <= short + 8 * 8 * extra_steps + 16 * 1024


class TestStepCount:
    @pytest.mark.parametrize("T, dt", [(1.0, 1e-300), (1e300, 1e-2),
                                       (2.0 ** 64, 1.0)])
    def test_step_count_past_int64_rejected(self, T, dt):
        # the step marks are int64: past it they warned in the cast and
        # named a record time, or looped on an object array
        mc = hk.MonteCarloConfig(paths=4, dt=dt, seed=0)
        with pytest.raises(ParameterError, match="overflows int64") as exc:
            simulate_paths(ou_model(), [zero_policy()], [[0.0]], T, mc, [T / 2])
        assert repr(T) in str(exc.value) and repr(dt) in str(exc.value)

    def test_numpy_horizon_past_int64_rejected_without_a_warning(self):
        mc = hk.MonteCarloConfig(paths=4, dt=np.float64(1e-300), seed=0)
        with pytest.raises(ParameterError, match="overflows int64"):
            hk.estimate_value(ou_model(), zero_policy(), [[0.0]], 0.0,
                              np.float64(1e300), mc)

    def test_largest_count_below_int64_accepted(self):
        assert sim._steps_for(2.0 ** 63 - 1024, 1.0)[0] == 2 ** 63 - 1024


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
        tab = hk.estimate_kappa(m, 1, 4.0, hk.MonteCarloConfig(
            paths=400, dt=2e-2, seed=1))
        rep = hk.horizon_convergence(m, zero_policy(), [0.5],
                                     [1.0, 2.0, 4.0], mc, kappa_table=tab)
        assert rep.tail_bound is not None
        assert rep.within_tail

    @pytest.mark.parametrize("horizons", [[], [1.0]])
    def test_fewer_than_two_horizons_rejected(self, horizons):
        mc = hk.MonteCarloConfig(paths=10, dt=0.1, seed=0)
        with pytest.raises(ParameterError, match="at least two horizons"):
            hk.horizon_convergence(ou_model(), zero_policy(), [0.5],
                                   horizons, mc)

    def test_two_horizons_do_not_claim_convergence(self):
        # one difference has nothing to shrink against
        mc = hk.MonteCarloConfig(paths=10, dt=0.1, seed=0)
        rep = hk.horizon_convergence(ou_model(), zero_policy(), [0.5],
                                     [1.0, 2.0], mc)
        assert len(rep.differences) == 1
        assert rep.converging is None


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

    def test_scalar_start(self):
        m = ou_model()
        spec = hk.ExponentialEnvelopeBound(K=3.0, M=1.0)
        mc = hk.MonteCarloConfig(paths=200, dt=1e-2, seed=0)
        assert hk.verify_bounds(m, spec, 0.5, 1.0, mc).rows \
            == hk.verify_bounds(m, spec, [0.5], 1.0, mc).rows

    def test_control_groups_match_one_call(self, monkeypatch):
        m = ou_model()
        spec = hk.UniformDiscountBound(w=1.0, L1=1.0, L2=-1.0)
        mc = hk.MonteCarloConfig(paths=200, dt=1e-2, seed=0)
        whole = hk.verify_bounds(m, spec, [0.5], 1.0, mc)
        # a budget below one control's records: one control per group
        monkeypatch.setattr(sim, "_RECORD_BYTES", 1)
        grouped = hk.verify_bounds(m, spec, [0.5], 1.0, mc)
        assert [r["control_index"] for r in grouped.rows][::4] == [0, 1, 2]
        assert grouped.rows == whole.rows

    @pytest.mark.parametrize("antithetic", [False, True])
    @pytest.mark.parametrize("statistic", ["discount", "discounted_reward",
                                           "discounted_moments"])
    def test_control_groups_match_one_call_per_statistic(
            self, monkeypatch, statistic, antithetic):
        # |f| and |g| cross 1, so the moments' floor at 1 is exercised
        m = dataclasses.replace(
            ou_model(),
            running_reward=lambda y, d: np.sum(y ** 2 - d, axis=-1),
            terminal_reward=lambda y: 2.0 * np.sum(y, axis=-1))
        mc = hk.MonteCarloConfig(paths=200, dt=1e-2, seed=5,
                                 antithetic=antithetic)

        def estimates():
            return sim.discounted_estimates(m, [[0.5], [-1.5]], 1.0, mc,
                                            [0.25, 0.5], statistic)

        whole = estimates()
        monkeypatch.setattr(sim, "_RECORD_BYTES", 1)  # one control per group
        grouped = estimates()
        assert list(grouped) == list(whole)
        for factor, est in whole.items():
            assert est.mean.shape == (3, 2, 3)
            for name in ("mean", "std_error", "excluded"):
                assert np.array_equal(getattr(grouped[factor], name),
                                      getattr(est, name)), (factor, name)

    def test_moment_samples_peak_near_their_records(self):
        # the kappa shape of the benchmark: ou_model.json, its 3 constant
        # policies, 7 starts, 16 record times up to the horizon 4
        m = hk.load_model(DATA + "/ou_model.json")
        policies = hk.constant_policies(m)
        starts = np.linspace(-2.0, 2.0, 7)[:, None]
        mc = hk.MonteCarloConfig(paths=300, dt=1e-2, seed=0)
        args = (starts, 4.0, mc, np.linspace(0.25, 4.0, 16))
        batch = simulate_paths(m, policies, *args, reward=False)
        records = sum(getattr(batch, name).nbytes for name in
                      ("states", "deltas", "log_discount", "excluded"))
        del batch
        sim.discounted_estimates(m, *args, "discounted_moments")  # warm caches
        tracemalloc.start()
        try:
            sim.discounted_estimates(m, *args, "discounted_moments")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the records plus one sample row are 4/3 of the records; building
        # each factor by whole-array expressions holds 3x
        assert peak <= 1.5 * records

    @pytest.mark.parametrize("antithetic", [False, True])
    def test_control_groups_build_each_stream_once(self, monkeypatch,
                                                   antithetic):
        m = ou_model(controls=((0.0,), (1.0,)), reward="bounded")
        mc = hk.MonteCarloConfig(paths=200, dt=1e-2, seed=4,
                                 antithetic=antithetic)

        def estimates():
            return sim.discounted_estimates(m, [[0.5]], 1.0, mc,
                                            [0.5], "discounted_reward")["f"]

        whole = estimates()
        built, groups = [], []
        philox, simulate = np.random.Philox, sim.simulate_paths

        def counted(*args, **kwargs):
            built.append(kwargs["key"])
            return philox(*args, **kwargs)

        def recorded(model, policies, *args, **kwargs):
            groups.append(len(policies))
            return simulate(model, policies, *args, **kwargs)

        monkeypatch.setattr(sim.np.random, "Philox", counted)
        monkeypatch.setattr(sim, "simulate_paths", recorded)
        monkeypatch.setattr(sim, "_BLOCK", 64)  # four blocks of paths
        monkeypatch.setattr(sim, "_RECORD_BYTES", 1)  # one control per group
        monkeypatch.setattr(sim, "_POOL", {})  # a cold pool
        grouped = estimates()
        assert groups == [1, 1]
        # one block's generators, re-keyed by every later block and group
        assert 0 < len(built) <= sim._BLOCK
        built.clear()
        warm = estimates()
        assert built == []
        for name in ("mean", "std_error", "excluded"):
            assert np.array_equal(getattr(grouped, name), getattr(whole, name))
            assert np.array_equal(getattr(warm, name), getattr(whole, name))

    def test_envelope_bound(self):
        m = ou_model()
        spec = hk.ExponentialEnvelopeBound(K=3.0, M=1.0)
        mc = hk.MonteCarloConfig(paths=2000, dt=1e-2, seed=0)
        rep = hk.verify_bounds(m, spec, [0.5], 1.0, mc)
        assert rep.met
        assert {"t", "factor", "estimate", "bound", "met"} <= set(rep.rows[0])

    def test_antithetic_rows_reduce_pairs(self):
        # a pair is one sample: the standard error is that of pair means
        m = hk.ControlModel(
            dim=1, drift=lambda y, d: 1.0 - np.asarray(y, float),
            discount_rate=lambda y, d: -2.0 + np.sum(np.asarray(y, float),
                                                     axis=-1),
            running_reward=lambda y, d: np.ones(np.asarray(y).shape[:-1]),
            terminal_reward=lambda y: np.zeros(np.asarray(y).shape[:-1]),
            controls=np.array([[0.0], [1.0]]), lip_L1=1.0, lip_L2=-1.0)
        spec = hk.DriftDiscountBound(alpha=1.0, beta=1.0, P=2.0, Q=1.0)
        mc = hk.MonteCarloConfig(paths=400, dt=1e-2, seed=2, antithetic=True)
        times = [0.5, 1.0]
        rep = hk.verify_bounds(m, spec, [0.0], 1.0, mc, times=times)
        batch = simulate_paths(m, hk.constant_policies(m), [[0.0]], 1.0, mc,
                               times)
        assert len(rep.rows) == 4
        for row in rep.rows:
            disc = np.exp(batch.log_discount[row["control_index"], 0,
                                             times.index(row["t"])])
            pairs = 0.5 * (disc[0::2] + disc[1::2])
            assert row["estimate"] == np.mean(pairs)
            assert row["std_error"] == \
                np.std(pairs, ddof=1) / np.sqrt(len(pairs))

    def test_discount_bound_evaluates_no_reward_on_records(self):
        # the statistic e^{int h} needs neither f nor g, and the Euler
        # loop skips the reward integral it never reads: nothing calls them
        base = ou_model()
        rows = {"running": [], "terminal": []}

        def running(y, d):
            rows["running"].append(len(y))
            return base.running_reward(y, d)

        def terminal(y):
            rows["terminal"].append(len(y))
            return base.terminal_reward(y)

        m = dataclasses.replace(base, running_reward=running,
                                terminal_reward=terminal)
        spec = hk.DriftDiscountBound(alpha=1.0, beta=0.5, P=0.5, Q=0.0)
        mc = hk.MonteCarloConfig(paths=100, dt=0.1, seed=0)
        rep = hk.verify_bounds(m, spec, [0.5], 1.0, mc)
        assert rep.met
        assert rows["terminal"] == []
        assert rows["running"] == []

    def test_discount_bound_ignores_an_overflowing_reward(self):
        # f = 1e308 overflows the reward integral on every path while the
        # states and discounts stay finite.  e^{int h} never reads that
        # integral, so no path is dropped for it: dropping them would keep
        # only the paths whose discount grew least
        base = hk.ControlModel(
            dim=1, drift=lambda y, d: np.asarray(d, float) - np.asarray(y, float),
            discount_rate=lambda y, d: 1.0 + 0.5 * np.sum(
                np.asarray(y, float), axis=-1),
            running_reward=lambda y, d: np.ones(np.asarray(y).shape[:-1]),
            terminal_reward=lambda y: np.zeros(np.asarray(y).shape[:-1]),
            controls=np.array([[0.0], [0.5]]), lip_L1=1.0, lip_L2=-1.0)
        huge = dataclasses.replace(
            base, running_reward=lambda y, d: np.full(np.asarray(y).shape[:-1],
                                                      1e308))
        spec = hk.DriftDiscountBound(alpha=1.0, beta=0.5, P=-1.0, Q=0.5)
        mc = hk.MonteCarloConfig(paths=400, dt=1e-2, seed=3)
        batch = simulate_paths(huge, hk.constant_policies(huge), [[0.0]], 2.0,
                               mc)
        assert np.all(np.isfinite(batch.states))
        assert np.all(np.isfinite(batch.log_discount))
        assert not np.any(np.isfinite(batch.reward_integral[:, :, -1]))
        assert batch.excluded.all()
        rep = hk.verify_bounds(huge, spec, [0.0], 2.0, mc)
        assert rep.rows == hk.verify_bounds(base, spec, [0.0], 2.0, mc).rows
        assert rep.met


class TestLoadBounds:
    DOC = {"kind": "diffusion_discount", "w": 1, "L2": -1.0, "y0": [1.0],
           "T": 2, "times": [0.5, 1, 2.0]}

    def test_path_open_file_and_mapping(self, tmp_path):
        path = tmp_path / "bounds.json"
        path.write_text(json.dumps(self.DOC))
        with open(path) as fh:
            loaded = [hk.load_bounds(path), hk.load_bounds(str(path)),
                      hk.load_bounds(fh), hk.load_bounds(self.DOC)]
        for bound, y0, T, times in loaded:
            assert bound == hk.DiffusionDiscountBound(w=1.0, L2=-1.0)
            assert y0.tolist() == [1.0] and T == 2.0
            assert times.tolist() == [0.5, 1.0, 2.0]

    def test_defaults(self):
        bound, y0, T, times = hk.load_bounds({"kind": "envelope", "K": 3,
                                              "M": 1, "times": None})
        assert bound == hk.ExponentialEnvelopeBound(K=3.0, M=1.0)
        assert (y0, T, times) == (0.0, None, None)

    @pytest.mark.parametrize("kind, cls", [
        ("drift_discount", hk.DriftDiscountBound),
        ("uniform_discount", hk.UniformDiscountBound),
        ("diffusion_discount", hk.DiffusionDiscountBound),
        ("envelope", hk.ExponentialEnvelopeBound)])
    def test_every_kind_reads_its_fields(self, kind, cls):
        names = [f.name for f in dataclasses.fields(cls)]
        values = [i + 0.5 for i in range(len(names))]
        doc = dict(zip(names, values), kind=kind)
        assert hk.load_bounds(doc)[0] == cls(*values)

    @pytest.mark.parametrize("change, message", [
        ({"kind": "wrong"}, "unknown bound kind 'wrong'"),
        ({"kind": ["envelope"]}, "unknown bound kind ['envelope']"),
        ({"T": None}, "bounds file: T must be a number"),
        ({"w": float("inf")}, "bounds file: w must be a number"),
        ({"y0": [[1.0]]}, "bounds file: y0 must be a number")])
    def test_rejected(self, change, message):
        with pytest.raises(ParameterError) as exc:
            hk.load_bounds(dict(self.DOC, **change))
        assert message in str(exc.value)


class TestRewardFreeEstimates:
    """``discounted_estimates`` simulates without the reward integral."""

    @pytest.mark.parametrize("antithetic", [False, True])
    @pytest.mark.parametrize("statistic", ["discount", "discounted_reward",
                                           "discounted_moments"])
    def test_equal_to_records_with_reward(self, monkeypatch, statistic,
                                          antithetic):
        m = dataclasses.replace(
            ou_model(reward="bounded"),
            discount_rate=lambda y, d: 0.5 * np.sum(np.asarray(y, float),
                                                    axis=-1) - 1.0,
            terminal_reward=lambda y: np.sum(np.asarray(y, float) ** 3,
                                             axis=-1))
        policies = hk.constant_policies(m)
        starts, times, T = [[-0.5], [1.0]], [0.25, 0.5], 1.0
        mc = hk.MonteCarloConfig(paths=60, dt=0.05, seed=5,
                                 antithetic=antithetic)
        calls, simulate = [], sim.simulate_paths

        def recorded(model, policies, *args, **kwargs):
            calls.append((len(policies), kwargs.get("reward", True)))
            return simulate(model, policies, *args, **kwargs)

        monkeypatch.setattr(sim, "_BLOCK", 16)  # four blocks of paths
        monkeypatch.setattr(sim, "_RECORD_BYTES", 1)  # one policy per group
        monkeypatch.setattr(sim, "simulate_paths", recorded)
        est = sim.discounted_estimates(m, starts, T, mc, times, statistic)
        assert calls == [(1, False)] * len(policies)

        batch = simulate(m, policies, starts, T, mc, times)
        disc = np.exp(batch.log_discount)
        f = sim._per_row(m.running_reward, batch.states, batch.deltas)
        g = sim._per_row(m.terminal_reward, batch.states)
        samples = {
            "discount": {"unit": disc},
            "discounted_reward": {"f": disc * f},
            "discounted_moments": {"f": disc * np.maximum(np.abs(f), 1.0),
                                   "g": disc * np.maximum(np.abs(g), 1.0)},
        }[statistic]
        assert est.keys() == samples.keys()
        for factor, v in samples.items():
            want = _reduce(v, batch.excluded[:, :, None], mc, T)
            for name in ("mean", "std_error", "excluded"):
                assert np.array_equal(getattr(est[factor], name),
                                      getattr(want, name))

    def test_records_without_reward_equal_those_with_it(self):
        m = ou_model(reward="bounded")
        mc = hk.MonteCarloConfig(paths=30, dt=0.05, seed=2, antithetic=True)
        args = (m, hk.constant_policies(m), [[0.0], [1.5]], 1.0, mc, [0.5])
        full = simulate_paths(*args)
        bare = simulate_paths(*args, reward=False)
        assert bare.reward_integral is None
        for name in ("times", "states", "log_discount", "deltas", "excluded"):
            assert np.array_equal(getattr(bare, name), getattr(full, name))

    def test_excluded_covers_what_was_accumulated(self):
        # a discount that overflows excludes a path with or without the
        # reward integral
        m = constant_model(h=1e308)
        mc = hk.MonteCarloConfig(paths=4, dt=1.0, seed=0)
        for reward in (True, False):
            batch = simulate_paths(m, [zero_policy()], [[0.0]], 4.0, mc,
                                   reward=reward)
            assert not np.isfinite(batch.log_discount[..., -1, :]).any()
            assert batch.excluded.all()

    def test_unknown_statistic_simulates_nothing(self):
        base = ou_model()
        calls = []

        def drift(y, d):
            calls.append(len(y))
            return base.drift(y, d)

        m = dataclasses.replace(base, drift=drift)
        mc = hk.MonteCarloConfig(paths=10, dt=0.1, seed=0)
        with pytest.raises(ParameterError, match="unknown statistic"):
            sim.discounted_estimates(m, [[0.0]], 1.0, mc, [0.5], "moments")
        assert calls == []


def loop_records(model, policies, starts, steps, dt, mc):
    """Per-policy Euler loops on the kernel's Philox streams: the oracle.

    Returns ``(states, log_discount, reward_integral, deltas)`` after every
    step, indexed ``[policy, start, path, step]``.
    """
    N = model.dim
    z = np.array([np.random.Generator(np.random.Philox(
        key=[mc.seed, i // 2 if mc.antithetic else i])).standard_normal((steps, N))
        for i in range(mc.paths)])
    if mc.antithetic:
        z[1::2] = -z[1::2]
    noise = np.sqrt(dt) * z
    out = []
    for policy in policies:
        y = np.repeat(np.asarray(starts, float), mc.paths, axis=0)
        ld = np.zeros(len(y))
        rw = np.zeros(len(y))
        steps_out = []
        for s in range(steps):
            d = np.asarray(policy(y, s * dt), float)
            drift = model.drift(y, d)
            hv = model.discount_rate(y, d)
            fv = model.running_reward(y, d)
            rw = rw + np.exp(ld) * fv * dt
            ld = ld + hv * dt
            y = y + drift * dt + np.tile(noise[:, s], (len(starts), 1))
            steps_out.append((y, ld, rw, np.broadcast_to(d, (len(y), d.shape[-1]))))
        out.append([np.stack(a, axis=1).reshape((len(starts), mc.paths, steps)
                                                + a[0].shape[1:])
                    for a in zip(*steps_out)])
    return [np.stack(a) for a in zip(*out)]


class TestOneCallPerStep:
    @settings(max_examples=150, deadline=None)
    @given(model=family_models(), steps=st.integers(1, 6),
           pairs=st.integers(1, 3), n_starts=st.integers(1, 2),
           antithetic=st.booleans(), seed=st.integers(0, 2 ** 16))
    def test_records_equal_per_policy_loops(self, model, steps, pairs, n_starts,
                                            antithetic, seed):
        policies = hk.constant_policies(model) * 2  # P > 1 even for one control
        dt = 0.05
        starts = np.linspace(-1.0, 1.5, n_starts * model.dim).reshape(
            n_starts, model.dim)
        mc = hk.MonteCarloConfig(paths=2 * pairs, dt=dt, seed=seed,
                                 antithetic=antithetic)
        T = dt * steps
        with np.errstate(all="ignore"):
            batch = simulate_paths(model, policies, starts, T, mc,
                                   dt * np.arange(1, steps + 1))
            oracle = loop_records(model, policies, starts, steps, T / steps, mc)
        for name, want in zip(("states", "log_discount", "reward_integral",
                               "deltas"), oracle):
            assert np.array_equal(getattr(batch, name), np.swapaxes(want, 2, 3),
                                  equal_nan=True)

    @pytest.mark.parametrize("n_policies", [1, 4])
    def test_each_coefficient_called_once_per_step(self, n_policies):
        m = ou_model(controls=[[0.0], [0.25], [0.5], [1.0]])
        calls = {"drift": 0, "discount_rate": 0, "running_reward": 0}

        def counted(name):
            fn = getattr(m, name)

            def coef(y, d):
                calls[name] += 1
                assert np.shape(y) == (n_policies * 2 * 6, 1)
                return fn(y, d)
            return coef

        spied = dataclasses.replace(m, **{n: counted(n) for n in calls})
        mc = hk.MonteCarloConfig(paths=6, dt=0.1, seed=0)
        simulate_paths(spied, hk.constant_policies(m)[:n_policies],
                       [[0.0], [1.0]], 0.7, mc)
        assert calls == dict.fromkeys(calls, 7)


def inline_field_rows(model, fld, pf, mc, tol, probes=None, horizon=None):
    """Reference: the field check as the CLI computed it inline before
    ``verify_field`` existed, kept here as its oracle."""
    policy = pf.as_policy()
    horizon = float(fld.time_stamps[-1]) if horizon is None else horizon
    finite = len(fld.time_stamps) > 1
    probes = probes if probes else \
        list(fld.grid.ys[fld.grid.nodes // 4::max(1, fld.grid.nodes // 4)])
    cmp_model = model if finite else dataclasses.replace(
        model, terminal_reward=lambda y: np.zeros(np.asarray(y).shape[:-1]))
    nodes = [int(np.argmin(np.abs(fld.grid.ys - y))) for y in probes]
    ests = hk.estimate_value(cmp_model, policy, fld.grid.ys[nodes][:, None],
                             0.0, horizon, mc)
    rows = []
    for node, est in zip(nodes, ests):
        u_pde = float(fld.layer(0.0 if finite else None)[node])
        gap = abs(u_pde - est.mean)
        rows.append({"y": float(fld.grid.ys[node]), "pde": u_pde,
                     "mc": est.mean, "std_error": est.std_error, "gap": gap,
                     "met": bool(gap <= 3.0 * est.std_error + tol)})
    return rows


class TestVerifyField:
    GRID = hk.Grid1D(-2.0, 2.0, 21)
    MC = hk.MonteCarloConfig(paths=200, dt=1e-2, seed=3)

    @staticmethod
    def _model():
        # y-dependent reward and a terminal reward a stationary check drops
        return dataclasses.replace(
            ou_model(reward="bounded"),
            terminal_reward=lambda y: 1.0 + 0.5 * np.asarray(y)[..., 0] ** 2)

    def test_finite_field_rows_match_inline_check(self):
        m = self._model()
        vf, pf, _ = hk.solve_finite_horizon(m, self.GRID, hk.TimeGrid(0.5, 100),
                                            slice_stride=25)
        rep = hk.verify_field(m, vf, pf, self.MC, 5e-3)
        assert rep.rows == inline_field_rows(m, vf, pf, self.MC, 5e-3)
        assert [r["y"] for r in rep.rows] == self.GRID.ys[5::5].tolist()
        assert rep.met == all(r["met"] for r in rep.rows)

    def test_stationary_field_rows_match_inline_check(self):
        m = self._model()
        vf, pf, _ = hk.solve_stationary(m, self.GRID, 1e-8)
        probes = [-1.05, 0.3, 2.0]
        rep = hk.verify_field(m, vf, pf, self.MC, 0.0, probes, horizon=3.0)
        assert rep.rows == inline_field_rows(m, vf, pf, self.MC, 0.0, probes,
                                             horizon=3.0)
        assert rep.as_dict()["rows"] == rep.rows

    @pytest.mark.parametrize("other", [hk.Grid1D(-2.0, 2.0, 41),
                                       hk.Grid1D(-1.0, 1.0, 21)],
                             ids=["finer", "narrower"])
    def test_fields_of_two_grids_are_rejected(self, other):
        m = ou_model()
        vf, _, _ = hk.solve_stationary(m, self.GRID, 1e-8)
        _, pf, _ = hk.solve_stationary(m, other, 1e-8)
        with pytest.raises(ParameterError, match="grid or stamps"):
            hk.verify_field(m, vf, pf, self.MC, 5e-3)

    def test_fields_of_two_horizons_are_rejected(self):
        m = ou_model()
        vf, _, _ = hk.solve_finite_horizon(m, self.GRID, hk.TimeGrid(0.5, 100),
                                           slice_stride=25)
        _, pf, _ = hk.solve_stationary(m, self.GRID, 1e-8)
        with pytest.raises(ParameterError, match="grid or stamps"):
            hk.verify_field(m, vf, pf, self.MC, 5e-3)

    @pytest.mark.parametrize("tol", [-1e-3, np.nan, np.inf])
    def test_tol_must_be_finite_and_non_negative(self, tol):
        # an infinite tol met every probe whatever its gap
        m = ou_model()
        vf, pf, _ = hk.solve_finite_horizon(m, self.GRID, hk.TimeGrid(0.5, 100),
                                            slice_stride=25)
        with pytest.raises(ParameterError, match="tol"):
            hk.verify_field(m, vf, pf, self.MC, tol)
