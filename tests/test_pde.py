import dataclasses
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import hjbkit as hk
from hjbkit import pde
from hjbkit.errors import (DivergenceError, ParameterError,
                           PolicyIterationError, StabilityError)
from hjbkit.hamiltonian import control_tables, maximize

from conftest import constant_model, ou_model


class TestGrids:
    def test_grid_validation(self):
        with pytest.raises(ParameterError):
            hk.Grid1D(1.0, 0.0, 11)
        with pytest.raises(ParameterError):
            hk.Grid1D(0.0, 1.0, 2)
        with pytest.raises(ParameterError):
            hk.Grid1D(0.0, 1.0, 11, boundary="mystery")

    @pytest.mark.parametrize("y_min, y_max, name", [
        (-np.inf, 1.0, "y_min"), (0.0, np.inf, "y_max"), (np.nan, 1.0, "y_min"),
        (-1e308, 1e308, "spacing"),
        # 1 / spacing ** 2 divides by zero, or overflows
        (-1e-300, 1e-300, "spacing"), (-1e-155, 1e-155, "spacing")])
    def test_grid_bounds_and_spacing_must_be_finite(self, y_min, y_max, name):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ParameterError, match=name):
                hk.Grid1D(y_min, y_max, 11)

    @pytest.mark.parametrize("y_min, y_max", [(-1e300, 1e300), (0.0, 1e160)])
    def test_spacing_square_must_be_finite(self, y_min, y_max):
        # spacing 2e299 or 1.6e159: 1 / spacing ** 2 is 0, but the square
        # itself overflows, as a Python float raising OverflowError
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ParameterError, match="spacing"):
                hk.Grid1D(y_min, y_max, 11)

    def test_time_grid_horizon_must_be_finite(self):
        with pytest.raises(ParameterError, match="horizon"):
            hk.TimeGrid(np.inf, 10)

    def test_spacing(self):
        g = hk.Grid1D(-1.0, 1.0, 21)
        assert g.spacing == pytest.approx(0.1)
        assert len(g.ys) == 21

    def test_time_grid(self):
        with pytest.raises(ParameterError):
            hk.TimeGrid(0.0, 10)
        with pytest.raises(ParameterError):
            hk.TimeGrid(1.0, 0)
        assert hk.TimeGrid(2.0, 400).dt == pytest.approx(5e-3)

    @pytest.mark.parametrize("steps, message", [
        pytest.param(2.5, "steps must be an integer, not 2.5", id="2.5"),
        pytest.param(2 ** 63, "steps must be >= 1 and < 2**63",
                     id="9223372036854775808")])
    def test_time_grid_steps_an_integer_below_2_63(self, steps, message):
        # a solve on either grid marched without end
        with pytest.raises(ParameterError, match=f"^{re.escape(message)}$"):
            hk.TimeGrid(1.0, steps)


class TestStability:
    def test_oversized_step_rejected(self):
        m = ou_model()
        g = hk.Grid1D(-3, 3, 61)  # dy = 0.1 -> dt_max ~ 1e-2
        with pytest.raises(StabilityError) as exc:
            hk.solve_finite_horizon(m, g, hk.TimeGrid(1.0, 10))
        err = exc.value
        assert err.min_steps > 10
        # re-running at the suggested resolution succeeds
        hk.solve_finite_horizon(m, g, hk.TimeGrid(1.0, err.min_steps))

    def test_override_controls_checked_each_step(self):
        # ou_model on [-3, 3]: the grid controls give max|i| = 3 + 1, an
        # override that applies delta = 50 gives 3 + 50
        m = ou_model()
        g = hk.Grid1D(-3, 3, 61)
        dy = g.spacing
        dt_grid = 1.0 / (1.0 / dy ** 2 + 4.0 / dy)
        dt_applied = 1.0 / (1.0 / dy ** 2 + 53.0 / dy)

        def override(ys, u, grad):
            return np.full((len(ys), 1), 50.0)

        hk.solve_infinite_horizon(m, g, dt_grid, 1e-6, 1.0)
        with pytest.raises(StabilityError):
            hk.solve_infinite_horizon(m, g, dt_grid, 1e-6, 1.0,
                                      control_override=override)
        steps = int(np.ceil(1.0 / dt_grid))
        with pytest.raises(StabilityError) as exc:
            hk.solve_finite_horizon(m, g, hk.TimeGrid(1.0, steps),
                                    control_override=override)
        assert exc.value.min_steps == int(np.ceil(1.0 / dt_applied))
        # at the suggested step count the march runs and reports its ratio
        _, pf, rep = hk.solve_finite_horizon(
            m, g, hk.TimeGrid(1.0, exc.value.min_steps),
            control_override=override)
        assert np.all(pf.controls == 50.0)
        assert 0.99 < rep.cfl_ratio <= 1.0

    def test_cfl_ratio_reported(self):
        m = ou_model()
        g = hk.Grid1D(-3, 3, 61)
        _, _, rep = hk.solve_finite_horizon(m, g, hk.TimeGrid(1.0, 2000))
        assert 0 < rep.cfl_ratio <= 1.0

    def test_suggested_step_count_past_int64(self):
        # dt_max is 1e-300 here: no grid of 1e300 / dt_max steps can run,
        # so the suggestion is a ParameterError, not an OverflowError
        g = hk.Grid1D(-1e-150, 1e-150, 3)
        with pytest.raises(ParameterError,
                           match=r"^horizon 1e\+300 over dt 1e-300 overflows"):
            hk.solve_finite_horizon(ou_model(), g, hk.TimeGrid(1e300, 1))
        with pytest.raises(ParameterError, match=r"^t_max 1e\+18 over dt"):
            hk.solve_infinite_horizon(constant_model(), g, 1.0, 1e-6, 1e18)

    def test_stable_step_past_the_float_range(self):
        # |i| / dy is 1e350: dt_max is 0 without an overflow warning, which
        # the test settings would raise
        m = dataclasses.replace(ou_model(), drift=lambda y, d: np.full(
            np.shape(y), 1e200))
        g = hk.Grid1D(-1e-150, 1e-150, 3)
        with pytest.raises(ParameterError, match=r"^horizon 1.0 over dt 0.0"):
            hk.solve_finite_horizon(m, g, hk.TimeGrid(1.0, 1))


class TestFiniteHorizon:
    def test_constant_coefficients_closed_form(self):
        # f=1, h=-1, g=0: u(t) = 1 - e^{-(T-t)}, independent of y
        m = constant_model()
        g = hk.Grid1D(-5, 5, 41)
        vf, _, rep = hk.solve_finite_horizon(m, g, hk.TimeGrid(1.0, 2000))
        exact = 1.0 - np.exp(-1.0)
        err = np.max(np.abs(vf.layer(0.0) - exact))
        assert err < 2e-4
        assert rep.converged

    def test_linear_reward_closed_form(self):
        # drift -y, h=0, f(y)=y: value is linear in y, u(0,y)=y(1-e^{-T});
        # the diffusion term vanishes on linear profiles
        def drift(y, d):
            return -np.asarray(y, float)

        m = hk.ControlModel(
            dim=1, drift=drift,
            discount_rate=lambda y, d: np.zeros(np.asarray(y).shape[:-1]),
            running_reward=lambda y, d: np.sum(np.asarray(y, float), axis=-1),
            terminal_reward=lambda y: np.zeros(np.asarray(y).shape[:-1]),
            controls=np.array([[0.0]]), lip_L1=1.0, lip_L2=-1.0)
        g = hk.Grid1D(-2, 2, 81)
        vf, _, _ = hk.solve_finite_horizon(m, g, hk.TimeGrid(1.0, 4000))
        ys = g.ys
        exact = ys * (1.0 - np.exp(-1.0))
        # boundary one-sided differences distort only the outermost nodes
        err = np.max(np.abs(vf.layer(0.0)[2:-2] - exact[2:-2]))
        assert err < 5e-3

    def test_terminal_layer_is_terminal_reward(self):
        m = constant_model(g=0.75)
        g = hk.Grid1D(-1, 1, 21)
        vf, _, _ = hk.solve_finite_horizon(m, g, hk.TimeGrid(0.5, 1000),
                                           slice_stride=1000)
        assert np.all(vf.layer(0.5) == 0.75)

    def test_slice_stamps_ascending(self):
        m = constant_model()
        g = hk.Grid1D(-1, 1, 21)
        vf, pf, _ = hk.solve_finite_horizon(m, g, hk.TimeGrid(0.5, 1000),
                                            slice_stride=250)
        assert np.all(np.diff(vf.time_stamps) > 0)
        assert np.array_equal(vf.time_stamps, pf.time_stamps)

    def test_custom_terminal_values(self):
        m = constant_model()
        g = hk.Grid1D(-1, 1, 21)
        tv = np.linspace(0, 1, 21)
        vf, _, _ = hk.solve_finite_horizon(m, g, hk.TimeGrid(0.1, 500),
                                           terminal_values=tv,
                                           slice_stride=500)
        assert np.array_equal(vf.layer(0.1), tv)

    def test_boundary_modes_agree_in_the_interior(self):
        m = ou_model()
        for nodes in (61,):
            a, _, _ = hk.solve_finite_horizon(
                m, hk.Grid1D(-3, 3, nodes), hk.TimeGrid(1.0, 2000))
            b, _, _ = hk.solve_finite_horizon(
                m, hk.Grid1D(-3, 3, nodes, boundary="linear_extrapolation"),
                hk.TimeGrid(1.0, 2000))
            mid = slice(nodes // 4, -nodes // 4)
            assert np.max(np.abs(a.layer(0.0)[mid] - b.layer(0.0)[mid])) < 1e-3


    def test_one_hamiltonian_per_step_plus_one(self):
        m = ou_model()
        calls = []

        def override(ys, u, grad):
            calls.append(len(ys))
            return np.zeros((len(ys), 1))

        g = hk.Grid1D(-3, 3, 31)
        hk.solve_finite_horizon(m, g, hk.TimeGrid(1.0, 500),
                                control_override=override, slice_stride=7)
        # 500 steps + the t = 0 layer on the grid, then the residual audit
        # on the interior nodes
        assert calls == [31] * 501 + [29]

    def test_retained_policies_are_first_argmax_of_their_layer(self):
        # controls 2k and 2k+1 share every coefficient, so each pair ties;
        # across pairs the argmax follows the sign of g(y) - u, so the
        # policy switches from step to step as the value moves
        def pair(d):
            return np.floor(np.asarray(d, float)[..., 0] / 2.0)

        def drift(y, d):
            return -np.asarray(y, float) + (pair(d) - 1.0)[..., None]

        m = hk.ControlModel(
            dim=1, drift=drift,
            discount_rate=lambda y, d: np.broadcast_to(
                -1.0 - pair(d), np.asarray(y).shape[:-1]).copy(),
            running_reward=lambda y, d: pair(d) * (
                0.5 + 0.25 * np.asarray(y, float)[..., 0]),
            terminal_reward=lambda y: np.cos(np.asarray(y, float)[..., 0]),
            controls=np.arange(6.0)[:, None], lip_L1=2.0, lip_L2=-1.0)
        g = hk.Grid1D(-2, 2, 41)
        vf, pf, _ = hk.solve_finite_horizon(m, g, hk.TimeGrid(0.5, 90),
                                            slice_stride=3)
        assert len(vf.time_stamps) == 31
        dy = g.spacing
        yb = g.ys[:, None]
        for u, pol in zip(vf.values, pf.controls):
            fwd = np.append(np.diff(u), u[-1] - u[-2]) / dy
            bwd = np.insert(np.diff(u), 0, u[1] - u[0]) / dy
            best = np.full(len(u), -np.inf)
            best_j = np.zeros(len(u), dtype=int)
            for j, d in enumerate(m.controls):  # independent oracle loop
                i = m.drift(yb, d)[:, 0]
                cand = (i * np.where(i >= 0, fwd, bwd)
                        + m.discount_rate(yb, d) * u + m.running_reward(yb, d))
                better = cand > best
                best = np.where(better, cand, best)
                best_j = np.where(better, j, best_j)
            assert np.array_equal(pol[:, 0], m.controls[best_j, 0])
            assert np.all(pol[:, 0] % 2 == 0)  # the lower index of each tie
        switches = np.sum(pf.controls[1:] != pf.controls[:-1])
        assert switches > 10

    def test_divergence_detected(self):
        # h = 50 at the CFL limit: u grows by 5/3 a step until it overflows
        m = constant_model(f=0.0, h=50.0, g=1.0)
        g = hk.Grid1D(-1, 1, 11)
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(DivergenceError, match="step 1382"):
            hk.solve_finite_horizon(m, g, hk.TimeGrid(40.0, 3000))


class TestInfiniteHorizon:
    def test_stationary_value_constant_model(self):
        # f=1, h=-1: stationary value 1
        m = constant_model()
        g = hk.Grid1D(-2, 2, 41)
        vf, _, rep = hk.solve_infinite_horizon(m, g, 2e-3, 1e-5, 100.0)
        assert rep.converged
        assert np.max(np.abs(vf.values[0] - 1.0)) < 1e-3

    def test_divergence_detected(self):
        # positive discount rate: the march blows up and must say so
        m = constant_model(h=0.5)
        g = hk.Grid1D(-1, 1, 21)
        with pytest.raises(DivergenceError):
            hk.solve_infinite_horizon(m, g, 2e-3, 1e-9, 1000.0)

    def test_not_converged_reported(self):
        m = constant_model()
        g = hk.Grid1D(-1, 1, 21)
        _, _, rep = hk.solve_infinite_horizon(m, g, 2e-3, 1e-10, 0.5)
        assert not rep.converged

    @pytest.mark.parametrize("value", [0.0, -1.0, np.nan, np.inf])
    @pytest.mark.parametrize("name", ["dt", "tol_dt", "t_max"])
    def test_step_and_stop_rule_validated(self, name, value):
        args = {"dt": 2e-3, "tol_dt": 1e-5, "t_max": 10.0, name: value}
        with pytest.raises(ParameterError, match=name):
            hk.solve_infinite_horizon(constant_model(), hk.Grid1D(-1, 1, 21),
                                      **args)

    @pytest.mark.parametrize("t_max", [1e300, 1.0])
    def test_step_count_must_fit_int64(self, t_max):
        # 1e600 steps ended in an OverflowError, 1e300 marched without end
        with pytest.raises(ParameterError, match="t_max .* over dt 1e-300"):
            hk.solve_infinite_horizon(constant_model(), hk.Grid1D(-1, 1, 21),
                                      1e-300, 1e-5, t_max)

    def test_largest_step_count_below_int64_accepted(self):
        assert pde._march_steps(1.0, 2.0 ** 63 - 1024) == 2 ** 63 - 1024
        with pytest.raises(ParameterError, match="overflows int64"):
            pde._march_steps(1.0, 2.0 ** 63)

    @pytest.mark.parametrize("boundary", ["one_sided", "linear_extrapolation"])
    @pytest.mark.parametrize("override", [False, True])
    def test_long_time_march_is_the_sweep_from_zero(self, boundary, override,
                                                    merton_market):
        # both solvers take their steps from one march: 64 steps of 2^-9
        # from zero give the same bits
        if override:
            m = hk.to_control_model(merton_market, (5, 5))
            ov = hk.control_override(merton_market)
        else:
            m, ov = ou_model(reward="bounded"), None
        g = hk.Grid1D(-2.0, 2.0, 21, boundary)
        dt = 2.0 ** -9
        vf, pf, _ = hk.solve_finite_horizon(
            m, g, hk.TimeGrid(64 * dt, 64), ov,
            terminal_values=np.zeros(g.nodes))
        vi, pi, rep = hk.solve_infinite_horizon(m, g, dt, 1e-300, 64 * dt, ov)
        assert rep.steps == 64 and not rep.converged
        assert vi.values[0].tobytes() == vf.values[0].tobytes()
        # the last step's policy is the sweep's one step before t = 0
        assert pi.controls[0].tobytes() == pf.controls[1].tobytes()

    def test_policy_field_constant_optimum(self):
        m = ou_model()
        g = hk.Grid1D(-3, 3, 61)
        _, pf, _ = hk.solve_infinite_horizon(m, g, 2.5e-3, 1e-5, 100.0)
        # reward 1 - delta^2 with a flat value: no action is optimal
        assert np.all(pf.controls[0][5:-5] == 0.0)


def _random_model(params):
    """One control per row ``(s, b, c, p, q)`` of ``params``, valued its index.

    Drift ``b (s - y)``, discount ``-0.3 - c (1 + cos y)``, reward
    ``p + q sin 2y``, terminal 0.
    """
    table = np.asarray(params, float)

    def split(y, d):
        j = np.rint(np.asarray(d, float)[..., 0]).astype(int)
        return (np.asarray(y, float)[..., 0], *table[j].T)

    def drift(y, d):
        y, s, b, c, p, q = split(y, d)
        return (b * (s - y))[..., None]

    def discount(y, d):
        y, s, b, c, p, q = split(y, d)
        return -0.3 - c * (1.0 + np.cos(y))

    def reward(y, d):
        y, s, b, c, p, q = split(y, d)
        return p + q * np.sin(2.0 * y)

    return hk.ControlModel(
        dim=1, drift=drift, discount_rate=discount, running_reward=reward,
        terminal_reward=lambda y: np.zeros(np.asarray(y).shape[:-1]),
        controls=np.arange(len(table), dtype=float)[:, None],
        lip_L1=1.0, lip_L2=-0.5)


def _march_rhs(model, grid, u):
    """The march's right-hand side at ``u``, scanned control by control."""
    ys, dy = grid.ys, grid.spacing
    diff = np.diff(u) / dy
    fwd, bwd = np.append(diff, diff[-1]), np.insert(diff, 0, diff[0])
    best = np.full(len(u), -np.inf)
    for d in model.controls:
        i = model.drift(ys[:, None], d)[:, 0]
        cand = i * np.where(i >= 0, fwd, bwd) + \
            model.discount_rate(ys[:, None], d) * u + \
            model.running_reward(ys[:, None], d)
        best = np.maximum(best, cand)
    d2 = np.empty(len(u))
    d2[1:-1] = (u[2:] - 2.0 * u[1:-1] + u[:-2]) / dy ** 2
    d2[0], d2[-1] = d2[1], d2[-2]
    return 0.5 * d2 + best


_controls = st.lists(
    st.tuples(st.floats(-1.0, 1.0), st.floats(0.5, 2.5), st.floats(0.0, 1.0),
              st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)),
    min_size=1, max_size=4)


class TestStationary:
    @settings(max_examples=30, deadline=None)
    @given(params=_controls, nodes=st.integers(11, 41),
           boundary=st.sampled_from(["one_sided", "linear_extrapolation"]))
    # the third solve changes the control at node 0 only: a stop rule that
    # reads interior rows stops one solve early, 1e-2 away from the march
    @example(params=[(0.5, 1.1, 0.3, -0.9, 0.1), (0.8, 2.2, 0.3, -0.7, -1.0)],
             nodes=17, boundary="one_sided")
    def test_matches_march(self, params, nodes, boundary):
        """Policy iteration finds the march's limit and solves its equation.

        Every updated row meets ``tol`` under the march's right-hand side,
        and the field lies within ``tol / min(-h)`` of the march run to
        ``1e-3 tol``.  Every control's rest point lies at least 1 from the
        edges of [-2, 2], so the drift points firmly into the grid there.
        Where it is weak at a one-sided edge, the edge equation can have
        two stable solutions (``test_one_sided_edges_admit_two_solutions``).
        Howard's policies cycle on about 1.5% of the one-sided draws, or end
        on a solution the march leaves; the iteration then raises and the
        CLI falls back to the march.
        """
        m = _random_model(params)
        g = hk.Grid1D(-2.0, 2.0, nodes, boundary=boundary)
        tol = 1e-5
        try:
            vs, ps, rs = hk.solve_stationary(m, g, tol)
        except PolicyIterationError:
            assert boundary == "one_sided"
            return
        u = vs.values[0]
        rhs = _march_rhs(m, g, u)
        if boundary == "one_sided":
            assert np.abs(rhs).max() < tol
        else:
            assert np.abs(rhs[1:-1]).max() < tol
            scale = 1e-12 * max(np.abs(u).max(), 1.0)
            assert abs(u[0] - 2 * u[1] + u[2]) <= scale
            assert abs(u[-1] - 2 * u[-2] + u[-3]) <= scale
        assert rs.dvdt_norm < tol and rs.converged

        i, h, _ = hk.hamiltonian.control_tables(m, g.ys[:, None])
        dt = 0.99 / (1.0 / g.spacing ** 2 + np.abs(i).max() / g.spacing)
        vm, _, rm = hk.solve_infinite_horizon(m, g, dt, 1e-3 * tol, 1000.0)
        assert rm.converged
        assert np.abs(vs.values - vm.values).max() <= tol / -h.max() + 1e-12

    def test_cycling_edge_policies_raise(self):
        # at the right edge Howard alternates between the two controls
        # for ever; the march converges
        m = _random_model([(1.2, 0.8, 0.2, 0.2, -0.9),
                           (-0.1, 2.0, 0.1, 0.8, 0.6)])
        g = hk.Grid1D(-2.0, 2.0, 11)
        with pytest.raises(PolicyIterationError, match="did not converge"):
            hk.solve_stationary(m, g, 1e-5)
        assert hk.solve_infinite_horizon(m, g, 5e-3, 1e-5, 100.0)[2].converged

    def test_solution_the_march_leaves_raises(self):
        # at node 0 the weak-drift control 2 gives a second solution of the
        # edge equation, 0.145 from the march's; the march moves away from it
        m = _random_model([(0.0, 1.0, 1.0, 1.0, 0.0),
                           (0.0, 2.0, 0.0625, 1.0, 0.0),
                           (0.0, 0.5, 0.0, 0.0, 1.0)])
        g = hk.Grid1D(-2.0, 2.0, 16)
        with pytest.raises(PolicyIterationError, match="moves away"):
            hk.solve_stationary(m, g, 1e-5)

    def test_one_sided_edges_admit_two_solutions(self):
        """A known limit of the one-sided edge rows, not of the solver.

        With a weak inward drift at the right edge under control 0, the
        march's equation has two stable solutions 0.21 apart there: policy
        iteration ends on one, the march from zero on the other.  A better
        edge scheme should turn this into an agreement test.
        """
        m = _random_model([(1.5, 1.0, 0.0, 0.0, 0.0),
                           (-1.0, 1.0, 1.0, 0.0, 1.0)])
        g = hk.Grid1D(-2.0, 2.0, 11)
        vs, _, _ = hk.solve_stationary(m, g, 1e-10)
        vm, _, _ = hk.solve_infinite_horizon(m, g, 2e-2, 1e-10, 100.0)
        for u in (vs.values[0], vm.values[0]):
            assert np.abs(_march_rhs(m, g, u)).max() < 1e-9
        assert np.abs(vs.values - vm.values).max() > 0.2

    @pytest.mark.parametrize("boundary", ["one_sided", "linear_extrapolation"])
    def test_policy_solve_matches_dense_oracle(self, boundary):
        rng = np.random.default_rng(3)
        g = hk.Grid1D(-1.0, 2.0, 23, boundary=boundary)
        i = rng.uniform(-3.0, 3.0, g.nodes)
        h = rng.uniform(-2.0, -0.3, g.nodes)
        f = rng.uniform(-1.0, 1.0, g.nodes)
        # column k of the dense operator: the policy's right-hand side at e_k
        m = hk.ControlModel(
            dim=1, drift=lambda y, d: i[:, None], discount_rate=lambda y, d: h,
            running_reward=lambda y, d: np.zeros(len(h)),
            terminal_reward=lambda y: np.zeros(len(h)),
            controls=np.zeros((1, 1)), lip_L1=1.0, lip_L2=-1.0)
        A = np.column_stack([_march_rhs(m, g, e) for e in np.eye(g.nodes)])
        b = -f.copy()
        if boundary == "linear_extrapolation":
            A[0], A[-1] = 0.0, 0.0
            A[0, :3] = A[-1, -3:] = [1.0, -2.0, 1.0]
            b[0] = b[-1] = 0.0
        u, stable = pde._solve_policy(g, i, h, f)
        oracle = np.linalg.solve(A, b)
        assert np.abs(u - oracle).max() <= 1e-11 * np.abs(oracle).max()

    def test_positive_discount_rate_raises(self):
        g = hk.Grid1D(-1.0, 1.0, 21)
        with pytest.raises(PolicyIterationError, match="h >= 0"):
            hk.solve_stationary(constant_model(h=0.5), g, 1e-6)

        # an override iterate is checked as well: grid controls are fine,
        # the override's second iterate is not
        calls = []

        def override(ys, u, grad):
            calls.append(1)
            return np.full((len(ys), 1), 0.0 if len(calls) == 1 else 5.0)

        m = ou_model()
        m = hk.ControlModel(
            dim=1, drift=m.drift,
            discount_rate=lambda y, d: np.asarray(d, float)[..., 0] - 1.0
            + np.zeros(np.asarray(y).shape[:-1]),
            running_reward=m.running_reward, terminal_reward=m.terminal_reward,
            controls=np.array([[0.0]]), lip_L1=2.0, lip_L2=-1.0)
        hk.solve_stationary(m, g, 1e-6)
        with pytest.raises(PolicyIterationError, match="h >= 0"):
            hk.solve_stationary(m, g, 1e-6, control_override=override)
        assert len(calls) == 2

    def test_report_and_time_stamp(self):
        m = ou_model()
        g = hk.Grid1D(-3.0, 3.0, 61)
        vf, pf, rep = hk.solve_stationary(m, g, 1e-6)
        doc = rep.as_dict()
        assert doc["scheme"]["kind"] == "stationary_policy_iteration"
        assert doc["cfl_ratio"] == 0.0 and doc["converged"] is True
        assert doc["steps"] == 1  # the no-action policy is optimal at once
        # h = -1, f = 1 under the final policy
        assert doc["error_bound"] == doc["dvdt_norm"]
        assert vf.time_stamps[0] == pytest.approx(np.log(1e6))
        assert np.array_equal(pf.time_stamps, vf.time_stamps)
        assert np.abs(vf.values[0] - 1.0).max() < 1e-12
        # stamp of at least 1/min(-h) when max|f| is below the tolerance
        vf, _, _ = hk.solve_stationary(constant_model(f=1e-9, h=-2.0), g, 1e-6)
        assert vf.time_stamps[0] == pytest.approx(0.5)

    def test_error_bound_only_on_stationary_reports(self):
        m = ou_model()
        g = hk.Grid1D(-3.0, 3.0, 31)
        _, _, fin = hk.solve_finite_horizon(m, g, hk.TimeGrid(0.5, 500))
        assert "error_bound" not in fin.as_dict()
        _, _, rep = hk.solve_infinite_horizon(m, g, 5e-3, 1e-5, 100.0)
        assert rep.as_dict()["error_bound"] == rep.dvdt_norm  # h = -1
        g = hk.Grid1D(-1.0, 1.0, 21)
        with pytest.raises(DivergenceError):
            hk.solve_infinite_horizon(constant_model(h=0.5), g, 2e-3, 1e-9,
                                      1000.0)
        _, _, rep = hk.solve_infinite_horizon(constant_model(h=0.0), g, 2e-3,
                                              1e-9, 0.5)
        assert rep.as_dict()["error_bound"] is None

    def test_merton_override(self, merton_market):
        model = hk.to_control_model(merton_market, (21, 21))
        bench = hk.merton_benchmark(merton_market)
        ov = hk.control_override(merton_market)
        g = hk.Grid1D(-5.0, 5.0, 41)
        vf, _, rep = hk.solve_stationary(model, g, 1e-6, control_override=ov)
        assert rep.steps <= 6
        assert np.abs(vf.values[0] - bench.u).max() / bench.u < 1e-9
        vm, _, rm = hk.solve_infinite_horizon(model, g, 3.2e-2, 1e-6, 400.0,
                                              control_override=ov)
        assert np.abs(vf.values - vm.values).max() <= rm.error_bound

    def test_grid_refinement_order(self):
        # drift -y, h = -1, f = y^2: u = (y^2 + 1) / 3 exactly
        m = hk.ControlModel(
            dim=1, drift=lambda y, d: -np.asarray(y, float),
            discount_rate=lambda y, d: np.full(np.asarray(y).shape[:-1], -1.0),
            running_reward=lambda y, d: np.asarray(y, float)[..., 0] ** 2,
            terminal_reward=lambda y: np.zeros(np.asarray(y).shape[:-1]),
            controls=np.zeros((1, 1)), lip_L1=1.0, lip_L2=-1.0)
        errors = []
        for nodes in (251, 501, 1001, 2001):
            g = hk.Grid1D(-2.0, 2.0, nodes)
            vf, _, _ = hk.solve_stationary(m, g, 1e-8)
            inside = np.abs(g.ys) <= 1.0
            exact = (g.ys[inside] ** 2 + 1.0) / 3.0
            errors.append(np.abs(vf.values[0][inside] - exact).max())
        orders = np.log2(np.array(errors[:-1]) / np.array(errors[1:]))
        assert np.all((0.9 <= orders) & (orders <= 1.1)), orders

    @pytest.mark.parametrize("tol", [0.0, -1.0, np.nan, np.inf])
    def test_tol_must_be_positive_and_finite(self, tol):
        # an infinite tol stopped after one linear solve, "converged"
        with pytest.raises(ParameterError, match="tol must be positive"):
            hk.solve_stationary(ou_model(), hk.Grid1D(-3, 3, 21), tol)


class TestNodeMajorTables:
    """The march scans node-major tables; ``control_tables`` stays C-ordered."""

    @staticmethod
    def _scan_c_ordered(model, ys, controls, u, dy):
        i, h, f = control_tables(model, ys[:, None], controls)
        assert all(t.flags.c_contiguous for t in (i, h, f))
        d = np.diff(u) / dy
        forward, backward = np.append(d, d[-1]), np.insert(d, 0, d[0])
        i = i[..., 0]
        return maximize(i * np.where(i >= 0.0, forward, backward), h, f, u)

    @pytest.mark.parametrize("override", [False, True])
    def test_march_tables_are_node_major_and_scan_the_same(self, override,
                                                           merton_market):
        model = hk.to_control_model(merton_market, (21, 21))
        grid = hk.Grid1D(-1.0, 1.0, 41)
        ys, dy = grid.ys, grid.spacing
        u = 3.0 + np.sin(2.0 * ys)
        controls = None
        if override:
            ov = hk.control_override(merton_market)
            controls = np.asarray(ov(ys, u, np.gradient(u, dy)), float)[None]
        tables = pde._tabulate(model, ys, controls)
        assert all(t.flags.f_contiguous for t in tables)
        assert tables[0].shape == (1 if override else 441, 41)
        value, idx = pde._upwind_max(u, dy, *tables)
        ref, ref_idx = self._scan_c_ordered(model, ys, controls, u, dy)
        assert value.tobytes() == ref.tobytes()
        assert idx.tobytes() == ref_idx.tobytes()


class TestResidual:
    def test_small_on_solved_field(self):
        m = ou_model()
        g = hk.Grid1D(-3, 3, 61)
        vf, _, rep = hk.solve_infinite_horizon(m, g, 2.5e-3, 1e-6, 200.0)
        res = hk.residual(m, vf)
        assert np.max(np.abs(res)) <= 10 * 1e-6
        assert rep.residual_norm == pytest.approx(np.max(np.abs(res)))

    def test_report_audit_equals_the_public_residual(self, merton_market):
        # a solve audits on its scan's tables, sliced to the interior nodes;
        # ``residual`` tabulates the interior nodes: the same bits
        m441, ou = hk.to_control_model(merton_market, (21, 21)), ou_model()
        g = hk.Grid1D(-1.0, 1.0, 41)
        for m, (vf, _, rep) in [
                (m441, hk.solve_stationary(m441, g, 1e-6)),
                (m441, hk.solve_infinite_horizon(m441, g, 2e-3, 1e-5, 5.0)),
                (ou, hk.solve_stationary(ou, hk.Grid1D(-3, 3, 61), 1e-8))]:
            res = hk.residual(m, vf)
            assert rep.residual_norm == float(np.max(np.abs(res)))

    def test_rejects_multi_layer_fields(self):
        m = constant_model()
        g = hk.Grid1D(-1, 1, 21)
        vf, _, _ = hk.solve_finite_horizon(m, g, hk.TimeGrid(0.5, 1000),
                                           slice_stride=250)
        with pytest.raises(ParameterError):
            hk.residual(m, vf)

    def test_large_on_corrupted_field(self):
        m = ou_model()
        g = hk.Grid1D(-3, 3, 61)
        vf, _, _ = hk.solve_infinite_horizon(m, g, 2.5e-3, 1e-6, 200.0)
        vf.values[0][30] += 0.5
        assert np.max(np.abs(hk.residual(m, vf))) > 1.0


class TestFields:
    def test_value_field_validation(self):
        g = hk.Grid1D(-1, 1, 3)
        with pytest.raises(ParameterError):
            hk.ValueField(g, np.array([[1.0, np.nan, 0.0]]), [0.0])
        with pytest.raises(ParameterError):
            hk.ValueField(g, np.ones((2, 3)), [0.0])

    @pytest.mark.parametrize("cls, table, stamps", [
        # two layers for three stamps: the lookup would index past them
        ("policy", np.zeros((2, 5, 1)), [0.0, 0.5, 1.0]),
        ("policy", np.full((1, 5, 1), np.nan), [0.0]),
        ("policy", np.zeros((1, 4, 1)), [0.0]),
        ("value", np.zeros((1, 4)), [0.0]),
    ], ids=["policy_layers", "policy_nan", "policy_nodes", "value_nodes"])
    def test_field_table_fits_grid_and_stamps(self, cls, table, stamps):
        field = {"policy": hk.PolicyField, "value": hk.ValueField}[cls]
        with pytest.raises(ParameterError):
            field(hk.Grid1D(-1, 1, 5), table, stamps)

    def test_policy_as_feedback_map(self):
        m = ou_model()
        g = hk.Grid1D(-3, 3, 61)
        _, pf, _ = hk.solve_infinite_horizon(m, g, 2.5e-3, 1e-5, 100.0)
        pol = pf.as_policy()
        out = pol(np.array([[0.0], [1.0]]), 0.0)
        assert out.shape == (2, 1)
        assert np.all(out == 0.0)

    @staticmethod
    def _indexed_policy(grid, layers=1):
        """A policy field whose control at node j of layer l is (j, l)."""
        j, l = np.meshgrid(np.arange(grid.nodes), np.arange(layers))
        controls = np.stack([j, l], axis=-1).astype(float)
        return hk.PolicyField(grid, controls, np.linspace(0.0, 1.0, layers))

    @pytest.mark.parametrize("grid", [hk.Grid1D(-1.3, 2.7, 41),
                                      hk.Grid1D(-1, 1, 33)])
    def test_policy_lookup_is_the_nearest_node_and_stamp(self, grid):
        rng = np.random.default_rng(5)
        pf = hk.PolicyField(grid, rng.normal(size=(4, grid.nodes, 2)),
                            [0.0, 0.25, 0.5, 1.0])
        ys, h = grid.ys, grid.spacing
        # half-node midpoints (exact on the dyadic grid) and random states
        # reaching past both edges
        midpoints = ys[0] + (np.arange(-3, grid.nodes + 2) + 0.5) * h
        y = np.concatenate([rng.uniform(-4.0, 5.0, 10_000), midpoints])[:, None]
        pol = pf.as_policy()
        for t in (-1.0, 0.0, 0.1, 0.125, 0.3, 0.75, 1.0, 7.0):
            nt = np.argmin(np.abs(pf.time_stamps - t))
            ny = np.clip(np.rint((y[:, 0] - ys[0]) / h).astype(int),
                         0, grid.nodes - 1)
            assert np.array_equal(pol(y, t), pf.controls[nt, ny])

    def test_huge_and_infinite_states_map_to_the_edges(self):
        g = hk.Grid1D(-1, 1, 21)
        pol = self._indexed_policy(g).as_policy()
        top = g.nodes - 1
        for y, node in [(1e300, top), (1e19 * g.spacing, top), (np.inf, top),
                        (-1e300, 0), (-np.inf, 0), (np.nan, 0)]:
            assert pol(np.array([[y]]), 0.0)[0, 0] == node, y

    def test_non_finite_states_get_a_control_without_warning(self):
        pol = self._indexed_policy(hk.Grid1D(-1, 1, 21), layers=2).as_policy()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = pol(np.array([[np.nan], [np.inf], [-np.inf]]), 1.0)
        assert np.array_equal(out, [[0, 1], [20, 1], [0, 1]])

    @staticmethod
    def _assert_value_round_trip(vf, path):
        vf.to_csv(path, ["seed=0"])
        back = pde.ValueField.read_csv(path)
        assert back.grid == vf.grid
        assert np.array_equal(back.values, vf.values)
        assert np.array_equal(back.time_stamps, vf.time_stamps)

    def test_value_csv_round_trip(self, tmp_path):
        m = constant_model()
        g = hk.Grid1D(-1, 1, 21)
        vf, _, _ = hk.solve_finite_horizon(m, g, hk.TimeGrid(0.5, 1000),
                                           slice_stride=250)
        assert len(vf.time_stamps) == 5
        self._assert_value_round_trip(vf, tmp_path / "value.csv")

    def test_stationary_value_csv_round_trip(self, tmp_path):
        vf, _, _ = hk.solve_stationary(ou_model(), hk.Grid1D(-3, 3, 61), 1e-8)
        self._assert_value_round_trip(vf, tmp_path / "value.csv")

    def test_policy_csv_round_trip(self, tmp_path):
        m = ou_model()
        g = hk.Grid1D(-3, 3, 61)
        _, pf, _ = hk.solve_infinite_horizon(m, g, 2.5e-3, 1e-5, 100.0)
        # a second control column of distinct, full-precision values, with
        # a negative zero, the least subnormal and the largest float
        second = np.broadcast_to(np.sin(g.ys) / 3.0,
                                 pf.controls.shape[:2]).copy()
        second[0, :3] = -0.0, 5e-324, 1.7976931348623157e308
        pf = pde.PolicyField(g, np.stack([pf.controls[..., 0], second], -1),
                             pf.time_stamps)
        path = tmp_path / "policy.csv"
        pf.to_csv(path)
        back = pde.PolicyField.read_csv(path)
        assert back.grid == g
        assert back.controls.tobytes() == pf.controls.tobytes()
        assert np.array_equal(back.time_stamps, pf.time_stamps)

    def test_csv_bytes_equal_a_per_cell_repr_reference(self, tmp_path):
        # the y cells and stamps are rendered once and reused; every row
        # must still read as if each cell were written by its own repr
        g = hk.Grid1D(-1, 1, 7)
        stamps = [0.0, 0.25, 0.25, 1.0 / 3.0]
        controls = np.random.default_rng(2).standard_normal((4, g.nodes, 2))
        controls[0, :2] = [[-0.0, 0.0], [0.0, -0.0]]
        controls[2, 3] = -0.0, 5e-324
        fields = {"value.csv": pde.ValueField(g, controls[..., 1], stamps),
                  "policy.csv": pde.PolicyField(g, controls, stamps)}
        for name, fld in fields.items():
            fld.to_csv(tmp_path / name, ["config_digest=ab", "seed=3"])
            table = controls[..., 1:] if name == "value.csv" else controls
            rows = [[y, t, *row] for t, layer in zip(stamps, table.tolist())
                    for y, row in zip(g.ys.tolist(), layer)]
            columns = "y,t,u" if name == "value.csv" else \
                "y,t,delta_star_0,delta_star_1"
            expected = "# config_digest=ab\n# seed=3\n" + columns + "\n" + \
                "".join(",".join(map(repr, row)) + "\n" for row in rows)
            assert (tmp_path / name).read_bytes() == expected.encode()
        cells = (tmp_path / "policy.csv").read_text().replace("\n", ",")
        assert cells.split(",").count("-0.0") == 3

    def test_read_from_an_open_file_names_its_path(self, tmp_path):
        g = hk.Grid1D(-1, 1, 5)
        vf = pde.ValueField(g, np.arange(10.0).reshape(2, 5), [0.0, 1.0])
        vf.to_csv(tmp_path / "value.csv")
        with open(tmp_path / "value.csv") as fh:
            back = pde.ValueField.read_csv(fh)
        assert np.array_equal(back.values, vf.values)
        with open(tmp_path / "value.csv") as fh, \
                pytest.raises(ParameterError, match="header") as exc:
            pde.PolicyField.read_csv(fh)
        assert str(tmp_path / "value.csv") in str(exc.value)

    def test_read_memory_is_a_small_multiple_of_the_rows(self, tmp_path):
        g = hk.Grid1D(-3, 3, 41)
        layers = 4000
        vf = pde.ValueField(g, np.random.default_rng(0).standard_normal(
            (layers, g.nodes)), np.linspace(0.0, 1.0, layers))
        path = tmp_path / "value.csv"
        vf.to_csv(path, ["seed=0"])
        pde.ValueField.read_csv(path)  # warm caches
        tracemalloc.start()
        try:
            back = pde.ValueField.read_csv(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(back.values, vf.values)
        # the y, t, u rows as floats; a Python float per cell and a string
        # per line would take about 14 times as much
        assert peak <= 2.5 * layers * g.nodes * 3 * 8

    def test_each_field_reads_only_its_own_header(self, tmp_path):
        g = hk.Grid1D(-1, 1, 5)
        pde.ValueField(g, np.ones((2, 5)), [0.0, 1.0]).to_csv(
            tmp_path / "value.csv")
        pde.PolicyField(g, np.zeros((2, 5, 2)), [0.0, 1.0]).to_csv(
            tmp_path / "policy.csv")
        for cls, name in [(pde.ValueField, "policy.csv"),
                          (pde.PolicyField, "value.csv")]:
            with pytest.raises(ParameterError, match="header") as exc:
                cls.read_csv(tmp_path / name)
            assert str(tmp_path / name) in str(exc.value)
        # a duplicated row in place of another keeps the row count
        lines = (tmp_path / "value.csv").read_text().splitlines()
        lines[-1] = lines[-2]
        (tmp_path / "dup.csv").write_text("\n".join(lines) + "\n")
        with pytest.raises(ParameterError, match="fill"):
            pde.ValueField.read_csv(tmp_path / "dup.csv")
        (tmp_path / "bare.csv").write_text("y,t\n0.0,0.0\n")
        with pytest.raises(ParameterError, match="header"):
            pde.PolicyField.read_csv(tmp_path / "bare.csv")


class TestGradientBound:
    def test_report_fields(self):
        m = ou_model()
        g = hk.Grid1D(-3, 3, 61)
        vf, _, _ = hk.solve_infinite_horizon(m, g, 2.5e-3, 1e-5, 100.0)
        mc = hk.MonteCarloConfig(paths=300, dt=2e-2, seed=1)
        tab = hk.estimate_kappa(m, 3, 3.0, mc)
        rep = hk.gradient_bound_check(vf, tab, m.lip_L1, m.lip_L2)
        assert rep.status in ("met", "inconclusive")
        assert np.isfinite(rep.value_bound)
        assert np.isfinite(rep.gradient_bound)
        assert rep.gradient_bound > 0

    def test_flat_small_field_is_met(self):
        # a tiny flat field sits far below any reasonable envelope
        g = hk.Grid1D(-3, 3, 61)
        vf = hk.ValueField(g, 1e-3 * np.ones((1, 61)), [0.0])
        m = ou_model()
        mc = hk.MonteCarloConfig(paths=300, dt=2e-2, seed=1)
        tab = hk.estimate_kappa(m, 3, 3.0, mc)
        rep = hk.gradient_bound_check(vf, tab, m.lip_L1, m.lip_L2)
        assert rep.status == "met"
