"""End-to-end acceptance suite.

Each test covers one numbered criterion and reports a single PASS/FAIL
line in the terminal summary.  Criterion 6 checks a decay envelope that
the diffusion provably exceeds; it is implemented faithfully and is
expected to fail (see the test's docstring).  Criterion 11 checks the
diffusion-aware envelope beside it on the same scenario and seed.
"""

import json
import time

import numpy as np
import pytest

import hjbkit as hk
from hjbkit.cli import main as cli_main

import conftest
from conftest import constant_model, ou_model, zero_policy

DATA = conftest.DATA


def record(number, name, ok):
    line = f"criterion {number} ({name}): {'PASS' if ok else 'FAIL'}"
    conftest.ACCEPTANCE_LINES.append(line)
    assert ok, line


def test_criterion_1_constant_rate_finite_horizon():
    # f=1, h=-1, g=0, T=1 on [-5,5] x 201 nodes: u(t) = 1 - e^{-(T-t)}
    t0 = time.perf_counter()
    m = constant_model(f=1.0, h=-1.0, g=0.0)
    grid = hk.Grid1D(-5.0, 5.0, 201)
    steps = 4000  # dt = 2.5e-4, under the CFL limit dy^2 = 2.5e-3
    vf, _, rep = hk.solve_finite_horizon(m, grid, hk.TimeGrid(1.0, steps),
                                         slice_stride=steps // 4)
    worst = 0.0
    for t, layer in zip(vf.time_stamps, vf.values):
        exact = 1.0 - np.exp(-(1.0 - t))
        worst = max(worst, float(np.max(np.abs(layer[1:-1] - exact))))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-4 and elapsed < 5.0 and rep.converged
    record(1, "closed-form finite horizon", ok)


def test_criterion_2_merton_infinite_horizon(merton_market):
    t0 = time.perf_counter()
    bench = hk.merton_benchmark(merton_market)
    model = hk.to_control_model(merton_market, (21, 21))
    grid = hk.Grid1D(-1.0, 1.0, 41)
    tol_dt = 1e-6
    vf, _, rep = hk.solve_infinite_horizon(
        model, grid, 2e-3, tol_dt, 400.0,
        control_override=hk.control_override(merton_market))
    rel_err = float(np.max(np.abs(vf.values[0][1:-1] - bench.u)) / bench.u)
    res = float(np.max(np.abs(hk.residual(
        model, vf, control_override=hk.control_override(merton_market)))))
    elapsed = time.perf_counter() - t0
    ok = (rep.converged and rel_err <= 1e-3 and res <= 10 * tol_dt
          and elapsed < 60.0)
    record(2, "Merton benchmark", ok)


def test_criterion_3_pde_mc_cross_validation(merton_market):
    model = hk.to_control_model(merton_market, (21, 21))
    grid = hk.Grid1D(-1.0, 1.0, 41)
    vf, pf, _ = hk.solve_finite_horizon(model, grid, hk.TimeGrid(1.0, 1000),
                                        slice_stride=50)
    policy = pf.as_policy()
    mc = hk.MonteCarloConfig(paths=100000, dt=1e-3, seed=20)
    probes = [-0.6, -0.3, 0.0, 0.3, 0.6]
    nodes = [int(np.argmin(np.abs(grid.ys - y))) for y in probes]
    ests = hk.estimate_value(model, policy, grid.ys[nodes][:, None], 0.0,
                             1.0, mc)
    ok = True
    for node, est in zip(nodes, ests):
        u_pde = float(vf.layer(0.0)[node])
        if abs(u_pde - est.mean) > 3 * est.std_error + 5e-3:
            ok = False
    record(3, "PDE-MC cross-validation", ok)


def test_criterion_4_coupling_contraction():
    def cubic_drift(y, d):
        y = np.asarray(y, float)
        return -y - y ** 3

    m = hk.ControlModel(
        dim=1, drift=cubic_drift,
        discount_rate=lambda y, d: np.full(np.asarray(y).shape[:-1], -1.0),
        running_reward=lambda y, d: np.ones(np.asarray(y).shape[:-1]),
        terminal_reward=lambda y: np.zeros(np.asarray(y).shape[:-1]),
        controls=np.array([[0.0]]), lip_L1=1.0, lip_L2=-1.0)
    mc = hk.MonteCarloConfig(paths=10000, dt=1e-2, seed=4)
    rep = hk.coupled_contraction(m, zero_policy(), [1.5], [0.5], 2.0, mc)
    ok = rep.worst_ratio <= 1.0 + 10 * mc.dt

    # linear drift: the difference recursion is deterministic and matches
    # the compounded per-step factor to rounding
    lin = ou_model(controls=[[0.0]])
    rep_lin = hk.coupled_contraction(lin, zero_policy(), [1.0], [0.25],
                                     2.0, mc)
    ok = ok and abs(rep_lin.worst_ratio_discrete - 1.0) <= 1e-12
    record(4, "coupling contraction", ok)


def test_criterion_5_drift_discount_bound():
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
    mc = hk.MonteCarloConfig(paths=100000, dt=2e-3, seed=5)
    ok = True
    for y0 in (0.0, 2.0):
        rep = hk.verify_bounds(m, spec, [y0], 2.0, mc, times=[0.5, 1.0, 2.0])
        ok = ok and rep.met
    record(5, "discount moment bound", ok)


def test_criterion_6_uniform_discount_bound():
    """Envelope e^{-wt}(1 + |y0| e^{L2 t}) against E e^{int h} f(Y_t).

    The noiseless contraction argument behind this envelope ignores the
    diffusion's outward push on E|Y_t|, which settles near sqrt(2/pi)
    instead of decaying; the estimate exceeds the bound by a wide, highly
    significant margin.  The check is implemented faithfully and this test
    is expected to fail.
    """

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
    mc = hk.MonteCarloConfig(paths=100000, dt=2e-3, seed=6)
    rep = hk.verify_bounds(m, spec, [1.0], 2.0, mc, times=[0.5, 1.0, 2.0])
    record(6, "uniform discount bound", rep.met)


def test_criterion_11_diffusion_discount_bound():
    """Diffusion-aware envelope on criterion 6's scenario and seed.

    Ito on |Y|^2 with the one-sided drift bound gives the second moment
    |y0|^2 e^{2 L2 t} + N (1 - e^{2 L2 t}) / (-2 L2) (exact for this
    mean-reverting factor); Jensen bounds E|Y_t| by its square root.
    """

    def drift(y, d):
        return -np.asarray(y, float)

    m = hk.ControlModel(
        dim=1, drift=drift,
        discount_rate=lambda y, d: np.full(np.asarray(y).shape[:-1], -1.0),
        running_reward=lambda y, d: 1.0 + np.abs(
            np.sum(np.asarray(y, float), axis=-1)),
        terminal_reward=lambda y: np.zeros(np.asarray(y).shape[:-1]),
        controls=np.array([[0.0]]), lip_L1=1.0, lip_L2=-1.0)
    spec = hk.DiffusionDiscountBound(w=1.0, L2=-1.0)
    mc = hk.MonteCarloConfig(paths=100000, dt=2e-3, seed=6)
    rep = hk.verify_bounds(m, spec, [1.0], 2.0, mc, times=[0.5, 1.0, 2.0])
    record(11, "diffusion-aware discount bound", rep.met)


def test_criterion_7_horizon_convergence():
    m = ou_model(controls=[[0.0]], reward="bounded")
    mc = hk.MonteCarloConfig(paths=20000, dt=5e-3, seed=7)
    tab = hk.estimate_kappa(m, 1, 16.0,
                            hk.MonteCarloConfig(paths=2000, dt=1e-2, seed=8))
    rep = hk.horizon_convergence(m, zero_policy(), [0.5],
                                 [2.0, 4.0, 8.0, 16.0], mc, kappa_table=tab)
    ok = rep.converging and bool(np.all(np.diff(rep.differences) < 0))
    ok = ok and rep.within_tail

    grid = hk.Grid1D(-3.0, 3.0, 61)
    v_inf, _, rep_inf = hk.solve_infinite_horizon(m, grid, 2.5e-3, 1e-6,
                                                  200.0)
    steps = int(np.ceil(16.0 / 2.5e-3))
    v_fin, _, _ = hk.solve_finite_horizon(m, grid, hk.TimeGrid(16.0, steps),
                                          slice_stride=steps)
    gap = float(np.max(np.abs(v_inf.values[0][5:-5] -
                              v_fin.layer(0.0)[5:-5])))
    ok = ok and rep_inf.converged and gap <= 2e-3
    record(7, "horizon convergence", ok)


def test_criterion_8_truncation_ladder():
    def drift(y, d):
        return -np.asarray(y, float)

    def bounded_f(y, d):
        y = np.asarray(y, float)
        return 1.0 / (1.0 + np.sum(y ** 2, axis=-1))

    m = hk.ControlModel(
        dim=1, drift=drift,
        discount_rate=lambda y, d: np.full(np.asarray(y).shape[:-1], -1.0),
        running_reward=bounded_f,
        terminal_reward=lambda y: np.exp(-np.sum(np.asarray(y, float) ** 2,
                                                 axis=-1)),
        controls=np.array([[0.0]]), lip_L1=2.0, lip_L2=-1.0)
    grid = hk.Grid1D(-5.0, 5.0, 101)
    tg = hk.TimeGrid(1.0, 400)

    fields = {}
    for k in (2, 3, 5):
        vf, _, _ = hk.solve_finite_horizon(hk.truncate(m, k), grid, tg,
                                           slice_stride=400)
        fields[k] = vf.layer(0.0)
    d2 = float(np.max(np.abs(fields[2] - fields[5])))
    d3 = float(np.max(np.abs(fields[3] - fields[5])))
    ok = d2 > d3 > 0.0

    # 2k >= grid radius * 2: the taper weight is 1 on the whole grid, so
    # the k=5 coefficient tables and the solved field match bit for bit
    m5 = hk.truncate(m, 5)
    ys = grid.ys[:, None]
    d = m.controls[0]
    ok = ok and np.array_equal(m5.running_reward(ys, d),
                               m.running_reward(ys, d))
    ok = ok and np.array_equal(m5.discount_rate(ys, d),
                               m.discount_rate(ys, d))
    ok = ok and np.array_equal(m5.terminal_reward(ys), m.terminal_reward(ys))
    vf_plain, _, _ = hk.solve_finite_horizon(m, grid, tg, slice_stride=400)
    ok = ok and np.array_equal(fields[5], vf_plain.layer(0.0))
    record(8, "truncation ladder", ok)


def test_criterion_9_hamiltonian_properties():
    def drift(y, d):
        y = np.asarray(y, float)
        d = np.asarray(d, float)
        return -y + np.broadcast_to(d, y.shape)

    def discount(y, d):
        y = np.asarray(y, float)
        d = np.asarray(d, float)
        base = -1.0 + 0.5 * np.sin(np.sum(y, axis=-1))
        return base - np.sum(d ** 2, axis=-1)

    def reward(y, d):
        y = np.asarray(y, float)
        return 1.0 / (1.0 + np.sum(y ** 2, axis=-1)) + np.sum(
            np.asarray(d, float), axis=-1)

    controls = np.array([[0.0], [0.5], [1.0], [-0.5]])
    m = hk.ControlModel(
        dim=1, drift=drift, discount_rate=discount, running_reward=reward,
        terminal_reward=lambda y: np.zeros(np.asarray(y).shape[:-1]),
        controls=controls, lip_L1=3.0, lip_L2=-1.0)

    def shifted(y, d):
        return reward(y, d) + 2.0

    m_shift = hk.ControlModel(
        dim=1, drift=drift, discount_rate=discount, running_reward=shifted,
        terminal_reward=m.terminal_reward, controls=controls,
        lip_L1=3.0, lip_L2=-1.0)

    rng = np.random.default_rng(9)
    ok = True
    for _ in range(1000):
        y = rng.uniform(-3, 3, size=1)
        u, u2 = sorted(rng.uniform(-2, 2, size=2))
        p, p2 = rng.uniform(-3, 3, size=(2, 1))
        ya = y[None]
        hs = np.array([float(discount(ya, d)[0]) for d in controls])
        speeds = np.array([float(np.abs(drift(ya, d))[0, 0])
                           for d in controls])

        # monotone difference in u, slopes bracketed by the discount range
        a = hk.eval_H(m, y, u2, p)
        b = hk.eval_H(m, y, u, p)
        du = u2 - u
        if not (hs.min() * du - 1e-12 <= a.value - b.value
                <= hs.max() * du + 1e-12):
            ok = False
        # Lipschitz in p with the empirical drift magnitude
        c = hk.eval_H(m, y, u, p2)
        if abs(c.value - b.value) > speeds.max() * abs(float(p2[0] - p[0])) + 1e-12:
            ok = False
        # argmax invariance under a constant reward shift, exactly
        s = hk.eval_H(m_shift, y, u, p)
        if s.argmax_index != b.argmax_index or \
                abs(s.value - b.value - 2.0) > 1e-12:
            ok = False
    record(9, "Hamiltonian properties", ok)


def test_criterion_10_cli_reproducibility(tmp_path):
    model = DATA + "/ou_model.json"
    market = DATA + "/merton_market.json"
    scenario = tmp_path / "bounds.json"
    scenario.write_text(json.dumps({"kind": "envelope", "K": 3.0, "M": 1.0,
                                    "y0": 0.5, "T": 1.0}))
    runs = {
        "check": ["check", "--model", model, "--seed", "3"],
        "solve": ["solve", "--model", model, "--infinite", "--grid-min",
                  "-3", "--grid-max", "3", "--nodes", "31", "--dt", "5e-3",
                  "--tol-dt", "1e-4", "--t-max", "100", "--seed", "3"],
        "verify": ["verify", "--model", model, "--bounds", str(scenario),
                   "--paths", "2000", "--dt-sim", "1e-2", "--seed", "3"],
        "merton": ["merton", "--market", market, "--skip-solve",
                   "--seed", "3"],
        "kappa": ["kappa", "--model", model, "--radius", "1", "--horizon",
                  "2", "--paths", "300", "--dt-sim", "2e-2", "--seed", "3"],
    }
    ok = True
    for name, argv in runs.items():
        outs = []
        for tag in ("a", "b"):
            out = tmp_path / name / tag
            code = cli_main(argv + ["--out", str(out)])
            if code != 0:
                ok = False
            outs.append(out)
        files = sorted(p.name for p in outs[0].iterdir())
        if not files:
            ok = False
        for f in files:
            if (outs[0] / f).read_bytes() != (outs[1] / f).read_bytes():
                ok = False
    record(10, "CLI reproducibility", ok)
