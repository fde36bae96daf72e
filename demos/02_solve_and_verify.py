"""Solve the HJB problem on a grid and cross-check against Monte Carlo.

The model is the consumption-investment reduction of a factor market:
the excess drift is affine in the factor y and the factor mean-reverts, so
the optimal portfolio weight varies with y and the Monte Carlo payoff is
noisy.  Finite horizon: explicit upwind march backward from the terminal
reward.  Infinite horizon: policy iteration on the stationary equation,
printed beside the long-time march it replaces, with the a-posteriori
error estimate ``dvdt_norm / min(-h)`` of each.  The stationary field is
then verified through the discounted-reward representation with its own
feedback policy, up to the horizon stamped on the field.
"""

import numpy as np

import hjbkit as hk


def build_model():
    market = hk.MarketModel(
        short_rate=0.02,
        excess_drift=lambda y: 0.04 + 0.03 * np.asarray(y, float)[..., 0],
        volatility=0.2, correlation=0.5, risk_aversion=0.5, discount=0.1,
        position_cap=2.0, consumption_cap=1.0,
        factor_drift=lambda y: -np.asarray(y, float)[..., 0])
    return hk.to_control_model(market, (5, 5))


def main():
    model = build_model()
    grid = hk.Grid1D(-2.0, 2.0, 41)
    probes = (-1.0, 0.0, 1.0)
    nodes = [int(np.argmin(np.abs(grid.ys - y))) for y in probes]

    # finite horizon; the CFL limit is enforced, try steps=50 to see it
    vf, _, rep = hk.solve_finite_horizon(model, grid, hk.TimeGrid(1.0, 300),
                                         slice_stride=100)
    print(f"finite horizon T=1: cfl={rep.cfl_ratio:.3f}  "
          f"u(0, 0)={vf.layer(0.0)[nodes[1]]:.6f}")

    # infinite horizon: policy iteration and the long-time march it replaces
    v_pi, p_pi, rep_pi = hk.solve_stationary(model, grid, 1e-6)
    i, _, _ = hk.hamiltonian.control_tables(model, grid.ys[:, None])
    dt = 0.9 / (1.0 / grid.spacing ** 2 + np.abs(i).max() / grid.spacing)
    v_m, _, rep_m = hk.solve_infinite_horizon(model, grid, dt, 1e-6, 3000.0)
    print(f"{'':18}{'policy iteration':>18}{'long-time march':>18}")
    for name, a, b in (
            ("solves / steps", rep_pi.steps, rep_m.steps),
            ("dvdt_norm", f"{rep_pi.dvdt_norm:.1e}", f"{rep_m.dvdt_norm:.1e}"),
            ("error_bound", f"{rep_pi.error_bound:.1e}",
             f"{rep_m.error_bound:.1e}"),
            *((f"u({y:+.0f})", f"{v_pi.values[0][n]:.7f}",
               f"{v_m.values[0][n]:.7f}") for y, n in zip(probes, nodes))):
        print(f"{name:18}{a:>18}{b:>18}")
    print(f"max |difference| = {np.abs(v_pi.values - v_m.values).max():.1e}")
    print("portfolio weight by y:",
          {float(y): float(p) for y, p in zip(grid.ys[::10],
                                              p_pi.controls[0, ::10, 0])})

    # Monte Carlo check through the discounted-reward representation,
    # reward-only functional to match the stationary value
    horizon = float(v_pi.time_stamps[0])
    reward_only = hk.ControlModel(
        dim=1, drift=model.drift, discount_rate=model.discount_rate,
        running_reward=model.running_reward,
        terminal_reward=lambda y: np.zeros(np.asarray(y).shape[:-1]),
        controls=model.controls, lip_L1=model.lip_L1, lip_L2=model.lip_L2)
    mc = hk.MonteCarloConfig(paths=4000, dt=1e-2, seed=0)
    ests = hk.estimate_value(reward_only, p_pi.as_policy(),
                             [[y] for y in probes], 0.0, horizon, mc)
    print(f"Monte Carlo to the stamped horizon {horizon:.1f}:")
    for y, node, est in zip(probes, nodes, ests):
        print(f"  y={y:+.1f}: pde={v_pi.values[0][node]:.5f} "
              f"mc={est.mean:.5f} +- {est.std_error:.1e}")


if __name__ == "__main__":
    main()
