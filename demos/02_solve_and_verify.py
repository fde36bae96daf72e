"""Solve the HJB problem on a grid and cross-check against Monte Carlo.

Finite horizon: explicit upwind march backward from the terminal reward.
Infinite horizon: forward march from zero until the time derivative dies
out.  The solved field is then verified through the discounted-reward
representation with the solver's own feedback policy.
"""

import numpy as np

import hjbkit as hk


def build_model():
    def drift(y, d):
        y = np.asarray(y, float)
        return -y + np.broadcast_to(np.asarray(d, float), y.shape)

    return hk.ControlModel(
        dim=1, drift=drift,
        discount_rate=lambda y, d: np.full(np.asarray(y).shape[:-1], -1.0),
        running_reward=lambda y, d: 1.0 - np.sum(np.asarray(d, float) ** 2,
                                                 axis=-1)
        + 0.0 * np.sum(np.asarray(y, float), axis=-1),
        terminal_reward=lambda y: np.zeros(np.asarray(y).shape[:-1]),
        controls=np.array([[0.0], [0.5], [1.0]]),
        lip_L1=2.0, lip_L2=-1.0)


def main():
    model = build_model()
    grid = hk.Grid1D(-3.0, 3.0, 61)

    # finite horizon; the CFL limit is enforced, try steps=50 to see it
    vf, pf, rep = hk.solve_finite_horizon(model, grid, hk.TimeGrid(1.0, 2000),
                                          slice_stride=500)
    print(f"finite horizon: cfl={rep.cfl_ratio:.3f}  "
          f"u(0,0)={vf.layer(0.0)[30]:.6f}  (exact 1-1/e={1-np.exp(-1):.6f})")

    # infinite horizon: for this model the stationary value is exactly 1
    v_inf, p_inf, rep_inf = hk.solve_infinite_horizon(model, grid, 2.5e-3,
                                                      1e-6, 200.0)
    res = hk.residual(model, v_inf)
    print(f"infinite horizon: converged={rep_inf.converged} "
          f"steps={rep_inf.steps}  u(0)={v_inf.values[0][30]:.6f}  "
          f"residual={np.max(np.abs(res)):.2e}")

    # Monte Carlo check through the discounted-reward representation,
    # reward-only functional to match the stationary value
    policy = p_inf.as_policy()
    mc = hk.MonteCarloConfig(paths=20000, dt=2e-3, seed=0)
    reward_only = hk.ControlModel(
        dim=1, drift=model.drift, discount_rate=model.discount_rate,
        running_reward=model.running_reward,
        terminal_reward=lambda y: np.zeros(np.asarray(y).shape[:-1]),
        controls=model.controls, lip_L1=model.lip_L1, lip_L2=model.lip_L2)
    probes = (-1.0, 0.0, 1.0)
    ests = hk.estimate_value(reward_only, policy, [[y] for y in probes],
                             0.0, 12.0, mc)
    for y, est in zip(probes, ests):
        node = int(np.argmin(np.abs(grid.ys - y)))
        print(f"  y={y:+.1f}: pde={v_inf.values[0][node]:.5f} "
              f"mc={est.mean:.5f} +- {est.std_error:.1e}")


if __name__ == "__main__":
    main()
