"""Well-posedness of the infinite horizon: envelopes and horizon limits.

The stationary problem is meaningful when the discounted moment envelope
kappa(t) is integrable in time.  This script estimates the envelope over
a family of constant policies, checks the finite-horizon values converge
as the horizon grows (with common random numbers), and bounds the solved
field and its gradient with the tabulated envelope.
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
        running_reward=lambda y, d: 1.0 / (1.0 + np.sum(
            np.asarray(y, float) ** 2, axis=-1)),
        terminal_reward=lambda y: np.zeros(np.asarray(y).shape[:-1]),
        controls=np.array([[0.0], [0.5]]), lip_L1=2.0, lip_L2=-1.0)


def main():
    model = build_model()
    mc = hk.MonteCarloConfig(paths=2000, dt=1e-2, seed=0)

    table = hk.estimate_kappa(model, 2, 8.0, mc)
    print(f"kappa envelope: decay rate {table.decay_rate:.3f}, "
          f"integral {table.integral_kappa:.4f}, "
          f"K e^(M|y|) fit K={table.envelope_K:.3f} M={table.envelope_M:.3f}")
    print(f"integrable: {not table.non_integrable}")

    policy = hk.constant_policies(model)[0]
    rep = hk.horizon_convergence(model, policy, [0.5], [2.0, 4.0, 8.0],
                                 hk.MonteCarloConfig(paths=20000, dt=5e-3,
                                                     seed=1),
                                 kappa_table=table)
    print("\nhorizon convergence (common random numbers):")
    for T, res in zip(rep.horizons, rep.results):
        print(f"  T={T:4.0f}: value {res.mean:.5f} +- {res.std_error:.1e}")
    print(f"  differences {np.round(rep.differences, 5)} "
          f"-> converging={rep.converging}, tail ok={rep.within_tail}")

    grid = hk.Grid1D(-3.0, 3.0, 61)
    vf, _, _ = hk.solve_infinite_horizon(model, grid, 2.5e-3, 1e-6, 200.0)
    check = hk.gradient_bound_check(vf, table, model.lip_L1, model.lip_L2)
    print(f"\ngrowth check on the solved field: {check.status} "
          f"(value bound {check.value_bound:.3f}, "
          f"gradient bound {check.gradient_bound:.3f})")


if __name__ == "__main__":
    main()
