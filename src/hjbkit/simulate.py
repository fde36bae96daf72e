"""Euler-Maruyama simulation and Monte Carlo verification.

The controlled state uses unit diffusion per coordinate, so the Euler step
is exact in the noise term.  Both the discount integral and the discounted
reward integral are accumulated by left-endpoint quadrature, keeping the
discount multiplicative per step.

Randomness comes from counter-based Philox streams keyed by
``(seed, path index)``: results are bit-reproducible and independent of
how paths are scheduled or blocked.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import ParameterError, PathExclusionError

__all__ = [
    "MonteCarloConfig",
    "PathBatch",
    "EstimatorResult",
    "simulate_paths",
    "estimate_value",
    "coupled_contraction",
    "horizon_convergence",
    "verify_bounds",
    "DriftDiscountBound",
    "UniformDiscountBound",
    "ExponentialEnvelopeBound",
]

_BLOCK = 1 << 14
_EXCLUSION_BUDGET = 1e-3


@dataclass(frozen=True)
class MonteCarloConfig:
    paths: int
    dt: float
    seed: int
    antithetic: bool = False

    def __post_init__(self):
        if self.paths < 1:
            raise ParameterError("paths must be >= 1")
        if not self.dt > 0:
            raise ParameterError("dt must be positive")
        if self.antithetic and self.paths % 2:
            raise ParameterError("antithetic sampling needs an even path count")


@dataclass
class PathBatch:
    y_final: np.ndarray
    log_discount: np.ndarray
    reward_integral: np.ndarray
    excluded: np.ndarray
    dt: float
    horizon: float
    checkpoint_times: np.ndarray = None
    checkpoint_states: np.ndarray = None
    checkpoint_log_discounts: np.ndarray = None
    checkpoint_rewards: np.ndarray = None
    checkpoint_deltas: np.ndarray = None


@dataclass(frozen=True)
class EstimatorResult:
    mean: float
    std_error: float
    paths: int
    seed: int
    horizon: float
    excluded: int = 0
    discount_logs: np.ndarray = None

    def as_dict(self):
        return {
            "mean": float(self.mean),
            "std_error": float(self.std_error),
            "paths": int(self.paths),
            "seed": int(self.seed),
            "horizon": float(self.horizon),
            "excluded": int(self.excluded),
        }


def _path_increments(seed, path_ids, steps, dim, antithetic):
    """Gaussian increments, one Philox stream per (pair of) path(s)."""
    out = np.empty((len(path_ids), steps, dim))
    for j, p in enumerate(path_ids):
        stream = int(p) // 2 if antithetic else int(p)
        gen = np.random.Generator(np.random.Philox(key=[seed, stream]))
        z = gen.standard_normal((steps, dim))
        out[j] = -z if (antithetic and p % 2 == 1) else z
    return out


def _policy_eval(policy, y, t):
    delta = np.asarray(policy(y, t), float)
    return delta


def _steps_for(T, dt):
    steps = max(1, int(round(T / dt)))
    return steps, T / steps


def simulate_paths(model, policy, y0, T, mc, checkpoints=None, t0=0.0):
    """Simulate the controlled SDE under a feedback policy.

    ``policy(y, t)`` must return a control point (or a batch of them, one
    per path).  Along each path the discount integral and the discounted
    reward integral are accumulated; states, deltas and running integrals
    can additionally be recorded at ``checkpoints`` (times in ``(0, T]``).
    """
    if not T > 0:
        raise ParameterError("T must be positive")
    steps, dt = _steps_for(T, mc.dt)
    y0 = np.atleast_1d(np.asarray(y0, float))
    if y0.shape != (model.dim,):
        raise ParameterError(f"y0 must have length {model.dim}")

    cp_idx = None
    if checkpoints is not None:
        cp_times = np.asarray(checkpoints, float)
        cp_idx = np.rint(cp_times / dt).astype(int)
        if np.any(cp_idx < 1) or np.any(cp_idx > steps):
            raise ParameterError("checkpoints must lie in (0, T]")

    n = mc.paths
    k = model.controls.shape[1]
    y_final = np.empty((n, model.dim))
    log_D = np.empty(n)
    reward = np.empty(n)
    if cp_idx is not None:
        cs = np.empty((n, len(cp_idx), model.dim))
        cl = np.empty((n, len(cp_idx)))
        cr = np.empty((n, len(cp_idx)))
        cd = np.empty((n, len(cp_idx), k))

    sqdt = np.sqrt(dt)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for start in range(0, n, _BLOCK):
            ids = np.arange(start, min(start + _BLOCK, n))
            z = _path_increments(mc.seed, ids, steps, model.dim, mc.antithetic)
            y = np.broadcast_to(y0, (len(ids), model.dim)).copy()
            ld = np.zeros(len(ids))
            rw = np.zeros(len(ids))
            for s in range(steps):
                t = t0 + s * dt
                delta = _policy_eval(policy, y, t)
                drift = np.asarray(model.drift(y, delta), float)
                hv = np.asarray(model.discount_rate(y, delta), float)
                fv = np.asarray(model.running_reward(y, delta), float)
                rw += np.exp(ld) * fv * dt
                ld += hv * dt
                y = y + drift * dt + sqdt * z[:, s]
                if cp_idx is not None:
                    hit = np.nonzero(cp_idx == s + 1)[0]
                    for ci in hit:
                        cs[ids, ci] = y
                        cl[ids, ci] = ld
                        cr[ids, ci] = rw
                        d = np.asarray(delta, float)
                        cd[ids, ci] = d if d.ndim > 1 else np.broadcast_to(d, (len(ids), k))
            y_final[ids] = y
            log_D[ids] = ld
            reward[ids] = rw

    excluded = ~(
        np.all(np.isfinite(y_final), axis=-1)
        & np.isfinite(log_D)
        & np.isfinite(reward)
    )
    batch = PathBatch(
        y_final=y_final,
        log_discount=log_D,
        reward_integral=reward,
        excluded=excluded,
        dt=dt,
        horizon=T,
    )
    if cp_idx is not None:
        batch.checkpoint_times = cp_idx * dt
        batch.checkpoint_states = cs
        batch.checkpoint_log_discounts = cl
        batch.checkpoint_rewards = cr
        batch.checkpoint_deltas = cd
    return batch


def _reduce(payoffs, excluded, mc, horizon, keep_logs=None):
    n = len(payoffs)
    n_excl = int(np.count_nonzero(excluded))
    if n_excl > _EXCLUSION_BUDGET * n:
        raise PathExclusionError(n_excl, n)
    if mc.antithetic:
        # a pair is one sample: an excluded path drops its partner too
        pairs = ~(excluded[0::2] | excluded[1::2])
        vals = 0.5 * (payoffs[0::2][pairs] + payoffs[1::2][pairs])
    else:
        vals = payoffs[~excluded]
    mean = float(np.mean(vals))
    se = float(np.std(vals, ddof=1) / np.sqrt(len(vals))) if len(vals) > 1 else 0.0
    return EstimatorResult(
        mean=mean,
        std_error=se,
        paths=n,
        seed=mc.seed,
        horizon=horizon,
        excluded=n_excl,
        discount_logs=keep_logs,
    )


def estimate_value(model, policy, y0, t, T, mc, keep_discount_logs=False):
    """Monte Carlo estimate of the discounted reward functional on [t, T].

    Returns the sample mean of ``int e^{int h} f ds + e^{int h} g(Y_T)``
    with its standard error.  For infinite-horizon use pass a large ``T``
    and a model with zero terminal reward.
    """
    if not T > t:
        raise ParameterError("need T > t")
    batch = simulate_paths(model, policy, y0, T - t, mc, t0=t)
    with np.errstate(over="ignore", invalid="ignore"):
        gv = np.asarray(model.terminal_reward(batch.y_final), float)
        payoff = batch.reward_integral + np.exp(batch.log_discount) * gv
    excluded = batch.excluded | ~np.isfinite(payoff)
    logs = batch.log_discount if keep_discount_logs else None
    return _reduce(payoff, excluded, mc, T - t, keep_logs=logs)


@dataclass(frozen=True)
class CouplingReport:
    times: np.ndarray
    max_ratio: np.ndarray            # vs the continuous bound |dy0| e^{L2 t}
    max_ratio_discrete: np.ndarray   # vs the compounded per-step factor
    path_spread: np.ndarray          # max-min ratio across paths per time
    worst_ratio: float
    worst_ratio_discrete: float
    initial_distance: float


def coupled_contraction(model, policy, y0, ybar0, T, mc):
    """Pathwise contraction check with coupled noise.

    Both starts see identical Gaussian increments; the report carries the
    per-time maximum over paths of ``|Y_t(y0) - Y_t(ybar0)|`` normalized by
    the contraction bound ``|y0 - ybar0| exp(L2 t)``, and the same distance
    normalized by the compounded discrete factor ``prod(1 + L2 dt)`` (the
    exact propagator of the linear-drift difference recursion).
    """
    steps, dt = _steps_for(T, mc.dt)
    y0 = np.atleast_1d(np.asarray(y0, float))
    ybar0 = np.atleast_1d(np.asarray(ybar0, float))
    d0 = float(np.linalg.norm(y0 - ybar0))
    if d0 == 0.0:
        raise ParameterError("coupling starts must differ")
    n = mc.paths
    L2 = model.lip_L2

    times = dt * np.arange(1, steps + 1)
    max_ratio = np.zeros(steps)
    max_ratio_d = np.zeros(steps)
    min_ratio = np.full(steps, np.inf)
    disc_factor = (1.0 + L2 * dt) ** np.arange(1, steps + 1)
    cont_factor = np.exp(L2 * times)

    sqdt = np.sqrt(dt)
    for start in range(0, n, _BLOCK):
        ids = np.arange(start, min(start + _BLOCK, n))
        z = _path_increments(mc.seed, ids, steps, model.dim, mc.antithetic)
        ya = np.broadcast_to(y0, (len(ids), model.dim)).copy()
        yb = np.broadcast_to(ybar0, (len(ids), model.dim)).copy()
        for s in range(steps):
            t = s * dt
            da = _policy_eval(policy, ya, t)
            db = _policy_eval(policy, yb, t)
            ya = ya + np.asarray(model.drift(ya, da), float) * dt + sqdt * z[:, s]
            yb = yb + np.asarray(model.drift(yb, db), float) * dt + sqdt * z[:, s]
            dist = np.linalg.norm(ya - yb, axis=-1)
            ratios = dist / (d0 * cont_factor[s])
            max_ratio[s] = max(max_ratio[s], float(ratios.max()))
            min_ratio[s] = min(min_ratio[s], float(ratios.min()))
            max_ratio_d[s] = max(
                max_ratio_d[s], float(dist.max() / (d0 * abs(disc_factor[s])))
            )
    spread = max_ratio - min_ratio
    return CouplingReport(
        times=times,
        max_ratio=max_ratio,
        max_ratio_discrete=max_ratio_d,
        path_spread=spread,
        worst_ratio=float(max_ratio.max()),
        worst_ratio_discrete=float(max_ratio_d.max()),
        initial_distance=d0,
    )


@dataclass(frozen=True)
class HorizonConvergence:
    horizons: np.ndarray
    results: list
    differences: np.ndarray
    converging: bool
    tail_bound: float = None
    within_tail: bool = None


def horizon_convergence(model, policy, y0, horizons, mc, kappa_table=None):
    """Finite-horizon estimates at increasing horizons, common random numbers.

    Simulates once to the largest horizon and reads the running discounted
    reward integral at every requested horizon (terminal reward excluded,
    matching the infinite-horizon functional).  Flags non-convergence when
    the successive differences fail to shrink; when a kappa table is given,
    the final difference is compared to the envelope tail integral.
    """
    horizons = np.asarray(horizons, float)
    if np.any(np.diff(horizons) <= 0):
        raise ParameterError("horizons must be strictly increasing")
    batch = simulate_paths(model, policy, y0, float(horizons[-1]), mc,
                           checkpoints=horizons)
    results = []
    for j in range(len(horizons)):
        payoff = batch.checkpoint_rewards[:, j]
        excl = batch.excluded | ~np.isfinite(payoff)
        res = _reduce(payoff, excl, mc, float(horizons[j]))
        results.append(res)
    means = np.array([r.mean for r in results])
    diffs = np.abs(np.diff(means))
    converging = bool(np.all(np.diff(diffs) < 0)) if len(diffs) > 1 else True
    tail_bound = None
    within = None
    if kappa_table is not None and len(horizons) >= 2:
        tail_bound = kappa_table.integral(horizons[-2], horizons[-1])
        within = bool(diffs[-1] <= tail_bound + 3 * results[-1].std_error)
    return HorizonConvergence(
        horizons=horizons,
        results=results,
        differences=diffs,
        converging=converging,
        tail_bound=tail_bound,
        within_tail=within,
    )


# --- analytic path-level bounds ------------------------------------------

@dataclass(frozen=True)
class DriftDiscountBound:
    """Discount-moment bound for drift <= -alpha*y + beta, h <= -P + Q*y.

    Bound: exp(Q max(y0,0)/alpha) * exp((-P + Q beta/alpha + Q^2/(2 alpha^2)) t),
    against the statistic E exp(int h).
    """

    alpha: float
    beta: float
    P: float
    Q: float

    def value(self, t, y0):
        rate = -self.P + self.Q * self.beta / self.alpha + self.Q ** 2 / (2 * self.alpha ** 2)
        yplus = max(float(np.atleast_1d(y0)[0]), 0.0)
        return float(np.exp(self.Q * yplus / self.alpha) * np.exp(rate * t))

    statistic = "discount"


@dataclass(frozen=True)
class UniformDiscountBound:
    """Bound exp(-w t) (1 + |y0| exp(L2 t)) against E exp(int h) f(Y_t)."""

    w: float
    L1: float
    L2: float

    def value(self, t, y0):
        return float(np.exp(-self.w * t) * (1.0 + np.linalg.norm(y0) * np.exp(self.L2 * t)))

    statistic = "discounted_reward"


@dataclass(frozen=True)
class ExponentialEnvelopeBound:
    """Time-uniform envelope K exp(M |y0|) for the discounted moments."""

    K: float
    M: float

    def value(self, t, y0):
        return float(self.K * np.exp(self.M * np.linalg.norm(y0)))

    statistic = "discounted_moments"


@dataclass(frozen=True)
class BoundVerification:
    met: bool
    worst_margin: float
    rows: list

    def as_dict(self):
        return {"met": bool(self.met), "worst_margin": float(self.worst_margin),
                "rows": self.rows}


def verify_bounds(model, bound_spec, y0, T, mc, times=None):
    """Check one of the analytic moment bounds by simulation.

    The left-hand expectation is estimated on a time grid under the
    constant policy at each control point; every grid point must satisfy
    ``estimate <= bound * (1 + 3 * relative SE)``.  The margin reported per
    row is ``(bound * (1 + 3 relSE) - estimate) / bound``; the worst margin
    over all rows decides ``met``.
    """
    y0 = np.atleast_1d(np.asarray(y0, float))
    if times is None:
        times = np.linspace(T / 4, T, 4)
    times = np.asarray(times, float)
    rows = []
    for ci, delta in enumerate(model.controls):
        policy = lambda y, t, _d=np.array(delta, float): _d
        batch = simulate_paths(model, policy, y0, T, mc, checkpoints=times)
        ok = ~batch.excluded
        n_ok = int(np.count_nonzero(ok))
        if (len(ok) - n_ok) > _EXCLUSION_BUDGET * len(ok):
            raise PathExclusionError(len(ok) - n_ok, len(ok))
        with np.errstate(over="ignore", invalid="ignore"):
            disc = np.exp(batch.checkpoint_log_discounts)
        for ti, t in enumerate(times):
            ys = batch.checkpoint_states[:, ti]
            ds = batch.checkpoint_deltas[:, ti]
            if bound_spec.statistic == "discount":
                samplesets = {"unit": disc[:, ti]}
            elif bound_spec.statistic == "discounted_reward":
                fv = np.asarray(model.running_reward(ys, ds), float)
                samplesets = {"f": disc[:, ti] * fv}
            else:
                fv = np.abs(np.asarray(model.running_reward(ys, ds), float))
                gv = np.abs(np.asarray(model.terminal_reward(ys), float))
                samplesets = {
                    "f": disc[:, ti] * np.maximum(fv, 1.0),
                    "g": disc[:, ti] * np.maximum(gv, 1.0),
                }
            for factor, samples in samplesets.items():
                samples = samples[ok]
                est = float(np.mean(samples))
                se = float(np.std(samples, ddof=1) / np.sqrt(len(samples)))
                bound = bound_spec.value(float(t), y0)
                allowance = bound * (1.0 + 3.0 * se / est) if est > 0 else bound
                margin = (allowance - est) / bound if bound != 0 else -np.inf
                rows.append({
                    "t": float(t),
                    "control_index": ci,
                    "factor": factor,
                    "estimate": est,
                    "std_error": se,
                    "bound": bound,
                    "margin": float(margin),
                    "met": bool(est <= allowance),
                })
    worst = min(r["margin"] for r in rows)
    return BoundVerification(
        met=bool(all(r["met"] for r in rows)),
        worst_margin=float(worst),
        rows=rows,
    )
