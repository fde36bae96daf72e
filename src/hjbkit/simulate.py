"""Euler-Maruyama simulation and Monte Carlo verification.

One Euler loop, ``_march``, steps the controlled SDE for every (policy,
start) pair of a call on the same Gaussian increments.  A step calls each
policy once on its own ``(S·m, N)`` rows (``S`` starts, ``m`` paths of a
block), then the drift, the discount rate and the running reward once each
on all ``P·S·m`` rows of states and controls, and adds the block's
increments to every pair's rows by broadcasting.  ``simulate_paths``
records states, controls, discount integral and discounted reward integral
at requested times in a ``PathBatch``, in the order the loop writes them;
``coupled_contraction`` reduces its distances step by step as the loop
runs.  The state uses unit diffusion per coordinate, so the Euler step is
exact in the noise term.  Both integrals are accumulated by left-endpoint
quadrature, keeping the discount multiplicative per step.

Every Monte Carlo estimate takes its records from ``simulate_paths`` and
reduces them here, in ``_reduce``: value estimates, horizon studies, and
``discounted_estimates`` for the bound checks and ``model.estimate_kappa``.
It applies the 0.1% exclusion budget per (policy, start), pairs antithetic
paths, and averages only along a C-contiguous last path axis, where an
axis mean equals each row's 1-D mean bit for bit.

Randomness comes from counter-based Philox streams keyed by
``(seed, path index)``: results are bit-reproducible and independent of
how paths are blocked, how the increments are chunked in time and how many
(policy, start) pairs share them.  A block of paths keeps one generator per
path alive and draws ``_CHUNK`` steps at a time, so the loop's memory does
not grow with the horizon; the records take one value per policy, start,
path and record time.  ``discounted_estimates`` simulates its policies,
such as the ``constant_policies`` family, in groups whose records fit in
``_RECORD_BYTES``.
"""

from dataclasses import dataclass, replace

import numpy as np

from .errors import ParameterError, PathExclusionError
from .reports import Report

__all__ = [
    "MonteCarloConfig",
    "PathBatch",
    "EstimatorResult",
    "simulate_paths",
    "estimate_value",
    "constant_policies",
    "discounted_estimates",
    "coupled_contraction",
    "horizon_convergence",
    "verify_bounds",
    "DriftDiscountBound",
    "UniformDiscountBound",
    "DiffusionDiscountBound",
    "ExponentialEnvelopeBound",
]

_BLOCK = 1 << 14      # paths per block
_CHUNK = 128          # steps of increments drawn at a time
_RECORD_BYTES = 1 << 25   # records per call of the grouped moment checks
_EXCLUSION_BUDGET = 1e-3
_STREAM_START = np.random.Philox(key=[0, 0]).state  # key swapped in per path


@dataclass(frozen=True)
class MonteCarloConfig:
    paths: int
    dt: float
    seed: int
    antithetic: bool = False

    def __post_init__(self):
        if self.paths < 1:
            raise ParameterError("paths must be >= 1")
        if self.seed < 0:
            raise ParameterError("seed must be >= 0")
        if not self.dt > 0:
            raise ParameterError("dt must be positive")
        if self.antithetic and self.paths % 2:
            raise ParameterError("antithetic sampling needs an even path count")


@dataclass
class PathBatch:
    """Records of one kernel call, indexed ``[policy, start, record, path]``.

    Every record's paths are one C-contiguous row, as ``_reduce`` averages
    them.  The last record time is the horizon.  ``deltas`` holds the
    control applied over the step that ends at each record; ``excluded``
    flags the paths whose final record is not finite.
    """

    times: np.ndarray            # (R,)
    states: np.ndarray           # (P, S, R, paths, N)
    log_discount: np.ndarray     # (P, S, R, paths)
    reward_integral: np.ndarray  # (P, S, R, paths)
    deltas: np.ndarray           # (P, S, R, paths, k)
    excluded: np.ndarray         # (P, S, paths)


@dataclass(frozen=True)
class EstimatorResult(Report):
    mean: float
    std_error: float
    paths: int
    seed: int
    horizon: float
    excluded: int = 0


def _steps_for(T, dt):
    steps = max(1, int(round(T / dt)))
    return steps, T / steps


def _path_draws(mc, ids, kept):
    """Each path's ``standard_normal``, from the start of its Philox stream.

    Streams are keyed by ``(seed, path)``, an antithetic pair sharing one.
    ``kept``, if not None, maps a block's first path to its generators
    across calls: they are built once (about 25 us each) and later calls
    rewind them to the start of their streams (about 4 us each).
    """
    def key(i):
        return [mc.seed, i // 2 if mc.antithetic else i]

    gens = None if kept is None else kept.get(ids.start)
    if gens is None:
        gens = [np.random.Generator(np.random.Philox(key=key(i))) for i in ids]
        if kept is not None:
            kept[ids.start] = gens
    else:
        start = dict(_STREAM_START, state=dict(_STREAM_START["state"]))
        for gen, i in zip(gens, ids):
            start["state"]["key"] = np.array(key(i), np.uint64)
            gen.bit_generator.state = start
    return [gen.standard_normal for gen in gens]


def _march(model, policies, starts, steps, dt, mc, marks, t0, kept=None):
    """The Euler loop over blocks of paths, for every (policy, start) pair.

    Yields ``(lo, step, y, d, ld, rw)`` after every step in ``marks``: the
    block's first path and live ``(P, S, m, ...)`` views of the states,
    controls, log-discounts and reward integrals, to be copied or reduced.
    ``kept`` carries the path generators across calls (``_path_draws``).
    A step forms ``y + drift·dt`` and then adds the block's ``(m, N)``
    increments in place, broadcast over a ``(P·S, m, N)`` view, so the
    noise is never copied per pair and rounds as ``(y + drift·dt) +
    noise`` does.
    """
    P, S, N, k = len(policies), len(starts), model.dim, model.controls.shape[1]
    sqdt = np.sqrt(dt)
    for lo in range(0, mc.paths, _BLOCK):
        ids = range(lo, min(lo + _BLOCK, mc.paths))
        m = len(ids)
        draws = _path_draws(mc, ids, kept)
        z = np.empty((m, min(_CHUNK, steps), N))
        rows = list(z)
        # row (p, s, path) of the P*S*m rows that every coefficient call takes
        y = np.empty((P * S * m, N))
        y.reshape(P, S, m, N)[:] = starts[:, None]
        ld = np.zeros(P * S * m)
        rw = np.zeros(P * S * m)
        d = np.empty((P, S * m, k))
        for s in range(steps):
            if s % _CHUNK == 0:
                if steps - s < len(rows[0]):
                    rows = [row[:steps - s] for row in rows]
                for draw, row in zip(draws, rows):
                    draw(out=row)
                if mc.antithetic:
                    odd = z[(lo + 1) % 2::2]
                    np.negative(odd, out=odd)
            t = t0 + s * dt
            with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                for p, policy in enumerate(policies):
                    d[p] = policy(y.reshape(P, S * m, N)[p], t)
                drift = np.asarray(model.drift(y, d.reshape(-1, k)), float)
                hv = np.asarray(model.discount_rate(y, d.reshape(-1, k)), float)
                fv = np.asarray(model.running_reward(y, d.reshape(-1, k)), float)
                rw += np.exp(ld) * fv * dt
                ld += hv * dt
                y = y + drift * dt
                pairs = y.reshape(P * S, m, N)  # a view of the fresh C-order sum
                pairs += sqdt * z[:, s % _CHUNK]
            if s + 1 in marks:
                yield (lo, s + 1, y.reshape(P, S, m, N), d.reshape(P, S, m, k),
                       ld.reshape(P, S, m), rw.reshape(P, S, m))


def simulate_paths(model, policies, starts, T, mc, times=(), t0=0.0, kept=None):
    """Simulate the controlled SDE for every (policy, start) pair.

    ``policies`` is a sequence of feedback maps ``policy(y, t)`` returning
    a control point or one per row of ``y``; ``starts`` has shape
    ``(S, N)``.  All pairs step on the same increments, stacked along the
    row axis, so every callable receives ``(rows, N)`` states.  Records are
    taken at ``times`` (in ``(0, T]``) and at ``T`` and returned as a
    ``PathBatch`` in the record-major order they are written; they take
    ``P * S * records * paths * (N + k + 2)`` floats.  ``kept`` carries the
    path generators across the calls of ``discounted_estimates``.
    """
    if not T > 0:
        raise ParameterError("T must be positive")
    steps, dt = _steps_for(T, mc.dt)
    starts = np.asarray(starts, float)
    if starts.ndim != 2 or starts.shape[1] != model.dim:
        raise ParameterError(f"starts must have shape (S, {model.dim})")
    marks = np.rint(np.asarray(times, float) / dt).astype(int)
    if np.any(marks < 1) or np.any(marks > steps):
        raise ParameterError("record times must lie in (0, T]")
    if not len(marks) or marks[-1] != steps:
        marks = np.append(marks, steps)
    shape = (len(policies), len(starts), len(marks), mc.paths)
    # states, deltas, log-discounts and rewards, in the order _march yields
    records = (np.empty(shape + (model.dim,)),
               np.empty(shape + (model.controls.shape[1],)),
               np.empty(shape), np.empty(shape))
    for lo, s, *live in _march(model, policies, starts, steps, dt, mc,
                               set(marks.tolist()), t0, kept):
        for r in np.flatnonzero(marks == s):
            for record, value in zip(records, live):
                record[:, :, r, lo:lo + value.shape[2]] = value
    states, deltas, log_discount, reward = records

    excluded = ~(
        np.all(np.isfinite(states[:, :, -1]), axis=-1)
        & np.isfinite(log_discount[:, :, -1])
        & np.isfinite(reward[:, :, -1])
    )
    return PathBatch(marks * dt, states, log_discount, reward, deltas, excluded)


def _moments(x):
    """Means and standard errors along the last axis of a C-contiguous copy."""
    x = np.ascontiguousarray(x)
    n = x.shape[-1]
    se = np.std(x, axis=-1, ddof=1) / np.sqrt(n) if n > 1 else np.zeros(x.shape[:-1])
    return np.asarray(np.mean(x, axis=-1)), np.asarray(se)


def _reduce(samples, excluded, mc, horizon):
    """Estimates of ``(..., paths)`` samples: the one Monte Carlo reduction.

    ``excluded`` has as many axes, each of full size or 1: one mask row per
    group of sample rows, such as ``(P, S, 1, paths)`` against ``(P, S, R,
    paths)``.  A mask row may exclude at most ``_EXCLUSION_BUDGET`` of its
    paths, else ``PathExclusionError``; an antithetic pair is one sample,
    dropped whole.  Returns an ``EstimatorResult`` of leading-shape arrays.
    """
    n = samples.shape[-1]
    n_excl = np.count_nonzero(excluded, axis=-1)
    if n_excl.max() > _EXCLUSION_BUDGET * n:
        raise PathExclusionError(int(n_excl.max()), n)
    if mc.antithetic:
        samples = 0.5 * (samples[..., 0::2] + samples[..., 1::2])
        excluded = excluded[..., 0::2] | excluded[..., 1::2]
    with np.errstate(over="ignore", invalid="ignore"):
        mean, se = _moments(samples)
        for group in np.argwhere(excluded.any(axis=-1)):
            rows = tuple(i if size > 1 else slice(None)
                         for i, size in zip(group, excluded.shape))
            mean[rows], se[rows] = _moments(
                samples[rows][..., ~excluded[tuple(group)]])
    return EstimatorResult(mean[()], se[()], n, mc.seed, horizon,
                           np.broadcast_to(n_excl, mean.shape)[()])


def _split(res):
    """One ``EstimatorResult`` per row of a ``_reduce`` over ``(rows, paths)``."""
    return [EstimatorResult(float(m), float(s), res.paths, res.seed, float(h), int(x))
            for m, s, h, x in zip(*np.broadcast_arrays(
                res.mean, res.std_error, res.horizon, res.excluded))]


def _per_row(fn, y, *controls):
    """``fn`` on the ``(..., N)`` states of ``y`` as rows: one value each."""
    rows = y.reshape(-1, y.shape[-1])
    out = fn(rows, *(d.reshape(len(rows), -1) for d in controls))
    return np.broadcast_to(np.asarray(out, float), len(rows)).reshape(y.shape[:-1])


def estimate_value(model, policy, starts, t, T, mc):
    """Monte Carlo estimates of the discounted reward functional on [t, T].

    Returns, for each row of ``starts`` (shape ``(S, N)``), the sample mean
    of ``int e^{int h} f ds + e^{int h} g(Y_T)`` with its standard error.
    For infinite-horizon use pass a large ``T`` and a model with zero
    terminal reward.
    """
    if not T > t:
        raise ParameterError("need T > t")
    batch = simulate_paths(model, [policy], starts, T - t, mc, (), t)
    with np.errstate(over="ignore", invalid="ignore"):
        gv = _per_row(model.terminal_reward, batch.states[0, :, -1])
        payoff = (batch.reward_integral[0, :, -1]
                  + np.exp(batch.log_discount[0, :, -1]) * gv)
    return _split(_reduce(payoff, batch.excluded[0] | ~np.isfinite(payoff),
                          mc, T - t))


def constant_policies(model):
    """One constant feedback policy per control point."""
    return [lambda y, t, _d=np.array(d, float): _d for d in model.controls]


def discounted_estimates(model, policies, starts, T, mc, times, statistic):
    """``{factor: EstimatorResult}`` of ``(P, S, records)`` arrays.

    Records are at ``times`` and ``T``.  The factors are ``e^{int h}``
    ("unit" of "discount"), ``e^{int h} f`` ("f" of "discounted_reward"),
    or ``e^{int h} max(|f|, 1)`` and ``e^{int h} max(|g|, 1)`` ("f" and "g"
    of "discounted_moments"); only the rewards a statistic needs are
    evaluated.  Policies are simulated by ``simulate_paths`` and reduced in
    groups whose records fit in ``_RECORD_BYTES``, the groups rewinding one
    set of generators.
    """
    floats = model.dim + model.controls.shape[1] + 2
    per_policy = 8 * floats * len(starts) * mc.paths * (len(times) + 1)
    size = max(1, _RECORD_BYTES // per_policy)
    kept = {} if len(policies) > size else None
    groups = []
    for first in range(0, len(policies), size):
        batch = simulate_paths(model, policies[first:first + size], starts,
                               T, mc, times, kept=kept)
        y, d, ld, excluded = (batch.states, batch.deltas, batch.log_discount,
                              batch.excluded)
        del batch  # no statistic reads the reward integral
        with np.errstate(over="ignore", invalid="ignore"):
            disc = np.exp(ld)
            if statistic == "discount":
                samples = {"unit": disc}
            elif statistic == "discounted_reward":
                samples = {"f": disc * _per_row(model.running_reward, y, d)}
            elif statistic == "discounted_moments":
                samples = {"f": _per_row(model.running_reward, y, d),
                           "g": _per_row(model.terminal_reward, y)}
                samples = {factor: disc * np.maximum(np.abs(v), 1.0)
                           for factor, v in samples.items()}
            else:
                raise ParameterError(f"unknown statistic {statistic!r}")
        groups.append({factor: _reduce(v, excluded[:, :, None], mc, T)
                       for factor, v in samples.items()})
        del y, d, ld, disc, samples  # before the next group's records
    return {factor: replace(est, **{name: np.concatenate(
        [getattr(g[factor], name) for g in groups])
        for name in ("mean", "std_error", "excluded")})
        for factor, est in groups[0].items()}


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
    exact propagator of the linear-drift difference recursion).  Distances
    are reduced step by step as the kernel runs, so no path is recorded.
    """
    steps, dt = _steps_for(T, mc.dt)
    starts = np.array([np.atleast_1d(y0), np.atleast_1d(ybar0)], float)
    d0 = float(np.linalg.norm(starts[0] - starts[1]))
    if d0 == 0.0:
        raise ParameterError("coupling starts must differ")
    L2 = model.lip_L2
    times = dt * np.arange(1, steps + 1)
    scale = d0 * np.exp(L2 * times)
    max_ratio = np.full(steps, -np.inf)
    min_ratio = np.full(steps, np.inf)
    max_dist = np.full(steps, -np.inf)
    for _, s, y, *_ in _march(model, [policy], starts, steps, dt, mc,
                              range(1, steps + 1), 0.0):
        dist = np.linalg.norm(y[0, 0] - y[0, 1], axis=-1)
        ratios = dist / scale[s - 1]
        max_ratio[s - 1] = np.maximum(max_ratio[s - 1], ratios.max())
        min_ratio[s - 1] = np.minimum(min_ratio[s - 1], ratios.min())
        max_dist[s - 1] = np.maximum(max_dist[s - 1], dist.max())
    max_ratio_d = max_dist / (
        d0 * np.abs((1.0 + L2 * dt) ** np.arange(1, steps + 1)))
    return CouplingReport(
        times=times,
        max_ratio=max_ratio,
        max_ratio_discrete=max_ratio_d,
        path_spread=max_ratio - min_ratio,
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
    batch = simulate_paths(model, [policy], [np.atleast_1d(y0)],
                           float(horizons[-1]), mc, horizons)
    payoff = batch.reward_integral[0, 0]
    res = _reduce(payoff, batch.excluded[0, 0] | ~np.isfinite(payoff), mc, horizons)
    results = _split(res)
    diffs = np.abs(np.diff(res.mean))
    converging = bool(np.all(np.diff(diffs) < 0)) if len(diffs) > 1 else True
    tail_bound = within = None
    if kappa_table is not None and len(horizons) >= 2:
        tail_bound = kappa_table.integral(horizons[-2], horizons[-1])
        within = bool(diffs[-1] <= tail_bound + 3 * results[-1].std_error)
    return HorizonConvergence(horizons=horizons, results=results,
                              differences=diffs, converging=converging,
                              tail_bound=tail_bound, within_tail=within)


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
class DiffusionDiscountBound:
    """Bound exp(-w t) (1 + sqrt(E|Y_t|^2 envelope)) against E exp(int h) f(Y_t).

    Ito on ``|Y|^2`` with ``y . i(y) <= L2 |y|^2`` (one-sided bound and
    ``i(0) = 0``) gives ``E|Y_t|^2 <= |y0|^2 e^{2 L2 t} + N (e^{2 L2 t} - 1)
    / (2 L2)`` (``|y0|^2 + N t`` when ``L2 = 0``); Jensen bounds ``E|Y_t|``
    by its square root.
    """

    w: float
    L2: float

    def value(self, t, y0):
        y0 = np.atleast_1d(np.asarray(y0, float))
        growth = t if self.L2 == 0 else np.expm1(2 * self.L2 * t) / (2 * self.L2)
        second = y0 @ y0 * np.exp(2 * self.L2 * t) + len(y0) * growth
        return float(np.exp(-self.w * t) * (1.0 + np.sqrt(second)))

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
class BoundVerification(Report):
    met: bool
    worst_margin: float
    rows: list


def _bound_row(t, control_index, factor, est, se, bound):
    allowance = bound * (1.0 + 3.0 * se / est) if est > 0 else bound
    margin = (allowance - est) / bound if bound != 0 else -np.inf
    return {"t": t, "control_index": control_index, "factor": factor,
            "estimate": est, "std_error": se, "bound": bound,
            "margin": float(margin), "met": bool(est <= allowance)}


def verify_bounds(model, bound_spec, y0, T, mc, times=None):
    """Check one of the analytic moment bounds by simulation.

    The left-hand expectation is estimated on a time grid under the
    constant policy at each control point; every grid point must satisfy
    ``estimate <= bound * (1 + 3 * relative SE)``.  The margin reported per
    row is ``(bound * (1 + 3 relSE) - estimate) / bound``; the worst margin
    over all rows decides ``met``.
    """
    y0 = np.atleast_1d(np.asarray(y0, float))
    times = np.asarray(np.linspace(T / 4, T, 4) if times is None else times, float)
    est = discounted_estimates(model, constant_policies(model), [y0], T, mc,
                               times, bound_spec.statistic)
    rows = [_bound_row(float(t), p, factor, float(e.mean[p, 0, r]),
                       float(e.std_error[p, 0, r]), bound_spec.value(float(t), y0))
            for p in range(model.n_controls) for r, t in enumerate(times)
            for factor, e in est.items()]
    return BoundVerification(met=bool(all(r["met"] for r in rows)),
                             worst_margin=float(min(r["margin"] for r in rows)),
                             rows=rows)
