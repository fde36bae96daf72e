"""Euler-Maruyama simulation and Monte Carlo verification.

One Euler loop, ``_march``, steps the controlled SDE for every (policy,
start) pair of a call on the same Gaussian increments.  A step calls each
policy once on its own ``(S·m, N)`` rows (``S`` starts, ``m`` paths of a
block), then the drift, the discount rate and, if the caller needs the
reward integral, the running reward once each on all ``P·S·m`` rows of
states and controls, and adds the step's increments, one contiguous row of
a time-major chunk, to every pair's rows by broadcasting.  The step
updates its buffers in place and allocates nothing of its own.  The loop
runs from record to record: the steps up to each record run under one
``np.errstate`` that ignores overflow, invalid and divide, left before the
record is handed out.
``simulate_paths`` records states, controls, discount integral and,
optionally, the discounted reward integral at requested times in a
``PathBatch``, in the order the loop writes them;
``coupled_contraction`` reduces its distances step by step as the loop
runs.  The state uses unit diffusion per coordinate, so the Euler step is
exact in the noise term.  Both integrals are accumulated by left-endpoint
quadrature, keeping the discount multiplicative per step.  A horizon
``T`` is run in ``max(1, round(T / dt))`` steps of ``T / steps``, the
count checked below 2**63 by ``errors._step_count``, the rule of every
step count in hjbkit; ``MonteCarloConfig`` takes only a positive, finite
``dt``, and ``paths`` and ``seed`` by ``errors._count``.

Every Monte Carlo estimate takes its records from ``simulate_paths`` and
reduces them here, in ``_reduce``: value estimates (``verify_field`` checks
a solved field by them), horizon studies, and ``discounted_estimates`` for
the bound checks and ``model.estimate_kappa``, which evaluates its rewards
on the records and so simulates without the reward integral.  The moment
checks' inputs are ruled here too: ``discounted_estimates`` simulates the
model's ``constant_policies``, the one control family of the bound checks
and of ``estimate_kappa``, and ``load_bounds`` reads a bounds file.
It applies the 0.1% exclusion budget per (policy, start), pairs antithetic
paths, and averages only along a C-contiguous last path axis, where an
axis mean equals each row's 1-D mean bit for bit.

Randomness comes from counter-based Philox streams keyed by
``(seed, path index)``: results are bit-reproducible and independent of
how paths are blocked and sub-batched, how the increments are chunked in
time and how many (policy, start) pairs share them.  A block of paths
borrows one generator per path from ``_POOL`` (at most ``_BLOCK``, about
10 MB), re-keys it to the start of its stream and draws ``_CHUNK`` steps at
a time, ``_SUB`` paths at a time, into a time-major chunk, multiplying by
``√dt`` (by ``−√dt`` on the odd paths of an antithetic run) as it
transposes, so the loop's memory does not grow with the horizon; the
records take one value per policy, start, path and record time.
``discounted_estimates`` simulates its policies in groups whose records
and one sample row fit in ``_RECORD_BYTES``, and builds the samples in
place over the records.
"""

from dataclasses import dataclass, fields, replace
from functools import partial

import numpy as np

from .coefficients import _each_row, _numbers, _read_json
from .errors import (ParameterError, PathExclusionError, RecordTimeError,
                     _count, _positive_finite, _step_count)
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
    "verify_field",
    "DriftDiscountBound",
    "UniformDiscountBound",
    "DiffusionDiscountBound",
    "ExponentialEnvelopeBound",
    "load_bounds",
]

_BLOCK = 1 << 14      # paths per block
_CHUNK = 128          # steps of increments drawn at a time
_SUB = 64             # paths drawn and transposed into the chunk at a time
_RECORD_BYTES = 1 << 25   # records plus one sample row per moment-check group
_EXCLUSION_BUDGET = 1e-3
# a stream's start, key swapped in per path, held as Python ints and lists:
# the state setter reads those about 3x as fast as the getter's uint64 arrays.
# Built on the first draw: importing numpy.random takes 12-17 ms, and a solve
# never draws
_STREAM_START = {}
_POOL = {}   # "gens": one list of path generators, lent to one block at a time


@dataclass(frozen=True)
class MonteCarloConfig:
    paths: int
    dt: float
    seed: int
    antithetic: bool = False

    def __post_init__(self):
        _count(1, paths=self.paths)
        _count(0, 64, seed=self.seed)  # one word of the Philox key
        _positive_finite(dt=self.dt)
        if self.antithetic and self.paths % 2:
            raise ParameterError("antithetic sampling needs an even path count")


@dataclass
class PathBatch:
    """Records of one kernel call, indexed ``[policy, start, record, path]``.

    Every record's paths are one C-contiguous row, as ``_reduce`` averages
    them.  The last record time is the horizon.  ``deltas`` holds the
    control applied over the step that ends at each record.
    ``reward_integral`` is None when the batch was simulated without it;
    ``excluded`` flags the paths whose final state, log-discount or, if it
    was accumulated, reward integral is not finite.
    """

    times: np.ndarray            # (R,)
    states: np.ndarray           # (P, S, R, paths, N)
    log_discount: np.ndarray     # (P, S, R, paths)
    reward_integral: np.ndarray  # (P, S, R, paths), or None
    deltas: np.ndarray           # (P, S, R, paths, k)
    excluded: np.ndarray         # (P, S, paths)


@dataclass(frozen=True)
class EstimatorResult(Report):
    """Typed as ``as_dict`` casts it; ``_reduce`` fills it with arrays."""

    mean: float
    std_error: float
    paths: int
    seed: int
    horizon: float
    excluded: int = 0


def _steps_for(T, dt):
    """The Euler grid of a horizon: ``max(1, round(T / dt))`` steps and
    their length.  ``T`` must be positive and finite (``dt`` is, by
    ``MonteCarloConfig``) and ``T / dt`` below 2**63
    (``errors._step_count``)."""
    _positive_finite(T=T)
    steps = max(1, round(_step_count("horizon", T, dt)))
    return steps, T / steps


def _path_draws(mc, ids, gens):
    """Each path's ``standard_normal``, from the start of its Philox stream.

    Streams are keyed by ``(seed, path)``, an antithetic pair sharing one.
    ``gens`` is the block's generator list: its first generators are
    re-keyed to the start of the paths' streams (about 0.5-1 us each), and
    the list grows by a new generator (15-20 us) for each path it lacks,
    its key a ``uint64`` array: numpy reads a key list holding a seed of
    2**63 or more through float64, which rounds it.
    """
    keys = [[mc.seed, i // 2 if mc.antithetic else i] for i in ids]
    if not _STREAM_START:  # filled by one merge: no thread sees a part
        start = np.random.Philox(key=[0, 0]).state
        start["state"] = {k: v.tolist() for k, v in start["state"].items()}
        _STREAM_START.update({k: v.tolist() if isinstance(v, np.ndarray)
                              else v for k, v in start.items()})
    start = dict(_STREAM_START, state=dict(_STREAM_START["state"]))
    for gen, key in zip(gens, keys):
        start["state"]["key"] = key
        gen.bit_generator.state = start
    gens += [np.random.Generator(np.random.Philox(key=np.array(key, np.uint64)))
             for key in keys[len(gens):]]
    return [gen.standard_normal for gen in gens[:len(keys)]]


def _march(model, policies, starts, steps, dt, mc, marks, t0, reward=True):
    """The Euler loop over blocks of paths, for every (policy, start) pair.

    ``marks`` are the record steps in ascending order, ``steps`` last.
    Yields ``(lo, step, y, d, ld, rw)`` at each of them: the block's first
    path and ``(P, S, m, ...)`` views of the states, controls,
    log-discounts and reward integrals.  The views are the live
    buffers, updated in place by the next step, so they are to be copied or
    reduced before the loop resumes.  With ``reward=False`` the step never
    calls ``model.running_reward`` and ``rw`` is None.  A block borrows the
    pooled generators (a new list while a nested or concurrent call holds
    them) and hands them back however it ends.

    A step allocates nothing of its own: it updates the integrals and then
    the states in place through two scratch buffers, ``rw + (e^{ld}·f)·dt``,
    ``ld + h·dt`` and ``(y + drift·dt) + √dt·z``, the step's ``(m, N)``
    increments being one contiguous row of the time-major chunk ``zt``
    ``(chunk, m, N)``, broadcast over a ``(P·S, m, N)`` view, so the noise
    is copied neither per step nor per pair.  ``y`` is written last, as a
    callable's output may be a view of it.  At each chunk boundary the
    block's paths draw in sub-batches of at most ``_SUB``: each path fills
    its row of a small path-major scratch from its own stream, and one
    transposing multiply writes the sub-batch into ``zt``: by ``√dt``, or
    in an antithetic run by its rows of an ``(m, 1)`` factor that is
    ``−√dt`` on the odd paths by global index, so no pass negates a strided
    view (numpy 2.4.6 on AVX-512 negates a float64 view of 64-byte stride
    as if it were contiguous).  ``(−z)·√dt`` and ``z·(−√dt)`` are the same
    bits.

    The loop runs from record to record: the steps up to each record run
    under one ``np.errstate(over, invalid, divide="ignore")``, left before
    the yield and when a step raises, so the consumer's code never runs
    under the kernel's error state.

    The states are row-major, ``(P·S·m, N)``; the controls are held
    control-major, ``(k, P, S·m)``, so each control column ``delta[..., j]``
    a coefficient reads is contiguous.  The policies write, the
    coefficients read and ``d`` yields ``(…, k)`` views of that buffer.
    """
    P, S, N, k = len(policies), len(starts), model.dim, model.controls.shape[1]
    sqdt = np.sqrt(dt)
    for lo in range(0, mc.paths, _BLOCK):
        ids = range(lo, min(lo + _BLOCK, mc.paths))
        m = len(ids)
        zt = np.empty((min(_CHUNK, steps), m, N))  # time-major: a step's row
        zp = np.empty((min(_SUB, m), len(zt), N))  # one sub-batch, path-major
        rows = list(zp)
        # antithetic: √dt per path, negated on the odd global path indices
        signed = (np.where(np.arange(lo, lo + m) % 2, -sqdt, sqdt)[:, None]
                  if mc.antithetic else None)
        # row (p, s, path) of the P*S*m rows that every coefficient call takes
        y = np.empty((P * S * m, N))
        y.reshape(P, S, m, N)[:] = starts[:, None]
        ld = np.zeros(P * S * m)
        rw = np.zeros(P * S * m) if reward else None
        d = np.empty((k, P, S * m))  # control-major: contiguous columns
        scratch, step = np.empty(P * S * m), np.empty((P * S * m, N))
        by_policy, controls = y.reshape(P, S * m, N), d.reshape(k, -1).T
        policy_controls = d.transpose(1, 2, 0)  # (P, S·m, k)
        pairs = y.reshape(P * S, m, N)
        live = (y.reshape(P, S, m, N), d.reshape(k, P, S, m).transpose(1, 2, 3, 0),
                ld.reshape(P, S, m), None if rw is None else rw.reshape(P, S, m))
        gens = _POOL.pop("gens", [])  # one atomic call: never lent twice
        try:
            draws = _path_draws(mc, ids, gens)
            begin = 0
            for end in marks:  # one run of steps up to each record
                with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                    for s in range(begin, end):
                        if s % _CHUNK == 0:
                            if steps - s < len(rows[0]):
                                rows = [row[:steps - s] for row in rows]
                            n = len(rows[0])
                            for a in range(0, m, len(rows)):
                                at = slice(a, min(a + len(rows), m))
                                sub = zp[:at.stop - a, :n]
                                for draw, row in zip(draws[at], rows):
                                    draw(out=row)
                                np.multiply(sub.transpose(1, 0, 2),
                                            sqdt if signed is None else signed[at],
                                            out=zt[:n, at])
                        t = t0 + s * dt
                        for p, policy in enumerate(policies):
                            policy_controls[p] = policy(by_policy[p], t)
                        drift = np.asarray(model.drift(y, controls), float)
                        hv = np.asarray(model.discount_rate(y, controls), float)
                        if reward:
                            fv = np.asarray(model.running_reward(y, controls), float)
                            np.exp(ld, out=scratch)
                            np.multiply(scratch, fv, out=scratch)
                            np.multiply(scratch, dt, out=scratch)
                            np.add(rw, scratch, out=rw)
                        np.multiply(hv, dt, out=scratch)
                        np.add(ld, scratch, out=ld)
                        np.multiply(drift, dt, out=step)
                        np.add(y, step, out=y)
                        np.add(pairs, zt[s % _CHUNK], out=pairs)
                begin = end
                yield (lo, end) + live
        finally:
            _POOL["gens"] = gens


def simulate_paths(model, policies, starts, T, mc, times=(), t0=0.0,
                   reward=True):
    """Simulate the controlled SDE for every (policy, start) pair.

    ``policies`` is a sequence of feedback maps ``policy(y, t)`` returning
    a control point or one per row of ``y``; ``starts`` has shape
    ``(S, N)``.  All pairs step on the same increments, stacked along the
    row axis, so every callable receives ``(rows, N)`` states.  Records are
    taken at the Euler steps nearest ``times`` (in ``(0, T]``; step 0 raises
    ``RecordTimeError``) and at ``T``, labelled by the step's time or the
    requested one within ``1e-9·T`` of it, and returned as a ``PathBatch``
    in the record-major order they are written; they take
    ``P * S * records * paths * (N + k + 2)`` floats, one fewer per record
    with ``reward=False``, which skips the running reward and its integral
    (``reward_integral`` is then None).
    """
    steps, dt = _steps_for(T, mc.dt)
    starts = np.asarray(starts, float)
    if starts.ndim != 2 or starts.shape[1] != model.dim:
        raise ParameterError(f"starts must have shape (S, {model.dim})")
    times = np.asarray(times, float)
    marks = np.rint(times / dt).astype(int)
    if np.any(times <= 0) or np.any(marks > steps):
        raise ParameterError("record times must lie in (0, T]")
    if np.any(marks < 1):
        raise RecordTimeError(f"record time {times[marks < 1][0]:g} lies "
                              f"before the first Euler step of {dt:g}")
    if not len(marks) or marks[-1] != steps:
        marks, times = np.append(marks, steps), np.append(times, T)
    times = np.where(np.abs(times - marks * dt) <= 1e-9 * T, times, marks * dt)
    shape = (len(policies), len(starts), len(marks), mc.paths)
    # states, deltas, log-discounts and rewards, in the order _march yields
    records = [np.empty(shape + (model.dim,)),
               np.empty(shape + (model.controls.shape[1],)), np.empty(shape)]
    if reward:
        records.append(np.empty(shape))
    for lo, s, *live in _march(model, policies, starts, steps, dt, mc,
                               sorted(set(marks.tolist())), t0, reward):
        for r in np.flatnonzero(marks == s):
            for record, value in zip(records, live):
                record[:, :, r, lo:lo + value.shape[2]] = value
    states, deltas, log_discount = records[:3]
    integral = records[3] if reward else None

    finite = (np.all(np.isfinite(states[:, :, -1]), axis=-1)
              & np.isfinite(log_discount[:, :, -1]))
    if reward:
        finite &= np.isfinite(integral[:, :, -1])
    return PathBatch(times, states, log_discount, integral, deltas, ~finite)


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
    return _each_row(out, rows.shape[:1]).reshape(y.shape[:-1])


def _discounted(fn, disc, floor, y, *controls):
    """``disc · fn``, or ``disc · max(|fn|, 1)`` with ``floor``, on the
    ``(P, S, R, paths, ...)`` records: ``fn`` is evaluated one record time
    at a time into one ``(P, S, R, paths)`` sample row, finished in place."""
    out = np.empty(disc.shape)
    for r in range(disc.shape[2]):
        out[:, :, r] = _per_row(fn, y[:, :, r], *(d[:, :, r] for d in controls))
    if floor:
        np.abs(out, out=out)
        np.maximum(out, 1.0, out=out)
    return np.multiply(disc, out, out=out)


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


def discounted_estimates(model, starts, T, mc, times, statistic):
    """``{factor: EstimatorResult}`` of ``(P, S, records)`` arrays, one row
    per control of ``model`` under its ``constant_policies``.

    Records are at ``times`` and ``T``, and ``horizon`` holds their
    simulated times (``simulate_paths``).  The factors are ``e^{int h}``
    ("unit" of "discount"), ``e^{int h} f`` ("f" of "discounted_reward"),
    or ``e^{int h} max(|f|, 1)`` and ``e^{int h} max(|g|, 1)`` ("f" and "g"
    of "discounted_moments"), each evaluated on the records, so the paths
    are simulated without the reward integral and only the rewards a
    statistic needs are evaluated.  Policies are simulated by
    ``simulate_paths`` and reduced in groups whose records and one sample
    row fit in ``_RECORD_BYTES``; each group re-keys the generators of the
    one before.  The samples are built in place over the records: the
    discount overwrites the log-discounts, each reward is evaluated one
    record time at a time into its own sample row, and the controls are
    freed once ``f`` is built (``g`` reads only the states), the states
    before the reduction.  At its peak a group holds its records plus one
    sample row and one record time's coefficient temporaries: 1.44x its
    records at the benchmark's ``kappa`` shape (``dim = k = 1``, 16 record
    times).
    """
    if statistic not in ("discount", "discounted_reward", "discounted_moments"):
        raise ParameterError(f"unknown statistic {statistic!r}")
    # record floats per path without the reward (dim + k + 1), plus the one
    # sample row held beside them at a group's peak
    floats = model.dim + model.controls.shape[1] + 2
    per_policy = 8 * floats * len(starts) * mc.paths * (len(times) + 1)
    size = max(1, _RECORD_BYTES // per_policy)
    moments, groups = statistic == "discounted_moments", []
    policies = constant_policies(model)
    for first in range(0, len(policies), size):
        batch = simulate_paths(model, policies[first:first + size], starts,
                               T, mc, times, reward=False)
        y, d, disc = batch.states, batch.deltas, batch.log_discount
        excluded, horizon = batch.excluded[:, :, None], batch.times
        del batch  # each record is freed once its last reader is done
        with np.errstate(over="ignore", invalid="ignore"):
            np.exp(disc, out=disc)
            samples = {"unit": disc} if statistic == "discount" else {
                "f": _discounted(model.running_reward, disc, moments, y, d)}
            del d  # g reads only the states
            if moments:
                samples["g"] = _discounted(model.terminal_reward, disc, True, y)
        del y, disc
        groups.append({factor: _reduce(v, excluded, mc, horizon)
                       for factor, v in samples.items()})
        del samples  # before the next group's records
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
    are reduced to a per-step maximum and minimum as the kernel runs, so no
    path is recorded, and divided by the bounds once after it; a bound that
    is 0 or inf at some step is a ``ParameterError`` before the kernel runs.
    """
    steps, dt = _steps_for(T, mc.dt)
    starts = np.array([np.atleast_1d(y0), np.atleast_1d(ybar0)], float)
    d0 = float(np.linalg.norm(starts[0] - starts[1]))
    if d0 == 0.0:
        raise ParameterError("coupling starts must differ")
    L2 = model.lip_L2
    times = dt * np.arange(1, steps + 1)
    with np.errstate(over="ignore"):  # an infinite bound is rejected below
        scale = d0 * np.exp(L2 * times)
        scale_d = d0 * np.abs((1.0 + L2 * dt) ** np.arange(1, steps + 1))
    if not all(np.isfinite(b).all() and b.all() for b in (scale, scale_d)):
        raise ParameterError(f"a contraction bound is 0 or inf for L2 {L2!r}, "
                             f"T {T!r}, dt {dt!r}")
    max_dist, min_dist = np.full(steps, -np.inf), np.full(steps, np.inf)
    for _, s, y, *_ in _march(model, [policy], starts, steps, dt, mc,
                              range(1, steps + 1), 0.0, reward=False):
        dist = np.linalg.norm(y[0, 0] - y[0, 1], axis=-1)
        max_dist[s - 1] = np.maximum(max_dist[s - 1], dist.max())
        min_dist[s - 1] = np.minimum(min_dist[s - 1], dist.min())
    # a positive scale keeps the order: the extremes of the ratios
    max_ratio, min_ratio = max_dist / scale, min_dist / scale
    max_ratio_d = max_dist / scale_d
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
    matching the infinite-horizon functional), labelled, like the tail
    integral's limits, at the Euler step that simulates it
    (``simulate_paths``).  Two horizons simulated at one Euler step raise
    ``ParameterError``: their difference would read 0 by construction.
    Needs at least two horizons.  Flags non-convergence when the successive
    differences fail to shrink; with two horizons there is one difference
    and nothing for it to shrink against, so ``converging`` is None.  When
    a kappa table is given, the final difference is compared to the
    envelope tail integral.
    """
    horizons = np.asarray(horizons, float)
    if len(horizons) < 2:
        raise ParameterError("horizon_convergence needs at least two horizons")
    if np.any(np.diff(horizons) <= 0):
        raise ParameterError("horizons must be strictly increasing")
    dt = _steps_for(float(horizons[-1]), mc.dt)[1]
    marks = np.rint(horizons / dt).astype(int)
    same = np.flatnonzero(np.diff(marks) == 0)
    if len(same):
        j = int(same[0])
        raise ParameterError(
            "horizons {!r} and {!r} are both simulated at Euler step {} of "
            "{:g}".format(*horizons[j:j + 2].tolist(), marks[j], dt))
    batch = simulate_paths(model, [policy], [np.atleast_1d(y0)],
                           float(horizons[-1]), mc, horizons)
    horizons, payoff = batch.times, batch.reward_integral[0, 0]
    res = _reduce(payoff, batch.excluded[0, 0] | ~np.isfinite(payoff), mc, horizons)
    results = _split(res)
    diffs = np.abs(np.diff(res.mean))
    converging = bool(np.all(np.diff(diffs) < 0)) if len(diffs) > 1 else None
    tail_bound = within = None
    if kappa_table is not None:
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


_BOUNDS = {
    "drift_discount": DriftDiscountBound,
    "uniform_discount": UniformDiscountBound,
    "diffusion_discount": DiffusionDiscountBound,
    "envelope": ExponentialEnvelopeBound,
}


def load_bounds(source):
    """``(bound, y0, T, times)`` of a bounds file: a path, an open text file
    or the parsed mapping.  ``kind`` names the bound class and the file gives
    each of its fields; ``y0`` defaults to 0, and an absent ``T``, or an
    absent or null ``times``, is None.  Every number is finite."""
    doc = _read_json(source)
    cls = _BOUNDS.get(doc["kind"]) if isinstance(doc["kind"], str) else None
    if cls is None:
        raise ParameterError(f"unknown bound kind {doc['kind']!r}")
    number = partial(_numbers, doc, where="bounds file")
    return (cls(**{f.name: number(f.name) for f in fields(cls)}),
            number("y0", (-1,), 0.0), number("T") if "T" in doc else None,
            None if doc.get("times") is None else number("times", (-1,)))


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
    constant policy at each control point; every grid point, taken at the
    Euler step that simulates it (``simulate_paths``), must satisfy
    ``estimate <= bound * (1 + 3 * relative SE)``.  The margin reported per
    row is ``(bound * (1 + 3 relSE) - estimate) / bound``; the worst margin
    over all rows decides ``met``.
    """
    y0 = np.atleast_1d(np.asarray(y0, float))
    _steps_for(T, mc.dt)  # rejects T before the default times divide it
    times = np.asarray(np.linspace(T / 4, T, 4) if times is None else times, float)
    est = discounted_estimates(model, [y0], T, mc, times, bound_spec.statistic)
    simulated = next(iter(est.values())).horizon[:len(times)].tolist()
    rows = [_bound_row(t, p, factor, float(e.mean[p, 0, r]),
                       float(e.std_error[p, 0, r]), bound_spec.value(t, y0))
            for p in range(model.n_controls) for r, t in enumerate(simulated)
            for factor, e in est.items()]
    return BoundVerification(met=bool(all(r["met"] for r in rows)),
                             worst_margin=float(min(r["margin"] for r in rows)),
                             rows=rows)


@dataclass(frozen=True)
class FieldVerification(Report):
    met: bool
    rows: list


def verify_field(model, field, policy_field, mc, tol, probes=None,
                 horizon=None):
    """PDE–Monte Carlo check of one solve's value and policy fields.

    Fields whose grids or time stamps differ raise ``ParameterError``.
    Probes (every quarter of the grid by default) start at their nearest
    nodes, up to ``horizon`` (the last stamp by default); a one-stamp
    (stationary) field drops the terminal reward.  A row is met when
    ``gap <= 3·std_error + tol``; ``tol`` must be finite and ``>= 0``.
    """
    if not 0 <= tol < np.inf:
        raise ParameterError(f"tol must be >= 0 and finite, not {tol!r}")
    grid, stamps = field.grid, field.time_stamps
    if grid != policy_field.grid or not np.array_equal(
            stamps, policy_field.time_stamps):
        raise ParameterError("value and policy fields differ in grid or stamps")
    if len(stamps) == 1:
        model = replace(model, terminal_reward=lambda y: np.zeros(np.shape(y)[:-1]))
    if probes is None:
        probes = grid.ys[grid.nodes // 4::max(1, grid.nodes // 4)]
    nodes = [int(np.argmin(np.abs(grid.ys - y))) for y in probes]
    ests = estimate_value(model, policy_field.as_policy(), grid.ys[nodes][:, None],
                          0.0, float(stamps[-1]) if horizon is None else horizon, mc)
    rows = []
    for y, u, est in zip(grid.ys[nodes], field.layer(0.0)[nodes], ests):
        gap = abs(float(u) - est.mean)
        rows.append({"y": float(y), "pde": float(u), "mc": est.mean,
                     "std_error": est.std_error, "gap": gap,
                     "met": bool(gap <= 3.0 * est.std_error + tol)})
    return FieldVerification(met=all(r["met"] for r in rows), rows=rows)
