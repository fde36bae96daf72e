"""Control-problem definitions, assumption screens, truncation, envelopes.

A :class:`ControlModel` bundles the controlled diffusion ``dY = i(Y, d) dt
+ dW`` with a state/control dependent discount rate ``h``, running reward
``f`` and terminal reward ``g``, together with the finite control list and
the two Lipschitz constants the estimates rely on.  All coefficient maps
must be numpy-vectorized over a leading batch axis (see ``coefficients``).

``estimate_kappa`` builds its envelopes on ``simulate.discounted_estimates``:
every Monte Carlo reduction of simulated paths lives in ``simulate``, and
so does the control family it probes, the model's constant policies.
"""

from dataclasses import dataclass, field

import numpy as np

from . import coefficients
from .errors import CoefficientError, ParameterError, _count, _positive_finite
from .hamiltonian import control_tables
from .reports import Report, write_csv
from .simulate import discounted_estimates

__all__ = [
    "ControlModel",
    "AssumptionReport",
    "KappaTable",
    "check_assumption1",
    "truncate",
    "estimate_kappa",
    "load_model",
]

#: relative tolerance on sampled Lipschitz ratios
RATIO_TOL = 1e-9

#: estimator values beyond this are treated as divergence
OVERFLOW_GUARD = 1e12

#: rows of one screen table, controls x both sides of every pair; all
#: 441 x 2 x 129 rows of a 21 x 21 market at once add 5 MB of peak memory
_SCREEN_ROWS = 1 << 13

#: times on ``estimate_kappa``'s internal grid and start points on its mesh
_KAPPA_TIMES = 16
_KAPPA_STARTS = 7


@dataclass(frozen=True, eq=False)
class ControlModel:
    """Coefficients, control list and structural constants of one problem."""

    dim: int
    drift: object            # i(y, delta) -> (..., N)
    discount_rate: object    # h(y, delta) -> (...)
    running_reward: object   # f(y, delta) -> (...)
    terminal_reward: object  # g(y) -> (...)
    controls: np.ndarray     # (n_controls, k)
    lip_L1: float
    lip_L2: float
    domain_box: object = None

    def __post_init__(self):
        controls = np.atleast_2d(np.asarray(self.controls, float))
        if controls.size == 0:
            raise ParameterError("control list must be nonempty")
        # equal rows are neighbours once sorted; a NaN equals nothing
        rows = controls[np.lexsort(controls.T)]
        if (rows[1:] == rows[:-1]).all(axis=1).any():
            raise ParameterError("control list contains duplicates")
        object.__setattr__(self, "controls", controls)
        _count(1, dim=self.dim)
        if not self.lip_L1 > 0:
            raise ParameterError("lip_L1 must be positive")
        if self.lip_L2 == 0:
            raise ParameterError("lip_L2 must be nonzero")
        for name in ("lip_L1", "lip_L2"):  # an infinite one passes every screen
            if not abs(getattr(self, name)) < np.inf:
                raise ParameterError(f"{name} must be finite")

    @property
    def n_controls(self):
        return len(self.controls)

    def eval_checked(self, name, y, delta=None):
        """One coefficient on the rows of ``y``, one control or one per row.

        The output must broadcast to one value per row (an ``N``-vector for
        the drift), else a ``ParameterError`` names the coefficient, and be
        finite, else a ``CoefficientError`` names the first bad row.
        """
        y = np.asarray(y, float)
        fn = getattr(self, name)
        out = np.asarray(fn(y) if delta is None else fn(y, delta), float)
        shape = y.shape if name == "drift" else y.shape[:-1]
        try:
            out = coefficients._each_row(out, shape)
        except ValueError:
            raise ParameterError(f"coefficient {name!r} returned shape "
                                 f"{out.shape} for {shape} rows") from None
        if not np.isfinite(out).all():
            row = tuple(np.argwhere(~np.isfinite(out))[0][:y.ndim - 1])
            if np.ndim(delta) > 1:
                delta = np.broadcast_to(delta, y.shape[:-1] + np.shape(delta)[-1:])[row]
            raise CoefficientError(name, y[row].tolist(), None if delta is None
                                   else np.asarray(delta, float).tolist())
        return out


@dataclass(frozen=True)
class AssumptionReport(Report):
    """Outcome of the sampled Lipschitz / one-sided drift screen."""

    passed: bool
    worst_ratio: float
    witness: dict
    ratios: dict = field(default_factory=dict)
    tolerance: float = RATIO_TOL


def _as_box(box, dim):
    box = np.asarray(box, float)
    if box.ndim == 1:
        box = box[None, :]
    with np.errstate(over="ignore"):  # the screen divides by squared distances
        if box.shape != (dim, 2) or not (np.all(box[:, 0] < box[:, 1]) and
                                         0 < np.sum(np.diff(box) ** 2) < np.inf):
            raise ParameterError("box must give (lo, hi) with lo < hi per dimension "
                                 "and a squared diagonal in (0, inf)")
    return box


def _corner_pairs(box):
    dim = len(box)
    if dim > 8:
        return np.empty((0, dim)), np.empty((0, dim))
    corners = np.array(np.meshgrid(*box, indexing="ij")).reshape(dim, -1).T
    ii, jj = np.triu_indices(len(corners), k=1)
    return corners[ii], corners[jj]


def _drift_ratio(s, L2):
    """The one-sided bound ``s <= L2`` normalized so that equality reads 1;
    increasing in ``s`` on either sign of ``L2``."""
    return s / L2 if L2 > 0 else 2.0 - s / L2


def check_assumption1(model, box, samples, seed):
    """Screen the Lipschitz bounds of f, g, h and the one-sided drift bound.

    Random pairs drawn uniformly in ``box`` (plus all pairs of box corners)
    are checked against ``lip_L1`` and ``lip_L2``.  Ratios are normalized so
    that 1 means the claimed constant is attained exactly and values above
    ``1 + tolerance`` mean a violation; a quotient that overflows to NaN
    reads inf.  Deterministic for a fixed seed.
    """
    _count(2, samples=samples)
    _count(0, 64, seed=seed)
    box = _as_box(box, model.dim)
    rng = np.random.default_rng(seed)
    ya = rng.uniform(box[:, 0], box[:, 1], size=(samples, model.dim))
    yb = rng.uniform(box[:, 0], box[:, 1], size=(samples, model.dim))
    ca, cb = _corner_pairs(box)
    ya, yb = np.vstack([ya, ca]), np.vstack([yb, cb])
    diff = ya - yb
    dist = np.linalg.norm(diff, axis=-1)
    keep = dist > 0
    ya, yb, diff, dist = ya[keep], yb[keep], diff[keep], dist[keep]

    witnesses = {}
    L1, L2 = model.lip_L1, model.lip_L2
    pairs, dist2 = np.stack([ya, yb]), dist ** 2

    def record(name, ratio, first=None):
        # ratios (pairs,) or (controls from ``first``, pairs): the first
        # control, then the first pair, that reaches the maximum is the
        # witness; a NaN quotient (an overflow) meets no bound: it ranks as inf
        ratio = np.where(np.isnan(ratio), np.inf, ratio)
        at = int(np.argmax(ratio))
        c, j = divmod(at, len(dist))
        r = float(ratio.flat[at])
        if name not in witnesses or r > witnesses[name]["ratio"]:
            witnesses[name] = {
                "coefficient": name,
                "y": ya[j].tolist(),
                "y_bar": yb[j].tolist(),
                "delta": None if first is None else model.controls[first + c].tolist(),
                "ratio": r,
            }

    ga, gb = (model.eval_checked("terminal_reward", y) for y in (ya, yb))
    step = max(1, _SCREEN_ROWS // (2 * len(dist)))
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow fails
        scale = L1 * dist
        record("terminal_reward", np.abs(ga - gb) / scale)
        for first in range(0, model.n_controls, step):
            i, h, f = control_tables(model, pairs, model.controls[first:first + step])
            record("running_reward", np.abs(f[:, 0] - f[:, 1]) / scale, first)
            record("discount_rate", np.abs(h[:, 0] - h[:, 1]) / scale, first)
            s = np.sum(diff * (i[:, 0] - i[:, 1]), axis=-1) / dist2
            record("drift", _drift_ratio(s, L2), first)

    ratios = {name: w["ratio"] for name, w in witnesses.items()}
    worst = max(ratios, key=ratios.get)
    return AssumptionReport(passed=bool(ratios[worst] <= 1.0 + RATIO_TOL),
                            worst_ratio=float(ratios[worst]),
                            witness=witnesses[worst], ratios=ratios)


def truncate(model, k):
    """Replace h, f, g by their bounded taper at radius ``k``.

    Coefficients are unchanged for ``|y| <= k``, fade linearly on
    ``k <= |y| <= 2k`` and are flattened beyond ``2k``: the rewards to zero,
    the discount rate to its (kept) negative part.  The drift and the
    control list are untouched; the common Lipschitz constant becomes
    ``2 * L1 * (1 + 1/k)``.
    """
    _positive_finite(k=k)
    h, f, g = model.discount_rate, model.running_reward, model.terminal_reward

    def weight(y):
        r = np.linalg.norm(np.asarray(y, float), axis=-1)
        return np.clip(2.0 - r / k, 0.0, 1.0)

    def h_k(y, delta):
        v = np.asarray(h(y, delta), float)
        return np.maximum(v, 0.0) * weight(y) - np.maximum(-v, 0.0)

    def f_k(y, delta):
        return np.asarray(f(y, delta), float) * weight(y)

    def g_k(y):
        return np.asarray(g(y), float) * weight(y)

    return ControlModel(
        dim=model.dim,
        drift=model.drift,
        discount_rate=h_k,
        running_reward=f_k,
        terminal_reward=g_k,
        controls=model.controls,
        lip_L1=2.0 * model.lip_L1 * (1.0 + 1.0 / k),
        lip_L2=model.lip_L2,
        domain_box=model.domain_box,
    )


@dataclass(frozen=True)
class KappaTable(Report):
    """Empirical envelopes of the discounted reward / terminal moments.

    ``kappa[j]`` bounds (over the constant policies, one per control, and
    start points in the ball of radius ``radius_n``) the mean of
    ``exp(int h) * max(|f|, 1)`` at time ``t[j]``; ``p_terminal`` is the
    analogue with the terminal reward, and ``policy_ids`` holds the control
    index that attains each ``kappa[j]``.  Because only the constant
    policies are probed, the table is a lower envelope of the analytically
    required supremum over all admissible controls.
    """

    t: np.ndarray
    kappa: np.ndarray
    p_terminal: np.ndarray
    policy_ids: np.ndarray
    radius_n: int
    policies_probed: str
    integral_kappa: float
    integral_weighted: float
    envelope_K: float
    envelope_M: float
    decay_rate: float
    non_integrable: bool = False
    divergence_info: str = ""

    _omit = ("t", "kappa", "p_terminal", "policy_ids")

    def __post_init__(self):
        t = np.asarray(self.t, float)
        kappa = np.asarray(self.kappa, float)
        if np.any(np.diff(t) <= 0):
            raise ParameterError("time grid must be strictly increasing")
        if not (np.all(np.isfinite(kappa)) and np.all(kappa >= 0)):
            raise ParameterError("kappa values must be finite and nonnegative")
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "kappa", kappa)
        object.__setattr__(self, "p_terminal", np.asarray(self.p_terminal, float))
        object.__setattr__(self, "policy_ids", np.asarray(self.policy_ids, int))

    @property
    def horizon(self):
        return float(self.t[-1])

    def kappa_at(self, times):
        """Envelope value interpolated on the table grid (clamped ends)."""
        return np.interp(np.asarray(times, float), self.t, self.kappa)

    def p_at(self, time):
        return float(np.interp(time, self.t, self.p_terminal))

    def integral(self, a, b, weight_rate=0.0):
        """Trapezoid integral of ``exp(weight_rate*t) * kappa`` over [a, b].

        Beyond the table grid the fitted exponential tail is used; returns
        inf when the extrapolated rate is nonnegative.
        """
        a, b = float(a), float(b)
        total = 0.0
        hi = min(b, self.horizon)
        if hi > a:
            ts = np.linspace(a, hi, 129)
            total += np.trapezoid(np.exp(weight_rate * ts) * self.kappa_at(ts), ts)
        if b > self.horizon:
            rate = self.decay_rate + weight_rate
            if rate >= 0:
                return np.inf
            t0 = max(a, self.horizon)
            k0 = float(self.kappa[-1]) * np.exp(self.decay_rate * (t0 - self.horizon))
            total += np.exp(weight_rate * t0) * k0 / (-rate) * (
                1.0 - np.exp(rate * (b - t0)) if np.isfinite(b) else 1.0
            )
        return float(total)

    def to_csv(self, path, header_lines=()):
        write_csv(path, header_lines, ["t", "kappa", "p", "policy_id"],
                  map("{!r},{!r},{!r},{!r}\n".format, self.t.tolist(),
                      self.kappa.tolist(), self.p_terminal.tolist(),
                      self.policy_ids.tolist()))


def _ball_mesh(dim, n, points, seed):
    if n == 0:
        return np.zeros((1, dim))
    if dim == 1:
        return np.linspace(-n, n, points)[:, None]
    mesh = [np.zeros(dim)]
    for j in range(dim):
        e = np.zeros(dim)
        e[j] = n
        mesh += [e, -e]
    rng = np.random.default_rng(seed)
    while len(mesh) < points:
        z = rng.standard_normal(dim)
        mesh.append(n * rng.uniform() ** (1.0 / dim) * z / np.linalg.norm(z))
    return np.array(mesh[:points])


def estimate_kappa(model, radius_n, horizon, mc):
    """Estimate the time-decay envelopes of the discounted moments.

    For every time on an internal grid, at the Euler step that simulates
    it, and every start point on a mesh of the ball of radius ``radius_n``,
    the discounted running / terminal moments are estimated under the
    constant policy at each control point (``discounted_estimates``); the
    table holds the pointwise maxima at the simulated times.  An exponential
    envelope ``K * exp(M |y|)`` is fitted over the start points and the two
    tail integrals (plain and ``exp(L2 t)``-weighted) are reported with
    exponential tail extrapolation.  Raises ``PathExclusionError`` past the
    0.1% exclusion budget of any (policy, start) pair, like every Monte
    Carlo estimate.
    """
    _positive_finite(horizon=horizon)
    _count(0, radius=radius_n)
    t_grid = np.linspace(horizon / _KAPPA_TIMES, horizon, _KAPPA_TIMES)
    mesh = _ball_mesh(model.dim, radius_n, _KAPPA_STARTS, mc.seed)

    est = discounted_estimates(model, mesh, horizon, mc, t_grid,
                               "discounted_moments")
    rows = np.append(np.diff(est["f"].horizon) > 0, True)  # one per step
    t_grid = est["f"].horizon[rows]
    est = np.stack([est["f"].mean, est["g"].mean])[..., rows]
    diverged = np.argwhere((est[0] > OVERFLOW_GUARD) | ~np.isfinite(est[0]))
    non_integrable = bool(len(diverged))
    divergence_info = (
        f"estimator diverged at t={t_grid[diverged[-1][2]]:g} under policy "
        f"{diverged[-1][0]}" if non_integrable else "")
    est = np.nan_to_num(est, nan=OVERFLOW_GUARD, posinf=OVERFLOW_GUARD)

    kappa, p_term = est.max(axis=(1, 2))
    policy_ids = est[0].max(axis=1).argmax(axis=0)

    # exponential-in-|y| envelope fit across start points
    m_y = est[0].max(axis=(0, 2))
    radii = np.linalg.norm(mesh, axis=-1)
    if radii.min() < radii.max():  # two distinct radii
        slope, intercept = np.polyfit(radii, np.log(np.maximum(m_y, 1e-300)), 1)
        env_M, env_K = max(float(slope), 0.0), float(np.exp(intercept))
    else:
        env_M, env_K = 0.0, float(m_y.max())

    # tail decay rate from the last half of the grid
    tail = slice(len(t_grid) // 2, None)
    rate = float(np.polyfit(t_grid[tail],
                            np.log(np.maximum(kappa[tail], 1e-300)), 1)[0])
    body = float(np.trapezoid(kappa, t_grid))
    body_w = float(np.trapezoid(np.exp(model.lip_L2 * t_grid) * kappa, t_grid))
    if non_integrable or rate >= 0:
        integral_kappa = np.inf
        non_integrable = True
        divergence_info = (divergence_info
                           or f"no decay detected (fitted rate {rate:+.3g})")
    else:
        integral_kappa = body + kappa[-1] / (-rate)
    rate_w = rate + model.lip_L2
    if non_integrable or rate_w >= 0:
        integral_weighted = np.inf
    else:
        integral_weighted = body_w + np.exp(model.lip_L2 * horizon) * kappa[-1] / (-rate_w)

    return KappaTable(
        t=t_grid,
        kappa=kappa,
        p_terminal=p_term,
        policy_ids=policy_ids,
        radius_n=int(radius_n),
        policies_probed=(
            f"lower envelope of the true supremum: {model.n_controls} "
            "feedback policies probed"
        ),
        integral_kappa=float(integral_kappa),
        integral_weighted=float(integral_weighted),
        envelope_K=env_K,
        envelope_M=env_M,
        decay_rate=rate,
        non_integrable=non_integrable,
        divergence_info=divergence_info,
    )


def load_model(source):
    """Build a ControlModel from a JSON model file: a path, an open text
    file or the parsed mapping."""
    doc = coefficients._read_json(source)

    def number(key, shape=()):
        return coefficients._numbers(doc, key, shape, where="model file")

    dim = number("dim")
    if not (dim >= 1 and dim == int(dim)):
        raise ParameterError(f"model file: dim must be a positive integer, "
                             f"not {doc['dim']!r}")
    dim = int(dim)
    controls = np.atleast_2d(number("controls", None))
    box = doc.get("domain_box")
    return ControlModel(
        dim=dim,
        drift=coefficients.build_drift(doc["drift"], dim, controls),
        discount_rate=coefficients.build_scalar(doc["discount_rate"], dim, controls),
        running_reward=coefficients.build_scalar(doc["running_reward"], dim, controls),
        terminal_reward=coefficients.build_terminal(doc["terminal_reward"], dim),
        controls=controls,
        lip_L1=number("L1"),
        lip_L2=number("L2"),
        domain_box=None if box is None else number("domain_box", None).tolist(),
    )
