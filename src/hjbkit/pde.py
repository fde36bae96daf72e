"""Finite-difference solvers for the scalar HJB problems.

One explicit march (``_march``) serves both time-marching solvers: the
finite horizon runs it backward from the terminal reward, the infinite
horizon (``solve_infinite_horizon``) forward from zero until the discrete
time derivative is below tolerance.  Its right-hand side ``½D²u + H(u)``
is formed in one place (``_scanner``), which policy iteration shares:
``solve_stationary`` solves the discrete stationary equation directly
(Howard): fix the policy, solve its tridiagonal linear system, improve
the policy with the same control scan, until the march's right-hand side
is below tolerance on every row the march updates.  It needs ``h < 0``
under every policy it solves for and raises ``PolicyIterationError``
where that fails or it does not converge; the long-time march is then the
solver to use.  Stationary reports carry ``error_bound = dvdt_norm /
min(-h)`` under the final policy (null unless ``sup h < 0``): an
a-posteriori estimate from the comparison principle of the monotone
interior rows, which the one-sided and extrapolated edge rows do not
share, so near an edge where the drift is weak it can be exceeded.

Scheme: explicit Euler in time, centered second difference for the unit
diffusion, first difference upwinded by the sign of the drift per
candidate control.  The Hamiltonian is ``hamiltonian.maximize`` on
``(controls, nodes)`` tables, shared with the residual audit (centred
gradient) and ``eval_H``; a closed-form override enters as a one-row
table of the controls it returns.  The march and the residual keep that
shape but hold the tables node-major (Fortran order), so the scan over
axis 0 reads each node's controls from contiguous memory: at 441
controls and 41 nodes one scan takes 57-83 µs, against 158-270 µs on
C-ordered tables (timeit, interleaved in one process, 2-core host).
A solve tabulates its grid controls once: its residual audit reads the
interior nodes of the tables the scan holds, and only an override's
controls are tabulated again, at the final centred gradient.
The step must satisfy ``dt * (1/dy^2 + max|i|/dy + max h+) <= 1`` with
the maxima taken over grid x the controls applied (the grid list, or
each step's override controls); this is enforced, not assumed.

A field's ``to_csv`` writes one ``y,t,<columns>`` row per node and stamp,
stamps ascending and nodes ascending within each stamp, as the text
``_csv_rows`` renders one layer at a time.  Its ``read_csv`` takes a path
or an open text file, parses it with ``reports.read_csv``
(``np.loadtxt``), reads it back bit for bit and rejects any other file,
rows in another order included.
Reading a 41-node, 32,001-layer value and policy pair (57 MB and 37 MB)
peaks at 89 MB RSS in 2.4 s on a 2-core host; under tracemalloc a read
peaks at 1.4x the rows' float bytes.
"""

import itertools
import time as _time
from dataclasses import dataclass

import numpy as np

from .errors import (DivergenceError, ParameterError, PolicyIterationError,
                     StabilityError)
from .hamiltonian import control_tables, maximize
from .reports import Report, _path, read_csv, write_csv

__all__ = [
    "Grid1D",
    "TimeGrid",
    "ValueField",
    "PolicyField",
    "SolveReport",
    "solve_finite_horizon",
    "solve_infinite_horizon",
    "solve_stationary",
    "residual",
    "gradient_bound_check",
]

_OVERFLOW_GUARD = 1e10
_MAX_POLICY_ITERATIONS = 50
_FINITE_KIND = "finite_horizon_explicit_upwind"


@dataclass(frozen=True)
class Grid1D:
    y_min: float
    y_max: float
    nodes: int
    boundary: str = "one_sided"

    def __post_init__(self):
        for name in ("y_min", "y_max"):
            if not np.isfinite(getattr(self, name)):
                raise ParameterError(f"{name} must be finite")
        if not self.y_min < self.y_max:
            raise ParameterError("need y_min < y_max")
        if self.nodes < 3:
            raise ParameterError("need at least 3 nodes")
        # the schemes divide by spacing ** 2, which underflows or overflows
        # (as does the spacing, where y_max - y_min overflows)
        with np.errstate(divide="ignore", over="ignore"):
            square = np.float64(self.spacing) ** 2
            if not (np.isfinite(square) and np.isfinite(1.0 / square)):
                raise ParameterError(f"the spacing {self.spacing!r} is out of "
                                     "range: spacing ** 2 or its inverse is inf")
        if self.boundary not in ("one_sided", "linear_extrapolation"):
            raise ParameterError(f"unknown boundary scheme {self.boundary!r}")

    @property
    def spacing(self):
        return (self.y_max - self.y_min) / (self.nodes - 1)

    @property
    def ys(self):
        return np.linspace(self.y_min, self.y_max, self.nodes)


@dataclass(frozen=True)
class TimeGrid:
    horizon: float
    steps: int

    def __post_init__(self):
        if not 0 < self.horizon < np.inf:
            raise ParameterError("horizon must be positive and finite")
        if self.steps < 1:
            raise ParameterError("steps must be >= 1")

    @property
    def dt(self):
        return self.horizon / self.steps


def _control_names(k):
    return [f"delta_star_{j}" for j in range(k)]


def _csv_rows(grid, stamps, table):
    """The ``y,t,<columns>`` rows of a ``(layers, nodes, columns)`` table as
    ``write_csv`` text, one layer at a time, every cell its number's
    ``repr``.  The ``y`` cells are rendered once per field and each stamp
    once per layer: joined by the stamp, ``parts`` is the layer's format,
    whose ``%r`` fields take the layer's cells in one ``%``."""
    cells = ",%r" * table.shape[-1] + "\n"
    ys = [f"{y!r}," for y in grid.ys.tolist()]
    parts = [ys[0], *(cells + y for y in ys[1:]), cells]
    for t, layer in zip(stamps.tolist(), table):
        yield repr(t).join(parts) % tuple(layer.ravel().tolist())


def _read_layers(source, names):
    """Grid, stamps and ``(layers, nodes, k)`` table of a field's CSV rows,
    read from a path or an open text file (``reports.read_csv``).

    The header is ``y,t`` and ``names(k)``, ``k >= 1``.  The rows are in the
    one layout ``to_csv`` writes: stamps ascending, and at each stamp the
    same 3 or more evenly spaced nodes (to 1e-9 spacings), ascending.
    """
    def malformed(why):
        return ParameterError(f"malformed solve CSV {_path(source)}: {why}")

    columns, rows = read_csv(source)
    expected = ["y", "t"] + names(max(len(columns) - 2, 1))
    if columns != expected:
        raise malformed(f"header {','.join(columns)}, not {','.join(expected)}")
    if not len(rows) or not np.isfinite(rows).all():
        raise malformed("no data rows, or a cell that is not finite")
    ys, stamps = np.unique(rows[:, 0]), np.unique(rows[:, 1])
    if not (np.array_equal(rows[:, 0], np.tile(ys, len(stamps))) and
            np.array_equal(rows[:, 1], np.repeat(stamps, len(ys)))):
        raise malformed("the rows do not fill one node list per stamp, in order")
    even = np.linspace(ys[0], ys[-1], len(ys))
    if len(ys) < 3 or np.any(np.abs(ys - even) > 1e-9 * (even[1] - even[0])):
        raise malformed("the y values are not 3 or more evenly spaced nodes")
    return (Grid1D(float(ys[0]), float(ys[-1]), len(ys)), stamps,
            rows.reshape(len(stamps), len(ys), -1)[..., 2:].copy())


def _check_table(what, grid, table, stamps):
    """``ParameterError`` unless ``table`` holds one layer per time stamp,
    one row per grid node, and finite entries only."""
    if table.shape[:2] != (len(stamps), grid.nodes):
        raise ParameterError(f"{what} of shape {table.shape} does not fit "
                             f"{len(stamps)} time stamps x {grid.nodes} nodes")
    # NaN and ±inf reach an extreme: no mask the size of the table is made
    if not (np.isfinite(table.max()) and np.isfinite(table.min())):
        raise ParameterError(f"{what} contains non-finite entries")


@dataclass
class ValueField:
    grid: Grid1D
    values: np.ndarray       # (layers, nodes)
    time_stamps: np.ndarray  # (layers,)

    def __post_init__(self):
        self.values = np.atleast_2d(np.asarray(self.values, float))
        self.time_stamps = np.atleast_1d(np.asarray(self.time_stamps, float))
        _check_table("value field", self.grid, self.values, self.time_stamps)

    def layer(self, t=None):
        if t is None:
            return self.values[0]
        j = int(np.argmin(np.abs(self.time_stamps - t)))
        return self.values[j]

    def to_csv(self, path, header_lines=()):
        write_csv(path, header_lines, ["y", "t", "u"],
                  _csv_rows(self.grid, self.time_stamps, self.values[..., None]))

    @classmethod
    def read_csv(cls, source):
        """The field ``to_csv`` wrote, header ``y,t,u``: ``source`` is the
        file's path or the file open as text."""
        grid, stamps, table = _read_layers(source, lambda k: ["u"])
        return cls(grid, table[..., 0], stamps)


@dataclass
class PolicyField:
    grid: Grid1D
    controls: np.ndarray      # (layers, nodes, k)
    time_stamps: np.ndarray

    def __post_init__(self):
        self.controls = np.asarray(self.controls, float)
        if self.controls.ndim == 2:
            self.controls = self.controls[None]
        self.time_stamps = np.atleast_1d(np.asarray(self.time_stamps, float))
        _check_table("policy field", self.grid, self.controls, self.time_stamps)

    def as_policy(self):
        """Feedback map (y, t) -> control, nearest node and time stamp.

        The node index is rounded and clamped as a float before the cast,
        so every state gets a control and none warns: NaN and -inf map to
        node 0, +inf and finite states past the top node to the top node.
        """
        y0, dy, top = self.grid.y_min, self.grid.spacing, self.grid.nodes - 1
        stamps = self.time_stamps
        table = self.controls

        def policy(y, t):
            y = np.asarray(y, float)
            x = np.subtract(y[..., 0], y0, out=np.empty(y.shape[:-1]))
            x /= dy
            np.rint(x, out=x)
            np.fmax(x, 0.0, out=x)
            np.fmin(x, top, out=x)
            nt = int(np.argmin(np.abs(stamps - t)))
            return table[nt].take(x.astype(np.intp), axis=0)

        return policy

    def to_csv(self, path, header_lines=()):
        write_csv(path, header_lines,
                  ["y", "t"] + _control_names(self.controls.shape[-1]),
                  _csv_rows(self.grid, self.time_stamps, self.controls))

    @classmethod
    def read_csv(cls, source):
        """The field ``to_csv`` wrote, header ``y,t,delta_star_0…``:
        ``source`` is the file's path or the file open as text."""
        grid, stamps, table = _read_layers(source, _control_names)
        return cls(grid, table, stamps)


@dataclass
class SolveReport(Report):
    scheme: dict
    cfl_ratio: float
    residual_norm: float
    dvdt_norm: float
    steps: int
    wall_time: float
    converged: bool = True
    error_bound: float = None  # stationary solves: dvdt_norm / min(-h)

    _omit = ("wall_time",)  # so that artifacts stay byte-reproducible

    def as_dict(self):
        out = super().as_dict()
        if self.scheme["kind"] == _FINITE_KIND:
            del out["error_bound"]
        return out


def _second_difference(u, dy):
    """``D²u``, one-sided at the edges.  Under ``linear_extrapolation`` no
    caller reads the edge rows: the march overwrites both edge nodes, and
    every stop rule and the audit read the interior rows alone."""
    d2 = np.empty_like(u)
    d2[1:-1] = (u[2:] - 2.0 * u[1:-1] + u[:-2]) / dy ** 2
    d2[0] = (u[0] - 2.0 * u[1] + u[2]) / dy ** 2
    d2[-1] = (u[-1] - 2.0 * u[-2] + u[-3]) / dy ** 2
    return d2


def _centered_gradient(u, dy):
    grad = np.empty_like(u)
    grad[1:-1] = (u[2:] - u[:-2]) / (2.0 * dy)
    grad[0] = (u[1] - u[0]) / dy
    grad[-1] = (u[-1] - u[-2]) / dy
    return grad


def _tabulate(model, ys, controls=None):
    """``(i, upwind, h, f)`` of each control on the nodes, controls first.

    The tables keep ``control_tables``' ``(controls, nodes)`` shape but are
    node-major (Fortran order), so ``maximize`` scans contiguous memory:
    about a third of the C-ordered time at 441 controls and 41 nodes.  They
    are converted one at a time, so at most one copy is alive beside the
    C-ordered tables; a one-row table, as an override gives, is both orders
    already and is not copied.  ``upwind`` indexes ``_upwind_max``'s
    differences: node ``j`` reads the forward one, ``j + 1``, where
    ``i >= 0``, else the backward one, ``j``.
    """
    i, h, f = control_tables(model, ys[:, None], controls)
    i = np.asfortranarray(i[..., 0])
    h = np.asfortranarray(h)
    f = np.asfortranarray(f)
    return i, np.arange(len(ys)) + (i >= 0.0), h, f


def _upwind_max(u, dy, i, upwind, h, f):
    """Max and first argmax over the controls, drifts upwinded by sign."""
    # d[j] is the backward difference at node j, d[j + 1] the forward one;
    # one-sided at the edges.  Gathered through the transpose, the upwinded
    # differences are node-major like ``i``, and so is the drift term
    d = np.empty(len(u) + 1)
    d[1:-1] = (u[1:] - u[:-1]) / dy
    d[0], d[-1] = d[1], d[-2]
    return maximize(i * d.take(upwind.T).T, h, f, u)


def _scanner(model, grid, override, admissible):
    """The march's right-hand side as ``u -> (rhs, policy, argmax, tables)``.

    ``rhs = ½D²u + H(u)``.  Grid controls are tabulated once, an override's
    controls (from the centred gradient) per call; each table first passes
    ``admissible``.
    """
    if model.dim != 1:
        raise ParameterError("grid solver supports dim=1 only")
    dy, ys = grid.spacing, grid.ys  # the nodes, made once per solve
    if override is None:
        tables = admissible(_tabulate(model, ys))

    def rhs_at(u):
        if override is None:
            H, idx = _upwind_max(u, dy, *tables)
            pol, used = model.controls[idx], tables
        else:
            pol = np.asarray(override(ys, u, _centered_gradient(u, dy)), float)
            used = admissible(_tabulate(model, ys, pol[None]))
            H, idx = _upwind_max(u, dy, *used)
        return 0.5 * _second_difference(u, dy) + H, pol, idx, used

    return rhs_at


def _march(model, grid, u, dt, span, override):
    """Explicit Euler steps from ``u``, for as long as the caller draws them.

    Yields ``(u, rhs, policy, argmax, next u, cfl, tables)`` per step: the
    right-hand side, the policy and the scan's argmax at ``u``, the update
    ``u + dt·rhs`` with the extrapolation rows imposed, the CFL ratio so
    far, the largest over the tables of the controls actually applied, and
    those tables.  Raises ``StabilityError`` where those controls need a
    smaller step (``span`` sizes the step count it suggests) and
    ``DivergenceError`` on a non-finite update.
    """
    dy = grid.spacing
    cfl = 0.0

    def checked(tables):
        nonlocal cfl
        i, _, h, _ = tables
        dt_max = 1.0 / (1.0 / dy ** 2 + np.abs(i).max() / dy + max(h.max(), 0.0))
        if dt > dt_max * (1.0 + 1e-12):
            raise StabilityError(dt, dt_max, int(np.ceil(span / dt_max)))
        cfl = max(cfl, dt / dt_max)
        return tables

    rhs_at = _scanner(model, grid, override, checked)
    for n in itertools.count():
        rhs, pol, idx, tables = rhs_at(u)
        nxt = u + dt * rhs
        if grid.boundary == "linear_extrapolation":
            nxt[0] = 2.0 * nxt[1] - nxt[2]
            nxt[-1] = 2.0 * nxt[-2] - nxt[-3]
        if not np.isfinite(nxt).all():
            bad = int(np.argmax(~np.isfinite(nxt)))
            raise DivergenceError(
                f"non-finite update at node {bad} (y={grid.ys[bad]:g}), step {n}"
            )
        yield u, rhs, pol, idx, nxt, cfl, tables
        u = nxt


def _report(model, grid, u, override, tables, t0, kind, dt, stop, **fields):
    """The ``SolveReport`` of a solve that ends at ``u``.

    The scheme lists ``kind``, the time step ``dt`` (None: no time step),
    the grid, the stop rule ``stop`` and whether an override chose the
    controls; ``u`` passes the residual audit.  ``tables`` are the
    ``_tabulate`` tables the solve's scan last used: with grid controls the
    audit reads their interior nodes instead of tabulating the controls a
    second time; an override's controls are tabulated at ``u``'s gradient.
    """
    interior = None if override else [t[:, 1:-1] for t in tables]
    res = _residual(model, grid, u, override, interior)
    scheme = {"kind": kind, "dt": dt, "dy": grid.spacing,
              "boundary": grid.boundary, **stop, "override": override is not None}
    if dt is None:
        del scheme["dt"]
    return SolveReport(scheme=scheme, residual_norm=float(np.max(np.abs(res))),
                       wall_time=_time.perf_counter() - t0, **fields)


def solve_finite_horizon(model, grid, time, control_override=None,
                         terminal_values=None, slice_stride=1):
    """Backward sweep of the parabolic HJB problem from the terminal reward.

    Returns the value field (time-0 layer plus retained slices every
    ``slice_stride`` >= 1 steps), the argmax policy on the same slices, and a
    report.  ``terminal_values`` overrides the model's terminal reward on
    the grid (used for split-interval solves).
    """
    if not slice_stride >= 1:
        raise ParameterError("slice_stride must be >= 1")
    dt = time.dt
    t0 = _time.perf_counter()
    if terminal_values is not None:
        u = np.array(terminal_values, float)
        if u.shape != (grid.nodes,):
            raise ParameterError("terminal_values must match the grid")
    else:
        u = model.eval_checked("terminal_reward",
                               grid.ys[:, None]).astype(float)

    layers, stamps, policies = [], [], []
    # one right-hand side per step plus one at t = 0: a retained layer's
    # policy and, at the end, the final time derivative
    for n, (u, rhs, pol, _, _, cfl, tables) in enumerate(
            _march(model, grid, u, dt, time.horizon, control_override)):
        if n % slice_stride == 0 or n == time.steps:
            layers.append(u)
            stamps.append(time.horizon - n * dt)
            policies.append(pol)
        if n == time.steps:
            break

    # the stamps descend: reversed, the fields run forward in time
    vf = ValueField(grid, np.array(layers[::-1]), np.array(stamps[::-1]))
    pf = PolicyField(grid, np.array(policies[::-1]), np.array(stamps[::-1]))
    return vf, pf, _report(model, grid, u, control_override, tables, t0,
                           _FINITE_KIND, dt, {}, cfl_ratio=float(cfl),
                           dvdt_norm=float(np.max(np.abs(rhs[1:-1]))),
                           steps=time.steps)


def _positive_finite(**values):
    """``ParameterError`` naming the first of ``values`` not in ``(0, inf)``:
    the long-time march's rule for its step, tolerance and time cap."""
    for name, value in values.items():
        if not 0 < value < np.inf:
            raise ParameterError(f"{name} must be positive and finite")


def solve_infinite_horizon(model, grid, dt, tol_dt, t_max,
                           control_override=None):
    """March the forward problem from zero until the field is stationary.

    Stops when the sup-norm of the discrete time derivative over interior
    nodes drops below ``tol_dt``; if ``t_max`` is reached first, the report
    carries ``converged=False``.  A sup-norm blow-up past the overflow
    guard raises: the discounted reward appears non-integrable over an
    infinite horizon for this model.
    """
    _positive_finite(dt=dt, tol_dt=tol_dt, t_max=t_max)
    t0 = _time.perf_counter()
    steps = int(np.ceil(t_max / dt))
    for s, (_, rhs, pol, idx, v, cfl, tables) in enumerate(
            _march(model, grid, np.zeros(grid.nodes), dt, t_max,
                   control_override), 1):
        if np.abs(v).max() > _OVERFLOW_GUARD:
            raise DivergenceError(
                "long-time march diverged: the discounted reward appears "
                "non-integrable over an infinite horizon for this model"
            )
        dvdt = float(np.abs(rhs[1:-1]).max())
        if dvdt < tol_dt or s == steps:
            break

    t_final = s * dt
    top = float(tables[2][idx, np.arange(grid.nodes)].max())
    return (ValueField(grid, v, t_final), PolicyField(grid, pol, t_final),
            _report(model, grid, v, control_override, tables, t0,
                    "infinite_horizon_long_time", dt,
                    {"tol_dt": tol_dt, "t_max": t_max}, cfl_ratio=float(cfl),
                    dvdt_norm=dvdt, steps=s, converged=dvdt < tol_dt,
                    error_bound=dvdt / -top if top < 0.0 else None))


def _solve_policy(grid, i, h, f):
    """Solve ``(½D² + i·D_upwind + h) u = −f`` for one policy's coefficients.

    The rows are those of the march's fixed point: upwinded drift and the
    ``_second_difference`` boundary rows, or the extrapolation rows for
    ``linear_extrapolation``.  Each edge row reaches two nodes inward; it is
    reduced to tridiagonal form by eliminating with its neighbour row, then
    the system is solved by the Thomas algorithm without pivoting.

    Also returns whether the determinant, the product of the pivots, has
    the sign ``(-1)^n`` of a matrix whose eigenvalues all have negative
    real part.  Otherwise an odd number of them are real and positive: the
    solution is a fixed point the march moves away from.
    """
    dy, n = grid.spacing, grid.nodes
    a = 0.5 / dy ** 2
    lo = a + np.maximum(-i, 0.0) / dy       # coefficient of u[j-1]
    up = a + np.maximum(i, 0.0) / dy        # coefficient of u[j+1]
    di = h - 2.0 * a - np.abs(i) / dy
    rhs = -np.asarray(f, float)
    if grid.boundary == "one_sided":
        di[0], up[0] = a - i[0] / dy + h[0], -2.0 * a + i[0] / dy
        di[-1], lo[-1] = a + i[-1] / dy + h[-1], -2.0 * a - i[-1] / dy
        edge = a                             # coefficient of u[2] and u[-3]
    else:  # zero curvature: u[0] - 2 u[1] + u[2] = 0
        di[0] = di[-1] = 1.0
        up[0] = lo[-1] = -2.0
        rhs[0] = rhs[-1] = 0.0
        edge = 1.0
    m = edge / up[1]
    di[0], up[0], rhs[0] = (di[0] - m * lo[1], up[0] - m * di[1],
                            rhs[0] - m * rhs[1])
    m = edge / lo[-2]
    di[-1], lo[-1], rhs[-1] = (di[-1] - m * up[-2], lo[-1] - m * di[-2],
                               rhs[-1] - m * rhs[-2])

    lo, di, up, rhs = lo.tolist(), di.tolist(), up.tolist(), rhs.tolist()
    try:
        for j in range(1, n):
            w = lo[j] / di[j - 1]
            di[j] -= w * up[j - 1]
            rhs[j] -= w * rhs[j - 1]
        u = [0.0] * n
        u[-1] = rhs[-1] / di[-1]
        for j in range(n - 2, -1, -1):
            u[j] = (rhs[j] - up[j] * u[j + 1]) / di[j]
    except ZeroDivisionError:
        return np.full(n, np.nan), False
    return np.array(u), sum(p > 0.0 for p in di) % 2 == 0


def solve_stationary(model, grid, tol, control_override=None):
    """Policy iteration for the stationary equation the long-time march solves.

    Starting from the policy the march takes at ``u = 0``, each iteration
    solves the linear system of the current policy (``_solve_policy``) and
    improves the policy by the march's control scan: the first-index argmax
    over the grid controls, or the override's controls from the centred
    gradient.  It stops when the sup-norm of the march's right-hand side
    under the improved policy, over every row the march updates (edge rows
    included for ``one_sided``), is below ``tol``; the report's
    ``dvdt_norm`` is that residual and ``steps`` the number of linear
    solves.  ``error_bound`` is ``dvdt_norm / min(-h)`` under the final
    policy, and the field is stamped with a horizon past which the
    discounted tail ``max|f| e^{-min(-h) t} / min(-h)`` is below ``tol``.
    ``residual_norm`` is audited on the grid tables the scan holds, so no
    second copy of them is built.

    Raises ``PolicyIterationError`` when the method does not apply, with
    ``h >= 0`` at some node of the grid controls or of an override iterate,
    or fails: a non-finite solve, no convergence within
    ``_MAX_POLICY_ITERATIONS``, or a solution the march moves away from
    (the determinant test of ``_solve_policy``).  The edge rows are not
    monotone: where the drift at an edge is weak, Howard's policies can
    cycle there, and the edge equation can have a second solution.
    ``solve_infinite_horizon`` is then the solver to use.
    """
    if not 0 < tol < np.inf:
        raise ParameterError("tol must be positive and finite")
    rows = slice(None) if grid.boundary == "one_sided" else slice(1, -1)
    nodes = np.arange(grid.nodes)

    def discounting(tables):
        if not tables[2].max() < 0.0:
            raise PolicyIterationError(
                "discount rate h >= 0 at some node: policy iteration needs "
                "h < 0 under every policy it solves for")
        return tables

    t0 = _time.perf_counter()
    rhs_at = _scanner(model, grid, control_override, discounting)
    _, pol, idx, tables = rhs_at(np.zeros(grid.nodes))
    for it in range(1, _MAX_POLICY_ITERATIONS + 1):
        i, _, h, f = (t[idx, nodes] for t in tables)
        u, stable = _solve_policy(grid, i, h, f)
        if not np.isfinite(u).all():
            raise PolicyIterationError(
                f"policy iteration {it}: the linear solve is not finite")
        rhs, pol, idx, tables = rhs_at(u)
        dvdt = float(np.abs(rhs[rows]).max())
        if dvdt < tol:
            break
    else:
        raise PolicyIterationError(
            f"policy iteration did not converge in {_MAX_POLICY_ITERATIONS} "
            "iterations")
    if not stable:
        raise PolicyIterationError(
            "policy iteration converged to a solution the march moves away "
            "from: the edge rows admit another one")

    _, _, h, f = (t[idx, nodes] for t in tables)
    rate = -float(h.max())
    horizon = np.log(max(float(np.abs(f).max()) / (rate * tol), np.e)) / rate
    return (ValueField(grid, u, horizon), PolicyField(grid, pol, horizon),
            _report(model, grid, u, control_override, tables, t0,
                    "stationary_policy_iteration", None, {"tol": tol},
                    cfl_ratio=0.0, dvdt_norm=dvdt, steps=it,
                    error_bound=dvdt / rate))


def residual(model, fld, control_override=None):
    """Interior residual of the stationary equation on a single-layer field.

    The controls are tabulated on the interior nodes: the model's list, or
    the override's at the centred gradient.  A solve's own audit
    (``_report``) shares the evaluation but reads its scan's grid tables.
    """
    if model.dim != 1:
        raise ParameterError("residual supports dim=1 only")
    if len(fld.values) != 1:
        raise ParameterError("field must be stationary (single layer)")
    return _residual(model, fld.grid, fld.values[0], control_override)


def _residual(model, grid, u, override, tables=None):
    """``residual`` of ``u``, on ``tables`` of the interior nodes if given.

    Coefficient rows are independent and ``maximize`` gives the same bits
    for any layout, so the interior slices of a solve's ``_tabulate``
    tables give the bits of a tabulation on the interior nodes.
    """
    ys, dy, uin = grid.ys[1:-1], grid.spacing, u[1:-1]
    d2 = _second_difference(u, dy)[1:-1]
    grad = _centered_gradient(u, dy)[1:-1]
    if tables is None:
        controls = None if override is None else \
            [np.asarray(override(ys, uin, grad), float)]
        tables = _tabulate(model, ys, controls)
    i, _, h, f = tables
    H, _ = maximize(i * grad, h, f, uin)
    return 0.5 * d2 + H


@dataclass(frozen=True)
class GradientBoundReport(Report):
    status: str                # "met" or "inconclusive"
    value_bound: float
    gradient_bound: float
    worst_value_slack: float
    worst_gradient_slack: float


def gradient_bound_check(fld, kappa, L1, L2):
    """Check the value/gradient growth estimates against a kappa table.

    Value bound: integral of kappa over [0, T] plus the terminal envelope.
    Gradient bound: ``(L1 + L1/|L2|)`` times the ``max(1, e^{L2 s})``
    weighted integral plus the weighted terminal envelope.  The table is a
    sampled lower envelope of the true supremum, so failures are reported
    as "inconclusive" rather than as hard errors.
    """
    T = kappa.horizon
    ts = np.linspace(0.0, T, 257)
    kv = kappa.kappa_at(ts)
    p_T = kappa.p_at(T)
    value_bound = float(np.trapezoid(kv, ts) + p_T)
    weight = np.maximum(1.0, np.exp(L2 * ts))
    gradient_bound = float(
        (L1 + L1 / abs(L2))
        * (np.trapezoid(weight * kv, ts) + max(1.0, np.exp(L2 * T)) * p_T)
    )

    ys = fld.grid.ys
    inside = np.abs(ys) <= kappa.radius_n
    u = fld.values[0]
    grad = _centered_gradient(u, fld.grid.spacing)
    vmax = float(np.max(np.abs(u[inside]))) if inside.any() else 0.0
    gmax = float(np.max(np.abs(grad[inside]))) if inside.any() else 0.0
    v_slack = value_bound - vmax
    g_slack = gradient_bound - gmax
    status = "met" if (v_slack >= 0 and g_slack >= 0) else "inconclusive"
    return GradientBoundReport(
        status=status,
        value_bound=value_bound,
        gradient_bound=gradient_bound,
        worst_value_slack=float(v_slack),
        worst_gradient_slack=float(g_slack),
    )
