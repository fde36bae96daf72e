"""Pointwise evaluation and maximization of the HJB nonlinearity.

``H(y, u, p) = max over the control list of  i(y,d).p + h(y,d) u + f(y,d)``.

``control_tables`` tabulates a control family, one call per coefficient.
``maximize`` is the one operator behind the grid marches, the residual
audit and ``eval_H``; each caller contracts the drift with its own
gradient.  The maximum is an exact scan over the finite control list;
ties go to the lowest control index so policies are bit-reproducible.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError

__all__ = ["HamiltonianValue", "eval_H", "control_tables", "maximize"]


@dataclass(frozen=True)
class HamiltonianValue:
    value: float
    argmax: np.ndarray
    argmax_index: int
    runner_up_gap: float


def control_tables(model, y, controls=None):
    """``(i, h, f)`` of a control family on the points ``y``, control axis first.

    ``controls`` is ``(C, k)``, each control at every point (the model's
    list by default), or ``(C, n, k)``, one per point as an override
    returns.  The ``C·n`` (control, point) pairs are the rows of one
    ``eval_checked`` call per coefficient; the tables are shaped ``(C,) +
    y.shape[:-1]``, the drift with a last axis ``N``.
    """
    y = np.asarray(y, float)
    d = model.controls if controls is None else np.asarray(controls, float)
    pairs = (len(d), y.size // y.shape[-1])
    states = np.broadcast_to(y.reshape(-1, y.shape[-1]), pairs + y.shape[-1:])
    deltas = np.broadcast_to(d if d.ndim == 3 else d[:, None], pairs + d.shape[-1:])
    rows = states.reshape(-1, y.shape[-1]), deltas.reshape(-1, d.shape[-1])
    shape = (len(d),) + y.shape[:-1]
    return (model.eval_checked("drift", *rows).reshape(shape + y.shape[-1:]),
            model.eval_checked("discount_rate", *rows).reshape(shape),
            model.eval_checked("running_reward", *rows).reshape(shape))


def maximize(drift_term, h, f, u):
    """Max over axis 0 of ``drift_term + h*u + f`` and its first argmax."""
    cand = h * u  # summed in place: one (controls, points) temporary
    cand += drift_term
    cand += f
    return cand.max(axis=0), cand.argmax(axis=0)


def eval_H(model, y, u, p):
    """Maximize the HJB candidate over the control list at one point."""
    y = np.asarray(y, float)
    p = np.asarray(p, float)
    if y.shape != (model.dim,) or p.shape != (model.dim,):
        raise ParameterError(f"y and p must have length {model.dim}")
    if not np.isfinite(u):
        raise ParameterError("u must be finite")
    i, h, f = control_tables(model, y)
    drift_term = np.sum(i * p, axis=-1)
    value, j = maximize(drift_term, h, f, float(u))
    if len(h) > 1:
        rest = [np.delete(t, j, axis=0) for t in (drift_term, h, f)]
        gap = float(value - maximize(*rest, float(u))[0])
    else:
        gap = np.inf
    return HamiltonianValue(
        value=float(value),
        argmax=model.controls[j].copy(),
        argmax_index=int(j),
        runner_up_gap=gap,
    )
