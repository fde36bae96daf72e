"""Named coefficient builders for model files.

Model files describe the coefficient maps (drift, discount rate, running
reward, terminal reward) as JSON descriptors with a ``kind`` field plus
parameters, rather than arbitrary expressions.  Every builder returns a
numpy-vectorized callable:

* scalar coefficients take ``(y, delta)`` with ``y`` of shape ``(..., N)``
  and ``delta`` of shape ``(k,)`` or ``(..., k)``, returning shape ``(...)``;
* the terminal reward takes ``y`` only;
* the drift returns shape ``(..., N)``.

The library evaluates a whole control family per call: the grid tables,
the assumption screen and the Monte Carlo step stack their (control, state)
pairs as rows, so a callable gets ``(rows, N)`` states and ``(rows, k)``
controls and returns one value per row (the drift one ``N``-vector).  A
row's value must not depend on the other rows, so the builders contract
with ``np.add.reduce`` (what ``np.sum`` calls) over the last axis, not
``@``, whose rounding changes with the batch shape.  ``_each_row`` is the
package's one rule that spreads an output to one value per row.

The controls can arrive as a non-C-contiguous ``(rows, k)`` view: the
Monte Carlo step keeps each control column contiguous.  ``_dot`` forms its
product C-contiguous before reducing, so a contraction does not depend on
the layout of its operands.  A one-column contraction skips the reduce,
whose only effect there is to add ``0.0`` (turning ``-0.0`` into
``+0.0``): every affine sum starts from ``const + 0.0``, which is never
``-0.0``, and a sum that is never ``-0.0`` is unchanged by that sign.
"""

import json
import os

import numpy as np

from .errors import ParameterError

__all__ = ["build_scalar", "build_terminal", "build_drift"]


def _read_json(source):
    """The document of a model or market file, for ``load_model`` and
    ``load_market``: ``source`` is a path (``str``, ``bytes`` or
    ``os.PathLike``), an open text file, or the parsed mapping itself."""
    if hasattr(source, "read"):
        return json.load(source)
    if isinstance(source, (str, bytes, os.PathLike)):
        with open(source) as fh:
            return json.load(fh)
    return dict(source)


def _each_row(out, shape):
    """``out`` as a float array of ``shape``; one that broadcasts is copied."""
    out = np.asarray(out, float)
    return out if out.shape == shape else np.broadcast_to(out, shape).copy()


def _dot(a, b):
    """``np.add.reduce(a * b, axis=-1)`` of a C-contiguous product, but a
    one-column product as it is, without the reduce's ``+ 0.0``."""
    prod = np.multiply(a, b, order="C")
    return prod[..., 0] if prod.shape[-1] == 1 else np.add.reduce(prod, axis=-1)


def _sized(desc, key, shape, default=None):
    """``desc[key]`` as a float array of ``shape``, where ``-1`` is any
    size; ``ParameterError`` naming the descriptor when it does not fit."""
    if key not in desc:
        return default
    value = np.asarray(desc[key], float)
    try:
        return value.reshape(shape)
    except ValueError:
        raise ParameterError(f"{desc['kind']} descriptor: {key} of shape "
                             f"{value.shape} does not fit {shape}") from None


def _state_part(desc, dim):
    """``y -> const + y_coeff·y`` of an affine descriptor, never ``-0.0``."""
    const = np.asarray(desc.get("const", 0.0), float)
    if const.ndim:
        raise ParameterError(f"{desc['kind']} descriptor: const of shape "
                             f"{const.shape} is not a scalar")
    const = float(const) + 0.0
    y_coeff = _sized(desc, "y_coeff", (dim,), np.zeros(dim))
    return lambda y: const + _dot(y_coeff, np.asarray(y, float))


def _check_controls(desc, controls):
    """``ParameterError`` when ``desc`` reads a control column or a table row
    that the ``(n, k)`` control list ``controls`` does not have."""
    kind = desc["kind"]
    if kind == "components":
        for part in desc["components"]:
            _check_controls(part, controls)
    elif kind == "power_delta":
        index = int(desc.get("index", 0))
        if not 0 <= index < controls.shape[1]:
            raise ParameterError(f"power_delta descriptor: index {index} is not "
                                 f"one of the {controls.shape[1]} control columns")
    elif kind == "tabulated":
        rows = len(desc["values"])
        for j in np.rint(controls[:, 0]).astype(int):
            if not 0 <= j < rows:
                raise ParameterError(f"tabulated descriptor: values has {rows} "
                                     f"rows, none for the control index {j}")


def build_scalar(desc, dim, k=None):
    """Build a scalar coefficient map c(y, delta) from a descriptor.

    With ``k``, the control count, a control coefficient must have ``k``
    entries; without it any length is taken.
    """
    kind = desc["kind"]
    if kind == "constant":
        value = float(desc["value"])

        def coeff(y, delta):
            y = np.asarray(y, float)
            return np.full(y.shape[:-1], value)

        return coeff
    if kind in ("affine", "quadratic_delta"):
        state = _state_part(desc, dim)
        width = (-1 if k is None else k,)
        d_lin = _sized(desc, "delta_coeff", width, 0.0)
        d_quad = _sized(desc, "delta_quad", width, 0.0) if kind == "quadratic_delta" else None

        def coeff(y, delta):
            delta = np.asarray(delta, float)
            out = state(y) + _dot(d_lin, delta)
            if d_quad is not None:
                out = out + _dot(d_quad, delta ** 2)
            return out

        return coeff
    if kind == "power_delta":
        # coeff * delta[index]^exponent, e.g. the c^gamma running reward
        coeff_v = float(desc.get("coeff", 1.0))
        index = int(desc.get("index", 0))
        exponent = float(desc["exponent"])

        def coeff(y, delta):
            delta = np.asarray(delta, float)
            return _each_row(coeff_v * delta[..., index] ** exponent, np.shape(y)[:-1])

        return coeff
    if kind == "tabulated":
        if dim != 1:
            raise ParameterError(f"tabulated coefficients need dim=1, not {dim}")
        y_grid = np.asarray(desc["y_grid"], float)
        values = np.asarray(desc["values"], float)  # (n_controls, n_y)
        # no rows at all is left to the control check, which names the index
        if values.size and values.shape[1:] != y_grid.shape:
            raise ParameterError(f"tabulated descriptor: values of shape "
                                 f"{values.shape} do not fit the "
                                 f"{y_grid.size} y_grid points")

        def coeff(y, delta, _grid=y_grid, _vals=values):
            y = np.asarray(y, float)[..., 0]
            delta = np.asarray(delta, float)
            # control index travels in the descriptor's first delta component
            idx = np.rint(delta[..., 0]).astype(int)
            if idx.ndim == 0:
                return np.interp(y, _grid, _vals[int(idx)])
            out = np.empty(y.shape)
            for j in np.unique(idx):
                sel = idx == j
                out[sel] = np.interp(y[sel], _grid, _vals[j])
            return out

        return coeff
    raise ParameterError(f"unknown coefficient kind {kind!r}")


def build_terminal(desc, dim):
    """Build the terminal reward map g(y) = c(y, 0) from a descriptor.

    At the control 0, finite control coefficients of an affine descriptor
    add ``+0.0`` to a state part that is never ``-0.0``: only the state
    part is evaluated.
    """
    scalar = build_scalar(desc, dim)
    if desc["kind"] in ("affine", "quadratic_delta") and all(
            np.isfinite(desc.get(key, 0.0)).all() for key in ("delta_coeff", "delta_quad")):
        return _state_part(desc, dim)
    zero = np.zeros(1)

    def terminal(y):
        return scalar(y, zero)

    return terminal


def build_drift(desc, dim, k=None):
    """Build the drift map i(y, delta) -> R^N from a descriptor.

    An affine ``const`` is a scalar or has ``dim`` entries.  With ``k``, the
    control count, ``delta_matrix`` must be ``(dim, k)``.
    """
    kind = desc["kind"]
    if kind == "affine":
        const = np.asarray(desc.get("const", 0.0), float)
        const = (np.full(dim, const) if const.ndim == 0
                 else _sized(desc, "const", (dim,))) + 0.0
        y_matrix = _sized(desc, "y_matrix", (dim, dim), np.zeros((dim, dim)))
        d_matrix = _sized(desc, "delta_matrix", (dim, -1 if k is None else k))

        def drift(y, delta):
            y = np.asarray(y, float)
            out = const + _dot(y[..., None, :], y_matrix)
            if d_matrix is not None:
                out = out + _dot(np.asarray(delta, float)[..., None, :], d_matrix)
            return _each_row(out, y.shape)

        return drift
    if kind == "components":
        # one scalar descriptor per state coordinate
        parts = [build_scalar(d, dim, k) for d in desc["components"]]

        def drift(y, delta):
            return np.stack([p(y, delta) for p in parts], axis=-1)

        return drift
    raise ParameterError(f"unknown drift kind {kind!r}")
