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
    return np.add.reduce(np.asarray(a, float) * np.asarray(b, float), axis=-1)


def build_scalar(desc, dim):
    """Build a scalar coefficient map c(y, delta) from a descriptor."""
    kind = desc["kind"]
    if kind == "constant":
        value = float(desc["value"])

        def coeff(y, delta):
            y = np.asarray(y, float)
            return np.full(y.shape[:-1], value)

        return coeff
    if kind in ("affine", "quadratic_delta"):
        const = float(desc.get("const", 0.0))
        y_coeff = np.asarray(desc.get("y_coeff", np.zeros(dim)), float)
        d_lin = np.asarray(desc.get("delta_coeff", 0.0), float)
        d_quad = np.asarray(desc.get("delta_quad", 0.0), float) if kind == "quadratic_delta" else None

        def coeff(y, delta):
            y = np.asarray(y, float)
            delta = np.asarray(delta, float)
            out = const + _dot(y_coeff, y)
            out = out + _dot(d_lin, delta)
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
    """Build the terminal reward map g(y) from a descriptor."""
    scalar = build_scalar(desc, dim)
    zero = np.zeros(1)

    def terminal(y):
        return scalar(y, zero)

    return terminal


def build_drift(desc, dim):
    """Build the drift map i(y, delta) -> R^N from a descriptor."""
    kind = desc["kind"]
    if kind == "affine":
        const = np.broadcast_to(np.asarray(desc.get("const", 0.0), float), (dim,))
        y_matrix = np.asarray(desc.get("y_matrix", np.zeros((dim, dim))), float).reshape(dim, dim)
        d_raw = desc.get("delta_matrix")
        d_matrix = None if d_raw is None else np.asarray(d_raw, float).reshape(dim, -1)

        def drift(y, delta):
            y = np.asarray(y, float)
            out = const + _dot(y[..., None, :], y_matrix)
            if d_matrix is not None:
                out = out + _dot(np.asarray(delta, float)[..., None, :], d_matrix)
            return _each_row(out, y.shape)

        return drift
    if kind == "components":
        # one scalar descriptor per state coordinate
        parts = [build_scalar(d, dim) for d in desc["components"]]

        def drift(y, delta):
            return np.stack([p(y, delta) for p in parts], axis=-1)

        return drift
    raise ParameterError(f"unknown drift kind {kind!r}")
