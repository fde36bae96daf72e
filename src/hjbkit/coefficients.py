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

``_numbers`` reads every number of a model, market or bounds file: only
finite numbers of the expected shape pass.
"""

import json
import os

import numpy as np

from .errors import ParameterError

__all__ = ["build_scalar", "build_terminal", "build_drift"]


def _read_json(source):
    """The document of a model, market or bounds file, for ``load_model``,
    ``load_market`` and ``load_bounds``: ``source`` is a path (``str``,
    ``bytes`` or ``os.PathLike``), an open text file, or the parsed mapping
    itself."""
    if hasattr(source, "read"):
        return json.load(source)
    if isinstance(source, (str, bytes, os.PathLike)):
        with open(source) as fh:
            return json.load(fh)
    return dict(source)


def _numbers(doc, key, shape=(), default=None, where=None):
    """``doc[key]`` as a float, or as a float array of a nonempty ``shape``
    (``-1``: any size; ``None``: any shape), which a scalar fills if the
    shape holds one entry; ``default`` if absent, where one is given.  An
    entry that is not a finite number, or other axes, is a ``ParameterError``
    naming ``key`` and ``where``, the file kind (by default the descriptor's).
    """
    if default is not None and key not in doc:
        return default
    raw = doc[key]
    if shape == () and type(raw) is float and np.isfinite(raw):
        return raw  # the common case, without the array round trip
    where = where or f"{doc['kind']} descriptor"
    try:
        value = np.asarray(raw, float)
    except (TypeError, ValueError, OverflowError):
        value = np.array(np.nan)
    # nested deeper than a list of the shape: an entry is itself a list
    if not np.isfinite(value).all() or (
            shape is not None and value.ndim > max(len(shape), 1)):
        raise ParameterError(f"{where}: {key} must be a number, not {raw!r} "
                             "(every entry finite)")
    if shape is None:
        return value
    fit = value.reshape((1,) * len(shape)) if value.ndim == 0 else value
    if fit.ndim != len(shape) or any(s not in (-1, n) for s, n in zip(shape, fit.shape)):
        raise ParameterError(f"{where}: {key} of shape {value.shape} does not "
                             f"fit {shape}")
    return fit if shape else float(fit)


def _each_row(out, shape):
    """``out`` as a float array of ``shape``; one that broadcasts is copied."""
    out = np.asarray(out, float)
    return out if out.shape == shape else np.broadcast_to(out, shape).copy()


def _dot(a, b):
    """``np.add.reduce(a * b, axis=-1)`` of a C-contiguous product, but a
    one-column product as it is, without the reduce's ``+ 0.0``."""
    prod = np.multiply(a, b, order="C")
    return prod[..., 0] if prod.shape[-1] == 1 else np.add.reduce(prod, axis=-1)


def _state_part(desc, dim):
    """``y -> const + y_coeff·y`` of an affine descriptor, never ``-0.0``."""
    const = _numbers(desc, "const", default=0.0) + 0.0
    y_coeff = _numbers(desc, "y_coeff", (dim,), np.zeros(dim))
    return lambda y: const + _dot(y_coeff, np.asarray(y, float))


def build_scalar(desc, dim, controls=None):
    """Build a scalar coefficient map c(y, delta) from a descriptor.

    With ``controls``, the ``(n, k)`` control list, a control coefficient
    must have ``k`` entries, a ``power_delta`` index must be one of the
    ``k`` columns and a ``tabulated`` table needs a row for every control;
    without it none of this is checked.
    """
    kind = desc["kind"]
    if kind == "constant":
        value = _numbers(desc, "value")

        def coeff(y, delta):
            y = np.asarray(y, float)
            return np.full(y.shape[:-1], value)

        return coeff
    if kind in ("affine", "quadratic_delta"):
        state = _state_part(desc, dim)
        width = (-1 if controls is None else controls.shape[1],)
        d_lin = _numbers(desc, "delta_coeff", width, 0.0)
        d_quad = (_numbers(desc, "delta_quad", width, 0.0)
                  if kind == "quadratic_delta" else None)

        def coeff(y, delta):
            delta = np.asarray(delta, float)
            out = state(y) + _dot(d_lin, delta)
            if d_quad is not None:
                out = out + _dot(d_quad, delta ** 2)
            return out

        return coeff
    if kind == "power_delta":
        # coeff * delta[index]^exponent, e.g. the c^gamma running reward
        coeff_v = _numbers(desc, "coeff", default=1.0)
        index = int(_numbers(desc, "index", default=0))
        exponent = _numbers(desc, "exponent")
        if controls is not None and not 0 <= index < controls.shape[1]:
            raise ParameterError(f"power_delta descriptor: index {index} is not "
                                 f"one of the {controls.shape[1]} control columns")

        def coeff(y, delta):
            delta = np.asarray(delta, float)
            return _each_row(coeff_v * delta[..., index] ** exponent, np.shape(y)[:-1])

        return coeff
    if kind == "tabulated":
        if dim != 1:
            raise ParameterError(f"tabulated coefficients need dim=1, not {dim}")
        y_grid = _numbers(desc, "y_grid", (-1,))
        values = _numbers(desc, "values", None)  # (n_controls, n_y)
        # no rows at all is left to the control check, which names the index
        if values.size and values.shape[1:] != y_grid.shape:
            raise ParameterError(f"tabulated descriptor: values of shape "
                                 f"{values.shape} do not fit the "
                                 f"{y_grid.size} y_grid points")
        if controls is not None:
            # each control's first entry, rounded, is its row (if it has one)
            for j in np.rint(controls[:, :1]).astype(int).ravel():
                if not 0 <= j < len(values):
                    raise ParameterError(f"tabulated descriptor: values has "
                                         f"{len(values)} rows, none for the "
                                         f"control index {j}")

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

    The control 0 must have the ``power_delta`` column and the
    ``tabulated`` row the descriptor reads.  At the control 0, the (finite)
    control coefficients of an affine descriptor add ``+0.0`` to a state
    part that is never ``-0.0``: only the state part is evaluated.
    """
    if desc["kind"] in ("affine", "quadratic_delta"):
        build_scalar(desc, dim)  # reads every entry, of any control width
        return _state_part(desc, dim)
    zero = np.zeros((1, 1))
    scalar = build_scalar(desc, dim, zero)
    return lambda y: scalar(y, zero[0])


def build_drift(desc, dim, controls=None):
    """Build the drift map i(y, delta) -> R^N from a descriptor.

    An affine ``const`` is a scalar or has ``dim`` entries.  With
    ``controls``, the ``(n, k)`` control list, ``delta_matrix`` must be
    ``(dim, k)`` and every component is checked as ``build_scalar`` checks.
    """
    kind = desc["kind"]
    if kind == "affine":
        shape = () if np.isscalar(desc.get("const", 0.0)) else (dim,)
        const = np.full(dim, _numbers(desc, "const", shape, 0.0)) + 0.0
        y_matrix = _numbers(desc, "y_matrix", (dim, dim), np.zeros((dim, dim)))
        width = -1 if controls is None else controls.shape[1]
        d_matrix = (_numbers(desc, "delta_matrix", (dim, width))
                    if "delta_matrix" in desc else None)

        def drift(y, delta):
            y = np.asarray(y, float)
            out = const + _dot(y[..., None, :], y_matrix)
            if d_matrix is not None:
                out = out + _dot(np.asarray(delta, float)[..., None, :], d_matrix)
            return _each_row(out, y.shape)

        return drift
    if kind == "components":
        # one scalar descriptor per state coordinate
        parts = [build_scalar(d, dim, controls) for d in desc["components"]]

        def drift(y, delta):
            return np.stack([p(y, delta) for p in parts], axis=-1)

        return drift
    raise ParameterError(f"unknown drift kind {kind!r}")
