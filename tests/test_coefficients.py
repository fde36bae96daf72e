import numpy as np
import pytest

from hjbkit.coefficients import build_drift, build_scalar, build_terminal
from hjbkit.errors import ParameterError


def _signed(rng, shape):
    """Normals with a quarter of the entries set to +0.0 or -0.0."""
    x = rng.standard_normal(shape)
    zero = rng.uniform(size=shape) < 0.25
    x[zero] = np.where(rng.uniform(size=shape) < 0.5, 0.0, -0.0)[zero]
    return x


def _same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


# 9 crosses numpy's pairwise-summation block of 8
@pytest.mark.parametrize("n", [1, 2, 3, 9])
def test_builders_contract_rows_like_np_sum(n):
    rng = np.random.default_rng(n)
    rows = 50
    y, delta = _signed(rng, (rows, n)), _signed(rng, (rows, n))
    const, y_coeff, d_lin, d_quad = (_signed(rng, n) for _ in range(4))
    y_matrix, d_matrix = _signed(rng, (n, n)), _signed(rng, (n, n))
    desc = {"const": float(const[0]), "y_coeff": y_coeff.tolist(),
            "delta_coeff": d_lin.tolist(), "delta_quad": d_quad.tolist()}

    affine = const[0] + np.sum(y_coeff * y, axis=-1) \
        + np.sum(d_lin * delta, axis=-1)
    _same_bits(build_scalar(dict(desc, kind="affine"), n)(y, delta), affine)
    _same_bits(build_scalar(dict(desc, kind="quadratic_delta"), n)(y, delta),
               affine + np.sum(d_quad * delta ** 2, axis=-1))
    _same_bits(build_terminal(dict(desc, kind="affine"), n)(y),
               const[0] + np.sum(y_coeff * y, axis=-1)
               + np.sum(d_lin * np.zeros(1), axis=-1))

    drift = {"kind": "affine", "const": const.tolist(),
             "y_matrix": y_matrix.tolist()}
    linear = const + np.sum(y[..., None, :] * y_matrix, axis=-1)
    _same_bits(build_drift(drift, n)(y, delta), linear)
    _same_bits(build_drift(dict(drift, delta_matrix=d_matrix.tolist()), n)(
        y, delta), linear + np.sum(delta[..., None, :] * d_matrix, axis=-1))


def _with_specials(rng, shape):
    """``_signed`` entries, a fifth of them replaced by ±0.0, ±inf or NaN."""
    x = _signed(rng, shape)
    hit = rng.uniform(size=shape) < 0.2
    x[hit] = rng.choice([0.0, -0.0, np.inf, -np.inf, np.nan], size=shape)[hit]
    return x


def _reference_dot(a, b):
    """The builders' contraction, ``np.add.reduce`` over a C-contiguous product."""
    return np.add.reduce(np.asarray(a, float) * np.ascontiguousarray(b, float),
                         axis=-1)


def _control_major(delta):
    """``delta`` as a ``(rows, k)`` view of a ``(k, rows)`` buffer."""
    return np.ascontiguousarray(delta.T).T


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("k", [1, 2, 9])
@pytest.mark.parametrize("const", [0.7, 0.0, -0.0])
@pytest.mark.parametrize("absent", [(), ("y_coeff", "delta_coeff", "delta_quad",
                                        "delta_matrix")])
def test_affine_builders_equal_reference_bits(dim, k, const, absent):
    """Every affine map equals the reference formula bit for bit, on
    states and controls with signed zeros, infinities and NaNs, and on
    row-major and control-major controls alike."""
    rng = np.random.default_rng([dim, k])
    rows = 400
    y = _with_specials(rng, (rows, dim))
    delta = _with_specials(rng, (rows, k))
    given = {"y_coeff": _signed(rng, dim), "delta_coeff": _signed(rng, k),
             "delta_quad": _signed(rng, k),
             "y_matrix": _signed(rng, (dim, dim)),
             "delta_matrix": _signed(rng, (dim, k))}
    given = {key: value for key, value in given.items() if key not in absent}
    desc = {key: value.tolist() for key, value in given.items()}
    y_coeff = given.get("y_coeff", np.zeros(dim))
    d_lin, d_quad = given.get("delta_coeff", 0.0), given.get("delta_quad", 0.0)

    def scalar(y, delta):
        return const + _reference_dot(y_coeff, y) + _reference_dot(d_lin, delta)

    scalar_desc = dict(desc, const=const)
    drift_desc = {key: desc[key] for key in ("y_matrix", "delta_matrix") if key in desc}
    with np.errstate(invalid="ignore", over="ignore"):
        linear = const + _reference_dot(
            y[..., None, :], given.get("y_matrix", np.zeros((dim, dim))))
        if "delta_matrix" in given:
            linear = linear + _reference_dot(delta[..., None, :],
                                             given["delta_matrix"])
        quad = scalar(y, delta) + _reference_dot(d_quad, delta ** 2)
        one_control = np.zeros((1, k))
        for controls in (delta, _control_major(delta)):
            _same_bits(build_scalar(dict(scalar_desc, kind="affine"), dim,
                                    one_control)(y, controls), scalar(y, delta))
            _same_bits(build_scalar(dict(scalar_desc, kind="quadratic_delta"),
                                    dim, one_control)(y, controls), quad)
            _same_bits(build_drift(dict(drift_desc, kind="affine",
                                        const=[const] * dim), dim,
                                   one_control)(y, controls), linear)
        _same_bits(build_terminal(dict(scalar_desc, kind="quadratic_delta"), dim)(y),
                   scalar(y, np.zeros(1)) + _reference_dot(d_quad, np.zeros(1)))


def test_terminal_with_a_non_finite_control_coefficient_is_rejected():
    # at the control 0 the term would be 0·inf, so the descriptor is refused
    with pytest.raises(ParameterError, match="delta_coeff must be a number"):
        build_terminal({"kind": "affine", "const": 1.0,
                        "delta_coeff": [np.inf]}, 1)


@pytest.mark.parametrize("key, value, kind", [
    ("y_coeff", [1.0, 2.0], "affine"),
    ("delta_coeff", [1.0], "affine"),
    ("delta_quad", [1.0, 2.0, 3.0], "quadratic_delta"),
    ("delta_coeff", 0.5, "affine"),
])
def test_scalar_coefficient_of_another_width_is_rejected(key, value, kind):
    with pytest.raises(ParameterError, match=key):
        build_scalar({"kind": kind, key: value}, 1, np.zeros((1, 2)))


@pytest.mark.parametrize("key, value", [
    ("y_matrix", [[-1.0]]),
    ("delta_matrix", [[1.0], [1.0]]),
    ("delta_matrix", [[1.0, 1.0, 1.0], [1.0, 1.0, 1.0]]),
    # the right entries on other axes, which used to be reshaped
    ("y_matrix", [-1.0, 0.0, 0.0, -1.0]),
    ("delta_matrix", [[[1.0, 0.0], [0.0, 1.0]]]),
])
def test_drift_matrix_of_another_shape_is_rejected(key, value):
    with pytest.raises(ParameterError, match=key):
        build_drift({"kind": "affine", key: value}, 2, np.zeros((1, 2)))


@pytest.mark.parametrize("const", [-0.0, 0.5, [-0.0, 0.5], None])
def test_drift_const_is_a_scalar_or_one_entry_per_state(const):
    # const spread over the dim entries, ``-0.0`` turned into ``+0.0``
    desc = {"kind": "affine", "y_matrix": [[-1.0, 0.0], [0.0, 1.0]]}
    if const is not None:
        desc["const"] = const
    y = np.array([[0.0, -0.0], [1.5, -2.0]])
    want = (np.broadcast_to(np.asarray(0.0 if const is None else const, float),
                            (2,)) + 0.0) + np.sum(
        y[..., None, :] * np.array(desc["y_matrix"]), axis=-1)
    _same_bits(build_drift(desc, 2)(y, np.zeros(1)), want)


@pytest.mark.parametrize("const", [[0.0, 1.0, 2.0], [1.0], [[1.0, 2.0, 3.0]]])
def test_drift_const_of_another_length_is_rejected(const):
    with pytest.raises(ParameterError, match="affine descriptor: const"):
        build_drift({"kind": "affine", "const": const}, 2)


def test_tabulated_rejects_a_negative_control_index():
    # the control index -1 read the last row of the table
    coeff = build_scalar({"kind": "tabulated", "y_grid": [0.0, 1.0],
                          "values": [[0.0, 1.0], [5.0, 6.0]]}, 1)
    y = np.array([[0.5], [0.5]])
    assert coeff(y, np.array([[1.0], [0.0]])).tolist() == [5.5, 0.5]
    with pytest.raises(ValueError):
        coeff(y, np.array([[-1.0], [0.0]]))
    with pytest.raises(IndexError):
        coeff(y, np.array([[7.0], [0.0]]))
