import numpy as np
import pytest

from hjbkit.coefficients import build_drift, build_scalar, build_terminal


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
