"""Models whose coefficients meet a control family in every way the library
supports, for the oracles that compare one call per family with one call
per control, per point or per policy."""

import numpy as np
from hypothesis import strategies as st

import hjbkit as hk


def _family_callables(kind, dim, a):
    """Hand-written coefficients that ignore ``delta`` or read ``delta[..., j]``."""
    if kind == "ignore_delta":
        return dict(
            drift=lambda y, d: -a[0] * np.asarray(y, float),
            discount_rate=lambda y, d: -1.0 - a[1] * np.sum(
                np.asarray(y, float) ** 2, axis=-1),
            running_reward=lambda y, d: 1.0 / (1.0 + abs(a[2]) * np.sum(
                np.asarray(y, float) ** 2, axis=-1)),
            terminal_reward=lambda y: np.cos(np.asarray(y, float)[..., 0]))
    return dict(  # "delta_index"
        drift=lambda y, d: -np.asarray(y, float)
        + a[0] * np.asarray(d, float)[..., :1],
        discount_rate=lambda y, d: -1.0 - a[1] * np.asarray(d, float)[..., -1] ** 2
        + 0.1 * np.tanh(np.asarray(y, float)[..., 0]),
        running_reward=lambda y, d: np.sin(np.asarray(d, float)[..., 0]
                                           + a[2] * np.asarray(y, float)[..., -1]),
        terminal_reward=lambda y: np.zeros(np.asarray(y, float).shape[:-1]))


def _family_descriptor(kind, dim, controls, a):
    """A model file built from the named coefficient builders."""
    doc = {"dim": dim, "controls": controls.tolist(), "L1": 2.0, "L2": -0.5,
           "terminal_reward": {"kind": "affine", "const": 0.5,
                               "y_coeff": [a[3]] * dim}}
    k = controls.shape[1]
    if kind == "builders":
        doc["drift"] = {"kind": "affine", "const": [a[0]] * dim,
                        "y_matrix": (-np.eye(dim) + a[1] * np.ones((dim, dim))).tolist(),
                        "delta_matrix": (a[2] * np.arange(1.0, dim * k + 1)
                                         .reshape(dim, k)).tolist()}
        doc["discount_rate"] = {"kind": "quadratic_delta", "const": -1.0,
                                "y_coeff": [0.1 * a[0]] * dim,
                                "delta_coeff": [a[1]] * k,
                                "delta_quad": [-a[2]] * k}
        doc["running_reward"] = {"kind": "power_delta", "coeff": a[3],
                                 "index": k - 1, "exponent": 0.3 + abs(a[0])}
        return doc
    # "tabulated": one interpolation row per control, control index in delta[0]
    grid = np.linspace(-3.0, 3.0, 7)
    rows = np.arange(len(controls))[:, None]
    doc["drift"] = {"kind": "components", "components": [
        {"kind": "affine", "const": a[0], "y_coeff": [-1.0],
         "delta_coeff": [a[1]] + [0.0] * (k - 1)}]}
    doc["discount_rate"] = {"kind": "tabulated", "y_grid": grid.tolist(),
                            "values": (-1.0 - a[2] * np.sin(rows + grid) ** 2).tolist()}
    doc["running_reward"] = {"kind": "tabulated", "y_grid": grid.tolist(),
                             "values": np.cos(a[3] * rows * grid).tolist()}
    return doc


FAMILY_KINDS = ("ignore_delta", "delta_index", "builders", "tabulated")


@st.composite
def family_models(draw, dims=(1, 2)):
    """A model of one kind with 1-5 controls: the loop oracles' test cases."""
    kind = draw(st.sampled_from(FAMILY_KINDS))
    dim = 1 if kind == "tabulated" else draw(st.sampled_from(dims))
    k = draw(st.integers(1, 2))
    n = draw(st.integers(1, 5))
    a = draw(st.lists(st.floats(-1.5, 1.5).map(lambda v: round(v, 2)),
                      min_size=4, max_size=4))
    values = draw(st.lists(st.lists(st.floats(0.0, 1.5), min_size=k,
                                    max_size=k), min_size=n, max_size=n))
    controls = np.array(values)
    if kind == "tabulated":
        controls[:, 0] = np.arange(n)
    controls = np.unique(controls, axis=0)
    if kind in ("builders", "tabulated"):
        return hk.load_model(_family_descriptor(kind, dim, controls, a))
    return hk.ControlModel(dim=dim, controls=controls, lip_L1=2.0,
                           lip_L2=-0.5, **_family_callables(kind, dim, a))
