import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import hjbkit as hk
from hjbkit.errors import CoefficientError, ParameterError
from hjbkit.hamiltonian import control_tables, maximize

from conftest import ou_model
from families import family_models


def brute_force(model, y, u, p):
    """Independent python-loop maximum used as the oracle."""
    best = -np.inf
    best_j = None
    for j, d in enumerate(model.controls):
        ya = np.asarray(y, float)[None]
        val = (float(np.sum(model.drift(ya, d)[0] * p))
               + float(model.discount_rate(ya, d)[0]) * u
               + float(model.running_reward(ya, d)[0]))
        if val > best:
            best, best_j = val, j
    return best, best_j


def test_matches_brute_force_on_random_points():
    m = ou_model()
    rng = np.random.default_rng(0)
    for _ in range(200):
        y = rng.uniform(-3, 3, size=1)
        u = rng.uniform(-2, 2)
        p = rng.uniform(-3, 3, size=1)
        hv = hk.eval_H(m, y, u, p)
        ref, ref_j = brute_force(m, y, u, p)
        assert hv.value == pytest.approx(ref, abs=1e-12)
        assert hv.argmax_index == ref_j


def test_first_argmax_wins_on_tie():
    # two controls with identical coefficients in every slot
    def drift(y, d):
        return -np.asarray(y, float)

    m = hk.ControlModel(
        dim=1, drift=drift,
        discount_rate=lambda y, d: np.full(np.asarray(y).shape[:-1], -1.0),
        running_reward=lambda y, d: np.full(np.asarray(y).shape[:-1], 1.0),
        terminal_reward=lambda y: np.zeros(np.asarray(y).shape[:-1]),
        controls=np.array([[0.0], [1.0]]), lip_L1=1.0, lip_L2=-1.0)
    hv = hk.eval_H(m, np.array([0.3]), 1.0, np.array([0.0]))
    assert hv.argmax_index == 0
    assert hv.runner_up_gap == 0.0


def test_runner_up_gap_single_control():
    m = ou_model(controls=[[0.0]])
    hv = hk.eval_H(m, np.array([0.0]), 1.0, np.array([0.0]))
    assert hv.runner_up_gap == np.inf


def test_runner_up_gap_value():
    m = ou_model()  # controls 0, 0.5, 1 with reward 1 - d^2 at p = 0
    hv = hk.eval_H(m, np.array([0.0]), 0.0, np.array([0.0]))
    assert hv.argmax_index == 0
    assert hv.runner_up_gap == pytest.approx(0.25)


def test_shape_validation():
    m = ou_model()
    with pytest.raises(ParameterError):
        hk.eval_H(m, np.array([0.0, 1.0]), 1.0, np.array([0.0]))
    with pytest.raises(ParameterError):
        hk.eval_H(m, np.array([0.0]), np.nan, np.array([0.0]))
    with pytest.raises(ParameterError):
        hk.eval_H(m, np.array([0.0]), 1.0, np.array([[0.0]]))


def test_scan_agrees_with_pointwise():
    m = ou_model()
    rng = np.random.default_rng(1)
    ys = rng.uniform(-2, 2, size=(50, 1))
    us = rng.uniform(-1, 1, size=50)
    ps = rng.uniform(-2, 2, size=(50, 1))
    i, h, f = control_tables(m, ys)
    vals, idx = maximize(np.sum(i * ps, axis=-1), h, f, us)
    for j in range(50):
        hv = hk.eval_H(m, ys[j], us[j], ps[j])
        assert vals[j] == pytest.approx(hv.value, abs=1e-12)
        assert idx[j] == hv.argmax_index


def test_constant_reward_shift():
    m = ou_model()

    def shifted_reward(y, d, _f=m.running_reward):
        return np.asarray(_f(y, d), float) + 3.5

    m2 = hk.ControlModel(
        dim=1, drift=m.drift, discount_rate=m.discount_rate,
        running_reward=shifted_reward, terminal_reward=m.terminal_reward,
        controls=m.controls, lip_L1=m.lip_L1, lip_L2=m.lip_L2)
    rng = np.random.default_rng(2)
    for _ in range(50):
        y = rng.uniform(-2, 2, size=1)
        u = rng.uniform(-1, 1)
        p = rng.uniform(-2, 2, size=1)
        a = hk.eval_H(m, y, u, p)
        b = hk.eval_H(m2, y, u, p)
        assert b.argmax_index == a.argmax_index
        assert b.value == pytest.approx(a.value + 3.5, abs=1e-12)


def loop_maximize(drift_term, h, f, u):
    """Per-control loop kept as the oracle: strict '>' keeps the first max."""
    best = drift_term[0] + h[0] * u + f[0]
    best_idx = np.zeros(best.shape, dtype=int)
    for m in range(1, len(h)):
        cand = drift_term[m] + h[m] * u + f[m]
        better = cand > best
        best = np.where(better, cand, best)
        best_idx = np.where(better, m, best_idx)
    return best, best_idx


@st.composite
def tables_with_duplicates(draw):
    """(drift_term, h, f, u) tables whose rows repeat earlier rows."""
    rows = draw(st.integers(1, 6))
    nodes = draw(st.integers(1, 8))
    vals = st.floats(-4.0, 4.0, allow_nan=False).map(lambda v: round(v, 1))
    distinct = draw(arrays(float, (rows, 3, nodes), elements=vals))
    source = draw(st.lists(st.integers(0, rows - 1), min_size=rows,
                           max_size=rows + 4))
    tab = distinct[source]  # repeated indices give duplicated rows
    u = draw(arrays(float, nodes, elements=vals))
    return tab[:, 0], tab[:, 1], tab[:, 2], u


@settings(max_examples=200, deadline=None)
@given(tables_with_duplicates())
def test_operator_matches_loop_with_first_index_ties(tables):
    drift_term, h, f, u = tables
    value, idx = maximize(drift_term, h, f, u)
    ref, ref_idx = loop_maximize(drift_term, h, f, u)
    assert np.array_equal(value, ref)
    assert np.array_equal(idx, ref_idx)
    # a duplicated row never wins over its first occurrence
    for node, j in enumerate(idx):
        rows = np.stack([drift_term[:, node], h[:, node], f[:, node]], axis=1)
        assert not any(np.array_equal(rows[j], rows[k]) for k in range(j))


def test_operator_one_row():
    drift_term, h, f = (np.array([[0.5, -1.0]]), np.array([[-1.0, 0.0]]),
                        np.array([[2.0, 3.0]]))
    u = np.array([1.0, 4.0])
    value, idx = maximize(drift_term, h, f, u)
    assert np.array_equal(value, [1.5, 2.0])
    assert np.array_equal(idx, [0, 0])


COEFFICIENTS = ("drift", "discount_rate", "running_reward")


@settings(max_examples=400, deadline=None)
@given(model=family_models(), data=st.data())
def test_tables_equal_per_control_and_per_point_calls(model, data):
    n = data.draw(st.integers(1, 6))
    y = np.random.default_rng(n).uniform(-2.5, 2.5, (n, model.dim))
    tables = control_tables(model, y)
    for name, table in zip(COEFFICIENTS, tables):
        coef = getattr(model, name)
        loop = np.array([np.asarray(coef(y, d), float) for d in model.controls])
        assert table.shape == loop.shape
        assert np.array_equal(table, loop)
    # one control per point, as an override returns
    pick = data.draw(st.lists(st.integers(0, model.n_controls - 1),
                              min_size=n, max_size=n))
    delta = model.controls[pick]
    tables = control_tables(model, y, delta[None])
    for name, table in zip(COEFFICIENTS, tables):
        coef = getattr(model, name)
        loop = np.array([np.asarray(coef(y[j:j + 1], delta[j]), float)[0]
                         for j in range(n)])
        assert np.array_equal(table[0], loop)


def test_tables_take_one_call_per_coefficient():
    m = ou_model(controls=[[0.0], [0.25], [0.5], [1.0]])
    seen = {name: [] for name in COEFFICIENTS}

    def spy(name):
        fn = getattr(m, name)

        def coef(y, d):
            seen[name].append((np.shape(y), np.shape(d)))
            return fn(y, d)
        return coef

    spied = dataclasses.replace(m, **{name: spy(name) for name in COEFFICIENTS})
    i, h, f = control_tables(spied, np.linspace(-1, 1, 7)[:, None])
    assert i.shape == (4, 7, 1) and h.shape == f.shape == (4, 7)
    assert all(calls == [((28, 1), (28, 1))] for calls in seen.values())


@pytest.mark.parametrize("name", COEFFICIENTS)
def test_unbroadcastable_output_names_the_coefficient(name):
    m = ou_model()
    # three values whatever the rows: one per control, not one per row
    wrong = {"drift": lambda y, d: np.zeros((3, 1)),
             "discount_rate": lambda y, d: -np.ones(3),
             "running_reward": lambda y, d: np.ones(3)}[name]
    bad = dataclasses.replace(m, **{name: wrong})
    with pytest.raises(ParameterError, match=name):
        control_tables(bad, np.linspace(-1, 1, 5)[:, None])


def test_override_coefficient_error_names_the_bad_node():
    # the override's control at one node makes h non-finite there
    m = ou_model()
    bad = dataclasses.replace(m, discount_rate=lambda y, d: np.where(
        np.asarray(d, float)[..., 0] == 0.75, np.nan, -1.0))
    grid = hk.Grid1D(-1.0, 1.0, 9)

    def override(ys, u, grad):
        delta = np.zeros((len(ys), 1))
        delta[6] = 0.75
        return delta

    with pytest.raises(CoefficientError) as err:
        control_tables(bad, grid.ys[:, None], override(grid.ys, 0, 0)[None])
    assert err.value.name == "discount_rate"
    assert err.value.y == [grid.ys[6]]
    assert err.value.delta == [0.75]
    with pytest.raises(CoefficientError) as err:
        hk.solve_finite_horizon(bad, grid, hk.TimeGrid(0.1, 10),
                                control_override=override)
    assert (err.value.y, err.value.delta) == ([grid.ys[6]], [0.75])
