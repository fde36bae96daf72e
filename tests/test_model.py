import dataclasses
import json
import pathlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hjbkit as hk
from hjbkit import finance
from hjbkit import model as model_mod
from hjbkit import simulate as sim
from hjbkit.errors import (CoefficientError, ParameterError,
                           PathExclusionError)

from conftest import ou_model
from families import family_models


def test_controls_must_be_nonempty():
    m = ou_model()
    with pytest.raises(ParameterError):
        hk.ControlModel(dim=1, drift=m.drift, discount_rate=m.discount_rate,
                        running_reward=m.running_reward,
                        terminal_reward=m.terminal_reward,
                        controls=np.empty((0, 1)), lip_L1=1.0, lip_L2=-1.0)


def test_duplicate_controls_rejected():
    m = ou_model()
    with pytest.raises(ParameterError):
        hk.ControlModel(dim=1, drift=m.drift, discount_rate=m.discount_rate,
                        running_reward=m.running_reward,
                        terminal_reward=m.terminal_reward,
                        controls=np.array([[0.0], [0.0]]),
                        lip_L1=1.0, lip_L2=-1.0)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 6).flatmap(lambda k: st.lists(
    st.lists(st.sampled_from([0.0, -0.0, 1.0, np.nan, np.inf, -np.inf]),
             min_size=k, max_size=k), min_size=1, max_size=8)))
def test_duplicate_verdict_is_that_of_unique_rows(rows):
    # +-0.0 rows are duplicates, rows with a NaN never are, +-inf rows are
    controls = np.array(rows)
    m = ou_model()
    duplicates = len(np.unique(controls, axis=0)) != len(controls)
    try:
        dataclasses.replace(m, controls=controls)
    except ParameterError as err:
        assert duplicates and "duplicates" in str(err)
    else:
        assert not duplicates


@pytest.mark.parametrize("l1,l2", [(0.0, -1.0), (-1.0, -1.0), (1.0, 0.0)])
def test_lipschitz_constants_validated(l1, l2):
    m = ou_model()
    with pytest.raises(ParameterError):
        hk.ControlModel(dim=1, drift=m.drift, discount_rate=m.discount_rate,
                        running_reward=m.running_reward,
                        terminal_reward=m.terminal_reward,
                        controls=m.controls, lip_L1=l1, lip_L2=l2)


@pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
@pytest.mark.parametrize("name", ["lip_L1", "lip_L2"])
def test_lipschitz_constants_must_be_finite(name, value):
    # an infinite L1 and L2 made every ratio of the assumption screen 0
    message = ("lip_L1 must be positive" if name == "lip_L1" and not value > 0
               else f"{name} must be finite")
    with pytest.raises(ParameterError, match=f"^{message}$"):
        dataclasses.replace(ou_model(), **{name: value})


def test_eval_checked_flags_non_finite():
    m = ou_model()
    bad = hk.ControlModel(
        dim=1, drift=m.drift, discount_rate=m.discount_rate,
        running_reward=lambda y, d: np.full(np.asarray(y).shape[:-1], np.nan),
        terminal_reward=m.terminal_reward, controls=m.controls,
        lip_L1=2.0, lip_L2=-1.0)
    with pytest.raises(CoefficientError):
        bad.eval_checked("running_reward", np.array([0.5]), bad.controls[0])


class TestAssumptionScreen:
    def test_ou_model_passes(self):
        rep = hk.check_assumption1(ou_model(), [[-3, 3]], samples=128, seed=0)
        assert rep.passed
        assert rep.worst_ratio <= 1.0 + 1e-6

    def test_deterministic_for_fixed_seed(self):
        a = hk.check_assumption1(ou_model(), [[-3, 3]], samples=64, seed=7)
        b = hk.check_assumption1(ou_model(), [[-3, 3]], samples=64, seed=7)
        assert a.worst_ratio == b.worst_ratio
        assert a.witness == b.witness

    def test_reward_slope_violation_detected(self):
        m = ou_model()
        steep = hk.ControlModel(
            dim=1, drift=m.drift, discount_rate=m.discount_rate,
            running_reward=lambda y, d: 5.0 * np.sum(np.asarray(y, float),
                                                     axis=-1),
            terminal_reward=m.terminal_reward, controls=m.controls,
            lip_L1=2.0, lip_L2=-1.0)
        rep = hk.check_assumption1(steep, [[-3, 3]], samples=128, seed=0)
        assert not rep.passed
        assert rep.witness["coefficient"] == "running_reward"
        # slope 5 against the claimed 2 must read as a ratio near 2.5
        assert rep.worst_ratio == pytest.approx(2.5, rel=1e-6)

    def test_expanding_drift_violation_detected(self):
        m = ou_model()
        expanding = hk.ControlModel(
            dim=1, drift=lambda y, d: +np.asarray(y, float),
            discount_rate=m.discount_rate, running_reward=m.running_reward,
            terminal_reward=m.terminal_reward, controls=m.controls,
            lip_L1=2.0, lip_L2=-1.0)
        rep = hk.check_assumption1(expanding, [[-3, 3]], samples=128, seed=0)
        assert not rep.passed
        assert rep.witness["coefficient"] == "drift"

    def test_sample_count_validated(self):
        with pytest.raises(ParameterError):
            hk.check_assumption1(ou_model(), [[-3, 3]], samples=1, seed=0)

    def test_negative_seed_rejected(self):
        with pytest.raises(ParameterError, match="seed"):
            hk.check_assumption1(ou_model(), [[-3, 3]], samples=8, seed=-1)

    def test_report_serializes(self):
        rep = hk.check_assumption1(ou_model(), [[-3, 3]], samples=32, seed=0)
        d = rep.as_dict()
        assert set(d) >= {"passed", "worst_ratio", "witness", "ratios"}

    @pytest.mark.parametrize("box", [
        [[-np.inf, 1.0]], [[0.0, np.inf]], [[np.nan, 1.0]],
        # the pair distances, or their squares, overflow
        [[-1e308, 1e308]], [[-1e160, 1e160]], [[-1e200, 1e200]]])
    def test_box_must_be_finite_with_a_finite_squared_diagonal(self, box):
        # a 5y reward against L1 = 1 fails on [-3, 3]: an overflowed box
        # read every quotient as 0 and passed
        steep = dataclasses.replace(
            ou_model(), running_reward=lambda y, d: 5.0 * np.sum(y, axis=-1))
        with pytest.raises(ParameterError, match="box"):
            hk.check_assumption1(steep, box, samples=16, seed=0)

    def test_nan_quotient_fails_and_is_the_witness(self):
        # i = (c y1, -c y2): in the drift's inner product with the pair
        # difference the two terms overflow to +inf and -inf, a NaN quotient
        c = 1e157
        m = hk.ControlModel(
            dim=2, drift=lambda y, d: np.asarray(y, float) * [c, -c],
            discount_rate=lambda y, d: np.full(np.shape(y)[:-1], -1.0),
            running_reward=lambda y, d: np.zeros(np.shape(y)[:-1]),
            terminal_reward=lambda y: np.zeros(np.shape(y)[:-1]),
            controls=[[0.0]], lip_L1=1.0, lip_L2=1.0)
        rep = hk.check_assumption1(m, [[-1e150, 1e150]] * 2, samples=16,
                                   seed=0)
        assert not rep.passed
        assert rep.witness["coefficient"] == "drift"
        assert rep.worst_ratio == np.inf == rep.witness["ratio"]


class TestTruncation:
    def test_radius_validated(self):
        with pytest.raises(ParameterError):
            hk.truncate(ou_model(), 0)

    def test_unchanged_inside_radius(self):
        m = ou_model(reward="bounded")
        mk = hk.truncate(m, 3)
        y = np.array([[0.5], [-2.9], [1.0]])
        d = m.controls[1]
        assert np.array_equal(mk.running_reward(y, d), m.running_reward(y, d))
        assert np.array_equal(mk.discount_rate(y, d), m.discount_rate(y, d))
        assert np.array_equal(mk.terminal_reward(y), m.terminal_reward(y))

    def test_flattened_beyond_twice_radius(self):
        m = ou_model(reward="bounded")
        mk = hk.truncate(m, 2)
        y = np.array([[4.5], [-7.0]])
        d = m.controls[0]
        assert np.all(mk.running_reward(y, d) == 0.0)
        assert np.all(mk.terminal_reward(y) == 0.0)
        # negative discount parts survive the taper
        assert np.all(mk.discount_rate(y, d) == -1.0)

    def test_lipschitz_constant_scaling(self):
        m = ou_model()
        assert hk.truncate(m, 4).lip_L1 == pytest.approx(2 * 2.0 * (1 + 0.25))
        assert hk.truncate(m, 4).lip_L2 == m.lip_L2

    @settings(max_examples=50, deadline=None)
    @given(y=st.floats(-20, 20), k=st.integers(1, 8))
    def test_taper_never_amplifies_reward(self, y, k):
        m = ou_model(reward="bounded")
        mk = hk.truncate(m, k)
        d = m.controls[0]
        ya = np.array([y])
        assert abs(mk.running_reward(ya, d)) <= abs(m.running_reward(ya, d)) + 1e-15

    @settings(max_examples=50, deadline=None)
    @given(y=st.floats(-20, 20), k=st.integers(1, 8))
    def test_discount_only_shrinks_positive_part(self, y, k):
        def pos_h(yv, d):
            return 0.5 + 0.0 * np.sum(np.asarray(yv, float), axis=-1)

        m = ou_model()
        msigned = hk.ControlModel(
            dim=1, drift=m.drift, discount_rate=pos_h,
            running_reward=m.running_reward, terminal_reward=m.terminal_reward,
            controls=m.controls, lip_L1=2.0, lip_L2=-1.0)
        hk_val = hk.truncate(msigned, k).discount_rate(np.array([y]),
                                                       m.controls[0])
        assert 0.0 <= hk_val <= 0.5 + 1e-15


class TestKappaTable:
    def _table(self, rate=-1.0):
        t = np.linspace(0.0, 4.0, 33)
        kappa = np.exp(rate * t)
        return hk.KappaTable(
            t=t, kappa=kappa, p_terminal=kappa.copy(),
            policy_ids=np.zeros(len(t)), radius_n=1,
            policies_probed="synthetic", integral_kappa=0.0,
            integral_weighted=0.0, envelope_K=1.0, envelope_M=0.0,
            decay_rate=rate)

    def test_time_grid_validated(self):
        with pytest.raises(ParameterError):
            hk.KappaTable(t=[0.0, 0.0], kappa=[1, 1], p_terminal=[1, 1],
                          policy_ids=[0, 0], radius_n=1, policies_probed="x",
                          integral_kappa=0, integral_weighted=0, envelope_K=1,
                          envelope_M=0, decay_rate=-1)

    def test_negative_kappa_rejected(self):
        with pytest.raises(ParameterError):
            hk.KappaTable(t=[0.0, 1.0], kappa=[1, -1], p_terminal=[1, 1],
                          policy_ids=[0, 0], radius_n=1, policies_probed="x",
                          integral_kappa=0, integral_weighted=0, envelope_K=1,
                          envelope_M=0, decay_rate=-1)

    def test_interpolation(self):
        tab = self._table()
        assert tab.kappa_at(0.0) == pytest.approx(1.0)
        assert tab.kappa_at(1.0) == pytest.approx(np.exp(-1.0), rel=1e-3)

    def test_integral_matches_closed_form(self):
        # integral of e^{-t} over [0, inf) is 1; trapezoid + tail
        tab = self._table()
        assert tab.integral(0.0, np.inf) == pytest.approx(1.0, rel=1e-2)
        assert tab.integral(0.0, 2.0) == pytest.approx(1 - np.exp(-2), rel=1e-2)

    def test_weighted_integral_divergence(self):
        # weight rate above the decay rate makes the tail integral infinite
        tab = self._table(rate=-0.5)
        assert tab.integral(0.0, np.inf, weight_rate=1.0) == np.inf

    def test_csv_export(self, tmp_path):
        tab = self._table()
        out = tmp_path / "kappa.csv"
        tab.to_csv(out)
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "t,kappa,p,policy_id"
        assert len(lines) == 1 + len(tab.t)


class TestEstimateKappa:
    def test_ou_envelope_decays(self):
        m = ou_model()
        mc = hk.MonteCarloConfig(paths=400, dt=2e-2, seed=11)
        tab = hk.estimate_kappa(m, 2, 3.0, mc)
        assert not tab.non_integrable
        assert tab.decay_rate < 0
        # the envelope at the horizon end is well below its early values
        assert tab.kappa[-1] < 0.5 * tab.kappa[1]
        assert np.isfinite(tab.integral_kappa)

    def test_negative_radius_rejected(self):
        # a 1-D mesh on [-n, n] is the same for n and -n: reject, not mirror
        m = ou_model()
        mc = hk.MonteCarloConfig(paths=10, dt=0.1, seed=1)
        with pytest.raises(ParameterError, match="radius"):
            hk.estimate_kappa(m, -1, 0.5, mc)

    def test_rows_labelled_at_the_simulated_step(self):
        # grid 0.125, 0.25, ... on steps of 0.1: 0.125 is simulated at 0.1,
        # 0.375 at 0.4; under h = -1 and |f| <= 1 the envelope is e^{-t}
        m = ou_model()
        mc = hk.MonteCarloConfig(paths=20, dt=0.1, seed=1)
        tab = hk.estimate_kappa(m, 0, 2.0, mc)
        assert tab.t[:3].tolist() == [0.1, 0.2, 0.4]
        assert tab.t[-1] == 2.0
        assert np.allclose(tab.kappa, np.exp(-tab.t), rtol=1e-12, atol=0)

    def test_grid_times_on_one_step_give_one_row(self):
        # grid spacing 1/16 on steps of 0.1: 0.0625 and 0.125 are both
        # simulated at step 1, 0.9375 and 1.0 at step 10
        m = ou_model()
        mc = hk.MonteCarloConfig(paths=20, dt=0.1, seed=1)
        tab = hk.estimate_kappa(m, 0, 1.0, mc)
        assert np.allclose(tab.t, 0.1 * np.arange(1, 11), rtol=1e-12)
        assert tab.t[-1] == 1.0
        assert np.allclose(tab.kappa, np.exp(-tab.t), rtol=1e-12, atol=0)

    def test_deterministic(self):
        m = ou_model()
        mc = hk.MonteCarloConfig(paths=200, dt=2e-2, seed=3)
        a = hk.estimate_kappa(m, 1, 2.0, mc)
        b = hk.estimate_kappa(m, 1, 2.0, mc)
        assert np.array_equal(a.kappa, b.kappa)
        assert a.integral_kappa == b.integral_kappa

    def test_policy_groups_match_one_call(self, monkeypatch):
        # f = 1 + |y|^2: the last control (drift towards 1) sets the envelope
        base = ou_model()
        m = hk.ControlModel(
            dim=1, drift=base.drift, discount_rate=base.discount_rate,
            running_reward=lambda y, d: 1.0 + np.sum(np.asarray(y) ** 2, -1),
            terminal_reward=base.terminal_reward, controls=base.controls,
            lip_L1=2.0, lip_L2=-1.0)
        mc = hk.MonteCarloConfig(paths=200, dt=2e-2, seed=3)
        whole = hk.estimate_kappa(m, 1, 2.0, mc)
        assert np.all(whole.policy_ids == 2)
        # a budget below one policy's records: one policy per group
        monkeypatch.setattr(sim, "_RECORD_BYTES", 1)
        grouped = hk.estimate_kappa(m, 1, 2.0, mc)
        for name, value in vars(whole).items():
            assert np.array_equal(getattr(grouped, name), value), name

    def test_memory_flat_in_control_count(self, monkeypatch, merton_market):
        # one call for all 21 x 21 policies would hold 441 policies x 7
        # starts x 8 paths x 17 records x 5 floats = 17 MB of records
        mc = hk.MonteCarloConfig(paths=8, dt=0.1, seed=1)
        budget = 1 << 20
        monkeypatch.setattr(sim, "_RECORD_BYTES", budget)

        def peak(resolution):
            m = finance.to_control_model(merton_market, resolution)
            tracemalloc.start()
            try:
                hk.estimate_kappa(m, 2, 1.0, mc)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak((21, 21)) <= peak((3, 3)) + 4 * budget

    def test_excluded_paths_raise(self):
        # y^3 drift blows up 226 of 400 paths: the budget applies here as
        # it does to estimate_value, not an average over the survivors
        m = hk.ControlModel(
            dim=1, drift=lambda y, d: np.asarray(y, float) ** 3,
            discount_rate=lambda y, d: np.full(np.asarray(y).shape[:-1], -1.0),
            running_reward=lambda y, d: np.ones(np.asarray(y).shape[:-1]),
            terminal_reward=lambda y: np.ones(np.asarray(y).shape[:-1]),
            controls=np.array([[0.0]]), lip_L1=1.0, lip_L2=1.0)
        mc = hk.MonteCarloConfig(paths=400, dt=0.05, seed=0)
        with pytest.raises(PathExclusionError) as exc:
            hk.estimate_kappa(m, 0, 2.0, mc)
        assert (exc.value.excluded, exc.value.total) == (226, 400)


def test_constant_policies_cover_control_list():
    m = ou_model()
    fam = hk.constant_policies(m)
    assert len(fam) == len(m.controls)
    for pol, delta in zip(fam, m.controls):
        out = pol(np.zeros((4, 1)), 0.0)
        assert np.array_equal(np.broadcast_to(out, (4, 1)),
                              np.broadcast_to(delta, (4, 1)))


class TestLoadModel:
    def test_round_trip_evaluation(self):
        doc = {
            "dim": 1,
            "controls": [[0.0], [1.0]],
            "drift": {"kind": "affine", "const": 0.5, "y_matrix": [[-1.0]],
                      "delta_matrix": [[1.0]]},
            "discount_rate": {"kind": "affine", "const": -2.0,
                              "y_coeff": [1.0]},
            "running_reward": {"kind": "quadratic_delta", "const": 1.0,
                               "delta_quad": [-1.0]},
            "terminal_reward": {"kind": "constant", "value": 0.25},
            "L1": 1.0,
            "L2": -1.0,
        }
        m = hk.load_model(doc)
        y = np.array([[2.0]])
        assert np.allclose(m.drift(y, np.array([1.0])), [[-0.5]])
        assert m.discount_rate(y, m.controls[0]) == pytest.approx([0.0])
        assert m.running_reward(y, np.array([1.0])) == pytest.approx([0.0])
        assert m.terminal_reward(y) == pytest.approx([0.25])
        assert m.lip_L1 == 1.0 and m.lip_L2 == -1.0

    def test_file_fixture(self):
        m = hk.load_model(__file__.rsplit("/", 1)[0] + "/data/ou_model.json")
        assert m.dim == 1
        assert len(m.controls) == 3
        rep = hk.check_assumption1(m, m.domain_box, samples=64, seed=0)
        assert rep.passed

    def test_path_and_open_file(self):
        path = pathlib.Path(__file__).parent / "data" / "ou_model.json"
        with open(path) as fh:
            models = [hk.load_model(path), hk.load_model(fh),
                      hk.load_model(str(path))]
        y = np.linspace(-2.0, 2.0, 9)[:, None]
        for m in models:
            assert np.array_equal(m.controls, models[-1].controls)
            assert np.array_equal(m.drift(y, m.controls[1]),
                                  models[-1].drift(y, m.controls[1]))

    @pytest.mark.parametrize("key, desc, bad", [
        ("drift", {"kind": "affine", "y_matrix": [[-1.0], [0.0]]}, "y_matrix"),
        ("drift", {"kind": "affine", "delta_matrix": [[1.0]]}, "delta_matrix"),
        ("drift", {"kind": "components", "components": [
            {"kind": "affine", "delta_coeff": [1.0, 0.0, 0.0]}]}, "delta_coeff"),
        ("discount_rate", {"kind": "affine", "y_coeff": [1.0, 1.0]}, "y_coeff"),
        ("discount_rate", {"kind": "affine", "delta_coeff": [1.0]}, "delta_coeff"),
        ("running_reward", {"kind": "quadratic_delta", "delta_quad": [-1.0]},
         "delta_quad"),
    ])
    def test_coefficient_that_does_not_fit_dim_or_controls_rejected(self, key, desc,
                                                                     bad):
        # two control columns: a one-column delta_matrix would be broadcast
        # across both and sum them
        doc = json.loads((pathlib.Path(__file__).parent / "data"
                          / "ou_model.json").read_text())
        doc.update(controls=[[0.0, 1.0]], drift={
            "kind": "affine", "y_matrix": [[-1.0]], "delta_matrix": [[1.0, 0.0]]},
            running_reward={"kind": "constant", "value": 1.0})
        hk.load_model(doc)
        doc[key] = desc
        with pytest.raises(ParameterError, match=bad):
            hk.load_model(doc)

    @pytest.mark.parametrize("key, desc, bad", [
        ("running_reward", {"kind": "power_delta", "index": 1,
                            "exponent": 0.5}, "index 1"),
        ("running_reward", {"kind": "power_delta", "index": -1,
                            "exponent": 0.5}, "index -1"),
        ("drift", {"kind": "components", "components": [
            {"kind": "power_delta", "index": 2, "exponent": 1.0}]}, "index 2"),
        # the terminal reward is read at the control 0 alone
        ("terminal_reward", {"kind": "power_delta", "index": 1,
                             "exponent": 1.0}, "index 1"),
        ("discount_rate", {"kind": "tabulated", "y_grid": [0.0, 1.0],
                           "values": [[-1.0, -1.0]] * 2}, "control index 2"),
        ("terminal_reward", {"kind": "tabulated", "y_grid": [0.0, 1.0],
                             "values": []}, "control index 0"),
    ])
    def test_control_indexed_descriptor_checked_against_controls(self, key,
                                                                 desc, bad):
        # controls 0, 1 and 2 read table rows 0, 1 and 2
        doc = json.loads((pathlib.Path(__file__).parent / "data"
                          / "ou_model.json").read_text())
        doc["controls"] = [[0.0], [1.0], [2.0]]
        hk.load_model(doc)
        doc[key] = desc
        with pytest.raises(ParameterError, match=bad):
            hk.load_model(doc)

    def test_negative_control_has_no_table_row(self):
        doc = json.loads((pathlib.Path(__file__).parent / "data"
                          / "ou_model.json").read_text())
        doc.update(controls=[[-1.0], [0.0]], discount_rate={
            "kind": "tabulated", "y_grid": [0.0, 1.0],
            "values": [[-1.0, -1.0], [-2.0, -2.0]]})
        with pytest.raises(ParameterError, match="control index -1"):
            hk.load_model(doc)

    def test_unknown_kind_rejected(self):
        doc = {"dim": 1, "controls": [[0.0]],
               "drift": {"kind": "mystery"},
               "discount_rate": {"kind": "constant", "value": -1},
               "running_reward": {"kind": "constant", "value": 1},
               "terminal_reward": {"kind": "constant", "value": 0},
               "L1": 1.0, "L2": -1.0}
        with pytest.raises(ValueError):
            hk.load_model(doc)


def loop_screen(model, box, samples, seed):
    """The Assumption-1 screen with one coefficient call per control: the oracle."""
    box = np.asarray(box, float)
    rng = np.random.default_rng(seed)
    ya = rng.uniform(box[:, 0], box[:, 1], size=(samples, model.dim))
    yb = rng.uniform(box[:, 0], box[:, 1], size=(samples, model.dim))
    corners = np.array(np.meshgrid(*box, indexing="ij")).reshape(model.dim, -1).T
    ii, jj = np.triu_indices(len(corners), k=1)
    ya, yb = np.vstack([ya, corners[ii]]), np.vstack([yb, corners[jj]])
    dist = np.linalg.norm(ya - yb, axis=-1)
    keep = dist > 0
    ya, yb, dist = ya[keep], yb[keep], dist[keep]
    L1, L2 = model.lip_L1, model.lip_L2
    ratios, witnesses = {}, {}

    def record(name, ratio, delta=None):
        j = int(np.argmax(ratio))
        if name not in ratios or ratio[j] > ratios[name]:
            ratios[name] = float(ratio[j])
            witnesses[name] = {"coefficient": name, "y": ya[j].tolist(),
                               "y_bar": yb[j].tolist(),
                               "delta": None if delta is None else delta.tolist(),
                               "ratio": float(ratio[j])}

    g = model.terminal_reward
    record("terminal_reward", np.abs(g(ya) - g(yb)) / (L1 * dist))
    for delta in model.controls:
        for name in ("running_reward", "discount_rate"):
            c = getattr(model, name)
            record(name, np.abs(c(ya, delta) - c(yb, delta)) / (L1 * dist), delta)
        s = np.sum((ya - yb) * (model.drift(ya, delta) - model.drift(yb, delta)),
                   axis=-1) / dist ** 2
        record("drift", s / L2 if L2 > 0 else 2.0 - s / L2, delta)
    worst = max(ratios, key=ratios.get)
    return hk.AssumptionReport(passed=bool(ratios[worst] <= 1.0 + 1e-9),
                               worst_ratio=ratios[worst],
                               witness=witnesses[worst], ratios=ratios)


class TestScreenOracle:
    @settings(max_examples=200, deadline=None)
    @given(model=family_models(), samples=st.integers(2, 40),
           seed=st.integers(0, 2 ** 16), budget=st.integers(1, 400))
    def test_screen_equals_per_control_loop(self, model, samples, seed, budget):
        box = [[-2.0, 2.5]] * model.dim
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(model_mod, "_SCREEN_ROWS", budget)  # blocks of controls
            report = hk.check_assumption1(model, box, samples, seed)
        assert report == loop_screen(model, box, samples, seed)

    def test_witness_is_first_control_reaching_the_maximum(self):
        # reward |y| against L1 = 0.5: every control and every same-sign
        # pair reaches the ratio 2 exactly, so control 0 is the witness
        m = ou_model(controls=[[1.0], [0.0], [0.5]])
        flat = dataclasses.replace(m, lip_L1=0.5, running_reward=lambda y, d:
                                   np.abs(np.asarray(y, float)[..., 0])
                                   + 0.0 * np.asarray(d, float)[..., 0])
        for budget in (1, 130, model_mod._SCREEN_ROWS):  # 1, 1 and 3 per block
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(model_mod, "_SCREEN_ROWS", budget)
                rep = hk.check_assumption1(flat, [[-3, 3]], samples=64, seed=3)
            assert rep.worst_ratio == 2.0
            assert rep.witness["coefficient"] == "running_reward"
            assert rep.witness["delta"] == [1.0]
            assert rep == loop_screen(flat, [[-3, 3]], 64, 3)

    def test_screen_calls_cover_every_row_in_bounded_blocks(self, merton_market):
        m = finance.to_control_model(merton_market, (21, 21))
        rows = {"drift": [], "discount_rate": [], "running_reward": []}

        def counted(name):
            fn = getattr(m, name)
            return lambda y, d: rows[name].append(len(y)) or fn(y, d)

        spied = dataclasses.replace(m, **{n: counted(n) for n in rows})
        hk.check_assumption1(spied, [[-5.0, 5.0]], samples=128, seed=0)
        per_block = model_mod._SCREEN_ROWS // (2 * 129)  # 128 pairs + corners
        for sizes in rows.values():
            # both sides of every (control, pair) once, 15 calls not 882
            assert sum(sizes) == 441 * 2 * 129
            assert max(sizes) <= model_mod._SCREEN_ROWS
            assert len(sizes) == -(-441 // per_block)

    def test_screen_memory_flat_in_control_count(self, merton_market):
        def peak(resolution):
            m = finance.to_control_model(merton_market, resolution)
            tracemalloc.start()
            try:
                hk.check_assumption1(m, [[-5.0, 5.0]], samples=128, seed=0)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        # one (441 x 2 x 129)-row table would add about 5 MB
        assert peak((21, 21)) <= peak((3, 3)) + (1 << 21)
