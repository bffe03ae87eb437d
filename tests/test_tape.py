"""The float tape of `jets.record` and the taped float path of the generic
closed loop (`ImplicitSode.to_explicit`)."""

import math
import operator

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import matchctl.fields as fl
import matchctl.lagrangian as lg
from conftest import sm_shaping
from matchctl import jets
from matchctl.cli import main
from matchctl.fields import SmoothField
from matchctl.jets import Untapeable, record
from matchctl.lagrangian import ShapingParams, controlled_implicit_sode
from matchctl.model import Dims, build_mechanical_system


@pytest.mark.parametrize("step", [
    float, int, bool, operator.index, np.asarray, math.isfinite,
    lambda v: v == 0.0, lambda v: v != 0.0, lambda v: v < 1.0, lambda v: 1.0 <= v,
    lambda v: v > 0.0, lambda v: v >= 0.0,
], ids=["float", "int", "bool", "index", "asarray", "isfinite",
        "eq", "ne", "lt", "le", "gt", "ge"])
def test_var_refuses_value_dependent_steps(step):
    with pytest.raises(Untapeable):
        record(lambda u: [step(u[0])], 1)


def test_record_replays_the_floats_of_the_function():
    def fn(u):
        x, y = u
        a = jets.sin(x) * 2.0 - y / 3.0 + np.float64(0.1) * x
        b = -(x ** 3) + 2.0 ** y + jets.exp(y) / jets.sqrt(jets.cos(x) + 2.0)
        return [a, b, jets.log(3.0 - jets.sin(y)), 1.5, x * math.inf, -0.0]

    taped = record(fn, 2)
    for x, y in [(0.3, -1.2), (-2.5, 0.7), (1e-300, 3.0), (0.0, -0.0)]:
        assert np.array(taped(x, y)).tobytes() == np.array(fn([x, y])).tobytes()


@pytest.mark.parametrize("fn", [
    lambda u: [u[0] if u[0] > 0.0 else -u[0]],
    lambda u: [np.array([1.0, 2.0]) * u[0]],
    lambda u: [jets.Jet2(u[0], 1.0, 0.0)],
], ids=["branch", "array", "jet-output"])
def test_record_refuses_what_a_tape_cannot_hold(fn):
    with pytest.raises(Untapeable):
        record(fn, 1)


def test_taped_code_holds_only_floats_and_libm_names():
    # finite constants are float literals; non-finite ones are bound names
    taped = record(lambda u: [u[0] * math.inf + math.nan, jets.sin(u[0]) - 1e300], 1)
    code, bound = taped.__code__, taped.__globals__
    assert {type(c) for c in code.co_consts} <= {float, type(None)}
    consts = {name for name in code.co_names if type(bound[name]) is float}
    assert set(code.co_names) - consts == {"sin"} and len(consts) == 2
    assert not any(math.isfinite(bound[name]) for name in consts)
    out = taped(2.0)
    assert math.isnan(out[0]) and out[1] == math.sin(2.0) - 1e300


# ---------------------------------------------------------------------------
# the generic closed loop
# ---------------------------------------------------------------------------

_LOOPS: dict = {}


def builtin_loop(seed: int, n_group: int):
    key = seed, n_group
    if key not in _LOOPS:
        _LOOPS[key] = controlled_implicit_sode(*sm_shaping(seed, Dims(1, n_group))).to_explicit()
    return _LOOPS[key]


def outcome(fn):
    """The bytes of fn()'s floats, each NaN as one NaN, or the type of what it
    raised.  The sign of a NaN is not the code's to fix: CPython's float
    addition takes it from either NaN operand, depending on whether the
    instruction has been specialized (``a + b`` of NaNs of opposite signs
    changes sign after the first few calls of one function)."""
    try:
        out = np.array(fn(), dtype=float)
    except Exception as exc:        # noqa: BLE001 -- the type is the outcome
        return type(exc)
    return np.where(np.isnan(out), np.nan, out).tobytes()


_FINITE = st.floats(-4.0, 4.0)
_EXTREME = st.sampled_from([math.inf, -math.inf, math.nan, 1e300, -1e300, 0.0, -0.0])


@settings(max_examples=120, deadline=None)
@given(seed=st.integers(0, 3), n_group=st.integers(1, 4), data=st.data())
def test_taped_gamma_floats_are_the_generic_floats(seed, n_group, data):
    loop = builtin_loop(seed, n_group)
    n = 1 + n_group
    coords = st.lists(_FINITE, min_size=n, max_size=n)
    q, qd = data.draw(coords), data.draw(coords)
    assert outcome(lambda: loop.gamma_floats(q, qd)) == outcome(lambda: loop.gamma(q, qd))
    # states with inf, NaN or huge coordinates: the same bits or the same error
    coords = st.lists(st.one_of(_FINITE, _EXTREME), min_size=n, max_size=n)
    q, qd = data.draw(coords), data.draw(coords)
    assert outcome(lambda: loop.gamma_floats(q, qd)) == outcome(lambda: loop.gamma(q, qd))


def counted_records(monkeypatch) -> list:
    """Patch the recorder the explicit field calls; each call appends what it
    returned or the type of what it raised."""
    records = []

    def counted(*args):
        try:
            taped = record(*args)
        except Untapeable:
            records.append(Untapeable)
            raise
        records.append(taped)
        return taped

    monkeypatch.setattr(lg, "record", counted)
    return records


def _reciprocal_coupling_loop():
    # g_sg divides by a state-dependent jet, whose zero test a tape cannot make
    sys_ = build_mechanical_system(
        Dims(1, 1), [[fl.constant(2.0, 1)]],
        [[SmoothField(1, lambda u: 1.0 / (2.0 + u[0]))]], [[fl.constant(1.0, 1)]],
        SmoothField(2, lambda u: jets.cos(u[0]), support=(0,)))
    shp = ShapingParams(tau=((SmoothField(1, lambda u: 0.5 + 0.1 * u[0]),),), sigma=np.eye(1))
    return controlled_implicit_sode(sys_, shp).to_explicit()


@pytest.mark.parametrize("build", [
    lambda: controlled_implicit_sode(*sm_shaping(1, Dims(2, 1))).to_explicit(),
    lambda: controlled_implicit_sode(*sm_shaping(1, Dims(2, 2))).to_explicit(),
    _reciprocal_coupling_loop,
], ids=["builtin_2x1", "builtin_2x2", "reciprocal"])
def test_untapeable_loops_stay_generic_and_record_once(monkeypatch, build):
    records = counted_records(monkeypatch)
    loop = build()
    rng = np.random.default_rng(3)
    for _ in range(5):
        q, qd = rng.uniform(-1.0, 1.0, (2, loop.n)).tolist()
        assert loop.gamma_floats(q, qd).tobytes() == np.array(loop.gamma(q, qd)).tobytes()
    assert records == [Untapeable]


def test_taped_loop_calls_no_field_after_its_record(monkeypatch):
    sys_, shp = sm_shaping(2, Dims(1, 2))
    fields = {f for block in (sys_.g_ss, sys_.g_sg, sys_.g_gg, shp.tau, [[sys_.V]])
              for row in block for f in row if f.const is None}
    calls = []
    for f in fields:
        monkeypatch.setattr(f, "fn", lambda u, fn=f.fn: calls.append(fn) or fn(u))
    records = counted_records(monkeypatch)
    loop = controlled_implicit_sode(sys_, shp).to_explicit()
    assert not calls and not records
    loop.gamma_floats([0.3, -0.2, 0.5], [0.4, 1.0, -0.7])
    assert calls and len(records) == 1 and records[0] is not Untapeable
    calls.clear()
    for x in (0.1, -0.6, 0.9):
        loop.gamma_floats([x, 0.2, 0.1], [0.0, x, 1.0])
    assert calls == [] and len(records) == 1


def test_builtin_simulate_records_one_tape(tmp_path, capsys, monkeypatch):
    records = counted_records(monkeypatch)
    cfg = tmp_path / "bt.cfg"
    cfg.write_text(f"system = builtin-test\nsim.dt = 1e-2\nsim.t_end = 0.5\n"
                   f"sim.ic = 0.1, 0, 0, 0, 0, 0\nout.dir = {tmp_path / 'out'}\n")
    assert main(["simulate", "--config", str(cfg)]) == 0
    assert len(records) == 1 and records[0] is not Untapeable
