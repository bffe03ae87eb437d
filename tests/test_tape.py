"""The float tape of `jets.record` and the taped float path of the generic
closed loop (`ImplicitSode.to_explicit`)."""

import gc
import math
import operator
import os
import subprocess
import sys
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import matchctl.fields as fl
import matchctl.lagrangian as lg
from conftest import random_system, sm_shaping
from matchctl import jets
from matchctl.cli import main
from matchctl.fields import SmoothField
from matchctl.jets import Untapeable, record
from matchctl.lagrangian import ShapingParams, controlled_implicit_sode, scalar_sigma_matrix
from matchctl.matching import sm3_tau
from matchctl.model import Dims, build_mechanical_system


@pytest.mark.parametrize("step", [
    float, int, bool, operator.index, np.asarray, math.isfinite,
    lambda v: v == 0.0, lambda v: v != 0.0, lambda v: v < 1.0, lambda v: 1.0 <= v,
    lambda v: v > 0.0, lambda v: v >= 0.0, abs,
], ids=["float", "int", "bool", "index", "asarray", "isfinite",
        "eq", "ne", "lt", "le", "gt", "ge", "abs"])
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


def tape_lines(taped) -> int:
    """The lines of a compiled tape: one local per line beside the inputs."""
    code = taped.__code__
    return len(code.co_varnames) - code.co_argcount


def test_an_expression_taped_twice_is_one_line():
    def fn(u):
        return [u[0] * u[1] + 1.0, u[0] * u[1] + 1.0, jets.sin(u[0]) * jets.sin(u[0])]

    taped = record(fn, 2)
    assert tape_lines(taped) == 4      # the product, the sum, the sine, its square
    out = taped(0.7, -1.3)
    assert out[0] is out[1] and np.array(out).tobytes() == np.array(fn([0.7, -1.3])).tobytes()


def test_dead_arithmetic_lines_are_dropped():
    def fn(u):
        -((u[0] + u[1]) * u[0]) - 1.0      # four lines that no output reads
        return [u[1] * 2.0, u[0] - u[1]]

    taped = record(fn, 2)
    assert tape_lines(taped) == 2
    assert taped(0.25, -4.0) == tuple(fn([0.25, -4.0]))


@pytest.mark.parametrize("dead, at, error", [
    (lambda x: 1.0 / x, 0.0, ZeroDivisionError),
    (lambda x: x ** -1.0, 0.0, ZeroDivisionError),
    (jets.sqrt, -1.0, ValueError),
    (lambda x: jets.sqrt(x - 2.0) * 3.0, 1.0, ValueError),
    (lambda x: jets.log(x + x), 0.0, ValueError),
], ids=["div", "pow", "sqrt", "sqrt-of-sum", "log-of-sum"])
def test_dead_lines_that_can_raise_stay(dead, at, error):
    def fn(u):
        dead(u[0])
        return [u[1] + 1.0]

    taped = record(fn, 2)
    for raising in (lambda: fn([at, 2.0]), lambda: taped(at, 2.0)):
        with pytest.raises(error):
            raising()
    assert taped(3.0, 2.0) == (3.0,)


def test_negative_constants_keep_their_sign():
    def fn(u):
        return [(-2.0) ** u[0], -2.0 ** u[0], u[0] - -0.5, -0.0 * u[0], u[0] ** -1.0]

    taped = record(fn, 1)
    for x in (2.0, 3.0, -1.0):
        assert np.array(taped(x)).tobytes() == np.array(fn([x])).tobytes()


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
    assert outcome(lambda: loop.gamma_floats(q, qd)) == outcome(lambda: loop.gamma(*q, *qd))
    # states with inf, NaN or huge coordinates: the same bits or the same error
    coords = st.lists(st.one_of(_FINITE, _EXTREME), min_size=n, max_size=n)
    q, qd = data.draw(coords), data.draw(coords)
    assert outcome(lambda: loop.gamma_floats(q, qd)) == outcome(lambda: loop.gamma(*q, *qd))


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


def _pivoted_inverse_loop():
    # a g_gg that is not constant: the SM3 tau's inverse of it pivots on values
    sys_ = random_system(3, Dims(1, 2), const_group=False)
    shp = ShapingParams(tau=sm3_tau(sys_, 0.7), sigma=scalar_sigma_matrix(sys_, 1.3))
    return controlled_implicit_sode(sys_, shp).to_explicit()


@pytest.mark.parametrize("build", [
    lambda: controlled_implicit_sode(*sm_shaping(1, Dims(2, 1))).to_explicit(),
    lambda: controlled_implicit_sode(*sm_shaping(1, Dims(2, 2))).to_explicit(),
    _reciprocal_coupling_loop, _pivoted_inverse_loop,
], ids=["builtin_2x1", "builtin_2x2", "reciprocal", "pivoted_inverse"])
def test_untapeable_loops_stay_generic_and_record_once(monkeypatch, build):
    records = counted_records(monkeypatch)
    loop = build()
    rng = np.random.default_rng(3)
    for _ in range(5):
        q, qd = rng.uniform(-1.0, 1.0, (2, loop.n)).tolist()
        assert loop.gamma_floats(q, qd).tobytes() == np.array(loop.gamma(*q, *qd)).tobytes()
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


def test_dropped_taped_loop_is_freed_without_the_cycle_collector(monkeypatch):
    # the compiled tape is not in its own globals, so the loop is all that
    # keeps it: a dropped loop's tape goes as soon as the loop does
    tapes = []

    def recorded(*args):
        taped = record(*args)
        tapes.append(weakref.ref(taped))
        return taped

    monkeypatch.setattr(lg, "record", recorded)
    gc.disable()
    try:
        loop = controlled_implicit_sode(*sm_shaping(0, Dims(1, 2))).to_explicit()
        loop.gamma_floats([0.3, -0.2, 0.5], [0.4, 1.0, -0.7])
        assert len(tapes) == 1 and tapes[0]() is not None
        del loop
        assert tapes[0]() is None
    finally:
        gc.enable()


def test_record_frees_its_tape_without_the_cycle_collector(monkeypatch):
    # a Var holds its tape and the tape its Vars: the record breaks that
    # cycle, so the tape goes when record returns
    tapes = []

    class Watched(jets._Tape):
        def __init__(self):
            super().__init__()
            tapes.append(weakref.ref(self))

    monkeypatch.setattr(jets, "_Tape", Watched)
    gc.disable()
    try:
        taped = record(lambda u: [u[0] * u[1] + jets.sin(u[0])], 2)
        assert len(tapes) == 1 and tapes[0]() is None
    finally:
        gc.enable()
    assert taped(0.5, 2.0) == (0.5 * 2.0 + math.sin(0.5),)


def test_untapeable_record_frees_its_tape_without_the_cycle_collector(monkeypatch):
    # a record that raises Untapeable half-way has taped some lines: the
    # cycle is broken on that path too
    tapes = []

    class Watched(jets._Tape):
        def __init__(self):
            super().__init__()
            tapes.append(weakref.ref(self))

    monkeypatch.setattr(jets, "_Tape", Watched)
    gc.disable()
    try:
        with pytest.raises(jets.Untapeable):
            record(lambda u: [u[0] if u[0] * u[1] > 0.0 else u[1]], 2)
        assert len(tapes) == 1 and tapes[0]() is None
    finally:
        gc.enable()


def test_builtin_tape_is_short(monkeypatch):
    # shared expressions and dead arithmetic of the (1,2) pass: 195 lines recorded
    records = counted_records(monkeypatch)
    builtin = controlled_implicit_sode(*sm_shaping(0, Dims(1, 2))).to_explicit()
    builtin.gamma_floats([0.3, -0.2, 0.5], [0.4, 1.0, -0.7])
    assert len(records) == 1 and tape_lines(records[0]) <= 160


# ---------------------------------------------------------------------------
# the compiled float solver
# ---------------------------------------------------------------------------

def solved(fn):
    """The bytes of fn()'s floats, each NaN as one NaN, or the type and
    message of what it raised."""
    try:
        out = np.array(fn(), dtype=float)
    except Exception as exc:        # noqa: BLE001 -- the error is the outcome
        return type(exc), str(exc)
    return np.where(np.isnan(out), np.nan, out).tobytes()


def same_solution(A, b):
    n = len(b)
    compiled = solved(lambda: jets.float_solver(n)(*[v for row in A for v in row], *b))
    assert compiled == solved(lambda: jets.solve_generic(A, b))
    return compiled


_SPECIAL = st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324,
                            1e300, -1e300])


@settings(max_examples=200, deadline=None)
@given(n=st.integers(1, 5), data=st.data())
def test_float_solver_is_solve_generic(n, data):
    # a few magnitudes drawn once and signed at random make pivot ties
    pool = data.draw(st.lists(st.one_of(st.floats(), _SPECIAL), min_size=1, max_size=3))
    tied = st.sampled_from(pool).flatmap(lambda v: st.sampled_from([v, -v]))
    entry = st.one_of(st.floats(allow_nan=False, allow_infinity=False), _SPECIAL, tied)
    flat = data.draw(st.lists(entry, min_size=n * n + n, max_size=n * n + n))
    same_solution([flat[r * n:(r + 1) * n] for r in range(n)], flat[n * n:])


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_float_solver_raises_at_a_zero_pivot_of_each_column(n):
    singular = (ZeroDivisionError, "singular matrix in solve_generic")
    rng = np.random.default_rng(n)
    for col in range(n):
        # upper triangular, so elimination leaves column col as it is: -0.0
        # and +0.0 from the diagonal down
        A = np.triu(rng.uniform(-2.0, 2.0, (n, n)))
        A[col:, col] = [(-0.0, 0.0)[r % 2] for r in range(n - col)]
        assert same_solution(A.tolist(), rng.uniform(-1.0, 1.0, n).tolist()) == singular


@pytest.mark.parametrize("A, b", [
    ([[-0.0]], [1.0]),
    ([[-0.0, 1.0], [2.0, 3.0]], [1.0, -1.0]),
    ([[-0.0, 1.0], [0.0, 3.0]], [1.0, -1.0]),
    ([[-2.0, 1.0], [2.0, 5.0]], [1.0, -1.0]),
    ([[2.0, 1.0], [-2.0, 5.0]], [1.0, -1.0]),
    ([[1.0, 2.0, 3.0], [1.0, -0.0, 4.0], [-1.0, 0.0, 5.0]], [1.0, 2.0, 3.0]),
    ([[1.0, 2.0], [2.0, 4.0]], [1.0, -1.0]),
    ([[math.nan, 1.0], [2.0, 3.0]], [1.0, -1.0]),
    ([[1.0, 1.0], [math.nan, 3.0]], [1.0, -1.0]),
], ids=["neg-zero-1x1", "neg-zero-first", "both-zeros", "tie-first", "tie-second",
        "neg-zero-second-column", "dependent-rows", "nan-first", "nan-second"])
def test_float_solver_signed_zero_tie_and_nan_pivots(A, b):
    same_solution(A, b)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_float_solver_code_holds_only_names_abs_and_its_message(n):
    code = jets.float_solver(n).__code__
    assert set(code.co_names) == {"abs", "ZeroDivisionError"}
    assert {type(c) for c in code.co_consts} <= {int, float, str, type(None)}
    assert {c for c in code.co_consts if type(c) is float} == {0.0}
    assert {c for c in code.co_consts if type(c) is str} == {"singular matrix in solve_generic"}
    assert code.co_argcount == n * n + n


def test_solver_is_compiled_lazily_and_once(tmp_path, capsys):
    import matchctl

    src = os.path.dirname(os.path.dirname(matchctl.__file__))
    probe = ("import matchctl, matchctl.cli, matchctl.jets as j; "
             "print(j.float_solver.cache_info().currsize)")
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src), timeout=120)
    assert (done.returncode, done.stdout) == (0, "0\n"), done.stderr
    jets.float_solver.cache_clear()
    cfg = tmp_path / "bt.cfg"
    cfg.write_text(f"system = builtin-test\nsim.dt = 1e-2\nsim.t_end = 0.2\n"
                   f"sim.ic = 0.1, 0, 0, 0, 0, 0\nout.dir = {tmp_path / 'out'}\n")
    for _ in range(2):
        assert main(["simulate", "--config", str(cfg)]) == 0
    info = jets.float_solver.cache_info()
    assert (info.misses, info.hits, info.currsize) == (1, 1, 1)
