import dataclasses
import hashlib

import numpy as np
import pytest

import matchctl.fields as fl
from conftest import free_particle, random_shaping, random_state, random_system, sm_shaping
from matchctl.control import (GainSelection, cartpole_closed_loop, cartpole_shaping,
                              incline_shaping)
from matchctl.helmholtz import (exactness_residuals, explicit_helmholtz_residuals,
                                implicit_helmholtz_residuals, legendre_fn,
                                multiplier_from_shaping, sode_tensors)
from matchctl.jets import value_grad_hess
from matchctl.lagrangian import (ExplicitSode, ImplicitSode, ShapingParams,
                                 SingularBlockError, controlled_implicit_sode,
                                 scalar_sigma_matrix, solve_accel, uncontrolled_sode)
from matchctl.matching import sm3_tau
from matchctl.model import (CartpoleParams, Dims, InclineParams, State, cartpole_system,
                            incline_system, synthetic_sm_system)
from matchctl.report import ResidualReport

IDENT_CLASSES = ("BB_ab", "BB_a_beta", "BB_alpha_beta", "AB_ab", "AB_a_beta", "AA_ab")


# ---------------------------------------------------------------------------
# field tensors
# ---------------------------------------------------------------------------

def test_tensors_free_particle():
    field = uncontrolled_sode(free_particle()).to_explicit()
    t = sode_tensors(field, State(q=[0.2, 0.1], qdot=[0.5, -0.5]))
    assert np.abs(t.nabla).max() == 0.0
    assert np.abs(t.jacobi).max() == 0.0


def test_tensors_harmonic_oscillator():
    field = ExplicitSode(1, lambda x, xd: [-1.0 * x])
    t = sode_tensors(field, State(q=[0.7], qdot=[0.3]))
    assert t.jacobi[0, 0] == pytest.approx(2.0, abs=1e-12)
    assert t.nabla[0, 0] == 0.0


def test_tensors_cartpole_douglas_entry(reference_params):
    # the shape-shape entry is the nonzero witness; group columns vanish
    # because the closed loop does not depend on the group point or velocity
    loop = cartpole_closed_loop(reference_params, GainSelection(k=35.0, sigma=1.0))
    t = sode_tensors(loop, State(q=[0.2, 0.0], qdot=[0.1, 0.0]))
    norm = max(1.0, np.abs(t.jacobi).max())
    assert abs(t.jacobi[0, 0]) / norm > 1e-6
    assert np.abs(t.jacobi[:, 1]).max() == 0.0


# ---------------------------------------------------------------------------
# explicit multiplier conditions
# ---------------------------------------------------------------------------

def test_explicit_gradient_system_identity_multiplier():
    # qdd = -grad V(q) with the identity multiplier solves every condition
    def gamma(x, y, xd, yd):
        from matchctl.jets import cos, sin
        return [-1.0 * sin(x) * cos(y), -1.0 * cos(x) * sin(y)]

    field = ExplicitSode(2, gamma)

    def ident(q, qd):
        return [[1.0, 0.0], [0.0, 1.0]]

    rep = explicit_helmholtz_residuals(field, ident, State(q=[0.4, -0.3], qdot=[0.8, 0.2]))
    assert rep.overall_pass
    assert rep.max_value() < 1e-12


def test_explicit_cartpole_shaped_multiplier(reference_params, cartpole):
    gains = GainSelection(k=35.0, sigma=1.0)
    shp = cartpole_shaping(reference_params, gains)
    loop = cartpole_closed_loop(reference_params, gains)
    mult = multiplier_from_shaping(cartpole, shp)
    rng = np.random.default_rng(5)
    for _ in range(10):
        st = State(q=[rng.uniform(-1.3, 1.3), rng.uniform(-1, 1)],
                   qdot=rng.uniform(-5, 5, 2))
        rep = explicit_helmholtz_residuals(loop, mult, st)
        assert rep.overall_pass, str(rep)
        assert rep.max_value() < 1e-8


def test_explicit_identity_multiplier_fails_on_cartpole(reference_params):
    loop = cartpole_closed_loop(reference_params, GainSelection(k=35.0, sigma=1.0))

    def ident(q, qd):
        return [[1.0, 0.0], [0.0, 1.0]]

    st = State(q=[0.4, 0.0], qdot=[0.6, -0.2])
    rep = explicit_helmholtz_residuals(loop, ident, st)
    assert not rep.entry("metric_transport").passed
    # the independent difference path confirms the residual is genuine
    rep_fd = explicit_helmholtz_residuals(loop, ident, st, backend="fd")
    assert not rep_fd.entry("metric_transport").passed
    assert rep_fd.entry("metric_transport").value == pytest.approx(
        rep.entry("metric_transport").value, rel=1e-5)


# ---------------------------------------------------------------------------
# exactness conditions
# ---------------------------------------------------------------------------

def test_exactness_variational_covector(cartpole):
    field = uncontrolled_sode(cartpole)
    st = State(q=[0.5, 0.2], qdot=[0.8, -0.3])
    on_shell = solve_accel(field, st)
    rep = exactness_residuals(field, st, on_shell)
    assert rep.overall_pass and rep.max_value() < 1e-9
    off_shell = on_shell + np.array([0.4, -0.2])
    rep2 = exactness_residuals(field, st, off_shell)
    assert rep2.overall_pass and rep2.max_value() < 1e-9


def test_exactness_cross_term_fails():
    field = ImplicitSode(2, lambda q, qd, qdd: [qdd[0] - qd[1], qdd[1]],
                         lambda q: [[1.0, 0.0], [0.0, 1.0]])
    st = State(q=[0.1, 0.2], qdot=[0.3, 0.1])
    rep = exactness_residuals(field, st, field.solve_accel(st))
    assert rep.entry("accel_symmetry").value < 1e-14
    assert rep.entry("position_exactness").value < 1e-14
    assert not rep.entry("velocity_exactness").passed


def test_exactness_residual_homogeneity():
    base = ImplicitSode(2, lambda q, qd, qdd: [qdd[0] - qd[1], qdd[1]],
                        lambda q: [[1.0, 0.0], [0.0, 1.0]])
    doubled = ImplicitSode(2, lambda q, qd, qdd: [2.0 * (qdd[0] - qd[1]), 2.0 * qdd[1]],
                           lambda q: [[2.0, 0.0], [0.0, 2.0]])
    st = State(q=[0.05, 0.1], qdot=[0.2, 0.1])
    acc = base.solve_accel(st)
    r1 = exactness_residuals(base, st, acc).entry("velocity_exactness").raw
    r2 = exactness_residuals(doubled, st, acc).entry("velocity_exactness").raw
    assert r2 == pytest.approx(2.0 * r1, rel=1e-12)


# ---------------------------------------------------------------------------
# implicit conditions
# ---------------------------------------------------------------------------

def test_implicit_free_particle():
    sys_ = free_particle()
    field = uncontrolled_sode(sys_)
    F = legendre_fn(sys_, ShapingParams.zero(sys_.dims))
    rep = implicit_helmholtz_residuals(field, F, State(q=[0.3, 0.1], qdot=[0.4, 0.5]),
                                       sys_.dims)
    assert rep.overall_pass and rep.max_value() == 0.0


def test_implicit_cartpole_new_tau(reference_params, cartpole):
    gains = GainSelection(k=35.0, sigma=1.0)
    shp = cartpole_shaping(reference_params, gains)
    field = controlled_implicit_sode(cartpole, shp)
    F = legendre_fn(cartpole, shp)
    rng = np.random.default_rng(11)
    for _ in range(10):
        st = State(q=[rng.uniform(-1.3, 1.3), rng.uniform(-1, 1)],
                   qdot=rng.uniform(-5, 5, 2))
        rep = implicit_helmholtz_residuals(field, F, st, cartpole.dims)
        assert rep.overall_pass, str(rep)


def test_implicit_detects_non_matching_tau(cartpole):
    # tau(x) = const * x does not solve the shaping ODE
    tau = ((0.5 * fl.coordinate(0, 1),),)
    shp = ShapingParams(tau=tau, sigma=scalar_sigma_matrix(cartpole, 1.0))
    field = controlled_implicit_sode(cartpole, shp)
    F = legendre_fn(cartpole, shp)
    st = State(q=[0.6, 0.0], qdot=[0.9, -0.5])
    rep = implicit_helmholtz_residuals(field, F, st, cartpole.dims)
    assert rep.entry("AB_alpha_beta").value > 1e-3
    # the identically-vanishing classes stay identically zero
    for name in IDENT_CLASSES:
        entry = rep.entry(name)
        assert entry.skipped or entry.value < 1e-12


@pytest.mark.parametrize("seed", range(6))
def test_implicit_variational_family(seed):
    # multipliers and covectors of a regular mechanical Lagrangian solve
    # every family (three or fewer coordinates)
    dims = Dims(1, 2) if seed % 3 else Dims(2, 1)
    sys_ = random_system(seed + 31, dims, const_group=False)
    shp = ShapingParams.zero(dims)
    field = uncontrolled_sode(sys_)
    F = legendre_fn(sys_, shp)
    mult = multiplier_from_shaping(sys_, shp)
    st = random_state(seed + 77, dims)
    rep = implicit_helmholtz_residuals(field, F, st, dims)
    assert rep.max_value() < 1e-9, str(rep)
    rep2 = explicit_helmholtz_residuals(field.to_explicit(), mult, st)
    assert rep2.max_value() < 1e-9, str(rep2)
    acc = solve_accel(field, st)
    rep3 = exactness_residuals(field, st, acc)
    assert rep3.max_value() < 1e-9, str(rep3)


@pytest.mark.parametrize("seed", range(5))
def test_identically_vanishing_classes_any_shaping(seed):
    dims = Dims(1, 2) if seed % 2 else Dims(2, 1)
    sys_ = random_system(seed + 41, dims, const_group=False)
    shp = random_shaping(seed + 13, sys_)
    field = controlled_implicit_sode(sys_, shp)
    F = legendre_fn(sys_, shp)
    st = random_state(seed + 7, dims)
    rep = implicit_helmholtz_residuals(field, F, st, dims)
    for name in IDENT_CLASSES:
        entry = rep.entry(name)
        assert entry.skipped or entry.value < 1e-9, f"{name}: {entry.value}"
    aa_ab = rep.entry("AA_alpha_b")
    assert aa_ab.skipped or aa_ab.value < 1e-9


@pytest.mark.parametrize("seed", range(4))
def test_one_underactuation_extra_vanishing(seed):
    # one shape coordinate and constant group block: the shape-group block of
    # the second family vanishes for any tau
    dims = Dims(1, 2)
    sys_ = random_system(seed + 90, dims, const_group=True)
    shp = random_shaping(seed + 17, sys_)
    field = controlled_implicit_sode(sys_, shp)
    F = legendre_fn(sys_, shp)
    st = random_state(seed + 3, dims)
    rep = implicit_helmholtz_residuals(field, F, st, dims)
    assert rep.entry("AB_alpha_b").value < 1e-9
    assert rep.entry("AA_alpha_beta").skipped   # void with one shape coordinate


def test_sm_system_fullmatching_residuals():
    sys_, shp = sm_shaping(5, Dims(1, 2))
    field = controlled_implicit_sode(sys_, shp)
    F = legendre_fn(sys_, shp)
    st = random_state(123, sys_.dims)
    rep = implicit_helmholtz_residuals(field, F, st, sys_.dims)
    assert rep.overall_pass and rep.max_value() < 1e-9


def test_backend_agreement(reference_params, cartpole):
    gains = GainSelection(k=35.0, sigma=1.0)
    shp = cartpole_shaping(reference_params, gains)
    field = controlled_implicit_sode(cartpole, shp)
    F = legendre_fn(cartpole, shp)
    st = State(q=[0.7, 0.3], qdot=[1.4, -2.0])
    jet = implicit_helmholtz_residuals(field, F, st, cartpole.dims)
    fd = implicit_helmholtz_residuals(field, F, st, cartpole.dims, backend="fd")
    for ej, ef in zip(jet.entries, fd.entries):
        if ej.skipped:
            continue
        assert abs(ej.value - ef.value) <= 1e-5 * max(1.0, ej.value, ef.value)


def test_unknown_backend_is_named(reference_params, cartpole):
    shp = cartpole_shaping(reference_params, GainSelection(k=35.0, sigma=1.0))
    field = controlled_implicit_sode(cartpole, shp)
    F = legendre_fn(cartpole, shp)
    st = State(q=[0.7, 0.3], qdot=[1.4, -2.0])
    with pytest.raises(ValueError, match="unknown backend: sympy"):
        implicit_helmholtz_residuals(field, F, st, cartpole.dims, backend="sympy")


def test_implicit_off_shell_entry_point(cartpole, reference_params):
    shp = cartpole_shaping(reference_params, GainSelection(k=35.0, sigma=1.0))
    field = controlled_implicit_sode(cartpole, shp)
    F = legendre_fn(cartpole, shp)
    st = State(q=[0.2, 0.0], qdot=[0.5, 0.5])
    rep = implicit_helmholtz_residuals(field, F, st, cartpole.dims,
                                       accel=np.array([0.1, 0.2]))
    assert rep.entry("BB_alpha_beta").value < 1e-12


# ---------------------------------------------------------------------------
# recorded per-state reports
# ---------------------------------------------------------------------------

def helmholtz_case(name: str):
    """(system, shaping, states) of a recorded case: the shipped cart-pole,
    the incline with rho = 2 and its extra potential, and builtin systems."""
    if name == "cartpole":
        p = CartpoleParams(m=0.14, M=0.44, l=0.215, grav=9.81)
        sys_, shp = cartpole_system(p), cartpole_shaping(p, GainSelection(k=35.0, sigma=1.0))
    elif name == "incline":
        p = InclineParams(m=0.14, M=0.44, l=0.215, grav=9.81, psi=0.3)
        gains = GainSelection(k=35.0, sigma=1.0, rho=2.0, c=6.0, s0=0.0)
        sys_, shp = incline_system(p), incline_shaping(p, gains)
    else:
        dims = Dims(int(name[-2]), int(name[-1]))
        sys_, sigma = synthetic_sm_system(1, dims)
        shp = ShapingParams(tau=sm3_tau(sys_, sigma), sigma=scalar_sigma_matrix(sys_, sigma))
    states = [random_state(seed, sys_.dims, v_max=5.0) for seed in range(3)]
    return sys_, shp, states


def helmholtz_reports(name: str):
    """The implicit, explicit and exactness reports at each state of a case."""
    sys_, shp, states = helmholtz_case(name)
    field = controlled_implicit_sode(sys_, shp)
    F, mult, explicit = legendre_fn(sys_, shp), multiplier_from_shaping(sys_, shp), \
        field.to_explicit()
    for st in states:
        yield implicit_helmholtz_residuals(field, F, st, sys_.dims)
        yield explicit_helmholtz_residuals(explicit, mult, st)
        yield exactness_residuals(field, st, field.solve_accel(st))


def entry_key(e):
    # repr keeps NaN equal to NaN and tells a numpy float from a Python one
    return repr(dataclasses.astuple(e))


# sha256 of the reports of the three engines at every state of each case,
# recorded with the engines that assembled each residual pair by pair
HELMHOLTZ_REPORT_DIGESTS = {
    "cartpole": "48608a425d351f2e45b4ec8d21d41df48d65622bbc5478cc2e433bf6d9054d42",
    "incline": "e5238aefcb30e0af0fcb1fac4951978b6e1d02420c71264ae4129ce10be8dbf4",
    "builtin12": "bb6d749f17a9880e30e8232c87210f22c31a679bcf1617eb89c469faa4c5ccf3",
    "builtin21": "51aed344b8961e51144c7dde566926e5663d874918faf7bb2ba394c29cc3e1ed",
}


@pytest.mark.parametrize("case", list(HELMHOLTZ_REPORT_DIGESTS))
def test_helmholtz_reports_match_recorded_digests(case):
    h = hashlib.sha256()
    for rep in helmholtz_reports(case):
        h.update(rep.title.encode())
        for e in rep.entries:
            h.update(entry_key(e).encode())
    assert h.hexdigest() == HELMHOLTZ_REPORT_DIGESTS[case]


# at four coordinates the summation order of the array assembly moves some
# values by ulps, so only the entry names, skips and verdicts are recorded
REPORT_NAMES = {
    "implicit conditions": ["BB_ab", "BB_a_beta", "BB_alpha_beta", "AB_ab", "AB_a_beta",
                            "AB_alpha_b", "AB_alpha_beta", "AA_ab", "AA_alpha_b",
                            "AA_alpha_beta"],
    "explicit multiplier conditions": ["symmetry", "velocity_symmetry", "metric_transport",
                                       "jacobi_symmetry", "regularity"],
    "exactness conditions": ["accel_symmetry", "position_exactness", "velocity_exactness"],
}
HELMHOLTZ_REPORT_VERDICTS = {       # (skipped, failed) at every state
    "builtin22": (set(), {"accel_symmetry", "velocity_exactness"}),
    "builtin31": ({"AA_ab"}, {"accel_symmetry", "velocity_exactness"}),
}


@pytest.mark.parametrize("case", list(HELMHOLTZ_REPORT_VERDICTS))
def test_helmholtz_report_verdicts_match_recorded(case):
    skipped, failed = HELMHOLTZ_REPORT_VERDICTS[case]
    for rep in helmholtz_reports(case):
        names = REPORT_NAMES[rep.title]
        assert [e.name for e in rep.entries] == names
        assert {e.name for e in rep.entries if e.skipped} == skipped & set(names)
        assert {e.name for e in rep.entries if not e.passed} == failed & set(names)


# ---------------------------------------------------------------------------
# N states in one pass
# ---------------------------------------------------------------------------

def batch_and_merged_reports(name: str, n_states: int = 6):
    """(batched report, merge of the one-state reports) of each engine at the
    states of a case and a few more, with the batch's accelerations and
    tensors against the one-state ones."""
    sys_, shp, states = helmholtz_case(name)
    states += [random_state(seed, sys_.dims, v_max=5.0) for seed in range(50, 50 + n_states - 3)]
    batch = State(q=np.array([st.q for st in states]), qdot=np.array([st.qdot for st in states]))
    field = controlled_implicit_sode(sys_, shp)
    F, mult, explicit = legendre_fn(sys_, shp), multiplier_from_shaping(sys_, shp), \
        field.to_explicit()
    acc = solve_accel(field, batch)
    one_acc = [solve_accel(field, st) for st in states]
    assert acc.shape == (len(states), sys_.dims.total) and acc.flags.c_contiguous
    assert acc.tobytes() == np.array(one_acc).tobytes()
    tens = sode_tensors(explicit, batch)
    for k, st in enumerate(states):
        one = sode_tensors(explicit, st)
        for a, b in ((tens.gamma, one.gamma), (tens.nabla, one.nabla),
                     (tens.jacobi, one.jacobi)):
            assert a[k].tobytes() == b.tobytes()
    engines = (lambda st, a: implicit_helmholtz_residuals(field, F, st, sys_.dims),
               lambda st, a: explicit_helmholtz_residuals(explicit, mult, st),
               lambda st, a: exactness_residuals(field, st, a))
    for engine in engines:
        batched = engine(batch, acc)
        yield batched, ResidualReport.merge_max(batched.title, [
            engine(st, a) for st, a in zip(states, one_acc)])


@pytest.mark.parametrize("case", list(HELMHOLTZ_REPORT_DIGESTS) + list(HELMHOLTZ_REPORT_VERDICTS))
def test_batch_report_equals_merge_of_state_reports(case):
    # bit for bit where the one-state reports are recorded bit for bit (up to
    # three coordinates), verdict for verdict where they are recorded so
    for batched, merged in batch_and_merged_reports(case):
        assert batched.title == merged.title
        if case in HELMHOLTZ_REPORT_DIGESTS:
            assert [entry_key(e) for e in batched.entries] == \
                [entry_key(e) for e in merged.entries]
        else:
            assert [(e.name, e.skipped, e.passed) for e in batched.entries] == \
                [(e.name, e.skipped, e.passed) for e in merged.entries]


@pytest.mark.parametrize("case", ["cartpole", "incline", "builtin12"])
def test_engines_read_no_third_derivative(case):
    # `fields.gradient` leaves the field's third derivatives NaN: they enter
    # only the q-q Hessian blocks of Phi and Gamma, and the engines read the
    # qd and qdd rows of Phi over (q, qd, qdd) and the qd rows of Gamma
    sys_, shp, states = helmholtz_case(case)
    n = sys_.dims.total
    batch = State(q=np.array([st.q for st in states]), qdot=np.array([st.qdot for st in states]))
    field = controlled_implicit_sode(sys_, shp)
    explicit = field.to_explicit()
    U = np.concatenate([batch.q, batch.qdot, solve_accel(field, batch)], axis=-1).T
    _, _, hP = value_grad_hess(lambda u: field.phi(u[:n], u[n:2 * n], u[2 * n:]), U)
    _, _, hG = value_grad_hess(lambda u: explicit.gamma(*u), U[:2 * n])
    for hess in (hP, hG):
        assert np.isfinite(hess[:, n:]).all() and np.isfinite(hess[:, :, n:]).all()
        assert np.isnan(hess[:, :n, :n]).all()


def test_singular_accel_matrix_names_its_state():
    # C = diag(q0, 1) is singular at the third state only
    field = ImplicitSode(2, lambda q, qd, qdd: [q[0] * qdd[0] + qd[1], qdd[1] - q[1]],
                         lambda q: [[q[0], 0.0], [0.0, 1.0]])
    q = np.array([[0.5, 0.1], [-0.3, 0.2], [0.0, 0.3], [0.7, 0.0]])
    batch = State(q=q, qdot=np.full((4, 2), 0.4))
    F = lambda q, qd: [qd[0], qd[1]]
    for call in (lambda: solve_accel(field, batch),
                 lambda: implicit_helmholtz_residuals(field, F, batch, Dims(1, 1),
                                                      accel=np.zeros((4, 2)))):
        with pytest.raises(SingularBlockError, match="at point 2 of the batch") as info:
            call()
        assert info.value.block == "C" and info.value.point == 2
