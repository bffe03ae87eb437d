import numpy as np
import pytest

import matchctl.fields as fl
from conftest import free_particle, random_shaping, random_state, random_system, sm_shaping
from matchctl.control import GainSelection, cartpole_closed_loop, cartpole_shaping
from matchctl.helmholtz import (exactness_residuals, explicit_helmholtz_residuals,
                                implicit_helmholtz_residuals, legendre_fn,
                                multiplier_from_shaping, sode_tensors)
from matchctl.lagrangian import (ExplicitSode, ImplicitSode, ShapingParams,
                                 controlled_implicit_sode, scalar_sigma_matrix,
                                 solve_accel, uncontrolled_sode)
from matchctl.model import Dims, State

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
    field = ExplicitSode(1, lambda q, qd: [-1.0 * q[0]])
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
    def gamma(q, qd):
        from matchctl.jets import cos, sin
        return [-1.0 * sin(q[0]) * cos(q[1]), -1.0 * cos(q[0]) * sin(q[1])]

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


def test_implicit_off_shell_entry_point(cartpole, reference_params):
    shp = cartpole_shaping(reference_params, GainSelection(k=35.0, sigma=1.0))
    field = controlled_implicit_sode(cartpole, shp)
    F = legendre_fn(cartpole, shp)
    st = State(q=[0.2, 0.0], qdot=[0.5, 0.5])
    rep = implicit_helmholtz_residuals(field, F, st, cartpole.dims,
                                       accel=np.array([0.1, 0.2]))
    assert rep.entry("BB_alpha_beta").value < 1e-12
