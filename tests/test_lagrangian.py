import hashlib
import math

import numpy as np
import pytest

import matchctl.fields as fl
from conftest import free_particle, random_shaping, random_state, random_system, sm_shaping
from matchctl.control import GainSelection, cartpole_shaping, position_feedback_control
from matchctl.jets import jet_vars
from matchctl.lagrangian import (ShapingParams, SingularBlockError,
                                 controlled_implicit_sode, controlled_lagrangian_generic,
                                 controlled_lagrangian_value, ctilde_and_block_inverse,
                                 el_residual, feedback_control, fw_identity_residuals,
                                 lagrangian_value, legendre_transform, scalar_sigma_matrix,
                                 solve_accel, uncontrolled_sode)
from matchctl.matching import new_tau_closed_form
from matchctl.model import (CartpoleParams, Dims, InclineParams, State, cartpole_system,
                            incline_system)


def fd_el_oracle(sys, state, accel, h=1e-5):
    """d/dt(dL/dqdot) - dL/dq by nested central differences of the Lagrangian."""
    n = sys.dims.total
    q, qd = state.q, state.qdot
    accel = np.asarray(accel, dtype=float)

    def dL_dqd(qq, vv, i):
        vp, vm = vv.copy(), vv.copy()
        vp[i] += h
        vm[i] -= h
        return (lagrangian_value(sys, State(q=qq, qdot=vp))
                - lagrangian_value(sys, State(q=qq, qdot=vm))) / (2 * h)

    out = np.zeros(n)
    for i in range(n):
        ddt = (dL_dqd(q + h * qd, qd + h * accel, i)
               - dL_dqd(q - h * qd, qd - h * accel, i)) / (2 * h)
        qp, qm = q.copy(), q.copy()
        qp[i] += h
        qm[i] -= h
        dq = (lagrangian_value(sys, State(q=qp, qdot=qd))
              - lagrangian_value(sys, State(q=qm, qdot=qd))) / (2 * h)
        out[i] = ddt - dq
    return out


# ---------------------------------------------------------------------------
# Lagrangian values
# ---------------------------------------------------------------------------

def test_free_particle_value():
    sys_ = free_particle()
    assert lagrangian_value(sys_, State(q=[0.0, 0.0], qdot=[1.0, 1.0])) == pytest.approx(1.0)


def test_cartpole_value_at_rest(reference_params, cartpole):
    st = State(q=[0.0, 0.3], qdot=[0.0, 0.0])
    assert lagrangian_value(cartpole, st) == pytest.approx(reference_params.d)


def test_cartpole_value_moving(reference_params, cartpole):
    # L = alpha/2 - V(0) = alpha/2 + d  (kinetic plus the value at the top)
    st = State(q=[0.0, 0.0], qdot=[1.0, 0.0])
    assert lagrangian_value(cartpole, st) == pytest.approx(
        0.5 * reference_params.alpha + reference_params.d)


# ---------------------------------------------------------------------------
# Euler-Lagrange covectors
# ---------------------------------------------------------------------------

def test_el_residual_free_particle():
    sys_ = free_particle()
    phi = el_residual(sys_, State(q=[0.1, 0.2], qdot=[0.3, 0.4]), [2.0, 3.0])
    assert np.allclose(phi, [2.0, 3.0])


def test_el_residual_cartpole_rest(reference_params, cartpole):
    st = State(q=[0.1, 0.0], qdot=[0.0, 0.0])
    phi = el_residual(cartpole, st, [0.0, 0.0])
    assert phi[0] == pytest.approx(reference_params.d * math.sin(0.1), abs=1e-14)
    assert phi[1] == 0.0
    assert np.abs(phi - fd_el_oracle(cartpole, st, [0.0, 0.0])).max() < 1e-8


def test_el_residual_matches_fd_oracle(cartpole):
    st = State(q=[0.5, -0.2], qdot=[0.7, -1.1])
    accel = np.array([0.4, -0.9])
    phi = el_residual(cartpole, st, accel)
    assert np.abs(phi - fd_el_oracle(cartpole, st, accel)).max() < 1e-7


def test_el_residual_onshell(cartpole):
    field = uncontrolled_sode(cartpole)
    st = State(q=[0.4, 0.1], qdot=[0.8, -0.6])
    acc = solve_accel(field, st)
    assert np.abs(el_residual(cartpole, st, acc)).max() < 1e-12


def test_el_residual_rejects_bad_accel(cartpole):
    with pytest.raises(ValueError):
        el_residual(cartpole, State(q=[0.0, 0.0], qdot=[0.0, 0.0]), [1.0])


# ---------------------------------------------------------------------------
# controlled Lagrangian
# ---------------------------------------------------------------------------

def test_unshaped_equals_plain(cartpole):
    shp = ShapingParams.zero(cartpole.dims)
    for seed in range(3):
        st = random_state(seed, cartpole.dims)
        assert controlled_lagrangian_value(cartpole, shp, st) == pytest.approx(
            lagrangian_value(cartpole, st), rel=1e-14)


def test_kinetic_only_shaping_at_rest(reference_params, cartpole):
    tau = ((fl.constant(1.0, 1),),)
    shp = ShapingParams(tau=tau, sigma=np.array([[2.0]]))
    st = State(q=[0.25, 0.0], qdot=[0.0, 0.0])
    assert controlled_lagrangian_value(cartpole, shp, st) == pytest.approx(
        -cartpole.V_value(st.q))


def test_term_by_term_oracle(reference_params, cartpole):
    # L(xd, sd + tau xd) + (1/2) sigma tau^2 xd^2 against the coordinate display
    p = reference_params
    tau = ((fl.constant(1.0, 1),),)
    shp = ShapingParams(tau=tau, sigma=np.array([[2.0]]))
    st = State(q=[0.0, 0.0], qdot=[1.0, 0.0])
    shifted = State(q=st.q, qdot=np.array([1.0, 0.0 + 1.0 * 1.0]))
    expect = lagrangian_value(cartpole, shifted) + 0.5 * 2.0 * 1.0 * 1.0
    assert controlled_lagrangian_value(cartpole, shp, st) == pytest.approx(expect, rel=1e-14)


def test_legendre_unshaped_is_momentum(cartpole):
    shp = ShapingParams.zero(cartpole.dims)
    st = State(q=[0.3, 0.1], qdot=[0.7, -0.2])
    g = cartpole.metric(st.q[:1])
    assert np.allclose(legendre_transform(cartpole, shp, st), g @ st.qdot)


def test_legendre_zero_velocity(cartpole, reference_params):
    shp = cartpole_shaping(reference_params, GainSelection(k=35.0, sigma=1.0))
    st = State(q=[0.4, 0.0], qdot=[0.0, 0.0])
    assert np.abs(legendre_transform(cartpole, shp, st)).max() == 0.0


def test_legendre_matches_display_incline(incline_params):
    # the two covector components of the modified-vertical-metric Lagrangian
    p = incline_params
    sys_ = incline_system(p)
    k, sigma, rho = 4.0, 1.3, 2.2
    tau_f = new_tau_closed_form(sys_, k)
    shp = ShapingParams(tau=((tau_f,),), sigma=scalar_sigma_matrix(sys_, sigma), rho=rho)
    x, xd, sd = 0.37, 0.8, -0.45
    st = State(q=[x, 0.0], qdot=[xd, sd])
    F = legendre_transform(sys_, shp, st)
    cpx = math.cos(p.psi - x)
    t = k * math.sqrt(p.alpha * p.gamma - p.beta ** 2 * cpx ** 2)
    F1 = (p.alpha + p.beta ** 2 * (rho - 1) * cpx ** 2 / p.gamma
          + 2 * p.beta * rho * t * cpx + p.gamma * (rho + sigma) * t ** 2) * xd \
        + rho * (p.beta * cpx + p.gamma * t) * sd
    F2 = rho * (p.beta * cpx + p.gamma * t) * xd + rho * p.gamma * sd
    assert F[0] == pytest.approx(F1, rel=1e-12)
    assert F[1] == pytest.approx(F2, rel=1e-12)


def test_legendre_is_velocity_gradient(cartpole, reference_params):
    # fiber derivative by jets of the controlled Lagrangian
    shp = cartpole_shaping(reference_params, GainSelection(k=35.0, sigma=1.0))
    st = State(q=[0.3, 0.2], qdot=[0.6, -0.8])
    seeds = jet_vars(list(st.qdot))
    val = controlled_lagrangian_generic(cartpole, shp, list(st.q), seeds)
    assert np.abs(val.g - legendre_transform(cartpole, shp, st)).max() < 1e-10


# ---------------------------------------------------------------------------
# block inverse
# ---------------------------------------------------------------------------

def test_block_inverse_unshaped_is_metric(cartpole):
    shp = ShapingParams.zero(cartpole.dims)
    bi = ctilde_and_block_inverse(cartpole, shp, np.array([0.3, 0.0]))
    g = cartpole.metric(np.array([0.3]))
    assert np.allclose(bi.C, g)
    assert np.abs(bi.W - np.linalg.inv(g)).max() < 1e-12


def test_block_inverse_cartpole_a11_negative(reference_params, cartpole):
    shp = cartpole_shaping(reference_params, GainSelection(k=35.0, sigma=1.0))
    bi = ctilde_and_block_inverse(cartpole, shp, np.array([0.0, 0.0]))
    p = reference_params
    tau0 = 35.0 * math.sqrt(p.alpha * p.gamma - p.beta ** 2)
    assert bi.A_ss[0, 0] == pytest.approx(
        p.alpha - (p.beta / p.gamma) * (p.beta + p.gamma * tau0), rel=1e-12)
    assert bi.A_ss[0, 0] < 0.0


@pytest.mark.parametrize("seed", range(6))
def test_block_inverse_random_systems(seed):
    # block formulas against dense inversion at ~100 states overall
    dims = Dims(2, 1) if seed % 2 else Dims(1, 2)
    sys_ = random_system(seed, dims)
    shp = random_shaping(seed + 50, sys_)
    n = dims.total
    for k in range(17):
        st = random_state(seed * 31 + k, dims)
        bi = ctilde_and_block_inverse(sys_, shp, st.q)
        assert np.abs(bi.C @ bi.W - np.eye(n)).max() < 1e-12
        assert np.abs(bi.W - np.linalg.inv(bi.C)).max() < 1e-10


def test_derivative_access_matches_fd(cartpole, reference_params):
    from matchctl.jets import value_grad_hess
    shp = cartpole_shaping(reference_params, GainSelection(k=35.0, sigma=1.0))
    field = controlled_implicit_sode(cartpole, shp)
    st = State(q=[0.4, 0.1], qdot=[0.8, -0.5])
    qdd = [0.3, -0.2]
    u0 = np.concatenate([st.q, st.qdot])

    def phi(u):
        return field.phi(u[:2], u[2:], qdd)

    _, g_jet, _ = value_grad_hess(phi, u0)
    _, g_fd, _ = value_grad_hess(phi, u0, backend="fd")
    assert np.abs(g_jet - g_fd).max() < 1e-7
    expl = field.to_explicit()

    def gamma(u):
        return expl.gamma(u[:2], u[2:])

    _, g_jet2, _ = value_grad_hess(gamma, u0)
    _, g_fd2, _ = value_grad_hess(gamma, u0, backend="fd")
    assert np.abs(g_jet2 - g_fd2).max() < 1e-6


def test_block_inverse_singular_group_block():
    dims = Dims(1, 1)
    sys_ = free_particle()
    bad = ShapingParams.zero(dims)
    sys_sing = type(sys_)(dims, sys_.g_ss, sys_.g_sg,
                          [[fl.constant(0.0, 1)]], sys_.V)
    with pytest.raises(SingularBlockError, match="g_gg"):
        ctilde_and_block_inverse(sys_sing, bad, np.array([0.0, 0.0]))


# ---------------------------------------------------------------------------
# feedback control and the controlled field
# ---------------------------------------------------------------------------

def test_feedback_zero_tau_is_zero(cartpole):
    shp = ShapingParams.zero(cartpole.dims)
    st = State(q=[0.4, 0.2], qdot=[0.5, -0.1])
    u = feedback_control(cartpole, shp, st, np.array([0.3, 0.7]))
    assert np.abs(u).max() == 0.0


def test_feedback_agrees_with_position_control(reference_params, cartpole):
    shp = cartpole_shaping(reference_params, GainSelection(k=35.0, sigma=1.0))
    field = controlled_implicit_sode(cartpole, shp)
    tau_fields = [shp.tau[0][0]]
    for seed in range(5):
        st = random_state(seed, cartpole.dims, x_max=1.2, v_max=3.0)
        acc = solve_accel(field, st)
        u_gen = feedback_control(cartpole, shp, st, acc)
        u_pos = position_feedback_control(cartpole, tau_fields, st.q)
        assert np.abs(u_gen - u_pos).max() < 1e-10


def test_feedback_incline_degenerates(reference_params):
    # rho = 1, psi = 0, no extra potential: matches the flat-system expression
    flat = incline_system(InclineParams(psi=0.0))
    cp = cartpole_system(reference_params)
    k = 20.0
    tau_i = new_tau_closed_form(flat, k)
    tau_c = new_tau_closed_form(cp, k)
    shp_i = ShapingParams(tau=((tau_i,),), sigma=scalar_sigma_matrix(flat, 1.0), rho=1.0)
    shp_c = ShapingParams(tau=((tau_c,),), sigma=scalar_sigma_matrix(cp, 1.0))
    st = State(q=[0.3, 0.4], qdot=[0.6, -0.2])
    accel = np.array([0.25, -0.5])
    assert np.allclose(feedback_control(flat, shp_i, st, accel),
                       feedback_control(cp, shp_c, st, accel), rtol=0, atol=1e-14)


@pytest.mark.parametrize("rho", [0.0, math.nan, math.inf, -math.inf],
                         ids=["zero", "nan", "inf", "-inf"])
def test_shaping_rejects_rho_outside_its_domain(reference_params, rho):
    # the controlled covector divides by rho, so g_rho = rho g_gg must be a
    # finite, nonsingular metric
    shp = cartpole_shaping(reference_params, GainSelection(k=35.0))
    with pytest.raises(ValueError, match=r"^rho must be finite and nonzero, got "):
        ShapingParams(tau=shp.tau, sigma=shp.sigma, rho=rho)


@pytest.mark.parametrize("sigma", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
def test_shaping_rejects_sigma_that_is_not_finite(reference_params, sigma):
    # a NaN passes the symmetry test and an infinity only warns there
    shp = cartpole_shaping(reference_params, GainSelection(k=35.0))
    with pytest.raises(ValueError, match=r"^sigma must be finite, got "):
        ShapingParams(tau=shp.tau, sigma=[[sigma]])


def test_controlled_sode_zero_tau_matches_uncontrolled(cartpole):
    shp = ShapingParams.zero(cartpole.dims)
    ctrl = controlled_implicit_sode(cartpole, shp)
    plain = uncontrolled_sode(cartpole)
    st = State(q=[0.2, 0.5], qdot=[0.9, -0.4])
    accel = [0.1, 0.2]
    assert np.allclose(ctrl.phi_floats(st.q, st.qdot, accel),
                       plain.phi_floats(st.q, st.qdot, accel))


def test_controlled_sode_onshell_roundtrip(reference_params, cartpole):
    shp = cartpole_shaping(reference_params, GainSelection(k=35.0, sigma=1.0))
    field = controlled_implicit_sode(cartpole, shp)
    for seed in range(5):
        st = random_state(seed + 10, cartpole.dims, x_max=1.2, v_max=4.0)
        acc = solve_accel(field, st)
        assert np.abs(field.phi_floats(st.q, st.qdot, acc)).max() < 1e-12


def test_incline_sode_matches_display(incline_params):
    # group-row covector against the displayed closed-loop equation
    p = incline_params
    sys_ = incline_system(p)
    from matchctl.control import GainSelection as GS
    from matchctl.control import incline_hessian_check, incline_shaping
    shpA = ShapingParams(tau=((new_tau_closed_form(sys_, 35.0),),),
                         sigma=scalar_sigma_matrix(sys_, 1.0), rho=2.0)
    _, _, c_min = incline_hessian_check(p, shpA, GS(k=35.0, sigma=1.0, rho=2.0))
    gains = GS(k=35.0, sigma=1.0, rho=2.0, c=c_min + 1.0)
    shp = incline_shaping(p, gains)
    field = controlled_implicit_sode(sys_, shp)
    x, s, xd, sd = 0.31, -0.2, 0.7, 0.4
    xdd, sdd = -0.6, 0.9
    phi = field.phi_floats([x, s], [xd, sd], [xdd, sdd])
    from matchctl.control import incline_h
    cpx = math.cos(p.psi - x)
    D = p.alpha * p.gamma - p.beta ** 2 * cpx ** 2
    t = 35.0 * math.sqrt(D)
    tp = 35.0 * p.beta ** 2 * cpx * math.sin(x - p.psi) / math.sqrt(D)
    hx = incline_h(p, shp, x)
    dVeps_ds = p.gamma * p.grav * math.sin(p.psi) + s - hx - gains.s0
    expect_s = (p.beta * math.sin(p.psi - x) + p.gamma * tp) * xd ** 2 \
        + (p.beta * cpx + p.gamma * t) * xdd + p.gamma * sdd \
        + dVeps_ds / gains.rho - p.grav * p.gamma / gains.rho * math.sin(p.psi)
    expect_x = p.alpha * xdd + p.beta * cpx * sdd + p.d * math.sin(x)
    assert phi[1] == pytest.approx(expect_s, rel=1e-9)
    assert phi[0] == pytest.approx(expect_x, rel=1e-12)


def test_solve_accel_free_particle():
    sys_ = free_particle()
    field = uncontrolled_sode(sys_)
    acc = solve_accel(field, State(q=[0.3, 0.4], qdot=[1.0, -1.0]))
    assert np.abs(acc).max() == 0.0


def test_solve_accel_uncontrolled_equilibrium(cartpole):
    field = uncontrolled_sode(cartpole)
    acc = solve_accel(field, State(q=[0.0, 0.0], qdot=[0.0, 0.0]))
    assert np.abs(acc).max() < 1e-15


def test_solve_accel_matches_closed_form(reference_params, cartpole):
    from matchctl.control import cartpole_closed_loop
    gains = GainSelection(k=35.0, sigma=1.0)
    shp = cartpole_shaping(reference_params, gains)
    field = controlled_implicit_sode(cartpole, shp)
    loop = cartpole_closed_loop(reference_params, gains)
    st = State(q=[0.1, 0.0], qdot=[0.0, 0.0])
    assert np.abs(solve_accel(field, st) - loop.gamma_floats(st.q, st.qdot)).max() < 1e-12


# ---------------------------------------------------------------------------
# contraction identities
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("seed", range(8))
def test_fw_identities_random(seed):
    dims = Dims(1, 2) if seed % 2 else Dims(2, 1)
    sys_ = random_system(seed + 20, dims)
    shp = random_shaping(seed + 60, sys_)
    st = random_state(seed + 200, dims)
    r1, r2 = fw_identity_residuals(sys_, shp, st)
    assert r1 < 1e-10
    assert r2 < 1e-10


# ---------------------------------------------------------------------------
# acceleration matrix
# ---------------------------------------------------------------------------

def _accel_cases():
    from matchctl.control import incline_shaping
    ref = CartpoleParams()
    incl = InclineParams(psi=0.3)
    cases = {
        "cartpole": (cartpole_system(ref),
                     cartpole_shaping(ref, GainSelection(k=35.0, sigma=1.0))),
        "incline_rho2": (incline_system(incl),
                         incline_shaping(incl, GainSelection(k=35.0, sigma=1.0, rho=2.0,
                                                             c=6.0))),
        "builtin_1x2": sm_shaping(1, Dims(1, 2)),
        "builtin_2x2": sm_shaping(1, Dims(2, 2)),
        "builtin_1x3": sm_shaping(1, Dims(1, 3)),
        "builtin_2x1": sm_shaping(1, Dims(2, 1)),
    }
    return cases


ACCEL_CASES = _accel_cases()


def _rel(a, b) -> float:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return float(np.abs(a - b).max() / max(1.0, np.abs(b).max()))


@pytest.mark.parametrize("name", sorted(ACCEL_CASES))
def test_accel_matrix_matches_covector_and_block(name):
    # three references: the affine difference of the covector, the block
    # assembled by ctilde_and_block_inverse, and dPhi/dqdd read off jets
    sys_, shp = ACCEL_CASES[name]
    n = sys_.dims.total
    for field, block in ((controlled_implicit_sode(sys_, shp),
                          lambda q: ctilde_and_block_inverse(sys_, shp, q).C),
                         (uncontrolled_sode(sys_), lambda q: sys_.metric(q[:sys_.dims.n_shape]))):
        for seed in range(20):
            st = random_state(300 + seed, sys_.dims, x_max=1.0, v_max=3.0)
            C = field.accel_matrix_floats(st.q)
            base = field.phi_floats(st.q, st.qdot, np.zeros(n))
            affine = np.column_stack([field.phi_floats(st.q, st.qdot, np.eye(n)[j]) - base
                                      for j in range(n)])
            assert _rel(C, affine) < 1e-13
            assert _rel(C, block(st.q)) < 1e-13
            seeds = jet_vars(list(st.q) + list(st.qdot) + [0.1] * n)
            phis = field.phi(seeds[:n], seeds[n:2 * n], seeds[2 * n:])
            assert _rel(C, [p.g[2 * n:] for p in phis]) < 1e-13
            Cj = field.accel_matrix(jet_vars(list(st.q)))
            assert np.array_equal(C, [[getattr(v, "f", v) for v in row] for row in Cj])


# SHA-256 of gamma_floats(...).tobytes() over 50 seeded states, recorded
# before the explicit field shared one jet pass per field between the
# covector and the acceleration matrix (builtin_1x3 and builtin_2x1: recorded
# before a field read evaluated each shared subexpression once)
GAMMA_FLOATS_DIGESTS = {
    "builtin_1x2": "3c2b8fadfe257b8a1992cce6463094cdda933686bc16e8655ca1ebf4365b9913",
    "builtin_1x3": "47040cd6da36522efd2dd61d6b3852ab7c9d24cf674fe1f33fa614a72d041573",
    "builtin_2x1": "8f8530db6cd5029304d81008baac0d6f0cbcdab82e363e8f76441c7124bb7c95",
    "builtin_2x2": "abcb0cc35f71d6c663c49f6f6c3bbd5881977b00e2474869d2049f263a3a9333",
    "cartpole": "20bfa8c461df3998fbbe44cc59d090a4aca354550c480d7fd5f3d7ebcfdebd12",
    "incline_rho2": "ab8427d77a271c2dd86112e1ad4fabafe7ce802fd38df62b09d0557cc30f1b54",
}


@pytest.mark.parametrize("name", sorted(ACCEL_CASES))
def test_gamma_floats_is_bit_for_bit_pinned(name):
    sys_, shp = ACCEL_CASES[name]
    loop = controlled_implicit_sode(sys_, shp).to_explicit()
    digest = hashlib.sha256()
    for seed in range(50):
        st = random_state(700 + seed, sys_.dims, x_max=1.0, v_max=3.0)
        digest.update(loop.gamma_floats(st.q, st.qdot).tobytes())
    assert digest.hexdigest() == GAMMA_FLOATS_DIGESTS[name]


def test_generic_gamma_is_one_covector_pass(monkeypatch):
    import matchctl.lagrangian as lg
    sys_, shp = ACCEL_CASES["builtin_1x2"]
    loop = controlled_implicit_sode(sys_, shp).to_explicit()
    calls = []
    real = lg.controlled_el_covector

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(lg, "controlled_el_covector", counted)
    q, qd = [0.3, -0.2, 0.5], [0.4, 1.0, -0.7]
    acc = loop.gamma_floats(q, qd)
    jets = loop.gamma_jets(q, qd)
    assert len(calls) == 2
    assert np.array_equal(acc, [j.f for j in jets])
    field = controlled_implicit_sode(sys_, shp)
    assert np.abs(field.phi_floats(q, qd, acc)).max() < 1e-14


@pytest.mark.parametrize("name", ["builtin_1x2", "builtin_2x2"])
def test_generic_gamma_reads_each_field_once(monkeypatch, name):
    # at a float state the covector and the acceleration matrix share one jet
    # pass per distinct metric and tau field (tau's own closures call the
    # metric fields they were built from, which this does not count)
    sys_, shp = ACCEL_CASES[name]
    loop = controlled_implicit_sode(sys_, shp).to_explicit()
    fields = {f for block in (sys_.g_ss, sys_.g_sg, sys_.g_gg, shp.tau)
              for row in block for f in row if f.const is None}
    calls = []

    def counted(f, fn):
        return lambda u: calls.append(f) or fn(u)

    for f in fields:
        monkeypatch.setattr(f, "fn", counted(f, f.fn))
    st = random_state(9, sys_.dims)
    loop.gamma_floats(st.q, st.qdot)
    assert len(fields) >= 4 and sorted(map(id, calls)) == sorted(map(id, fields))


def test_generic_gamma_evaluates_each_shared_node_once(monkeypatch):
    # sm3_tau composes each tau entry over the g_sg fields, and one read_at
    # pass reads those from its memo: each linear leaf of the builtin (1,2)
    # system (under g_ss, both g_sg and V) runs once per gamma call, not 8
    # times in all
    calls = []
    real = fl.linear

    def counted(*args):
        leaf = real(*args)
        fn = leaf.fn
        leaf.fn = lambda u: calls.append(leaf) or fn(u)
        return leaf

    monkeypatch.setattr(fl, "linear", counted)
    sys_, shp = sm_shaping(1, Dims(1, 2))
    loop = controlled_implicit_sode(sys_, shp).to_explicit()
    calls.clear()
    loop.gamma_floats([0.3, -0.2, 0.5], [0.4, 1.0, -0.7])
    assert len(calls) == len(set(map(id, calls))) == 4
    # the memo dies with its read_at call: a second point reads its own values
    blocks = (sys_.g_ss, sys_.g_sg, sys_.g_gg, shp.tau)
    for x in (0.3, -0.8):
        for f, (value, partials) in fl.read_at(blocks, [x]).items():
            assert value == f.value([x]) and partials == f.d1([x]).tolist()


def _cubic_coupling_system():
    # g_sg and tau apply `**` to the shape coordinate, where numpy's power
    # and libm's differ by an ulp at some inputs
    from matchctl.fields import SmoothField
    from matchctl.jets import cos
    from matchctl.model import build_mechanical_system

    sys_ = build_mechanical_system(
        Dims(1, 1), [[fl.constant(2.0, 1)]], [[SmoothField(1, lambda u: 0.3 * u[0] ** 3)]],
        [[fl.constant(1.0, 1)]], SmoothField(2, lambda u: cos(u[0])))
    shp = ShapingParams(tau=((SmoothField(1, lambda u: 0.5 + 0.2 * u[0] ** 3),),),
                        sigma=np.eye(1))
    return sys_, shp


def _states_off_their_one_state_calls(field) -> dict:
    """For each N-state read-out of ``field``, how many of 1,000 states read
    other floats than their one-state calls."""
    rng = np.random.default_rng(5)
    q, qd, qdd = (rng.uniform(-1.0, 1.0, size=(1000, 2)) for _ in range(3))
    reads = {"phi_floats": lambda i: field.phi_floats(q[i], qd[i], qdd[i]),
             "accel_matrix_floats": lambda i: field.accel_matrix_floats(q[i]),
             "solve_accel": lambda i: field.solve_accel(State(q=q[i], qdot=qd[i]))}
    differ = {}
    for name, read in reads.items():
        batch, one = read(slice(None)), np.array([read(i) for i in range(len(q))])
        differ[name] = int((batch != one).reshape(len(q), -1).any(axis=1).sum())
    return differ


def test_n_state_read_outs_are_one_state_calls_bit_for_bit():
    # the N-state read-outs read the fields over jets, as the one-state calls
    # do, so every state gets the floats of its one-state call
    differ = _states_off_their_one_state_calls(controlled_implicit_sode(*_cubic_coupling_system()))
    assert differ == dict.fromkeys(differ, 0)


def test_uncontrolled_n_state_read_outs_are_one_state_calls_bit_for_bit():
    # the uncontrolled acceleration matrix is the metric, read at N states
    # through `fields.read_at` as the controlled field reads it
    sys_, _ = _cubic_coupling_system()
    differ = _states_off_their_one_state_calls(uncontrolled_sode(sys_))
    assert differ == dict.fromkeys(differ, 0)
