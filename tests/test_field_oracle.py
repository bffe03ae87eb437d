"""The jet path of the worked systems' fields and closed loops against sympy
derivatives.

Each field is written once as a flat function over floats or jets; sympy
differentiates the same closed forms symbolically and evaluates them at 30
digits, an oracle independent of both jets and finite differences.  The
closed-loop accelerations are checked against the Euler-Lagrange equations of
the uncontrolled system under the feedback, solved symbolically.
"""

import mpmath
import numpy as np
import pytest
import sympy as sp

import matchctl.control as ctl
import matchctl.fields as fl
from matchctl.control import (INCLINE_LOOP_SPAN, GainSelection, cartpole_closed_loop,
                              incline_A_field, incline_base_shaping, incline_closed_loop,
                              incline_h_curve)
from matchctl.jets import Jet2
from matchctl.lagrangian import ShapingParams, scalar_sigma_matrix
from matchctl.matching import new_tau_closed_form
from matchctl.model import CartpoleParams, InclineParams, cartpole_system, incline_system

K, SIGMA, RHO = 35.0, 1.0, 2.0
X, S = sp.symbols("x s", real=True)
N_POINTS = 20


def _symbolic(p):
    """Closed forms of g_sg, V, tau and (incline only) A in x and s."""
    m, M, l, grav = (sp.Float(v, 30) for v in (p.m, p.M, p.l, p.grav))
    al, be, ga, d = m * l ** 2, m * l, m + M, -m * grav * l
    psi = sp.Float(getattr(p, "psi", 0.0), 30)
    g_sg = be * sp.cos(X - psi) if isinstance(p, InclineParams) else be * sp.cos(X)
    tau = K * sp.sqrt(al * ga - g_sg ** 2)
    if not isinstance(p, InclineParams):
        return {"g_sg": g_sg, "V": -d * sp.cos(X), "tau": tau}
    V = -d * sp.cos(X) - ga * grav * sp.sin(psi) * S
    cpx = sp.cos(psi - X)
    num = be * (RHO - 1) * cpx * (cpx ** 2 * be ** 2 - al * ga) \
        + be * ga ** 2 * (RHO + SIGMA) * tau ** 2 * cpx \
        + ga * RHO * tau * (2 * be ** 2 * cpx ** 2 - al * ga)
    den = ga * RHO * (al * ga - be ** 2 * cpx ** 2 - be * ga * tau * cpx)
    return {"g_sg": g_sg, "V": V, "tau": tau, "A": num / den}


def _fields(p):
    sys_ = incline_system(p) if isinstance(p, InclineParams) else cartpole_system(p)
    tau = new_tau_closed_form(sys_, K)
    out = {"g_sg": sys_.g_sg[0][0], "V": sys_.V, "tau": tau}
    if isinstance(p, InclineParams):
        shaping = ShapingParams(tau=((tau,),), sigma=scalar_sigma_matrix(sys_, SIGMA), rho=RHO)
        out["A"] = incline_A_field(p, shaping)
    return out


def _cases():
    for p in (CartpoleParams(), InclineParams(psi=0.3)):
        sym, fields = _symbolic(p), _fields(p)
        for name in sym:
            yield pytest.param(fields[name], sym[name], id=f"{type(p).__name__}-{name}")


def _points(arity: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return np.column_stack([rng.uniform(-1.0, 1.0, N_POINTS),
                            rng.uniform(-2.0, 2.0, N_POINTS)])[:, :arity]


def _assert_rel(actual, expected, rtol):
    actual, expected = np.asarray(actual, dtype=float), np.asarray(expected, dtype=float)
    scale = np.abs(expected).max()
    if scale == 0.0:
        assert np.abs(actual).max() == 0.0
    else:
        assert np.abs(actual - expected).max() <= rtol * scale


@pytest.mark.parametrize("field, expr", _cases())
def test_value_d1_d2_match_sympy(field, expr):
    syms = (X, S)[: field.arity]
    grad = [sp.diff(expr, v) for v in syms]
    hess = [[sp.diff(g, v) for v in syms] for g in grad]
    for u in _points(field.arity, seed=11):
        at = dict(zip(syms, (sp.Float(float(c), 30) for c in u)))

        def ev(e):
            return float(sp.N(e.subs(at), 30))

        _assert_rel(field.value(u), ev(expr), 1e-12)
        _assert_rel(field.d1(u), [ev(g) for g in grad], 1e-12)
        _assert_rel(field.d2(u), [[ev(h) for h in row] for row in hess], 1e-12)


@pytest.mark.parametrize("field, expr", _cases())
def test_eval_jet_matches_chain_rule(field, expr):
    rng = np.random.default_rng(23)
    m = 3
    for u in _points(field.arity, seed=17):
        jets = []
        for c in u:
            h = rng.normal(size=(m, m))
            jets.append(Jet2(float(c), rng.normal(size=m), h + h.T))
        g1, g2 = field.d1(u), field.d2(u)
        grad = sum(g1[i] * jets[i].g for i in range(field.arity))
        hess = sum(g1[i] * jets[i].h for i in range(field.arity)) \
            + sum(g2[i, j] * np.outer(jets[i].g, jets[j].g)
                  for i in range(field.arity) for j in range(field.arity))
        out = field.eval_jet(jets)
        _assert_rel(out.f, field.value(u), 1e-13)
        _assert_rel(out.g, grad, 1e-13)
        _assert_rel(out.h, hess, 1e-13)


@pytest.mark.parametrize("field, expr", _cases())
def test_gradient_on_jets_matches_sympy_third_derivatives(field, expr):
    # the coordinate jets also carry a seed e that their gradients do not
    # touch, with a nonzero Hessian along it: each partial's Hessian is exact
    # in e and NaN on the coordinate block, where the field's third
    # derivatives would enter
    syms = (X, S)[: field.arity]
    n = e = field.arity
    grad = [sp.diff(expr, v) for v in syms]
    hess = [[sp.diff(g, v) for v in syms] for g in grad]
    rng = np.random.default_rng(29)
    for u in _points(n, seed=29)[:5]:
        at = dict(zip(syms, (sp.Float(float(c), 30) for c in u)))
        coords = []
        for k, c in enumerate(u):
            h = np.zeros((n + 1, n + 1))
            h[e] = h[:, e] = rng.normal(size=n + 1)
            coords.append(Jet2(float(c), np.eye(n + 1)[k], h))
        parts = fl.gradient(field, coords)
        d2 = field.d2(u)
        for i, part in enumerate(parts):
            _assert_rel(part.f, float(sp.N(grad[i].subs(at), 30)), 1e-12)
            _assert_rel(part.g[:n], [float(sp.N(hk.subs(at), 30)) for hk in hess[i]], 1e-12)
            assert np.array_equal(part.g, np.append(d2[i], 0.0))
            along_e = [float(sp.N(sum(hess[i][k] * sp.Float(coords[k].h[a, e], 30)
                                      for k in range(n)).subs(at), 30))
                       for a in range(n + 1)]
            _assert_rel(part.h[:, e], along_e, 1e-12)
            assert np.array_equal(part.h[e], part.h[:, e])
            assert np.isnan(part.h[:n, :n]).all()


# ---------------------------------------------------------------------------
# closed-loop accelerations
# ---------------------------------------------------------------------------

XD, SD, XDD, SDD = sp.symbols("xd sd xdd sdd", real=True)
H0 = sp.Symbol("h0", real=True)                   # the h-curve's value at x
C, S0 = 6.0, 0.1


def _symbolic_loop(p):
    """Closed-loop accelerations derived independently of the code: the
    Euler-Lagrange equations of the uncontrolled system, forced in the group
    equation by the cart-pole's position feedback or, for the incline, by the
    scalar-rho feedback with the extra potential, solved for the
    accelerations."""
    m, M, l, grav = (sp.Float(v, 30) for v in (p.m, p.M, p.l, p.grav))
    al, be, ga, d = m * l ** 2, m * l, m + M, -m * grav * l
    incline = isinstance(p, InclineParams)
    psi = sp.Float(getattr(p, "psi", 0.0), 30)
    g_sg = be * sp.cos(X - psi)
    V = -d * sp.cos(X) - (ga * grav * sp.sin(psi) * S if incline else 0)
    L = (al * XD ** 2 + 2 * g_sg * XD * SD + ga * SD ** 2) / 2 - V
    q, qd, qdd = (X, S), (XD, SD), (XDD, SDD)

    def el(i):
        mom = sp.diff(L, qd[i])
        return sum(sp.diff(mom, q[j]) * qd[j] + sp.diff(mom, qd[j]) * qdd[j]
                   for j in range(2)) - sp.diff(L, q[i])

    if incline:
        h = sp.Function("h")(X)
        tau = K * sp.sqrt(al * ga - g_sg ** 2)
        dVeps_ds = ga * grav * sp.sin(psi) + S - h - S0
        u = (RHO - 1) / RHO * sp.diff(V, S) - dVeps_ds / RHO \
            - ga * sp.diff(tau, X) * XD ** 2 - ga * tau * XDD
    else:
        h = None
        cx = sp.cos(X)
        D = al * ga - be ** 2 * cx ** 2
        u = -d * ga ** 2 * K * sp.sin(X) * sp.sqrt(D) \
            / (be * ga * K * cx * sp.sqrt(D) - al * ga + be ** 2 * cx ** 2)
    eqs = [el(0), el(1) - u]                  # affine in the accelerations
    coeffs = sp.Matrix([[sp.diff(e, a) for a in qdd] for e in eqs])
    rest = sp.Matrix([e.subs({XDD: 0, SDD: 0}) for e in eqs])
    return list(coeffs.LUsolve(-rest)), h


def _loop_cases():
    for p in (CartpoleParams(), InclineParams(psi=0.3)):
        yield pytest.param(p, id=type(p).__name__)


def _closed_loop(p):
    """The closed loop, the h-curve it uses (None for the cart-pole) and a
    builder of its acceleration over a namespace."""
    gains = GainSelection(k=K, sigma=SIGMA, rho=RHO, c=C, s0=S0)
    if isinstance(p, InclineParams):
        h = incline_h_curve(p, incline_base_shaping(p, gains), K, INCLINE_LOOP_SPAN)
        return (incline_closed_loop(p, gains, h), h,
                lambda ns: ctl._incline_loop(p, gains, h, ns)[1])
    return (cartpole_closed_loop(p, gains), None,
            lambda ns: ctl._cartpole_accel(p, K, ns))


def _states(seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return np.column_stack([rng.uniform(-1.0, 1.0, N_POINTS), rng.uniform(-2.0, 2.0, N_POINTS),
                            rng.uniform(-3.0, 3.0, N_POINTS), rng.uniform(-3.0, 3.0, N_POINTS)])


@pytest.mark.parametrize("p", _loop_cases())
def test_closed_loop_gamma_matches_sympy(p):
    exprs, h_sym = _symbolic_loop(p)
    loop, h, _ = _closed_loop(p)
    syms = (X, S, XD, SD)
    A = _symbolic(p).get("A")

    def numeric_h(e):
        # after differentiating, h' becomes A and h'' becomes A' symbolically,
        # and h the curve's value
        if h_sym is None:
            return e
        return e.subs(sp.Derivative(h_sym, (X, 2)), sp.diff(A, X)) \
            .subs(sp.Derivative(h_sym, X), A).subs(h_sym, H0)

    compiled = []
    for e in exprs:
        grad = [sp.diff(e, v) for v in syms]
        hess = [[numeric_h(sp.diff(g, v)) for v in syms] for g in grad]
        compiled.append(sp.lambdify(syms + (H0,),
                                    [numeric_h(e), [numeric_h(g) for g in grad], hess],
                                    "mpmath"))
    with mpmath.workdps(30):
        for st in _states(seed=29):
            h0 = h(st[0]) if h is not None else 0.0
            jets = loop.gamma_jets(st[:2], st[2:])
            for jet, fn in zip(jets, compiled):
                val, grad, hess = fn(*(mpmath.mpf(float(v)) for v in (*st, h0)))
                _assert_rel(jet.f, float(val), 1e-12)
                _assert_rel(jet.g, [float(g) for g in grad], 1e-12)
                _assert_rel(jet.h, [[float(v) for v in row] for row in hess], 1e-12)


@pytest.mark.parametrize("p", _loop_cases())
def test_closed_loop_math_jets_numpy_agree_bitwise(p):
    loop, _, build = _closed_loop(p)
    states = _states(seed=31)
    batched = build(ctl.jets)(*states.T)       # jets sends the arrays to numpy
    for i, st in enumerate(states):
        fast = loop.floats(*st)
        jet_values = [j.f for j in loop.gamma_jets(st[:2], st[2:])]
        for a in range(2):
            assert fast[a] == jet_values[a] == batched[a][i]
