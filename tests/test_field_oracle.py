"""The jet path of the worked systems' fields against sympy derivatives.

Each field is written once as a flat function over floats or jets; sympy
differentiates the same closed forms symbolically and evaluates them at 30
digits, an oracle independent of both jets and finite differences.
"""

import numpy as np
import pytest
import sympy as sp

from matchctl.control import incline_A_field
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
