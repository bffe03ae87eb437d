"""Pointwise matching-condition checkers and synthesis of the shape-dependent
feedback one-form, including the ODE route that generalizes the classical
closed-form choice.

Conditions are identities in the shape variables; "holds" means the residual
stays below tolerance on a user grid (41 uniform points by default).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.interpolate import CubicSpline

from . import fields as fl
from .fields import SmoothField
from .jets import Jet2, chain, solve_generic, sqrt
from .lagrangian import ShapingParams
from .model import MechanicalSystem
from .report import ResidualEntry, ResidualReport

__all__ = [
    "MATCHING_TOL",
    "default_grid",
    "matching_residuals",
    "simplified_matching_residuals",
    "generalized_matching_residuals",
    "check_on_grid",
    "sm3_tau",
    "new_tau_closed_form",
    "new_tau_ode_residual",
    "integrate_new_tau",
    "SampledTau",
    "TauIntegrationError",
    "matrix_inverse_fields",
]

MATCHING_TOL = 1e-10


class TauIntegrationError(RuntimeError):
    """The coefficient matrix of tau' became singular during integration.

    With one shape coordinate the tau ODE reads M tau' = tau r0, where
    S0 = 2(g11 - g1' g_gg^-1 g1), r0 = g11' - 2 g1' g_gg^-1 g1' and
    M = (S0 - 2 g1'tau) I + 2 tau g1'.  By the matrix determinant lemma
    det M = (S0 - 2 g1'tau)^(ng-1) S0; the slope is refused when that falls
    below 1e-14 max(1, max|M|^ng) or the slope is not finite.
    """

    def __init__(self, x: float):
        super().__init__(f"coefficient of tau' singular near x = {x:.6g}")
        self.x = x


def default_grid(lo: float = -1.3, hi: float = 1.3, n: int = 41) -> np.ndarray:
    return np.linspace(lo, hi, n)


def _point_data(sys: MechanicalSystem, shaping: ShapingParams, x: np.ndarray):
    x = np.atleast_1d(np.asarray(x, dtype=float))
    gsg = sys.gsg(x)
    ggg = sys.ggg(x)
    dgg = np.array([[sys.g_gg[a][b].d1(x) for b in range(sys.dims.n_group)]
                    for a in range(sys.dims.n_group)])
    dsg = np.array([[sys.g_sg[al][a].d1(x) for a in range(sys.dims.n_group)]
                    for al in range(sys.dims.n_shape)])
    tau = shaping.tau_value(x)
    dtau = shaping.tau_d1(x)
    return x, gsg, ggg, dgg, dsg, tau, dtau


def matching_residuals(sys: MechanicalSystem, shaping: ShapingParams,
                       x, tol: float = MATCHING_TOL) -> ResidualReport:
    """The three matching conditions at shape point x (constant sigma)."""
    x, gsg, ggg, dgg, dsg, tau, dtau = _point_data(sys, shaping, x)
    ns, ng = sys.dims.n_shape, sys.dims.n_group
    sigma = shaping.sigma
    try:
        sigma_inv = np.linalg.inv(sigma)
    except np.linalg.LinAlgError as exc:
        raise ValueError("sigma must be invertible for the matching conditions") from exc
    ggg_inv = np.linalg.inv(ggg)

    report = ResidualReport("matching conditions")

    m1 = tau + np.einsum("ab,la->bl", sigma_inv, gsg)
    report.add(ResidualEntry.normalized("M1", m1, [np.abs(tau).max(), np.abs(gsg).max()], tol))

    # sigma constant, so only the metric-derivative terms survive
    m2 = np.einsum("bd,adl->bal", sigma_inv, dgg) - 2.0 * np.einsum("bd,adl->bal", ggg_inv, dgg)
    report.add(ResidualEntry.normalized("M2", m2, [np.abs(dgg).max()], tol))

    m3 = np.zeros((ng, ns, ns))
    for b in range(ng):
        for al in range(ns):
            for be in range(ns):
                m3[b, al, be] = dtau[b, al, be] - dtau[b, be, al] \
                    - sum(ggg_inv[d, b] * dgg[a, d, al] * tau[a, be]
                          for a in range(ng) for d in range(ng))
    report.add(ResidualEntry.normalized("M3", m3, [np.abs(dtau).max(), np.abs(dgg).max()], tol))
    return report


def fit_scalar_sigma(shaping: ShapingParams, ggg: np.ndarray) -> tuple[float, float]:
    """Least-squares scalar s with sigma ~ s*g_gg and the max deviation."""
    denom = float(np.sum(ggg * ggg))
    s = float(np.sum(shaping.sigma * ggg) / denom)
    dev = float(np.abs(shaping.sigma - s * ggg).max())
    return s, dev


def simplified_matching_residuals(sys: MechanicalSystem, shaping: ShapingParams,
                                  x, tol: float = MATCHING_TOL,
                                  theta: np.ndarray | None = None) -> ResidualReport:
    """The simplified conditions at shape point x; the potential condition is
    checked only for symmetry-breaking systems."""
    x, gsg, ggg, dgg, dsg, tau, dtau = _point_data(sys, shaping, x)
    ns, ng = sys.dims.n_shape, sys.dims.n_group
    report = ResidualReport("simplified matching conditions")

    s_hat, dev = fit_scalar_sigma(shaping, ggg)
    sm1_scale = max(np.abs(shaping.sigma).max(), np.abs(ggg).max())
    sm1 = ResidualEntry.normalized("SM1", [dev], [sm1_scale], tol)
    report.add(sm1)

    report.add(ResidualEntry.normalized("SM2", dgg, [np.abs(ggg).max()], tol))

    if not sm1.passed or s_hat == 0.0:
        report.add(ResidualEntry.skip("SM3", "sigma not a scalar multiple of g_gg"))
    else:
        ggg_inv = np.linalg.inv(ggg)
        sm3 = tau + (1.0 / s_hat) * np.einsum("ab,la->bl", ggg_inv, gsg)
        report.add(ResidualEntry.normalized("SM3", sm3, [np.abs(tau).max(), np.abs(gsg).max()],
                                            tol))

    sm4 = np.zeros((ns, ng, ns))
    for al in range(ns):
        for a in range(ng):
            for de in range(ns):
                sm4[al, a, de] = dsg[al, a][de] - dsg[de, a][al]
    report.add(ResidualEntry.normalized("SM4", sm4, [np.abs(dsg).max()], tol))

    if not sys.breaks_group_symmetry:
        report.add(ResidualEntry.skip("SM5", "group symmetry unbroken"))
    else:
        if theta is None:
            theta = np.zeros(ng)
        q = np.concatenate([x, theta])
        v2 = sys.V_d2(q)
        ggg_inv = np.linalg.inv(ggg)
        mixed = v2[:ns, ns:]          # V_{,alpha a}
        proj = mixed @ ggg_inv @ gsg.T    # V_{,alpha a} g^{ad} g_{beta d}
        sm5 = proj - proj.T
        report.add(ResidualEntry.normalized("SM5", sm5, [np.abs(proj).max()], tol))
    return report


def generalized_matching_residuals(sys: MechanicalSystem, shaping: ShapingParams,
                                   x, tol: float = MATCHING_TOL) -> ResidualReport:
    """The generalized conditions (modified vertical metric) at shape point x."""
    x, gsg, ggg, dgg, dsg, tau, dtau = _point_data(sys, shaping, x)
    ns, ng = sys.dims.n_shape, sys.dims.n_group
    report = ResidualReport("generalized matching conditions")

    base = matching_residuals(sys, shaping, x, tol)
    e1 = base.entry("M1")
    e2 = base.entry("M2")
    report.add(ResidualEntry(name="GM1", value=e1.value, tol=tol, passed=e1.passed, raw=e1.raw))
    report.add(ResidualEntry(name="GM2", value=e2.value, tol=tol, passed=e2.passed, raw=e2.raw))

    g_rho = shaping.g_rho if shaping.g_rho is not None else shaping.rho * ggg
    varpi = g_rho - ggg
    # varpi_{ab,alpha}: constant explicit g_rho differentiates to -dgg;
    # scalar rho to (rho-1)*dgg
    if shaping.g_rho is not None:
        dvarpi = -dgg
    else:
        dvarpi = (shaping.rho - 1.0) * dgg
    report.add(ResidualEntry.normalized("GM3", dvarpi, [np.abs(varpi).max(), 1.0], tol))

    try:
        rho_inv = np.linalg.inv(g_rho)
    except np.linalg.LinAlgError as exc:
        raise ValueError("g_rho must be invertible for the generalized conditions") from exc
    ggg_inv = np.linalg.inv(ggg)
    dginv = -np.einsum("ae,efl,fc->acl", ggg_inv, dgg, ggg_inv)
    zeta = np.einsum("ac,lc->al", ggg_inv, gsg)          # zeta^a_alpha
    dzeta = np.zeros((ng, ns, ns))
    for a in range(ng):
        for al in range(ns):
            for de in range(ns):
                dzeta[a, al, de] = sum(dginv[a, c, de] * gsg[al, c] for c in range(ng)) \
                    + sum(ggg_inv[a, c] * dsg[al, c][de] for c in range(ng))

    gm4 = np.zeros((ng, ns, ns))
    for b in range(ng):
        for al in range(ns):
            for de in range(ns):
                term = dtau[b, al, de] - dtau[b, de, al]
                term += sum(varpi[a, d] * rho_inv[b, d] * (dzeta[a, al, de] - dzeta[a, de, al])
                            for a in range(ng) for d in range(ng))
                term -= sum(varpi[a, d] * rho_inv[d, c] * dgg[c, e, de] * rho_inv[e, b] * zeta[a, al]
                            for a in range(ng) for d in range(ng)
                            for c in range(ng) for e in range(ng))
                term -= sum(rho_inv[d, b] * dgg[a, d, al] * tau[a, de]
                            for a in range(ng) for d in range(ng))
                gm4[b, al, de] = term
    report.add(ResidualEntry.normalized("GM4", gm4, [np.abs(dtau).max(), np.abs(dgg).max(),
                                                     np.abs(zeta).max(), 1.0], tol))
    return report


def check_on_grid(fn, sys: MechanicalSystem, shaping: ShapingParams,
                  xs: Sequence, **kwargs) -> ResidualReport:
    """Worst-case merge of a pointwise checker over a grid of shape points."""
    reports = [fn(sys, shaping, np.atleast_1d(x), **kwargs) for x in xs]
    return ResidualReport.merge_max(reports[0].title + " (grid max)", reports)


# ---------------------------------------------------------------------------
# tau synthesis
# ---------------------------------------------------------------------------

def matrix_inverse_fields(block, arity: int):
    """Entrywise SmoothFields of the inverse of a matrix of SmoothFields.

    A constant block folds to constant entries; otherwise each entry solves
    the block by elimination over floats or jets, so derivatives are exact.
    """
    ng = len(block)
    if all(f.const is not None for row in block for f in row):
        K = np.linalg.inv(np.array([[f.const for f in row] for row in block]))
        return tuple(tuple(fl.constant(K[a, b], arity) for b in range(ng)) for a in range(ng))
    fns = [[f.fn for f in row] for row in block]

    def make(a: int, b: int) -> SmoothField:
        e = [1.0 if i == b else 0.0 for i in range(ng)]
        return SmoothField(arity, lambda u: solve_generic([[fn(u) for fn in row]
                                                           for row in fns], e)[a])

    return tuple(tuple(make(a, b) for b in range(ng)) for a in range(ng))


def sm3_tau(sys: MechanicalSystem, sigma_scalar: float):
    """tau^b_alpha = -(1/sigma) g^{ab} g_{alpha a} as SmoothFields."""
    if sigma_scalar == 0.0:
        raise ValueError("sigma must be nonzero")
    ns, ng = sys.dims.n_shape, sys.dims.n_group
    ginv = matrix_inverse_fields(sys.g_gg, ns)
    tau = []
    for b in range(ng):
        row = []
        for al in range(ns):
            acc = fl.constant(0.0, ns)
            for a in range(ng):
                acc = acc + ginv[a][b] * sys.g_sg[al][a]
            row.append((-1.0 / sigma_scalar) * acc)
        tau.append(tuple(row))
    return tuple(tau)


def new_tau_closed_form(sys: MechanicalSystem, k: float) -> SmoothField:
    """tau(x) = k * sqrt(det of the full 2x2 metric); two-coordinate systems only."""
    if sys.dims.n_shape != 1 or sys.dims.n_group != 1:
        raise ValueError("closed form requires one shape and one group coordinate")
    gss, gsg, ggg = sys.g_ss[0][0].fn, sys.g_sg[0][0].fn, sys.g_gg[0][0].fn
    k = float(k)

    def tau(u):
        s = gsg(u)
        return k * sqrt(gss(u) * ggg(u) - s * s)

    return SmoothField(1, tau)


def _ode_pieces(sys: MechanicalSystem, xs: np.ndarray):
    """The metric data of the tau ODE at each shape point of xs, as arrays with
    one row per point: g11, g11', g_1a, g1' g_gg^-1 g1 and g1' g_gg^-1 g1'."""
    f11, f1, fgg = sys.g_ss[0][0], sys.g_sg[0], sys.g_gg
    ng, N = sys.dims.n_group, len(xs)
    g11, dg11 = np.empty(N), np.empty(N)
    g1, dg1 = np.empty((N, ng)), np.empty((N, ng))
    ggg = np.empty((N, ng, ng))
    for i, x in enumerate(np.asarray(xs, dtype=float).tolist()):
        u = [x]
        g11[i] = f11.value(u)
        dg11[i] = f11.d1(u)[0]
        for a in range(ng):
            g1[i, a] = f1[a].value(u)
            dg1[i, a] = f1[a].d1(u)[0]
            for b in range(ng):
                ggg[i, a, b] = fgg[a][b].value(u)
    g1_ginv = g1[:, None, :] @ np.linalg.inv(ggg)
    return (g11, dg11, g1, (g1_ginv @ g1[:, :, None])[:, 0, 0],
            (g1_ginv @ dg1[:, :, None])[:, 0, 0])


def _ode_residual(pieces, tau: np.ndarray, dtau: np.ndarray) -> np.ndarray:
    """Residual of the tau ODE, one row per point of the pieces."""
    g11, dg11, g1, gig1, gidg1 = pieces
    g11, dg11, gig1, gidg1 = (p[:, None] for p in (g11, dg11, gig1, gidg1))
    g1_dtau = (g1[:, None, :] @ dtau[:, :, None])[:, 0]
    g1_tau = (g1[:, None, :] @ tau[:, :, None])[:, 0]
    return (2.0 * tau * gidg1 + 2.0 * tau * g1_dtau - tau * dg11 + 2.0 * g11 * dtau
            - 2.0 * gig1 * dtau - 2.0 * g1_tau * dtau)


def new_tau_ode_residual(sys: MechanicalSystem, tau_fields, x) -> np.ndarray:
    """Residual of the coupled tau ODE system at x (one shape coordinate)."""
    if sys.dims.n_shape != 1:
        raise ValueError("the ODE form requires one shape coordinate")
    x = np.atleast_1d(np.asarray(x, dtype=float))
    tau = np.array([[f.value(x) for f in tau_fields]])
    dtau = np.array([[f.d1(x)[0] for f in tau_fields]])
    return _ode_residual(_ode_pieces(sys, x), tau, dtau)[0]


@dataclass
class SampledTau:
    """Numerical tau solution on a grid with cubic interpolation."""

    xs: np.ndarray
    values: np.ndarray              # (N, n_group)
    max_ode_residual: float

    def __post_init__(self):
        self._splines = [CubicSpline(self.xs, self.values[:, a])
                         for a in range(self.values.shape[1])]

    def value(self, x: float) -> np.ndarray:
        return np.array([s(x) for s in self._splines])

    def derivative(self, x: float) -> np.ndarray:
        return np.array([s(x, 1) for s in self._splines])

    def as_fields(self) -> tuple:
        return tuple((_spline_field(s),) for s in self._splines)


def _spline_field(s: CubicSpline) -> SmoothField:
    """The spline as a field of one coordinate; a jet goes through the chain
    rule with the spline's own first two derivatives."""

    def fn(u):
        x = u[0]
        if isinstance(x, Jet2):
            return chain(x, float(s(x.f)), float(s(x.f, 1)), float(s(x.f, 2)))
        return float(s(x))

    return SmoothField(1, fn)


def _slope(S0: float, r0: float, g1, tau: list, x: float) -> list:
    """tau' = tau r0 / S0, the solution of M tau' = tau r0 (see
    `TauIntegrationError`), refused when det M is below its floor."""
    ng = len(tau)
    S = S0 - 2.0 * sum(g * t for g, t in zip(g1, tau))
    try:
        det = S ** (ng - 1) * S0
        floor = 1e-14 * max(1.0, max(abs(2.0 * ti * gj + (S if i == j else 0.0))
                                     for i, ti in enumerate(tau)
                                     for j, gj in enumerate(g1)) ** ng)
    except OverflowError as exc:
        raise TauIntegrationError(x) from exc
    if not abs(det) >= floor:
        raise TauIntegrationError(x)
    out = [t * r0 / S0 for t in tau]
    if not all(math.isfinite(v) for v in out):
        raise TauIntegrationError(x)
    return out


def _tau_slope(sys: MechanicalSystem, x: np.ndarray, tau: np.ndarray) -> np.ndarray:
    """tau' at one shape point."""
    g11, dg11, g1, gig1, gidg1 = _ode_pieces(sys, x)
    return np.array(_slope(float(2.0 * g11[0] - 2.0 * gig1[0]),
                           float(dg11[0] - 2.0 * gidg1[0]), g1[0].tolist(),
                           np.asarray(tau, dtype=float).tolist(), float(x[0])))


def integrate_new_tau(sys: MechanicalSystem, tau0, x_range: tuple[float, float],
                      step: float = 1e-3, x0: float | None = None,
                      residual_tol: float = 1e-6) -> SampledTau:
    """March the solved-for tau ODE across x_range with classical RK4.

    Integration starts at x0 (default: left end) from tau0 and proceeds in
    both directions as needed.  The metric data of each march is evaluated
    once per node x0 + i h/2 (`_ode_pieces`), and every slope is the closed
    form tau' = tau r0 / S0: M tau = S0 tau, so tau scaled by r0 / S0 solves
    M tau' = tau r0 (see `TauIntegrationError` for M, S0, r0 and the
    determinant guard).  The result is spline-sampled and self-checked
    against the ODE residual at every sample, reusing the node data.
    """
    if sys.dims.n_shape != 1:
        raise ValueError("the ODE form requires one shape coordinate")
    lo, hi = float(x_range[0]), float(x_range[1])
    if not lo < hi:
        raise ValueError("empty x_range")
    if x0 is None:
        x0 = lo
    x0 = float(x0)
    tau0 = np.atleast_1d(np.asarray(tau0, dtype=float))
    ng = sys.dims.n_group
    if tau0.shape != (ng,):
        raise ValueError(f"tau0 needs {ng} values, one per group coordinate")

    def march(x_stop: float):
        """Columns over the samples x_k: x_k, tau there, then the node data."""
        n = max(1, int(np.ceil(abs(x_stop - x0) / step)))
        h = (x_stop - x0) / n
        xs = np.cumsum(np.r_[x0, np.full(n, h)])       # the floats of x = x + h
        nodes = np.empty(2 * n + 1)
        nodes[0::2] = xs
        nodes[1::2] = xs[:-1] + h / 2
        pieces = _ode_pieces(sys, nodes)
        g11, dg11, g1, gig1, gidg1 = pieces
        # memoryviews read the node data as Python floats, one at a time
        S0 = memoryview(2.0 * g11 - 2.0 * gig1)
        r0 = memoryview(dg11 - 2.0 * gidg1)
        g1v, at = memoryview(g1.ravel()), memoryview(nodes)

        def slope(i, t):
            return _slope(S0[i], r0[i], g1v[i * ng:(i + 1) * ng], t, at[i])

        vals = np.empty((n + 1, ng))
        vals[0] = t = tau0.tolist()
        for k in range(n):
            i = 2 * k
            k1 = slope(i, t)
            k2 = slope(i + 1, [a + h / 2 * b for a, b in zip(t, k1)])
            k3 = slope(i + 1, [a + h / 2 * b for a, b in zip(t, k2)])
            k4 = slope(i + 2, [a + h * b for a, b in zip(t, k3)])
            vals[k + 1] = t = [a + h / 6 * (b1 + 2 * b2 + 2 * b3 + b4)
                               for a, b1, b2, b3, b4 in zip(t, k1, k2, k3, k4)]
        return [xs, vals] + [p[0::2] for p in pieces]

    up = march(hi) if hi > x0 else None
    dn = march(lo) if lo < x0 else None
    # a direction with nothing to march holds only x0, where the other starts
    up = up or [c[:1] for c in dn]
    dn = dn or [c[:1] for c in up]
    xs, vals, *pieces = (np.concatenate([d[::-1], u[1:]]) for d, u in zip(dn, up))

    sampled = SampledTau(xs=xs, values=vals, max_ode_residual=0.0)
    res = _ode_residual(pieces, sampled.value(xs).T, sampled.derivative(xs).T)
    worst = float(np.abs(res).max())
    sampled.max_ode_residual = worst
    if not worst <= residual_tol:
        raise RuntimeError(
            f"integrated tau violates its ODE residual check: {worst:.3e} > {residual_tol:.1e}")
    return sampled
