"""Pointwise matching-condition checkers and synthesis of the shape-dependent
feedback one-form, including the ODE route that generalizes the classical
closed-form choice.

Conditions are identities in the shape variables; "holds" means the residual
stays below tolerance on a user grid (41 uniform points by default).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.interpolate import CubicSpline

from . import fields as fl
from .fields import SmoothField
from .jets import solve_generic, sqrt
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
    """Solved-for coefficient became singular during integration."""

    def __init__(self, x: float):
        super().__init__(f"coefficient of tau' singular near x = {x:.6g}")
        self.x = x


def default_grid(lo: float = -1.3, hi: float = 1.3, n: int = 41) -> np.ndarray:
    return np.linspace(lo, hi, n)


def _norm_entry(name: str, residuals, scales, tol: float) -> ResidualEntry:
    raw = float(np.max(np.abs(residuals))) if np.size(residuals) else 0.0
    scale = max(1.0, float(np.max(np.abs(scales)))) if np.size(scales) else 1.0
    return ResidualEntry.from_value(name, raw / scale, tol, raw=raw)


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
    report.add(_norm_entry("M1", m1, [np.abs(tau).max(), np.abs(gsg).max()], tol))

    # sigma constant, so only the metric-derivative terms survive
    m2 = np.einsum("bd,adl->bal", sigma_inv, dgg) - 2.0 * np.einsum("bd,adl->bal", ggg_inv, dgg)
    report.add(_norm_entry("M2", m2, [np.abs(dgg).max()], tol))

    m3 = np.zeros((ng, ns, ns))
    for b in range(ng):
        for al in range(ns):
            for be in range(ns):
                m3[b, al, be] = dtau[b, al, be] - dtau[b, be, al] \
                    - sum(ggg_inv[d, b] * dgg[a, d, al] * tau[a, be]
                          for a in range(ng) for d in range(ng))
    report.add(_norm_entry("M3", m3, [np.abs(dtau).max(), np.abs(dgg).max()], tol))
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
    sm1 = _norm_entry("SM1", [dev], [sm1_scale], tol)
    report.add(sm1)

    report.add(_norm_entry("SM2", dgg, [np.abs(ggg).max()], tol))

    if not sm1.passed or s_hat == 0.0:
        report.add(ResidualEntry.skip("SM3", "sigma not a scalar multiple of g_gg"))
    else:
        ggg_inv = np.linalg.inv(ggg)
        sm3 = tau + (1.0 / s_hat) * np.einsum("ab,la->bl", ggg_inv, gsg)
        report.add(_norm_entry("SM3", sm3, [np.abs(tau).max(), np.abs(gsg).max()], tol))

    sm4 = np.zeros((ns, ng, ns))
    for al in range(ns):
        for a in range(ng):
            for de in range(ns):
                sm4[al, a, de] = dsg[al, a][de] - dsg[de, a][al]
    report.add(_norm_entry("SM4", sm4, [np.abs(dsg).max()], tol))

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
        report.add(_norm_entry("SM5", sm5, [np.abs(proj).max()], tol))
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
    report.add(_norm_entry("GM3", dvarpi, [np.abs(varpi).max(), 1.0], tol))

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
    report.add(_norm_entry("GM4", gm4, [np.abs(dtau).max(), np.abs(dgg).max(),
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


def _ode_pieces(sys: MechanicalSystem, x: np.ndarray):
    g11 = sys.gss(x)[0, 0]
    dg11 = sys.g_ss[0][0].d1(x)[0]
    ng = sys.dims.n_group
    g1 = sys.gsg(x)[0]                       # g_{1 a}
    dg1 = np.array([sys.g_sg[0][a].d1(x)[0] for a in range(ng)])
    ggg = sys.ggg(x)
    ginv = np.linalg.inv(ggg)
    return g11, dg11, g1, dg1, ginv


def new_tau_ode_residual(sys: MechanicalSystem, tau_fields, x) -> np.ndarray:
    """Residual of the coupled tau ODE system at x (one shape coordinate)."""
    if sys.dims.n_shape != 1:
        raise ValueError("the ODE form requires one shape coordinate")
    x = np.atleast_1d(np.asarray(x, dtype=float))
    ng = sys.dims.n_group
    g11, dg11, g1, dg1, ginv = _ode_pieces(sys, x)
    tau = np.array([f.value(x) for f in tau_fields])
    dtau = np.array([f.d1(x)[0] for f in tau_fields])
    res = np.zeros(ng)
    for a in range(ng):
        term = 2.0 * tau[a] * float(g1 @ ginv @ dg1)
        term += 2.0 * tau[a] * float(g1 @ dtau)
        term -= tau[a] * dg11
        term += 2.0 * g11 * dtau[a]
        term -= 2.0 * float(g1 @ ginv @ g1) * dtau[a]
        term -= 2.0 * float(g1 @ tau) * dtau[a]
        res[a] = term
    return res


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
        out = []
        for s in self._splines:
            out.append((fl.primitive(1, lambda u, s=s: float(s(u[0])),
                                     lambda u, s=s: np.array([float(s(u[0], 1))]),
                                     lambda u, s=s: np.array([[float(s(u[0], 2))]])),))
        return tuple(out)


def _tau_slope(sys: MechanicalSystem, x: np.ndarray, tau: np.ndarray) -> np.ndarray:
    """Solve the coupled linear system for tau' at one point."""
    ng = tau.shape[0]
    g11, dg11, g1, dg1, ginv = _ode_pieces(sys, x)
    S = 2.0 * g11 - 2.0 * float(g1 @ ginv @ g1) - 2.0 * float(g1 @ tau)
    M = 2.0 * np.outer(tau, g1) + S * np.eye(ng)
    rhs = tau * (dg11 - 2.0 * float(g1 @ ginv @ dg1))
    try:
        sol = np.linalg.solve(M, rhs)
    except np.linalg.LinAlgError as exc:
        raise TauIntegrationError(float(x[0])) from exc
    if not np.all(np.isfinite(sol)) or abs(np.linalg.det(M)) < 1e-14 * max(1.0, np.abs(M).max() ** ng):
        raise TauIntegrationError(float(x[0]))
    return sol


def integrate_new_tau(sys: MechanicalSystem, tau0, x_range: tuple[float, float],
                      step: float = 1e-3, x0: float | None = None,
                      residual_tol: float = 1e-6) -> SampledTau:
    """March the solved-for tau ODE across x_range with classical RK4.

    Integration starts at x0 (default: left end) from tau0 and proceeds in
    both directions as needed.  The result is spline-sampled and self-checked
    against the ODE residual.
    """
    if sys.dims.n_shape != 1:
        raise ValueError("the ODE form requires one shape coordinate")
    lo, hi = float(x_range[0]), float(x_range[1])
    if not lo < hi:
        raise ValueError("empty x_range")
    if x0 is None:
        x0 = lo
    tau0 = np.atleast_1d(np.asarray(tau0, dtype=float))

    def march(x_start: float, x_stop: float, t_start: np.ndarray):
        n = max(1, int(np.ceil(abs(x_stop - x_start) / step)))
        h = (x_stop - x_start) / n
        xs = [x_start]
        ts = [t_start.copy()]
        x, t = x_start, t_start.copy()
        for _ in range(n):
            k1 = _tau_slope(sys, np.array([x]), t)
            k2 = _tau_slope(sys, np.array([x + h / 2]), t + h / 2 * k1)
            k3 = _tau_slope(sys, np.array([x + h / 2]), t + h / 2 * k2)
            k4 = _tau_slope(sys, np.array([x + h]), t + h * k3)
            t = t + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
            x = x + h
            xs.append(x)
            ts.append(t.copy())
        return np.array(xs), np.array(ts)

    xs_up, ts_up = march(x0, hi, tau0) if hi > x0 else (np.array([x0]), tau0[None, :])
    xs_dn, ts_dn = march(x0, lo, tau0) if lo < x0 else (np.array([x0]), tau0[None, :])
    xs = np.concatenate([xs_dn[::-1], xs_up[1:]])
    vals = np.concatenate([ts_dn[::-1], ts_up[1:]])

    sampled = SampledTau(xs=xs, values=vals, max_ode_residual=0.0)
    fields = [row[0] for row in sampled.as_fields()]
    worst = 0.0
    for x in xs:
        r = new_tau_ode_residual(sys, fields, np.array([x]))
        worst = max(worst, float(np.abs(r).max()))
    sampled.max_ode_residual = worst
    if worst > residual_tol:
        raise RuntimeError(
            f"integrated tau violates its ODE residual check: {worst:.3e} > {residual_tol:.1e}")
    return sampled
