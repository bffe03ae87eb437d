"""Matching-condition checkers and synthesis of the shape-dependent feedback
one-form, including the ODE route that generalizes the classical closed-form
choice.

Conditions are identities in the shape variables; "holds" means the residual
stays below tolerance on a user grid (41 uniform points by default).  Each
checker, and the tau-ODE residual, takes one shape point or a whole grid of
them: the metric and tau data come from one array-jet pass of each field over
all the points, and the small per-point algebra runs on stacks with the point
axis first, giving every point the floats of a one-point call.  Every entry
goes through `ResidualEntry.normalized`, so a grid report holds what
`ResidualReport.merge_max` makes of the one-point reports.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import fields as fl
from .fields import Curve, SmoothField
from .jets import jet_vars, solve_generic, sqrt
from .lagrangian import ShapingParams, singular_point
from .model import MechanicalSystem
from .report import ResidualEntry, ResidualReport

__all__ = [
    "MATCHING_TOL",
    "TAU_RESIDUAL_TOL",
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
TAU_RESIDUAL_TOL = 1e-6     # bound of an integrated tau's ODE residual self-check


class TauIntegrationError(RuntimeError):
    """The coefficient matrix of tau' became singular during integration.

    With one shape coordinate the tau ODE reads M tau' = tau r0, where
    S0 = 2(g11 - g1' g_gg^-1 g1), r0 = g11' - 2 g1' g_gg^-1 g1' and
    M = (S0 - 2 g1'tau) I + 2 tau g1'.  By the matrix determinant lemma
    det M = (S0 - 2 g1'tau)^(ng-1) S0; the slope is refused when that falls
    below 1e-14 max(1, max|M|^ng), when one of the two powers overflows, or
    when the slope is not finite.  `integrate_new_tau` checks every RK4 stage
    of a march after marching, in numpy blocks of stages, and raises at the x
    of the first refused stage in march order, which is where a check before
    each stage would have stopped; a node with S0 = 0 is always refused.
    """

    def __init__(self, x: float):
        super().__init__(f"coefficient of tau' singular near x = {x:.6g}")
        self.x = x


def default_grid(lo: float = -1.3, hi: float = 1.3, n: int = 41) -> np.ndarray:
    return np.linspace(lo, hi, n)


def _inverse(blocks: np.ndarray, name: str, xs: np.ndarray) -> np.ndarray:
    """Inverses of a stack of blocks, one per shape point of xs (N, ns).

    A singular block raises a ValueError naming the block and the first point
    where it is singular (where the LU factorization meets a zero pivot)."""
    try:
        return np.linalg.inv(blocks)
    except np.linalg.LinAlgError as exc:
        first = singular_point(blocks)
        where = ", ".join(f"{v:.6g}" for v in xs[first])
        raise ValueError(f"{name} is singular at x = {where}") from exc


def _point_data(sys: MechanicalSystem, shaping: ShapingParams, x):
    """x as a grid (N, ns) of shape points, one point (ns,) as N = 1, and the
    metric and tau data there with one row per point: g_sg (N, ns, ng), g_gg
    (N, ng, ng), their x-derivatives (N, ng, ng, ns) and (N, ns, ng, ns), tau
    (N, ng, ns) and its x-derivatives (N, ng, ns, ns), from one array-jet pass
    of each distinct field (`fields.eval_blocks`)."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    (gsg, dsg), (ggg, dgg), (tau, dtau) = fl.eval_blocks([sys.g_sg, sys.g_gg, shaping.tau], x)
    return x, gsg, ggg, dgg, dsg, tau, dtau


def _m1_m2(shaping: ShapingParams, x: np.ndarray, gsg: np.ndarray, ggg: np.ndarray,
           dgg: np.ndarray, tau: np.ndarray, tol: float, names: tuple[str, str]):
    """The first two matching conditions (constant sigma) on the point data of
    `_point_data`, reported under ``names``, and g_gg^-1 at each point."""
    try:
        sigma_inv = np.linalg.inv(shaping.sigma)
    except np.linalg.LinAlgError as exc:
        raise ValueError("sigma must be invertible for the matching conditions") from exc
    ggg_inv = _inverse(ggg, "g_gg", x)
    m1 = tau + np.einsum("ab,nla->nbl", sigma_inv, gsg)
    # sigma constant, so only the metric-derivative terms survive
    m2 = np.einsum("bd,nadl->nbal", sigma_inv, dgg) \
        - 2.0 * np.einsum("nbd,nadl->nbal", ggg_inv, dgg)
    return [ResidualEntry.normalized(names[0], m1, [tau, gsg], tol),
            ResidualEntry.normalized(names[1], m2, [dgg], tol)], ggg_inv


def matching_residuals(sys: MechanicalSystem, shaping: ShapingParams,
                       x, tol: float = MATCHING_TOL) -> ResidualReport:
    """The three matching conditions (constant sigma) at shape point x (ns,),
    or their worst case over a grid x (N, ns)."""
    x, gsg, ggg, dgg, dsg, tau, dtau = _point_data(sys, shaping, x)
    n, ns, ng = len(x), sys.dims.n_shape, sys.dims.n_group
    entries, ggg_inv = _m1_m2(shaping, x, gsg, ggg, dgg, tau, tol, ("M1", "M2"))
    report = ResidualReport("matching conditions", entries)

    m3 = np.zeros((n, ng, ns, ns))
    for b in range(ng):
        for al in range(ns):
            for be in range(ns):
                m3[:, b, al, be] = dtau[:, b, al, be] - dtau[:, b, be, al] \
                    - sum(ggg_inv[:, d, b] * dgg[:, a, d, al] * tau[:, a, be]
                          for a in range(ng) for d in range(ng))
    report.add(ResidualEntry.normalized("M3", m3, [dtau, dgg], tol))
    return report


def fit_scalar_sigma(shaping: ShapingParams, ggg: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Least-squares scalar s with sigma ~ s*g_gg and the max deviation, one
    of each per block of a stack ggg (N, ng, ng)."""
    denom = np.sum(ggg * ggg, axis=(1, 2))
    s = np.sum(shaping.sigma * ggg, axis=(1, 2)) / denom
    dev = np.abs(shaping.sigma - s[:, None, None] * ggg).max(axis=(1, 2))
    return s, dev


def simplified_matching_residuals(sys: MechanicalSystem, shaping: ShapingParams,
                                  x, tol: float = MATCHING_TOL) -> ResidualReport:
    """The simplified conditions at shape point x (ns,), or their worst case
    over a grid x (N, ns); the potential condition is checked only for
    symmetry-breaking systems, at group coordinates 0."""
    x, gsg, ggg, dgg, dsg, tau, dtau = _point_data(sys, shaping, x)
    n, ns, ng = len(x), sys.dims.n_shape, sys.dims.n_group
    report = ResidualReport("simplified matching conditions")

    s_hat, dev = fit_scalar_sigma(shaping, ggg)
    sigma_top = np.abs(shaping.sigma).max()
    ggg_top = np.abs(ggg).max(axis=(1, 2))
    # SM1 is normalized in place: SM3 reads its verdict at each point
    top = np.where(ggg_top > sigma_top, ggg_top, sigma_top)
    sm1 = dev / np.where(top > 1.0, top, 1.0)
    report.add(ResidualEntry.max_over("SM1", sm1, tol, dev))

    report.add(ResidualEntry.normalized("SM2", dgg, [ggg], tol))

    # SM3 is skipped at a point where SM1 fails or s = 0; g_gg is inverted
    # only where SM3 or SM5 reads it
    skip = ~(sm1 <= tol) | (s_hat == 0.0)
    needed = ~skip | sys.breaks_group_symmetry
    ggg_inv = _inverse(np.where(needed[:, None, None], ggg, np.eye(ng)), "g_gg", x)
    sm3 = tau + (1.0 / np.where(skip, 1.0, s_hat))[:, None, None] \
        * np.einsum("nab,nla->nbl", ggg_inv, gsg)
    report.add(ResidualEntry.normalized("SM3", sm3, [tau, gsg], tol, skip,
                                        "sigma not a scalar multiple of g_gg"))

    sm4 = dsg - dsg.swapaxes(1, 3)
    report.add(ResidualEntry.normalized("SM4", sm4, [dsg], tol))

    if not sys.breaks_group_symmetry:
        report.add(ResidualEntry.skip("SM5", "group symmetry unbroken"))
    else:
        m = ns + ng
        q = np.concatenate([x, np.zeros((n, ng))], axis=1)
        v2 = np.broadcast_to(sys.V.eval_jet(jet_vars(q.T)).h.reshape(m, m, -1), (m, m, n))
        mixed = np.ascontiguousarray(np.moveaxis(v2, -1, 0))[:, :ns, ns:]    # V_{,alpha a}
        proj = mixed @ ggg_inv @ gsg.swapaxes(1, 2)         # V_{,alpha a} g^{ad} g_{beta d}
        sm5 = proj - proj.swapaxes(1, 2)
        report.add(ResidualEntry.normalized("SM5", sm5, [proj], tol))
    return report


def generalized_matching_residuals(sys: MechanicalSystem, shaping: ShapingParams,
                                   x, tol: float = MATCHING_TOL) -> ResidualReport:
    """The generalized conditions (modified vertical metric) at shape point x
    (ns,), or their worst case over a grid x (N, ns)."""
    x, gsg, ggg, dgg, dsg, tau, dtau = _point_data(sys, shaping, x)
    n, ns, ng = len(x), sys.dims.n_shape, sys.dims.n_group
    entries, ggg_inv = _m1_m2(shaping, x, gsg, ggg, dgg, tau, tol, ("GM1", "GM2"))
    report = ResidualReport("generalized matching conditions", entries)

    # g_rho = rho g_gg, so varpi_{ab,alpha} = (rho-1) g_{ab,alpha}
    g_rho = shaping.rho * ggg
    dvarpi = (shaping.rho - 1.0) * dgg
    varpi = g_rho - ggg
    report.add(ResidualEntry.normalized("GM3", dvarpi, [varpi], tol))

    rho_inv = _inverse(g_rho, "g_rho", x)
    dginv = -np.einsum("nae,nefl,nfc->nacl", ggg_inv, dgg, ggg_inv)
    zeta = np.einsum("nac,nlc->nal", ggg_inv, gsg)          # zeta^a_alpha
    dzeta = np.zeros((n, ng, ns, ns))
    for a in range(ng):
        for al in range(ns):
            for de in range(ns):
                dzeta[:, a, al, de] = sum(dginv[:, a, c, de] * gsg[:, al, c] for c in range(ng)) \
                    + sum(ggg_inv[:, a, c] * dsg[:, al, c, de] for c in range(ng))

    gm4 = np.zeros((n, ng, ns, ns))
    for b in range(ng):
        for al in range(ns):
            for de in range(ns):
                term = dtau[:, b, al, de] - dtau[:, b, de, al]
                term += sum(varpi[:, a, d] * rho_inv[:, b, d]
                            * (dzeta[:, a, al, de] - dzeta[:, a, de, al])
                            for a in range(ng) for d in range(ng))
                term -= sum(varpi[:, a, d] * rho_inv[:, d, c] * dgg[:, c, e, de]
                            * rho_inv[:, e, b] * zeta[:, a, al]
                            for a in range(ng) for d in range(ng)
                            for c in range(ng) for e in range(ng))
                term -= sum(rho_inv[:, d, b] * dgg[:, a, d, al] * tau[:, a, de]
                            for a in range(ng) for d in range(ng))
                gm4[:, b, al, de] = term
    report.add(ResidualEntry.normalized("GM4", gm4, [dtau, dgg, zeta], tol))
    return report


def check_on_grid(fn, sys: MechanicalSystem, shaping: ShapingParams,
                  xs: Sequence, **kwargs) -> ResidualReport:
    """Worst case of a matching engine over a grid of shape points: one call
    of ``fn`` on the points stacked as (N, ns), whose report holds what
    `ResidualReport.merge_max` makes of the one-point reports."""
    report = fn(sys, shaping, np.asarray(xs, dtype=float).reshape(len(xs), -1), **kwargs)
    report.title += " (grid max)"
    return report


# ---------------------------------------------------------------------------
# tau synthesis
# ---------------------------------------------------------------------------

def matrix_inverse_fields(block, arity: int):
    """Entrywise SmoothFields of the inverse of a matrix of SmoothFields.

    A constant block folds to constant entries; otherwise each entry solves
    the block by elimination over floats or jets, so derivatives are exact.
    The block's entries are operands read through `fields._at`, so that one
    `fields.read_at` pass evaluates each distinct one once.
    """
    ng = len(block)
    if all(f.const is not None for row in block for f in row):
        K = np.linalg.inv(np.array([[f.const for f in row] for row in block]))
        return tuple(tuple(fl.constant(K[a, b], arity) for b in range(ng)) for a in range(ng))

    def make(a: int, b: int) -> SmoothField:
        e = [1.0 if i == b else 0.0 for i in range(ng)]
        return SmoothField(arity, lambda u: solve_generic([[fl._at(f, u) for f in row]
                                                           for row in block], e)[a])

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
    one row per point: g11, g11', g_1a, g1' g_gg^-1 g1 and g1' g_gg^-1 g1'.

    Each distinct metric field makes one array-jet pass over all of xs
    (`fields.eval_blocks`), which gives its values (the floats of a float
    pass) and its derivative."""
    xs = np.asarray(xs, dtype=float)[:, None]
    (gss, dgss), (gsg, dgsg), (ggg, _) = fl.eval_blocks([sys.g_ss, sys.g_sg, sys.g_gg], xs)
    g1, dg1 = gsg[:, 0], dgsg[:, 0, :, 0]
    g1_ginv = g1[:, None, :] @ _inverse(ggg, "g_gg", xs)
    return (gss[:, 0, 0], dgss[:, 0, 0, 0], g1, (g1_ginv @ g1[:, :, None])[:, 0, 0],
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
    """Residual of the coupled tau ODE system (one shape coordinate), one
    entry per group coordinate, at a shape point x (1,), or one row per point
    of a grid x (N, 1): one `_ode_pieces` pass and one array-jet pass of each
    tau field for the whole grid."""
    if sys.dims.n_shape != 1:
        raise ValueError("the ODE form requires one shape coordinate")
    xs = np.atleast_2d(np.asarray(x, dtype=float))
    ((tau, dtau),) = fl.eval_blocks([[tau_fields]], xs)
    res = _ode_residual(_ode_pieces(sys, xs[:, 0]), tau[:, 0], dtau[:, 0, :, 0])
    return res if np.ndim(x) == 2 else res[0]


@dataclass
class SampledTau:
    """Numerical tau solution on a grid with cubic interpolation: one
    `fields.Curve` per group coordinate."""

    xs: np.ndarray
    values: np.ndarray              # (N, n_group)
    max_ode_residual: float

    def __post_init__(self):
        self._curves = [Curve(self.xs, self.values[:, a]) for a in range(self.values.shape[1])]

    def value(self, x: float) -> np.ndarray:
        return np.array([c.read(x) for c in self._curves])

    def derivative(self, x: float) -> np.ndarray:
        return np.array([c.read(x, 1) for c in self._curves])

    def as_fields(self) -> tuple:
        """Each curve as a field of one coordinate, read at a float, an array
        or a jet by the curve."""
        return tuple((SmoothField(1, lambda u, c=c: c(u[0])),) for c in self._curves)


_GUARD_BLOCK = 2048                     # stages per numpy block of the march's guard
_STAGE_NODE = np.array([0, 1, 1, 2])    # node of each RK4 stage, from the step's first


def _float_pow(v: np.ndarray, e: int) -> np.ndarray:
    """v ** e elementwise as Python floats take it, with an overflow as inf.

    Python's power is libm's pow, which numpy's power and square do not
    always match to the ulp; exponents 0 and 1 are exact in both."""
    if e < 2:
        return v ** e
    out = np.empty_like(v)
    for i, b in enumerate(v.tolist()):
        try:
            out[i] = b ** e
        except OverflowError:
            out[i] = math.inf
    return out


def _checked_slopes(S0: np.ndarray, r0: np.ndarray, g1: np.ndarray, tau: np.ndarray,
                    x: np.ndarray) -> np.ndarray:
    """tau' = tau r0 / S0 at a run of RK4 stages, one row each in march order:
    the solution of M tau' = tau r0 (see `TauIntegrationError`).

    Raises `TauIntegrationError` at the x of the first stage whose det M is
    below its floor, whose powers overflow, or whose slope is not finite.
    Each stage is decided with the floats of a per-stage float check: powers
    are Python's, and max|M| is Python's max, which keeps a NaN only when it
    is the first entry."""
    n, ng = tau.shape
    diag = np.arange(ng)
    with np.errstate(all="ignore"):
        dot = 0.0
        for a in range(ng):
            dot = dot + g1[:, a] * tau[:, a]
        S = S0 - 2.0 * dot
        S_pow = _float_pow(S, ng - 1)
        det = S_pow * S0
        M = 2.0 * tau[:, :, None] * g1[:, None, :]
        M[:, diag, diag] += S[:, None]
        entries = np.abs(M).reshape(n, ng * ng)
        top = np.fmax.reduce(entries, axis=1)
        top[np.isnan(entries[:, 0])] = np.nan
        top_pow = _float_pow(top, ng)
        floor = 1e-14 * np.where(top_pow > 1.0, top_pow, 1.0)
        out = tau * r0[:, None] / S0[:, None]
        bad = ((np.isfinite(S) & np.isinf(S_pow)) | (np.isfinite(top) & np.isinf(top_pow))
               | ~(np.abs(det) >= floor) | ~np.isfinite(out).all(axis=1))
    if bad.any():
        raise TauIntegrationError(float(x[bad.argmax()]))
    return out


def _tau_slope(sys: MechanicalSystem, x: np.ndarray, tau: np.ndarray) -> np.ndarray:
    """tau' at one shape point."""
    g11, dg11, g1, gig1, gidg1 = _ode_pieces(sys, x)
    tau = np.asarray(tau, dtype=float)[None, :]
    return _checked_slopes(2.0 * g11 - 2.0 * gig1, dg11 - 2.0 * gidg1, g1, tau, x)[0]


def integrate_new_tau(sys: MechanicalSystem, tau0, x_range: tuple[float, float],
                      step: float = 1e-3, x0: float | None = None) -> SampledTau:
    """March the solved-for tau ODE across x_range with classical RK4.

    Integration starts at x0 (default: left end) from tau0 and proceeds in
    both directions as needed.  The metric data of each march comes from one
    array-jet pass of each metric field over the nodes x0 + i h/2
    (`_ode_pieces`), and every slope is the closed form tau' = tau r0 / S0:
    M tau = S0 tau, so tau scaled by r0 / S0 solves M tau' = tau r0 (see
    `TauIntegrationError` for M, S0, r0 and the determinant guard).  That
    slope scales each component on its own, so each group coordinate marches
    as a plain-float recurrence that records its four stage states per step;
    the guard then checks the recorded stages (`_checked_slopes`).  The
    result is spline-sampled and self-checked against the ODE residual at
    every sample, reusing the node data, which must stay within
    `TAU_RESIDUAL_TOL`.
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
        S0 = 2.0 * g11 - 2.0 * gig1
        r0 = dg11 - 2.0 * gidg1
        # a node with S0 = 0 fails the guard at its first stage, so the march
        # stops after that stage's step, dividing by NaN there instead of 0
        zero = np.flatnonzero(S0 == 0.0)
        steps = max(1, (int(zero[0]) + 1) // 2) if zero.size else n
        R, D = r0.tolist(), np.where(S0 == 0.0, np.nan, S0).tolist()
        h2, h6 = h / 2, h / 6
        cols, recs = [], []
        for t in tau0.tolist():
            # each component of tau' = tau r0 / S0 scales on its own
            col, rec = array("d", [t]), array("d")
            for i in range(0, 2 * steps, 2):
                k1 = t * R[i] / D[i]
                t2 = t + h2 * k1
                k2 = t2 * R[i + 1] / D[i + 1]
                t3 = t + h2 * k2
                k3 = t3 * R[i + 1] / D[i + 1]
                t4 = t + h * k3
                k4 = t4 * R[i + 2] / D[i + 2]
                rec.extend((t, t2, t3, t4))
                t = t + h6 * (k1 + 2 * k2 + 2 * k3 + k4)
                col.append(t)
            cols.append(col)
            recs.append(rec)
        stages = np.stack([np.frombuffer(rec) for rec in recs], axis=1)
        for start in range(0, len(stages), _GUARD_BLOCK):
            s = np.arange(start, min(start + _GUARD_BLOCK, len(stages)))
            i = 2 * (s // 4) + _STAGE_NODE[s % 4]
            _checked_slopes(S0[i], r0[i], g1[i], stages[s], nodes[i])
        vals = np.stack([np.frombuffer(col) for col in cols], axis=1)
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
    if not worst <= TAU_RESIDUAL_TOL:
        raise RuntimeError(f"integrated tau violates its ODE residual check: "
                           f"{worst:.3e} > {TAU_RESIDUAL_TOL:.1e}")
    return sampled
