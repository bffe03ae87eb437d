"""Pointwise residuals of the three variationality condition families.

Three engines: the multiplier (explicit) conditions on a candidate matrix
g_ij, the classical exactness conditions on an implicit covector, and the
implicit conditions on candidate Legendre components F_i.  Each family is
assembled as array algebra at one state: n x n (or n x n x n) arrays over all
index pairs, with the implicit index classes as pair masks (one table,
`_INDEX_CLASSES`).  Each entry goes through the one normalizer of every
engine, `ResidualEntry.normalized`, with the state as its single point: the
largest |residual| over max(1, magnitude of the terms entering it) is
compared with the tolerance, and raw magnitudes are kept in the report.

Every engine reads the value, gradient and Hessian of one list-valued function
at one point (Gamma, the multiplier g, Phi or F) through `jets.value_grad_hess`:
second-order jets by default, the central-difference oracle with
``backend="fd"`` as the independent cross-check path.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, reduce
from typing import Callable

import numpy as np

from .jets import value_grad_hess
from .lagrangian import (ExplicitSode, ImplicitSode, ShapingParams, SingularBlockError,
                         kinetic_matrix, legendre_covector)
from .model import Dims, MechanicalSystem, State
from .report import ResidualEntry, ResidualReport

__all__ = [
    "SodeTensors",
    "sode_tensors",
    "explicit_helmholtz_residuals",
    "exactness_residuals",
    "implicit_helmholtz_residuals",
    "multiplier_from_shaping",
    "legendre_fn",
]

DEFAULT_TOL = 1e-8


@dataclass
class SodeTensors:
    """Geometry of an explicit second-order field at one state."""

    state: State
    gamma: np.ndarray      # accelerations (n,)
    nabla: np.ndarray      # -(1/2) dGamma/dqdot  (n, n)
    jacobi: np.ndarray     # curvature-like endomorphism (n, n), rows k, cols j


def _gamma_tensors(field: ExplicitSode, state: State, backend: str):
    """(gamma, dG/dq, dG/dqd, hessians) with hessians shaped (n, 2n, 2n)."""
    n = field.n
    gamma, grads, hess = value_grad_hess(lambda u: field.gamma(u[:n], u[n:]),
                                         np.concatenate([state.q, state.qdot]), backend)
    return gamma, grads[:, :n], grads[:, n:], hess


def _at_state(name: str, residuals: np.ndarray, scales, tol: float) -> ResidualEntry:
    """`ResidualEntry.normalized` at one state, the single point of its
    point axis."""
    return ResidualEntry.normalized(name, residuals[None], [s[None] for s in scales], tol)


def sode_tensors(field: ExplicitSode, state: State, backend: str = "jet") -> SodeTensors:
    """Gamma, the nabla matrix and the curvature endomorphism at one state."""
    n = field.n
    gamma, dGq, dGqd, hess = _gamma_tensors(field, state, backend)
    # derivative of dGamma^k/dqd^j along the field
    along = np.dot(state.qdot, hess[:, :n, n:]) + np.dot(gamma, hess[:, n:, n:])
    jacobi = along - 2.0 * dGq - 0.5 * (dGqd @ dGqd)
    return SodeTensors(state=state, gamma=gamma, nabla=-0.5 * dGqd, jacobi=jacobi)


def explicit_helmholtz_residuals(field: ExplicitSode,
                                 multiplier: Callable,
                                 state: State,
                                 tol: float = DEFAULT_TOL,
                                 backend: str = "jet") -> ResidualReport:
    """Multiplier-form conditions for a candidate matrix g(q, qdot).

    ``multiplier(q_coords, qd_coords)`` must return an n x n nested list and
    be generic over floats/jets.  Regularity (|det g|) is reported against the
    floor 1e-12, not treated as a residual.
    """
    n = field.n
    vals, grads, _ = value_grad_hess(
        lambda u: [gij for row in multiplier(u[:n], u[n:]) for gij in row],
        np.concatenate([state.q, state.qdot]), backend)
    gval = vals.reshape(n, n)
    g_q = grads[:, :n].reshape(n, n, n)
    g_qd = grads[:, n:].reshape(n, n, n)

    tens = sode_tensors(field, state, backend=backend)
    report = ResidualReport("explicit multiplier conditions")

    report.add(_at_state("symmetry", gval - gval.T, [gval], tol))
    report.add(_at_state("velocity_symmetry", g_qd - g_qd.swapaxes(1, 2), [g_qd], tol))
    # derivative of g_ij along the field against its two nabla terms
    along = np.dot(g_q, state.qdot) + np.dot(g_qd, tens.gamma)
    t1 = gval @ tens.nabla
    t2 = tens.nabla.T @ gval
    report.add(_at_state("metric_transport", along - t1 - t2, [along, t1, t2], tol))
    gphi = gval @ tens.jacobi
    report.add(_at_state("jacobi_symmetry", gphi - gphi.T, [gphi], tol))

    det, det_floor = float(np.linalg.det(gval)), 1e-12
    report.add(ResidualEntry(name="regularity", value=abs(det), tol=det_floor,
                             passed=bool(abs(det) > det_floor), residual=False,
                             note="pass iff |det g| above floor"))
    return report


def exactness_residuals(field: ImplicitSode, state: State, accel: np.ndarray,
                        tol: float = DEFAULT_TOL,
                        backend: str = "jet") -> ResidualReport:
    """Classical exactness conditions on Phi(q, qd, qdd).

    The total time derivative is expanded along the jet (q, qd, qdd supplied,
    jerk obtained by differentiating the acceleration solve along the flow).
    """
    n = field.n
    q, qd = state.q, state.qdot
    qdd = np.asarray(accel, dtype=float)

    _, grads, hess = value_grad_hess(lambda u: field.phi(u[:n], u[n:2 * n], u[2 * n:]),
                                     np.concatenate([q, qd, qdd]), backend)

    Pq, Pqd, C = grads[:, :n], grads[:, n:2 * n], grads[:, 2 * n:]
    _, dGq, dGqd, _ = _gamma_tensors(field.to_explicit(), state, backend)
    jerk = dGq @ qd + dGqd @ qdd

    # d/dt along the jet of dPhi_i/dqd_j (columns :n) and dPhi_i/dqdd_j (n:)
    ddt = np.dot(hess[:, n:, :n], qd) + np.dot(hess[:, n:, n:2 * n], qdd) \
        + np.dot(hess[:, n:, 2 * n:], jerk)
    b = 0.5 * (ddt[:, :n] - ddt[:, :n].T)
    dd = ddt[:, n:] + ddt[:, n:].T

    return ResidualReport("exactness conditions", [
        _at_state("accel_symmetry", C - C.T, [C], tol),
        _at_state("position_exactness", Pq - Pq.T - b, [Pq, b], tol),
        _at_state("velocity_exactness", Pqd + Pqd.T - dd, [Pqd, dd], tol)])


# The index classes of the implicit families, as (family, label, row block,
# column block, smallest j - i of a pair (i, j)): a block is the shape
# (alpha) or the group (a) indices, shape first.  BB and AA are
# antisymmetric, so they take each unordered pair once.
_INDEX_CLASSES = (
    ("BB", "ab", "a", "a", 0), ("BB", "a_beta", "alpha", "a", 0),
    ("BB", "alpha_beta", "alpha", "alpha", 0),
    ("AB", "ab", "a", "a", None), ("AB", "a_beta", "a", "alpha", None),
    ("AB", "alpha_b", "alpha", "a", None), ("AB", "alpha_beta", "alpha", "alpha", None),
    ("AA", "ab", "a", "a", 1), ("AA", "alpha_b", "alpha", "a", 1),
    ("AA", "alpha_beta", "alpha", "alpha", 1),
)


@lru_cache(maxsize=None)
def _class_masks(n: int, n_shape: int) -> tuple:
    """(family, entry name, (n, n) mask of its pairs, or None when empty) for
    each index class at these dims; the cached masks are read-only."""
    block = {"alpha": np.arange(n) < n_shape}
    block["a"] = ~block["alpha"]
    out = []
    for fam, lbl, rows, cols, gap in _INDEX_CLASSES:
        pairs = np.outer(block[rows], block[cols])
        if gap is not None:
            pairs = np.triu(pairs, gap)
        pairs.flags.writeable = False
        out.append((fam, f"{fam}_{lbl}", pairs if pairs.any() else None))
    return tuple(out)


def implicit_helmholtz_residuals(field: ImplicitSode,
                                 F: Callable,
                                 state: State,
                                 dims: Dims,
                                 tol: float = DEFAULT_TOL,
                                 backend: str = "jet",
                                 accel: np.ndarray | None = None) -> ResidualReport:
    """Implicit conditions on candidate Legendre components F(q, qdot).

    Accelerations default to the on-shell solve; the report splits every
    equation family by index class (group/shape block of each index).
    """
    n = field.n
    q, qd = state.q, state.qdot
    qdd = field.solve_accel(state) if accel is None else np.asarray(accel, dtype=float)

    u0 = np.concatenate([q, qd])
    _, gF, hF = value_grad_hess(lambda u: F(u[:n], u[n:]), u0, backend)
    Fq, Fqd = gF[:, :n], gF[:, n:]
    F_qq, F_qdqd = hF[:, :n, :n], hF[:, n:, n:]
    F_qdq = hF[:, n:, :n]       # [i, j(qd), k(q)]
    _, gP, _ = value_grad_hess(lambda u: field.phi(u[:n], u[n:], list(qdd)), u0, backend)
    Phiq, Phiqd = gP[:, :n], gP[:, n:]

    try:
        Cinv = np.linalg.inv(field.accel_matrix_floats(q))
    except np.linalg.LinAlgError as exc:
        raise SingularBlockError("C") from exc
    FqdC = Fqd @ Cinv

    # each family as (residual, largest |term| entering it) over all ordered
    # pairs (i, j)
    def top(terms):
        return reduce(np.maximum, map(np.abs, terms))

    t = [np.dot(F_qdq, qd), Fq, np.dot(F_qdqd, qdd), Fq.T, FqdC @ Phiqd]
    h = [np.dot(F_qq, qd), np.dot(qdd, F_qdq), FqdC @ Phiq]
    half = h[0] + h[1] - h[2]
    families = {"BB": (Fqd - Fqd.T, top([Fqd, Fqd.T])),
                "AB": (t[0] + t[1] + t[2] - t[3] - t[4], top(t)),
                "AA": (half - half.T, top(h + [hk.T for hk in h]))}

    report = ResidualReport("implicit conditions")
    for fam, name, pairs in _class_masks(n, dims.n_shape):
        if pairs is None:
            report.add(ResidualEntry.skip(name, "index class empty at these dims"))
        else:
            res, scale = families[fam]
            report.add(_at_state(name, res[pairs], [scale[pairs]], tol))
    return report


def multiplier_from_shaping(sys: MechanicalSystem, shaping: ShapingParams) -> Callable:
    """Velocity Hessian of the controlled Lagrangian as a multiplier candidate."""

    ns = sys.dims.n_shape

    def multiplier(q_coords, qd_coords):
        return kinetic_matrix(sys, shaping, list(q_coords[:ns]))

    return multiplier


def legendre_fn(sys: MechanicalSystem, shaping: ShapingParams) -> Callable:
    """Legendre components of the controlled Lagrangian as a candidate F."""

    def F(q_coords, qd_coords):
        return legendre_covector(sys, shaping, list(q_coords), list(qd_coords))

    return F
