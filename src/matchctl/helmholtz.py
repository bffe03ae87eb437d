"""Pointwise residuals of the three variationality condition families.

Three engines: the multiplier (explicit) conditions on a candidate matrix
g_ij, the classical exactness conditions on an implicit covector, and the
implicit conditions on candidate Legendre components F_i.  Each engine takes
a `State` of one state (n,) or of N states (N, n) and assembles its families
as array algebra at N states: n x n (or n x n x n) arrays over all index
pairs, with the point axis first, and the implicit index classes as pair masks
(one table, `_INDEX_CLASSES`).  One state is the N = 1 case.  Each entry goes
through the one normalizer of every engine, `ResidualEntry.normalized`: at
each state the largest |residual| over max(1, magnitude of the terms entering
it), merged over the states as `ResidualReport.merge_max` merges one-state
reports, and compared with the tolerance; raw magnitudes are kept in the
report.

Every engine reads the values, gradients and Hessians of one list-valued
function (Gamma, the multiplier g, Phi or F) at all its states in one pass
through `jets.value_grad_hess`: second-order jets by default (array jets over
N states), the central-difference oracle with ``backend="fd"`` as the
independent cross-check path.  The contractions keep, at every state, the
floats of the one-state algebra: ``np.dot`` of an array with a vector becomes
``np.vecdot`` over the same axis, a matrix-vector product a matmul with a
column, and the stacks are C-contiguous with the point axis first.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, reduce
from typing import Callable

import numpy as np

from .jets import value_grad_hess
from .lagrangian import (ExplicitSode, ImplicitSode, ShapingParams, SingularBlockError,
                         kinetic_matrix, legendre_covector, point_coords, singular_point)
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
    """Geometry of an explicit second-order field at one state, or at N states
    with the point axis first."""

    state: State
    gamma: np.ndarray      # accelerations (n,), or (N, n)
    nabla: np.ndarray      # -(1/2) dGamma/dqdot  (n, n), or (N, n, n)
    jacobi: np.ndarray     # curvature-like endomorphism (n, n), rows k, cols j


def _points(a: np.ndarray) -> np.ndarray:
    """One state's (n,) row, or N states' (N, n) rows, as (N, n)."""
    return a.reshape(-1, a.shape[-1])


def _read(fn: Callable, U: np.ndarray, backend: str):
    """`value_grad_hess` of ``fn`` at the states of U, (m,) or (N, m): values,
    gradients and Hessians with the point axis first, C-contiguous."""
    outs = value_grad_hess(fn, U.T, backend)
    if U.ndim == 1:
        return tuple(o[None] for o in outs)
    return tuple(np.ascontiguousarray(np.moveaxis(o, -1, 0)) for o in outs)


def _dot(a: np.ndarray, v: np.ndarray) -> np.ndarray:
    """``np.dot(a[p], v[p])`` at each point p: the sum over a's last axis."""
    return np.vecdot(a, v.reshape(v.shape[:1] + (1,) * (a.ndim - 2) + v.shape[1:]))


def _vdot(v: np.ndarray, a: np.ndarray) -> np.ndarray:
    """``np.dot(v[p], a[p])`` at each point p: the sum over a's second-to-last
    axis."""
    return _dot(a.swapaxes(-1, -2), v)


def _matvec(M: np.ndarray, v: np.ndarray) -> np.ndarray:
    """``M[p] @ v[p]`` at each point p."""
    return (M @ v[..., None])[..., 0]


def _flip(a: np.ndarray) -> np.ndarray:
    """The transpose of the last two axes at each point."""
    return a.swapaxes(-1, -2)


def _gamma_tensors(field: ExplicitSode, state: State, backend: str):
    """(gamma, dG/dq, dG/dqd, hessians) at each state, hessians shaped
    (N, n, 2n, 2n)."""
    n = field.n
    gamma, grads, hess = _read(lambda u: field.gamma(*u),
                               np.concatenate([state.q, state.qdot], axis=-1), backend)
    return gamma, grads[..., :n], grads[..., n:], hess


def _sode_arrays(field: ExplicitSode, state: State, backend: str):
    """Gamma, nabla and the curvature endomorphism at each state, the point
    axis first."""
    n = field.n
    gamma, dGq, dGqd, hess = _gamma_tensors(field, state, backend)
    # derivative of dGamma^k/dqd^j along the field
    along = _vdot(_points(state.qdot), hess[:, :, :n, n:]) + _vdot(gamma, hess[:, :, n:, n:])
    jacobi = along - 2.0 * dGq - 0.5 * (dGqd @ dGqd)
    return gamma, -0.5 * dGqd, jacobi


def sode_tensors(field: ExplicitSode, state: State, backend: str = "jet") -> SodeTensors:
    """Gamma, the nabla matrix and the curvature endomorphism at one state, or
    at N states with the point axis first."""
    arrays = _sode_arrays(field, state, backend)
    if state.q.ndim == 1:
        arrays = [a[0] for a in arrays]
    return SodeTensors(state, *arrays)


def explicit_helmholtz_residuals(field: ExplicitSode,
                                 multiplier: Callable,
                                 state: State,
                                 tol: float = DEFAULT_TOL,
                                 backend: str = "jet") -> ResidualReport:
    """Multiplier-form conditions for a candidate matrix g(q, qdot).

    ``multiplier(q_coords, qd_coords)`` must return an n x n nested list and
    be generic over floats/jets.  Regularity (the smallest |det g| over the
    states) is reported against the floor 1e-12, not treated as a residual.
    """
    n = field.n
    vals, grads, _ = _read(lambda u: [gij for row in multiplier(u[:n], u[n:]) for gij in row],
                           np.concatenate([state.q, state.qdot], axis=-1), backend)
    N = len(vals)
    gval = vals.reshape(N, n, n)
    g_q = grads[..., :n].reshape(N, n, n, n)
    g_qd = grads[..., n:].reshape(N, n, n, n)

    gamma, nabla, jacobi = _sode_arrays(field, state, backend)
    report = ResidualReport("explicit multiplier conditions")

    report.add(ResidualEntry.normalized("symmetry", gval - _flip(gval), [gval], tol))
    report.add(ResidualEntry.normalized("velocity_symmetry", g_qd - _flip(g_qd), [g_qd], tol))
    # derivative of g_ij along the field against its two nabla terms
    along = _dot(g_q, _points(state.qdot)) + _dot(g_qd, gamma)
    t1 = gval @ nabla
    t2 = _flip(nabla) @ gval
    report.add(ResidualEntry.normalized("metric_transport", along - t1 - t2, [along, t1, t2],
                                        tol))
    gphi = gval @ jacobi
    report.add(ResidualEntry.normalized("jacobi_symmetry", gphi - _flip(gphi), [gphi], tol))
    report.add(ResidualEntry.floored("regularity", np.abs(np.linalg.det(gval)), 1e-12,
                                     note="pass iff |det g| above floor"))
    return report


def exactness_residuals(field: ImplicitSode, state: State, accel: np.ndarray,
                        tol: float = DEFAULT_TOL,
                        backend: str = "jet") -> ResidualReport:
    """Classical exactness conditions on Phi(q, qd, qdd), with ``accel`` the
    accelerations of each state.

    The total time derivative is expanded along the jet (q, qd, qdd supplied,
    jerk obtained by differentiating the acceleration solve along the flow).
    """
    n = field.n
    qdd = np.asarray(accel, dtype=float)
    _, grads, hess = _read(lambda u: field.phi(u[:n], u[n:2 * n], u[2 * n:]),
                           np.concatenate([state.q, state.qdot, qdd], axis=-1), backend)
    qd, qdd = _points(state.qdot), _points(qdd)

    Pq, Pqd, C = grads[..., :n], grads[..., n:2 * n], grads[..., 2 * n:]
    _, dGq, dGqd, _ = _gamma_tensors(field.to_explicit(), state, backend)
    jerk = _matvec(dGq, qd) + _matvec(dGqd, qdd)

    # d/dt along the jet of dPhi_i/dqd_j (columns :n) and dPhi_i/dqdd_j (n:)
    rows = hess[:, :, n:]
    ddt = _dot(rows[..., :n], qd) + _dot(rows[..., n:2 * n], qdd) + _dot(rows[..., 2 * n:], jerk)
    b = 0.5 * (ddt[..., :n] - _flip(ddt[..., :n]))
    dd = ddt[..., n:] + _flip(ddt[..., n:])

    return ResidualReport("exactness conditions", [
        ResidualEntry.normalized("accel_symmetry", C - _flip(C), [C], tol),
        ResidualEntry.normalized("position_exactness", Pq - _flip(Pq) - b, [Pq, b], tol),
        ResidualEntry.normalized("velocity_exactness", Pqd + _flip(Pqd) - dd, [Pqd, dd], tol)])


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
    qdd = field.solve_accel(state) if accel is None else np.asarray(accel, dtype=float)
    U = np.concatenate([state.q, state.qdot], axis=-1)
    _, gF, hF = _read(lambda u: F(u[:n], u[n:]), U, backend)
    Fq, Fqd = gF[..., :n], gF[..., n:]
    F_qq, F_qdqd = hF[:, :, :n, :n], hF[:, :, n:, n:]
    F_qdq = hF[:, :, n:, :n]       # [p, i, j(qd), k(q)]
    qdd_coords = point_coords(qdd)
    _, gP, _ = _read(lambda u: field.phi(u[:n], u[n:], qdd_coords), U, backend)
    Phiq, Phiqd = gP[..., :n], gP[..., n:]
    qd, qdd = _points(state.qdot), _points(qdd)

    C = field.accel_matrix_floats(state.q)
    try:
        Cinv = np.linalg.inv(C)
    except np.linalg.LinAlgError as exc:
        raise SingularBlockError("C", singular_point(C)) from exc
    FqdC = Fqd @ Cinv

    # each family as (residual, largest |term| entering it) over all ordered
    # pairs (i, j) at each state
    def top(terms):
        return reduce(np.maximum, map(np.abs, terms))

    t = [_dot(F_qdq, qd), Fq, _dot(F_qdqd, qdd), _flip(Fq), FqdC @ Phiqd]
    h = [_dot(F_qq, qd), _vdot(qdd, F_qdq), FqdC @ Phiq]
    half = h[0] + h[1] - h[2]
    families = {"BB": (Fqd - _flip(Fqd), top([Fqd, _flip(Fqd)])),
                "AB": (t[0] + t[1] + t[2] - t[3] - t[4], top(t)),
                "AA": (half - _flip(half), top(h + [_flip(hk) for hk in h]))}

    report = ResidualReport("implicit conditions")
    for fam, name, pairs in _class_masks(n, dims.n_shape):
        if pairs is None:
            report.add(ResidualEntry.skip(name, "index class empty at these dims"))
        else:
            res, scale = families[fam]
            report.add(ResidualEntry.normalized(name, res[:, pairs], [scale[:, pairs]], tol))
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
