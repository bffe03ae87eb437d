"""Pointwise residuals of the three variationality condition families.

Three engines: the multiplier (explicit) conditions on a candidate matrix
g_ij, the classical exactness conditions on an implicit covector, and the
implicit conditions on candidate Legendre components F_i.  Each residual is
normalized by max(1, magnitude of the terms entering it) before comparison
with the tolerance; raw magnitudes are kept in the report.

Every engine reads the value, gradient and Hessian of one list-valued function
at one point (Gamma, the multiplier g, Phi or F) through `jets.value_grad_hess`:
second-order jets by default, the central-difference oracle with
``backend="fd"`` as the independent cross-check path.
"""

from __future__ import annotations

from dataclasses import dataclass
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

    def directional(self, f_q: np.ndarray, f_qd: np.ndarray) -> float:
        """Derivative of a function along the field given its partials."""
        return float(self.state.qdot @ f_q + self.gamma @ f_qd)


def _gamma_tensors(field: ExplicitSode, state: State, backend: str):
    """(gamma, dG/dq, dG/dqd, hessians) with hessians shaped (n, 2n, 2n)."""
    n = field.n
    gamma, grads, hess = value_grad_hess(lambda u: field.gamma(u[:n], u[n:]),
                                         np.concatenate([state.q, state.qdot]), backend)
    return gamma, grads[:, :n], grads[:, n:], hess


def sode_tensors(field: ExplicitSode, state: State, backend: str = "jet") -> SodeTensors:
    """Gamma, the nabla matrix and the curvature endomorphism at one state."""
    n = field.n
    gamma, dGq, dGqd, hess = _gamma_tensors(field, state, backend)
    nabla = -0.5 * dGqd
    jacobi = np.zeros((n, n))
    for k in range(n):
        for j in range(n):
            # directional derivative of dGamma^k/dqd^j along the field
            along = float(state.qdot @ hess[k, :n, n + j] + gamma @ hess[k, n:, n + j])
            jacobi[k, j] = along - 2.0 * dGq[k, j] \
                - 0.5 * float(dGqd[:, j] @ dGqd[k, :])
    return SodeTensors(state=state, gamma=gamma, nabla=nabla, jacobi=jacobi)


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

    report.add(ResidualEntry.normalized("symmetry", gval - gval.T, np.abs(gval), tol))

    vel_res, vel_scale = [], [1.0]
    for i in range(n):
        for j in range(n):
            for k in range(n):
                vel_res.append(g_qd[i, j, k] - g_qd[i, k, j])
                vel_scale += [abs(g_qd[i, j, k]), abs(g_qd[i, k, j])]
    report.add(ResidualEntry.normalized("velocity_symmetry", vel_res, vel_scale, tol))

    tr_res, tr_scale = [], [1.0]
    for i in range(n):
        for j in range(n):
            along = tens.directional(g_q[i, j], g_qd[i, j])
            t1 = float(tens.nabla[:, j] @ gval[i, :])
            t2 = float(tens.nabla[:, i] @ gval[:, j])
            tr_res.append(along - t1 - t2)
            tr_scale += [abs(along), abs(t1), abs(t2)]
    report.add(ResidualEntry.normalized("metric_transport", tr_res, tr_scale, tol))

    gphi = gval @ tens.jacobi
    report.add(ResidualEntry.normalized("jacobi_symmetry", gphi - gphi.T, np.abs(gphi), tol))

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

    Pq = grads[:, :n]
    Pqd = grads[:, n:2 * n]
    C = grads[:, 2 * n:]

    explicit = field.to_explicit()
    gexp, dGq, dGqd, _ = _gamma_tensors(explicit, state, backend)
    jerk = dGq @ qd + dGqd @ qdd

    def ddt(i: int, slot: int, j: int) -> float:
        """d/dt of dPhi_i/d(slot)_j along the jet; slot 1 = qd, 2 = qdd."""
        row = slot * n + j
        return float(hess[i, row, :n] @ qd + hess[i, row, n:2 * n] @ qdd
                     + hess[i, row, 2 * n:] @ jerk)

    report = ResidualReport("exactness conditions")
    report.add(ResidualEntry.normalized("accel_symmetry", C - C.T, np.abs(C), tol))

    r2, s2 = [], [1.0]
    r3, s3 = [], [1.0]
    for i in range(n):
        for j in range(n):
            a = Pq[i, j] - Pq[j, i]
            b = 0.5 * (ddt(i, 1, j) - ddt(j, 1, i))
            r2.append(a - b)
            s2 += [abs(Pq[i, j]), abs(Pq[j, i]), abs(b)]
            c = Pqd[i, j] + Pqd[j, i]
            dd = ddt(i, 2, j) + ddt(j, 2, i)
            r3.append(c - dd)
            s3 += [abs(Pqd[i, j]), abs(Pqd[j, i]), abs(dd)]
    report.add(ResidualEntry.normalized("position_exactness", r2, s2, tol))
    report.add(ResidualEntry.normalized("velocity_exactness", r3, s3, tol))
    return report


def _class_of(i: int, ns: int) -> str:
    return "alpha" if i < ns else "a"


_CLASS_LABEL = {("a", "a"): "ab", ("a", "alpha"): "a_beta",
                ("alpha", "a"): "alpha_b", ("alpha", "alpha"): "alpha_beta"}


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
    ns = dims.n_shape
    q, qd = state.q, state.qdot
    if accel is None:
        qdd = field.solve_accel(state)
    else:
        qdd = np.asarray(accel, dtype=float)

    u0 = np.concatenate([q, qd])
    _, gF, hF = value_grad_hess(lambda u: F(u[:n], u[n:]), u0, backend)
    Fq, Fqd = gF[:, :n], gF[:, n:]
    F_qq = hF[:, :n, :n]
    F_qdq = hF[:, n:, :n]       # [i, j(qd), k(q)]
    F_qdqd = hF[:, n:, n:]
    _, gP, _ = value_grad_hess(lambda u: field.phi(u[:n], u[n:], list(qdd)), u0, backend)
    Phiq, Phiqd = gP[:, :n], gP[:, n:]

    Cm = field.accel_matrix_floats(q)
    try:
        Cinv = np.linalg.inv(Cm)
    except np.linalg.LinAlgError as exc:
        raise SingularBlockError("C") from exc

    res = {("BB", lbl): ([], [1.0]) for lbl in ("ab", "a_beta", "alpha_beta")}
    res.update({("AB", lbl): ([], [1.0]) for lbl in
                ("ab", "a_beta", "alpha_b", "alpha_beta")})
    res.update({("AA", lbl): ([], [1.0]) for lbl in ("ab", "alpha_b", "alpha_beta")})

    def aa_half(i: int, j: int) -> tuple[float, list[float]]:
        t1 = float(F_qq[i, j] @ qd)
        t2 = float(F_qdq[i, :, j] @ qdd)
        t3 = float(Fqd[i] @ Cinv @ Phiq[:, j])
        return t1 + t2 - t3, [abs(t1), abs(t2), abs(t3)]

    bb_label = {"aa": "ab", "aalpha": "a_beta", "alphaa": "a_beta",
                "alphaalpha": "alpha_beta"}
    aa_label = {"aa": "ab", "alphaa": "alpha_b", "aalpha": "alpha_b",
                "alphaalpha": "alpha_beta"}
    for i in range(n):
        for j in range(n):
            ci, cj = _class_of(i, ns), _class_of(j, ns)
            # BB (antisymmetric): record each unordered pair once
            if i <= j:
                r, s = res[("BB", bb_label[ci + cj])]
                r.append(Fqd[i, j] - Fqd[j, i])
                s += [abs(Fqd[i, j]), abs(Fqd[j, i])]
            # AB (not symmetric): all ordered pairs
            t1 = float(F_qdq[i, j] @ qd)
            t2 = float(Fq[i, j])
            t3 = float(F_qdqd[i, j] @ qdd)
            t4 = float(Fq[j, i])
            t5 = float(Fqd[i] @ Cinv @ Phiqd[:, j])
            lbl = _CLASS_LABEL[(ci, cj)]
            r, s = res[("AB", lbl)]
            r.append(t1 + t2 + t3 - t4 - t5)
            s += [abs(t1), abs(t2), abs(t3), abs(t4), abs(t5)]
            # AA (antisymmetric): unordered pairs
            if i < j:
                hi, si = aa_half(i, j)
                hj, sj = aa_half(j, i)
                r, s = res[("AA", aa_label[ci + cj])]
                r.append(hi - hj)
                s += si + sj

    report = ResidualReport("implicit conditions")
    for (fam, lbl), (r, s) in res.items():
        name = f"{fam}_{lbl}"
        if not r:
            report.add(ResidualEntry.skip(name, "index class empty at these dims"))
        else:
            report.add(ResidualEntry.normalized(name, r, s, tol))
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
