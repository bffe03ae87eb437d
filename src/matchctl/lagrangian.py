"""Euler-Lagrange residuals, controlled Lagrangians, Legendre transforms and
the controlled second-order field with its feedback control.

All covector/Lagrangian evaluators accept floats or jets in the coordinate
slots, so the Helmholtz residual engines can differentiate them exactly.
Every second-order system here is affine in the accelerations, which the
block-inverse and the acceleration solver exploit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .fields import SmoothField, field_eval, gradient
from .jets import Jet2, jet_vars, solve_generic, value_of
from .model import Dims, MechanicalSystem, State

__all__ = [
    "ShapingParams",
    "BlockInverse",
    "ImplicitSode",
    "ExplicitSode",
    "SingularBlockError",
    "scalar_sigma_matrix",
    "lagrangian_value",
    "el_residual",
    "el_covector",
    "controlled_el_covector",
    "controlled_lagrangian_value",
    "kinetic_matrix",
    "legendre_transform",
    "ctilde_and_block_inverse",
    "feedback_control",
    "controlled_implicit_sode",
    "uncontrolled_sode",
    "solve_accel",
    "fw_identity_residuals",
]


class SingularBlockError(RuntimeError):
    """A block that must be inverted is singular; carries the block name."""

    def __init__(self, block: str):
        super().__init__(f"singular block: {block}")
        self.block = block


@dataclass(frozen=True)
class ShapingParams:
    """Feedback-shaping freedom: tau one-form, sigma bilinear form, vertical
    metric scale rho (or an explicit constant vertical metric), and an
    optional extra potential.

    ``tau[a][alpha]`` are SmoothFields over the shape coordinates.  The
    special matching choice (vertical metric unchanged) is rho=1 with no
    explicit matrix.
    """

    tau: tuple
    sigma: np.ndarray
    rho: float = 1.0
    g_rho: np.ndarray | None = None
    epsilon_potential: SmoothField | None = None

    def __post_init__(self):
        tau = tuple(tuple(row) for row in self.tau)
        object.__setattr__(self, "tau", tau)
        sigma = np.asarray(self.sigma, dtype=float)
        if sigma.ndim != 2 or sigma.shape[0] != sigma.shape[1]:
            raise ValueError("sigma must be a square matrix")
        if np.abs(sigma - sigma.T).max() > 1e-12 * max(1.0, np.abs(sigma).max()):
            raise ValueError("sigma must be symmetric")
        object.__setattr__(self, "sigma", sigma)
        if self.g_rho is not None:
            g_rho = np.asarray(self.g_rho, dtype=float)
            if np.abs(g_rho - g_rho.T).max() > 1e-12 * max(1.0, np.abs(g_rho).max()):
                raise ValueError("g_rho must be symmetric")
            if self.rho != 1.0:
                raise ValueError("give either scalar rho or an explicit g_rho, not both")
            object.__setattr__(self, "g_rho", g_rho)

    @property
    def n_group(self) -> int:
        return len(self.tau)

    @property
    def n_shape(self) -> int:
        return len(self.tau[0])

    @property
    def is_special_matching(self) -> bool:
        return self.g_rho is None and self.rho == 1.0

    @staticmethod
    def zero(dims: Dims, sigma: np.ndarray | None = None) -> "ShapingParams":
        from . import fields as fl
        tau = tuple(tuple(fl.constant(0.0, dims.n_shape) for _ in range(dims.n_shape))
                    for _ in range(dims.n_group))
        if sigma is None:
            sigma = np.zeros((dims.n_group, dims.n_group))
        return ShapingParams(tau=tau, sigma=sigma)

    def tau_value(self, x: np.ndarray) -> np.ndarray:
        return np.array([[f.value(x) for f in row] for row in self.tau])

    def tau_d1(self, x: np.ndarray) -> np.ndarray:
        """d(tau^a_alpha)/dx^k as (n_group, n_shape, n_shape)."""
        return np.array([[f.d1(x) for f in row] for row in self.tau])

    def varpi(self, sys: MechanicalSystem, x: np.ndarray) -> np.ndarray:
        """Vertical metric modification g_rho - g at shape point x."""
        ggg = sys.ggg(x)
        target = self.g_rho if self.g_rho is not None else self.rho * ggg
        return target - ggg

    def scalar_rho(self, sys: MechanicalSystem, x: np.ndarray,
                   tol: float = 1e-10) -> float | None:
        """Recover rho when the vertical metric is a scalar multiple of g_gg."""
        if self.g_rho is None:
            return self.rho
        ggg = sys.ggg(x)
        ratio = self.g_rho[0, 0] / ggg[0, 0]
        if np.abs(self.g_rho - ratio * ggg).max() <= tol * max(1.0, np.abs(self.g_rho).max()):
            return float(ratio)
        return None


def scalar_sigma_matrix(sys: MechanicalSystem, sigma: float,
                        x_ref: np.ndarray | None = None) -> np.ndarray:
    """sigma_ab = sigma * g_ab, evaluated at a reference point (g_gg constant
    in every use of this helper)."""
    if x_ref is None:
        x_ref = np.zeros(sys.dims.n_shape)
    return float(sigma) * sys.ggg(x_ref)


@dataclass
class BlockInverse:
    """The acceleration-coefficient matrix of the controlled system and its
    inverse, with the shape-block Schur complement."""

    C: np.ndarray
    W: np.ndarray
    A_ss: np.ndarray
    A_ss_inv: np.ndarray


# ---------------------------------------------------------------------------
# generic evaluation helpers (floats or jets)
# ---------------------------------------------------------------------------

def _entries(block, coords):
    return [[field_eval(f, coords) for f in row] for row in block]


def _gradients(block, coords):
    return [[gradient(f, coords) for f in row] for row in block]


def _matvec(M, v):
    return [sum(M[i][j] * v[j] for j in range(len(v))) for i in range(len(M))]


def _inv_generic(M):
    n = len(M)
    cols = []
    for j in range(n):
        e = [1.0 if i == j else 0.0 for i in range(n)]
        cols.append(solve_generic(M, e))
    return [[cols[j][i] for j in range(n)] for i in range(n)]


# ---------------------------------------------------------------------------
# Lagrangian and Euler-Lagrange residuals
# ---------------------------------------------------------------------------

def lagrangian_value(sys: MechanicalSystem, state: State) -> float:
    """L = (1/2) qdot' g(q) qdot - V(q)."""
    x = state.q[: sys.dims.n_shape]
    g = sys.metric(x)
    return float(0.5 * state.qdot @ g @ state.qdot - sys.V_value(state.q))


def _metric_data(sys: MechanicalSystem, q):
    """Metric blocks, their first partials and dV at q (floats or jets)."""
    x = list(q[: sys.dims.n_shape])
    return (_entries(sys.g_ss, x), _entries(sys.g_sg, x), _entries(sys.g_gg, x),
            _gradients(sys.g_ss, x), _gradients(sys.g_sg, x), _gradients(sys.g_gg, x),
            gradient(sys.V, list(q)))


def el_covector(sys: MechanicalSystem, q, qd, qdd):
    """Euler-Lagrange expression of the given Lagrangian, one covector entry
    per coordinate (shape rows then group rows).  Generic over floats/jets."""
    return _el_covector(sys, _metric_data(sys, q), qd, qdd)


def _el_covector(sys: MechanicalSystem, data, qd, qdd):
    ns, ng = sys.dims.n_shape, sys.dims.n_group
    xd, thd = list(qd[:ns]), list(qd[ns:])
    xdd, thdd = list(qdd[:ns]), list(qdd[ns:])
    gss, gsg, ggg, dss, dsg, dgg, dV = data

    phi = []
    for al in range(ns):
        acc = dV[al]
        for g_ in range(ns):
            for b_ in range(ns):
                acc = acc + (dss[al][b_][g_] - 0.5 * dss[g_][b_][al]) * xd[g_] * xd[b_]
        for g_ in range(ns):
            for a_ in range(ng):
                acc = acc + (dsg[al][a_][g_] - dsg[g_][a_][al]) * xd[g_] * thd[a_]
        for b_ in range(ns):
            acc = acc + gss[al][b_] * xdd[b_]
        for a_ in range(ng):
            acc = acc + gsg[al][a_] * thdd[a_]
        for a_ in range(ng):
            for b_ in range(ng):
                acc = acc - 0.5 * dgg[a_][b_][al] * thd[a_] * thd[b_]
        phi.append(acc)
    for a_ in range(ng):
        acc = dV[ns + a_]
        for g_ in range(ns):
            for al in range(ns):
                acc = acc + dsg[al][a_][g_] * xd[g_] * xd[al]
        for g_ in range(ns):
            for b_ in range(ng):
                acc = acc + dgg[a_][b_][g_] * xd[g_] * thd[b_]
        for al in range(ns):
            acc = acc + gsg[al][a_] * xdd[al]
        for b_ in range(ng):
            acc = acc + ggg[a_][b_] * thdd[b_]
        phi.append(acc)
    return phi


def el_residual(sys: MechanicalSystem, state: State, accel: np.ndarray) -> np.ndarray:
    accel = np.asarray(accel, dtype=float)
    if accel.shape[0] != sys.dims.total:
        raise ValueError("accel length must equal the coordinate count")
    return np.array([value_of(v) for v in
                     el_covector(sys, list(state.q), list(state.qdot), list(accel))])


def controlled_el_covector(sys: MechanicalSystem, shaping: ShapingParams, q, qd, qdd):
    """Covector of the controlled system: shape rows unchanged, group rows get
    the shaping terms (and scalar-rho/extra-potential terms when present)."""
    ns, ng = sys.dims.n_shape, sys.dims.n_group
    rho = shaping.rho
    if shaping.g_rho is not None and shaping.scalar_rho(sys, np.zeros(ns)) is None:
        raise NotImplementedError(
            "controlled field requires the vertical metric to be a scalar multiple of g_gg")
    if shaping.g_rho is not None:
        rho = shaping.scalar_rho(sys, np.zeros(ns))
    x = list(q[:ns])
    xd = list(qd[:ns])
    xdd = list(qdd[:ns])
    data = _metric_data(sys, q)
    phi = _el_covector(sys, data, qd, qdd)
    _, _, ggg, _, _, dgg, dV = data
    tau = _entries(shaping.tau, x)
    dtau = _gradients(shaping.tau, x)
    if shaping.epsilon_potential is not None:
        dVe = gradient(shaping.epsilon_potential, list(q))
    else:
        dVe = [0.0] * (ns + ng)

    out = list(phi[:ns])
    for a_ in range(ng):
        acc = phi[ns + a_] - dV[ns + a_] + (dV[ns + a_] + dVe[ns + a_]) * (1.0 / rho)
        for b_ in range(ng):
            for be in range(ns):
                for g_ in range(ns):
                    acc = acc + (dgg[a_][b_][g_] * tau[b_][be]
                                 + ggg[a_][b_] * dtau[b_][be][g_]) * xd[be] * xd[g_]
                acc = acc + ggg[a_][b_] * tau[b_][be] * xdd[be]
        out.append(acc)
    return out


# ---------------------------------------------------------------------------
# controlled Lagrangian, Legendre transform, kinetic matrix
# ---------------------------------------------------------------------------

def kinetic_matrix(sys: MechanicalSystem, shaping: ShapingParams, x_coords):
    """Velocity-bilinear form of the controlled Lagrangian at shape point x.

    Generic over floats/jets.  Returns a nested list (n x n).
    """
    ns, ng = sys.dims.n_shape, sys.dims.n_group
    gss = _entries(sys.g_ss, x_coords)
    gsg = _entries(sys.g_sg, x_coords)
    ggg = _entries(sys.g_gg, x_coords)
    tau = _entries(shaping.tau, x_coords)
    sigma = shaping.sigma

    special = shaping.is_special_matching
    if special:
        varpi = None
    else:
        target = shaping.g_rho
        ggg_inv = _inv_generic(ggg)
        # zeta^a_alpha = g^{ac} g_{alpha c}
        zeta = [[sum(ggg_inv[a][c] * gsg[al][c] for c in range(ng)) for al in range(ns)]
                for a in range(ng)]
        if target is not None:
            varpi = [[target[a][b] - ggg[a][b] for b in range(ng)] for a in range(ng)]
        else:
            varpi = [[(shaping.rho - 1.0) * ggg[a][b] for b in range(ng)] for a in range(ng)]

    n = ns + ng
    M = [[0.0] * n for _ in range(n)]
    for al in range(ns):
        for be in range(ns):
            acc = gss[al][be]
            for a in range(ng):
                acc = acc + gsg[al][a] * tau[a][be] + gsg[be][a] * tau[a][al]
            for a in range(ng):
                for b in range(ng):
                    acc = acc + tau[a][al] * (ggg[a][b] + sigma[a][b]) * tau[b][be]
            if not special:
                for a in range(ng):
                    for b in range(ng):
                        acc = acc + (zeta[a][al] + tau[a][al]) * varpi[a][b] \
                            * (zeta[b][be] + tau[b][be])
            M[al][be] = acc
    for al in range(ns):
        for b in range(ng):
            acc = gsg[al][b]
            for a in range(ng):
                acc = acc + tau[a][al] * ggg[a][b]
            if not special:
                for a in range(ng):
                    acc = acc + (zeta[a][al] + tau[a][al]) * varpi[a][b]
            M[al][ns + b] = acc
            M[ns + b][al] = acc
    for a in range(ng):
        for b in range(ng):
            acc = ggg[a][b]
            if not special:
                acc = acc + varpi[a][b]
            M[ns + a][ns + b] = acc
    return M


def controlled_lagrangian_value(sys: MechanicalSystem, shaping: ShapingParams,
                                state: State) -> float:
    return value_of(controlled_lagrangian_generic(
        sys, shaping, list(state.q), list(state.qdot)))


def controlled_lagrangian_generic(sys: MechanicalSystem, shaping: ShapingParams, q, qd):
    ns = sys.dims.n_shape
    M = kinetic_matrix(sys, shaping, list(q[:ns]))
    n = sys.dims.total
    acc = field_eval(sys.V, list(q)) * (-1.0)
    if shaping.epsilon_potential is not None:
        acc = acc - field_eval(shaping.epsilon_potential, list(q))
    for i in range(n):
        for j in range(n):
            acc = acc + 0.5 * qd[i] * M[i][j] * qd[j]
    return acc


def legendre_covector(sys: MechanicalSystem, shaping: ShapingParams, q, qd):
    """Fiber derivative of the controlled Lagrangian; generic over floats/jets."""
    ns = sys.dims.n_shape
    M = kinetic_matrix(sys, shaping, list(q[:ns]))
    return _matvec(M, list(qd))


def legendre_transform(sys: MechanicalSystem, shaping: ShapingParams,
                       state: State) -> np.ndarray:
    return np.array([value_of(v) for v in
                     legendre_covector(sys, shaping, list(state.q), list(state.qdot))])


# ---------------------------------------------------------------------------
# acceleration-coefficient block matrix and its inverse
# ---------------------------------------------------------------------------

def ctilde_and_block_inverse(sys: MechanicalSystem, shaping: ShapingParams,
                             q: np.ndarray) -> BlockInverse:
    """Assemble the acceleration coefficients of the controlled system and
    invert them with the closed block formulas, cross-checked densely."""
    ns = sys.dims.n_shape
    x = np.asarray(q, dtype=float)[:ns]
    gss, gsg, ggg = sys.gss(x), sys.gsg(x), sys.ggg(x)
    tau = shaping.tau_value(x)

    try:
        ggg_inv = np.linalg.inv(ggg)
    except np.linalg.LinAlgError as exc:
        raise SingularBlockError("g_gg") from exc

    lower_left = gsg.T + ggg @ tau
    C = np.block([[gss, gsg], [lower_left, ggg]])
    A_ss = gss - gsg @ (ggg_inv @ gsg.T + tau)
    try:
        A_inv = np.linalg.inv(A_ss)
    except np.linalg.LinAlgError as exc:
        raise SingularBlockError("A_ss") from exc

    W_ss = A_inv
    W_sg = -A_inv @ gsg @ ggg_inv
    zeta_tau = ggg_inv @ gsg.T + tau
    W_gs = -zeta_tau @ A_inv
    W_gg = ggg_inv + zeta_tau @ A_inv @ gsg @ ggg_inv
    W = np.block([[W_ss, W_sg], [W_gs, W_gg]])

    n = sys.dims.total
    if np.abs(C @ W - np.eye(n)).max() > 1e-12 * max(1.0, np.abs(C).max() * np.abs(W).max()):
        raise SingularBlockError("C_tilde")
    dense = np.linalg.inv(C)
    if np.abs(W - dense).max() > 1e-10 * max(1.0, np.abs(dense).max()):
        raise AssertionError("block inverse disagrees with dense inversion")
    return BlockInverse(C=C, W=W, A_ss=A_ss, A_ss_inv=A_inv)


# ---------------------------------------------------------------------------
# second-order fields
# ---------------------------------------------------------------------------

class ImplicitSode:
    """Second-order system Phi(q, qd, qdd) = 0, affine in the accelerations:
    Phi(q, qd, qdd) = C(q) qdd + Phi(q, qd, 0).

    ``phi(q, qd, qdd)`` returns the covector and ``accel_matrix(q)`` the
    acceleration coefficients C = dPhi/dqdd as a nested n x n list; both are
    generic over floats/jets.  The explicit field is then one covector pass,
    qdd = -C^-1 Phi(q, qd, 0).
    """

    def __init__(self, n: int, phi: Callable, accel_matrix: Callable,
                 dims: Dims | None = None):
        self.n = n
        self._phi = phi
        self.accel_matrix = accel_matrix
        self.dims = dims

    def phi(self, q, qd, qdd):
        return self._phi(q, qd, qdd)

    def phi_floats(self, q, qd, qdd) -> np.ndarray:
        return np.array([value_of(v) for v in self._phi(list(q), list(qd), list(qdd))])

    def accel_matrix_floats(self, q) -> np.ndarray:
        return np.array([[value_of(v) for v in row] for row in self.accel_matrix(list(q))])

    def phi_derivatives(self, q, qd, qdd):
        """(dPhi/dq, dPhi/dqd) at fixed accelerations, via jets."""
        seeds = jet_vars(list(q) + list(qd))
        phis = self._phi(seeds[: self.n], seeds[self.n:], list(qdd))
        dq = np.array([p.g[: self.n] for p in phis])
        dqd = np.array([p.g[self.n:] for p in phis])
        return dq, dqd

    def solve_accel(self, state: State) -> np.ndarray:
        return solve_accel(self, state)

    def to_explicit(self) -> "ExplicitSode":
        def gamma(q, qd):
            rhs = [-v for v in self._phi(q, qd, [0.0] * self.n)]
            return solve_generic(self.accel_matrix(q), rhs)

        return ExplicitSode(self.n, gamma, dims=self.dims)


class ExplicitSode:
    """Second-order system qdd = Gamma(q, qd).

    ``gamma`` must be generic over floats/jets; ``gamma2`` is an optional
    scalar fast path for two-coordinate systems used by the integrator.
    """

    def __init__(self, n: int, gamma: Callable, gamma2: Callable | None = None,
                 dims: Dims | None = None):
        self.n = n
        self.gamma = gamma
        self.gamma2 = gamma2
        self.dims = dims

    def gamma_floats(self, q, qd) -> np.ndarray:
        return np.array([value_of(v) for v in self.gamma(list(q), list(qd))])

    def gamma_jets(self, q, qd) -> list[Jet2]:
        """Gamma with exact first/second derivatives w.r.t. (q, qd)."""
        seeds = jet_vars(list(q) + list(qd))
        return self.gamma(seeds[: self.n], seeds[self.n:])

    def gamma_derivatives(self, q, qd):
        """(dGamma/dq, dGamma/dqd) as dense matrices."""
        jets = self.gamma_jets(q, qd)
        dq = np.array([j.g[: self.n] for j in jets])
        dqd = np.array([j.g[self.n:] for j in jets])
        return dq, dqd


def _metric_block(sys: MechanicalSystem, q):
    """The full metric at q as a nested list (floats or jets)."""
    ns, ng = sys.dims.n_shape, sys.dims.n_group
    x = list(q[:ns])
    gss, gsg, ggg = _entries(sys.g_ss, x), _entries(sys.g_sg, x), _entries(sys.g_gg, x)
    return ([gss[al] + gsg[al] for al in range(ns)]
            + [[gsg[al][a] for al in range(ns)] + ggg[a] for a in range(ng)])


def _controlled_block(sys: MechanicalSystem, shaping: ShapingParams, q):
    """[[g_ss, g_sg], [g_sg' + g_gg tau, g_gg]] at q (floats or jets)."""
    ns, ng = sys.dims.n_shape, sys.dims.n_group
    C = _metric_block(sys, q)
    ggg = [row[ns:] for row in C[ns:]]
    tau = _entries(shaping.tau, list(q[:ns]))
    for a in range(ng):
        for be in range(ns):
            acc = C[ns + a][be]
            for b in range(ng):
                acc = acc + ggg[a][b] * tau[b][be]
            C[ns + a][be] = acc
    return C


def uncontrolled_sode(sys: MechanicalSystem) -> ImplicitSode:
    def phi(q, qd, qdd):
        return el_covector(sys, q, qd, qdd)

    return ImplicitSode(sys.dims.total, phi, lambda q: _metric_block(sys, q), dims=sys.dims)


def controlled_implicit_sode(sys: MechanicalSystem, shaping: ShapingParams) -> ImplicitSode:
    def phi(q, qd, qdd):
        return controlled_el_covector(sys, shaping, q, qd, qdd)

    return ImplicitSode(sys.dims.total, phi, lambda q: _controlled_block(sys, shaping, q),
                        dims=sys.dims)


def solve_accel(implicit: ImplicitSode, state: State) -> np.ndarray:
    """Accelerations solving Phi(q, qd, qdd) = 0 for a system affine in qdd.

    The residual check evaluates Phi at the solution, so it also validates
    the acceleration matrix against the covector.
    """
    C = implicit.accel_matrix_floats(state.q)
    rhs = -implicit.phi_floats(state.q, state.qdot, [0.0] * implicit.n)
    try:
        acc = np.linalg.solve(C, rhs)
    except np.linalg.LinAlgError as exc:
        raise SingularBlockError("C") from exc
    res = implicit.phi_floats(state.q, state.qdot, acc)
    scale = max(1.0, np.abs(C).max() * np.abs(acc).max())
    if np.abs(res).max() > 1e-10 * scale:
        raise AssertionError("acceleration solve residual unexpectedly large")
    return acc


def feedback_control(sys: MechanicalSystem, shaping: ShapingParams, state: State,
                     accel: np.ndarray) -> np.ndarray:
    """Feedback closing the group equations of the controlled system.

    With the vertical metric unchanged this is the pure shaping expression;
    with scalar rho (and optional extra potential) the potential-difference
    terms enter.
    """
    ns, ng = sys.dims.n_shape, sys.dims.n_group
    x = state.q[:ns]
    xd = state.qdot[:ns]
    xdd = np.asarray(accel, dtype=float)[:ns]
    rho = shaping.scalar_rho(sys, x)
    if rho is None:
        raise NotImplementedError("feedback control requires a scalar vertical scaling")
    ggg = sys.ggg(x)
    dgg = np.array([[f.d1(x) for f in [sys.g_gg[a][b] for b in range(ng)]] for a in range(ng)])
    tau = shaping.tau_value(x)
    dtau = shaping.tau_d1(x)
    dV = sys.V_d1(state.q)[ns:]
    if shaping.epsilon_potential is not None:
        dVe = shaping.epsilon_potential.d1(state.q)[ns:]
    else:
        dVe = np.zeros(ng)

    u = (rho - 1.0) / rho * dV - dVe / rho
    for a in range(ng):
        for b in range(ng):
            for be in range(ns):
                for g_ in range(ns):
                    u[a] -= (dgg[a][b][g_] * tau[b][be]
                             + ggg[a][b] * dtau[b][be][g_]) * xd[be] * xd[g_]
                u[a] -= ggg[a][b] * tau[b][be] * xdd[be]
    return u


def fw_identity_residuals(sys: MechanicalSystem, shaping: ShapingParams,
                          state: State) -> tuple[float, float]:
    """Residuals of the two Legendre/block-inverse contraction identities
    (special matching shaping)."""
    if not shaping.is_special_matching:
        raise ValueError("identities are stated for the unchanged vertical metric")
    ns = sys.dims.n_shape
    x = state.q[:ns]
    M = np.array([[value_of(v) for v in row] for row in kinetic_matrix(sys, shaping, list(x))])
    binv = ctilde_and_block_inverse(sys, shaping, state.q)
    gsg, ggg = sys.gsg(x), sys.ggg(x)
    tau = shaping.tau_value(x)
    P = gsg @ tau + tau.T @ shaping.sigma @ tau
    MW = M @ binv.W
    lhs1 = MW[:ns, :ns]
    rhs1 = np.eye(ns) + P @ binv.A_ss_inv
    lhs2 = MW[:ns, ns:]
    rhs2 = tau.T - P @ binv.A_ss_inv @ gsg @ np.linalg.inv(ggg)
    return float(np.abs(lhs1 - rhs1).max()), float(np.abs(lhs2 - rhs2).max())
