"""Euler-Lagrange residuals, controlled Lagrangians, Legendre transforms and
the controlled second-order field with its feedback control.

All covector/Lagrangian evaluators accept floats or jets in the coordinate
slots, at one point or at N points (one array of N floats, or jets over N
points, per coordinate), so the Helmholtz residual engines can differentiate
them exactly at all their states in one pass.  Every second-order system here
is affine in the accelerations, which the block-inverse and the acceleration
solver exploit; the solver takes N states as one stacked solve.  The
covectors and the controlled acceleration matrix read the metric and tau
fields through `fields.read_at`, one read per call at any coordinates; the
explicit controlled field hands one read to both, and at floats replays a
tape of that pass (`jets.record`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .fields import SmoothField, gradient, read_at
from .jets import Jet2, Untapeable, float_solver, jet_vars, record, solve_generic, value_of
from .model import Dims, MechanicalSystem, State, block_entries, metric_of

__all__ = [
    "ShapingParams",
    "BlockInverse",
    "ImplicitSode",
    "ExplicitSode",
    "SingularBlockError",
    "singular_point",
    "point_coords",
    "scalar_sigma_matrix",
    "lagrangian_value",
    "el_residual",
    "el_covector",
    "controlled_el_covector",
    "controlled_lagrangian_value",
    "kinetic_energy",
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
    """A block that must be inverted is singular; carries the block name and,
    in a stack of blocks, the index of the first singular one."""

    def __init__(self, block: str, point: int | None = None):
        where = "" if point is None else f" at point {point} of the batch"
        super().__init__(f"singular block: {block}{where}")
        self.block = block
        self.point = point


def singular_point(blocks: np.ndarray) -> int | None:
    """The first block of a stack (N, n, n) whose LU factorization meets a
    zero pivot; None for one block (n, n)."""
    if blocks.ndim < 3:
        return None
    return int(np.flatnonzero(np.linalg.det(blocks) == 0.0)[0])


def point_coords(a) -> list:
    """The coordinates of one point (n,) as floats, or of N points (N, n) as
    one array of N floats per coordinate."""
    a = np.asarray(a, dtype=float)
    return list(a) if a.ndim == 1 else list(a.T)


def _stack(values, lead: tuple) -> np.ndarray:
    """Float or N-point values as one array lead + (len(values),): the point
    axis first, C-contiguous."""
    if not lead:
        return np.array([value_of(v) for v in values])
    return np.stack([np.broadcast_to(value_of(v), lead) for v in values], axis=-1)


@dataclass(frozen=True)
class ShapingParams:
    """Feedback-shaping freedom: tau one-form, sigma bilinear form, vertical
    metric scale rho (the modified vertical metric is g_rho = rho g_gg), and
    an optional extra potential.

    ``tau[a][alpha]`` are SmoothFields over the shape coordinates; sigma must
    be finite and symmetric, rho finite and nonzero.  The special matching
    choice (vertical metric unchanged) is rho=1.
    """

    tau: tuple
    sigma: np.ndarray
    rho: float = 1.0
    epsilon_potential: SmoothField | None = None

    def __post_init__(self):
        tau = tuple(tuple(row) for row in self.tau)
        object.__setattr__(self, "tau", tau)
        sigma = np.asarray(self.sigma, dtype=float)
        if sigma.ndim != 2 or sigma.shape[0] != sigma.shape[1]:
            raise ValueError("sigma must be a square matrix")
        if not np.isfinite(sigma).all():
            raise ValueError(f"sigma must be finite, got {sigma.tolist()!r}")
        if np.abs(sigma - sigma.T).max() > 1e-12 * max(1.0, np.abs(sigma).max()):
            raise ValueError("sigma must be symmetric")
        object.__setattr__(self, "sigma", sigma)
        if not (math.isfinite(self.rho) and self.rho != 0.0):
            raise ValueError(f"rho must be finite and nonzero, got {self.rho!r}")

    @property
    def n_group(self) -> int:
        return len(self.tau)

    @property
    def n_shape(self) -> int:
        return len(self.tau[0])

    @property
    def is_special_matching(self) -> bool:
        return self.rho == 1.0

    @staticmethod
    def zero(dims: Dims, sigma: np.ndarray | None = None) -> "ShapingParams":
        from . import fields as fl
        tau = tuple(tuple(fl.constant(0.0, dims.n_shape) for _ in range(dims.n_shape))
                    for _ in range(dims.n_group))
        if sigma is None:
            sigma = np.zeros((dims.n_group, dims.n_group))
        return ShapingParams(tau=tau, sigma=sigma)

    def tau_value(self, x: np.ndarray) -> np.ndarray:
        return np.array(block_entries(self.tau, x))


def scalar_sigma_matrix(sys: MechanicalSystem, sigma: float) -> np.ndarray:
    """sigma_ab = sigma * g_ab, evaluated at shape point 0 (g_gg constant in
    every use of this helper)."""
    return float(sigma) * sys.ggg(np.zeros(sys.dims.n_shape))


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

def _block_reads(sys: MechanicalSystem, q, *blocks) -> dict:
    """`fields.read_at` of the metric blocks and ``blocks`` at q's shape part."""
    return read_at((sys.g_ss, sys.g_sg, sys.g_gg, *blocks), list(q[: sys.dims.n_shape]))


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
    return float(kinetic_energy(sys.metric_block(state.q), state.qdot, -sys.V_value(state.q)))


def _metric_data(sys: MechanicalSystem, q, reads: dict):
    """The metric blocks and their first partials in ``reads``, and dV at q."""
    return (*([[reads[f][part] for f in row] for row in b]
              for part in (0, 1) for b in (sys.g_ss, sys.g_sg, sys.g_gg)),
            gradient(sys.V, list(q)))


def el_covector(sys: MechanicalSystem, q, qd, qdd):
    """Euler-Lagrange expression of the given Lagrangian, one covector entry
    per coordinate (shape rows then group rows).  Generic over floats/jets."""
    return _el_covector(sys, _metric_data(sys, q, _block_reads(sys, q)), qd, qdd)


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


def controlled_el_covector(sys: MechanicalSystem, shaping: ShapingParams, q, qd, qdd,
                           reads=None):
    """Covector of the controlled system: shape rows unchanged, group rows get
    the shaping terms (and the rho and extra-potential terms when present).
    The metric and tau fields are read from ``reads`` (a `_block_reads` of
    them at q) or by a read of their own."""
    ns, ng = sys.dims.n_shape, sys.dims.n_group
    xd, xdd = list(qd[:ns]), list(qdd[:ns])
    if reads is None:
        reads = _block_reads(sys, q, shaping.tau)
    data = _metric_data(sys, q, reads)
    _, _, ggg, _, _, dgg, dV = data
    rho = shaping.rho
    phi = _el_covector(sys, data, qd, qdd)
    tau, dtau = ([[reads[f][part] for f in row] for row in shaping.tau] for part in (0, 1))
    eps = shaping.epsilon_potential
    dVe = [0.0] * (ns + ng) if eps is None else gradient(eps, list(q))

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
    gss, gsg, ggg, tau = (block_entries(b, x_coords)
                          for b in (sys.g_ss, sys.g_sg, sys.g_gg, shaping.tau))
    sigma = shaping.sigma

    special = shaping.is_special_matching
    if special:
        varpi = None
    else:
        ggg_inv = _inv_generic(ggg)
        # zeta^a_alpha = g^{ac} g_{alpha c}
        zeta = [[sum(ggg_inv[a][c] * gsg[al][c] for c in range(ng)) for al in range(ns)]
                for a in range(ng)]
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
    acc = sys.V.fn(list(q)) * (-1.0)
    if shaping.epsilon_potential is not None:
        acc = acc - shaping.epsilon_potential.fn(list(q))
    return kinetic_energy(M, qd, acc)


def kinetic_energy(M, qd, acc=0.0):
    """acc + (1/2) qd' M qd for a nested-list M, summed term by term from acc
    in row-major order, each term (0.5 qd_i) M_ij qd_j (floats or jets)."""
    half = [0.5 * v for v in qd]
    for i, row in enumerate(M):
        for j, v in enumerate(qd):
            acc = acc + half[i] * row[j] * v
    return acc


def legendre_covector(sys: MechanicalSystem, shaping: ShapingParams, q, qd):
    """Fiber derivative of the controlled Lagrangian; generic over floats/jets."""
    M = kinetic_matrix(sys, shaping, list(q[:sys.dims.n_shape]))
    return [sum(row[j] * qd[j] for j in range(len(qd))) for row in M]


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
    generic over floats/jets, at one point or at N points.  The explicit field
    is then one covector pass, qdd = -C^-1 Phi(q, qd, 0).  The ``_floats``
    read-outs take one state (n,) or N states (N, n) and put the point axis
    first.  For the covectors here the q-q Hessian block of Phi at jets is NaN:
    it needs the fields' third derivatives, which no Helmholtz family reads.

    ``shared(q)``, if given, reads what ``phi`` and ``accel_matrix`` would each
    read at q; the explicit field reads it once per call and hands it to both
    as a last argument.
    """

    def __init__(self, n: int, phi: Callable, accel_matrix: Callable,
                 dims: Dims | None = None, shared: Callable | None = None):
        self.n = n
        self.phi = phi
        self.accel_matrix = accel_matrix
        self.dims = dims
        self.shared = shared

    def phi_floats(self, q, qd, qdd) -> np.ndarray:
        q = np.asarray(q, dtype=float)
        return _stack(self.phi(point_coords(q), point_coords(qd), point_coords(qdd)),
                      q.shape[:-1])

    def accel_matrix_floats(self, q) -> np.ndarray:
        q = np.asarray(q, dtype=float)
        lead = q.shape[:-1]
        return _stack([v for row in self.accel_matrix(point_coords(q)) for v in row],
                      lead).reshape(lead + (self.n, self.n))

    def solve_accel(self, state: State) -> np.ndarray:
        return solve_accel(self, state)

    def to_explicit(self) -> "ExplicitSode":
        """The explicit field.  Its float path is recorded at its first call:
        one pass of ``shared``, ``phi`` and ``accel_matrix`` over tape
        variables (`jets.record`, with shared expressions computed once and
        unneeded lines that cannot raise dropped) gives the entries of C and
        the right-hand side as one straight-line function, and
        `jets.float_solver`, `solve_generic` compiled for n, whose pivots
        depend on the values, solves them.  A loop that cannot be taped stays
        on ``gamma``."""
        n = self.n

        def system(q, qd):
            data = () if self.shared is None else (self.shared(q),)
            rhs = [-v for v in self.phi(q, qd, [0.0] * n, *data)]
            return self.accel_matrix(q, *data), rhs

        def gamma(*u):
            return solve_generic(*system(u[:n], u[n:]))

        def entries(u):
            C, rhs = system(u[:n], u[n:])
            return [v for row in C for v in row] + rhs

        taped = solve = None

        def floats(*u):
            nonlocal taped, solve
            if taped is None:
                try:
                    taped, solve = record(entries, 2 * n), float_solver(n)
                except Untapeable:
                    taped = False
            if not taped:
                return [value_of(v) for v in gamma(*u)]
            return solve(*taped(*u))

        return ExplicitSode(n, gamma, floats, self.dims)


class ExplicitSode:
    """Second-order system qdd = Gamma(q, qd).

    ``gamma(*state)``, generic over floats and jets, and ``floats(*state)``, on
    Python floats (numpy scalars would make every operation a numpy one), take
    the 2n coordinates and velocities of a state and return its n accelerations;
    ``floats`` reads the floats of ``gamma`` unless given a faster path.

    ``body``, where given, is the source text that ``floats`` was compiled
    from over its globals: one function of the 2n state names whose statements
    assign names and whose last returns the accelerations.  `sim.integrate`
    inlines it into each stage of its RK4 march (`sim._rk4_march`), bound to
    those globals; a field without it marches by calls to ``floats``, as a
    taped loop does: its tape, inlined into four stages, would cost more to
    compile than a short march saves.
    """

    def __init__(self, n: int, gamma: Callable, floats: Callable | None = None,
                 dims: Dims | None = None, body: str | None = None):
        self.n = n
        self.gamma = gamma
        self.floats = floats or (lambda *u: [value_of(v) for v in gamma(*u)])
        self.dims = dims
        self.body = body

    @property
    def gamma2(self) -> Callable:
        """``floats``, kept only for perfbench's ``control.gamma2_us`` probe;
        ROADMAP item 7 deletes it."""
        return self.floats

    def gamma_floats(self, q, qd) -> np.ndarray:
        """Gamma at one state, by ``floats``."""
        return np.array(self.floats(*np.concatenate([q, qd], dtype=float).tolist()))

    def gamma_jets(self, q, qd) -> Sequence[Jet2]:
        """Gamma with exact first/second derivatives w.r.t. (q, qd); by
        `ImplicitSode.to_explicit` of the covectors here, the q-q Hessian
        block is NaN, as Phi's."""
        return self.gamma(*jet_vars(list(q) + list(qd)))


def _controlled_block(sys: MechanicalSystem, shaping: ShapingParams, q, reads=None):
    """[[g_ss, g_sg], [g_sg' + g_gg tau, g_gg]] at q (floats or jets), from
    ``reads`` (a `_block_reads` of the metric and tau) or a read of its own."""
    ns, ng = sys.dims.n_shape, sys.dims.n_group
    if reads is None:
        reads = _block_reads(sys, q, shaping.tau)
    gss, gsg, ggg, tau = ([[reads[f][0] for f in row] for row in b]
                          for b in (sys.g_ss, sys.g_sg, sys.g_gg, shaping.tau))
    C = metric_of(gss, gsg, ggg)
    for a in range(ng):
        for be in range(ns):
            acc = C[ns + a][be]
            for b in range(ng):
                acc = acc + ggg[a][b] * tau[b][be]
            C[ns + a][be] = acc
    return C


def uncontrolled_sode(sys: MechanicalSystem) -> ImplicitSode:
    return ImplicitSode(sys.dims.total, lambda q, qd, qdd: el_covector(sys, q, qd, qdd),
                        sys.metric_block, dims=sys.dims)


def controlled_implicit_sode(sys: MechanicalSystem, shaping: ShapingParams) -> ImplicitSode:
    """The controlled field; its explicit field reads each metric and tau field
    once per call (`fields.read_at`), and the covector and the acceleration
    matrix both take that read."""
    return ImplicitSode(
        sys.dims.total,
        lambda q, qd, qdd, reads=None: controlled_el_covector(sys, shaping, q, qd, qdd, reads),
        lambda q, reads=None: _controlled_block(sys, shaping, q, reads), dims=sys.dims,
        shared=lambda q: _block_reads(sys, q, shaping.tau))


def solve_accel(implicit: ImplicitSode, state: State) -> np.ndarray:
    """Accelerations solving Phi(q, qd, qdd) = 0 for a system affine in qdd,
    at one state (n,) or at N states (N, n) as one stacked solve.

    The residual check evaluates Phi at the solution, so it also validates
    the acceleration matrix against the covector.
    """
    C = implicit.accel_matrix_floats(state.q)
    rhs = -implicit.phi_floats(state.q, state.qdot, np.zeros_like(state.qdot))
    try:
        acc = np.linalg.solve(C, rhs[..., None])[..., 0]
    except np.linalg.LinAlgError as exc:
        raise SingularBlockError("C", singular_point(C)) from exc
    res = implicit.phi_floats(state.q, state.qdot, acc)
    scale = np.fmax(1.0, np.abs(C).max(axis=(-2, -1)) * np.abs(acc).max(axis=-1))
    if np.any(np.abs(res).max(axis=-1) > 1e-10 * scale):
        raise AssertionError("acceleration solve residual unexpectedly large")
    return acc


def feedback_control(sys: MechanicalSystem, shaping: ShapingParams, state: State,
                     accel: np.ndarray) -> np.ndarray:
    """Feedback closing the group equations of the controlled system: the
    group rows of the mechanical system's Euler-Lagrange covector minus those
    of the controlled system, at the state and the accelerations.
    """
    ns = sys.dims.n_shape
    q, qd, qdd = list(state.q), list(state.qdot), list(np.asarray(accel, dtype=float))
    phi = el_covector(sys, q, qd, qdd)
    phi_c = controlled_el_covector(sys, shaping, q, qd, qdd)
    return np.array([a - b for a, b in zip(phi[ns:], phi_c[ns:])])


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
