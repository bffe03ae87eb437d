"""Stabilizing feedback laws, shaped kinetic/potential structure, and the
closed-loop fields for the two worked systems (cart-pole, cart-pole on an
incline).

The shaped potential used for energy bookkeeping is always the one consistent
with the closed-loop dynamics: recovered by quadrature of the reconstructed
gradient for the cart-pole, and by the same reconstruction (analytic in the
group coordinate) for the incline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy.integrate import quad
from scipy.interpolate import CubicSpline

from . import jets
from .fields import SmoothField
from .jets import Jet2, chain, cos, jet_vars, value_of
from .lagrangian import (ExplicitSode, ShapingParams, controlled_lagrangian_generic,
                         kinetic_matrix, scalar_sigma_matrix)
from .matching import new_tau_closed_form
from .model import CartpoleParams, InclineParams, MechanicalSystem, State, cartpole_system, incline_system

__all__ = [
    "GainSelection",
    "ShapedMultipliers",
    "ShapedEnergy",
    "MatchingFailure",
    "position_feedback_control",
    "gain_bound",
    "gain_bound_crossing",
    "shaped_multipliers",
    "reconstruct_shaped_potential_gradient",
    "shaped_energy",
    "make_shaped_energy",
    "cartpole_closed_loop",
    "cartpole_observed_loop",
    "cartpole_control",
    "cartpole_shaped_potential_gradient",
    "cartpole_shaped_potential",
    "cartpole_shaping",
    "incline_A_coefficient",
    "incline_A_field",
    "incline_h",
    "incline_Veps",
    "incline_veps_field",
    "incline_base_shaping",
    "incline_h_curve",
    "incline_shaping",
    "incline_hessian_check",
    "incline_closed_loop",
    "incline_shaped_potential",
    "incline_observed_loop",
    "PotentialCurve",
]


class MatchingFailure(RuntimeError):
    """A quantity that must be velocity-independent retained velocity terms."""


@dataclass(frozen=True)
class GainSelection:
    """Free parameters of the stabilizing designs."""

    k: float
    sigma: float = 1.0
    rho: float = 1.0
    c: float = 0.0
    s0: float = 0.0

    def __post_init__(self):
        if not np.isfinite(self.k):
            raise ValueError("k must be finite")
        if self.sigma <= 0.0:
            raise ValueError("sigma must be positive")


@dataclass
class ShapedMultipliers:
    gtilde: np.ndarray
    D: float
    Dtilde: float
    positive_definite: bool


@dataclass
class ShapedEnergy:
    kinetic: Callable[[State], float]
    potential: Callable[[np.ndarray], float]

    def value(self, state: State) -> float:
        return self.kinetic(state) + self.potential(state.q)


# ---------------------------------------------------------------------------
# generic operations
# ---------------------------------------------------------------------------

def position_feedback_control(sys: MechanicalSystem, tau_fields: Sequence[SmoothField],
                              q: np.ndarray) -> np.ndarray:
    """u_a = g_ab tau^b A^{11} V'(x): no velocity argument at all.

    Valid for one shape coordinate with constant group block and tau solving
    the shaping ODE.
    """
    if sys.dims.n_shape != 1:
        raise ValueError("position feedback requires one shape coordinate")
    ng = sys.dims.n_group
    q = np.asarray(q, dtype=float)
    x = q[:1]
    g11 = sys.gss(x)[0, 0]
    g1 = sys.gsg(x)[0]
    ggg = sys.ggg(x)
    ginv = np.linalg.inv(ggg)
    tau = np.array([f.value(x) for f in tau_fields])
    A11 = g11 - float(g1 @ (ginv @ g1 + tau))
    if A11 == 0.0:
        raise ZeroDivisionError("shape-block Schur complement vanishes at q")
    Vp = sys.V_d1(q)[0]
    return (ggg @ tau) * (Vp / A11)


def gain_bound(p: CartpoleParams, x: float) -> float:
    """Minimal gain making the shaped potential restoring at angle x."""
    if abs(x) >= math.pi / 2:
        raise ValueError("|x| must be below pi/2")
    cx = math.cos(x)
    if cx <= 0.0:
        raise ValueError("cos x must be positive")
    D = p.alpha * p.gamma - p.beta ** 2 * cx ** 2
    return D / (p.beta * p.gamma * cx * math.sqrt(D))


def gain_bound_crossing(p: CartpoleParams, k: float) -> float:
    """Largest angle on (0, pi/2) where the gain bound still admits k."""
    lo, hi = 0.0, math.pi / 2 - 1e-9
    if gain_bound(p, lo) >= k:
        raise ValueError("k fails the bound even at the equilibrium")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if gain_bound(p, mid) < k:
            lo = mid
        else:
            hi = mid
    return lo


def shaped_multipliers(sys: MechanicalSystem, shaping: ShapingParams,
                       q: np.ndarray) -> ShapedMultipliers:
    """Velocity Hessian of the controlled Lagrangian (by jets) plus the
    determinant bookkeeping."""
    q = np.asarray(q, dtype=float)
    n = sys.dims.total
    seeds = jet_vars([0.0] * n)
    val = controlled_lagrangian_generic(sys, shaping, list(q), seeds)
    gtilde = np.array(val.h)
    x = q[: sys.dims.n_shape]
    D = float(np.linalg.det(sys.metric(x)))
    Dtilde = float(np.linalg.det(gtilde))
    pd = bool(np.linalg.eigvalsh(0.5 * (gtilde + gtilde.T)).min() > 0.0)
    return ShapedMultipliers(gtilde=gtilde, D=D, Dtilde=Dtilde, positive_definite=pd)


def _potential_gradient_candidate(sys: MechanicalSystem, shaping: ShapingParams,
                                  closed_loop: ExplicitSode, q: np.ndarray,
                                  qd: np.ndarray) -> np.ndarray:
    """dV/dq = dK/dq - d2K/(dqd dq) qd - gtilde Gamma, K the shaped kinetic energy."""
    n = sys.dims.total
    seeds = jet_vars(list(q) + list(qd))
    ns = sys.dims.n_shape
    M = kinetic_matrix(sys, shaping, seeds[:ns])
    K = 0.0
    for i in range(n):
        for j in range(n):
            K = K + 0.5 * seeds[n + i] * M[i][j] * seeds[n + j]
    dK_dq = K.g[:n]
    mixed = K.h[n:, :n]                    # d2K / dqd^i dq^k
    gtilde = K.h[n:, n:]
    gamma = closed_loop.gamma_floats(q, qd)
    return dK_dq - mixed @ qd - gtilde @ gamma


def reconstruct_shaped_potential_gradient(sys: MechanicalSystem, shaping: ShapingParams,
                                          closed_loop: ExplicitSode, q: np.ndarray,
                                          velocities: np.ndarray | None = None,
                                          seed: int = 0,
                                          tol: float = 1e-10) -> np.ndarray:
    """Gradient of the potential that completes the shaped kinetic energy into
    a Lagrangian matching the closed loop.

    The candidate must come out velocity-independent; any residual velocity
    dependence above tolerance signals a matching failure.
    """
    q = np.asarray(q, dtype=float)
    n = sys.dims.total
    if velocities is None:
        rng = np.random.default_rng(seed)
        velocities = np.vstack([np.zeros(n), rng.uniform(-1.0, 1.0, size=(5, n))])
    cands = np.array([_potential_gradient_candidate(sys, shaping, closed_loop, q, qd)
                      for qd in velocities])
    spread = np.abs(cands - cands[0]).max()
    scale = max(1.0, np.abs(cands).max())
    if spread > tol * scale:
        raise MatchingFailure(
            f"potential gradient keeps velocity dependence: spread {spread:.3e}")
    return cands[0]


def shaped_energy(sys: MechanicalSystem, shaping: ShapingParams,
                  potential: Callable, state: State) -> float:
    """E = (1/2) qdot' gtilde qdot + potential(q)."""
    return make_shaped_energy(sys, shaping, potential).value(state)


def make_shaped_energy(sys: MechanicalSystem, shaping: ShapingParams,
                       potential: Callable) -> ShapedEnergy:
    def kinetic(state: State) -> float:
        ns = sys.dims.n_shape
        M = np.array([[value_of(v) for v in row]
                      for row in kinetic_matrix(sys, shaping, list(state.q[:ns]))])
        return float(0.5 * state.qdot @ M @ state.qdot)

    pot = potential if callable(potential) else potential.value
    return ShapedEnergy(kinetic=kinetic, potential=pot)


def _cumulative_quad(f: Callable[[float], float], xs: np.ndarray) -> np.ndarray:
    """Integral of f from 0 to each grid point, one adaptive quad per cell."""
    vals = np.empty_like(xs)
    i0 = int(np.argmin(np.abs(xs)))
    vals[i0] = quad(f, 0.0, xs[i0], epsabs=1e-12, epsrel=1e-8)[0]
    for i in range(i0 + 1, len(xs)):
        vals[i] = vals[i - 1] + quad(f, xs[i - 1], xs[i], epsabs=1e-12, epsrel=1e-8)[0]
    for i in range(i0 - 1, -1, -1):
        vals[i] = vals[i + 1] - quad(f, xs[i], xs[i + 1], epsabs=1e-12, epsrel=1e-8)[0]
    return vals


class PotentialCurve:
    """One-dimensional potential cached on a grid with its exact slope."""

    def __init__(self, xs: np.ndarray, values: np.ndarray, slope: Callable[[float], float]):
        self.xs = xs
        self.values = values
        self._spline = CubicSpline(xs, values)
        self.slope = slope

    def value(self, q) -> float:
        q = np.atleast_1d(q)
        return float(self._spline(q[0]))

    def value_array(self, x: np.ndarray) -> np.ndarray:
        return self._spline(x)

    def __call__(self, q) -> float:
        return self.value(q)


# ---------------------------------------------------------------------------
# cart-pole
# ---------------------------------------------------------------------------

def cartpole_shaping(p: CartpoleParams, gains: GainSelection) -> ShapingParams:
    """New-tau shaping for the cart-pole (special matching)."""
    sys = cartpole_system(p)
    tau = new_tau_closed_form(sys, gains.k)
    return ShapingParams(tau=((tau,),), sigma=scalar_sigma_matrix(sys, gains.sigma))


def _closed_loop(build: Callable, dims) -> ExplicitSode:
    """Closed loop from one acceleration body ``build(ns)``, whose sin, cos and
    sqrt come from the namespace ``ns``: ``gamma`` is built over jets and the
    RK4 fast path ``gamma2`` over math."""
    accel = build(jets)

    def gamma(q, qd):
        return list(accel(q[0], q[1], qd[0], qd[1]))

    return ExplicitSode(2, gamma, gamma2=build(math), dims=dims)


def _cartpole_accel(p: CartpoleParams, k: float, ns) -> Callable:
    """(x, theta, xdot, thetadot) -> (xddot, thetaddot) of the cart-pole closed
    loop, over the sin, cos and sqrt of ``ns`` (math, jets or numpy)."""
    al, be, ga, d = p.alpha, p.beta, p.gamma, p.d
    sin, cos, sqrt = ns.sin, ns.cos, ns.sqrt

    def accel(x, th, xd, thd):
        cx, sx = cos(x), sin(x)
        b2c2 = be * be * cx * cx
        D = al * ga - b2c2
        r = sqrt(D)
        den = be * ga * k * cx * r - D
        F = sx * (d * ga * (b2c2 - al * ga) / (-den) - be * be * xd * xd * cx) / D
        G = sx * (-al * d * ga * ga * k / (r * den) + be * d * cx / D + al * be * xd * xd / D)
        return F, G

    return accel


def cartpole_closed_loop(p: CartpoleParams, gains: GainSelection) -> ExplicitSode:
    """Closed loop of the cart-pole under the position feedback with gain k."""
    return _closed_loop(lambda ns: _cartpole_accel(p, gains.k, ns), cartpole_system(p).dims)


def cartpole_control(p: CartpoleParams, k: float, x) -> np.ndarray:
    """Closed-form position feedback for the cart-pole (vectorized in x)."""
    x = np.asarray(x, dtype=float)
    cx = np.cos(x)
    D = p.alpha * p.gamma - p.beta ** 2 * cx ** 2
    r = np.sqrt(D)
    return -p.d * p.gamma ** 2 * k * np.sin(x) * r \
        / (p.beta * p.gamma * k * cx * r - p.alpha * p.gamma + p.beta ** 2 * cx ** 2)


def cartpole_shaped_potential_gradient(p: CartpoleParams, gains: GainSelection, x) -> np.ndarray:
    """Restoring slope of the shaped potential (vectorized in x)."""
    x = np.asarray(x, dtype=float)
    cx = np.cos(x)
    D = p.alpha * p.gamma - p.beta ** 2 * cx ** 2
    den = p.beta * p.gamma * gains.k * cx * np.sqrt(D) - p.alpha * p.gamma \
        + p.beta ** 2 * cx ** 2
    return -p.d * (p.gamma ** 2 * gains.k ** 2 * gains.sigma + 1.0) * np.sin(x) * D / den


def cartpole_shaped_potential(p: CartpoleParams, gains: GainSelection,
                              x_span: tuple[float, float], n_grid: int = 801) -> PotentialCurve:
    """Shaped potential by adaptive quadrature of its slope, normalized to 0 at x=0."""
    lo, hi = x_span
    xs = np.linspace(lo, hi, n_grid)

    def slope(x: float) -> float:
        return float(cartpole_shaped_potential_gradient(p, gains, x))

    return PotentialCurve(xs, _cumulative_quad(slope, xs), slope)


def cartpole_observed_loop(p: CartpoleParams, gains: GainSelection, x_max: float):
    """Closed loop with its vectorized control and shaped-energy observers
    (times, Q, Qd) -> column; the shaped potential spans |x| <= x_max, clipped
    inside the gain bound."""
    loop = cartpole_closed_loop(p, gains)
    span = min(x_max, gain_bound_crossing(p, gains.k) - 1e-6)
    pot = cartpole_shaped_potential(p, gains, (-span, span))
    al, be, ga, k, sigma = p.alpha, p.beta, p.gamma, gains.k, gains.sigma

    def control(times, Q, Qd):
        return cartpole_control(p, k, Q[:, 0])

    def energy(times, Q, Qd):
        x = Q[:, 0]
        xd, sd = Qd[:, 0], Qd[:, 1]
        cx = np.cos(x)
        D = al * ga - be ** 2 * cx ** 2
        g11 = ga * k ** 2 * (sigma + 1) * D + 2 * be * k * cx * np.sqrt(D) + al
        g12 = ga * k * np.sqrt(D) + be * cx
        return 0.5 * (g11 * xd ** 2 + 2 * g12 * xd * sd + ga * sd ** 2) + pot.value_array(x)

    return loop, control, energy


# ---------------------------------------------------------------------------
# incline
# ---------------------------------------------------------------------------

def _incline_sigma_scalar(p: InclineParams, shaping: ShapingParams) -> float:
    return float(shaping.sigma[0, 0] / p.gamma)


def incline_A_field(p: InclineParams, shaping: ShapingParams) -> SmoothField:
    """Characteristic slope A(x) of the extra-potential equation, as a field."""
    sigma = _incline_sigma_scalar(p, shaping)
    rho = shaping.rho
    al, be, ga, psi = p.alpha, p.beta, p.gamma, p.psi
    tau = shaping.tau[0][0].fn

    def A(u):
        cpx = cos(psi - u[0])
        t = tau(u)
        num = be * (rho - 1.0) * cpx * (cpx * cpx * (be ** 2) - al * ga) \
            + be * ga ** 2 * (rho + sigma) * t * t * cpx \
            + ga * rho * t * (2.0 * be ** 2 * cpx * cpx - al * ga)
        den = ga * rho * (al * ga - be ** 2 * cpx * cpx - be * ga * t * cpx)
        return num / den

    return SmoothField(1, A)


def incline_A_coefficient(p: InclineParams, shaping: ShapingParams, x: float) -> float:
    field = incline_A_field(p, shaping)
    return float(field.value(np.atleast_1d(np.asarray(x, dtype=float))))


def incline_safe_span(p: InclineParams, k: float,
                      requested: tuple[float, float],
                      margin: float = 5e-3) -> tuple[float, float]:
    """Clip a shape-coordinate span to the pole-free window of A(x).

    A(x) diverges where the shape-block Schur complement vanishes, i.e. where
    the gain bound in the rotated angle psi - x reaches k.
    """
    xc = gain_bound_crossing(p, k)
    lo = max(requested[0], p.psi - xc + margin)
    hi = min(requested[1], p.psi + xc - margin)
    if not lo < hi:
        raise ValueError("requested span lies outside the pole-free window")
    return lo, hi


INCLINE_LOOP_SPAN = (-1.5, 1.5)    # shape span of the incline's h-curve, before clipping


class _HCurve:
    """Integral of A from 0, cached on a grid; derivatives are exact."""

    def __init__(self, A: SmoothField, x_span: tuple[float, float], n_grid: int = 801):
        self.xs = np.linspace(x_span[0], x_span[1], n_grid)
        self.values = _cumulative_quad(lambda x: A.fn([x]), self.xs)
        self._spline = CubicSpline(self.xs, self.values)
        self.A = A

    def __call__(self, x):
        """h at a float, an array or a Jet2; h' and h'' of a jet are A and A'."""
        if isinstance(x, Jet2):
            a = self.A.eval_jet(jet_vars([x.f]))
            return chain(x, float(self._spline(x.f)), a.f, a.g[0])
        if isinstance(x, np.ndarray):
            return self._spline(x)
        return float(self._spline(x))


def incline_base_shaping(p: InclineParams, gains: GainSelection) -> ShapingParams:
    """New-tau shaping with scalar rho, before the extra potential is added."""
    sys = incline_system(p)
    return ShapingParams(tau=((new_tau_closed_form(sys, gains.k),),),
                         sigma=scalar_sigma_matrix(sys, gains.sigma), rho=gains.rho)


def incline_h_curve(p: InclineParams, shaping: ShapingParams, k: float,
                    x_span: tuple[float, float]) -> _HCurve:
    """h, the integral of the shaping's A(x), on x_span clipped to the pole-free
    window of gain k."""
    return _HCurve(incline_A_field(p, shaping), incline_safe_span(p, k, x_span))


def incline_h(p: InclineParams, shaping: ShapingParams, x: float) -> float:
    """h(x) = integral of A from 0 to x by adaptive quadrature."""
    A = incline_A_field(p, shaping)
    return float(quad(lambda r: A.fn([r]), 0.0, float(x),
                      epsabs=1e-10, epsrel=1e-10)[0])


def incline_Veps(p: InclineParams, shaping: ShapingParams, gains: GainSelection,
                 point: tuple[float, float]) -> tuple[float, np.ndarray, float]:
    """Extra potential at (x, s): value, gradient and h(x).

    V_eps = gamma*grav*sin(psi)*s + s^2/2 - s h(x) + c x^2 - s0 s + s0 h(x).
    """
    x, s = float(point[0]), float(point[1])
    hx = incline_h(p, shaping, x)
    A = incline_A_coefficient(p, shaping, x)
    slope = p.gamma * p.grav * math.sin(p.psi)
    value = slope * s + 0.5 * s ** 2 - s * hx + gains.c * x ** 2 - gains.s0 * s + gains.s0 * hx
    grad = np.array([(gains.s0 - s) * A + 2.0 * gains.c * x,
                     slope + s - hx - gains.s0])
    return value, grad, hx


def incline_veps_field(p: InclineParams, shaping: ShapingParams, gains: GainSelection,
                       x_span: tuple[float, float] = INCLINE_LOOP_SPAN) -> SmoothField:
    """The extra potential as a SmoothField over (x, s); h cached on a grid,
    its jet derivatives exact through A and its derivative."""
    h = incline_h_curve(p, shaping, gains.k, x_span)
    slope = p.gamma * p.grav * math.sin(p.psi)
    c, s0 = gains.c, gains.s0

    def veps(u):
        x, s = u
        hx = h(x)
        return slope * s + 0.5 * s ** 2 - s * hx + c * x ** 2 - s0 * s + s0 * hx

    return SmoothField(2, veps)


def incline_shaping(p: InclineParams, gains: GainSelection,
                    x_span: tuple[float, float] = INCLINE_LOOP_SPAN) -> ShapingParams:
    """New-tau shaping with scalar rho and the constructed extra potential."""
    base = incline_base_shaping(p, gains)
    veps = incline_veps_field(p, base, gains, x_span)
    return ShapingParams(tau=base.tau, sigma=base.sigma, rho=gains.rho,
                         epsilon_potential=veps)


def incline_hessian_check(p: InclineParams, shaping: ShapingParams,
                          gains: GainSelection) -> tuple[np.ndarray, bool, float]:
    """Hessian of the total displayed potential at the target equilibrium,
    its positive-definiteness, and the quadratic-coefficient threshold."""
    A0 = incline_A_coefficient(p, shaping, 0.0)
    H = np.array([[p.d + 2.0 * gains.c, -A0], [-A0, 1.0]])
    c_min = (-p.d + A0 ** 2) / 2.0
    # strict Sylvester test with a relative floor so the boundary fails
    floor = 1e-12 * max(1.0, float(np.abs(H).max()) ** 2)
    pd = bool(H[0, 0] > floor and np.linalg.det(H) > floor)
    return H, pd, c_min


def _incline_loop(p: InclineParams, gains: GainSelection, h: _HCurve, ns):
    """The incline closed loop over the sin, cos and sqrt of ``ns`` (math, jets
    or numpy) and the h-curve ``h``.

    Returns tau(x) -> (cos(psi - x), tau, d tau / dx) and
    accel(x, s, xdot, sdot) -> (xddot, sddot).
    """
    al, be, ga, d, psi = p.alpha, p.beta, p.gamma, p.d, p.psi
    k, rho, s0 = gains.k, gains.rho, gains.s0
    sin, cos, sqrt = ns.sin, ns.cos, ns.sqrt

    def tau(x):
        cpx = cos(psi - x)
        rD = sqrt(al * ga - be * be * cpx * cpx)
        return cpx, k * rD, k * be * be * cpx * sin(x - psi) / rD

    def accel(x, s, xd, sd):
        cpx, t, tp = tau(x)
        B = be * cpx
        r1 = -d * sin(x)
        r2 = -(be * sin(psi - x) + ga * tp) * xd * xd - (s - h(x) - s0) / rho
        det = al * ga - B * B - B * ga * t
        return (ga * r1 - B * r2) / det, (-(B + ga * t) * r1 + al * r2) / det

    return tau, accel


def _incline_kinetic(p: InclineParams, gains: GainSelection, cpx, t):
    """Shaped kinetic coefficients (g11, g12) at cos(psi - x) = cpx and tau = t;
    g22 is rho * gamma."""
    al, be, ga, rho = p.alpha, p.beta, p.gamma, gains.rho
    g11b = al + be ** 2 * (rho - 1.0) * cpx ** 2 / ga + 2.0 * be * rho * cpx * t \
        + ga * (rho + gains.sigma) * t ** 2
    return g11b, rho * (be * cpx + ga * t)


def incline_closed_loop(p: InclineParams, gains: GainSelection, h: _HCurve) -> ExplicitSode:
    """Closed loop of the incline system under the new-tau control with scalar
    rho and the constructed extra potential, whose h-curve is ``h``."""
    return _closed_loop(lambda ns: _incline_loop(p, gains, h, ns)[1], incline_system(p).dims)


def incline_shaped_potential(p: InclineParams, gains: GainSelection, h: _HCurve,
                             x_span: tuple[float, float] = (-1.2, 1.2),
                             n_grid: int = 801):
    """Conserved shaped potential of the incline closed loop.

    The group-coordinate dependence is analytic; the shape part is the
    quadrature of the reconstructed slope w1(x) d sin(x) + A(x) h(x), where
    w1 is the first contraction of the shaped kinetic matrix with the inverse
    acceleration coefficients.  ``h`` must cover x_span clipped to the
    pole-free window.
    """
    lo, hi = incline_safe_span(p, gains.k, x_span)
    if not h.xs[0] <= lo < hi <= h.xs[-1]:
        raise ValueError("the h-curve does not cover the potential span")
    A = h.A
    al, be, ga, d = p.alpha, p.beta, p.gamma, p.d
    s0 = gains.s0
    tau = _incline_loop(p, gains, h, math)[0]

    def w1(x: float) -> float:
        cpx, t, _ = tau(x)
        B = be * cpx
        C = np.array([[al, B], [B + ga * t, ga]])
        return float(np.linalg.solve(C.T, np.array(_incline_kinetic(p, gains, cpx, t)))[0])

    def slope(x: float) -> float:
        return w1(x) * d * math.sin(x) + A.fn([x]) * h(x)

    xs = np.linspace(lo, hi, n_grid)
    Wspline = CubicSpline(xs, _cumulative_quad(slope, xs))

    class InclinePotential:
        def value(self, q) -> float:
            x, s = float(q[0]), float(q[1])
            return float(Wspline(x) - h(x) * (s - s0) + 0.5 * (s - s0) ** 2)

        def value_arrays(self, x: np.ndarray, s: np.ndarray) -> np.ndarray:
            return Wspline(x) - h(x) * (s - s0) + 0.5 * (s - s0) ** 2

        def gradient(self, q) -> np.ndarray:
            x, s = float(q[0]), float(q[1])
            Ax = A.value(np.array([x]))
            return np.array([slope(x) - Ax * (s - s0), (s - s0) - h(x)])

        def __call__(self, q) -> float:
            return self.value(q)

    return InclinePotential()


def incline_observed_loop(p: InclineParams, gains: GainSelection,
                          x_span: tuple[float, float]):
    """Closed loop with its vectorized control and shaped-energy observers
    (times, Q, Qd) -> column, all on one h-curve; x_span is the span of the
    shaped potential."""
    h = incline_h_curve(p, incline_base_shaping(p, gains), gains.k,
                        (min(INCLINE_LOOP_SPAN[0], x_span[0] - 0.05),
                         max(INCLINE_LOOP_SPAN[1], x_span[1] + 0.05)))
    loop = incline_closed_loop(p, gains, h)
    pot = incline_shaped_potential(p, gains, h, x_span)
    tau, accel = _incline_loop(p, gains, h, np)
    ga, rho, s0 = p.gamma, gains.rho, gains.s0
    slope = ga * p.grav * np.sin(p.psi)

    def control(times, Q, Qd):
        x, s, xd = Q[:, 0], Q[:, 1], Qd[:, 0]
        _, t, tp = tau(x)
        xdd = accel(x, s, xd, Qd[:, 1])[0]
        dVeps_ds = slope + s - h(x) - s0
        return (1 - rho) / rho * slope - dVeps_ds / rho - ga * t * xdd - ga * tp * xd ** 2

    def energy(times, Q, Qd):
        x, s = Q[:, 0], Q[:, 1]
        xd, sd = Qd[:, 0], Qd[:, 1]
        cpx, t, _ = tau(x)
        g11b, g12b = _incline_kinetic(p, gains, cpx, t)
        return 0.5 * (g11b * xd ** 2 + 2 * g12b * xd * sd + rho * ga * sd ** 2) \
            + pot.value_arrays(x, s)

    return loop, control, energy
