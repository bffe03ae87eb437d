"""Stabilizing feedback laws, shaped kinetic/potential structure, and the
closed-loop fields for the two worked systems (cart-pole, cart-pole on an
incline).

The shaped potential used for energy bookkeeping is always the one consistent
with the closed-loop dynamics: recovered by integrating the reconstructed
gradient for the cart-pole, and by the same reconstruction (analytic in the
group coordinate) for the incline.  Every cached curve (both potentials and
the incline's h) is a `fields.Curve` on an 801-point grid whose values come
from one cumulative integral, `_cumulative_integral`: an 8-point
Gauss-Legendre rule per grid cell, bisected where the cell and its halves
disagree, with the integrand evaluated on arrays of nodes.  scipy's adaptive
``quad`` is left to the pointwise oracle `incline_h`, which imports it when it
runs: no command path calls it, so no command imports scipy.
Each closed-loop formula is written once: each acceleration over the sin, cos
and sqrt of ``math`` (``floats``) or `jets` (``gamma``), the rest over `jets`,
which sends arrays to numpy.  The shaped kinetic matrix is `kinetic_matrix`
alone, so every observed energy row is `shaped_energy`'s float at its state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import jets
from .fields import Curve, SmoothField
from .jets import cos, jet_vars
from .lagrangian import (ExplicitSode, ShapingParams, kinetic_energy, kinetic_matrix,
                         scalar_sigma_matrix)
from .matching import new_tau_closed_form
from .model import (CartpoleParams, Dims, InclineParams, MechanicalSystem, State,
                    cartpole_system, incline_system)

__all__ = [
    "GainSelection",
    "ShapedMultipliers",
    "MatchingFailure",
    "position_feedback_control",
    "gain_bound",
    "gain_bound_crossing",
    "shaped_multipliers",
    "reconstruct_shaped_potential_gradient",
    "shaped_energy",
    "cartpole_closed_loop",
    "cartpole_observed_loop",
    "cartpole_control",
    "cartpole_shaped_potential_gradient",
    "cartpole_shaped_potential",
    "cartpole_shaping",
    "new_tau_shaping",
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
    "closed_loop_key",
    "PotentialCurve",
]


class MatchingFailure(RuntimeError):
    """A quantity that must be velocity-independent retained velocity terms."""


@dataclass(frozen=True)
class GainSelection:
    """Free parameters of the stabilizing designs.  An invalid one is a
    ValueError whose message starts with its field name."""

    k: float
    sigma: float = 1.0
    rho: float = 1.0
    c: float = 0.0
    s0: float = 0.0

    def __post_init__(self):
        if not math.isfinite(self.k):
            raise ValueError(f"k must be finite, got {self.k!r}")
        if not 0.0 < self.sigma < math.inf:
            raise ValueError(f"sigma must be positive and finite, got {self.sigma!r}")
        if not (math.isfinite(self.rho) and self.rho != 0.0):
            raise ValueError(f"rho must be finite and nonzero, got {self.rho!r}")
        for name in ("c", "s0"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)!r}")


@dataclass
class ShapedMultipliers:
    gtilde: np.ndarray
    D: float
    Dtilde: float
    positive_definite: bool


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
            lo, moved = mid, mid != lo
        else:
            hi, moved = mid, mid != hi
        if not moved:       # a fixed point: every later step repeats this one
            break
    return lo


def shaped_multipliers(sys: MechanicalSystem, shaping: ShapingParams,
                       q: np.ndarray) -> ShapedMultipliers:
    """Velocity Hessian of the controlled Lagrangian, its `kinetic_matrix`,
    plus the determinant bookkeeping."""
    x = np.asarray(q, dtype=float)[: sys.dims.n_shape]
    gtilde = np.array(kinetic_matrix(sys, shaping, x.tolist()))
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
    K = kinetic_energy(kinetic_matrix(sys, shaping, seeds[:sys.dims.n_shape]), seeds[n:])
    dK_dq = K.g[:n]
    mixed = K.h[n:, :n]                    # d2K / dqd^i dq^k
    gtilde = K.h[n:, n:]
    gamma = closed_loop.gamma_floats(q, qd)
    return dK_dq - mixed @ qd - gtilde @ gamma


def reconstruct_shaped_potential_gradient(sys: MechanicalSystem, shaping: ShapingParams,
                                          closed_loop: ExplicitSode,
                                          q: np.ndarray) -> np.ndarray:
    """Gradient of the potential that completes the shaped kinetic energy into
    a Lagrangian matching the closed loop.

    The candidate must come out velocity-independent: its values at zero
    velocity and at 5 seeded random velocities in [-1, 1]^n must agree to
    1e-10 relative, or the matching has failed.
    """
    q = np.asarray(q, dtype=float)
    n = sys.dims.total
    rng = np.random.default_rng(0)
    velocities = np.vstack([np.zeros(n), rng.uniform(-1.0, 1.0, size=(5, n))])
    cands = np.array([_potential_gradient_candidate(sys, shaping, closed_loop, q, qd)
                      for qd in velocities])
    spread = np.abs(cands - cands[0]).max()
    scale = max(1.0, np.abs(cands).max())
    if spread > 1e-10 * scale:
        raise MatchingFailure(
            f"potential gradient keeps velocity dependence: spread {spread:.3e}")
    return cands[0]


def shaped_energy(sys: MechanicalSystem, shaping: ShapingParams,
                  potential: Callable, state: State) -> float:
    """E = (1/2) qdot' gtilde qdot + potential(q)."""
    M = kinetic_matrix(sys, shaping, list(state.q[:sys.dims.n_shape]))
    return float(kinetic_energy(M, state.qdot)) + potential(state.q)


def new_tau_shaping(sys: MechanicalSystem, gains: GainSelection,
                    rho: float = 1.0) -> ShapingParams:
    """The closed-form new tau of gain k, sigma_ab = sigma g_ab and rho."""
    return ShapingParams(tau=((new_tau_closed_form(sys, gains.k),),),
                         sigma=scalar_sigma_matrix(sys, gains.sigma), rho=rho)


# 8-point Gauss-Legendre rule on [-1, 1], nodes and weights correctly rounded
_GL_T = np.array([-0.9602898564975363, -0.7966664774136267, -0.525532409916329,
                  -0.1834346424956498, 0.1834346424956498, 0.525532409916329,
                  0.7966664774136267, 0.9602898564975363])
_GL_W = np.array([0.10122853629037626, 0.22238103445337448, 0.31370664587788727,
                  0.362683783378362, 0.362683783378362, 0.31370664587788727,
                  0.22238103445337448, 0.10122853629037626])
_EPSABS, _EPSREL = 1e-12, 1e-8
_CURVE_POINTS = 801     # grid points of every cached curve
_MAX_LEVELS = 50        # bisection levels of one cell
_MAX_PIECES = 64        # pieces of one cell still unconverged at one level


def _gauss(f: Callable[[np.ndarray], np.ndarray], a: np.ndarray, b: np.ndarray,
           where: Callable[[int], str]) -> np.ndarray:
    """The 8-point rule on every piece [a_j, b_j], calling f once on the nodes
    of all the pieces.  A non-finite integrand value is a ValueError naming
    the cell of its piece, ``where(j)``."""
    c, r = 0.5 * (a + b), 0.5 * (b - a)
    x = c[:, None] + r[:, None] * _GL_T
    with np.errstate(all="ignore"):
        fx = np.broadcast_to(np.asarray(f(x.ravel()), dtype=float), x.size).reshape(x.shape)
    finite = np.isfinite(fx)
    if not finite.all():
        j, i = np.argwhere(~finite)[0]
        raise ValueError(f"cumulative integral: the integrand is {float(fx[j, i])!r} at "
                         f"x = {float(x[j, i])!r}, in {where(j)}")
    return r * (fx * _GL_W).sum(axis=1)


def _cell_integrals(f: Callable[[np.ndarray], np.ndarray], a0: np.ndarray,
                    b0: np.ndarray) -> np.ndarray:
    """Integral of f over each cell [a0_i, b0_i], f called on arrays of nodes.

    A cell is accepted when its 8-point Gauss-Legendre estimate and the sum of
    those of its two halves agree to max(1e-12, 1e-8 |halves|); a cell that
    fails is bisected, and each refinement level is one more pass of f over
    the nodes of the pieces still open.  A cell that has not converged after
    50 levels, has a piece too narrow to bisect, or has more than 64 open
    pieces at one level (an integrand too rough to resolve, as at a pole) is
    a ValueError naming it.
    """
    a, b, cell = a0, b0, np.arange(len(a0))

    def where(j: int) -> str:
        """The cell of open piece j, or of its halves j and j + len(cell)."""
        i = cell[j % len(cell)]
        return f"the cell [{float(a0[i])!r}, {float(b0[i])!r}]"

    whole = _gauss(f, a, b, where)
    total = np.zeros(len(a0))
    for level in range(1, _MAX_LEVELS + 1):
        m = 0.5 * (a + b)
        halves = _gauss(f, np.concatenate([a, m]), np.concatenate([m, b]), where)
        left, right = halves[:len(a)], halves[len(a):]
        fine = left + right
        ok = np.abs(fine - whole) <= np.maximum(_EPSABS, _EPSREL * np.abs(fine))
        np.add.at(total, cell[ok], fine[ok])
        if ok.all():
            return total
        bad = ~ok
        a, m, b, cell = a[bad], m[bad], b[bad], cell[bad]
        stuck = ~(((a < m) & (m < b)) | ((b < m) & (m < a)))
        stuck |= (np.bincount(cell) > _MAX_PIECES)[cell]
        if level == _MAX_LEVELS or stuck.any():
            raise ValueError(f"cumulative integral: no convergence in "
                             f"{where(int(np.argmax(stuck)))} after {level} bisection levels")
        a, b = np.concatenate([a, m]), np.concatenate([m, b])
        whole = np.concatenate([left[bad], right[bad]])
        cell = np.concatenate([cell, cell])


def _cumulative_integral(f: Callable[[np.ndarray], np.ndarray], xs: np.ndarray) -> np.ndarray:
    """Integral of f from 0 to each grid point, by `_cell_integrals` over the
    cell [0, x_i0] at the grid point x_i0 nearest 0 and the grid intervals,
    summed outward from x_i0 in order."""
    n = len(xs)
    i0 = int(np.argmin(np.abs(xs)))
    cells = _cell_integrals(f, np.concatenate([xs[:i0], [0.0], xs[i0:-1]]),
                            np.concatenate([xs[1:i0 + 1], xs[i0:]]))
    vals = np.empty(n)
    vals[i0:] = np.cumsum(cells[i0:])
    # below x_i0, vals[i] = vals[i + 1] - cells[i], accumulated downward
    vals[:i0] = np.cumsum(np.concatenate([cells[i0:i0 + 1], -cells[:i0][::-1]]))[:0:-1]
    return vals


class PotentialCurve(Curve):
    """One-dimensional potential cached on a grid with its exact slope.  A
    call, like `value`, reads it at the first of the coordinates q."""

    def __init__(self, xs: np.ndarray, values: np.ndarray, slope: Callable[[float], float]):
        super().__init__(xs, values)
        self.slope = slope

    def value(self, q) -> float:
        return self.at(float(np.atleast_1d(q)[0]))

    __call__ = value


# ---------------------------------------------------------------------------
# cart-pole
# ---------------------------------------------------------------------------

def cartpole_shaping(p: CartpoleParams, gains: GainSelection) -> ShapingParams:
    """New-tau shaping for the cart-pole (special matching)."""
    return new_tau_shaping(cartpole_system(p), gains)


def _closed_loop(build: Callable) -> ExplicitSode:
    """Two-coordinate closed loop from one acceleration body ``build(ns)``, whose
    sin, cos and sqrt come from the namespace ``ns``: ``gamma`` is the body
    over jets and ``floats`` the body over math."""
    return ExplicitSode(2, build(jets), build(math), Dims(1, 1))


def _cartpole_accel(p: CartpoleParams, k: float, ns) -> Callable:
    """(x, theta, xdot, thetadot) -> (xddot, thetaddot) of the cart-pole closed
    loop, over the sin, cos and sqrt of ``ns`` (math or jets)."""
    al, be, ga, d = p.alpha, p.beta, p.gamma, p.d
    sin, cos, sqrt = ns.sin, ns.cos, ns.sqrt
    # constant left-associative prefixes, folded once: the same floats
    b2, alga, bgk, dga = be * be, al * ga, be * ga * k, d * ga
    G0, bd, albe = -al * d * ga * ga * k, be * d, al * be

    def accel(x, th, xd, thd):
        cx, sx = cos(x), sin(x)
        b2c2 = b2 * cx * cx
        D = alga - b2c2
        r = sqrt(D)
        den = bgk * cx * r - D
        F = sx * (dga * (b2c2 - alga) / (-den) - b2 * xd * xd * cx) / D
        G = sx * (G0 / (r * den) + bd * cx / D + albe * xd * xd / D)
        return F, G

    return accel


def cartpole_closed_loop(p: CartpoleParams, gains: GainSelection) -> ExplicitSode:
    """Closed loop of the cart-pole under the position feedback with gain k."""
    return _closed_loop(lambda ns: _cartpole_accel(p, gains.k, ns))


def _cartpole_terms(p: CartpoleParams, k: float) -> Callable:
    """x -> (D, sqrt(D), den) with D = alpha gamma - beta^2 cos^2 x and
    den = beta gamma k cos x sqrt(D) - alpha gamma + beta^2 cos^2 x, the
    denominator of both the feedback and the shaped potential's slope, at a
    float or an array x; its constant left-associative prefixes are folded
    once, which gives the same floats."""
    alga, b2 = p.alpha * p.gamma, p.beta ** 2
    bgk = p.beta * p.gamma * k

    def terms(x):
        cx = jets.cos(x)
        D = alga - b2 * cx ** 2
        r = jets.sqrt(D)
        return D, r, bgk * cx * r - alga + b2 * cx ** 2

    return terms


def cartpole_control(p: CartpoleParams, k: float, x) -> np.ndarray:
    """Closed-form position feedback for the cart-pole (vectorized in x)."""
    x = np.asarray(x, dtype=float)
    _, r, den = _cartpole_terms(p, k)(x)
    return -p.d * p.gamma ** 2 * k * np.sin(x) * r / den


def _cartpole_slope(p: CartpoleParams, gains: GainSelection) -> Callable:
    """x -> restoring slope of the cart-pole's shaped potential, at a float or
    an array x.  A gain whose square overflows is a ValueError."""
    terms = _cartpole_terms(p, gains.k)
    try:
        lead = -p.d * (p.gamma ** 2 * gains.k ** 2 * gains.sigma + 1.0)
    except OverflowError:
        raise ValueError(f"the cart-pole's shaped potential: k ** 2 overflows "
                         f"at k = {gains.k!r}") from None

    def slope(x):
        D, _, den = terms(x)
        return lead * jets.sin(x) * D / den

    return slope


def cartpole_shaped_potential_gradient(p: CartpoleParams, gains: GainSelection, x) -> np.ndarray:
    """Restoring slope of the shaped potential (vectorized in x)."""
    return _cartpole_slope(p, gains)(np.asarray(x, dtype=float))


def cartpole_shaped_potential(p: CartpoleParams, gains: GainSelection,
                              x_span: tuple[float, float]) -> PotentialCurve:
    """Shaped potential by cumulative integration of its slope, normalized to 0 at x=0."""
    xs = np.linspace(x_span[0], x_span[1], _CURVE_POINTS)
    slope = _cartpole_slope(p, gains)
    return PotentialCurve(xs, _cumulative_integral(slope, xs), slope)


def cartpole_observed_loop(p: CartpoleParams, gains: GainSelection, x_max: float,
                           kinetic: tuple | None = None):
    """Closed loop with its vectorized control and shaped-energy observers
    (times, Q, Qd) -> column; the shaped potential spans |x| <= x_max, clipped
    inside the gain bound.  ``kinetic``: the (system, `new_tau_shaping`) pair,
    if the caller built it."""
    if kinetic is None:
        sys = cartpole_system(p)
        kinetic = sys, new_tau_shaping(sys, gains)
    sys, shaping = kinetic
    loop = cartpole_closed_loop(p, gains)
    span = min(x_max, gain_bound_crossing(p, gains.k) - 1e-6)
    pot = cartpole_shaped_potential(p, gains, (-span, span))

    def control(times, Q, Qd):
        return cartpole_control(p, gains.k, Q[:, 0])

    def energy(times, Q, Qd):
        x = Q[:, 0]
        return kinetic_energy(kinetic_matrix(sys, shaping, [x]), [Qd[:, 0], Qd[:, 1]]) \
            + pot.read(x)

    return loop, control, energy


# ---------------------------------------------------------------------------
# incline
# ---------------------------------------------------------------------------

def _incline_A(p: InclineParams, sigma: float, rho: float) -> Callable:
    """A as a function of cos(psi - x) and tau(x), over floats, jets or arrays."""
    al, be, ga = p.alpha, p.beta, p.gamma

    def A(cpx, t):
        num = be * (rho - 1.0) * cpx * (cpx * cpx * (be ** 2) - al * ga) \
            + be * ga ** 2 * (rho + sigma) * t * t * cpx \
            + ga * rho * t * (2.0 * be ** 2 * cpx * cpx - al * ga)
        den = ga * rho * (al * ga - be ** 2 * cpx * cpx - be * ga * t * cpx)
        return num / den

    return A


def incline_A_field(p: InclineParams, shaping: ShapingParams) -> SmoothField:
    """Characteristic slope A(x) of the extra-potential equation, as a field."""
    A = _incline_A(p, float(shaping.sigma[0, 0] / p.gamma), shaping.rho)
    psi, tau = p.psi, shaping.tau[0][0].fn
    return SmoothField(1, lambda u: A(cos(psi - u[0]), tau(u)))


def incline_A_coefficient(p: InclineParams, shaping: ShapingParams, x: float) -> float:
    field = incline_A_field(p, shaping)
    return float(field.value(np.atleast_1d(np.asarray(x, dtype=float))))


def incline_safe_span(p: InclineParams, k: float,
                      requested: tuple[float, float]) -> tuple[float, float]:
    """Clip a shape-coordinate span to the pole-free window of A(x), less a
    margin of 5e-3 at each end.

    A(x) diverges where the shape-block Schur complement vanishes, i.e. where
    the gain bound in the rotated angle psi - x reaches k.  The curves built
    on the span integrate from x = 0, so the window less its margin must
    also hold that anchor.
    """
    margin = 5e-3
    xc = gain_bound_crossing(p, k)
    lo = max(requested[0], p.psi - xc + margin)
    hi = min(requested[1], p.psi + xc - margin)
    window = (f"the pole-free window ({p.psi - xc!r}, {p.psi + xc!r}) of A(x), "
              f"less its margin {margin!r},")
    if not lo < hi:
        raise ValueError(f"{window} leaves nothing of the requested "
                         f"span ({requested[0]!r}, {requested[1]!r})")
    if not p.psi - xc + margin < 0.0 < p.psi + xc - margin:
        raise ValueError(f"{window} does not hold the anchor x = 0 of the integrals on it")
    return lo, hi


INCLINE_LOOP_SPAN = (-1.5, 1.5)    # shape span of the incline's h-curve, before clipping


class _HCurve(Curve):
    """h, the integral of A from 0, cached on a grid; h' and h'' of a jet are
    A and A' from one jet pass of A, so they are exact."""

    def __init__(self, A: SmoothField, x_span: tuple[float, float]):
        def derivs(v: float) -> tuple[float, float]:
            a = A.eval_jet(jet_vars([v]))
            return a.f, a.g[0]

        xs = np.linspace(x_span[0], x_span[1], _CURVE_POINTS)
        super().__init__(xs, _cumulative_integral(lambda x: A.fn([x]), xs), derivs)
        self.A = A


def incline_base_shaping(p: InclineParams, gains: GainSelection) -> ShapingParams:
    """New-tau shaping with scalar rho, before the extra potential is added."""
    return new_tau_shaping(incline_system(p), gains, gains.rho)


def incline_h_curve(p: InclineParams, shaping: ShapingParams, k: float,
                    x_span: tuple[float, float]) -> _HCurve:
    """h, the integral of the shaping's A(x), on x_span clipped to the pole-free
    window of gain k; an integral that fails where k ** 2 overflows says so."""
    span = incline_safe_span(p, k, x_span)
    try:
        return _HCurve(incline_A_field(p, shaping), span)
    except ValueError:
        if math.isfinite(k * k):
            raise
        raise ValueError(f"the incline's h-curve: k ** 2 overflows at k = {k!r}") from None


def quad(*args, **kwargs):
    """``scipy.integrate.quad``, imported when called.  It is a module-level
    name so that a call counter (perfbench's) can wrap it."""
    from scipy.integrate import quad

    return quad(*args, **kwargs)


def incline_h(p: InclineParams, shaping: ShapingParams, x: float) -> float:
    """h(x) = integral of A from 0 to x by adaptive quadrature."""
    A = incline_A_field(p, shaping)
    return float(quad(lambda r: A.fn([r]), 0.0, float(x),
                      epsabs=1e-10, epsrel=1e-10)[0])


def _incline_grade(p: InclineParams) -> float:
    """gamma grav sin(psi), the slope of the incline's gravity potential in s."""
    return p.gamma * p.grav * math.sin(p.psi)


def _incline_veps(p: InclineParams, gains: GainSelection) -> tuple[Callable, Callable]:
    """(x, s, hx) -> V_eps = gamma*grav*sin(psi)*s + s^2/2 - s hx + c x^2
    - s0 s + s0 hx, the extra potential at h(x) = hx, and (s, hx) ->
    dV_eps/ds = gamma*grav*sin(psi) + s - hx - s0, over floats, jets or arrays
    (squares by `jets._power`, so an array pass gives one-point floats)."""
    slope = _incline_grade(p)
    c, s0 = gains.c, gains.s0

    def veps(x, s, hx):
        return (slope * s + 0.5 * jets._power(s, 2) - s * hx + c * jets._power(x, 2)
                - s0 * s + s0 * hx)

    def veps_ds(s, hx):
        return slope + s - hx - s0

    return veps, veps_ds


def incline_Veps(p: InclineParams, shaping: ShapingParams, gains: GainSelection,
                 point: tuple[float, float]) -> tuple[float, np.ndarray, float]:
    """Extra potential at (x, s): value, gradient and h(x), with h by adaptive
    quadrature."""
    x, s = float(point[0]), float(point[1])
    hx = incline_h(p, shaping, x)
    A = incline_A_coefficient(p, shaping, x)
    veps, veps_ds = _incline_veps(p, gains)
    grad = np.array([(gains.s0 - s) * A + 2.0 * gains.c * x, veps_ds(s, hx)])
    return veps(x, s, hx), grad, hx


def incline_veps_field(p: InclineParams, shaping: ShapingParams, gains: GainSelection,
                       x_span: tuple[float, float] = INCLINE_LOOP_SPAN) -> SmoothField:
    """The extra potential as a SmoothField over (x, s); h cached on a grid,
    its jet derivatives exact through A and its derivative."""
    h = incline_h_curve(p, shaping, gains.k, x_span)
    veps = _incline_veps(p, gains)[0]
    return SmoothField(2, lambda u: veps(u[0], u[1], h(u[0])))


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
    """The incline closed loop over the sin, cos and sqrt of ``ns`` (math or
    jets, which sends arrays to numpy) and the h-curve ``h``.

    Returns tau(x) -> (cos(psi - x), tau, d tau / dx, sin(psi - x)), or
    (cos(psi - x), tau) for tau(x, False), and accel(x, s, xdot, sdot) ->
    (xddot, sddot).  d tau / dx = -k beta^2 cos(psi - x) sin(psi - x) / sqrt(D)
    gives the floats of the form in sin(x - psi), since sin is odd bit for bit.
    The loop reads the gains k, rho and s0 and the h-curve, built from sigma
    and rho too, which `closed_loop_key` lists.  The math build reads h by
    ``h.at``, skipping ``Curve.__call__``'s type tests: one bisection of the
    curve's interior breakpoints and one row of its coefficients, from the
    lists of `fields.spline_reader`.
    """
    al, be, ga, psi = p.alpha, p.beta, p.gamma, p.psi
    k, rho, s0 = gains.k, gains.rho, gains.s0
    sin, cos, sqrt = ns.sin, ns.cos, ns.sqrt
    hx = h.at if ns is math else h
    # constant left-associative prefixes and signs, folded once: the same floats
    alga, b2, mkb2, md = al * ga, be * be, -(k * be * be), -p.d

    def tau(x, d1=True):
        u = psi - x
        cpx = cos(u)
        rD = sqrt(alga - b2 * cpx * cpx)
        if not d1:
            return cpx, k * rD
        spx = sin(u)
        return cpx, k * rD, mkb2 * cpx * spx / rD, spx

    def accel(x, s, xd, sd):
        cpx, t, tp, spx = tau(x)
        B = be * cpx
        r1 = md * sin(x)
        r2 = -(be * spx + ga * tp) * xd * xd - (s - hx(x) - s0) / rho
        det = alga - B * B - B * ga * t
        return (ga * r1 - B * r2) / det, (-(B + ga * t) * r1 + al * r2) / det

    return tau, accel


def _incline_slope(p: InclineParams, gains: GainSelection, h: _HCurve,
                   sys: MechanicalSystem, shaping: ShapingParams) -> Callable:
    """x -> w1(x) d sin(x) + A(x) h(x), the shape slope of the incline's
    conserved potential, at a float or an array x.

    w1 is the first component of w solving [[al, e], [B, ga]] w = (g11, g12),
    by Cramer, with g11 and g12 from the `kinetic_matrix` of ``sys`` under
    the base ``shaping``; w1 and A share one evaluation of tau per point.
    """
    al, be, ga, d = p.alpha, p.beta, p.gamma, p.d
    tau = _incline_loop(p, gains, h, jets)[0]
    A = _incline_A(p, gains.sigma, gains.rho)

    def slope(x):
        cpx, t = tau(x, False)
        B = be * cpx
        e = B + ga * t
        b1, b2 = kinetic_matrix(sys, shaping, [x])[0]
        return (b1 * ga - e * b2) / (al * ga - B * e) * d * jets.sin(x) + A(cpx, t) * h(x)

    return slope


def incline_closed_loop(p: InclineParams, gains: GainSelection, h: _HCurve) -> ExplicitSode:
    """Closed loop of the incline system under the new-tau control with scalar
    rho and the constructed extra potential, whose h-curve is ``h``."""
    return _closed_loop(lambda ns: _incline_loop(p, gains, h, ns)[1])


def incline_shaped_potential(p: InclineParams, gains: GainSelection, h: _HCurve,
                             x_span: tuple[float, float] = (-1.2, 1.2),
                             kinetic: tuple | None = None):
    """Conserved shaped potential of the incline closed loop.

    The group-coordinate dependence is analytic; the shape part is the
    cumulative integral of the reconstructed slope w1(x) d sin(x) + A(x) h(x),
    where w1 is the first contraction of the shaped kinetic matrix with the
    inverse acceleration coefficients.  ``h`` must cover x_span clipped to the
    pole-free window.  ``kinetic`` is the (system, base shaping) pair whose
    kinetic matrix the slope reads, built from ``p`` and ``gains`` if None.
    """
    lo, hi = incline_safe_span(p, gains.k, x_span)
    if not h.x[0] <= lo < hi <= h.x[-1]:
        raise ValueError("the h-curve does not cover the potential span")
    sys, shaping = kinetic or (incline_system(p), incline_base_shaping(p, gains))
    slope = _incline_slope(p, gains, h, sys, shaping)
    xs = np.linspace(lo, hi, _CURVE_POINTS)
    try:
        W = _cumulative_integral(slope, xs)
    except ValueError as exc:   # as at a huge sigma or a huge or tiny rho
        raise ValueError(f"the incline's shaped potential at k = {gains.k!r}, sigma = "
                         f"{gains.sigma!r}, rho = {gains.rho!r}: {exc}") from None
    return _InclinePotential(Curve(xs, W), h, slope, gains.s0)


class _InclinePotential:
    """W(x) - h(x) (s - s0) + (s - s0)^2 / 2 with its gradient, whose shape
    part is ``slope``.  A module-level class, not one made per call, so that
    the potential holds no reference cycle and its curves are freed as soon
    as it is dropped."""

    def __init__(self, W: Curve, h: _HCurve, slope: Callable[[float], float], s0: float):
        self.W, self.h, self.slope, self.s0 = W, h, slope, s0

    def value_arrays(self, x, s):
        """The potential at floats or at arrays x and s."""
        s0 = self.s0
        return self.W(x) - self.h(x) * (s - s0) + 0.5 * (s - s0) ** 2

    def value(self, q) -> float:
        return self.value_arrays(float(q[0]), float(q[1]))

    __call__ = value

    def gradient(self, q) -> np.ndarray:
        x, s, s0, h = float(q[0]), float(q[1]), self.s0, self.h
        Ax = h.A.value(np.array([x]))
        return np.array([self.slope(x) - Ax * (s - s0), (s - s0) - h(x)])


def incline_observed_loop(p: InclineParams, gains: GainSelection,
                          x_span: tuple[float, float], kinetic: tuple | None = None):
    """Closed loop with its vectorized control and shaped-energy observers
    (times, Q, Qd) -> column, all on one h-curve; x_span is the span of the
    shaped potential.  ``kinetic``: as in `cartpole_observed_loop`."""
    if kinetic is None:
        sys = incline_system(p)
        kinetic = sys, new_tau_shaping(sys, gains, gains.rho)
    sys, shaping = kinetic
    h = incline_h_curve(p, shaping, gains.k,
                        (min(INCLINE_LOOP_SPAN[0], x_span[0] - 0.05),
                         max(INCLINE_LOOP_SPAN[1], x_span[1] + 0.05)))
    loop = incline_closed_loop(p, gains, h)
    pot = incline_shaped_potential(p, gains, h, x_span, (sys, shaping))
    tau, accel = _incline_loop(p, gains, h, jets)
    veps_ds = _incline_veps(p, gains)[1]
    ga, rho, slope = p.gamma, gains.rho, _incline_grade(p)

    def control(times, Q, Qd):
        x, s, xd = Q[:, 0], Q[:, 1], Qd[:, 0]
        _, t, tp, _ = tau(x)
        xdd = accel(x, s, xd, Qd[:, 1])[0]
        return (1 - rho) / rho * slope - veps_ds(s, h(x)) / rho - ga * t * xdd \
            - ga * tp * xd ** 2

    def energy(times, Q, Qd):
        x, s = Q[:, 0], Q[:, 1]
        return kinetic_energy(kinetic_matrix(sys, shaping, [x]), [Qd[:, 0], Qd[:, 1]]) \
            + pot.value_arrays(x, s)

    return loop, control, energy


def closed_loop_key(p: CartpoleParams, gains: GainSelection) -> tuple:
    """The gains that the closed loop of `cartpole_observed_loop`, or of
    `incline_observed_loop` when ``p`` is an `InclineParams`, reads: two gain
    selections with one key give one loop at the same parameters, and so one
    trajectory from one initial state.  The cart-pole loop reads k alone.
    The incline loop reads k, rho and s0, and its h-curve reads sigma and rho
    (and k) through A."""
    if isinstance(p, InclineParams):
        return gains.k, gains.sigma, gains.rho, gains.s0
    return (gains.k,)
