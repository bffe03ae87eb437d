"""Smooth scalar fields evaluated by one function over floats or jets.

Metric components, potentials and the feedback-shaping one-form are all built
from these.  A field holds one function ``fn(coords)`` written with the
elementary functions of `jets`, or with a `Curve` (a cubic spline read at one
float by `spline_reader` and through `jets.chain` at a jet), so it accepts
float or `Jet2` coordinates alike, and also a mix of the two, since jet
arithmetic takes float operands: callers that evaluate at such coordinates
call ``fn`` directly, and a constant field stays a float there.
``value`` is one float pass, and ``d1``/``d2`` read the gradient and Hessian
of one pass over seeded jets, which is exact forward-mode differentiation.
The algebra composes these functions and folds constant fields when the
expression is built.

`eval_blocks` evaluates blocks of fields at N points at once, one array-jet
pass per distinct field.

`gradient` gives a field's first partials at float or jet coordinates, as the
Euler-Lagrange covector needs them (float zeros for a constant field), at one
point or at N points: on array jets it makes one pass over all N.  At jets
each partial's Hessian is NaN wherever a third derivative of the field would
enter, since `Jet2` stops at second order; no Helmholtz family reads those
entries.
"""

from __future__ import annotations

import operator
from bisect import bisect_right
from numbers import Real
from typing import Callable, Sequence

import numpy as np
from scipy.interpolate import CubicSpline

from . import jets
from .jets import Jet2, as_jet, chain, jet_vars

__all__ = [
    "SmoothField",
    "constant",
    "coordinate",
    "linear",
    "sin_of",
    "cos_of",
    "sqrt_of",
    "eval_blocks",
    "gradient",
    "spline_reader",
    "Curve",
]


class SmoothField:
    """Scalar field u -> R of a fixed arity, given by ``fn(coords)``.

    ``fn`` takes a sequence of ``arity`` coordinates, all floats or all jets
    of one seed dimension, and returns a float or a jet.  ``const`` is the
    value of a constant field, else None.
    """

    __slots__ = ("arity", "fn", "const")

    def __init__(self, arity: int, fn: Callable, const: float | None = None):
        self.arity = arity
        self.fn = fn
        self.const = const

    def __call__(self, u) -> float:
        return self.value(u)

    # -- evaluation -------------------------------------------------------------

    def value(self, u) -> float:
        return self.fn(u.tolist() if isinstance(u, np.ndarray) else [float(v) for v in u])

    def eval_jet(self, jets: Sequence[Jet2]) -> Jet2:
        out = self.fn(jets)
        return out if isinstance(out, Jet2) else as_jet(out, jets[0])

    def d1(self, u) -> np.ndarray:
        if self.const is not None:
            return np.zeros(self.arity)
        return self.eval_jet(jet_vars(u)).g

    def d2(self, u) -> np.ndarray:
        if self.const is not None:
            return np.zeros((self.arity, self.arity))
        return self.eval_jet(jet_vars(u)).h

    # -- algebra --------------------------------------------------------------

    def _binary(self, other, op):
        if isinstance(other, Real):
            other = constant(float(other), self.arity)
        if not isinstance(other, SmoothField):
            return NotImplemented
        if other.arity != self.arity:
            raise ValueError("field arity mismatch")
        ca, cb = self.const, other.const
        if ca is not None and cb is not None:
            return constant(op(ca, cb), self.arity)
        fa, fb = self.fn, other.fn
        if cb is not None:
            return SmoothField(self.arity, lambda u: op(fa(u), cb))
        if ca is not None:
            return SmoothField(self.arity, lambda u: op(ca, fb(u)))
        return SmoothField(self.arity, lambda u: op(fa(u), fb(u)))

    def __add__(self, other):
        return self._binary(other, operator.add)

    __radd__ = __add__

    def __sub__(self, other):
        return self._binary(other, operator.sub)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __neg__(self):
        return _unary(self, operator.neg)

    def __mul__(self, other):
        return self._binary(other, operator.mul)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Real):
            return self * (1.0 / float(other))
        return self._binary(other, operator.truediv)


def _unary(field: SmoothField, fun) -> SmoothField:
    if field.const is not None:
        return constant(fun(field.const), field.arity)
    fa = field.fn
    return SmoothField(field.arity, lambda u: fun(fa(u)))


def constant(c: float, arity: int) -> SmoothField:
    c = float(c)
    return SmoothField(arity, lambda u: c, const=c)


def coordinate(i: int, arity: int) -> SmoothField:
    return SmoothField(arity, operator.itemgetter(i))


def linear(coeffs: Sequence[float], const: float, arity: int) -> SmoothField:
    """sum(c_i u_i) + b."""
    c = [float(v) for v in coeffs]
    b = float(const)
    return SmoothField(arity, lambda u: sum(ci * ui for ci, ui in zip(c, u)) + b)


def sin_of(field: SmoothField) -> SmoothField:
    return _unary(field, jets.sin)


def cos_of(field: SmoothField) -> SmoothField:
    return _unary(field, jets.cos)


def sqrt_of(field: SmoothField) -> SmoothField:
    return _unary(field, jets.sqrt)


def eval_blocks(blocks, xs: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """Values (N, rows, cols) and gradients (N, rows, cols, arity) of each
    block (a sequence of rows of fields) at the N points of xs (N, arity).

    Each distinct field object makes one array-jet pass over all the points,
    however many slots or blocks it fills.  At every point its values are the
    floats of a float pass and its gradients those of a scalar-jet pass; a
    constant field folds to `np.full` and zeros.
    """
    xs = np.asarray(xs, dtype=float)
    n, arity = xs.shape
    seed = jet_vars(xs.T)
    seen = {}

    def read(field: SmoothField):
        out = seen.get(field)
        if out is None:
            if field.const is not None:
                out = np.full(n, field.const), np.zeros((n, arity))
            else:
                jet = field.eval_jet(seed)      # a float result is a constant jet
                out = (np.broadcast_to(jet.f, (n,)),
                       np.broadcast_to(jet.g.reshape(arity, -1).T, (n, arity)))
            seen[field] = out
        return out

    result = []
    for block in blocks:
        vals, grads = zip(*(read(f) for row in block for f in row))
        shape = (n, len(block), len(block[0]))
        result.append((np.stack(vals, axis=1).reshape(shape),
                       np.stack(grads, axis=1).reshape(shape + (arity,))))
    return result


def gradient(field: SmoothField, coords) -> Sequence:
    """First partials of ``field`` at float or jet coordinates, at one point or
    at N points (one array of N floats, or jets over N points, per
    coordinate).

    A constant field gives float zeros.  Floats give the gradient of one jet
    pass.  Jets compose the gradient and Hessian of one pass at the value
    parts with the coordinates' jets by the chain rule.  The Hessian of a
    partial would also need the field's third derivatives, which `Jet2` does
    not carry and no Helmholtz family reads: every entry (a, b) they would
    enter, where some coordinate jet moves along seed a and some along seed b
    (at that point, over N points), is NaN.
    """
    n = field.arity
    if field.const is not None:
        return [0.0] * n
    seed = next((c for c in coords if isinstance(c, Jet2)), None)
    if seed is None:
        return field.d1(coords)
    coords = [as_jet(c, seed) for c in coords]
    lead = np.shape(seed.f)
    u = np.array([np.broadcast_to(c.f, lead) for c in coords] if lead else [c.f for c in coords])
    top = field.eval_jet(jet_vars(u))
    moved = np.any([c.g != 0.0 for c in coords], axis=0)
    third = moved[:, None] & moved
    out = []
    for f, row in zip(top.g, top.h):
        hess = sum(hij * c.h for hij, c in zip(row, coords))
        hess[third] = np.nan
        out.append(Jet2(f, sum(hij * c.g for hij, c in zip(row, coords)), hess))
    return out


def spline_reader(spline) -> Callable[[float, int], float]:
    """``at(v, nu)``: the ``nu``-th derivative (0, 1 or 2) of a cubic
    ``scipy.interpolate.CubicSpline`` at one float, bit for bit what
    ``spline(v, nu)`` returns.

    The interval is scipy's: the last breakpoint at or below ``v``, clamped to
    the first and last intervals so that both ends extrapolate.  The cubic is
    summed in scipy's ``evaluate_poly1`` order, ``res = res + c[3-kp] * z *
    prefactor`` from ``res = 0.0``, ``z = 1.0`` with ``z *= s`` after each
    term, written out for the cubic (products by a prefactor of 1.0 are
    exact, so they are left out).  A NaN gives NaN.  The breakpoints and
    coefficients are read in place through memoryviews, which index to
    floats and take no copy.  Read arrays with the spline itself.
    """
    xs = memoryview(spline.x)
    c3, c2, c1, c0 = (memoryview(np.ascontiguousarray(row)) for row in spline.c)
    last = len(xs) - 2

    def at(v: float, nu: int = 0) -> float:
        i = bisect_right(xs, v) - 1
        if i < 0:
            i = 0
        elif i > last:
            i = last
        s = v - xs[i]
        if nu == 0:
            z = s * s
            return 0.0 + c0[i] + c1[i] * s + c2[i] * z + c3[i] * (z * s)
        if nu == 1:
            return 0.0 + c1[i] + c2[i] * s * 2.0 + c3[i] * (s * s) * 3.0
        return 0.0 + c2[i] * 2.0 + c3[i] * s * 6.0

    return at


class Curve:
    """A cubic spline through (xs, values), called at a float (read by
    `spline_reader`, ``at``), an array (read by the ``CubicSpline``,
    ``spline``) or a `Jet2` at one point or at an array of points (through
    `jets.chain` with ``derivs(v) -> (d1, d2)``, the spline's own first two
    derivatives unless given)."""

    def __init__(self, xs: np.ndarray, values: np.ndarray,
                 derivs: Callable[[float], tuple[float, float]] | None = None):
        self.xs = xs
        self.spline = spline = CubicSpline(xs, values)
        self.at = at = spline_reader(spline)

        def spline_derivs(v):
            if isinstance(v, np.ndarray):
                return spline(v, 1), spline(v, 2)
            return at(v, 1), at(v, 2)

        # a closure, not a bound method, so that a curve holds no reference
        # cycle and is freed as soon as it is dropped
        self._derivs = derivs or spline_derivs

    def __call__(self, x):
        if isinstance(x, Jet2):
            v = x.f
            return chain(x, self.spline(v) if isinstance(v, np.ndarray) else self.at(v),
                         *self._derivs(v))
        if isinstance(x, np.ndarray):
            return self.spline(x)
        return self.at(x)
