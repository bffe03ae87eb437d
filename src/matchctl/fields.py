"""Smooth scalar fields evaluated by one function over floats or jets.

Metric components, potentials and the feedback-shaping one-form are all built
from these.  A field holds one function ``fn(coords)`` written with the
elementary functions of `jets`, or with `jets.chain` for a curve known with
its derivatives (a spline), so it accepts float or `Jet2` coordinates alike:
``value`` is one float pass, and ``d1``/``d2`` read the gradient and Hessian
of one pass over seeded jets, which is exact forward-mode differentiation.
The algebra composes these functions and folds constant fields when the
expression is built.

`gradient` gives a field's first partials at float or jet coordinates, as the
Euler-Lagrange covector needs them.  At jets each partial carries a Hessian,
a third derivative of the field; that is the one place central differences
enter (of ``d2``, shared by all partials of the field), since `Jet2` stops at
second order.
"""

from __future__ import annotations

import operator
from numbers import Real
from typing import Callable, Sequence

import numpy as np

from . import jets
from .jets import Jet2, as_jet, jet_vars

__all__ = [
    "SmoothField",
    "constant",
    "coordinate",
    "linear",
    "sin_of",
    "cos_of",
    "sqrt_of",
    "field_eval",
    "gradient",
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
        return out if isinstance(out, Jet2) else as_jet(out, jets[0].m)

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


def field_eval(field: SmoothField, coords):
    """Evaluate on mixed float/jet coordinates; plain float when no jets."""
    for c in coords:
        if isinstance(c, Jet2):
            return field.eval_jet([as_jet(v, c.m) for v in coords])
    return field.fn(coords)


_H3 = float(np.cbrt(np.finfo(float).eps))   # step of the third-derivative differences


def gradient(field: SmoothField, coords) -> Sequence:
    """First partials of ``field`` at float or jet coordinates.

    Floats give the gradient of one jet pass.  Jets compose the gradient and
    Hessian of one pass at the value parts with the coordinates' jets by the
    chain rule; the Hessian of each partial takes central differences of
    ``d2`` along every coordinate, symmetrised, computed once for all partials.
    """
    n = field.arity
    seed = next((c for c in coords if isinstance(c, Jet2)), None)
    if field.const is not None:
        return [0.0] * n if seed is None else [as_jet(0.0, seed.m) for _ in range(n)]
    if seed is None:
        return field.d1(coords)
    coords = [as_jet(v, seed.m) for v in coords]
    u = np.array([c.f for c in coords])
    top = field.eval_jet(jet_vars(u))
    d3 = []
    for k in range(n):
        step = _H3 * max(1.0, abs(u[k]))
        up, um = u.copy(), u.copy()
        up[k] += step
        um[k] -= step
        d3.append((field.d2(up) - field.d2(um)) / (2 * step))
    out = []
    for i in range(n):
        t = np.array([d3k[i] for d3k in d3])
        out.append(_compose(top.g[i], top.h[i].tolist(), (0.5 * (t + t.T)).tolist(), coords))
    return out


def _compose(f, g1: list, g2: list, coords: list) -> Jet2:
    """The jet of a function with value f, gradient g1 and Hessian g2 at the
    coordinates' value parts, composed with the coordinate jets."""
    m = coords[0].m
    grad = np.zeros(m)
    hess = np.zeros((m, m))
    for gi, ci in zip(g1, coords):
        if gi != 0.0:
            grad += gi * ci.g
            hess += gi * ci.h
    for row, ci in zip(g2, coords):
        for gij, cj in zip(row, coords):
            if gij != 0.0:
                hess += gij * (ci.g[:, None] * cj.g)
    return Jet2(f, grad, hess)
