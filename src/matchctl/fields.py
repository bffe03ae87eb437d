"""Smooth scalar fields evaluated by one function over floats or jets.

Metric components, potentials and the feedback-shaping one-form are all built
from these.  A field holds one function ``fn(coords)`` written with the
elementary functions of `jets`, so it accepts float or `Jet2` coordinates
alike: ``value`` is one float pass, and ``d1``/``d2`` read the gradient and
Hessian of one pass over seeded jets, which is exact forward-mode
differentiation.  The algebra composes these functions and folds constant
fields when the expression is built.

Fields known only through value/d1/d2 callables (sampled curves, wrapped
functions, first partials) are primitives whose function applies the chain
rule to those callables.  Central differences enter in two places only: the
Hessian of a first partial (exact would need third-order jets) and
`from_callable`, which has no derivatives to offer.
"""

from __future__ import annotations

import operator
from numbers import Real
from typing import Callable, Sequence

import numpy as np

from . import jets
from .jets import Jet2, as_jet, fd_value_grad_hess, jet_vars

__all__ = [
    "SmoothField",
    "constant",
    "coordinate",
    "linear",
    "primitive",
    "from_callable",
    "sin_of",
    "cos_of",
    "sqrt_of",
    "field_eval",
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

    def partial(self, i: int) -> "SmoothField":
        """The i-th first partial as a field.

        Value and gradient are exact (they read this field's d1/d2); the
        second derivative falls back to central differences of d2, which is
        acceptable because no residual consumes third derivatives.
        """
        if self.const is not None:
            return constant(0.0, self.arity)
        a = self
        h = float(np.cbrt(np.finfo(float).eps))

        def d2(u):
            u = np.asarray(u, dtype=float)
            out = np.zeros((a.arity, a.arity))
            for k in range(a.arity):
                step = h * max(1.0, abs(u[k]))
                up, um = u.copy(), u.copy()
                up[k] += step
                um[k] -= step
                out[k, :] = (a.d2(up)[i] - a.d2(um)[i]) / (2 * step)
            return 0.5 * (out + out.T)

        return primitive(self.arity, lambda u: a.d1(u)[i], lambda u: a.d2(u)[i], d2)


class _Primitive(SmoothField):
    """A field given by value, d1 and d2 callables of a coordinate array."""

    __slots__ = ("_value", "_d1", "_d2")

    def __init__(self, arity: int, value, d1, d2):
        super().__init__(arity, self._chain)
        self._value, self._d1, self._d2 = value, d1, d2

    def value(self, u) -> float:
        return self._value(np.asarray(u, dtype=float))

    def d1(self, u) -> np.ndarray:
        return self._d1(np.asarray(u, dtype=float))

    def d2(self, u) -> np.ndarray:
        return self._d2(np.asarray(u, dtype=float))

    def _chain(self, coords):
        """Floats give the value; jets compose d1/d2 by the chain rule."""
        if not isinstance(coords[0], Jet2):
            return self._value(np.asarray(coords, dtype=float))
        m = coords[0].m
        u = np.array([c.f for c in coords])
        g1 = self._d1(u).tolist()
        g2 = self._d2(u).tolist()
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
        return Jet2(self._value(u), grad, hess)


def primitive(arity: int, value: Callable[[np.ndarray], float],
              d1: Callable[[np.ndarray], np.ndarray],
              d2: Callable[[np.ndarray], np.ndarray]) -> SmoothField:
    """A field from value/d1/d2 callables; jets pass through the chain rule."""
    return _Primitive(arity, value, d1, d2)


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
    c = np.asarray(coeffs, dtype=float)
    b = float(const)
    return primitive(arity, lambda u: float(c @ u) + b, lambda u: c.copy(),
                     lambda u: np.zeros((arity, arity)))


def from_callable(fn: Callable[[np.ndarray], float], arity: int) -> SmoothField:
    """Wrap a bare function; derivatives by central differences."""

    def vgh(u):
        return fd_value_grad_hess(lambda v: np.array([fn(v)]), u)

    return primitive(arity, lambda u: float(fn(u)),
                     lambda u: vgh(u)[1][0], lambda u: vgh(u)[2][0])


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
