"""Second-order forward-mode jets (dual numbers carrying gradient and Hessian).

A ``Jet2`` tracks a scalar value together with its gradient and Hessian with
respect to a fixed set of ``m`` seed variables.  Propagating jets through an
expression yields exact first and second partial derivatives of the result,
which is what the residual engines need at 1e-8 tolerances where finite
differences are too noisy.  Central finite differences are kept alongside as
an independent cross-check oracle (`fd_value_grad_hess`).
"""

from __future__ import annotations

import math
from numbers import Real
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "Jet2",
    "jet_vars",
    "as_jet",
    "value_of",
    "chain",
    "sin",
    "cos",
    "sqrt",
    "exp",
    "log",
    "solve_generic",
    "fd_value_grad_hess",
]


class Jet2:
    """Truncated second-order Taylor data: value, gradient (m,), Hessian (m, m)."""

    __slots__ = ("f", "g", "h")

    def __init__(self, f: float, g: np.ndarray, h: np.ndarray):
        self.f = f
        self.g = g
        self.h = h

    @property
    def m(self) -> int:
        return self.g.shape[0]

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, Jet2):
            return Jet2(self.f + other.f, self.g + other.g, self.h + other.h)
        if type(other) is float or isinstance(other, Real):
            return Jet2(self.f + other, self.g, self.h)
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, Jet2):
            return Jet2(self.f - other.f, self.g - other.g, self.h - other.h)
        if type(other) is float or isinstance(other, Real):
            return Jet2(self.f - other, self.g, self.h)
        return NotImplemented

    def __rsub__(self, other):
        if type(other) is float or isinstance(other, Real):
            return Jet2(other - self.f, -self.g, -self.h)
        return NotImplemented

    def __mul__(self, other):
        if isinstance(other, Jet2):
            cross = self.g[:, None] * other.g
            return Jet2(
                self.f * other.f,
                self.f * other.g + other.f * self.g,
                self.f * other.h + other.f * self.h + cross + cross.T,
            )
        if type(other) is float or isinstance(other, Real):
            return Jet2(self.f * other, self.g * other, self.h * other)
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Jet2):
            if other.f == 0.0:
                raise ZeroDivisionError("jet division by zero value part")
            q = self.f / other.f
            gq = (self.g - q * other.g) / other.f
            cross = gq[:, None] * other.g
            hq = (self.h - q * other.h - cross - cross.T) / other.f
            return Jet2(q, gq, hq)
        if type(other) is float or isinstance(other, Real):
            return Jet2(self.f / other, self.g / other, self.h / other)
        return NotImplemented

    def __rtruediv__(self, other):
        if type(other) is float or isinstance(other, Real):
            return as_jet(other, self.m).__truediv__(self)
        return NotImplemented

    def __neg__(self):
        return Jet2(-self.f, -self.g, -self.h)

    def __pow__(self, p):
        if not isinstance(p, Real):
            return NotImplemented
        f = self.f
        return chain(self, f ** p, p * f ** (p - 1), p * (p - 1) * f ** (p - 2))

    def __repr__(self):
        return f"Jet2({self.f!r}, grad={self.g!r})"


def chain(x: Jet2, u: float, du: float, d2u: float) -> Jet2:
    """Compose a scalar function with value u and derivatives du, d2u at x.f
    through the jet x."""
    outer = x.g[:, None] * x.g
    return Jet2(u, du * x.g, du * x.h + d2u * outer)


def jet_vars(values: Sequence[float]) -> list[Jet2]:
    """Seed independent variables: identity gradients, zero Hessians."""
    values = [float(v) for v in values]
    m = len(values)
    out = []
    for i, v in enumerate(values):
        g = np.zeros(m)
        g[i] = 1.0
        out.append(Jet2(v, g, np.zeros((m, m))))
    return out


def as_jet(x, m: int) -> Jet2:
    """Promote a constant to a jet with the given seed dimension."""
    if isinstance(x, Jet2):
        return x
    return Jet2(float(x), np.zeros(m), np.zeros((m, m)))


def value_of(x) -> float:
    return x.f if isinstance(x, Jet2) else float(x)


# -- elementary functions usable on floats and jets --------------------------

def sin(x):
    if isinstance(x, Jet2):
        s, c = math.sin(x.f), math.cos(x.f)
        return chain(x, s, c, -s)
    return math.sin(x)


def cos(x):
    if isinstance(x, Jet2):
        s, c = math.sin(x.f), math.cos(x.f)
        return chain(x, c, -s, -c)
    return math.cos(x)


def sqrt(x):
    if isinstance(x, Jet2):
        r = math.sqrt(x.f)
        return chain(x, r, 0.5 / r, -0.25 / (r * x.f))
    return math.sqrt(x)


def exp(x):
    if isinstance(x, Jet2):
        e = math.exp(x.f)
        return chain(x, e, e, e)
    return math.exp(x)


def log(x):
    if isinstance(x, Jet2):
        return chain(x, math.log(x.f), 1.0 / x.f, -1.0 / x.f ** 2)
    return math.log(x)


# -- small dense linear solve over generic scalars ---------------------------

def solve_generic(A, b):
    """Solve A u = b by Gaussian elimination with partial pivoting.

    Entries may be floats or jets (pivoting compares value parts).  Intended
    for the small systems (n <= 3) that appear here.
    """
    n = len(b)
    M = [list(row) for row in A]
    rhs = list(b)
    for col in range(n):
        piv = max(range(col, n), key=lambda r: abs(value_of(M[r][col])))
        if abs(value_of(M[piv][col])) == 0.0:
            raise ZeroDivisionError("singular matrix in solve_generic")
        if piv != col:
            M[col], M[piv] = M[piv], M[col]
            rhs[col], rhs[piv] = rhs[piv], rhs[col]
        for r in range(col + 1, n):
            factor = M[r][col] / M[col][col]
            for c in range(col + 1, n):
                M[r][c] = M[r][c] - factor * M[col][c]
            rhs[r] = rhs[r] - factor * rhs[col]
    out = [None] * n
    for r in range(n - 1, -1, -1):
        acc = rhs[r]
        for c in range(r + 1, n):
            acc = acc - M[r][c] * out[c]
        out[r] = acc / M[r][r]
    return out


# -- finite-difference oracle -------------------------------------------------

_H1 = float(np.cbrt(np.finfo(float).eps))      # ~6.0e-6, first derivatives
_H2 = float(np.finfo(float).eps ** 0.25)       # ~1.2e-4, second derivatives


def fd_value_grad_hess(fn: Callable[[np.ndarray], np.ndarray], u0: Sequence[float]):
    """Central-difference value/gradient/Hessian of a vector function.

    Independent of the jet path; used as the cross-check derivative oracle.
    Returns (values (p,), grads (p, m), hessians (p, m, m)).
    """
    u0 = np.asarray(u0, dtype=float)
    m = u0.shape[0]
    f0 = np.atleast_1d(np.asarray(fn(u0), dtype=float))
    p = f0.shape[0]
    grads = np.zeros((p, m))
    hess = np.zeros((p, m, m))
    steps1 = np.array([_H1 * max(1.0, abs(v)) for v in u0])
    steps2 = np.array([_H2 * max(1.0, abs(v)) for v in u0])
    for i in range(m):
        up, um = u0.copy(), u0.copy()
        up[i] += steps1[i]
        um[i] -= steps1[i]
        grads[:, i] = (np.asarray(fn(up)) - np.asarray(fn(um))) / (2 * steps1[i])
    for i in range(m):
        hi = steps2[i]
        up, um = u0.copy(), u0.copy()
        up[i] += hi
        um[i] -= hi
        hess[:, i, i] = (np.asarray(fn(up)) - 2 * f0 + np.asarray(fn(um))) / hi ** 2
        for j in range(i + 1, m):
            hj = steps2[j]
            upp, upm, ump, umm = u0.copy(), u0.copy(), u0.copy(), u0.copy()
            upp[i] += hi; upp[j] += hj
            upm[i] += hi; upm[j] -= hj
            ump[i] -= hi; ump[j] += hj
            umm[i] -= hi; umm[j] -= hj
            val = (np.asarray(fn(upp)) - np.asarray(fn(upm))
                   - np.asarray(fn(ump)) + np.asarray(fn(umm))) / (4 * hi * hj)
            hess[:, i, j] = val
            hess[:, j, i] = val
    return f0, grads, hess
