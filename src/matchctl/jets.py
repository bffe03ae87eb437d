"""Second-order forward-mode jets (dual numbers carrying gradient and Hessian).

A ``Jet2`` tracks a scalar value together with its gradient and Hessian with
respect to a fixed set of ``m`` seed variables.  Propagating jets through an
expression yields exact first and second partial derivatives of the result,
which is what the residual engines need at 1e-8 tolerances where finite
differences are too noisy.  Central finite differences are kept alongside as
an independent cross-check oracle (`fd_value_grad_hess`).

A jet may also carry N points at once (forward mode in vector form), with the
point axis last: value ``f`` (N,), gradient ``g`` (m, N) and Hessian ``h``
(m, m, N).  Every operation broadcasts over that axis unchanged, an array of
N floats is a constant operand like a float, and the elementary functions
below take an array value part elementwise, so a field runs on N points in
one pass with, at each point, the floats of a scalar jet.  `jet_vars` seeds
such jets from m arrays of points, and `solve_generic` pivots each point on
its own.

A jet over one seed variable at one point may hold its gradient and Hessian
as floats instead of (1,) and (1, 1) arrays: the same floats, without numpy's
per-operation cost on one-element arrays.  Only the outer products of `Jet2`
multiplication, division and `chain` need to tell the two apart; every other
operation takes either.  `jet_vars` seeds array parts; the float read-outs of
`fields` seed float parts where they seed one coordinate at one point.

`value_grad_hess` is the one derivative read-out: every residual engine takes
the values, gradients and Hessians of a list-valued function at one point or
at N points from it, over jets (``backend="jet"``) or over the difference
oracle (``backend="fd"``).
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
    "value_grad_hess",
]


_CONST = (Real, np.ndarray)     # constant operands: a float, or one float per point


def _outer(a, b):
    """The outer product of two gradients: a (m, m[, N]) array, or a float for
    float parts."""
    return a[:, None] * b if isinstance(a, np.ndarray) else a * b


def _transpose(c):
    return c.swapaxes(0, 1) if isinstance(c, np.ndarray) else c


class Jet2:
    """Truncated second-order Taylor data: value, gradient (m,), Hessian (m, m),
    each with a trailing point axis (N,) for a jet over N points; or, over one
    seed at one point, a float gradient and Hessian."""

    __slots__ = ("f", "g", "h")
    __array_ufunc__ = None      # an array operand on the left defers to the jet

    def __init__(self, f: float, g: np.ndarray, h: np.ndarray):
        self.f = f
        self.g = g
        self.h = h

    @property
    def m(self) -> int:
        return self.g.shape[0] if isinstance(self.g, np.ndarray) else 1

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, Jet2):
            return Jet2(self.f + other.f, self.g + other.g, self.h + other.h)
        if type(other) is float or isinstance(other, _CONST):
            return Jet2(self.f + other, self.g, self.h)
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, Jet2):
            return Jet2(self.f - other.f, self.g - other.g, self.h - other.h)
        if type(other) is float or isinstance(other, _CONST):
            return Jet2(self.f - other, self.g, self.h)
        return NotImplemented

    def __rsub__(self, other):
        if type(other) is float or isinstance(other, _CONST):
            return Jet2(other - self.f, -self.g, -self.h)
        return NotImplemented

    def __mul__(self, other):
        if isinstance(other, Jet2):
            cross = _outer(self.g, other.g)
            return Jet2(
                self.f * other.f,
                self.f * other.g + other.f * self.g,
                self.f * other.h + other.f * self.h + cross + _transpose(cross),
            )
        if type(other) is float or isinstance(other, _CONST):
            return Jet2(self.f * other, self.g * other, self.h * other)
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Jet2):
            d = other.f
            if (not d.all()) if isinstance(d, np.ndarray) else d == 0.0:
                raise ZeroDivisionError("jet division by zero value part")
            q = self.f / other.f
            gq = (self.g - q * other.g) / other.f
            cross = _outer(gq, other.g)
            hq = (self.h - q * other.h - cross - _transpose(cross)) / other.f
            return Jet2(q, gq, hq)
        if type(other) is float or isinstance(other, _CONST):
            return Jet2(self.f / other, self.g / other, self.h / other)
        return NotImplemented

    def __rtruediv__(self, other):
        if type(other) is float or isinstance(other, _CONST):
            return as_jet(other, self).__truediv__(self)
        return NotImplemented

    def __neg__(self):
        return Jet2(-self.f, -self.g, -self.h)

    def __pow__(self, p):
        if not isinstance(p, Real):
            return NotImplemented
        f = self.f
        return chain(self, _power(f, p), p * _power(f, p - 1), p * (p - 1) * _power(f, p - 2))

    def __repr__(self):
        return f"Jet2({self.f!r}, grad={self.g!r})"


def chain(x: Jet2, u: float, du: float, d2u: float) -> Jet2:
    """Compose a scalar function with value u and derivatives du, d2u at x.f
    through the jet x."""
    return Jet2(u, du * x.g, du * x.h + d2u * _outer(x.g, x.g))


def jet_vars(values: Sequence) -> list[Jet2]:
    """Seed independent variables: identity gradients, zero Hessians.

    ``values`` holds one float per variable, or one array of N points per
    variable (an (m, N) array), which seeds jets over the N points."""
    if isinstance(values[0], np.ndarray):
        pts = np.asarray(values, dtype=float)
        m, n = pts.shape
        out = []
        for i in range(m):
            g = np.zeros((m, n))
            g[i] = 1.0
            out.append(Jet2(pts[i], g, np.zeros((m, m, n))))
        return out
    values = [float(v) for v in values]
    m = len(values)
    out = []
    for i, v in enumerate(values):
        g = np.zeros(m)
        g[i] = 1.0
        out.append(Jet2(v, g, np.zeros((m, m))))
    return out


def as_jet(x, like) -> Jet2:
    """Promote a constant to a jet of zero derivatives: ``like`` is the seed
    dimension m, or a jet whose derivative shapes (at one point or N, or
    float parts) it takes."""
    if isinstance(x, Jet2):
        return x
    x = x if isinstance(x, np.ndarray) else float(x)
    if isinstance(like, Jet2):
        if not isinstance(like.g, np.ndarray):
            return Jet2(x, 0.0, 0.0)
        return Jet2(x, np.zeros_like(like.g), np.zeros_like(like.h))
    return Jet2(x, np.zeros(like), np.zeros((like, like)))


def value_of(x):
    """The value part of a jet, an array of point values as it is, else a float."""
    if type(x) is float:
        return x
    if isinstance(x, Jet2):
        return x.f
    return x if isinstance(x, np.ndarray) else float(x)


# -- elementary functions usable on floats and jets --------------------------
# sin, cos and sqrt pass an ndarray (a field's value on N points, or an array
# jet's value part) to numpy, whose results match libm's here.  exp, log and
# powers map Python's float operation over the elements instead, because
# numpy's exp, log, power and square differ from libm by an ulp at some
# points, and an array jet must give the floats of a scalar one.

def _elementwise(fn, v: np.ndarray) -> np.ndarray:
    return np.fromiter(map(fn, v.ravel().tolist()), float, v.size).reshape(v.shape)


def _power(f, p):
    if isinstance(f, np.ndarray):
        return _elementwise(lambda v: v ** p, f)
    return f ** p


def sin(x):
    if isinstance(x, Jet2):
        f = x.f
        if isinstance(f, np.ndarray):
            s, c = np.sin(f), np.cos(f)
        else:
            s, c = math.sin(f), math.cos(f)
        return chain(x, s, c, -s)
    if isinstance(x, np.ndarray):
        return np.sin(x)
    return math.sin(x)


def cos(x):
    if isinstance(x, Jet2):
        f = x.f
        if isinstance(f, np.ndarray):
            s, c = np.sin(f), np.cos(f)
        else:
            s, c = math.sin(f), math.cos(f)
        return chain(x, c, -s, -c)
    if isinstance(x, np.ndarray):
        return np.cos(x)
    return math.cos(x)


def sqrt(x):
    if isinstance(x, Jet2):
        f = x.f
        r = np.sqrt(f) if isinstance(f, np.ndarray) else math.sqrt(f)
        return chain(x, r, 0.5 / r, -0.25 / (r * f))
    if isinstance(x, np.ndarray):
        return np.sqrt(x)
    return math.sqrt(x)


def exp(x):
    if isinstance(x, Jet2):
        e = exp(x.f)
        return chain(x, e, e, e)
    if isinstance(x, np.ndarray):
        return _elementwise(math.exp, x)
    return math.exp(x)


def log(x):
    if isinstance(x, Jet2):
        f = x.f
        return chain(x, log(f), 1.0 / f, -1.0 / _power(f, 2))
    if isinstance(x, np.ndarray):
        return _elementwise(math.log, x)
    return math.log(x)


# -- small dense linear solve over generic scalars ---------------------------

def _pick(at: np.ndarray, a, b):
    """``a`` at the points where ``at`` holds, else ``b`` (floats or jets)."""
    if not (isinstance(a, Jet2) or isinstance(b, Jet2)):
        return np.where(at, a, b)
    like = a if isinstance(a, Jet2) else b
    a, b = as_jet(a, like), as_jet(b, like)
    return Jet2(np.where(at, a.f, b.f), np.where(at, a.g, b.g), np.where(at, a.h, b.h))


def _pivot_points(M, rhs, col: int, mags: list) -> None:
    """Partial pivoting of column ``col`` over N points, given the |value
    parts| of its rows from ``col`` down: at each point the first row of
    largest magnitude, as Python's ``max`` takes it, is swapped into place."""
    n = len(rhs)
    mags = np.broadcast_arrays(*mags)
    best, top = np.zeros(mags[0].shape, dtype=int), mags[0]
    for k in range(1, n - col):
        up = mags[k] > top
        best[up] = k
        top = np.where(up, mags[k], top)
    if not top.all():
        raise ZeroDivisionError(f"singular matrix in solve_generic at point "
                                f"{np.flatnonzero(top == 0.0)[0]}")
    for k in range(1, n - col):
        at = best == k
        if at.all():
            M[col], M[col + k] = M[col + k], M[col]
            rhs[col], rhs[col + k] = rhs[col + k], rhs[col]
        elif at.any():
            for c in range(col, n):
                M[col][c], M[col + k][c] = (_pick(at, M[col + k][c], M[col][c]),
                                            _pick(at, M[col][c], M[col + k][c]))
            rhs[col], rhs[col + k] = (_pick(at, rhs[col + k], rhs[col]),
                                      _pick(at, rhs[col], rhs[col + k]))


def solve_generic(A, b):
    """Solve A u = b by Gaussian elimination with partial pivoting.

    Entries may be floats or jets, at one point or at N points (pivoting
    compares value parts, point by point; a zero pivot at a point raises a
    ZeroDivisionError naming it).  Intended for the small systems (n <= 3)
    that appear here.
    """
    n = len(b)
    M = [list(row) for row in A]
    rhs = list(b)
    for col in range(n):
        mags = [abs(value_of(M[r][col])) for r in range(col, n)]
        if np.ndarray in map(type, mags):
            _pivot_points(M, rhs, col, mags)
        else:
            k = max(range(n - col), key=mags.__getitem__)
            if mags[k] == 0.0:
                raise ZeroDivisionError("singular matrix in solve_generic")
            if k:
                M[col], M[col + k] = M[col + k], M[col]
                rhs[col], rhs[col + k] = rhs[col + k], rhs[col]
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


def fd_value_grad_hess(fn: Callable[[np.ndarray], np.ndarray], u0):
    """Central-difference value/gradient/Hessian of a vector function.

    Independent of the jet path; used as the cross-check derivative oracle.
    ``u0`` is one point (m,) or N points (m, N), and ``fn`` takes such an
    array.  Returns (values (p,), grads (p, m), hessians (p, m, m)), each with
    a trailing point axis for N points.  Every point takes its own steps, so
    it gets the floats of a one-point call wherever ``fn`` on arrays gives
    those of ``fn`` at each point: the elementary functions here do, while
    ``**`` on a float array is numpy's power, which can differ from libm's by
    an ulp.
    """
    u0 = np.asarray(u0, dtype=float)
    m, lead = u0.shape[0], u0.shape[1:]

    def ev(u):
        return np.array([np.broadcast_to(v, lead) for v in fn(u)], dtype=float)

    f0 = ev(u0)
    p = f0.shape[0]
    grads = np.zeros((p, m) + lead)
    hess = np.zeros((p, m, m) + lead)
    steps1 = _H1 * np.maximum(1.0, np.abs(u0))
    steps2 = _H2 * np.maximum(1.0, np.abs(u0))
    for i in range(m):
        up, um = u0.copy(), u0.copy()
        up[i] += steps1[i]
        um[i] -= steps1[i]
        grads[:, i] = (ev(up) - ev(um)) / (2 * steps1[i])
    for i in range(m):
        hi = steps2[i]
        up, um = u0.copy(), u0.copy()
        up[i] += hi
        um[i] -= hi
        hess[:, i, i] = (ev(up) - 2 * f0 + ev(um)) / _power(hi, 2)
        for j in range(i + 1, m):
            hj = steps2[j]
            upp, upm, ump, umm = u0.copy(), u0.copy(), u0.copy(), u0.copy()
            upp[i] += hi; upp[j] += hj
            upm[i] += hi; upm[j] -= hj
            ump[i] -= hi; ump[j] += hj
            umm[i] -= hi; umm[j] -= hj
            val = (ev(upp) - ev(upm) - ev(ump) + ev(umm)) / (4 * hi * hj)
            hess[:, i, j] = val
            hess[:, j, i] = val
    return f0, grads, hess


def value_grad_hess(fn: Callable[[list], Sequence], u0, backend: str = "jet"):
    """Values (p,), gradients (p, m) and Hessians (p, m, m) of ``fn`` at u0.

    ``u0`` is one point (m,), or N points (m, N), which add a trailing point
    axis to every read-out.  ``fn(coords)`` takes a list of m floats or jets
    (one array of N floats, or jets over N points, per coordinate) and returns
    a list of p of the same.  ``"jet"`` reads one pass over seeded jets (a
    float output is a constant, with zero derivatives); ``"fd"`` runs
    `fd_value_grad_hess` over float passes.
    """
    if backend == "jet":
        seeds = jet_vars(u0)
        lead = np.shape(u0)[1:]
        outs = [as_jet(v, seeds[0]) for v in fn(seeds)]
        return (np.array([np.broadcast_to(v.f, lead) for v in outs]),
                np.array([v.g for v in outs]), np.array([v.h for v in outs]))
    if backend == "fd":
        return fd_value_grad_hess(
            lambda u: [value_of(v) for v in fn(list(u) if u.ndim > 1 else u.tolist())], u0)
    raise ValueError(f"unknown backend: {backend}")
