"""Smooth scalar fields evaluated by one function over floats or jets.

Metric components, potentials and the feedback-shaping one-form are all built
from these.  A field holds one function ``fn(coords)`` written with the
elementary functions of `jets`, or with a `Curve` (a cubic spline read at one
float by `spline_reader`, at an array by `Curve.read` and through
`jets.chain` at a jet), so it accepts float or `Jet2` coordinates alike, and
also a mix of the two, since jet arithmetic takes float operands: callers
that evaluate at such coordinates call ``fn`` directly, and a constant field
stays a float there.
``value`` is one float pass, and ``d1``/``d2`` read the gradient and Hessian
of one pass over jets seeded by `_seeds`, which is exact
forward-mode differentiation; at one point of a field of arity 1 those jets
carry float parts, which skip numpy's per-operation cost on one-element
arrays.  The algebra composes these functions and folds constant fields when
the expression is built, and gives each field its ``support``.

`read_at` is the one reader of the values and first partials of blocks of
fields.  At floats, one point or N, it makes one pass over jets seeded once
per call, with a memo that lives and dies with the call, so that each field
and each node that fields share (the g_sg fields under the SM3 tau entries)
is evaluated once; at jets it reads ``fn`` and `gradient`.  `eval_blocks`
copies one `read_at` at N points into arrays.

`gradient` gives a field's first partials at float or jet coordinates, as the
Euler-Lagrange covector needs them (float zeros for a constant field), at one
point or at N points: on array jets it makes one pass over all N, and at one
float point it seeds only the field's support.  At jets each partial's
Hessian is NaN wherever a third derivative of the field would enter, since
`Jet2` stops at second order; no Helmholtz family reads those entries.

`Curve` builds its spline coefficients itself, bit for bit those of scipy's
``CubicSpline``, so that nothing here imports scipy.
"""

from __future__ import annotations

import operator
from bisect import bisect_right
from numbers import Real
from typing import Callable, Sequence

import numpy as np

from . import jets
from .jets import Jet2, as_jet, chain, jet_vars, value_of

__all__ = [
    "SmoothField",
    "constant",
    "coordinate",
    "linear",
    "sin_of",
    "cos_of",
    "sqrt_of",
    "eval_blocks",
    "read_at",
    "gradient",
    "spline_reader",
    "Curve",
]


class SmoothField:
    """Scalar field u -> R of a fixed arity, given by ``fn(coords)``.

    ``fn`` takes a sequence of ``arity`` coordinates, all floats or all jets
    of one seed dimension, and returns a float or a jet.  ``const`` is the
    value of a constant field, else None.  ``support`` is the sorted tuple of
    the coordinates ``fn`` reads, all of them unless given.
    """

    __slots__ = ("arity", "fn", "const", "support")

    def __init__(self, arity: int, fn: Callable, const: float | None = None,
                 support: Sequence[int] | None = None):
        self.arity = arity
        self.fn = fn
        self.const = const
        self.support = tuple(range(arity)) if support is None else tuple(support)

    def __call__(self, u) -> float:
        return self.value(u)

    # -- evaluation -------------------------------------------------------------

    def value(self, u) -> float:
        return self.fn(u.tolist() if isinstance(u, np.ndarray) else [float(v) for v in u])

    def eval_jet(self, jets: Sequence[Jet2]) -> Jet2:
        return as_jet(self.fn(jets), jets[0])

    def d1(self, u) -> np.ndarray:
        """The gradient (arity,) at one point, or (arity, N) at N points, from
        one pass over jets seeded by `_seeds`; zeros (arity,) for a constant
        field."""
        if self.const is not None:
            return np.zeros(self.arity)
        g = self.eval_jet(_seeds(u)).g
        return g if isinstance(g, np.ndarray) else np.array([g])

    def d2(self, u) -> np.ndarray:
        """The Hessian (arity, arity) at one point, or (arity, arity, N) at N
        points, from one pass over jets seeded by `_seeds`; zeros (arity,
        arity) for a constant field."""
        if self.const is not None:
            return np.zeros((self.arity, self.arity))
        h = self.eval_jet(_seeds(u)).h
        return h if isinstance(h, np.ndarray) else np.array([[h]])

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
        if cb is not None:
            return SmoothField(self.arity, lambda u: op(_at(self, u), cb), support=self.support)
        if ca is not None:
            return SmoothField(self.arity, lambda u: op(ca, _at(other, u)), support=other.support)
        return SmoothField(self.arity, lambda u: op(_at(self, u), _at(other, u)),
                           support=sorted({*self.support, *other.support}))

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
    return SmoothField(field.arity, lambda u: fun(_at(field, u)), support=field.support)


def _seeds(values) -> list:
    """Jets seeded at values: float parts for one float or tape `jets.Var`,
    else `jets.jet_vars`."""
    if len(values) == 1 and not isinstance(values[0], np.ndarray):
        return [Jet2(value_of(values[0]), 1.0, 0.0)]
    return jet_vars(values)


class _Pass(list):
    """The seeded coordinates of one `read_at` pass, with its ``memo``."""

    __slots__ = ("memo",)


def _at(field: SmoothField, u):
    """An operand of a composed field at u, from the memo of a `read_at` pass."""
    if type(u) is not _Pass:
        return field.fn(u)
    value = u.memo.get(field)
    if value is None:
        value = u.memo[field] = field.fn(u)
    return value


def constant(c: float, arity: int) -> SmoothField:
    c = float(c)
    return SmoothField(arity, lambda u: c, const=c, support=())


def coordinate(i: int, arity: int) -> SmoothField:
    return SmoothField(arity, operator.itemgetter(i), support=(i,))


def linear(coeffs: Sequence[float], const: float, arity: int) -> SmoothField:
    """sum(c_i u_i) + b, which reads the coordinates of nonzero c_i."""
    c = [float(v) for v in coeffs]
    b = float(const)
    return SmoothField(arity, lambda u: sum(map(operator.mul, c, u)) + b,
                       support=[i for i, v in enumerate(c) if v != 0.0])


def sin_of(field: SmoothField) -> SmoothField:
    return _unary(field, jets.sin)


def cos_of(field: SmoothField) -> SmoothField:
    return _unary(field, jets.cos)


def sqrt_of(field: SmoothField) -> SmoothField:
    return _unary(field, jets.sqrt)


def eval_blocks(blocks, xs: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """Values (N, rows, cols) and gradients (N, rows, cols, arity) of each
    block (a sequence of rows of fields) at the N points of xs (N, arity),
    copied from one `read_at` over all the blocks."""
    xs = np.asarray(xs, dtype=float)
    n, arity = xs.shape
    reads = read_at(blocks, list(xs.T))
    result = []
    for block in blocks:
        vals = np.empty((n, len(block), len(block[0])))
        grads = np.empty(vals.shape + (arity,))
        for i, row in enumerate(block):
            for j, f in enumerate(row):
                vals[:, i, j], grads[:, i, j] = reads[f][0], np.transpose(reads[f][1])
        result.append((vals, grads))
    return result


def read_at(blocks, coords) -> dict:
    """``{field: (value, partials)}`` for each distinct field of ``blocks``
    (sequences of rows of fields) at ``coords``: one point of floats, N points
    (one array of N floats per coordinate) or jets, which may mix with floats.

    At floats, one pass over jets seeded once per call calls each field's
    ``fn`` once, and its memo (`_at`) evaluates each node that fields share
    once.  The partials are a list of floats at one point and an (arity, N)
    array at N points; the values are the floats of a float pass.  At jets
    the value is the field's ``fn`` and the partials its `gradient`.  A
    constant field reads its value and float zeros."""
    fields = dict.fromkeys(f for block in blocks for row in block for f in row)
    if any(isinstance(c, Jet2) for c in coords):
        return {f: (f.const, [0.0] * f.arity) if f.const is not None
                else (f.fn(coords), gradient(f, coords)) for f in fields}
    one = not isinstance(coords[0], np.ndarray)
    u = _Pass(_seeds(coords))
    u.memo = {}
    out = {}
    for f in fields:
        if f.const is not None:
            out[f] = f.const, [0.0] * f.arity
            continue
        jet = as_jet(_at(f, u), u[0])       # a float result is a constant jet
        g = jet.g
        out[f] = jet.f, (g.tolist() if isinstance(g, np.ndarray) else [g]) if one else g
    return out


def gradient(field: SmoothField, coords) -> Sequence:
    """First partials of ``field`` at float or jet coordinates, at one point or
    at N points (one array of N floats, or jets over N points, per
    coordinate).

    A constant field gives float zeros.  Floats give the gradient of one jet
    pass; at one point it seeds only the field's support (by `_seeds`), and
    the other partials are 0.0.  Jets compose the gradient and Hessian of one
    pass at the value parts with the coordinates' jets by the chain rule.  The
    Hessian of a partial would also need the field's third derivatives, which
    `Jet2` does not carry and no Helmholtz family reads: every entry (a, b)
    they would enter, where some coordinate jet moves along seed a and some
    along seed b (at that point, over N points), is NaN.
    """
    n, sup = field.arity, field.support
    if field.const is not None or not sup:
        return [0.0] * n
    seed = next((c for c in coords if isinstance(c, Jet2)), None)
    if seed is None:
        if len(sup) == n or isinstance(coords[0], np.ndarray):
            return field.d1(coords)
        seeds = dict(zip(sup, _seeds([value_of(coords[i]) for i in sup])))
        top = field.fn([seeds.get(i, value_of(c)) for i, c in enumerate(coords)])
        g = as_jet(top, seeds[sup[0]]).g
        parts = dict(zip(sup, g.tolist() if isinstance(g, np.ndarray) else [g]))
        return [parts.get(i, 0.0) for i in range(n)]
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


def _gtsv(dl: list, d: list, du: list, b: list) -> list:
    """Solve the tridiagonal system with sub-, main and super-diagonals
    ``dl``, ``d``, ``du`` for the right-hand side ``b``, all lists of floats
    that it overwrites; ``b`` comes back as the solution.  This is reference
    LAPACK ``dgtsv`` for one right-hand side (the routine behind scipy's
    ``solve_banded((1, 1), ...)``): the same partial-pivoting test and the
    same operations in the same order, so the same floats."""
    n = len(d)
    for i in range(n - 1):
        if abs(d[i]) >= abs(dl[i]):
            if d[i] == 0.0:
                raise np.linalg.LinAlgError("singular matrix")
            fact = dl[i] / d[i]
            d[i + 1] = d[i + 1] - fact * du[i]
            b[i + 1] = b[i + 1] - fact * b[i]
            dl[i] = 0.0     # LAPACK leaves dl[n-2] as it is; no step reads it
        else:
            fact = d[i] / dl[i]
            d[i] = dl[i]
            temp = d[i + 1]
            d[i + 1] = du[i] - fact * temp
            if i < n - 2:
                dl[i] = du[i + 1]
                du[i + 1] = -fact * dl[i]
            du[i] = temp
            temp = b[i]
            b[i] = b[i + 1]
            b[i + 1] = temp - fact * b[i + 1]
    if d[n - 1] == 0.0:
        raise np.linalg.LinAlgError("singular matrix")
    b[n - 1] = b[n - 1] / d[n - 1]
    if n > 1:
        b[n - 2] = (b[n - 2] - du[n - 2] * b[n - 1]) / d[n - 2]
    for i in range(n - 3, -1, -1):
        b[i] = (b[i] - du[i] * b[i + 1] - dl[i] * b[i + 2]) / d[i]
    return b


def _spline_coefficients(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Coefficients (4, N-1), highest power first, of the not-a-knot cubic
    spline through (x, y): bit for bit ``CubicSpline(x, y).c``.

    The knot slopes solve scipy's system with scipy's expressions (numpy
    float64 scalars, ``** 2`` included): its tridiagonal not-a-knot system
    through `_gtsv`, the clamped-slope system for two knots, and its 3x3
    parabola system for three.  The coefficients are scipy's Hermite
    formula."""
    n = len(x)
    dx = np.diff(x)
    if not (n >= 2 and np.isfinite(x).all() and np.isfinite(y).all() and (dx > 0).all()):
        raise ValueError("a spline needs at least 2 finite, strictly increasing knots "
                         "and finite values")
    slope = np.diff(y) / dx
    if n == 2:
        s = _gtsv([0.0], [1.0, 1.0], [0.0], [slope[0], slope[0]])
    elif n == 3:
        a = np.array([[1.0, 1.0, 0.0], [dx[1], 2 * (dx[0] + dx[1]), dx[0]], [0.0, 1.0, 1.0]])
        s = np.linalg.solve(a, [2 * slope[0], 3 * (dx[0] * slope[1] + dx[1] * slope[0]),
                                2 * slope[1]])
    else:
        d = np.empty(n)
        d[1:-1] = 2 * (dx[:-1] + dx[1:])
        d[0], d[-1] = dx[1], dx[-2]
        b = np.empty(n)
        b[1:-1] = 3 * (dx[1:] * slope[:-1] + dx[:-1] * slope[1:])
        e0, e1 = x[2] - x[0], x[-1] - x[-3]
        b[0] = ((dx[0] + 2 * e0) * dx[1] * slope[0] + dx[0] ** 2 * slope[1]) / e0
        b[-1] = (dx[-1] ** 2 * slope[-2] + (2 * e1 + dx[-1]) * dx[-2] * slope[-1]) / e1
        s = _gtsv(dx[1:].tolist() + [float(e1)], d.tolist(), [float(e0)] + dx[:-1].tolist(),
                  b.tolist())
    s = np.asarray(s)
    t = (s[:-1] + s[1:] - 2 * slope) / dx
    return np.stack((t / dx, (slope - s[:-1]) / dx - t, s[:-1], y[:-1]))


def spline_reader(spline) -> Callable[[float, int], float]:
    """``at(v, nu)``: the ``nu``-th derivative (0, 1 or 2) at one float of a
    cubic spline with breakpoints ``spline.x`` and coefficients ``spline.c``
    (a `Curve` or a ``scipy.interpolate.CubicSpline``), bit for bit what
    ``CubicSpline.__call__(v, nu)`` returns.

    The interval is scipy's: the count of interior breakpoints at or below
    ``v``, which clamps to the first and last intervals so that both ends
    extrapolate; no breakpoint compares above a NaN, so it reads the last.  The
    cubic is summed in scipy's ``evaluate_poly1`` order, ``res = res +
    c[3-kp] * z * prefactor`` from ``res = 0.0``, ``z = 1.0`` with ``z *= s``
    after each term, written out for the cubic (products by a prefactor of
    1.0 are exact, so they are left out).  A NaN gives NaN.  Reads go to
    Python lists, which bisect and index faster than arrays or memoryviews:
    the interior breakpoints, as floats, built at the first read, and one
    ``(x, c3, c2, c1, c0)`` tuple of floats per interval, built at the first
    read in that interval.  A spline never read at a float (an N-point tau
    curve) builds neither, and a trajectory builds the rows of the intervals
    it visits alone: all 800 rows of each 801-knot curve raised the peak RSS
    of the design benchmark by about 2 MB.  `Curve.read` is the same sum over
    arrays.
    """
    x, c = spline.x, spline.c
    inner = rows = None

    def at(v: float, nu: int = 0) -> float:
        nonlocal inner, rows
        if rows is None:
            inner = x[1:-1].tolist()
            rows = [None] * (len(x) - 1)
        i = bisect_right(inner, v)
        row = rows[i]
        if row is None:
            row = rows[i] = (float(x[i]), *c[:, i].tolist())
        xi, c3, c2, c1, c0 = row
        s = v - xi
        if nu == 0:
            z = s * s
            return 0.0 + c0 + c1 * s + c2 * z + c3 * (z * s)
        if nu == 1:
            return 0.0 + c1 + c2 * s * 2.0 + c3 * (s * s) * 3.0
        return 0.0 + c2 * 2.0 + c3 * s * 6.0

    return at


def _read_arrays(x: np.ndarray, c: np.ndarray, v, nus: Sequence[int]) -> list[np.ndarray]:
    """The ``nu``-th derivatives, for each nu in ``nus``, of the spline (x, c)
    at an array of points, from one interval search: the floats of
    `spline_reader`, and so of ``CubicSpline.__call__``, at every point.  A
    NaN reads NaN; +-inf read what scipy's C loop gives, silently."""
    v = np.asarray(v, dtype=float)
    i = np.searchsorted(x[1:-1], v, side="right")     # clamped to [0, N-2]
    s = v - x[i]
    c3, c2, c1, c0 = c[:, i]
    out = []
    with np.errstate(invalid="ignore"):
        for nu in nus:
            if nu == 0:
                z = s * s
                out.append(0.0 + c0 + c1 * s + c2 * z + c3 * (z * s))
            elif nu == 1:
                out.append(0.0 + c1 + c2 * s * 2.0 + c3 * (s * s) * 3.0)
            else:
                out.append(0.0 + c2 * 2.0 + c3 * s * 6.0)
    return out


class Curve:
    """The not-a-knot cubic spline through (xs, values), with breakpoints
    ``x`` and coefficients ``c`` as ``scipy.interpolate.CubicSpline`` has
    them, bit for bit.  It is called at a float (read by `spline_reader`,
    ``at``), an array (by `read`) or a `Jet2` at one point or at an array of
    points (through `jets.chain` with ``derivs(v) -> (d1, d2)``, the spline's
    own first two derivatives unless given)."""

    def __init__(self, xs: np.ndarray, values: np.ndarray,
                 derivs: Callable[[float], tuple[float, float]] | None = None):
        self.x = x = np.asarray(xs, dtype=float)
        self.c = c = _spline_coefficients(x, np.asarray(values, dtype=float))
        self.at = at = spline_reader(self)

        # closures, not bound methods, so that a curve holds no reference
        # cycle and is freed as soon as it is dropped
        if derivs is None:
            def jet_parts(v):
                if isinstance(v, np.ndarray):
                    return _read_arrays(x, c, v, (0, 1, 2))
                return at(v), at(v, 1), at(v, 2)
        else:
            def jet_parts(v):
                value = _read_arrays(x, c, v, (0,))[0] if isinstance(v, np.ndarray) else at(v)
                return (value, *derivs(v))
        self._jet_parts = jet_parts

    def read(self, v, nu: int = 0) -> np.ndarray:
        """The ``nu``-th derivative (0, 1 or 2) at an array of points."""
        return _read_arrays(self.x, self.c, v, (nu,))[0]

    def __call__(self, x):
        if isinstance(x, Jet2):
            return chain(x, *self._jet_parts(x.f))
        if isinstance(x, np.ndarray):
            return self.read(x)
        return self.at(x)
