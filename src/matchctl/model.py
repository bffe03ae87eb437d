"""Mechanical systems with an Abelian symmetry split.

Coordinates are ordered shape block first, group block second, everywhere:
q = (x^1..x^ns, theta^1..theta^ng).  Only the shape coordinates enter the
kinetic metric; the potential may depend on group coordinates when the
symmetry is broken (inclined-cart case).
"""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np

from . import fields as fl
from .fields import SmoothField
from .jets import cos, value_grad_hess
from .report import ResidualEntry, ResidualReport

__all__ = [
    "Dims",
    "State",
    "CartpoleParams",
    "InclineParams",
    "MechanicalSystem",
    "block_entries",
    "metric_of",
    "build_mechanical_system",
    "cartpole_system",
    "incline_system",
    "validate_system",
    "synthetic_sm_system",
]


class DimensionError(ValueError):
    pass


@dataclass(frozen=True)
class Dims:
    n_shape: int
    n_group: int

    def __post_init__(self):
        if self.n_shape < 1 or self.n_group < 1:
            raise DimensionError("need at least one shape and one group coordinate")

    @property
    def total(self) -> int:
        return self.n_shape + self.n_group


@dataclass(frozen=True)
class State:
    """Positions and velocities of one state (n,), or of N states (N, n), one
    row per state."""

    q: np.ndarray
    qdot: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "q", np.asarray(self.q, dtype=float))
        object.__setattr__(self, "qdot", np.asarray(self.qdot, dtype=float))
        if self.q.shape != self.qdot.shape:
            raise DimensionError("q and qdot lengths differ")

    @property
    def n(self) -> int:
        return self.q.shape[-1]


@dataclass(frozen=True)
class CartpoleParams:
    """Pendulum bob m on a cart M, pendulum length l."""

    m: float = 0.14
    M: float = 0.44
    l: float = 0.215
    grav: float = 9.81

    def __post_init__(self):
        for name in ("m", "M", "l", "grav"):
            value = getattr(self, name)
            if not 0 < value < np.inf:
                raise ValueError(f"{name} must be positive and finite, got {value!r}")
        # the formulas multiply the metric's coefficients in pairs, as in its
        # determinant alpha gamma - beta^2 cos^2 x
        given = f"m, M and l = {self.m!r}, {self.M!r}, {self.l!r}"
        try:
            metric = [(name, getattr(self, name)) for name in ("alpha", "beta", "gamma")]
        except OverflowError:
            raise ValueError(f"{given} overflow alpha = m l ** 2") from None
        for i, (a, u) in enumerate(metric):
            for b, v in metric[i:]:
                if not 0 < u * v < np.inf:
                    raise ValueError(f"{given} give {a} * {b} = {u * v!r}, which must be "
                                     f"nonzero and finite")
        det = self.alpha * self.gamma - self.beta ** 2     # D's least, at x = 0
        if not det > 0:
            raise ValueError(f"{given} give alpha * gamma - beta ** 2 = {det!r}, which must "
                             f"be positive")

    @property
    def alpha(self) -> float:
        return self.m * self.l ** 2

    @property
    def beta(self) -> float:
        return self.m * self.l

    @property
    def gamma(self) -> float:
        return self.m + self.M

    @property
    def d(self) -> float:
        return -self.m * self.grav * self.l


@dataclass(frozen=True)
class InclineParams(CartpoleParams):
    """Cart-pole on an incline of angle psi."""

    psi: float = 0.0

    def __post_init__(self):
        super().__post_init__()
        if not abs(self.psi) < np.pi / 2:
            raise ValueError(f"psi must be below pi/2 in magnitude, got {self.psi!r}")


def block_entries(block, coords) -> list[list]:
    """The fields of a block (a sequence of rows) at an array of float
    coordinates or a sequence that may mix floats and jets, as a nested list;
    a float result stays a float."""
    u = coords.tolist() if isinstance(coords, np.ndarray) else coords
    return [[f.fn(u) for f in row] for row in block]


def metric_of(gss, gsg, ggg) -> list[list]:
    """The full block metric [[g_ss, g_sg], [g_sg', g_gg]] from the entries
    of its blocks, as a nested list."""
    return ([a + b for a, b in zip(gss, gsg)]
            + [[row[a] for row in gsg] + c for a, c in enumerate(ggg)])


class MechanicalSystem:
    """Block kinetic metric over shape coordinates plus a potential.

    Blocks are matrices of SmoothField over the shape coordinates; V is a
    SmoothField over all coordinates.  Instances are immutable.
    """

    def __init__(self, dims: Dims, g_ss, g_sg, g_gg, V: SmoothField,
                 breaks_group_symmetry: bool = False):
        self.dims = dims
        self.g_ss = tuple(tuple(row) for row in g_ss)
        self.g_sg = tuple(tuple(row) for row in g_sg)
        self.g_gg = tuple(tuple(row) for row in g_gg)
        self.V = V
        self.breaks_group_symmetry = breaks_group_symmetry

    def metric_block(self, q) -> list[list]:
        """The full block metric at the shape part of q (floats or jets), as a
        nested list; at N float states it is read through `fields.read_at`, so
        that each state gets the floats of its one-state call."""
        x, blocks = q[:self.dims.n_shape], (self.g_ss, self.g_sg, self.g_gg)
        if isinstance(x[0], np.ndarray):
            reads = fl.read_at(blocks, list(x))
            return metric_of(*([[reads[f][0] for f in row] for row in b] for b in blocks))
        return metric_of(*(block_entries(b, x) for b in blocks))

    # -- float evaluation ------------------------------------------------------

    def gss(self, x: np.ndarray) -> np.ndarray:
        return np.array(block_entries(self.g_ss, x))

    def gsg(self, x: np.ndarray) -> np.ndarray:
        return np.array(block_entries(self.g_sg, x))

    def ggg(self, x: np.ndarray) -> np.ndarray:
        return np.array(block_entries(self.g_gg, x))

    def metric(self, x: np.ndarray) -> np.ndarray:
        """Full block metric at shape coordinates x."""
        return np.array(self.metric_block(x))

    def V_value(self, q: np.ndarray) -> float:
        return self.V.value(np.asarray(q, dtype=float))

    def V_d1(self, q: np.ndarray) -> np.ndarray:
        return self.V.d1(np.asarray(q, dtype=float))


def _check_block(name: str, block, rows: int, cols: int, arity: int, symmetric: bool,
                 probes: np.ndarray) -> None:
    if len(block) != rows or any(len(r) != cols for r in block):
        raise DimensionError(f"{name} must be {rows}x{cols}")
    for row in block:
        for f in row:
            if f.arity != arity:
                raise DimensionError(f"{name} entries must have arity {arity}")
    if symmetric:
        for x in probes:
            m = np.array([[f.value(x) for f in row] for row in block])
            if np.abs(m - m.T).max() > 1e-12 * max(1.0, np.abs(m).max()):
                raise ValueError(f"non-symmetric block supplied: {name}")


def build_mechanical_system(dims: Dims, g_ss, g_sg, g_gg, V: SmoothField,
                            breaks_group_symmetry: bool = False) -> MechanicalSystem:
    """Validate block shapes/symmetry and assemble the system.

    Full derivative-consistency and positive-definiteness checks are deferred
    to `validate_system`.
    """
    ns, ng, n = dims.n_shape, dims.n_group, dims.total
    rng = np.random.default_rng(0)
    probes = rng.uniform(-1.0, 1.0, size=(4, ns))
    _check_block("g_ss", g_ss, ns, ns, ns, True, probes)
    _check_block("g_sg", g_sg, ns, ng, ns, False, probes)
    _check_block("g_gg", g_gg, ng, ng, ns, True, probes)
    if V.arity != n:
        raise DimensionError(f"V must have arity {n}")
    return MechanicalSystem(dims, g_ss, g_sg, g_gg, V, breaks_group_symmetry)


def cartpole_system(p: CartpoleParams) -> MechanicalSystem:
    """Inverted pendulum on a cart: g_ss=[alpha], g_sg=[beta cos x], g_gg=[gamma]."""
    be, d = float(p.beta), float(p.d)
    g_ss = [[fl.constant(p.alpha, 1)]]
    g_sg = [[SmoothField(1, lambda u: be * cos(u[0]))]]
    g_gg = [[fl.constant(p.gamma, 1)]]
    # V(x, s) = -d cos x, independent of the cart position
    V = SmoothField(2, lambda u: -d * cos(u[0]))
    return build_mechanical_system(Dims(1, 1), g_ss, g_sg, g_gg, V)


def incline_system(p: InclineParams) -> MechanicalSystem:
    """Cart-pole on an incline: coupling rotated by psi, potential gains a slope term."""
    be, d, psi = float(p.beta), float(p.d), float(p.psi)
    slope = float(p.gamma * p.grav * np.sin(p.psi))
    g_ss = [[fl.constant(p.alpha, 1)]]
    g_sg = [[SmoothField(1, lambda u: be * cos(u[0] - psi))]]
    g_gg = [[fl.constant(p.gamma, 1)]]
    V = SmoothField(2, lambda u: -d * cos(u[0]) - slope * u[1])
    return build_mechanical_system(Dims(1, 1), g_ss, g_sg, g_gg, V,
                                   breaks_group_symmetry=(p.psi != 0.0))


def validate_system(sys: MechanicalSystem, n_samples: int = 25,
                    x_range: tuple[float, float] = (-1.3, 1.3),
                    seed: int = 0) -> ResidualReport:
    """Sample-based sanity report: symmetry, positive-definiteness, derivative
    consistency, at shape points drawn from x_range and group coordinates from
    [-1, 1].

    All samples are evaluated at once, each with the floats of a one-sample
    pass: the metric by `fields.eval_blocks`, and for each field one array-jet
    pass and one difference pass over the sample points; the symmetry and
    eigenvalue checks run on the stack of metrics.
    Positive-definiteness failure is reported, not raised.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    ns, ng = sys.dims.n_shape, sys.dims.n_group
    rng = np.random.default_rng(seed)
    xs = rng.uniform(x_range[0], x_range[1], size=(n_samples, ns))
    thetas = rng.uniform(-1.0, 1.0, size=(n_samples, ng))
    qs = np.concatenate([xs, thetas], axis=1)

    (gss, _), (gsg, _), (ggg, _) = fl.eval_blocks([sys.g_ss, sys.g_sg, sys.g_gg], xs)
    metric = np.concatenate([np.concatenate([gss, gsg], axis=2),
                             np.concatenate([gsg.swapaxes(1, 2), ggg], axis=2)], axis=1)
    flipped = metric.swapaxes(1, 2)
    sym = np.abs(metric - flipped).max(axis=(1, 2))
    min_eig = np.linalg.eigvalsh(0.5 * (metric + flipped)).min(axis=1)

    def _deriv_mismatch(f: SmoothField, u: np.ndarray) -> np.ndarray:
        """Relative jet-against-difference mismatch at each point of u (m, N),
        and the jet gradients (m, N)."""
        _, g, h = value_grad_hess(lambda c: [f.fn(c)], u)
        _, g_fd, h_fd = value_grad_hess(lambda c: [f.fn(c)], u, backend="fd")
        scale_g = np.fmax(np.fmax(1.0, np.abs(g).max(axis=(0, 1))), np.abs(g_fd).max(axis=(0, 1)))
        scale_h = np.fmax(np.fmax(1.0, np.abs(h).max(axis=(0, 1, 2))),
                          np.abs(h_fd).max(axis=(0, 1, 2)))
        dg = np.abs(g - g_fd).max(axis=(0, 1)) / scale_g
        dh = np.abs(h - h_fd).max(axis=(0, 1, 2)) / scale_h
        return np.where(dh > dg, dh, dg), g[0]

    fields = [f for block in (sys.g_ss, sys.g_sg, sys.g_gg) for row in block for f in row]
    mismatch = [_deriv_mismatch(f, xs.T)[0] for f in fields]
    v_mismatch, dV = _deriv_mismatch(sys.V, qs.T)
    deriv_err = np.stack(mismatch + [v_mismatch], axis=1).ravel()

    # the engines' reducers: a NaN anywhere fails its entry
    report = ResidualReport("system validation")
    report.add(ResidualEntry.max_over("block_symmetry", sym, 1e-12))
    report.add(ResidualEntry.floored("metric_min_eigenvalue", min_eig, 0.0,
                                     note="pass iff min eigenvalue > 0"))
    report.add(ResidualEntry.max_over("derivative_consistency", deriv_err, 1e-5))
    if sys.breaks_group_symmetry:
        report.add(ResidualEntry.skip("group_symmetry", "potential breaks group symmetry"))
    else:
        report.add(ResidualEntry.max_over("group_symmetry", np.abs(dV[ns:]).max(axis=0), 1e-12))
    return report


def synthetic_sm_system(seed: int, dims: Dims) -> tuple[MechanicalSystem, float]:
    """Random system satisfying the simplified matching structure.

    Constant group block, shape-coupling fields that are gradients in the
    shape index (so the cross-derivative condition holds), smooth potential.
    Returns the system together with a positive sigma scalar.
    """
    rng = np.random.default_rng(seed)
    ns, ng = dims.n_shape, dims.n_group

    # constant SPD group block
    B = rng.normal(size=(ng, ng))
    ggg_mat = np.eye(ng) + 0.25 * (B + B.T) + 0.5 * np.diag(rng.uniform(0.0, 1.0, ng))
    w = np.linalg.eigvalsh(ggg_mat).min()
    if w < 0.4:
        ggg_mat += (0.5 - w) * np.eye(ng)
    g_gg = [[fl.constant(ggg_mat[a][b], ns) for b in range(ng)] for a in range(ng)]

    # g_{alpha a} = d(chi_a)/dx^alpha with chi_a = c_a sin(p.x + phi_a)
    g_sg_cols = []
    for a in range(ng):
        c = rng.uniform(0.1, 0.3)
        p = rng.uniform(-1.0, 1.0, size=ns)
        phi = rng.uniform(0.0, 2 * np.pi)
        arg = fl.linear(p, phi, ns)
        col = [c * p[al] * fl.cos_of(arg) for al in range(ns)]
        g_sg_cols.append(col)
    g_sg = [[g_sg_cols[a][al] for a in range(ng)] for al in range(ns)]

    # shape block: dominant constant diagonal plus small smooth symmetric wiggle
    base = 2.0 + rng.uniform(0.0, 1.0, size=ns)
    g_ss = [[fl.constant(0.0, ns) for _ in range(ns)] for _ in range(ns)]
    for i in range(ns):
        for j in range(i, ns):
            amp = rng.uniform(0.05, 0.2)
            p = rng.uniform(-1.0, 1.0, size=ns)
            phi = rng.uniform(0.0, 2 * np.pi)
            f = amp * fl.cos_of(fl.linear(p, phi, ns))
            if i == j:
                f = f + fl.constant(base[i], ns)
            g_ss[i][j] = f
            g_ss[j][i] = f

    n = dims.total
    amp = rng.uniform(0.2, 0.8)
    pv = np.zeros(n)
    pv[:ns] = rng.uniform(-1.0, 1.0, size=ns)
    V = amp * fl.cos_of(fl.linear(pv, rng.uniform(0, 2 * np.pi), n))

    sigma = rng.uniform(0.5, 2.0)
    return build_mechanical_system(dims, g_ss, g_sg, g_gg, V), float(sigma)
