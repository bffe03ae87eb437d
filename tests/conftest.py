import os

import numpy as np
import pytest

import matchctl.fields as fl
from matchctl.lagrangian import ShapingParams, scalar_sigma_matrix
from matchctl.model import (CartpoleParams, Dims, InclineParams, MechanicalSystem,
                            build_mechanical_system, cartpole_system,
                            synthetic_sm_system)


def _pipe_grows_to_1mb() -> bool:
    """Whether a pipe's size can be set to 1 MB here, as the CSV writer asks."""
    piped, pipe = os.pipe()
    try:
        import fcntl
        return fcntl.fcntl(pipe, fcntl.F_SETPIPE_SZ, 1 << 20) >= 1 << 20
    except (ImportError, AttributeError, OSError):
        return False
    finally:
        os.close(piped)
        os.close(pipe)


# whether `sim.integrate` forks its CSV writer here (from CSV_FORK_ROWS planned rows on)
FORKS = (hasattr(os, "fork") and len(getattr(os, "sched_getaffinity", lambda pid: ())(0)) >= 2
         and _pipe_grows_to_1mb())


@pytest.fixture(scope="session")
def reference_params() -> CartpoleParams:
    return CartpoleParams(m=0.14, M=0.44, l=0.215, grav=9.81)


@pytest.fixture(scope="session")
def incline_params() -> InclineParams:
    return InclineParams(m=0.14, M=0.44, l=0.215, grav=9.81, psi=0.3)


@pytest.fixture(scope="session")
def cartpole(reference_params):
    return cartpole_system(reference_params)


def free_particle(n_shape: int = 1, n_group: int = 1) -> MechanicalSystem:
    dims = Dims(n_shape, n_group)
    ns, n = dims.n_shape, dims.total
    eye = [[fl.constant(1.0 if i == j else 0.0, ns) for j in range(ns)] for i in range(ns)]
    zero = [[fl.constant(0.0, ns) for _ in range(dims.n_group)] for _ in range(ns)]
    eye_g = [[fl.constant(1.0 if a == b else 0.0, ns) for b in range(dims.n_group)]
             for a in range(dims.n_group)]
    return build_mechanical_system(dims, eye, zero, eye_g, fl.constant(0.0, n))


def random_system(seed: int, dims: Dims, const_group: bool = True) -> MechanicalSystem:
    """Generic smooth random system, positive-definite on |x| <= 1.3."""
    rng = np.random.default_rng(seed)
    ns, ng = dims.n_shape, dims.n_group

    def wiggle(amp):
        p = rng.uniform(-1.0, 1.0, size=ns)
        return amp * fl.cos_of(fl.linear(p, rng.uniform(0, 2 * np.pi), ns))

    B = rng.normal(size=(ng, ng))
    gg0 = np.eye(ng) + 0.2 * (B + B.T)
    w = np.linalg.eigvalsh(gg0).min()
    if w < 0.5:
        gg0 += (0.6 - w) * np.eye(ng)
    g_gg = [[fl.constant(gg0[a, b], ns) if const_group
             else fl.constant(gg0[a, b], ns) + (wiggle(0.08) if a == b else wiggle(0.04))
             for b in range(ng)] for a in range(ng)]
    for a in range(ng):
        for b in range(a):
            g_gg[b][a] = g_gg[a][b]
    g_sg = [[wiggle(rng.uniform(0.05, 0.25)) for _ in range(ng)] for _ in range(ns)]
    g_ss = [[fl.constant(0.0, ns) for _ in range(ns)] for _ in range(ns)]
    for i in range(ns):
        for j in range(i, ns):
            f = wiggle(0.1)
            if i == j:
                f = f + fl.constant(2.0 + rng.uniform(0, 1), ns)
            g_ss[i][j] = f
            g_ss[j][i] = f
    pv = np.concatenate([rng.uniform(-1, 1, ns), np.zeros(ng)])
    V = rng.uniform(0.2, 1.0) * fl.cos_of(fl.linear(pv, rng.uniform(0, 2 * np.pi), dims.total))
    return build_mechanical_system(dims, g_ss, g_sg, g_gg, V)


def random_tau(seed: int, dims: Dims, amp: float = 0.4):
    rng = np.random.default_rng(seed)
    ns = dims.n_shape
    return tuple(tuple(amp * fl.sin_of(fl.linear(rng.uniform(-1, 1, ns),
                                                 rng.uniform(0, 2 * np.pi), ns))
                       for _ in range(ns)) for _ in range(dims.n_group))


def random_shaping(seed: int, sys: MechanicalSystem, amp: float = 0.4) -> ShapingParams:
    rng = np.random.default_rng(seed)
    ng = sys.dims.n_group
    B = rng.normal(size=(ng, ng))
    sigma = np.eye(ng) + 0.2 * (B + B.T)
    w = np.linalg.eigvalsh(sigma).min()
    if w < 0.3:
        sigma += (0.4 - w) * np.eye(ng)
    return ShapingParams(tau=random_tau(seed + 1, sys.dims, amp), sigma=sigma)


def sm_shaping(seed: int, dims: Dims):
    """System + SM3 shaping satisfying the simplified matching structure."""
    from matchctl.matching import sm3_tau
    sys_, sigma = synthetic_sm_system(seed, dims)
    tau = sm3_tau(sys_, sigma)
    return sys_, ShapingParams(tau=tau, sigma=scalar_sigma_matrix(sys_, sigma))


def random_state(seed: int, dims: Dims, x_max: float = 1.0, v_max: float = 2.0):
    from matchctl.model import State
    rng = np.random.default_rng(seed)
    q = np.concatenate([rng.uniform(-x_max, x_max, dims.n_shape),
                        rng.uniform(-1.0, 1.0, dims.n_group)])
    return State(q=q, qdot=rng.uniform(-v_max, v_max, dims.total))
