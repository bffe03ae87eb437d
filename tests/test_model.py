import numpy as np
import pytest

import matchctl.fields as fl
from conftest import free_particle
from matchctl.fields import SmoothField
from matchctl.jets import Jet2, cos, jet_vars
from matchctl.model import (CartpoleParams, DimensionError, Dims, InclineParams, State,
                            build_mechanical_system, cartpole_system, incline_system,
                            synthetic_sm_system, validate_system)


def test_dims_and_state_validation():
    with pytest.raises(DimensionError):
        Dims(0, 1)
    with pytest.raises(DimensionError):
        State(q=[1.0, 2.0], qdot=[1.0])
    assert Dims(2, 1).total == 3


def test_cartpole_param_arithmetic(reference_params):
    p = reference_params
    assert p.alpha == pytest.approx(0.0064715)
    assert p.beta == pytest.approx(0.0301)
    assert p.gamma == pytest.approx(0.58)
    assert p.d == pytest.approx(-0.295281)
    with pytest.raises(ValueError):
        CartpoleParams(m=-1.0)


@pytest.mark.parametrize("params, field", [
    (CartpoleParams, name) for name in ("m", "M", "l", "grav")
] + [(InclineParams, name) for name in ("m", "M", "l", "grav", "psi")])
def test_non_finite_params_raise(params, field):
    for value in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match=f"^{field} must be"):
            params(**{field: value})


def test_cartpole_metric_at_zero(reference_params, cartpole):
    p = reference_params
    g = cartpole.metric(np.array([0.0]))
    assert np.allclose(g, [[p.alpha, p.beta], [p.beta, p.gamma]])
    det = p.alpha * p.gamma - p.beta ** 2
    assert det == pytest.approx(0.00284746, abs=1e-8)
    assert np.linalg.eigvalsh(g).min() > 0


def test_cartpole_det_positive_everywhere(reference_params, cartpole):
    p = reference_params
    for x in np.linspace(-np.pi, np.pi, 41):
        g = cartpole.metric(np.array([x]))
        assert np.linalg.det(g) == pytest.approx(
            p.alpha * p.gamma - p.beta ** 2 * np.cos(x) ** 2, rel=1e-12)
        assert np.linalg.det(g) > 0


def test_incline_zero_angle_reduces_to_cartpole(reference_params, cartpole):
    flat = incline_system(InclineParams(psi=0.0))
    assert not flat.breaks_group_symmetry
    for x in (-0.7, 0.0, 1.1):
        assert np.allclose(flat.metric(np.array([x])), cartpole.metric(np.array([x])))
        q = np.array([x, 0.3])
        assert flat.V_value(q) == pytest.approx(cartpole.V_value(q))


def _bits(v) -> bytes | tuple:
    """The bytes of a float, an array or a jet's value, gradient and Hessian,
    so that equal bits are equal floats with their signs of zero."""
    if isinstance(v, Jet2):
        return _bits(v.f), _bits(v.g), _bits(v.h)
    return np.asarray(v, dtype=float).tobytes()


@pytest.mark.parametrize("p", [CartpoleParams(), InclineParams(m=0.3, M=1.7, l=0.4, psi=0.3)],
                         ids=["cartpole", "incline-psi-ignored"])
def test_cartpole_system_is_its_written_out_fields_bit_for_bit(p):
    # the cart-pole is built as the incline at psi = 0; these are its own
    # fields, alpha, beta cos x, gamma and V = -d cos x, written out
    be, d = float(p.beta), float(p.d)
    own = [fl.constant(p.alpha, 1), SmoothField(1, lambda u: be * cos(u[0])),
           fl.constant(p.gamma, 1), SmoothField(2, lambda u: -d * cos(u[0]))]
    sys_ = cartpole_system(p)
    built = [sys_.g_ss[0][0], sys_.g_sg[0][0], sys_.g_gg[0][0], sys_.V]
    assert not sys_.breaks_group_symmetry
    assert [(f.arity, f.const, f.support) for f in built] == \
        [(f.arity, f.const, f.support) for f in own]
    rng = np.random.default_rng(38)
    x = rng.uniform(-7.0, 7.0, 1000)
    s = rng.standard_normal(1000) * 10.0 ** rng.integers(-300, 300, 1000)
    x[:4], s[:8] = [0.0, -0.0, np.pi / 2, -np.pi], [0.0, -0.0, 1e308, -1e308, 5e-324,
                                                     -5e-324, 1.0, -1.0]
    for mine, theirs in zip(built, own):
        cut = slice(None, mine.arity)
        for u in zip(x.tolist(), s.tolist()):                    # one float point
            assert _bits(mine.fn(list(u[cut]))) == _bits(theirs.fn(list(u[cut]))), u
        seeds = jet_vars([x, s])                                 # N points, then jets
        assert _bits(mine.fn([x, s][cut])) == _bits(theirs.fn([x, s][cut]))
        assert _bits(mine.eval_jet(seeds[cut])) == _bits(theirs.eval_jet(seeds[cut]))
        for u in zip(x.tolist(), s.tolist()):                    # jets at one point
            seeds = jet_vars(u)
            assert _bits(mine.eval_jet(seeds[cut])) == _bits(theirs.eval_jet(seeds[cut])), u


def test_incline_potential_slope(incline_params):
    sys_ = incline_system(incline_params)
    assert sys_.breaks_group_symmetry
    dV = sys_.V_d1(np.array([0.4, 1.7]))
    assert dV[1] == pytest.approx(-0.58 * 9.81 * np.sin(0.3), abs=1e-12)
    assert dV[1] == pytest.approx(-1.681451, abs=1e-4)


def test_incline_group_block_constant(incline_params):
    sys_ = incline_system(incline_params)
    for x in np.linspace(-1.2, 1.2, 7):
        assert sys_.ggg(np.array([x]))[0, 0] == incline_params.gamma
        assert sys_.g_gg[0][0].d1(np.array([x]))[0] == 0.0


def test_build_rejects_bad_blocks():
    dims = Dims(1, 1)
    x = fl.coordinate(0, 1)
    good = [[fl.constant(1.0, 1)]]
    with pytest.raises(DimensionError):
        build_mechanical_system(dims, [[fl.constant(1.0, 1), fl.constant(0.0, 1)]],
                                good, good, fl.constant(0.0, 2))
    ns2 = Dims(2, 1)
    eye = [[fl.constant(1.0, 2), fl.constant(0.0, 2)],
           [fl.constant(0.3, 2), fl.constant(1.0, 2)]]   # not symmetric
    with pytest.raises(ValueError, match="non-symmetric"):
        build_mechanical_system(ns2, eye,
                                [[fl.constant(0.0, 2)], [fl.constant(0.0, 2)]],
                                [[fl.constant(1.0, 2)]], fl.constant(0.0, 3))
    with pytest.raises(DimensionError, match="arity"):
        build_mechanical_system(dims, [[fl.constant(1.0, 2)]], good, good,
                                fl.constant(0.0, 2))


def test_free_particle_validates_clean():
    rep = validate_system(free_particle(), n_samples=5)
    assert rep.overall_pass
    assert rep.value("block_symmetry") == 0.0
    assert rep.value("derivative_consistency") == 0.0


def test_random_coupled_system_positive_definite():
    # one shape dim, two group dims, x-dependent couplings
    dims = Dims(1, 2)
    x = fl.coordinate(0, 1)
    rng = np.random.default_rng(7)
    B = rng.normal(size=(2, 2))
    gg0 = np.eye(2) + 0.2 * (B + B.T) + np.diag([0.5, 0.3])
    g_gg = [[fl.constant(gg0[a, b], 1) for b in range(2)] for a in range(2)]
    g_sg = [[0.35 * fl.sin_of(x), 0.35 * fl.cos_of(x)]]
    g_ss = [[fl.constant(2.0, 1)]]
    sys_ = build_mechanical_system(dims, g_ss, g_sg, g_gg, fl.constant(0.0, 3))
    # eigenvalue oracle at 20 sample x
    for x0 in np.linspace(-1.3, 1.3, 20):
        assert np.linalg.eigvalsh(sys_.metric(np.array([x0]))).min() > 0
    assert validate_system(sys_, n_samples=10).overall_pass


def test_validate_flags_negative_metric():
    dims = Dims(1, 1)
    sys_ = build_mechanical_system(
        dims, [[fl.constant(-1.0, 1)]], [[fl.constant(0.0, 1)]],
        [[fl.constant(1.0, 1)]], fl.constant(0.0, 2))
    rep = validate_system(sys_, n_samples=3)
    assert not rep.overall_pass
    entry = rep.entry("metric_min_eigenvalue")
    assert not entry.passed and entry.value < 0


def test_validate_flags_nan_metric():
    # g_sg = x * NaN: a NaN fails every entry that reads the metric
    x = fl.coordinate(0, 1)
    sys_ = build_mechanical_system(
        Dims(1, 1), [[fl.constant(1.0, 1)]], [[float("nan") * x]],
        [[fl.constant(1.0, 1)]], fl.constant(0.0, 2))
    rep = validate_system(sys_, n_samples=5)
    assert not rep.overall_pass
    failed = {e.name for e in rep.entries if not e.passed}
    assert failed == {"block_symmetry", "metric_min_eigenvalue", "derivative_consistency"}
    assert rep.entry("group_symmetry").passed
    assert all(e.raw is None for e in rep.entries)


def test_validate_cartpole(cartpole):
    rep = validate_system(cartpole, n_samples=25, x_range=(-1.3, 1.3))
    assert rep.overall_pass
    assert rep.entry("metric_min_eigenvalue").value > 0
    assert rep.value("group_symmetry") == 0.0


def test_validate_requires_samples(cartpole):
    with pytest.raises(ValueError):
        validate_system(cartpole, n_samples=0)


@pytest.mark.parametrize("dims", [Dims(1, 1), Dims(1, 2), Dims(2, 1)])
def test_synthetic_sm_system_valid(dims):
    sys_, sigma = synthetic_sm_system(3, dims)
    assert sigma > 0
    rep = validate_system(sys_, n_samples=10, x_range=(-1.0, 1.0))
    assert rep.overall_pass


def test_array_float_pass_is_one_point_calls_bit_for_bit():
    # a float pass over N points calls a field's `fn` on float arrays, where
    # `**` is numpy's power, not libm's (they differ at about 0.07% of
    # inputs); a shipped field that squares a coordinate does it by
    # `jets._power`, which maps libm's over the elements, so the array pass
    # gives every point the floats of its one-point call.  The incline's
    # extra potential squares both coordinates; 5,000 points of it differ at
    # several points under numpy's power.
    from matchctl.control import GainSelection, incline_shaping
    from matchctl.matching import new_tau_closed_form

    rng = np.random.default_rng(7)
    fields = {}
    for sys_ in (cartpole_system(CartpoleParams()), incline_system(InclineParams(psi=0.3)),
                 synthetic_sm_system(1, Dims(1, 2))[0]):
        blocks = (sys_.g_ss, sys_.g_sg, sys_.g_gg)
        found = [f for block in blocks for row in block for f in row] + [sys_.V]
        if sys_.dims.n_group == 1:
            found.append(new_tau_closed_form(sys_, 35.0))
        fields.update((id(f), f) for f in found if f.const is None)
    assert len(fields) == 10
    inputs = [(f, rng.uniform(-1.3, 1.3, size=(f.arity, 500))) for f in fields.values()]
    veps = incline_shaping(InclineParams(psi=0.3),
                           GainSelection(k=35.0, rho=2.0, c=6.0, s0=0.1)).epsilon_potential
    inputs.append((veps, rng.uniform([[-1.0], [-3.0]], [[1.0], [3.0]], size=(2, 5000))))
    for f, pts in inputs:
        batch = np.asarray(f.fn(list(pts)), dtype=float)
        one = np.array([f.value(pts[:, i]) for i in range(pts.shape[1])])
        differ = np.flatnonzero(batch.view(np.int64) != one.view(np.int64))
        assert differ.size == 0, f"{differ.size} points differ, first at {pts[:, differ[0]]}"
