import math
import random
import warnings
from fractions import Fraction

import numpy as np
import pytest

from twistcyl.errors import SingularMetric
from twistcyl.geometry import (COVARIANT, CONTRAVARIANT, CylinderGeometry,
                               Metric2, PhysicsParams, TwistProfile, _real,
                               da_costa_potential, inverse_metric,
                               metric_from_embedding_fd, metric_from_strain,
                               second_form_from_embedding_fd, square,
                               strain_from_twist, surface_curvatures,
                               twisted_metric, undeformed_metric)


def test_physics_params_validation():
    with pytest.raises(ValueError):
        PhysicsParams(hbar=0.0)
    with pytest.raises(ValueError):
        PhysicsParams(mass=-1.0)
    # NaN compares false with 0, and an infinite mass made hbar^2/2m zero
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="hbar must be positive and fin"):
            PhysicsParams(hbar=bad)
        with pytest.raises(ValueError, match="mass must be positive and fin"):
            PhysicsParams(mass=bad)
    # t = hbar^2/2m past the float range: hbar^2 raised a bare OverflowError,
    # and a subnormal or zero t left every scattering row NaN
    for hbar, mass in ((1e200, 1.0), (1e-200, 1.0), (1.0, 1e-320),
                       (1e-150, 1e10)):
        with pytest.raises(ValueError, match="t = hbar\\^2/\\(2m\\)"):
            PhysicsParams(hbar=hbar, mass=mass)


def test_electron_preset_matches_codata():
    # independent check through scipy's CODATA table
    from scipy import constants
    expected = constants.hbar**2 / (2.0 * constants.m_e) / constants.e * 1e18
    preset = PhysicsParams.electron_nm_ev()
    assert preset.hbar2_over_2m == pytest.approx(0.0380998, abs=1e-12)
    assert abs(preset.hbar2_over_2m - expected) < 1e-6


def test_geometry_validation():
    with pytest.raises(ValueError):
        CylinderGeometry(radius=-1.0, length=1.0)
    with pytest.raises(ValueError):
        CylinderGeometry(radius=1.0, length=0.0)
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="radius must be positive and"):
            CylinderGeometry(radius=bad, length=1.0)
        with pytest.raises(ValueError, match="length must be positive and"):
            CylinderGeometry(radius=1.0, length=bad)


@pytest.mark.parametrize("radius,alpha,expected", [
    (2.0, 0.0, [[0.0, 0.0], [0.0, 0.0]]),
    (2.0, 0.5, [[0.0, 1.0], [1.0, 0.5]]),
    (1.0, 1.0, [[0.0, 0.5], [0.5, 0.5]]),
])
def test_strain_from_linear_twist(radius, alpha, expected):
    eps = strain_from_twist(CylinderGeometry(radius, 1.0), alpha)
    assert np.allclose(eps.as_array(), expected, rtol=0.0, atol=0.0)


def test_metric_from_strain_identity_case():
    geom = CylinderGeometry(2.0, 1.0)
    out = metric_from_strain(undeformed_metric(geom), Metric2(0.0, 0.0, 0.0))
    assert np.array_equal(out.as_array(), np.diag([4.0, 1.0]))


def test_metric_from_strain_twisted_case():
    geom = CylinderGeometry(2.0, 1.0)
    eps = strain_from_twist(geom, 0.5)
    out = metric_from_strain(undeformed_metric(geom), eps)
    assert np.array_equal(out.as_array(), [[4.0, 2.0], [2.0, 2.0]])


def test_metric_from_strain_equals_twisted_metric_everywhere():
    # constant rates one by one, then a ramp's rates at 101 heights as one
    # array, each component bit for bit
    rng = np.random.default_rng(11)
    geom = CylinderGeometry(1.7, 5.0)
    cases = [(geom, TwistProfile.linear_ramp(0.3).f(np.linspace(0, 5, 101)))]
    for _ in range(200):
        cases.append((CylinderGeometry(rng.uniform(0.1, 5.0), 1.0),
                      rng.uniform(-3.0, 3.0)))
    for geom, f in cases:
        built = metric_from_strain(undeformed_metric(geom),
                                   strain_from_twist(geom, f))
        direct = twisted_metric(geom, f)
        for got, want in zip((built.g_pp, built.g_pz, built.g_zz),
                             (direct.g_pp, direct.g_pz, direct.g_zz)):
            assert np.array_equal(got, want)


def test_metric_from_strain_rejects_indefinite():
    geom = CylinderGeometry(1.0, 1.0)
    with pytest.raises(ValueError):
        metric_from_strain(undeformed_metric(geom), Metric2(0.0, 2.0, 0.0))


def test_metric_from_strain_rejects_an_indefinite_node():
    base = undeformed_metric(CylinderGeometry(1.0, 1.0))
    strain = Metric2(0.0, np.array([0.0, 0.25, 2.0]), np.zeros(3))
    with pytest.raises(ValueError, match="not positive definite"):
        metric_from_strain(base, strain)


def test_metric_from_strain_rejects_contravariant_base():
    base = Metric2(1.0, 0.0, 1.0, CONTRAVARIANT)
    with pytest.raises(ValueError):
        metric_from_strain(base, Metric2(0.0, 0.0, 0.0))


def test_metric_from_strain_rejects_contravariant_strain():
    base = undeformed_metric(CylinderGeometry(1.0, 1.0))
    with pytest.raises(ValueError, match="strain must be covariant"):
        metric_from_strain(base, Metric2(0.0, 0.0, 0.0, CONTRAVARIANT))


def test_metric2_rejects_unknown_variance():
    with pytest.raises(ValueError, match="unknown variance 'mixed'"):
        Metric2(1, 0, 1, "mixed")


@pytest.mark.parametrize("radius,f,expected", [
    (2.0, 0.5, [[4.0, 2.0], [2.0, 2.0]]),
    (2.0, 0.0, [[4.0, 0.0], [0.0, 1.0]]),
    (1.0, 3.0, [[1.0, 3.0], [3.0, 10.0]]),
])
def test_twisted_metric_values(radius, f, expected):
    g = twisted_metric(CylinderGeometry(radius, 1.0), f)
    assert np.array_equal(g.as_array(), expected)
    assert g.variance == COVARIANT


def test_twisted_metric_determinant_cancellation():
    # det stays R^2 up to 1e-14 of the magnitude of the cancelled terms
    rng = np.random.default_rng(12)
    for _ in range(500):
        r = rng.uniform(0.05, 10.0)
        f = rng.uniform(-10.0, 10.0)
        g = twisted_metric(CylinderGeometry(r, 1.0), f)
        scale = abs(g.g_pp * g.g_zz) + g.g_pz**2
        assert abs(g.det - r * r) <= 1e-14 * scale


def test_twisted_metric_determinant_relative_moderate_box():
    # R^2 f^2 <= 9: component rounding stays inside a 1e-14 relative budget
    rng = np.random.default_rng(13)
    for _ in range(500):
        r = rng.uniform(0.1, 2.0)
        f = rng.uniform(-1.5, 1.5)
        g = twisted_metric(CylinderGeometry(r, 1.0), f)
        assert abs(g.det - r * r) <= 1e-14 * r * r


@pytest.mark.parametrize("g,expected", [
    ([[4.0, 2.0], [2.0, 2.0]], [[0.5, -0.5], [-0.5, 1.0]]),
    ([[9.0, 0.0], [0.0, 1.0]], [[1.0 / 9.0, 0.0], [0.0, 1.0]]),
    ([[1.0, 3.0], [3.0, 10.0]], [[10.0, -3.0], [-3.0, 1.0]]),
    # the three rows above as one metric over three points
    ([[np.array([4.0, 9.0, 1.0]), np.array([2.0, 0.0, 3.0])],
      [np.array([2.0, 0.0, 3.0]), np.array([2.0, 1.0, 10.0])]],
     [[np.array([0.5, 1.0 / 9.0, 10.0]), np.array([-0.5, 0.0, -3.0])],
      [np.array([-0.5, 0.0, -3.0]), np.array([1.0, 1.0, 1.0])]]),
])
def test_inverse_metric_values(g, expected):
    metric = Metric2(g[0][0], g[0][1], g[1][1], COVARIANT)
    inv = inverse_metric(metric)
    assert inv.variance == CONTRAVARIANT
    assert np.allclose(inv.as_array(), expected, rtol=1e-15, atol=1e-15)


def test_inverse_metric_identity_property():
    rng = np.random.default_rng(14)
    eye = np.eye(2)
    for _ in range(300):
        g = twisted_metric(CylinderGeometry(rng.uniform(0.1, 5.0), 1.0),
                           rng.uniform(-5.0, 5.0))
        assert np.max(np.abs(g.contract(inverse_metric(g)) - eye)) <= 1e-12


def test_inverse_metric_rejects_singular():
    with pytest.raises(SingularMetric):
        inverse_metric(Metric2(1.0, 1.0, 1.0, COVARIANT))


def test_inverse_metric_rejects_a_singular_node():
    g = Metric2(np.ones(3), np.array([0.0, 1.0, 0.5]), np.ones(3), COVARIANT)
    with pytest.raises(SingularMetric, match="0.000e"):
        inverse_metric(g)


def test_inverse_metric_refuses_an_overflowed_or_nan_determinant():
    # g_zz = 1 + 1e320 overflows, so det is NaN: g_pz**2 raised a bare
    # OverflowError there, and a NaN det passed the singular test and gave a
    # NaN inverse
    with pytest.raises(SingularMetric, match="nan"):
        inverse_metric(twisted_metric(CylinderGeometry(1.0, 1.0), 1e160))
    with pytest.raises(SingularMetric, match="nan"):
        inverse_metric(Metric2(math.nan, 0.0, 1.0, COVARIANT))


@pytest.mark.parametrize("radius,f", [
    (1.0, np.array([1e160, 1.0])), (1e100, np.array([1.0, 2.0])),
    (1e100, 1.0),
])
def test_inverse_metric_of_an_overflowed_metric_is_singular(radius, f):
    # the products of det and det_scale overflow (inf - inf at f = 1e160):
    # on an array that raised a bare RuntimeWarning under -W error
    g = twisted_metric(CylinderGeometry(radius, 1.0), f)
    with pytest.raises(SingularMetric, match="nan"):
        inverse_metric(g)


@pytest.mark.parametrize("build", [twisted_metric, strain_from_twist])
def test_overflowed_radius_squared_reads_alike_on_scalar_and_array(build):
    # R^2 = inf times f = 0 is NaN: an array raised a bare RuntimeWarning
    # under -W error where the float gave NaN with no warning
    geom = CylinderGeometry(1e155, 1.0)
    scalar, array = build(geom, 0.0), build(geom, np.array([0.0, 1.0]))
    for name in ("g_pp", "g_pz", "g_zz"):  # NaN matches NaN here
        np.testing.assert_array_equal(getattr(array, name), [
            getattr(scalar, name), getattr(build(geom, 1.0), name)])
    for g in (scalar, array):
        with pytest.raises(SingularMetric):
            inverse_metric(g)


def test_det_scale_is_the_size_of_the_determinants_products():
    assert Metric2(-2.0, 3.0, 5.0, COVARIANT).det_scale == 19.0
    # past the float range it reads inf, with no warning
    assert Metric2(1.0, 1e200, 1.0, COVARIANT).det_scale == math.inf
    g = Metric2(np.ones(2), np.array([1e200, 2.0]), np.ones(2), COVARIANT)
    assert g.det_scale.tolist() == [math.inf, 5.0]


def test_inverse_metric_rejects_contravariant():
    with pytest.raises(ValueError):
        inverse_metric(Metric2(1.0, 0.0, 1.0, CONTRAVARIANT))


def test_contract_requires_opposite_variance():
    g = twisted_metric(CylinderGeometry(1.0, 1.0), 0.5)
    with pytest.raises(ValueError):
        g.contract(g)


def test_surface_curvatures_values():
    curv = surface_curvatures(CylinderGeometry(1.0, 1.0), 0.5)
    assert np.array_equal(curv.second_form.as_array(),
                          [[-1.0, -0.5], [-0.5, -0.25]])
    assert curv.gaussian == 0.0
    assert curv.mean == 0.5


@pytest.mark.parametrize("f", [0.0, 0.5, 7.0, -4.0])
def test_surface_curvatures_twist_invariant(f):
    curv = surface_curvatures(CylinderGeometry(2.0, 1.0), f)
    assert curv.gaussian == 0.0
    assert abs(curv.mean - 0.25) <= 1e-14


def test_curvatures_consistent_with_forms():
    # K = det h / det g and M = tr(g^-1 h)/2 recover the closed forms
    rng = np.random.default_rng(15)
    for _ in range(100):
        r = rng.uniform(0.2, 4.0)
        f = rng.uniform(-3.0, 3.0)
        geom = CylinderGeometry(r, 1.0)
        g = twisted_metric(geom, f)
        curv = surface_curvatures(geom, f)
        h = curv.second_form
        assert abs(h.det / g.det - curv.gaussian) <= 1e-12
        mixed = inverse_metric(g).contract(h)
        assert abs(0.5 * abs(np.trace(mixed)) - curv.mean) <= 1e-12


@pytest.mark.parametrize("radius,expected", [(1.0, -0.125), (2.0, -0.03125)])
def test_da_costa_potential_values(radius, expected):
    curv = surface_curvatures(CylinderGeometry(radius, 1.0), 0.0)
    assert da_costa_potential(curv, PhysicsParams()) == pytest.approx(
        expected, abs=1e-16)


def test_da_costa_potential_twist_invariant():
    phys = PhysicsParams()
    geom = CylinderGeometry(1.0, 1.0)
    base = da_costa_potential(surface_curvatures(geom, 0.0), phys)
    for f in (0.3, 1.0, 7.0):
        assert da_costa_potential(surface_curvatures(geom, f), phys) == base
    assert base == -0.125


def test_embedding_fd_constant_twist():
    geom = CylinderGeometry(2.0, 10.0)
    got = metric_from_embedding_fd(geom, TwistProfile.constant(0.5),
                                   (0.3, 1.7))
    assert np.allclose(got.as_array(), [[4.0, 2.0], [2.0, 2.0]], atol=1e-6)


def test_embedding_fd_untwisted_unit_cylinder():
    geom = CylinderGeometry(1.0, 10.0)
    got = metric_from_embedding_fd(geom, TwistProfile.constant(0.0),
                                   (1.0, 2.0))
    assert np.allclose(got.as_array(), np.eye(2), atol=1e-6)


def test_embedding_fd_linear_ramp():
    geom = CylinderGeometry(1.0, 10.0)
    twist = TwistProfile.linear_ramp(0.3)
    got = metric_from_embedding_fd(geom, twist, (0.0, 2.0))
    want = twisted_metric(geom, 1.2)  # f(2) = 0.3*2 + 2*0.3
    assert np.allclose(got.as_array(), want.as_array(), atol=1e-6)


def test_embedding_fd_agrees_with_closed_form_sampled():
    rng = np.random.default_rng(16)
    for _ in range(30):
        geom = CylinderGeometry(rng.uniform(0.3, 3.0), 10.0)
        alpha = rng.uniform(-1.5, 1.5)
        z = rng.uniform(0.1, 5.0)
        got = metric_from_embedding_fd(geom, TwistProfile.constant(alpha),
                                       (rng.uniform(0, 2 * np.pi), z))
        want = twisted_metric(geom, alpha)
        assert np.max(np.abs(got.as_array() - want.as_array())) <= 1e-6


def test_second_form_fd_agrees_with_closed_form_sampled():
    # h_ij = r_ij . n from second differences of the embedding, for constant
    # and ramp twists, against surface_curvatures' closed form
    rng = np.random.default_rng(17)
    for i in range(30):
        geom = CylinderGeometry(rng.uniform(0.3, 3.0), 10.0)
        a = rng.uniform(-1.5, 1.5)
        twist = (TwistProfile.constant(a) if i % 2
                 else TwistProfile.linear_ramp(a / 5.0))
        z = rng.uniform(0.1, 5.0)
        got = second_form_from_embedding_fd(geom, twist,
                                            (rng.uniform(0, 2 * np.pi), z))
        want = surface_curvatures(geom, twist.f(z)).second_form
        assert np.max(np.abs(got.as_array() - want.as_array())) <= 1e-6


def test_twist_profile_fd_derivative_fallback():
    # only theta supplied: f is its centred difference, vectorised over the
    # heights
    z = np.linspace(0.0, 5.0, 501)
    twist = TwistProfile.profiled(lambda x: 0.3 * x + 0.2 * x * np.sin(x))
    f = 0.3 + 0.2 * np.sin(z) + 0.2 * z * np.cos(z)
    assert np.max(np.abs(twist.f(z) - f)) <= 1e-9
    assert twist.f(2.0) == pytest.approx(f[200], abs=1e-9)
    exact = TwistProfile.profiled(lambda x: 0.3 * x * x, f=lambda x: 0.6 * x)
    assert exact.f(2.0) == 1.2


def test_twist_profile_constant():
    twist = TwistProfile.constant(0.7)
    assert twist.theta(3.0) == 0.7 * 3.0
    assert twist.f(3.0) == 0.7


def test_linear_ramp_rate_does_not_overflow():
    # f = a0 (2 z): 2 a0 alone would overflow to inf for a0 = 1e308
    twist = TwistProfile.linear_ramp(1e308)
    assert twist.f(0.0) == 0.0
    assert twist.f(0.3) == 1e308 * 0.6
    assert np.isfinite(twist.f(0.3))


def _exact_square(x):
    """x^2 computed exactly in rationals and rounded once; inf past the
    float range, where ``float`` of the rational raises."""
    try:
        return float(Fraction(x) ** 2)
    except OverflowError:
        return math.inf


def test_square_is_the_correctly_rounded_square():
    # random bit patterns cover every exponent, subnormals included; the
    # exact square rounded to nearest, bit for bit, and inf past the range,
    # with no warning, for a scalar and for each element of an array
    rng = random.Random(29)
    xs = np.array([rng.getrandbits(64) for _ in range(20000)],
                  dtype=np.uint64).view(np.float64)
    xs = xs[np.isfinite(xs)].tolist()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        scalars = np.array([square(x) for x in xs])
        array = square(np.array(xs))
    expected = np.array([_exact_square(x) for x in xs])
    assert np.isinf(expected).sum() > 1000
    assert np.array_equal(scalars.view(np.int64), expected.view(np.int64))
    assert np.array_equal(array.view(np.int64), expected.view(np.int64))


def test_square_of_an_int_of_any_size():
    # an int's own square past the float range cannot convert to a float
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert square(-3) == 9.0
        assert square(2**26) == 2.0**52
        for big in (10**200, 2**1024, -10**400):
            assert square(big) == math.inf
        assert square(np.array([-3, 2**26])).tolist() == [9.0, 2.0**52]


def test_real_reads_an_int_past_the_float_range_as_inf():
    assert _real(10**200) == 1e200
    assert type(_real(3)) is float and _real(3) == 3.0
    assert _real(2.5) == 2.5
    assert (_real(10**400), _real(-10**400)) == (math.inf, -math.inf)


def test_huge_rate_gives_infinite_components():
    # f**2 of a Python float raised a bare OverflowError at f = 1e200, and
    # (1/(2R))**2 at R = 1e-160
    geom = CylinderGeometry(1.0, 1.0)
    g = twisted_metric(geom, 1e200)
    assert (g.g_pp, g.g_pz, g.g_zz) == (1.0, 1e200, math.inf)
    h = surface_curvatures(geom, 1e200).second_form
    assert (h.g_pp, h.g_pz, h.g_zz) == (-1.0, -1e200, -math.inf)
    eps = strain_from_twist(geom, 1e200)
    assert (eps.g_pp, eps.g_pz, eps.g_zz) == (0.0, 5e199, math.inf)
    tiny = surface_curvatures(CylinderGeometry(1e-160, 1.0), 0.0)
    assert da_costa_potential(tiny, PhysicsParams()) == -math.inf


def test_overflowed_second_form_reads_alike_on_scalar_and_array():
    # -R f past the float range: an array raised a bare RuntimeWarning under
    # -W error where a float rate gave -inf with no warning
    geom = CylinderGeometry(1e200, 1.0)
    array = surface_curvatures(geom, np.array([1e200, 1.0])).second_form
    scalars = [surface_curvatures(geom, f).second_form for f in (1e200, 1.0)]
    for name in ("g_pz", "g_zz"):
        np.testing.assert_array_equal(
            getattr(array, name), [getattr(h, name) for h in scalars])
    assert array.g_zz.tolist() == [-math.inf, -1e200]
