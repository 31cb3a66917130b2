import numpy as np
import pytest

from twistcyl.errors import SingularMetric
from twistcyl.geometry import (COVARIANT, CONTRAVARIANT, CylinderGeometry,
                               Metric2, PhysicsParams, Strain2, TwistProfile,
                               da_costa_potential, inverse_metric,
                               metric_from_embedding_fd, metric_from_strain,
                               strain_from_linear_twist, surface_curvatures,
                               twisted_metric, undeformed_metric)


def test_physics_params_validation():
    with pytest.raises(ValueError):
        PhysicsParams(hbar=0.0)
    with pytest.raises(ValueError):
        PhysicsParams(mass=-1.0)
    with pytest.raises(ValueError):
        PhysicsParams(unit_system="cgs")


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


@pytest.mark.parametrize("radius,alpha,expected", [
    (2.0, 0.0, [[0.0, 0.0], [0.0, 0.0]]),
    (2.0, 0.5, [[0.0, 1.0], [1.0, 0.5]]),
    (1.0, 1.0, [[0.0, 0.5], [0.5, 0.5]]),
])
def test_strain_from_linear_twist(radius, alpha, expected):
    eps = strain_from_linear_twist(CylinderGeometry(radius, 1.0), alpha)
    assert np.allclose(eps.as_array(), expected, rtol=0.0, atol=0.0)


def test_metric_from_strain_identity_case():
    geom = CylinderGeometry(2.0, 1.0)
    out = metric_from_strain(undeformed_metric(geom), Strain2(0.0, 0.0, 0.0))
    assert np.array_equal(out.as_array(), np.diag([4.0, 1.0]))


def test_metric_from_strain_twisted_case():
    geom = CylinderGeometry(2.0, 1.0)
    eps = strain_from_linear_twist(geom, 0.5)
    out = metric_from_strain(undeformed_metric(geom), eps)
    assert np.array_equal(out.as_array(), [[4.0, 2.0], [2.0, 2.0]])


def test_metric_from_strain_equals_twisted_metric_everywhere():
    rng = np.random.default_rng(11)
    for _ in range(200):
        geom = CylinderGeometry(rng.uniform(0.1, 5.0), 1.0)
        alpha = rng.uniform(-3.0, 3.0)
        built = metric_from_strain(undeformed_metric(geom),
                                   strain_from_linear_twist(geom, alpha))
        direct = twisted_metric(geom, alpha)
        assert np.array_equal(built.as_array(), direct.as_array())


def test_metric_from_strain_rejects_indefinite():
    geom = CylinderGeometry(1.0, 1.0)
    with pytest.raises(ValueError):
        metric_from_strain(undeformed_metric(geom), Strain2(0.0, 2.0, 0.0))


def test_metric_from_strain_rejects_contravariant_base():
    base = Metric2(1.0, 0.0, 1.0, CONTRAVARIANT)
    with pytest.raises(ValueError):
        metric_from_strain(base, Strain2(0.0, 0.0, 0.0))


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
                                   (0.3, 1.7), step=1e-5)
    assert np.allclose(got.as_array(), [[4.0, 2.0], [2.0, 2.0]], atol=1e-6)


def test_embedding_fd_untwisted_unit_cylinder():
    geom = CylinderGeometry(1.0, 10.0)
    got = metric_from_embedding_fd(geom, TwistProfile.constant(0.0),
                                   (1.0, 2.0), step=1e-5)
    assert np.allclose(got.as_array(), np.eye(2), atol=1e-6)


def test_embedding_fd_linear_ramp():
    geom = CylinderGeometry(1.0, 10.0)
    twist = TwistProfile.linear_ramp(0.3)
    got = metric_from_embedding_fd(geom, twist, (0.0, 2.0), step=1e-5)
    want = twisted_metric(geom, 1.2)  # f(2) = 0.3*2 + 2*0.3
    assert np.allclose(got.as_array(), want.as_array(), atol=1e-6)


def test_embedding_fd_agrees_with_closed_form_sampled():
    rng = np.random.default_rng(16)
    for _ in range(30):
        geom = CylinderGeometry(rng.uniform(0.3, 3.0), 10.0)
        alpha = rng.uniform(-1.5, 1.5)
        z = rng.uniform(0.1, 5.0)
        got = metric_from_embedding_fd(geom, TwistProfile.constant(alpha),
                                       (rng.uniform(0, 2 * np.pi), z),
                                       step=1e-5)
        want = twisted_metric(geom, alpha)
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
    assert not exact.is_constant


def test_twist_profile_constant():
    twist = TwistProfile.constant(0.7)
    assert twist.is_constant and twist.rate == 0.7
    assert twist.theta(3.0) == 0.7 * 3.0
    assert twist.f(3.0) == 0.7
