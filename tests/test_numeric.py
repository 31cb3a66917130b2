import numpy as np
import pytest

from twistcyl.errors import NoPropagatingChannel, QuadratureFailure
from twistcyl.geometry import CylinderGeometry, PhysicsParams, TwistProfile
from twistcyl.numeric import (FDGrid, fd_bound_spectrum, fd_eigenpairs,
                              integrate_adaptive, ode_transmission_oracle)
from twistcyl.scattering import ScatteringScenario, solve_scattering
from twistcyl.spectrum import (ModeNumbers, eigenenergy,
                               no_bound_states_below, twist_phase)

PHYS = PhysicsParams()
GEOM = CylinderGeometry(radius=1.0, length=1.0)


# --- adaptive quadrature -----------------------------------------------------

@pytest.mark.parametrize("f,a,b,expected", [
    (lambda x: x, 0.0, 1.0, 0.5),
    (np.sin, 0.0, np.pi, 2.0),
    (lambda x: 0.6 * x, 0.0, 2.0, 1.2),
])
def test_quadrature_knowns(f, a, b, expected):
    assert integrate_adaptive(f, a, b, tol=1e-10) == pytest.approx(
        expected, abs=1e-10)


def test_quadrature_oscillatory():
    got = integrate_adaptive(lambda x: np.sin(40.0 * x), 0.0, 1.0, tol=1e-12)
    assert got == pytest.approx((1.0 - np.cos(40.0)) / 40.0, abs=1e-10)


def test_quadrature_reversed_interval():
    assert integrate_adaptive(lambda x: x, 1.0, 0.0) == pytest.approx(
        -0.5, abs=1e-12)


def test_quadrature_depth_limit():
    with pytest.raises(QuadratureFailure):
        integrate_adaptive(lambda x: np.sin(1.0 / (x + 1e-12)), 0.0, 1.0,
                           tol=1e-14, max_depth=6)


# --- finite-difference eigensolver -------------------------------------------

def test_fd_grid_contract():
    grid = FDGrid(99)
    assert grid.spacing(1.0) == pytest.approx(0.01, abs=1e-15)
    assert grid.nodes(1.0)[0] == pytest.approx(0.01, abs=1e-15)
    with pytest.raises(ValueError):
        FDGrid(8)


def test_fd_spectrum_matches_closed_form():
    vals = fd_bound_spectrum(0, GEOM, TwistProfile.constant(0.0), PHYS,
                             FDGrid(2000), 3)
    for n, val in zip((1, 2, 3), vals):
        exact = eigenenergy(ModeNumbers(l=0, n=n), GEOM, PHYS)
        assert abs(val - exact) / abs(exact) <= 1e-6


def test_fd_spectrum_twist_invariant_constant():
    base = fd_bound_spectrum(1, GEOM, TwistProfile.constant(0.0), PHYS,
                             FDGrid(2000), 3)
    twisted = fd_bound_spectrum(1, GEOM, TwistProfile.constant(0.7), PHYS,
                                FDGrid(2000), 3)
    assert np.max(np.abs(twisted - base) / np.abs(base)) <= 1e-6


def test_fd_spectrum_twist_invariant_profiled():
    base = fd_bound_spectrum(1, GEOM, TwistProfile.constant(0.0), PHYS,
                             FDGrid(2000), 3)
    ramp = fd_bound_spectrum(1, GEOM, TwistProfile.linear_ramp(0.3), PHYS,
                             FDGrid(2000), 3)
    assert np.max(np.abs(ramp - base) / np.abs(base)) <= 1e-6


def test_fd_with_twist_matches_twistless_closed_form():
    # the closed form takes no twist argument; the FD operator carries the
    # full twist terms and still lands on the same numbers
    for twist in (TwistProfile.constant(0.7), TwistProfile.linear_ramp(0.3)):
        vals = fd_bound_spectrum(2, GEOM, twist, PHYS, FDGrid(2000), 3)
        for n, val in zip((1, 2, 3), vals):
            exact = eigenenergy(ModeNumbers(l=2, n=n), GEOM, PHYS)
            assert abs(val - exact) / abs(exact) <= 1e-6


def test_fd_eigenvalues_real_despite_complex_matrix():
    for twist in (TwistProfile.constant(0.8), TwistProfile.linear_ramp(0.3)):
        n1, n2 = 1000, 2000
        v1, _, _ = fd_eigenpairs(1, GEOM, twist, PHYS, n1, 3)
        v2, _, _ = fd_eigenpairs(1, GEOM, twist, PHYS, n2, 3)
        h1, h2 = 1.0 / (n1 + 1), 1.0 / (n2 + 1)
        lam = (h1**2 * v2 - h2**2 * v1) / (h1**2 - h2**2)
        assert np.max(np.abs(lam.imag) / np.maximum(1.0, np.abs(lam))) <= 1e-9


def test_fd_error_scales_as_h_squared():
    exact = eigenenergy(ModeNumbers(l=0, n=1), GEOM, PHYS)
    twist = TwistProfile.constant(0.0)
    coarse, _, _ = fd_eigenpairs(0, GEOM, twist, PHYS, 200, 1)
    fine, _, _ = fd_eigenpairs(0, GEOM, twist, PHYS, 401, 1)  # h exactly halved
    ratio = abs(coarse[0].real - exact) / abs(fine[0].real - exact)
    assert ratio >= 3.5


def test_fd_eigenvector_phase_tracks_twist_integral():
    for twist in (TwistProfile.constant(0.5), TwistProfile.linear_ramp(0.3)):
        _, vecs, z = fd_eigenpairs(1, GEOM, twist, PHYS, 2000, 1)
        theta = np.array([twist_phase(twist, 1, zi) for zi in z])
        drift = np.unwrap(np.angle(vecs[:, 0]) - theta)
        assert drift.max() - drift.min() <= 1e-4


def test_fd_no_eigenvalue_below_star_potential():
    for l in (0, 1, 2):
        floor = no_bound_states_below(ModeNumbers(l=l), GEOM, PHYS)
        vals = fd_bound_spectrum(l, GEOM, TwistProfile.constant(0.6), PHYS,
                                 FDGrid(800), 4)
        assert np.min(vals) > floor


def test_fd_rejects_coarse_grid():
    with pytest.raises(ValueError):
        fd_bound_spectrum(0, GEOM, TwistProfile.constant(0.0), PHYS,
                          FDGrid(16), 3)


# --- ODE transmission oracle -------------------------------------------------

def test_ode_oracle_embedded_transparent():
    scenario = ScatteringScenario.embedded(GEOM, 0.9, 1, PHYS)
    t, r = ode_transmission_oracle(2.0, scenario)
    assert abs(t - 1.0) <= 1e-8
    assert r <= 1e-8


def test_ode_oracle_free_resonance():
    scenario = ScatteringScenario.free(GEOM, 0.4, 0, PHYS)
    t, _ = ode_transmission_oracle(np.pi**2 / 2.0 - 0.125, scenario)
    assert abs(t - 1.0) <= 1e-7


def test_ode_oracle_rejects_closed_channel():
    scenario = ScatteringScenario.embedded(GEOM, 0.0, 1, PHYS)
    with pytest.raises(NoPropagatingChannel):
        ode_transmission_oracle(0.1, scenario)


def test_ode_oracle_agrees_with_closed_form():
    rng = np.random.default_rng(32)
    for i in range(50):
        geom = CylinderGeometry(rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0))
        l = int(rng.integers(0, 3))
        alpha = rng.uniform(0.0, 1.5)
        maker = (ScatteringScenario.embedded if i % 2 == 0
                 else ScatteringScenario.free)
        scenario = maker(geom, alpha, l, PHYS)
        energy = scenario.outside_threshold + rng.uniform(0.05, 6.0)
        if abs(energy - scenario.inside_threshold) < 1e-6:
            energy += 1e-3
        sol = solve_scattering(energy, scenario)
        t_ode, r_ode = ode_transmission_oracle(energy, scenario)
        assert abs(sol.transmission - t_ode) <= 1e-8
        assert abs(sol.reflection - r_ode) <= 1e-8


def test_ode_oracle_tunneling_regime():
    # free particle below the inside threshold: decaying region-II solution
    scenario = ScatteringScenario.free(GEOM, 0.6, 1, PHYS)
    energy = 0.2  # below V* = 0.375, above the free threshold 0
    sol = solve_scattering(energy, scenario)
    t_ode, r_ode = ode_transmission_oracle(energy, scenario)
    assert 0.0 < sol.transmission < 1.0
    assert abs(sol.transmission - t_ode) <= 1e-8
    assert abs(sol.reflection - r_ode) <= 1e-8
