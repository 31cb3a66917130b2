import numpy as np
import pytest

from twistcyl.geometry import CylinderGeometry, PhysicsParams, TwistProfile
from twistcyl.spectrum import (ModeNumbers, bound_wavefunction,
                               effective_potential, eigenenergy,
                               gauge_potential_star, list_bound_states,
                               no_bound_states_below, twist_phase)

PHYS = PhysicsParams()
GEOM = CylinderGeometry(radius=1.0, length=1.0)


def test_mode_numbers_validation():
    with pytest.raises(ValueError):
        ModeNumbers(l=0, n=0)
    with pytest.raises(ValueError):
        ModeNumbers(l=0.5, n=1)
    assert ModeNumbers(l=-3).n == 1


@pytest.mark.parametrize("l,alpha,expected", [
    (1, 0.5, 0.5),      # g_zz = 1.25
    (0, 0.0, -0.125),
    (0, 2.7, -0.125),   # centrifugal term absent for l = 0
    (1, 0.0, 0.375),
])
def test_effective_potential_values(l, alpha, expected):
    got = effective_potential(ModeNumbers(l=l), GEOM, alpha, PHYS)
    assert got == pytest.approx(expected, abs=1e-15)


@pytest.mark.parametrize("l,radius,expected", [
    (0, 1.0, -0.125),
    (1, 1.0, 0.375),
    (2, 2.0, 0.46875),
])
def test_gauge_potential_star_values(l, radius, expected):
    geom = CylinderGeometry(radius, 1.0)
    assert gauge_potential_star(ModeNumbers(l=l), geom, PHYS) == pytest.approx(
        expected, abs=1e-15)


def test_gauge_potential_star_equals_untwisted_effective_potential():
    for l in (0, 1, 3):
        star = gauge_potential_star(ModeNumbers(l=l), GEOM, PHYS)
        raw = effective_potential(ModeNumbers(l=l), GEOM, 0.0, PHYS)
        assert star == pytest.approx(raw, abs=1e-15)


def test_eigenenergy_values():
    assert eigenenergy(ModeNumbers(l=0, n=1), GEOM, PHYS) == pytest.approx(
        np.pi**2 / 2.0 - 0.125, abs=1e-12)
    assert eigenenergy(ModeNumbers(l=1, n=1), GEOM, PHYS) == pytest.approx(
        np.pi**2 / 2.0 + 0.375, abs=1e-12)


def test_eigenenergy_wide_cylinder_is_plain_box():
    geom = CylinderGeometry(radius=1e6, length=1.0)
    got = eigenenergy(ModeNumbers(l=0, n=2), geom, PHYS)
    assert abs(got - 2.0 * np.pi**2) <= 1e-10


def test_eigenenergy_wire_limit_monotone():
    # the box term fades as L grows, leaving the ring spectrum
    mode = ModeNumbers(l=2, n=1)
    wire = gauge_potential_star(mode, GEOM, PHYS)
    gaps = []
    for length in (1.0, 10.0, 100.0, 1000.0):
        geom = CylinderGeometry(1.0, length)
        gaps.append(abs(eigenenergy(mode, geom, PHYS)
                        - gauge_potential_star(mode, geom, PHYS)))
    assert all(a > b for a, b in zip(gaps, gaps[1:]))
    assert gaps[-1] < 1e-4 and wire == 1.875


def test_ground_state_is_n1_l0():
    ground = eigenenergy(ModeNumbers(l=0, n=1), GEOM, PHYS)
    for n in range(1, 6):
        for l in range(-5, 6):
            if (n, l) != (1, 0):
                assert eigenenergy(ModeNumbers(l=l, n=n), GEOM, PHYS) > ground


def test_no_bound_states_below_matches_star_potential():
    for l in (0, 1, 2):
        mode = ModeNumbers(l=l)
        assert no_bound_states_below(mode, GEOM, PHYS) == gauge_potential_star(
            mode, GEOM, PHYS)
    # every closed-form level clears the floor
    assert eigenenergy(ModeNumbers(l=0, n=1), GEOM, PHYS) > \
        no_bound_states_below(ModeNumbers(l=0), GEOM, PHYS)


def test_twist_phase_constant():
    assert twist_phase(TwistProfile.constant(0.5), 2, 3.0) == 3.0
    assert twist_phase(TwistProfile.constant(0.9), 0, 5.0) == 0.0


def test_twist_phase_linear_ramp():
    # f = 0.6 z, so the phase is l * 0.3 z^2
    got = twist_phase(TwistProfile.linear_ramp(0.3), 1, 2.0)
    assert got == pytest.approx(1.2, abs=1e-15)


@pytest.mark.parametrize("l", [1, -2, 3])
def test_linear_ramp_phase_is_exact_on_wavefunction_grid(l):
    # the phase is l theta(z) with theta = a0 z^2, bit for bit
    a0 = 0.3
    twist = TwistProfile.linear_ramp(a0)
    mode = ModeNumbers(l=l, n=2)
    sample = bound_wavefunction(mode, GEOM, twist, PHYS, (8, 129))
    z = sample.z
    phase = l * (a0 * z * z)
    assert np.array_equal(twist_phase(twist, l, z), phase)
    # at phi = 0 the untwisted state is its real amplitude, bit for bit
    amp = bound_wavefunction(mode, GEOM, TwistProfile.constant(0.0), PHYS,
                             (8, 129)).values[0].real
    assert np.array_equal(sample.values[0], amp * np.exp(1j * phase))


def test_twist_phase_profiled_matches_constant():
    const = TwistProfile.constant(0.8)
    prof = TwistProfile.profiled(lambda z: 0.8 * z)
    for z in (0.3, 1.0, 2.7):
        assert abs(twist_phase(prof, 3, z) - twist_phase(const, 3, z)) <= 1e-12
    assert prof.f(2.7) == pytest.approx(0.8, abs=1e-10)


def test_wavefunction_boundary_zeros_exact():
    sample = bound_wavefunction(ModeNumbers(l=1, n=3), GEOM,
                                TwistProfile.constant(0.5), PHYS, (32, 33))
    assert np.all(sample.values[:, 0] == 0.0)
    assert np.all(sample.values[:, -1] == 0.0)


def test_wavefunction_l0_real_and_peaked_at_center():
    sample = bound_wavefunction(ModeNumbers(l=0, n=1), GEOM,
                                TwistProfile.constant(0.9), PHYS, (16, 65))
    assert np.max(np.abs(sample.values.imag)) == 0.0
    dens = sample.density()
    assert np.argmax(dens[0, :]) == 32  # z = L/2


def test_wavefunction_density_twist_free():
    mode = ModeNumbers(l=1, n=1)
    ref = bound_wavefunction(mode, GEOM, TwistProfile.constant(0.0), PHYS,
                             (64, 64)).density()
    for twist in (TwistProfile.constant(0.5), TwistProfile.linear_ramp(0.3)):
        dens = bound_wavefunction(mode, GEOM, twist, PHYS, (64, 64)).density()
        assert np.max(np.abs(dens - ref)) <= 1e-14


def test_wavefunction_normalization():
    for mode in (ModeNumbers(l=0, n=1), ModeNumbers(l=2, n=3)):
        sample = bound_wavefunction(mode, GEOM, TwistProfile.constant(0.7),
                                    PHYS, (400, 400))
        assert abs(sample.norm() - 1.0) <= 1e-6


def test_wavefunction_carries_twist_phase():
    twist = TwistProfile.constant(0.5)
    mode = ModeNumbers(l=2, n=1)
    sample = bound_wavefunction(mode, GEOM, twist, PHYS, (8, 33))
    j = 16  # interior node, sin > 0
    expected = np.exp(1j * (mode.l * sample.phi[3]
                            + twist_phase(twist, mode.l, sample.z[j])))
    got = sample.values[3, j] / np.abs(sample.values[3, j])
    assert abs(got - expected) <= 1e-12


def test_list_bound_states_ordering():
    states = list_bound_states(GEOM, PHYS, n_max=3, l_max=2)
    assert len(states) == 15
    energies = [e for _, e in states]
    assert energies == sorted(energies)
    assert states[0][0] == ModeNumbers(l=0, n=1)
    assert energies[0] == pytest.approx(4.80980220054, abs=1e-9)
    # +-l degenerate pairs keep l >= 0 first
    assert (states[1][0].l, states[2][0].l) == (1, -1)
