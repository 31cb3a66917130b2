import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twistcyl.geometry import (_TINY, CylinderGeometry, PhysicsParams,
                               TwistProfile, da_costa_potential,
                               inverse_metric, metric_from_strain, square,
                               strain_from_twist, surface_curvatures,
                               undeformed_metric)
from twistcyl.spectrum import (ModeNumbers, bound_wavefunction, eigenenergy,
                               gauge_potential_star, list_bound_states,
                               twist_phase)

PHYS = PhysicsParams()
GEOM = CylinderGeometry(radius=1.0, length=1.0)


def test_mode_numbers_validation():
    with pytest.raises(ValueError):
        ModeNumbers(l=0, n=0)
    with pytest.raises(ValueError):
        ModeNumbers(l=0.5, n=1)
    assert ModeNumbers(l=-3).n == 1


def geometry_potential(l, f):
    """The oracles' raw mode-l potential t l^2 g^pp + V_dC at rate f, from
    the strain through the metric and da Costa's potential."""
    g = metric_from_strain(undeformed_metric(GEOM), strain_from_twist(GEOM, f))
    return (PHYS.hbar2_over_2m * l**2 * inverse_metric(g).g_pp
            + da_costa_potential(surface_curvatures(GEOM, f), PHYS))


@pytest.mark.parametrize("l,f,expected", [
    (1, 0.5, 0.5),      # g^pp = g_zz / det g = 1.25
    (0, 0.0, -0.125),
    (0, 2.7, -0.125),   # centrifugal term absent for l = 0
    (1, 0.0, 0.375),
])
def test_effective_potential_values(l, f, expected):
    assert geometry_potential(l, f) == pytest.approx(expected, abs=1e-15)


@pytest.mark.parametrize("l,radius,expected", [
    (0, 1.0, -0.125),
    (1, 1.0, 0.375),
    (2, 2.0, 0.46875),
])
def test_gauge_potential_star_values(l, radius, expected):
    geom = CylinderGeometry(radius, 1.0)
    assert gauge_potential_star(ModeNumbers(l=l), geom, PHYS) == pytest.approx(
        expected, abs=1e-15)


@pytest.mark.parametrize("l,radius,hbar", [
    (10**200, 1e200, 1.0), (-10**200, 3e250, 1.0), (7 * 10**180, 2e170, 1e-3),
    (2, 1e160, 1e154), (3, 1e300, 1e154),
], ids=["l-r-1e200", "l-1e200-r-3e250", "l-7e180", "l-2-t-5e307",
        "l-3-r-1e300"])
def test_v_star_is_finite_where_its_squares_overflow(l, radius, hbar):
    # t (l^2 - 1/4) and R^2 both overflow, and read inf / inf = NaN; at
    # l = 2, t (l / R)^2 would be 7% above V*
    phys = PhysicsParams(hbar=hbar)
    star = gauge_potential_star(ModeNumbers(l=l), CylinderGeometry(radius, 1.0),
                                phys)
    with mpmath.workdps(40):
        exact = (mpmath.mpf(phys.hbar2_over_2m) * (mpmath.mpf(l)**2 - 0.25)
                 / mpmath.mpf(radius)**2)
    assert star == pytest.approx(float(exact), rel=1e-15, abs=0.0)


def test_gauge_potential_star_equals_untwisted_effective_potential():
    for l in (0, 1, 3):
        star = gauge_potential_star(ModeNumbers(l=l), GEOM, PHYS)
        assert star == pytest.approx(geometry_potential(l, 0.0), abs=1e-15)


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
    # V* is the energy floor: every closed-form level clears it
    for l in (0, 1, 2):
        assert eigenenergy(ModeNumbers(l=l, n=1), GEOM, PHYS) > \
            gauge_potential_star(ModeNumbers(l=l), GEOM, PHYS)


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


def test_twist_phase_of_an_l_past_the_float_range_is_refused():
    # l theta(z) converted the int l and raised a bare OverflowError
    for z in (2.0, np.array([0.0, 1.0])):
        with pytest.raises(FloatingPointError, match="not finite"):
            twist_phase(TwistProfile.constant(0.5), 10**400, z)


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


@pytest.mark.parametrize("n", [10**6 + 1, 10**10 + 1, 10**13 + 1, 2**51 + 3])
def test_wavefunction_large_n_matches_mpmath(n):
    # on z_j = j L / m the sine is sin(n pi j / m) with n j reduced in
    # integers; a float n z / L kept about 16 - log10(n) digits, and at
    # 2^51 + 3, z = L / 6 it printed -0.2216 for -0.1995
    m = 6
    sample = bound_wavefunction(ModeNumbers(l=0, n=n),
                                CylinderGeometry(radius=1.0, length=2.0),
                                TwistProfile.constant(0.0), PHYS, (2, m + 1))
    with mpmath.workdps(50):
        norm = mpmath.sqrt(mpmath.pi * 2)
        exact = [float(mpmath.sin(mpmath.pi * n * j / m) / norm)
                 for j in range(m + 1)]
    # the reduced argument k / m < 2 is rounded once: a sine error of a few
    # 1e-16 at modulus 0.4
    assert np.max(np.abs(sample.values[0].real - exact)) <= 1e-15
    assert np.all(sample.values.imag == 0.0)
    # the nodes, n j / m an integer, are exact zeros
    nodes = [j for j in range(m + 1) if n * j % m == 0]
    assert np.all(sample.values[0, nodes] == 0.0)


@pytest.mark.parametrize("n, n_z", [(1, 256), (3, 512), (7, 1000),
                                    (2, 3000), (10**6 + 1, 97),
                                    (2**51 + 3, 1001)])
def test_wavefunction_sine_relative_digits_match_mpmath(n, n_z):
    # the sine is folded in integers to an argument of at most pi / 2, so a
    # cell next to a node keeps its relative digits; the unfolded
    # sin(pi k / m), k / m in [0, 2), was off by 7e-14 relative at n = 3,
    # n_z = 512 and by 2.4e-13 at n = 2, n_z = 3000
    m = n_z - 1
    sample = bound_wavefunction(ModeNumbers(l=0, n=n),
                                CylinderGeometry(radius=1.0, length=2.0),
                                TwistProfile.constant(0.0), PHYS, (2, n_z))
    turns = [n * j % (2 * m) for j in range(n_z)]
    with mpmath.workdps(50):
        norm = mpmath.sqrt(mpmath.pi * 2)
        exact = np.array([float(mpmath.sin(mpmath.pi * k / m) / norm)
                          for k in turns])
    got = sample.values[0].real
    nodes = np.array([k % m == 0 for k in turns])
    assert np.all(got[nodes] == 0.0)
    near = np.array([k % m in (1, m - 1) for k in turns])
    assert np.any(near)
    assert np.max(np.abs(got[~nodes] / exact[~nodes] - 1.0)) <= 1e-15


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


@pytest.mark.parametrize("radius,length,n", [
    (1e-154, 3e-155, 1), (1.4e-50, 1.5e-273, 8), (1.5e-280, 2.4e-246, 1),
    (1e200, 1e200, 1),
], ids=["subnormal", "subnormal-zero-sine", "zero", "inf"])
def test_wavefunction_refuses_pi_r_l_outside_the_normal_range(radius, length,
                                                              n):
    # pi R L = 9.4e-309 and 6.6e-323 are subnormal, and used to print (the
    # second as zeros, its sine vanishing on every node at n = 8, n_z = 9);
    # pi R L = 0 and inf were refused by two other tests
    geom = CylinderGeometry(radius, length)
    with pytest.raises(FloatingPointError, match="2\\^-1022, 2\\^1022"):
        bound_wavefunction(ModeNumbers(l=1, n=n), geom,
                           TwistProfile.constant(0.5), PHYS, (4, 9))


@pytest.mark.parametrize("scale", [2.0**-1022, 2.0**1022])
def test_wavefunction_at_the_ends_of_the_normal_range(scale):
    # |psi| <= 2^511 and |psi|^2 <= 2^1022 (1 + eps): finite, no warning
    geom = CylinderGeometry(scale / np.pi, 1.0)
    assert _TINY <= np.pi * geom.radius * geom.length <= 1.0 / _TINY
    sample = bound_wavefunction(ModeNumbers(l=1), geom,
                                TwistProfile.constant(0.5), PHYS, (4, 9))
    density = sample.density()
    assert np.all(np.isfinite(density))
    peak = np.max(density) * np.pi * geom.radius * geom.length
    assert peak == pytest.approx(1.0, rel=1e-14)


def test_wavefunction_carries_twist_phase():
    twist = TwistProfile.constant(0.5)
    mode = ModeNumbers(l=2, n=1)
    sample = bound_wavefunction(mode, GEOM, twist, PHYS, (8, 33))
    j = 16  # interior node, sin > 0
    expected = np.exp(1j * (mode.l * sample.phi[3]
                            + twist_phase(twist, mode.l, sample.z[j])))
    got = sample.values[3, j] / np.abs(sample.values[3, j])
    assert abs(got - expected) <= 1e-12


@pytest.mark.parametrize("call,message", [
    (lambda: bound_wavefunction(ModeNumbers(l=0), GEOM,
                                TwistProfile.constant(0.0), PHYS, (1, 5)),
     "grid must have at least 2 points per axis"),
    (lambda: list_bound_states(GEOM, PHYS, n_max=0, l_max=2),
     "need n_max >= 1 and l_max >= 0"),
    (lambda: list_bound_states(GEOM, PHYS, n_max=3, l_max=-1),
     "need n_max >= 1 and l_max >= 0"),
], ids=["wavefunction-grid", "n-max-0", "l-max-negative"])
def test_out_of_range_arguments_are_refused(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_list_bound_states_ordering():
    n, l, energy = list_bound_states(GEOM, PHYS, n_max=3, l_max=2)
    assert len(n) == len(l) == len(energy) == 15
    energies = energy.tolist()
    assert energies == sorted(energies)
    assert (n[0], l[0]) == (1, 0)
    assert energies[0] == pytest.approx(4.80980220054, abs=1e-9)
    # +-l degenerate pairs keep l >= 0 first
    assert (l[1], l[2]) == (1, -1)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.floats(-200.0, 200.0), st.floats(-200.0, 200.0),
       st.floats(-3.0, 3.0), st.integers(1, 20), st.integers(0, 10))
def test_table_is_the_sorted_per_mode_energies(log_r, log_l, log_hbar, n_max,
                                               l_max):
    # the vectorised table against eigenenergy one mode at a time, bit for
    # bit, in the (energy, n, |l|, l < 0) order; a refused term refuses both.
    # Both square through geometry.square, the correctly rounded product.
    geom = CylinderGeometry(10.0**log_r, 10.0**log_l)
    phys = PhysicsParams(hbar=10.0**log_hbar)
    t = phys.hbar2_over_2m
    try:
        expected = sorted((eigenenergy(ModeNumbers(l=l, n=n), geom, phys), n,
                           abs(l), l < 0, l)
                          for n in range(1, n_max + 1)
                          for l in range(-l_max, l_max + 1))
    except FloatingPointError:
        with pytest.raises(FloatingPointError):
            list_bound_states(geom, phys, n_max, l_max)
        return
    for energy, n, _, _, l in expected:
        assert energy == (t * square(n * np.pi / geom.length)
                          + gauge_potential_star(ModeNumbers(l), geom, phys))
    n, l, energy = list_bound_states(geom, phys, n_max, l_max)
    assert n.tolist() == [row[1] for row in expected]
    assert l.tolist() == [row[4] for row in expected]
    assert energy.tobytes() == np.array([row[0] for row in expected]).tobytes()


@pytest.mark.parametrize("mode,geom,term", [
    (ModeNumbers(l=0, n=10**200), GEOM, "box term"),
    (ModeNumbers(l=0), CylinderGeometry(1e170, 1.0), "V\\*"),
    (ModeNumbers(l=0), CylinderGeometry(1.0, 1e170), "box term"),
], ids=["n-1e200", "r-1e170", "l-1e170"])
def test_eigenenergy_refuses_a_term_it_cannot_hold(mode, geom, term):
    # (n pi / L)^2 overflows; R^2 overflows, so V* reads 0; (pi / L)^2 is
    # below the smallest normal float
    with pytest.raises(FloatingPointError, match=term):
        eigenenergy(mode, geom, PHYS)
