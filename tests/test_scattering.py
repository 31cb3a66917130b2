import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from twistcyl.errors import NoPropagatingChannel, ThresholdDegeneracy
from twistcyl.geometry import CylinderGeometry, PhysicsParams
from twistcyl.numeric import ode_transmission_oracle
from twistcyl.scattering import (FLAG_DEGENERATE, FLAG_OK, FLAG_SUB_THRESHOLD,
                                 ScatteringScenario, _solve_batch,
                                 outside_wavevector, probability_current,
                                 region_roots, solve_scattering,
                                 transmission_sweep)

PHYS = PhysicsParams()
GEOM = CylinderGeometry(radius=1.0, length=1.0)


def embedded(alpha=0.0, l=0, geom=GEOM):
    return ScatteringScenario.embedded(geom, alpha, l, PHYS)


def free(alpha=0.0, l=0, geom=GEOM):
    return ScatteringScenario.free(geom, alpha, l, PHYS)


def test_region_roots_propagating():
    r1, r2 = region_roots(np.pi**2 / 2.0 - 0.125, embedded())
    assert r1 == pytest.approx(-1j * np.pi, abs=1e-9)
    assert r2 == pytest.approx(1j * np.pi, abs=1e-9)


def test_region_roots_at_zero_energy():
    r1, r2 = region_roots(0.0, embedded())
    assert r1 == pytest.approx(-0.5j, abs=1e-15)
    assert r2 == pytest.approx(0.5j, abs=1e-15)


def test_region_roots_sum_rule():
    rng = np.random.default_rng(21)
    for _ in range(50):
        scenario = embedded(alpha=rng.uniform(0, 2), l=int(rng.integers(-2, 3)))
        energy = rng.uniform(0.5, 6.0) + scenario.inside_threshold
        r1, r2 = region_roots(energy, scenario)
        target = 2j * scenario.mode.l * scenario.alpha
        assert abs(r1 + r2 - target) <= 1e-12 * max(1.0, abs(target))


def test_region_roots_alpha_cancellation():
    # the sqrt argument reduces to (2m/hbar^2)(V* - E) for every alpha
    scenario0 = embedded(alpha=0.0, l=2)
    for alpha in (0.3, 0.9, 1.7):
        scenario = embedded(alpha=alpha, l=2)
        energies = np.array([0.1, 3.0, 9.0])
        got = region_roots(energies, scenario)
        ref = region_roots(energies, scenario0)
        shift = 1j * scenario.mode.l * alpha
        for g, r in zip(got, ref):
            assert np.all(np.abs((g - shift) - r)
                          <= 1e-13 * np.maximum(1.0, np.abs(r)))


def test_region_roots_degenerate_at_threshold():
    scenario = embedded(l=1)
    with pytest.raises(ThresholdDegeneracy):
        region_roots(scenario.inside_threshold, scenario)


def test_region_roots_evanescent_below_threshold():
    scenario = free(alpha=0.4, l=1)
    r1, r2 = region_roots(0.1, scenario)  # below V* = 0.375
    kappa = np.sqrt(2.0 * (0.375 - 0.1))
    assert r1 == pytest.approx(0.4j - kappa, abs=1e-12)
    assert r2 == pytest.approx(0.4j + kappa, abs=1e-12)


def test_outside_wavevector_embedded():
    assert outside_wavevector(0.375, embedded()) == pytest.approx(1.0, abs=1e-12)


def test_outside_wavevector_free():
    assert outside_wavevector(2.0, free()) == pytest.approx(2.0, abs=1e-12)


def test_outside_wavevector_below_threshold():
    with pytest.raises(NoPropagatingChannel):
        outside_wavevector(0.2, embedded(l=1))
    with pytest.raises(NoPropagatingChannel):
        outside_wavevector(-0.05, free())


def test_probability_current_plane_wave():
    k = 1.3
    j = probability_current(1.0 + 0.0j, 1j * k, 0, 0.0, PHYS)
    assert j == pytest.approx(k, abs=1e-15)


def test_probability_current_standing_wave():
    j = probability_current(0.7, 0.2, 0, 0.0, PHYS)  # real Z, real Z'
    assert j == 0.0


def test_embedded_transparent():
    scenario = embedded(alpha=0.8, l=1)
    sol = solve_scattering(1.0, scenario)
    assert abs(sol.transmission - 1.0) <= 1e-10
    assert sol.reflection <= 1e-10


def test_embedded_transparent_wide_sample():
    rng = np.random.default_rng(22)
    for _ in range(60):
        scenario = embedded(alpha=rng.uniform(0, 2), l=int(rng.integers(0, 3)),
                            geom=CylinderGeometry(rng.uniform(0.5, 2.0),
                                                  rng.uniform(0.5, 2.0)))
        energy = scenario.inside_threshold + rng.uniform(0.01, 8.0)
        sol = solve_scattering(energy, scenario)
        assert abs(sol.transmission - 1.0) <= 1e-10
        assert sol.reflection <= 1e-10


def test_embedded_transmitted_phase_records_twist():
    # transparency still imprints the phase e^{i l alpha L} on t
    scenario = embedded(alpha=0.6, l=2)
    sol = solve_scattering(2.0, scenario)
    assert sol.t == pytest.approx(np.exp(1.2j), abs=1e-10)


def test_free_resonance_unit_transmission():
    energy = np.pi**2 / 2.0 - 0.125  # barrier wavevector hits pi / L
    for alpha in (0.0, 0.5, 1.3):
        sol = solve_scattering(energy, free(alpha=alpha, l=0))
        assert abs(sol.transmission - 1.0) <= 1e-8


def test_free_resonances_sit_at_stacked_half_waves():
    # T's flat top defeats a direct peak search at high n; the reflection
    # amplitude vanishes linearly there, so bracketing the sign change of
    # its slope pins each resonance V* + t (n pi / L)^2 to about 1e-8
    scenario = free(alpha=0.5, l=1)
    t = PHYS.hbar2_over_2m

    def slope(e, d=1e-4):
        return (abs(solve_scattering(e + d, scenario).r)
                - abs(solve_scattering(e - d, scenario).r))

    for n in range(1, 6):
        predicted = (scenario.inside_threshold
                     + t * (n * np.pi / GEOM.length)**2)
        located = brentq(slope, predicted - 0.4, predicted + 0.4, xtol=1e-10)
        assert abs(located - predicted) <= 1e-6


def test_free_off_resonance_below_unity():
    sol = solve_scattering(2.0, free())
    assert sol.transmission < 1.0
    assert sol.transmission == pytest.approx(0.9992855451815, abs=1e-10)


def test_unitarity_everywhere():
    rng = np.random.default_rng(23)
    for _ in range(100):
        kind = free if rng.integers(2) else embedded
        scenario = kind(alpha=rng.uniform(0, 1.5), l=int(rng.integers(0, 3)),
                        geom=CylinderGeometry(rng.uniform(0.5, 2.0),
                                              rng.uniform(0.5, 2.0)))
        energy = scenario.outside_threshold + rng.uniform(0.02, 8.0)
        if abs(energy - scenario.inside_threshold) < 1e-6:
            continue
        sol = solve_scattering(energy, scenario)
        assert abs(sol.transmission + sol.reflection - 1.0) <= 1e-10
        assert -1e-12 <= sol.transmission <= 1.0 + 1e-12
        assert -1e-12 <= sol.reflection <= 1.0 + 1e-12


def test_free_alpha_invariance_of_transmission():
    energies = np.linspace(0.5, 9.0, 120)
    base = transmission_sweep(free(alpha=0.0, l=1), energies).transmission
    for alpha in (0.25, 0.5, 1.0):
        cur = transmission_sweep(free(alpha=alpha, l=1), energies).transmission
        assert np.max(np.abs(cur - base)) <= 1e-10


def test_transmission_symmetric_in_l_sign():
    for kind in (embedded, free):
        for energy in (2.1, 3.7):  # above the l = +-2 threshold of 1.875
            plus = solve_scattering(energy, kind(alpha=0.7, l=2))
            minus = solve_scattering(energy, kind(alpha=0.7, l=-2))
            assert abs(plus.transmission - minus.transmission) <= 1e-12
            assert abs(plus.reflection - minus.reflection) <= 1e-12


def test_current_matched_at_interfaces():
    scenario = free(alpha=0.9, l=1, geom=CylinderGeometry(1.0, 1.3))
    energy = 2.4
    sol = solve_scattering(energy, scenario)
    k = outside_wavevector(energy, scenario)
    r1, r2 = region_roots(energy, scenario)
    length = scenario.geom.length
    l, alpha = scenario.mode.l, scenario.alpha

    j_i = probability_current(1.0 + sol.r, 1j * k * (1.0 - sol.r), l, 0.0, PHYS)
    j_ii_0 = probability_current(
        sol.A + sol.B, r1 * sol.A + r2 * sol.B, l, alpha, PHYS)
    z2 = sol.A * np.exp(r1 * length) + sol.B * np.exp(r2 * length)
    z2p = (r1 * sol.A * np.exp(r1 * length)
           + r2 * sol.B * np.exp(r2 * length))
    j_ii_l = probability_current(z2, z2p, l, alpha, PHYS)
    out = sol.t * np.exp(1j * k * length)
    j_iii = probability_current(out, 1j * k * out, l, 0.0, PHYS)

    assert abs(j_i - j_ii_0) <= 1e-10
    assert abs(j_ii_l - j_iii) <= 1e-10
    assert abs(j_i - j_iii) <= 1e-10


def test_solve_scattering_refuses_threshold_window():
    scenario = free(alpha=0.2, l=1)
    with pytest.raises(ThresholdDegeneracy):
        solve_scattering(scenario.inside_threshold + 1e-10, scenario)


def test_solve_scattering_refuses_closed_channel():
    with pytest.raises(NoPropagatingChannel):
        solve_scattering(0.1, embedded(l=1))


def test_sweep_flags_and_order():
    scenario = embedded(alpha=0.5, l=1)
    energies = np.linspace(0.01, 5.0, 40)
    sweep = transmission_sweep(scenario, energies)
    assert sweep.energy.tolist() == energies.tolist()
    onset = sweep.flag.tolist().index(FLAG_OK)
    assert onset > 0
    assert np.all(sweep.flag[:onset] == FLAG_SUB_THRESHOLD)
    assert np.all(sweep.flag[onset:] == FLAG_OK)
    sub = sweep.flag == FLAG_SUB_THRESHOLD
    assert np.all(sweep.transmission[sub] == 0.0)
    assert np.all(sweep.reflection[sub] == 1.0)
    assert np.all(np.abs(sweep.transmission[~sub] + sweep.reflection[~sub]
                         - 1.0) <= 1e-10)


def test_sweep_marks_degenerate_point():
    scenario = free(alpha=0.1, l=1)
    v_star = scenario.inside_threshold
    energies = np.array([v_star - 0.1, v_star, v_star + 0.1])
    sweep = transmission_sweep(scenario, energies)
    assert sweep.flag[1] == FLAG_DEGENERATE
    assert np.isnan(sweep.transmission[1])
    assert sweep.flag[0] == FLAG_OK  # tunneling is ordinary output
    assert sweep.transmission[0] < 1.0


def test_sweep_rejects_unsorted_grid():
    with pytest.raises(ValueError):
        transmission_sweep(embedded(), np.array([1.0, 0.5]))


def test_embedded_onsets_increase_with_l():
    energies = np.linspace(0.01, 9.0, 300)
    onsets = []
    for l in (0, 1, 2):
        sweep = transmission_sweep(embedded(alpha=0.5, l=l), energies)
        onsets.append(sweep.energy[sweep.flag == FLAG_OK][0])
    assert onsets[0] < onsets[1] < onsets[2]


def test_embedded_onsets_decrease_with_radius():
    energies = np.linspace(0.01, 9.0, 300)
    onsets = []
    for radius in (0.5, 1.0, 2.0):
        scenario = embedded(alpha=0.5, l=1, geom=CylinderGeometry(radius, 1.0))
        sweep = transmission_sweep(scenario, energies)
        onsets.append(sweep.energy[sweep.flag == FLAG_OK][0])
    assert onsets[0] > onsets[1] > onsets[2]


# R = 0.5, l = 2 puts the inside threshold at V* = 7.5, above every energy
TUNNEL_ENERGIES = np.linspace(0.5, 7.0, 5)


def tunnel(length):
    return free(alpha=0.3, l=2, geom=CylinderGeometry(0.5, length))


def test_deep_tunnelling_matches_ode_oracle():
    scenario = tunnel(20.0)
    sweep = transmission_sweep(scenario, TUNNEL_ENERGIES)
    assert np.all(sweep.flag == FLAG_OK)
    for energy, trans in zip(sweep.energy.tolist(), sweep.transmission):
        t_ode, _ = ode_transmission_oracle(energy, scenario)
        assert abs(np.log(trans) - np.log(t_ode)) <= 1e-8 * abs(np.log(t_ode))


def test_deep_tunnelling_long_section_stays_unitary():
    sweep = transmission_sweep(tunnel(200.0), TUNNEL_ENERGIES)
    trans = sweep.transmission
    assert np.all(sweep.flag == FLAG_OK)
    assert np.all(np.isfinite(trans) & (0.0 <= trans) & (trans <= 1.0))
    assert np.all(np.abs(trans + sweep.reflection - 1.0) <= 1e-12)


def test_free_transmission_oscillates_above_threshold():
    # L = 2 packs resonances at 0.375 + n^2 pi^2 / 8 into the grid
    scenario = free(alpha=0.5, l=1, geom=CylinderGeometry(1.0, 2.0))
    energies = np.linspace(0.5, 25.0, 400)
    trans = transmission_sweep(scenario, energies).transmission
    slope_signs = np.sign(np.diff(trans))
    assert np.sum(slope_signs[1:] != slope_signs[:-1]) >= 6


@st.composite
def sweep_cases(draw):
    """A scenario over R in [0.2, 5], L in [0.1, 200], |l| <= 3, alpha in
    [0, 2], and a strictly increasing grid around its inside threshold."""
    kind = draw(st.sampled_from((embedded, free)))
    geom = CylinderGeometry(draw(st.floats(0.2, 5.0)),
                            draw(st.floats(0.1, 200.0)))
    l = draw(st.integers(-3, 3))
    alpha = draw(st.floats(0.0, 2.0))
    offsets = draw(st.lists(st.floats(-3.0, 20.0), min_size=1, max_size=30))
    scenario = kind(alpha=alpha, l=l, geom=geom)
    energies = np.unique(scenario.inside_threshold + np.array(offsets))
    return kind, scenario, energies


@settings(max_examples=60, deadline=None, derandomize=True)
@given(sweep_cases())
def test_sweep_columns_properties(case):
    kind, scenario, energies = case
    sweep = transmission_sweep(scenario, energies)
    assert sweep.energy.tolist() == energies.tolist()
    sub = sweep.flag == FLAG_SUB_THRESHOLD
    assert np.array_equal(sub, energies <= scenario.outside_threshold)
    ok = sweep.flag == FLAG_OK
    trans, refl = sweep.transmission[ok], sweep.reflection[ok]
    assert np.all(np.abs(trans + refl - 1.0) <= 1e-10)

    untwisted = transmission_sweep(
        kind(alpha=0.0, l=scenario.mode.l, geom=scenario.geom), energies)
    assert np.array_equal(untwisted.flag, sweep.flag)
    assert np.all(np.abs(untwisted.transmission[ok] - trans) <= 1e-10)

    # sampled batched rows agree with the one-energy path
    ok_rows = np.flatnonzero(ok)
    for idx in ok_rows[::max(1, ok_rows.size // 3)]:
        sol = solve_scattering(float(energies[idx]), scenario)
        assert abs(sol.transmission - sweep.transmission[idx]) <= 1e-12
        assert abs(sol.reflection - sweep.reflection[idx]) <= 1e-12


def test_non_finite_system_is_threshold_degeneracy():
    scenario = free(alpha=float("nan"), l=1)
    with pytest.raises(ThresholdDegeneracy):
        solve_scattering(1.0, scenario)
    sweep = transmission_sweep(scenario, np.array([1.0, 2.0]))
    assert np.all(sweep.flag == FLAG_DEGENERATE)
    assert np.all(np.isnan(sweep.transmission) & np.isnan(sweep.reflection))


# The batched (N, 4, 4) LAPACK solve that the closed elimination replaced,
# kept verbatim as the reference for _solve_batch.
def reference_solve_batch(energies: np.ndarray, scenario: ScatteringScenario):
    k = outside_wavevector(energies, scenario)
    r1, r2 = region_roots(energies, scenario)
    l_alpha = scenario.mode.l * scenario.alpha
    length = scenario.geom.length
    ik = 1j * k
    e1 = np.exp(r1 * length)    # decaying mode across the section
    e2 = np.exp(-r2 * length)   # growing mode, written about z = L
    one = np.ones_like(ik)
    zero = np.zeros_like(ik)

    # unknowns x = (r, A, B e^{r2 L}, t e^{ikL})
    matrix = np.stack([
        np.stack([-one, one, e2, zero], axis=-1),
        np.stack([ik, r1 - 1j * l_alpha, (r2 - 1j * l_alpha) * e2, zero],
                 axis=-1),
        np.stack([zero, e1, one, -one], axis=-1),
        np.stack([zero, (r1 - 1j * l_alpha) * e1, r2 - 1j * l_alpha, -ik],
                 axis=-1),
    ], axis=-2)
    rhs = np.stack([one, ik, zero, zero], axis=-1)
    r_amp, a_amp, b_scaled, t_scaled = np.linalg.solve(
        matrix, rhs[..., None])[..., 0].T
    return r_amp, a_amp, b_scaled * e2, t_scaled * np.exp(-ik * length)


def near_threshold_energies(scenario, offsets):
    """Energies at |offset| from the inside threshold, on its side given by
    the sign, keeping those with an open outside channel."""
    energies = np.unique(scenario.inside_threshold + np.asarray(offsets))
    return energies[energies > scenario.outside_threshold]


@st.composite
def elimination_cases(draw):
    """Both scenarios over R in [0.1, 10], L in [0.1, 100], |l| <= 5,
    alpha in [0, 2], with energies 1e-9 to 10 on either side of the inside
    threshold (below it the free scenario tunnels)."""
    kind = draw(st.sampled_from((embedded, free)))
    geom = CylinderGeometry(draw(st.floats(0.1, 10.0)),
                            draw(st.floats(0.1, 100.0)))
    scenario = kind(alpha=draw(st.floats(0.0, 2.0)),
                    l=draw(st.integers(-5, 5)), geom=geom)
    offsets = [sign * 10.0**exponent for sign, exponent in draw(st.lists(
        st.tuples(st.sampled_from((-1.0, 1.0)), st.floats(-9.0, 1.0)),
        min_size=1, max_size=20))]
    return scenario, near_threshold_energies(scenario, offsets)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(elimination_cases())
def test_elimination_matches_lapack_reference(case):
    scenario, energies = case
    if energies.size == 0:
        return
    for got, ref in zip(_solve_batch(energies, scenario),
                        reference_solve_batch(energies, scenario)):
        assert np.all(np.abs(got - ref)
                      <= 5e-11 * np.maximum(1.0, np.abs(ref)))


def exact_probabilities(energy: float, scenario: ScatteringScenario):
    """(T, R) from a 50-digit solve of the scaled 4x4 matching system."""
    with mpmath.workdps(50):
        phys, geom = scenario.phys, scenario.geom
        h2m = mpmath.mpf(phys.hbar2_over_2m)
        radius, length = mpmath.mpf(geom.radius), mpmath.mpf(geom.length)
        l, alpha = scenario.mode.l, mpmath.mpf(scenario.alpha)
        energy = mpmath.mpf(energy)
        g_zz = 1 + radius**2 * alpha**2
        v_eff = h2m * (g_zz * l**2 - mpmath.mpf(1) / 4) / radius**2
        l_alpha = l * alpha
        root = mpmath.sqrt(mpmath.mpc((v_eff - energy) / h2m - l_alpha**2))
        r1, r2 = 1j * l_alpha - root, 1j * l_alpha + root
        ik = 1j * mpmath.sqrt(
            (energy - mpmath.mpf(scenario.outside_threshold)) / h2m)
        e1, e2 = mpmath.exp(r1 * length), mpmath.exp(-r2 * length)
        p1, p2 = r1 - 1j * l_alpha, r2 - 1j * l_alpha
        matrix = mpmath.matrix([[-1, 1, e2, 0],
                                [ik, p1, p2 * e2, 0],
                                [0, e1, 1, -1],
                                [0, p1 * e1, p2, -ik]])
        x = mpmath.lu_solve(matrix, mpmath.matrix([1, ik, 0, 0]))
        return float(abs(x[3])**2), float(abs(x[0])**2)


def test_elimination_matches_exact_solve():
    rng = np.random.default_rng(51)
    worst, draws = 0.0, 0
    while draws < 300:
        kind = free if rng.integers(2) else embedded
        scenario = kind(alpha=rng.uniform(0.0, 2.0), l=int(rng.integers(0, 6)),
                        geom=CylinderGeometry(rng.uniform(0.1, 10.0),
                                              rng.uniform(0.1, 20.0)))
        offset = rng.choice((-1.0, 1.0)) * 10.0**rng.uniform(-9.0, 1.0)
        energies = near_threshold_energies(scenario, [offset])
        if energies.size == 0:
            continue
        draws += 1
        r_amp, _, _, t_amp = _solve_batch(energies, scenario)
        t_exact, r_exact = exact_probabilities(float(energies[0]), scenario)
        worst = max(worst, abs(abs(t_amp[0])**2 - t_exact),
                    abs(abs(r_amp[0])**2 - r_exact))
    assert worst <= 5e-11


@pytest.mark.parametrize("kind", [embedded, free])
@pytest.mark.parametrize("radius,length,l", [
    (1.0, 1e3, 1), (1.0, 1e100, 1), (1.0, 1e300, 1),
    (1e-150, 1.0, 1), (1e150, 1.0, 1),
    (1.0, 1.0, 300), (1.0, 1.0, 10**6),
])
def test_extreme_regimes_stay_unitary(kind, radius, length, l):
    scenario = kind(alpha=0.5, l=l, geom=CylinderGeometry(radius, length))
    thr = scenario.inside_threshold
    energies = np.unique(np.concatenate(
        [thr * np.array([0.5, 0.9, 1.1, 2.0]), [0.1, 1.0, 10.0]]))
    sweep = transmission_sweep(scenario, energies)
    ok = sweep.flag == FLAG_OK
    assert np.any(ok)
    assert np.all(np.abs(sweep.transmission[ok] + sweep.reflection[ok] - 1.0)
                  <= 1e-12)
