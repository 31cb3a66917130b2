import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp
from scipy.linalg import solve_banded

from twistcyl.errors import (IntegratorFailure, NoPropagatingChannel,
                             QuadratureFailure)
from twistcyl.geometry import (CylinderGeometry, PhysicsParams, TwistProfile,
                               da_costa_potential, surface_curvatures)
from twistcyl.numeric import (FDGrid, _band_matvec, _fd_bands,
                              _solve_tridiagonal,
                              fd_bound_spectrum, fd_eigenpairs,
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


# --- tridiagonal solve, against scipy's banded LAPACK solve -------------------

def _banded_reference(lower, diag, upper, rhs):
    ab = np.zeros((3, diag.size), dtype=complex)
    ab[0, 1:] = upper
    ab[1, :] = diag
    ab[2, :-1] = lower
    return solve_banded((1, 1), ab, rhs)


def _random_complex(rng, size):
    return rng.normal(size=size) + 1j * rng.normal(size=size)


def _assert_solves_like_lapack(lower, diag, upper, rhs, rtol):
    got = _solve_tridiagonal(lower, diag, upper, rhs)
    ref = _banded_reference(lower, diag, upper, rhs)
    assert np.linalg.norm(got - ref) <= rtol * np.linalg.norm(ref)


@pytest.mark.parametrize("n", [2, 3, 16, 800, 4000])
def test_solve_tridiagonal_random_complex(n):
    rng = np.random.default_rng(n)
    lower, diag, upper, rhs = (_random_complex(rng, m)
                               for m in (n - 1, n, n - 1, n))
    _assert_solves_like_lapack(lower, diag, upper, rhs, 1e-12)


@pytest.mark.parametrize("n", [2, 3, 16, 801])
def test_solve_tridiagonal_needs_row_swaps(n):
    # a zero or tiny diagonal defeats elimination without pivoting; the
    # zero-diagonal matrix is nonsingular only for even n
    rng = np.random.default_rng(40 + n)
    lower, upper, rhs = (_random_complex(rng, m) for m in (n - 1, n - 1, n))
    diag = 1e-9 * _random_complex(rng, n)
    if n % 2 == 0:
        diag[::2] = 0.0
    _assert_solves_like_lapack(lower, diag, upper, rhs, 1e-12)
    mixed = _random_complex(rng, n)
    mixed[::3] *= 1e-8  # swaps at some rows only
    _assert_solves_like_lapack(lower, mixed, upper, rhs, 1e-12)


def test_solve_tridiagonal_zero_pivot_raises():
    zero = np.zeros(1, dtype=complex)
    with pytest.raises(ZeroDivisionError):
        _solve_tridiagonal(zero, np.zeros(2, dtype=complex), zero,
                           np.ones(2, dtype=complex))


@pytest.mark.parametrize("twist", [TwistProfile.constant(0.7),
                                   TwistProfile.linear_ramp(0.3)])
def test_solve_tridiagonal_shifted_fd_operator(twist):
    # the nearly singular systems of inverse iteration, right and left: the
    # solutions differ in size by up to cond * eps, so compare what inverse
    # iteration uses, the direction, and require a backward error as small
    # as LAPACK's
    lower, diag, upper, z = _fd_bands(1, GEOM, twist, PHYS, 800)
    vals, _, _ = fd_eigenpairs(1, GEOM, twist, PHYS, 800, 2)
    norm_a = (np.max(np.abs(diag)) + np.max(np.abs(upper))
              + np.max(np.abs(lower)))
    rng = np.random.default_rng(7)
    for lam in vals:
        for offset in (1e-6, 1e-9, 1e-12):
            shifted = diag - lam * (1.0 + offset)
            for bands in ((lower, shifted, upper),
                          (np.conj(upper), np.conj(shifted), np.conj(lower))):
                rhs = _random_complex(rng, z.size)
                got = _solve_tridiagonal(*bands, rhs)
                ref = _banded_reference(*bands, rhs)
                backward = [np.linalg.norm(_band_matvec(*bands, x) - rhs)
                            / (norm_a * np.linalg.norm(x)) for x in (got, ref)]
                assert backward[0] <= max(10.0 * backward[1], 1e-15)
                u = got / np.linalg.norm(got)
                v = ref / np.linalg.norm(ref)
                phase = np.vdot(v, u)
                assert np.linalg.norm(u - v * phase / abs(phase)) <= 1e-9


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

def _random_oracle_cases(seed, count, radius, length, alpha, energy):
    """Random (scenario, energy) draws, alternating embedded and free, as in
    the validate check (seed 103) and the agreement test below (seed 32)."""
    rng = np.random.default_rng(seed)
    for i in range(count):
        geom = CylinderGeometry(rng.uniform(*radius), rng.uniform(*length))
        l = int(rng.integers(0, 3))
        a = rng.uniform(*alpha)
        maker = (ScatteringScenario.embedded if i % 2 == 0
                 else ScatteringScenario.free)
        scenario = maker(geom, a, l, PHYS)
        e = scenario.outside_threshold + rng.uniform(*energy)
        if abs(e - scenario.inside_threshold) < 1e-6:
            e += 1e-3
        yield scenario, e


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
    for scenario, energy in _random_oracle_cases(
            32, 50, (0.5, 2.0), (0.5, 2.0), (0.0, 1.5), (0.05, 6.0)):
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


def test_ode_oracle_overflow_is_integrator_failure():
    # T ~ e^-1500 at L = 200: the backward-propagated amplitude overflows
    scenario = ScatteringScenario.free(CylinderGeometry(0.5, 200.0), 0.3, 2,
                                       PHYS)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(IntegratorFailure, match="not finite"):
            ode_transmission_oracle(0.5, scenario)


def reference_ode_oracle(energy: float, scenario, rtol: float = 1e-10,
                         atol: float = 1e-12) -> tuple[float, float]:
    """The adaptive RK45 oracle the package used before its RK4 propagator."""
    thr = scenario.outside_threshold
    if energy <= thr:
        raise NoPropagatingChannel(
            f"energy {energy} at or below the outside threshold {thr}")
    phys = scenario.phys
    geom = scenario.geom
    l = scenario.mode.l
    alpha = scenario.alpha
    t = phys.hbar2_over_2m

    k = np.sqrt((energy - thr) / t)
    v_g = da_costa_potential(surface_curvatures(geom, 0.0), phys)
    v_eff = v_g + t * (alpha**2 + 1.0 / geom.radius**2) * l**2
    c1 = 2j * l * alpha
    c0 = (v_eff - energy) / t

    def rhs(_z, y):
        return [y[1], c1 * y[1] + c0 * y[0]]

    length = geom.length
    y_end = np.array([np.exp(1j * k * length),
                      (1j * k + 1j * l * alpha) * np.exp(1j * k * length)])
    sol = solve_ivp(rhs, (length, 0.0), y_end, method="RK45",
                    rtol=rtol, atol=atol)
    if not sol.success:
        raise IntegratorFailure(sol.message)
    z0, zp0 = sol.y[0, -1], sol.y[1, -1]

    d = (zp0 - 1j * l * alpha * z0) / (1j * k)
    a_in = 0.5 * (z0 + d)    # incident amplitude when outgoing is normalized
    b_out = 0.5 * (z0 - d)   # reflected amplitude
    trans = 1.0 / abs(a_in)**2
    refl = abs(b_out / a_in)**2
    return trans, refl


def test_ode_oracle_matches_adaptive_reference():
    cases = [
        (ScatteringScenario.embedded(GEOM, 0.9, 1, PHYS), 2.0),
        (ScatteringScenario.free(GEOM, 0.4, 0, PHYS), np.pi**2 / 2.0 - 0.125),
        (ScatteringScenario.free(GEOM, 0.6, 1, PHYS), 0.2),
        *_random_oracle_cases(103, 8, (0.6, 2.0), (0.6, 2.0), (0.0, 1.2),
                              (0.3, 5.0)),
        *_random_oracle_cases(32, 50, (0.5, 2.0), (0.5, 2.0), (0.0, 1.5),
                              (0.05, 6.0)),
    ]
    for scenario, energy in cases:
        t_new, r_new = ode_transmission_oracle(energy, scenario)
        t_ref, r_ref = reference_ode_oracle(energy, scenario)
        assert abs(t_new - t_ref) <= 1e-9
        assert abs(r_new - r_ref) <= 1e-9


@st.composite
def oracle_cases(draw):
    """A scenario over R in [0.3, 3], L in [0.1, 20], |l| <= 3, alpha in
    [0, 2] and an energy above its outside threshold, tunnelling included."""
    maker = draw(st.sampled_from((ScatteringScenario.embedded,
                                  ScatteringScenario.free)))
    geom = CylinderGeometry(draw(st.floats(0.3, 3.0)),
                            draw(st.floats(0.1, 20.0)))
    scenario = maker(geom, draw(st.floats(0.0, 2.0)),
                     draw(st.integers(-3, 3)), PHYS)
    thr = scenario.outside_threshold
    inside = scenario.inside_threshold
    # the oracle matches at z = 0 by dividing by k, so its error grows like
    # 1/k at the outside threshold (5e-10 in T at 1e-6 above it): offsets
    # start at 1e-3. Below the inside threshold a free scenario tunnels.
    barrier = inside - thr if inside - thr > 1e-2 else 20.0
    energy = thr + draw(st.one_of(st.floats(1e-3, 20.0),
                                  st.floats(1e-3, barrier)))
    if abs(energy - inside) < 1e-6:
        energy += 1e-3
    return scenario, energy


@settings(max_examples=100, deadline=None, derandomize=True)
@given(oracle_cases())
def test_closed_form_matches_ode_oracle_in_log_t(case):
    scenario, energy = case
    log_t_closed = np.log(solve_scattering(energy, scenario).transmission)
    log_t_ode = np.log(ode_transmission_oracle(energy, scenario)[0])
    # relative in log T, with a floor for T near 1 where log T is rounding
    assert abs(log_t_closed - log_t_ode) <= 1e-8 * abs(log_t_ode) + 1e-10
