"""The package's named cross-checks: ``CHECKS``, one table that the
``validate`` CLI command runs and the acceptance tests parametrise over.

Closed forms against Chebyshev collocation of the literal twisted operator,
interface matching against direct ODE integration, and the twist-invariance
identities. Each row of ``CHECKS`` holds a check's name, what it measures,
its tolerance and its function; the function returns the one float it
measured, and ``run_check`` passes the row when that value is at most the
tolerance, so a NaN fails. Every check is deterministic (fixed seeds, fixed
grids) so two runs produce byte-identical reports.
"""

from __future__ import annotations

import random

import numpy as np

from .errors import TwistCylError
from .geometry import (CurvatureData, CylinderGeometry, PhysicsParams,
                       TwistProfile, da_costa_potential, inverse_metric,
                       metric_from_embedding_fd, metric_from_strain,
                       second_form_from_embedding_fd, strain_from_twist,
                       surface_curvatures, twisted_metric, undeformed_metric)
from .numeric import fd_bound_spectrum, fd_eigenpairs, ode_transmission_oracle
from .scattering import (ScatteringScenario, solve_scattering,
                         transmission_sweep)
from .spectrum import (ModeNumbers, bound_wavefunction, eigenenergy,
                       gauge_potential_star, twist_phase)

_PHYS = PhysicsParams()
_GEOM = CylinderGeometry(radius=1.0, length=1.0)
_SINE = TwistProfile.profiled(lambda z: 0.4 * np.sin(2.0 * z),
                              lambda z: 0.8 * np.cos(2.0 * z))

# each check returns one np.max over its deviations, which keeps a NaN;
# max(0.0, nan) would be 0.0


def _check_metric_det():
    rng = random.Random(101)
    devs = []
    for _ in range(200):
        r = rng.uniform(0.1, 10.0)
        f = rng.uniform(-10.0, 10.0)
        g = twisted_metric(CylinderGeometry(r, 1.0), f)
        devs.append(abs(g.det - r * r) / (abs(g.g_pp * g.g_zz) + g.g_pz**2))
    return np.max(devs)


def _check_inverse():
    # R^2 f^2 <= 625 keeps the cancellation in g g^-1 below its tolerance
    rng = random.Random(102)
    devs = []
    eye = np.eye(2)
    for _ in range(200):
        r = rng.uniform(0.1, 5.0)
        f = rng.uniform(-5.0, 5.0)
        g = twisted_metric(CylinderGeometry(r, 1.0), f)
        devs.append(np.max(np.abs(g.contract(inverse_metric(g)) - eye)))
    return np.max(devs)


def _check_embedding():
    # both fundamental forms from differences of the embedding, against
    # twisted_metric and surface_curvatures' second form
    devs = []
    for twist, z in ((TwistProfile.constant(0.5), 0.7),
                     (TwistProfile.linear_ramp(0.3), 2.0)):
        geom = CylinderGeometry(2.0, 5.0)
        for fd, closed in (
                (metric_from_embedding_fd(geom, twist, (0.3, z)),
                 twisted_metric(geom, twist.f(z))),
                (second_form_from_embedding_fd(geom, twist, (0.3, z)),
                 surface_curvatures(geom, twist.f(z)).second_form)):
            devs.append(np.max(np.abs(fd.as_array() - closed.as_array())))
    return np.max(devs)


def _check_curvature():
    # K = det h / det g and M = |tr(g^-1 h)| / 2 from the two fundamental
    # forms, against the returned scalars and against 0 and 1/(2R)
    devs = []
    for r in (0.5, 1.0, 2.0):
        geom = CylinderGeometry(r, 1.0)
        for f in (0.0, 0.5, 7.0):
            curv = surface_curvatures(geom, f)
            g = twisted_metric(geom, f)
            h = curv.second_form
            gaussian = h.det / g.det
            mean = 0.5 * abs(np.trace(inverse_metric(g).contract(h)))
            derived = CurvatureData(h, mean, gaussian)
            devs += [abs(gaussian), abs(curv.gaussian - gaussian),
                     abs(mean - 1.0 / (2.0 * r)), abs(curv.mean - mean),
                     abs(da_costa_potential(derived, _PHYS)
                         + _PHYS.hbar2_over_2m / (4.0 * r * r))]
    return np.max(devs)


def _check_strain():
    ramp = TwistProfile.linear_ramp(0.3).f(np.linspace(0.0, 5.0, 51))
    devs = []
    for r in (0.5, 1.0, 2.0):
        geom = CylinderGeometry(r, 1.0)
        for f in (0.0, 0.5, 1.5, ramp):
            built = metric_from_strain(undeformed_metric(geom),
                                       strain_from_twist(geom, f))
            direct = twisted_metric(geom, f)
            devs += [np.max(np.abs(getattr(built, c) - getattr(direct, c)))
                     for c in ("g_pp", "g_pz", "g_zz")]
    return np.max(devs)


def _check_fd_spectrum():
    devs = []
    for l in (0, 1):
        vals = fd_bound_spectrum(l, _GEOM, TwistProfile.constant(0.0), _PHYS,
                                 2)
        for n, val in zip((1, 2), vals):
            exact = eigenenergy(ModeNumbers(l=l, n=n), _GEOM, _PHYS)
            devs.append(abs(val - exact) / abs(exact))
    return np.max(devs)


def _check_fd_twist():
    base = fd_bound_spectrum(1, _GEOM, TwistProfile.constant(0.0), _PHYS, 2)
    devs = []
    for twist in (TwistProfile.constant(0.7), TwistProfile.linear_ramp(0.3)):
        vals = fd_bound_spectrum(1, _GEOM, twist, _PHYS, 2)
        devs.append(np.max(np.abs(vals - base) / np.abs(base)))
    return np.max(devs)


def _check_density():
    twists = (TwistProfile.constant(0.0), TwistProfile.constant(0.5),
              TwistProfile.constant(1.0), TwistProfile.linear_ramp(0.3))
    devs = []
    for l, n in ((0, 1), (1, 1), (2, 2)):
        samples = [bound_wavefunction(ModeNumbers(l=l, n=n), _GEOM, twist,
                                      _PHYS, (64, 64)) for twist in twists]
        ref = samples[0].density()
        devs += [np.max(np.abs(s.density() - ref)) for s in samples]
        devs += [abs(s.norm() - 1.0) for s in samples]
    return np.max(devs)


def _check_subthreshold():
    # a NaN level is not above the floor either
    levels = 0
    for l in (0, 1):
        floor = gauge_potential_star(ModeNumbers(l=l), _GEOM, _PHYS)
        vals = fd_bound_spectrum(l, _GEOM, TwistProfile.constant(0.5), _PHYS,
                                 3)
        levels += np.count_nonzero(~(vals > floor))
    return levels


def _check_transparency():
    # the closed form has no twist input, so it runs untwisted; the ODE
    # oracle integrates the twisted equation, where l = 0 carries no twist;
    # a row not flagged ok reads |T-1| = 1 or NaN
    devs = []
    for l in (0, 1, 2):
        scenario = ScatteringScenario.embedded(_GEOM, 0.0, l)
        energies = scenario.outside_threshold + np.linspace(0.02, 8.0, 200)
        sweep = transmission_sweep(scenario, energies)
        devs.append(np.max(np.maximum(np.abs(sweep.transmission - 1.0),
                                      sweep.reflection)))
        for alpha in (0.5, 1.0, 2.0) if l else ():
            t_ode, r_ode = ode_transmission_oracle(
                energies, ScatteringScenario.embedded(_GEOM, alpha, l))
            devs.append(np.max(np.maximum(np.abs(t_ode - sweep.transmission),
                                          np.abs(r_ode - sweep.reflection))))
    return np.max(devs)


_FREE_ENERGIES = np.linspace(0.01, 12.0, 240)


def _check_unitarity():
    # the closed form reads no twist, so one untwisted sweep per l covers
    # all; every row is judged, so a degenerate (NaN) row fails
    devs = []
    for l in (0, 1):
        sweep = transmission_sweep(ScatteringScenario.free(_GEOM, 0.0, l),
                                   _FREE_ENERGIES)
        devs.append(np.max(np.abs(sweep.transmission + sweep.reflection
                                  - 1.0)))
    return np.max(devs)


def _check_free_alpha():
    # the twisted equation, integrated by the ODE oracle, against the
    # untwisted closed form
    base = transmission_sweep(ScatteringScenario.free(_GEOM, 0.0, 1),
                              _FREE_ENERGIES).transmission
    return np.max([np.abs(ode_transmission_oracle(
        _FREE_ENERGIES, ScatteringScenario.free(_GEOM, alpha, 1))[0] - base)
        for alpha in (0.5, 1.0)])


def _check_resonances():
    # the inside wavevector stacks n half-waves across the section
    scenario = ScatteringScenario.free(_GEOM, 0.3, 1)
    energies = scenario.inside_threshold + _PHYS.hbar2_over_2m * (
        np.arange(1, 6) * np.pi / _GEOM.length)**2
    return np.max([abs(solve_scattering(float(e), scenario).transmission
                       - 1.0) for e in energies])


def _check_cross_oracle():
    # eight random constant twists, then an embedded ramp and a free sine
    rng = random.Random(103)
    cases = []
    for i in range(8):
        geom = CylinderGeometry(rng.uniform(0.6, 2.0), rng.uniform(0.6, 2.0))
        l = rng.randrange(3)
        alpha = rng.uniform(0.0, 1.2)
        maker = (ScatteringScenario.embedded if i % 2 == 0
                 else ScatteringScenario.free)
        cases.append((maker(geom, alpha, l), rng.uniform(0.3, 5.0)))
    ramp = ScatteringScenario.embedded(_GEOM, TwistProfile.linear_ramp(0.3), 1)
    cases += [(ramp, 2.0), (ScatteringScenario.free(_GEOM, _SINE, 1), 2.0)]
    devs = []
    for scenario, offset in cases:
        energy = scenario.outside_threshold + offset
        sol = solve_scattering(energy, scenario)
        t_ode, r_ode = ode_transmission_oracle(energy, scenario)
        devs += [abs(sol.transmission - t_ode), abs(sol.reflection - r_ode)]
    return np.max(devs)


def _check_twist_phase():
    # the eigenvector of the literal operator carries the phase l theta(z)
    # on top of the real untwisted mode; theta = 0.4 sin 2z is no polynomial
    _, vecs, z = fd_eigenpairs(1, _GEOM, _SINE, _PHYS, 1)
    drift = np.unwrap(np.angle(vecs[:, 0]) - twist_phase(_SINE, 1, z))
    return drift.max() - drift.min()


CHECKS = (
    ("metric-determinant", "max scaled deviation", 1e-14, _check_metric_det),
    ("metric-inverse-identity", "max |g g^-1 - 1|", 1e-12, _check_inverse),
    ("metric-embedding-oracle", "max component deviation", 1e-6,
     _check_embedding),
    ("curvature-twist-invariance", "max deviation", 1e-14, _check_curvature),
    ("strain-metric-consistency", "max component deviation", 0.0,
     _check_strain),
    ("spectrum-fd-oracle", "max relative error", 1e-10, _check_fd_spectrum),
    ("spectrum-twist-invariance", "max relative spread", 1e-10,
     _check_fd_twist),
    ("density-twist-invariance", "max density deviation, |norm-1|", 1e-14,
     _check_density),
    ("no-subthreshold-states", "levels at or below V*", 0.0,
     _check_subthreshold),
    ("embedded-transparency", "max |T-1|, R, ODE |dT|, |dR|", 1e-10,
     _check_transparency),
    ("free-unitarity", "max |T+R-1|", 1e-10, _check_unitarity),
    ("free-twist-invariance", "max |T_a - T_0|", 1e-10, _check_free_alpha),
    ("free-resonances", "max |T-1| at predicted resonances", 1e-8,
     _check_resonances),
    ("scattering-ode-oracle", "max closed-form vs ODE deviation", 1e-8,
     _check_cross_oracle),
    ("twist-phase-oracle", "max phase drift", 1e-10, _check_twist_phase),
)


def run_check(name, measure, tol, check) -> tuple[bool, str]:
    """Run one ``CHECKS`` row; returns its verdict and its report line.

    The row passes when the measured value is at most ``tol``, so a NaN
    fails. A check that raises a TwistCylError or an ArithmeticError fails
    with the error as its detail.
    """
    try:
        value = float(check())
        ok = value <= tol
        detail = f"{measure} {value:.2e} (tol {tol:g})"
    except (TwistCylError, ArithmeticError) as exc:
        ok, detail = False, f"error: {type(exc).__name__}: {exc}"
    return ok, f"{'PASS' if ok else 'FAIL'}  {name:<28s} {detail}"


def run_validation() -> tuple[list[str], bool]:
    """Run every row of ``CHECKS``, the rest too after one fails; returns
    the report lines and the overall verdict."""
    results = [run_check(*row) for row in CHECKS]
    passed = sum(ok for ok, _ in results)
    ok = passed == len(CHECKS)
    return [*(line for _, line in results),
            f"{'OK' if ok else 'FAILED'}: {passed} of {len(CHECKS)} checks "
            "passed"], ok
