"""The package's named cross-checks: ``CHECKS``, one table that the
``validate`` CLI command runs and the acceptance tests parametrise over.

Closed forms against Chebyshev collocation of the literal twisted operator,
interface matching against direct ODE integration, and the twist-invariance
identities. Every check is deterministic (fixed seeds, fixed grids) so two
runs produce byte-identical reports.
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
from .scattering import (FLAG_OK, ScatteringScenario, solve_scattering,
                         transmission_sweep)
from .spectrum import (ModeNumbers, bound_wavefunction, eigenenergy,
                       gauge_potential_star, twist_phase)

_PHYS = PhysicsParams()
_GEOM = CylinderGeometry(radius=1.0, length=1.0)
_SINE = TwistProfile.profiled(lambda z: 0.4 * np.sin(2.0 * z),
                              lambda z: 0.8 * np.cos(2.0 * z))

# one np.max over all deviations keeps a NaN; max(0.0, nan) would be 0.0


def _check_metric_det():
    rng = random.Random(101)
    devs = []
    for _ in range(200):
        r = rng.uniform(0.1, 10.0)
        f = rng.uniform(-10.0, 10.0)
        g = twisted_metric(CylinderGeometry(r, 1.0), f)
        devs.append(abs(g.det - r * r) / (abs(g.g_pp * g.g_zz) + g.g_pz**2))
    worst = float(np.max(devs))
    return worst <= 1e-14, f"max scaled deviation {worst:.2e} (tol 1e-14)"


def _check_inverse():
    # R^2 f^2 <= 625 keeps the cancellation in g g^-1 below the 1e-12 budget
    rng = random.Random(102)
    devs = []
    eye = np.eye(2)
    for _ in range(200):
        r = rng.uniform(0.1, 5.0)
        f = rng.uniform(-5.0, 5.0)
        g = twisted_metric(CylinderGeometry(r, 1.0), f)
        devs.append(np.max(np.abs(g.contract(inverse_metric(g)) - eye)))
    worst = float(np.max(devs))
    return worst <= 1e-12, f"max |g g^-1 - 1| {worst:.2e} (tol 1e-12)"


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
    worst = float(np.max(devs))
    return worst <= 1e-6, f"max component deviation {worst:.2e} (tol 1e-6)"


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
    worst = float(np.max(devs))
    return worst <= 1e-14, f"max deviation {worst:.2e} (tol 1e-14)"


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
    worst = float(np.max(devs))
    return worst == 0.0, f"max component deviation {worst:.2e} (tol exact)"


def _check_fd_spectrum():
    devs = []
    for l in (0, 1):
        vals = fd_bound_spectrum(l, _GEOM, TwistProfile.constant(0.0), _PHYS,
                                 2)
        for n, val in zip((1, 2), vals):
            exact = eigenenergy(ModeNumbers(l=l, n=n), _GEOM, _PHYS)
            devs.append(abs(val - exact) / abs(exact))
    worst = float(np.max(devs))
    return worst <= 1e-10, f"max relative error {worst:.2e} (tol 1e-10)"


def _check_fd_twist():
    base = fd_bound_spectrum(1, _GEOM, TwistProfile.constant(0.0), _PHYS, 2)
    devs = []
    for twist in (TwistProfile.constant(0.7), TwistProfile.linear_ramp(0.3)):
        vals = fd_bound_spectrum(1, _GEOM, twist, _PHYS, 2)
        devs.append(np.max(np.abs(vals - base) / np.abs(base)))
    worst = float(np.max(devs))
    return worst <= 1e-10, f"max relative spread {worst:.2e} (tol 1e-10)"


def _check_density():
    twists = (TwistProfile.constant(0.0), TwistProfile.constant(0.5),
              TwistProfile.constant(1.0), TwistProfile.linear_ramp(0.3))
    devs = []
    norms = []
    for l, n in ((0, 1), (1, 1), (2, 2)):
        samples = [bound_wavefunction(ModeNumbers(l=l, n=n), _GEOM, twist,
                                      _PHYS, (64, 64)) for twist in twists]
        ref = samples[0].density()
        devs += [np.max(np.abs(s.density() - ref)) for s in samples]
        norms += [s.norm() - 1.0 for s in samples]
    worst = float(np.max(devs))
    norm = norms[int(np.argmax(np.abs(norms)))]
    ok = worst <= 1e-14 and abs(norm) <= 1e-6
    return ok, f"max density deviation {worst:.2e}, norm-1 {norm:.2e}"


def _check_subthreshold():
    margins = []
    for l in (0, 1):
        floor = gauge_potential_star(ModeNumbers(l=l), _GEOM, _PHYS)
        vals = fd_bound_spectrum(l, _GEOM, TwistProfile.constant(0.5), _PHYS,
                                 3)
        margins.append(np.min(vals) - floor)
    worst = float(np.min(margins))
    return worst > 0.0, f"smallest margin above the floor {worst:.2e}"


def _check_transparency():
    # the closed form has no twist input, so it runs untwisted; the ODE
    # oracle integrates the twisted equation, where l = 0 carries no twist
    devs = []
    all_ok = True
    for l in (0, 1, 2):
        scenario = ScatteringScenario.embedded(_GEOM, 0.0, l)
        energies = scenario.outside_threshold + np.linspace(0.02, 8.0, 200)
        sweep = transmission_sweep(scenario, energies)
        all_ok = all_ok and bool(np.all(sweep.flag == FLAG_OK))
        devs.append(np.max(np.maximum(np.abs(sweep.transmission - 1.0),
                                      sweep.reflection)))
        for alpha in (0.5, 1.0, 2.0) if l else ():
            t_ode, r_ode = ode_transmission_oracle(
                energies, ScatteringScenario.embedded(_GEOM, alpha, l))
            devs.append(np.max(np.maximum(np.abs(t_ode - sweep.transmission),
                                          np.abs(r_ode - sweep.reflection))))
    worst = float(np.max(devs))
    return (all_ok and worst <= 1e-10,
            f"max |T-1|, R, ODE |dT|, |dR| {worst:.2e} (tol 1e-10)")


_FREE_ENERGIES = np.linspace(0.01, 12.0, 240)


def _check_unitarity():
    # the closed form reads no twist, so one untwisted sweep per l covers all
    devs = []
    for l in (0, 1):
        sweep = transmission_sweep(ScatteringScenario.free(_GEOM, 0.0, l),
                                   _FREE_ENERGIES)
        ok = sweep.flag == FLAG_OK
        devs.append(np.max(np.abs(sweep.transmission[ok]
                                  + sweep.reflection[ok] - 1.0), initial=0.0))
    worst = float(np.max(devs))
    return worst <= 1e-10, f"max |T+R-1| {worst:.2e} (tol 1e-10)"


def _check_free_alpha():
    # the twisted equation, integrated by the ODE oracle, against the
    # untwisted closed form
    base = transmission_sweep(ScatteringScenario.free(_GEOM, 0.0, 1),
                              _FREE_ENERGIES).transmission
    worst = float(np.max([np.abs(ode_transmission_oracle(
        _FREE_ENERGIES, ScatteringScenario.free(_GEOM, alpha, 1))[0] - base)
        for alpha in (0.5, 1.0)]))
    return worst <= 1e-10, f"max |T_a - T_0| {worst:.2e} (tol 1e-10)"


def _check_resonances():
    # the inside wavevector stacks n half-waves across the section
    scenario = ScatteringScenario.free(_GEOM, 0.3, 1)
    energies = scenario.inside_threshold + _PHYS.hbar2_over_2m * (
        np.arange(1, 6) * np.pi / _GEOM.length)**2
    worst = float(np.max([abs(solve_scattering(float(e), scenario)
                              .transmission - 1.0) for e in energies]))
    return worst <= 1e-8, f"max |T-1| at predicted resonances {worst:.2e}"


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
    worst = float(np.max(devs))
    return worst <= 1e-8, f"max closed-form vs ODE deviation {worst:.2e}"


def _check_twist_phase():
    # the eigenvector of the literal operator carries the phase l theta(z)
    # on top of the real untwisted mode; theta = 0.4 sin 2z is no polynomial
    _, vecs, z = fd_eigenpairs(1, _GEOM, _SINE, _PHYS, 1)
    drift = np.unwrap(np.angle(vecs[:, 0]) - twist_phase(_SINE, 1, z))
    spread = float(drift.max() - drift.min())
    return spread <= 1e-10, f"max phase drift {spread:.2e} (tol 1e-10)"


CHECKS = (
    ("metric-determinant", _check_metric_det),
    ("metric-inverse-identity", _check_inverse),
    ("metric-embedding-oracle", _check_embedding),
    ("curvature-twist-invariance", _check_curvature),
    ("strain-metric-consistency", _check_strain),
    ("spectrum-fd-oracle", _check_fd_spectrum),
    ("spectrum-twist-invariance", _check_fd_twist),
    ("density-twist-invariance", _check_density),
    ("no-subthreshold-states", _check_subthreshold),
    ("embedded-transparency", _check_transparency),
    ("free-unitarity", _check_unitarity),
    ("free-twist-invariance", _check_free_alpha),
    ("free-resonances", _check_resonances),
    ("scattering-ode-oracle", _check_cross_oracle),
    ("twist-phase-oracle", _check_twist_phase),
)


def run_validation() -> tuple[list[str], bool]:
    """Run every check; returns the report lines and the overall verdict.

    A check that raises a TwistCylError or an ArithmeticError fails with
    the error as its detail, and the remaining checks still run.
    """
    lines = []
    failed = 0
    for name, check in CHECKS:
        try:
            ok, detail = check()
        except (TwistCylError, ArithmeticError) as exc:
            ok, detail = False, f"error: {type(exc).__name__}: {exc}"
        failed += 0 if ok else 1
        lines.append(f"{'PASS' if ok else 'FAIL'}  {name:<28s} {detail}")
    verdict = "OK" if failed == 0 else "FAILED"
    lines.append(f"{verdict}: {len(CHECKS) - failed} of {len(CHECKS)} "
                 "checks passed")
    return lines, failed == 0
