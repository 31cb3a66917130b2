"""The package's named cross-checks: ``CHECKS``, one table that the
``validate`` CLI command runs and the acceptance tests run over larger cases.

Closed forms against Chebyshev collocation of the literal twisted operator,
interface matching against direct ODE integration, and the twist-invariance
identities. Each row of ``CHECKS`` holds a check's name, what it measures,
its tolerance, its function and its cases. The function measures one case
and returns one float; ``run_check`` takes the largest over the cases and
passes the row when that value is at most the tolerance, so a NaN fails.
The acceptance criteria hand a row's first four columns to ``run_check``
with larger cases of their own, so each measurement is written once. Every
case is fixed data (fixed seeds, fixed grids) so two runs produce
byte-identical reports.
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
# theta = 0.4 sin 2z is no polynomial
_SINE = TwistProfile.profiled(lambda z: 0.4 * np.sin(2.0 * z),
                              lambda z: 0.8 * np.cos(2.0 * z))
# the twists density-twist-invariance compares, the first as reference
TWISTS = (TwistProfile.constant(0.0), TwistProfile.constant(0.5),
          TwistProfile.constant(1.0), TwistProfile.linear_ramp(0.3))

# each check measures one case; run_check takes np.max over the cases,
# which keeps a NaN where max(0.0, nan) would be 0.0


def _draws(seed, r_max, f_max):
    """200 (R, f) draws: R in [0.1, r_max), then f in [-f_max, f_max)."""
    rng = random.Random(seed)
    return [(rng.uniform(0.1, r_max), rng.uniform(-f_max, f_max))
            for _ in range(200)]


def _metric_det(r, f):
    g = twisted_metric(CylinderGeometry(r, 1.0), f)
    return abs(g.det - r * r) / g.det_scale


def _inverse(r, f):
    g = twisted_metric(CylinderGeometry(r, 1.0), f)
    return np.max(np.abs(g.contract(inverse_metric(g)) - np.eye(2)))


def _embedding(twist, z):
    # both fundamental forms from differences of the embedding, against
    # twisted_metric and surface_curvatures' second form
    geom = CylinderGeometry(2.0, 5.0)
    fd = [metric_from_embedding_fd(geom, twist, (0.3, z)),
          second_form_from_embedding_fd(geom, twist, (0.3, z))]
    closed = [twisted_metric(geom, twist.f(z)),
              surface_curvatures(geom, twist.f(z)).second_form]
    return np.max([np.abs(a.as_array() - b.as_array())
                   for a, b in zip(fd, closed)])


def _curvature(r, f):
    # K = det h / det g and M = |tr(g^-1 h)| / 2 from the two fundamental
    # forms, against the returned scalars and against 0 and 1/(2R)
    geom = CylinderGeometry(r, 1.0)
    curv = surface_curvatures(geom, f)
    g = twisted_metric(geom, f)
    h = curv.second_form
    gaussian = h.det / g.det
    mean = 0.5 * abs(np.trace(inverse_metric(g).contract(h)))
    derived = CurvatureData(h, mean, gaussian)
    return np.max([abs(gaussian), abs(curv.gaussian - gaussian),
                   abs(mean - 1.0 / (2.0 * r)), abs(curv.mean - mean),
                   abs(da_costa_potential(derived, _PHYS)
                       + _PHYS.hbar2_over_2m / (4.0 * r * r))])


def _strain(r, f):
    geom = CylinderGeometry(r, 1.0)
    built = metric_from_strain(undeformed_metric(geom),
                               strain_from_twist(geom, f))
    direct = twisted_metric(geom, f)
    return np.max([np.max(np.abs(getattr(built, c) - getattr(direct, c)))
                   for c in ("g_pp", "g_pz", "g_zz")])


def _fd_spectrum(geom, l, count):
    vals = fd_bound_spectrum(l, geom, TwistProfile.constant(0.0), _PHYS,
                             count)
    exact = [eigenenergy(ModeNumbers(l=l, n=n), geom, _PHYS)
             for n in range(1, count + 1)]
    return np.max(np.abs(vals - exact) / np.abs(exact))


def _fd_twist(geom, l, twists, count):
    # each later twist against the first
    base, *rest = [fd_bound_spectrum(l, geom, twist, _PHYS, count)
                   for twist in twists]
    return np.max(np.abs(np.subtract(rest, base)) / np.abs(base))


def _density(l, n):
    samples = [bound_wavefunction(ModeNumbers(l=l, n=n), _GEOM, twist,
                                  _PHYS, (64, 64)) for twist in TWISTS]
    ref = samples[0].density()
    return np.max([np.max(np.abs(s.density() - ref)) for s in samples]
                  + [abs(s.norm() - 1.0) for s in samples])


def _subthreshold(geom, l, twist):
    # a NaN level is not above the floor either
    floor = gauge_potential_star(ModeNumbers(l=l), geom, _PHYS)
    vals = fd_bound_spectrum(l, geom, twist, _PHYS, 3)
    return np.count_nonzero(~(vals > floor))


def _transparency(l, alphas):
    # the closed form has no twist input, so it runs untwisted; the ODE
    # oracle integrates the twisted equation at each alpha (l = 0 carries
    # no twist, so its case has none); a row not flagged ok reads |T-1| = 1
    # or NaN
    scenario = ScatteringScenario.embedded(_GEOM, 0.0, l)
    energies = scenario.outside_threshold + np.linspace(0.02, 8.0, 200)
    sweep = transmission_sweep(scenario, energies)
    devs = [np.maximum(np.abs(sweep.transmission - 1.0), sweep.reflection)]
    for alpha in alphas:
        t_ode, r_ode = ode_transmission_oracle(
            energies, ScatteringScenario.embedded(_GEOM, alpha, l))
        devs.append(np.maximum(np.abs(t_ode - sweep.transmission),
                               np.abs(r_ode - sweep.reflection)))
    return np.max(devs)


_FREE_ENERGIES = np.linspace(0.01, 12.0, 240)


def _unitarity(l):
    # the closed form reads no twist, so one untwisted sweep per l covers
    # all; every row is judged, so a degenerate (NaN) row fails
    sweep = transmission_sweep(ScatteringScenario.free(_GEOM, 0.0, l),
                               _FREE_ENERGIES)
    return np.max(np.abs(sweep.transmission + sweep.reflection - 1.0))


def _free_alpha(alphas):
    # the twisted equation, integrated by the ODE oracle, against the
    # untwisted closed form
    base = transmission_sweep(ScatteringScenario.free(_GEOM, 0.0, 1),
                              _FREE_ENERGIES).transmission
    return np.max([np.abs(ode_transmission_oracle(
        _FREE_ENERGIES, ScatteringScenario.free(_GEOM, alpha, 1))[0] - base)
        for alpha in alphas])


# the inside wavevector stacks n = 1..5 half-waves across the section
_RESONANT = ScatteringScenario.free(_GEOM, 0.3, 1)
_RESONANCES = _RESONANT.inside_threshold + _PHYS.hbar2_over_2m * (
    np.arange(1, 6) * np.pi / _GEOM.length)**2


def _resonance(energy):
    return abs(solve_scattering(energy, _RESONANT).transmission - 1.0)


def _cross_oracle(scenario, offset):
    energy = scenario.outside_threshold + offset
    sol = solve_scattering(energy, scenario)
    t_ode, r_ode = ode_transmission_oracle(energy, scenario)
    return np.max([abs(sol.transmission - t_ode),
                   abs(sol.reflection - r_ode)])


def _cross_oracle_cases():
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
    sine = ScatteringScenario.free(_GEOM, _SINE, 1)
    return cases + [(ramp, 2.0), (sine, 2.0)]


def _twist_phase(l, twist):
    # the eigenvector of the literal operator carries the phase l theta(z)
    # on top of the real untwisted mode
    _, vecs, z = fd_eigenpairs(l, _GEOM, twist, _PHYS, 1)
    drift = np.unwrap(np.angle(vecs[:, 0]) - twist_phase(twist, l, z))
    return drift.max() - drift.min()


_RAMP_F = TwistProfile.linear_ramp(0.3).f(np.linspace(0.0, 5.0, 51))

CHECKS = (
    ("metric-determinant", "max scaled deviation", 1e-14, _metric_det,
     _draws(101, 10.0, 10.0)),
    # R^2 f^2 <= 625 keeps the cancellation in g g^-1 below its tolerance
    ("metric-inverse-identity", "max |g g^-1 - 1|", 1e-12, _inverse,
     _draws(102, 5.0, 5.0)),
    ("metric-embedding-oracle", "max component deviation", 1e-6,
     _embedding, [(TwistProfile.constant(0.5), 0.7),
                  (TwistProfile.linear_ramp(0.3), 2.0)]),
    ("curvature-twist-invariance", "max deviation", 1e-14, _curvature,
     [(r, f) for r in (0.5, 1.0, 2.0) for f in (0.0, 0.5, 7.0)]),
    ("strain-metric-consistency", "max component deviation", 0.0, _strain,
     [(r, f) for r in (0.5, 1.0, 2.0) for f in (0.0, 0.5, 1.5, _RAMP_F)]),
    ("spectrum-fd-oracle", "max relative error", 1e-10, _fd_spectrum,
     [(_GEOM, l, 2) for l in (0, 1)]),
    ("spectrum-twist-invariance", "max relative spread", 1e-10, _fd_twist,
     [(_GEOM, 1, (TwistProfile.constant(0.0), TwistProfile.constant(0.7),
                  TwistProfile.linear_ramp(0.3)), 2)]),
    ("density-twist-invariance", "max density deviation, |norm-1|", 1e-14,
     _density, [(0, 1), (1, 1), (2, 2)]),
    ("no-subthreshold-states", "levels at or below V*", 0.0, _subthreshold,
     [(_GEOM, l, TwistProfile.constant(0.5)) for l in (0, 1)]),
    ("embedded-transparency", "max |T-1|, R, ODE |dT|, |dR|", 1e-10,
     _transparency, [(0, ()), (1, (0.5, 1.0, 2.0)), (2, (0.5, 1.0, 2.0))]),
    ("free-unitarity", "max |T+R-1|", 1e-10, _unitarity, [(0,), (1,)]),
    ("free-twist-invariance", "max |T_a - T_0|", 1e-10, _free_alpha,
     [((0.5, 1.0),)]),
    ("free-resonances", "max |T-1| at predicted resonances", 1e-8,
     _resonance, [(float(e),) for e in _RESONANCES]),
    ("scattering-ode-oracle", "max closed-form vs ODE deviation", 1e-8,
     _cross_oracle, _cross_oracle_cases()),
    ("twist-phase-oracle", "max phase drift", 1e-10, _twist_phase,
     [(1, _SINE)]),
)


def run_check(name, measure, tol, check, cases) -> tuple[bool, str]:
    """Run ``check`` over ``cases`` as one ``CHECKS`` row; returns its
    verdict and its report line.

    The value is the largest the check measured over the cases, or the
    first NaN, so a NaN in any case stays; the row passes when that value
    is at most ``tol``, so a NaN fails. A check that raises a TwistCylError
    or an ArithmeticError fails with the error as its detail. A failing
    line ends with ``[case <i>]``, the index in ``cases`` of the case that
    gave the value or raised.
    """
    values = []
    try:
        for case in cases:
            values.append(check(*case))
        at = int(np.argmax(values))  # the first NaN, else the largest
        value = float(values[at])
        ok = value <= tol
        detail = f"{measure} {value:.2e} (tol {tol:g})"
    except (TwistCylError, ArithmeticError) as exc:
        at, ok = len(values), False
        detail = f"error: {type(exc).__name__}: {exc}"
    if not ok:
        detail += f" [case {at}]"
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
