"""Acceptance suite: one test per named check of ``twistcyl validate``, plus
the spectrum and cross-oracle criteria too costly for ``validate``.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one
``ACCEPTANCE <name>: PASS/FAIL (detail)`` line per check. The checks, their
sizes and their tolerances live in ``twistcyl.validation.CHECKS``, the table
the ``validate`` command runs. The criterion tests below run the eigen-oracle
and the ODE oracle over fixed grids and draws at acceptance size.
"""

import time

import numpy as np
import pytest

from twistcyl.geometry import CylinderGeometry, PhysicsParams, TwistProfile
from twistcyl.numeric import (fd_bound_spectrum, fd_eigenpairs,
                              ode_transmission_oracle)
from twistcyl.scattering import ScatteringScenario, solve_scattering
from twistcyl.spectrum import (ModeNumbers, eigenenergy,
                               no_bound_states_below, twist_phase)
from twistcyl.validation import CHECKS

PHYS = PhysicsParams()
GEOM = CylinderGeometry(radius=1.0, length=1.0)

TWISTS = {
    "alpha=0": TwistProfile.constant(0.0),
    "alpha=0.5": TwistProfile.constant(0.5),
    "alpha=1.0": TwistProfile.constant(1.0),
    "ramp0.3": TwistProfile.linear_ramp(0.3),
}


def _report(name: str, ok: bool, detail: str):
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{name}: {detail}"


@pytest.mark.parametrize("name, check", CHECKS,
                         ids=[name for name, _ in CHECKS])
def test_check(name, check):
    _report(name, *check())


def test_criterion_1_spectrum_matches_closed_form():
    started = time.monotonic()
    worst = 0.0
    for radius in (0.5, 1.0, 2.0):
        for length in (1.0, 5.0):
            geom = CylinderGeometry(radius, length)
            for l in (-2, -1, 0, 1, 2):
                vals = fd_bound_spectrum(l, geom, TwistProfile.constant(0.0),
                                         PHYS, 3)
                for n, val in zip((1, 2, 3), vals):
                    exact = eigenenergy(ModeNumbers(l=l, n=n), geom, PHYS)
                    worst = max(worst, abs(val - exact) / abs(exact))
    elapsed = time.monotonic() - started
    ok = worst <= 1e-10 and elapsed < 30.0
    _report("1 spectrum-eigen-oracle", ok,
            f"max rel err {worst:.2e} (tol 1e-10), runtime {elapsed:.1f}s < 30s")


def test_criterion_2_energies_twist_invariant():
    worst = 0.0
    for radius in (1.0, 2.0):
        geom = CylinderGeometry(radius, 1.0)
        for l in (0, 1, 2):
            spectra = [fd_bound_spectrum(l, geom, twist, PHYS, 3)
                       for twist in TWISTS.values()]
            for i in range(len(spectra)):
                for j in range(i + 1, len(spectra)):
                    worst = max(worst, float(np.max(
                        np.abs(spectra[i] - spectra[j]) / np.abs(spectra[i]))))
    phase_worst = 0.0
    for l in (1, 2):
        for twist in (TwistProfile.constant(0.5), TwistProfile.linear_ramp(0.3)):
            _, vecs, z = fd_eigenpairs(l, GEOM, twist, PHYS, 1)
            drift = np.unwrap(np.angle(vecs[:, 0]) - twist_phase(twist, l, z))
            phase_worst = max(phase_worst, float(drift.max() - drift.min()))
    ok = worst <= 1e-10 and phase_worst <= 1e-10
    _report("2 twist-invariant-energies", ok,
            f"max pairwise rel spread {worst:.2e} (tol 1e-10), "
            f"max phase drift {phase_worst:.2e} (tol 1e-10)")


def test_criterion_6_cross_oracle_agreement():
    started = time.monotonic()
    rng = np.random.default_rng(20250810)
    worst = 0.0
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
        worst = max(worst, abs(sol.transmission - t_ode),
                    abs(sol.reflection - r_ode))
    elapsed = time.monotonic() - started
    ok = worst <= 1e-8 and elapsed < 60.0
    _report("6 cross-oracle", ok,
            f"max deviation {worst:.2e} (tol 1e-8) on 50 tuples, "
            f"runtime {elapsed:.1f}s < 60s")


def test_criterion_8_no_subthreshold_states():
    margin = np.inf
    for l in (0, 1, 2):
        for radius in (0.5, 1.0):
            geom = CylinderGeometry(radius, 1.0)
            floor = no_bound_states_below(ModeNumbers(l=l), geom, PHYS)
            for twist in TWISTS.values():
                vals = fd_bound_spectrum(l, geom, twist, PHYS, 3)
                margin = min(margin, float(np.min(vals) - floor))
    ok = margin > 0.0
    _report("8 no-subthreshold-states", ok,
            f"smallest eigen-oracle margin above the floor {margin:.3e}")
