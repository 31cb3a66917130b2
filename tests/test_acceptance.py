"""Acceptance suite: one test per named check of ``twistcyl validate``, plus
the spectrum and cross-oracle criteria too costly for ``validate``.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one ``ACCEPTANCE``
line per check, as ``validate`` prints it, and one
``ACCEPTANCE <name>: PASS/FAIL (detail)`` line per criterion. The checks, their
sizes and their tolerances live in ``twistcyl.validation.CHECKS``, the table
the ``validate`` command runs, and each check is judged by ``run_check`` as
``validate`` judges it. The criterion tests below run the eigen-oracle and
the ODE oracle over fixed grids and draws at acceptance size, each against
the tolerance of the ``CHECKS`` row it scales up.
"""

import time

import numpy as np
import pytest

from twistcyl.geometry import CylinderGeometry, PhysicsParams, TwistProfile
from twistcyl.numeric import (fd_bound_spectrum, fd_eigenpairs,
                              ode_transmission_oracle)
from twistcyl.scattering import ScatteringScenario, solve_scattering
from twistcyl.spectrum import (ModeNumbers, eigenenergy,
                               gauge_potential_star, twist_phase)
from twistcyl.validation import CHECKS, run_check

# tolerance of each CHECKS row, by name
TOL = {name: tol for name, _, tol, _ in CHECKS}
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


@pytest.mark.parametrize("row", CHECKS, ids=[row[0] for row in CHECKS])
def test_check(row):
    ok, line = run_check(*row)
    print(f"ACCEPTANCE {line}")
    assert ok, line


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
    tol = TOL["spectrum-fd-oracle"]
    ok = worst <= tol and elapsed < 30.0
    _report("1 spectrum-eigen-oracle", ok,
            f"max rel err {worst:.2e} (tol {tol:g}), "
            f"runtime {elapsed:.1f}s < 30s")


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
    tol = TOL["spectrum-twist-invariance"]
    phase_tol = TOL["twist-phase-oracle"]
    ok = worst <= tol and phase_worst <= phase_tol
    _report("2 twist-invariant-energies", ok,
            f"max pairwise rel spread {worst:.2e} (tol {tol:g}), "
            f"max phase drift {phase_worst:.2e} (tol {phase_tol:g})")


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
        sol = solve_scattering(energy, scenario)
        t_ode, r_ode = ode_transmission_oracle(energy, scenario)
        worst = max(worst, abs(sol.transmission - t_ode),
                    abs(sol.reflection - r_ode))
    elapsed = time.monotonic() - started
    tol = TOL["scattering-ode-oracle"]
    ok = worst <= tol and elapsed < 60.0
    _report("6 cross-oracle", ok,
            f"max deviation {worst:.2e} (tol {tol:g}) on 50 tuples, "
            f"runtime {elapsed:.1f}s < 60s")


def test_criterion_8_no_subthreshold_states():
    # counted as the check counts them: a NaN level is not above the floor
    levels = 0
    for l in (0, 1, 2):
        for radius in (0.5, 1.0):
            geom = CylinderGeometry(radius, 1.0)
            floor = gauge_potential_star(ModeNumbers(l=l), geom, PHYS)
            for twist in TWISTS.values():
                vals = fd_bound_spectrum(l, geom, twist, PHYS, 3)
                levels += np.count_nonzero(~(vals > floor))
    tol = TOL["no-subthreshold-states"]
    _report("8 no-subthreshold-states", levels <= tol,
            f"eigen-oracle levels at or below the floor {levels} "
            f"(tol {tol:g})")
