"""Acceptance suite: one test per named check of ``twistcyl validate``, plus
criteria 1, 2, 6 and 8, which run the same checks over larger cases.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one ``ACCEPTANCE``
line per check, as ``validate`` prints it, and one
``ACCEPTANCE <criterion>: <line>`` per row a criterion runs, where ``<line>``
is that row's ``validate`` line over the criterion's cases. Each row of
``twistcyl.validation.CHECKS`` holds a check's function, its tolerance and
its cases; a criterion hands the row's first four columns to ``run_check``
with cases of its own, so the criterion measures and judges as ``validate``
does and no measurement is written here.
"""

import time

import numpy as np
import pytest

from twistcyl import validation
from twistcyl.geometry import CylinderGeometry, TwistProfile
from twistcyl.scattering import ScatteringScenario
from twistcyl.validation import CHECKS, TWISTS, run_check

ROWS = {row[0]: row for row in CHECKS}


@pytest.mark.parametrize("row", CHECKS, ids=[row[0] for row in CHECKS])
def test_check(row):
    ok, line = run_check(*row)
    print(f"ACCEPTANCE {line}")
    assert ok, line


def _criterion(label, runs, seconds=None):
    """Run each ``(row name, cases)`` of ``runs`` as ``validate`` runs the
    row, print one ``ACCEPTANCE`` line each, and assert that all pass, in
    under ``seconds`` when it is given."""
    started = time.monotonic()
    results = [run_check(*ROWS[name][:4], cases) for name, cases in runs]
    elapsed = time.monotonic() - started
    for _, line in results:
        print(f"ACCEPTANCE {label}: {line}")
    if seconds is not None:
        print(f"ACCEPTANCE {label}: runtime {elapsed:.1f}s < {seconds:g}s")
        assert elapsed < seconds, f"{label}: runtime {elapsed:.1f}s"
    assert all(ok for ok, _ in results), f"{label}: {results}"


def test_criterion_1_spectrum_matches_closed_form():
    _criterion("1 spectrum-eigen-oracle", [("spectrum-fd-oracle", [
        (CylinderGeometry(radius, length), l, 3) for radius in (0.5, 1.0, 2.0)
        for length in (1.0, 5.0) for l in (-2, -1, 0, 1, 2)])], seconds=30.0)


def test_criterion_2_energies_twist_invariant():
    # each twist against every later one
    _criterion("2 twist-invariant-energies", [
        ("spectrum-twist-invariance", [
            (CylinderGeometry(radius, 1.0), l, TWISTS[i:], 3)
            for radius in (1.0, 2.0) for l in (0, 1, 2)
            for i in range(len(TWISTS) - 1)]),
        ("twist-phase-oracle", [
            (l, twist) for l in (1, 2) for twist in
            (TwistProfile.constant(0.5), TwistProfile.linear_ramp(0.3))])])


def test_criterion_6_cross_oracle_agreement():
    rng = np.random.default_rng(20250810)
    cases = []
    for i in range(50):
        geom = CylinderGeometry(rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0))
        l = int(rng.integers(0, 3))
        alpha = rng.uniform(0.0, 1.5)
        maker = (ScatteringScenario.embedded if i % 2 == 0
                 else ScatteringScenario.free)
        cases.append((maker(geom, alpha, l), rng.uniform(0.05, 6.0)))
    _criterion("6 cross-oracle (50 tuples)",
               [("scattering-ode-oracle", cases)], seconds=60.0)


def test_criterion_8_no_subthreshold_states():
    _criterion("8 no-subthreshold-states", [("no-subthreshold-states", [
        (CylinderGeometry(radius, 1.0), l, twist) for l in (0, 1, 2)
        for radius in (0.5, 1.0) for twist in TWISTS])])


def test_one_patch_reaches_validate_and_criterion_1(monkeypatch, capsys):
    # the criterion measures through the row's own check, so an eigen-oracle
    # off by 1e-9 fails the validate row and the criterion alike
    exact = validation.fd_bound_spectrum
    monkeypatch.setattr(validation, "fd_bound_spectrum",
                        lambda *args: exact(*args) * (1.0 + 1e-9))
    lines, ok = validation.run_validation()
    assert not ok
    assert [line.split()[1] for line in lines
            if line.startswith("FAIL ")] == ["spectrum-fd-oracle"]
    with pytest.raises(AssertionError):
        test_criterion_1_spectrum_matches_closed_form()
    assert "FAIL  spectrum-fd-oracle" in capsys.readouterr().out
