"""Benchmark workloads: seeded config generators and artifact checkers.

Each workload is one twistcyl CLI command on one generated config. The seed
only jitters physical values inside the ranges stated in each generator; row
counts, grid sizes and the command never change, so the amount of work per
invocation stays fixed from seed to seed.

Checkers parse the artifact and compare it with the closed forms. Their
tolerances are far above the 12 printed significant digits, so a refactor
that moves the last printed digit still passes.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from collections import Counter
from dataclasses import dataclass
from typing import Callable

import numpy as np

# hbar = m = 1 in natural units, so hbar^2 / 2m is 1/2
_T = 0.5
# energy grids keep this far from a threshold, so no point is flagged
# degenerate (the CLI's window is 1e-9) and the sub/above split is clean
_THRESHOLD_GAP = 1e-6
_UNITARITY_TOL = 1e-9
_ORACLE_TOL = 1e-8
_WAVE_TOL = 1e-8


class CheckFailed(Exception):
    """The artifact does not match the closed forms or its schema."""


@dataclass(frozen=True)
class Case:
    """One generated invocation: CLI command, config text and the physical
    values the checker needs."""

    command: str
    ini: str
    params: dict


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    seed_effect: str
    make: Callable[[int, bool], Case]
    # returns (data rows, points per scattering flag)
    check: Callable[[Case, str], tuple]
    # a copy of a good artifact's text made wrong in a way check must catch
    corrupt: Callable[[str], str]


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def _ini(sections: dict) -> str:
    lines = []
    for section, entries in sections.items():
        lines.append(f"[{section}]")
        lines.extend(f"{key} = {value}" for key, value in entries.items())
    return "\n".join(lines) + "\n"


def _grid(e_min: float, e_max: float, points: int, threshold: float) -> float:
    """Nudge e_max until no grid energy sits within the threshold gap."""
    while np.min(np.abs(np.linspace(e_min, e_max, points) - threshold)) \
            < _THRESHOLD_GAP:
        e_max = round(e_max + 1e-4, 6)
    return e_max


def _read_csv(path: str, schema: str, ini: str):
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    _require(len(lines) >= 3, "artifact has no header")
    _require(lines[0] == f"# schema: {schema}", f"bad schema line {lines[0]!r}")
    sha = hashlib.sha256(ini.encode("utf-8")).hexdigest()
    _require(lines[1] == f"# config-sha256: {sha}", "config hash mismatch")
    return lines[2].split(","), lines[3:]


def _check_energies(energies, params: dict) -> None:
    want = np.linspace(params["e_min"], params["e_max"], params["points"])
    _require(len(energies) == want.size,
             f"{len(energies)} rows, expected {want.size}")
    _require(np.allclose(energies, want, rtol=1e-10, atol=0.0),
             "energy column does not match the configured grid")


# --- sweep-free --------------------------------------------------------------

def _make_sweep(seed: int, tiny: bool) -> Case:
    """alpha_k = 0.25 k + U(0, 0.2) for k < 8 (2 in tiny mode); grid end
    U(7.9, 8.1); 5000 energies from 0.01 (50 in tiny mode); l = 1, R = L = 1."""
    rng = random.Random(seed)
    count, points = (2, 50) if tiny else (8, 5000)
    alphas = [round(0.25 * k + rng.uniform(0.0, 0.2), 6) for k in range(count)]
    l = 1
    e_min = 0.01
    inside = _T * (l * l - 0.25)
    e_max = _grid(e_min, round(rng.uniform(7.9, 8.1), 6), points, inside)
    ini = _ini({
        "geometry": {"radius": 1.0, "length": 1.0},
        "twist": {"alpha": 0.0},
        "scattering": {"l": l},
        "energy_grid": {"min": e_min, "max": e_max, "points": points},
        "sweep": {"scenario": "free", "vary": "alpha",
                  "values": ", ".join(repr(a) for a in alphas)},
    })
    oracle_rows = sorted(rng.sample(range(points), 3))
    return Case("sweep", ini,
                {"alphas": alphas, "l": l, "e_min": e_min, "e_max": e_max,
                 "points": points, "oracle_rows": oracle_rows})


def _check_sweep(case: Case, path: str) -> tuple:
    p = case.params
    header, lines = _read_csv(path, "twistcyl-sweep-v1", case.ini)
    want = ["energy"]
    for alpha in p["alphas"]:
        label = f"alpha={format(alpha, '.12g')}"
        want += [f"T[{label}]", f"R[{label}]", f"flag[{label}]"]
    _require(header == want, f"header {header[:4]}... does not match")
    rows = [line.split(",") for line in lines]
    _require(all(len(row) == len(want) for row in rows), "ragged rows")
    _check_energies([float(row[0]) for row in rows], p)
    flags = {row[c] for row in rows for c in range(3, len(want), 3)}
    _require(flags == {"ok"}, f"flags {sorted(flags)}, expected only ok")
    trans = np.array([[float(row[c]) for c in range(1, len(want), 3)]
                      for row in rows])
    refl = np.array([[float(row[c]) for c in range(2, len(want), 3)]
                     for row in rows])
    worst = float(np.max(np.abs(trans + refl - 1.0)))
    _require(worst <= _UNITARITY_TOL, f"max |T+R-1| {worst:.2e}")
    spread = float(np.max(np.abs(trans - trans[:, :1])))
    _require(spread <= _UNITARITY_TOL, f"T differs across alpha by {spread:.2e}")

    from twistcyl.geometry import CylinderGeometry
    from twistcyl.numeric import ode_transmission_oracle
    from twistcyl.scattering import ScatteringScenario
    geom = CylinderGeometry(radius=1.0, length=1.0)
    for row in p["oracle_rows"]:
        for col in (0, len(p["alphas"]) - 1):
            scenario = ScatteringScenario.free(geom, p["alphas"][col], p["l"])
            t_ode, r_ode = ode_transmission_oracle(float(rows[row][0]),
                                                   scenario)
            err = max(abs(trans[row, col] - t_ode), abs(refl[row, col] - r_ode))
            _require(err <= _ORACLE_TOL,
                     f"ODE oracle differs by {err:.2e} at row {row}")
    return len(rows), {"ok": trans.size}


def _corrupt_sweep(text: str) -> str:
    """Raise T of the first alpha in the middle row by 1e-6."""
    lines = text.split("\n")
    mid = 3 + (len(lines) - 4) // 2
    fields = lines[mid].split(",")
    fields[1] = format(float(fields[1]) + 1e-6, ".12g")
    lines[mid] = ",".join(fields)
    return "\n".join(lines)


# --- scatter-embedded-json ---------------------------------------------------

def _make_embedded(seed: int, tiny: bool) -> Case:
    """alpha U(0.3, 0.7); grid end U(11.9, 12.1); 20,000 energies from 0.01
    (200 in tiny mode); l = 2, R = L = 1. The narrow grid-end range keeps the
    sub-threshold share, and so the number of solves, within 1%."""
    rng = random.Random(seed)
    points = 200 if tiny else 20000
    l = 2
    alpha = round(rng.uniform(0.3, 0.7), 6)
    e_min = 0.01
    threshold = _T * (l * l - 0.25)
    e_max = _grid(e_min, round(rng.uniform(11.9, 12.1), 6), points, threshold)
    ini = _ini({
        "geometry": {"radius": 1.0, "length": 1.0},
        "twist": {"alpha": alpha},
        "scattering": {"l": l},
        "energy_grid": {"min": e_min, "max": e_max, "points": points},
        "output": {"format": "json"},
    })
    return Case("scatter-embedded", ini,
                {"alpha": alpha, "l": l, "e_min": e_min, "e_max": e_max,
                 "points": points, "threshold": threshold})


def _check_embedded(case: Case, path: str) -> tuple:
    p = case.params
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except ValueError as exc:
        raise CheckFailed(f"artifact is not JSON: {exc}") from None
    _require(isinstance(doc, dict), "artifact is not a JSON object")
    _require(doc.get("schema") == "twistcyl-scatter-v1", "bad schema")
    sha = hashlib.sha256(case.ini.encode("utf-8")).hexdigest()
    _require(doc.get("config_sha256") == sha, "config hash mismatch")
    rows = doc.get("rows")
    _require(isinstance(rows, list), "no rows list")
    _require(all(isinstance(row, dict)
                 and set(row) == {"energy", "T", "R", "flag"} for row in rows),
             "rows do not carry exactly energy, T, R, flag")
    _check_energies([row["energy"] for row in rows], p)
    for row in rows:
        energy, trans, refl = row["energy"], row["T"], row["R"]
        if energy <= p["threshold"]:
            _require(row["flag"] == "sub_threshold" and trans == 0.0
                     and refl == 1.0, f"bad sub-threshold row {row}")
        else:
            _require(row["flag"] == "ok" and isinstance(trans, float)
                     and isinstance(refl, float), f"bad row {row}")
            _require(abs(trans - 1.0) <= _UNITARITY_TOL
                     and refl <= _UNITARITY_TOL,
                     f"not transparent at {energy}: T={trans} R={refl}")
    return len(rows), dict(Counter(row["flag"] for row in rows))


def _corrupt_embedded(text: str) -> str:
    """Give the last (above-threshold) row a reflection of 1e-6."""
    doc = json.loads(text)
    doc["rows"][-1]["R"] = 1e-6
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


# --- wavefunction-csv --------------------------------------------------------

def _make_wavefunction(seed: int, tiny: bool) -> Case:
    """linear-ramp alpha0 U(0.2, 0.4); n from {1, 2, 3}; l from
    {-2, -1, 1, 2} (l = 0 would skip the phase integral); 512 x 512 grid
    (16 x 16 in tiny mode); R = L = 1."""
    rng = random.Random(seed)
    size = 16 if tiny else 512
    alpha0 = round(rng.uniform(0.2, 0.4), 6)
    n = rng.choice((1, 2, 3))
    l = rng.choice((-2, -1, 1, 2))
    ini = _ini({
        "geometry": {"radius": 1.0, "length": 1.0},
        "twist": {"profile": "linear-ramp", "alpha0": alpha0},
        "wavefunction": {"n": n, "l": l, "n_phi": size, "n_z": size},
    })
    return Case("wavefunction", ini,
                {"alpha0": alpha0, "n": n, "l": l, "n_phi": size, "n_z": size})


def _check_wavefunction(case: Case, path: str) -> tuple:
    p = case.params
    header, lines = _read_csv(path, "twistcyl-wavefunction-v1", case.ini)
    _require(header == ["phi", "z", "re_psi", "im_psi", "density"],
             f"bad header {header}")
    rows = p["n_phi"] * p["n_z"]
    _require(len(lines) == rows, f"{len(lines)} rows, expected {rows}")
    try:
        data = np.loadtxt(lines, delimiter=",", ndmin=2)
    except ValueError as exc:
        raise CheckFailed(f"unparsable row: {exc}") from None
    _require(data.shape == (rows, 5), f"data shape {data.shape}")
    phi, z = data[:, 0], data[:, 1]
    want_phi = np.tile(np.linspace(0.0, 2.0 * np.pi, p["n_phi"],
                                   endpoint=False), p["n_z"])
    want_z = np.repeat(np.linspace(0.0, 1.0, p["n_z"]), p["n_phi"])
    _require(np.allclose(phi, want_phi, rtol=0.0, atol=1e-10)
             and np.allclose(z, want_z, rtol=0.0, atol=1e-10),
             "grid is not z-major over the configured axes")
    amp = np.sin(p["n"] * np.pi * want_z) / math.sqrt(math.pi)
    psi = amp * np.exp(1j * p["l"] * (want_phi + p["alpha0"] * want_z**2))
    worst_density = float(np.max(np.abs(data[:, 4] - amp**2)))
    _require(worst_density <= _WAVE_TOL,
             f"density off sin^2/(pi R L) by {worst_density:.2e}")
    worst_psi = float(np.max(np.abs(data[:, 2] + 1j * data[:, 3] - psi)))
    _require(worst_psi <= _WAVE_TOL,
             f"psi off the closed-form phase by {worst_psi:.2e}")
    return rows, {}


def _corrupt_wavefunction(text: str) -> str:
    """Rotate the phase of the densest row by 1e-4 at unchanged density."""
    lines = text.split("\n")
    top = max(range(3, len(lines) - 1),
              key=lambda i: float(lines[i].rsplit(",", 1)[1]))
    phi, z, re_psi, im_psi, density = lines[top].split(",")
    psi = complex(float(re_psi), float(im_psi)) * complex(math.cos(1e-4),
                                                          math.sin(1e-4))
    lines[top] = ",".join((phi, z, format(psi.real, ".12g"),
                           format(psi.imag, ".12g"), density))
    return "\n".join(lines)


# --- validate ----------------------------------------------------------------

def _make_validate(seed: int, tiny: bool) -> Case:
    """The built-in check suite takes no input: the seed has no effect."""
    return Case("validate", "", {})


def _check_validate(case: Case, path: str) -> tuple:
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    _require(bool(lines) and lines[-1].startswith("OK:"),
             f"last line {lines[-1:]!r} does not start with OK:")
    return len(lines), {}


def _corrupt_validate(text: str) -> str:
    """Replace the verdict with a failing one."""
    lines = text.rstrip("\n").split("\n")
    lines[-1] = "FAILED: 0 checks passed"
    return "\n".join(lines) + "\n"


WORKLOADS = {w.name: w for w in (
    Workload(
        "sweep-free",
        "solve-heavy: 8 x 5000 free-particle points, the only workload that "
        "uses the sweep thread pool; about 5% of points tunnel",
        "jitters the alpha list and the grid end", _make_sweep, _check_sweep,
        _corrupt_sweep),
    Workload(
        "scatter-embedded-json",
        "same solve layer used differently: one scenario, no pool, ~16% of "
        "points take the sub_threshold path without a solve; JSON rendering",
        "jitters alpha and the grid end", _make_embedded, _check_embedded,
        _corrupt_embedded),
    Workload(
        "wavefunction-csv",
        "render-and-write: a 19.9 MB CSV that bypasses the solve entirely",
        "jitters alpha0, n and l", _make_wavefunction, _check_wavefunction,
        _corrupt_wavefunction),
    Workload(
        "validate",
        "set-up dominated; the only workload reaching the FD eigensolver and "
        "the ODE oracle, and the control for lazy import of scipy.integrate",
        "none: validate takes no input", _make_validate, _check_validate,
        _corrupt_validate),
)}
