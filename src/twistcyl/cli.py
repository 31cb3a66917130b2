"""Command-line front end: config parsing, dispatch, CSV/JSON artifacts.

Run configurations are flat INI-style documents, UTF-8, with ``[section]``
headers and ``key = value`` pairs; full-line comments start with ``#`` or
``;``. Unknown sections or keys are rejected, and so are non-finite numbers.
In the ``electron_nm_eV`` unit preset, numeric values accept a unit suffix
(``radius = 2 nm``, ``alpha = 0.5 1/nm``, ``min = 10 meV``); in natural
units suffixes are errors.

Outputs are deterministic: identical config and command produce identical
bytes. Data files carry no timestamps, only a schema tag and the SHA-256 of
the config text.

Exit codes: 0 success, 1 config error, 2 numerical failure,
3 validation failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError, TwistCylError
from .geometry import (ELECTRON_NM_EV, NATURAL, CylinderGeometry,
                       PhysicsParams, TwistProfile)
from .scattering import ScatteringScenario, transmission_sweep
from .spectrum import ModeNumbers, bound_wavefunction, list_bound_states
from .validation import run_validation

COMMANDS = ("spectrum", "wavefunction", "scatter-embedded", "scatter-free",
            "sweep", "validate")

_SCHEMA = {
    "run": {"command"},
    "physics": {"hbar", "mass", "unit_system"},
    "geometry": {"radius", "length"},
    "twist": {"profile", "alpha", "alpha0"},
    "modes": {"n_max", "l_max"},
    "scattering": {"l"},
    "energy_grid": {"min", "max", "points"},
    "sweep": {"scenario", "vary", "values"},
    "wavefunction": {"n", "l", "n_phi", "n_z"},
    "output": {"path", "format"},
}

# fixed unit-conversion tables for the electron_nm_eV preset
_UNIT_TABLES = {
    "length": {"nm": 1.0, "angstrom": 0.1, "A": 0.1},
    "inverse_length": {"1/nm": 1.0, "1/angstrom": 10.0, "1/A": 10.0},
    "energy": {"eV": 1.0, "meV": 1e-3},
}


@dataclass(frozen=True)
class SweepSpec:
    scenario: str  # "embedded" | "free"
    vary: str      # "alpha" | "l" | "radius"
    values: tuple


@dataclass(frozen=True)
class WavefunctionSpec:
    n: int
    l: int
    n_phi: int
    n_z: int


@dataclass(frozen=True)
class RunConfig:
    """Fully validated run description; built by ``parse_config``."""

    command: str | None
    physics: PhysicsParams
    geometry: CylinderGeometry | None
    twist: TwistProfile
    n_max: int
    l_max: int
    scattering_l: int
    energy_grid: tuple[float, float, int] | None
    sweep: SweepSpec | None
    wavefunction: WavefunctionSpec | None
    output_path: str | None
    output_format: str
    config_sha256: str
    echo: dict


def _tokenize(text: str) -> dict:
    entries = {}
    section = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#") or line.startswith(";"):
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise ConfigError("malformed section header", lineno)
            section = line[1:-1].strip()
            if section not in _SCHEMA:
                raise ConfigError(f"unknown section [{section}]", lineno)
            continue
        if "=" not in line:
            raise ConfigError("expected 'key = value'", lineno)
        if section is None:
            raise ConfigError("key outside any section", lineno)
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _SCHEMA[section]:
            raise ConfigError(f"unknown key {key!r} in [{section}]", lineno)
        if not value:
            raise ConfigError(f"empty value for {key!r}", lineno)
        if (section, key) in entries:
            raise ConfigError(f"duplicate key {key!r} in [{section}]", lineno)
        entries[(section, key)] = (value, lineno)
    return entries


def _parse_float(raw: str, lineno: int, unit_system: str,
                 kind: str | None = None) -> float:
    parts = raw.split()
    if len(parts) == 1:
        num, unit = parts[0], None
    elif len(parts) == 2:
        num, unit = parts
    else:
        raise ConfigError(f"cannot parse value {raw!r}", lineno)
    try:
        value = float(num)
    except ValueError:
        raise ConfigError(f"expected a number, got {num!r}", lineno) from None
    if unit is not None:
        if kind not in _UNIT_TABLES:
            raise ConfigError(f"unit suffix {unit!r} not allowed here", lineno)
        if unit_system != ELECTRON_NM_EV:
            raise ConfigError(
                f"unit suffix {unit!r} requires unit_system = electron_nm_eV",
                lineno)
        table = _UNIT_TABLES[kind]
        if unit not in table:
            raise ConfigError(
                f"unknown {kind.replace('_', ' ')} unit {unit!r}", lineno)
        value *= table[unit]
    # checked after the unit factor, which can overflow a finite number
    if not np.isfinite(value):
        raise ConfigError(f"expected a finite number, got {raw!r}", lineno)
    return value


def _parse_int(raw: str, lineno: int) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"expected an integer, got {raw!r}", lineno) from None


def parse_config(text: str) -> RunConfig:
    """Parse and validate a config document; raises ConfigError on any flaw."""
    entries = _tokenize(text)
    seen = set()

    def get(section, key, default=None):
        seen.add((section, key))
        return entries.get((section, key), (default, None))

    def require(section, key):
        if (section, key) not in entries:
            raise ConfigError(f"missing required key {key!r} in [{section}]")
        return get(section, key)

    raw, lineno = get("physics", "unit_system", NATURAL)
    if raw not in (NATURAL, ELECTRON_NM_EV):
        raise ConfigError(f"unknown unit_system {raw!r}", lineno)
    unit_system = raw
    if unit_system == ELECTRON_NM_EV:
        for key in ("hbar", "mass"):
            if ("physics", key) in entries:
                raise ConfigError(
                    f"{key!r} is fixed by the electron_nm_eV preset",
                    entries[("physics", key)][1])
        physics = PhysicsParams.electron_nm_ev()
    else:
        raw, lineno = get("physics", "hbar", "1.0")
        hbar = _parse_float(raw, lineno, unit_system)
        raw, lineno = get("physics", "mass", "1.0")
        mass = _parse_float(raw, lineno, unit_system)
        try:
            physics = PhysicsParams(hbar=hbar, mass=mass)
        except ValueError as exc:
            raise ConfigError(f"invalid [physics]: {exc}") from None
    seen.update({("physics", "hbar"), ("physics", "mass")})

    geometry = None
    if ("geometry", "radius") in entries or ("geometry", "length") in entries:
        raw, lineno = require("geometry", "radius")
        radius = _parse_float(raw, lineno, unit_system, "length")
        raw_l, lineno_l = require("geometry", "length")
        length = _parse_float(raw_l, lineno_l, unit_system, "length")
        try:
            geometry = CylinderGeometry(radius=radius, length=length)
        except ValueError as exc:
            raise ConfigError(f"invalid [geometry]: {exc}", lineno) from None

    raw, lineno = get("twist", "profile", "constant")
    if raw == "constant":
        raw_a, lineno_a = get("twist", "alpha", "0.0")
        twist = TwistProfile.constant(
            _parse_float(raw_a, lineno_a, unit_system, "inverse_length"))
        if ("twist", "alpha0") in entries:
            raise ConfigError("'alpha0' belongs to the linear-ramp profile",
                              entries[("twist", "alpha0")][1])
    elif raw == "linear-ramp":
        raw_a, lineno_a = require("twist", "alpha0")
        twist = TwistProfile.linear_ramp(
            _parse_float(raw_a, lineno_a, unit_system, "inverse_length"))
        if ("twist", "alpha") in entries:
            raise ConfigError("'alpha' belongs to the constant profile",
                              entries[("twist", "alpha")][1])
    else:
        raise ConfigError(f"unknown twist profile {raw!r}", lineno)
    seen.update({("twist", "alpha"), ("twist", "alpha0")})

    raw, lineno = get("modes", "n_max", "3")
    n_max = _parse_int(raw, lineno)
    raw, lineno = get("modes", "l_max", "2")
    l_max = _parse_int(raw, lineno)
    if n_max < 1:
        raise ConfigError("n_max must be >= 1", lineno)
    if l_max < 0:
        raise ConfigError("l_max must be >= 0", lineno)

    raw, lineno = get("scattering", "l", "0")
    scattering_l = _parse_int(raw, lineno)

    energy_grid = None
    if any(("energy_grid", key) in entries for key in ("min", "max", "points")):
        raw, lineno = require("energy_grid", "min")
        e_min = _parse_float(raw, lineno, unit_system, "energy")
        raw, lineno = require("energy_grid", "max")
        e_max = _parse_float(raw, lineno, unit_system, "energy")
        raw, lineno = require("energy_grid", "points")
        points = _parse_int(raw, lineno)
        if not e_min < e_max:
            raise ConfigError("energy grid needs min < max", lineno)
        if points < 2:
            raise ConfigError("energy grid needs at least 2 points", lineno)
        energy_grid = (e_min, e_max, points)

    sweep = None
    if any((("sweep", key) in entries) for key in _SCHEMA["sweep"]):
        raw, lineno = require("sweep", "scenario")
        if raw not in ("embedded", "free"):
            raise ConfigError(f"unknown sweep scenario {raw!r}", lineno)
        scenario = raw
        raw, lineno = require("sweep", "vary")
        if raw not in ("alpha", "l", "radius"):
            raise ConfigError(f"cannot vary {raw!r} (alpha, l or radius)",
                              lineno)
        vary = raw
        raw, lineno = require("sweep", "values")
        tokens = [tok.strip() for tok in raw.split(",")]
        if not all(tokens):
            raise ConfigError("empty entry in sweep values", lineno)
        if vary == "l":
            values = tuple(_parse_int(tok, lineno) for tok in tokens)
        else:
            kind = "inverse_length" if vary == "alpha" else "length"
            values = tuple(_parse_float(tok, lineno, unit_system, kind)
                           for tok in tokens)
            if vary == "radius" and any(v <= 0 for v in values):
                raise ConfigError("radius values must be positive", lineno)
        sweep = SweepSpec(scenario=scenario, vary=vary, values=values)

    raw, lineno = get("wavefunction", "n", "1")
    wf_n = _parse_int(raw, lineno)
    raw, lineno = get("wavefunction", "l", "0")
    wf_l = _parse_int(raw, lineno)
    raw, lineno = get("wavefunction", "n_phi", "256")
    n_phi = _parse_int(raw, lineno)
    raw, lineno = get("wavefunction", "n_z", "256")
    n_z = _parse_int(raw, lineno)
    if wf_n < 1:
        raise ConfigError("wavefunction n must be >= 1", lineno)
    if n_phi < 2 or n_z < 2:
        raise ConfigError("wavefunction grid needs at least 2 points per axis",
                          lineno)
    wavefunction = WavefunctionSpec(n=wf_n, l=wf_l, n_phi=n_phi, n_z=n_z)

    command, lineno = get("run", "command", None)
    if command is not None and command not in COMMANDS:
        raise ConfigError(f"unknown command {command!r}", lineno)

    output_path, _ = get("output", "path", None)
    raw, lineno = get("output", "format", "csv")
    if raw not in ("csv", "json"):
        raise ConfigError(f"unknown output format {raw!r}", lineno)
    output_format = raw

    echo = {}
    for (section, key), (value, _) in sorted(entries.items()):
        echo.setdefault(section, {})[key] = value

    return RunConfig(
        command=command, physics=physics, geometry=geometry, twist=twist,
        n_max=n_max, l_max=l_max, scattering_l=scattering_l,
        energy_grid=energy_grid, sweep=sweep, wavefunction=wavefunction,
        output_path=output_path, output_format=output_format,
        config_sha256=hashlib.sha256(text.encode("utf-8")).hexdigest(),
        echo=echo)


def default_config(command: str) -> RunConfig:
    """Config with all defaults, for commands that need no document."""
    return replace(parse_config(""), command=command)


# printf conversion for a column's numpy dtype kind; '%.12g' % x prints
# the same digits as format(x, '.12g'), including nan, inf and -0
_CELL = {"f": "%.12g", "i": "%d", "U": "%s"}


def _json_cells(column: np.ndarray) -> list:
    """Python values of one column, NaN as None (JSON null)."""
    if column.dtype.kind != "f":
        return column.tolist()
    cells = column.astype(object)
    cells[np.isnan(column)] = None
    return cells.tolist()


def _emit(config: RunConfig, schema: str, header, columns) -> None:
    """Write equal-length columns (float, int or str arrays) as one artifact."""
    columns = [np.asarray(column) for column in columns]
    if config.output_format == "json":
        rows = zip(*map(_json_cells, columns), strict=True)
        text = json.dumps({
            "schema": schema, "config_sha256": config.config_sha256,
            "config": config.echo,
            "rows": [dict(zip(header, row)) for row in rows],
        }, sort_keys=True, indent=2) + "\n"
    else:
        template = ",".join(_CELL[column.dtype.kind] for column in columns)
        rows = zip(*[column.tolist() for column in columns], strict=True)
        text = "\n".join([f"# schema: {schema}",
                          f"# config-sha256: {config.config_sha256}",
                          ",".join(header), *map(template.__mod__, rows)]) + "\n"
    if config.output_path:
        with open(config.output_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _require_geometry(config: RunConfig) -> CylinderGeometry:
    if config.geometry is None:
        raise ConfigError("[geometry] with radius and length is required")
    return config.geometry


def _require_grid(config: RunConfig) -> np.ndarray:
    if config.energy_grid is None:
        raise ConfigError("[energy_grid] with min, max, points is required")
    e_min, e_max, points = config.energy_grid
    return np.linspace(e_min, e_max, points)


def _constant_alpha(config: RunConfig) -> float:
    if not config.twist.is_constant:
        raise ConfigError("scattering commands need a constant twist profile")
    return config.twist.rate


def _run_spectrum(config: RunConfig) -> None:
    geom = _require_geometry(config)
    modes, energies = zip(*list_bound_states(geom, config.physics,
                                             config.n_max, config.l_max))
    _emit(config, "twistcyl-spectrum-v1", ("n", "l", "energy"),
          ([mode.n for mode in modes], [mode.l for mode in modes], energies))


def _run_wavefunction(config: RunConfig) -> None:
    geom = _require_geometry(config)
    spec = config.wavefunction
    sample = bound_wavefunction(ModeNumbers(l=spec.l, n=spec.n), geom,
                                config.twist, config.physics,
                                (spec.n_phi, spec.n_z))
    # z-major rows: phi varies fastest, so the (phi, z) grids go transposed
    values = sample.values.T.ravel()
    _emit(config, "twistcyl-wavefunction-v1",
          ("phi", "z", "re_psi", "im_psi", "density"),
          (np.tile(sample.phi, sample.z.size),
           np.repeat(sample.z, sample.phi.size), values.real, values.imag,
           sample.density().T.ravel()))


def _scenario_for(config: RunConfig, kind: str) -> ScatteringScenario:
    geom = _require_geometry(config)
    alpha = _constant_alpha(config)
    maker = (ScatteringScenario.embedded if kind == "embedded"
             else ScatteringScenario.free)
    return maker(geom, alpha, config.scattering_l, config.physics)


def _run_scatter(config: RunConfig, kind: str) -> None:
    scenario = _scenario_for(config, kind)
    energies = _require_grid(config)
    sweep = transmission_sweep(scenario, energies)
    _emit(config, "twistcyl-scatter-v1", ("energy", "T", "R", "flag"),
          (sweep.energy, sweep.transmission, sweep.reflection, sweep.flag))


def _run_sweep(config: RunConfig) -> None:
    if config.sweep is None:
        raise ConfigError("[sweep] with scenario, vary, values is required")
    spec = config.sweep
    geom = _require_geometry(config)
    energies = _require_grid(config)
    maker = (ScatteringScenario.embedded if spec.scenario == "embedded"
             else ScatteringScenario.free)
    alpha = _constant_alpha(config)

    def scenario_at(value):
        if spec.vary == "alpha":
            return maker(geom, value, config.scattering_l, config.physics)
        if spec.vary == "l":
            return maker(geom, alpha, int(value), config.physics)
        return maker(CylinderGeometry(value, geom.length), alpha,
                     config.scattering_l, config.physics)

    value_fmt = _CELL[np.asarray(spec.values).dtype.kind]
    header = ["energy"]
    columns = [energies]
    for value in spec.values:
        tag = f"[{spec.vary}={value_fmt % value}]"
        header += [f"T{tag}", f"R{tag}", f"flag{tag}"]
        sweep = transmission_sweep(scenario_at(value), energies)
        columns += [sweep.transmission, sweep.reflection, sweep.flag]
    _emit(config, "twistcyl-sweep-v1", tuple(header), columns)


def _run_validate(config: RunConfig) -> int:
    lines, ok = run_validation()
    text = "\n".join(lines) + "\n"
    sys.stdout.write(text)
    if config.output_path:
        with open(config.output_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    return 0 if ok else 3


def run(config: RunConfig) -> int:
    """Dispatch a validated config; returns the process exit code."""
    if config.command == "validate":
        return _run_validate(config)
    if config.command == "spectrum":
        _run_spectrum(config)
    elif config.command == "wavefunction":
        _run_wavefunction(config)
    elif config.command == "scatter-embedded":
        _run_scatter(config, "embedded")
    elif config.command == "scatter-free":
        _run_scatter(config, "free")
    elif config.command == "sweep":
        _run_sweep(config)
    else:
        raise ConfigError(f"unknown command {config.command!r}")
    return 0


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ConfigError(message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="twistcyl",
                     description="Bound states and scattering on twisted "
                                 "cylindrical surfaces.")
    sub = parser.add_subparsers(dest="command")
    for name in COMMANDS:
        cmd = sub.add_parser(name)
        cmd.add_argument("--config", default=None,
                         help="path to the run configuration")
        cmd.add_argument("--out", default=None,
                         help="output path (default: stdout)")
        cmd.add_argument("--format", choices=("csv", "json"), default=None)
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        if args.command is None:
            raise ConfigError("no command given")
        if args.config is not None:
            try:
                with open(args.config, encoding="utf-8") as fh:
                    text = fh.read()
            except OSError as exc:
                raise ConfigError(f"cannot read config: {exc}") from None
            config = parse_config(text)
        elif args.command == "validate":
            config = default_config("validate")
        else:
            raise ConfigError("--config is required")
        config = replace(
            config, command=args.command,
            output_path=args.out or config.output_path,
            output_format=args.format or config.output_format)
        return run(config)
    except ConfigError as exc:
        print(f"error: config: {exc}", file=sys.stderr)
        return 1
    except TwistCylError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except ArithmeticError as exc:  # float overflow or division by zero
        print(f"error: numerics: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


def console_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_entry()
