"""Command-line front end: config parsing, dispatch, CSV/JSON artifacts.

Run configurations are flat INI-style documents, UTF-8, with ``[section]``
headers and ``key = value`` pairs; full-line comments start with ``#`` or
``;``. ``_SCHEMA`` is the single list of keys, with each key's default, unit
kind and lower bound. Unknown sections or keys are rejected, and so are
non-finite numbers. In the ``electron_nm_eV`` unit preset, numeric values
accept a unit suffix (``radius = 2 nm``, ``alpha = 0.5 1/nm``,
``min = 10 meV``); in natural units suffixes are errors.

Outputs are deterministic: identical config and command produce identical
bytes. Data files carry no timestamps, only a schema tag and the SHA-256 of
the config text.

Each command loads only what its output needs: ``hashlib`` when an artifact
prints the config hash, ``json`` when it is a JSON document, and the oracles
only for ``validate``.

Exit codes: 0 success, 1 config error, 2 numerical failure,
3 validation failure.
"""

from __future__ import annotations

import argparse
import sys
from collections import Counter
from dataclasses import dataclass, field, replace
from functools import cached_property, partial

import numpy as np

from .errors import ConfigError, TwistCylError
from .geometry import CylinderGeometry, PhysicsParams, TwistProfile
from .scattering import ScatteringScenario, transmission_sweep
from .spectrum import (ModeNumbers, bound_wavefunction, even_grid,
                       list_bound_states)

NATURAL = "natural"
ELECTRON_NM_EV = "electron_nm_eV"

# fixed unit-conversion tables for the electron_nm_eV preset
_UNIT_TABLES = {
    "length": {"nm": 1.0, "angstrom": 0.1, "A": 0.1},
    "inverse_length": {"1/nm": 1.0, "1/angstrom": 10.0, "1/A": 10.0},
    "energy": {"eV": 1.0, "meV": 1e-3},
}


@dataclass(frozen=True)
class RunConfig:
    """Fully validated run description; built by ``parse_config``.

    ``text`` is the config document as given. Its SHA-256,
    ``config_sha256``, is computed on first read, which only an artifact's
    CSV header or JSON document makes, so ``validate`` never loads
    ``hashlib``.
    """

    physics: PhysicsParams
    geometry: CylinderGeometry | None
    twist: TwistProfile
    n_max: int
    l_max: int
    scattering_l: int
    energy_grid: tuple[float, float, int] | None
    sweep: tuple[str, str, tuple] | None  # scenario, vary, values
    wavefunction: tuple[int, int, int, int]  # n, l, n_phi, n_z
    output_path: str | None
    output_format: str
    echo: dict
    text: str = field(repr=False)

    @cached_property
    def config_sha256(self) -> str:
        """Hex SHA-256 of the UTF-8 config text."""
        import hashlib
        return hashlib.sha256(self.text.encode("utf-8")).hexdigest()


# printf conversion for a column's numpy dtype kind; '%.12g' % x prints
# the same digits as format(x, '.12g'), including nan, inf and -0
_CELL = {"f": "%.12g", "i": "%d", "U": "%s"}


def _sweep_tags(vary: str, values) -> list:
    """The ``[vary=value]`` column tag of each sweep value, the value
    printed as a cell of the varied key's schema kind (an l past int64
    has no numpy integer dtype)."""
    fmt = _CELL["i" if _SCHEMA[_SWEPT[vary]][0] is int else "f"]
    return [f"[{vary}={fmt % value}]" for value in values]


def _json_cells(column: np.ndarray) -> list:
    """One column's cells as values whose ``%s`` is their JSON text.

    A finite float prints as ``float.__repr__`` does, which is what ``json``
    writes; NaN is null and the infinities are written as ``json`` writes them.
    """
    if column.dtype.kind == "U":
        from json.encoder import encode_basestring_ascii
        return list(map(encode_basestring_ascii, column.tolist()))
    if column.dtype.kind != "f":
        return column.tolist()
    cells = column.astype(object)
    cells[np.isnan(column)] = "null"
    cells[column == np.inf] = "Infinity"
    cells[column == -np.inf] = "-Infinity"
    return cells.tolist()


def _render(config: RunConfig, schema: str, header, columns) -> str:
    """The artifact text of equal-length columns (float, int or str arrays).

    The formats differ only in the data set first: how a column becomes
    cells and their ``%`` conversion, the row frame with a label per cell,
    the row separator, and the text around the rows. A JSON row is the
    ``json.dumps(..., sort_keys=True, indent=2)`` text of one object; a key
    that repeats keeps its last column, as a dict would. An array that
    occurs more than once (the T, R and flag arrays that an alpha sweep's
    groups share) is formatted into strings once and spliced in as ``%s``.
    """
    columns = [np.asarray(column) for column in columns]
    if config.output_format == "json":
        import json
        from json.encoder import encode_basestring_ascii
        last = {key: index for index, key in enumerate(header)}
        columns = [columns[last[key]] for key in sorted(last)]
        labels = [f"      {encode_basestring_ascii(key).replace('%', '%%')}: "
                  for key in sorted(last)]
        cells, conversion = _json_cells, lambda _: "%s"
        frame, joiner, separator = "    {\n%s\n    }", ",\n", ",\n"
        empty = json.dumps({"schema": schema,
                            "config_sha256": config.config_sha256,
                            "config": config.echo, "rows": []},
                           sort_keys=True, indent=2) + "\n"
        # only the top-level key sits on a line indented by two spaces
        head, tail = empty.split('\n  "rows": []', 1)
        head, tail = head + '\n  "rows": [\n', "\n  ]" + tail
    else:
        labels = [""] * len(columns)
        cells, conversion = np.ndarray.tolist, lambda c: _CELL[c.dtype.kind]
        frame, joiner, separator = "%s", ",", "\n"
        empty = head = "\n".join((f"# schema: {schema}",
                                  f"# config-sha256: {config.config_sha256}",
                                  ",".join(header), ""))
        tail = "\n"
    count = Counter(map(id, columns))
    shared = {id(column): column for column in columns
              if count[id(column)] > 1}
    shared = {key: list(map(conversion(column).__mod__, cells(column)))
              for key, column in shared.items()}
    template = frame % joiner.join(
        label + ("%s" if id(column) in shared else conversion(column))
        for label, column in zip(labels, columns))
    body = separator.join(map(template.__mod__, zip(
        *[shared[id(column)] if id(column) in shared else cells(column)
          for column in columns], strict=True)))
    # the row count decides, not the text: a CSV row of one "" cell is a line
    return "".join((head, body, tail)) if len(columns[0]) else empty


def _write(config: RunConfig, text: str) -> None:
    """Write ``text`` to the output path, or to stdout when there is none."""
    if not config.output_path:
        sys.stdout.write(text)
        return
    try:
        with open(config.output_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise ConfigError(f"cannot write output: {exc}") from None


def _energies(config: RunConfig) -> np.ndarray:
    e_min, e_max, points = config.energy_grid
    grid = even_grid(e_min, e_max, points)
    if not np.all(np.diff(grid) > 0.0):
        raise ConfigError(f"energy grid of {points} points from {e_min} to "
                          f"{e_max} repeats a float value")
    return grid


def _spectrum(config: RunConfig):
    return ("n", "l", "energy"), list_bound_states(
        config.geometry, config.physics, config.n_max, config.l_max)


def _wavefunction(config: RunConfig):
    n, l, n_phi, n_z = config.wavefunction
    sample = bound_wavefunction(ModeNumbers(l=l, n=n), config.geometry,
                                config.twist, config.physics, (n_phi, n_z))
    # z-major rows: phi varies fastest, so the (phi, z) grids go transposed
    values = sample.values.T.ravel()
    return (("phi", "z", "re_psi", "im_psi", "density"),
            (np.tile(sample.phi, sample.z.size),
             np.repeat(sample.z, sample.phi.size), values.real, values.imag,
             sample.density().T.ravel()))


def _sweep(config: RunConfig, kind: str | None = None):
    """The energy grid, then T, R and flag of ``ScatteringScenario.<kind>``
    at each swept value (an alpha value is a constant twist), tagged
    ``[vary=value]``. Given ``kind``, as ``scatter-<kind>``, the config's own
    scenario is the one group, untagged."""
    if kind is None:
        kind, vary, values = config.sweep
        tags = _sweep_tags(vary, values)
    else:  # the config's own l is the one value
        vary, values, tags = "l", (config.scattering_l,), ("",)
    geom, energies = config.geometry, _energies(config)
    header = ["energy"]
    columns = [energies]
    # every field transmission_sweep reads; the twist, a gauge phase, is not
    # one, so an alpha sweep solves once whatever its length
    solved = {}
    for tag, value in zip(tags, values):
        setup = {"alpha": config.twist, "l": config.scattering_l,
                 "radius": geom.radius, vary: value}
        scenario = getattr(ScatteringScenario, kind)(
            CylinderGeometry(setup["radius"], geom.length), setup["alpha"],
            setup["l"], config.physics)
        key = (scenario.kind, scenario.geom, scenario.mode.l, scenario.phys)
        if key not in solved:
            solved[key] = transmission_sweep(scenario, energies)
        sweep = solved[key]
        header += [f"T{tag}", f"R{tag}", f"flag{tag}"]
        columns += [sweep.transmission, sweep.reflection, sweep.flag]
    return header, columns


def run_validation():
    """``validation.run_validation``, imported on the first call, so that
    only ``validate`` loads the oracles."""
    from .validation import run_validation as run_checks
    return run_checks()


def _validate(config: RunConfig) -> int:
    if config.output_format != "csv":
        raise ConfigError("validate writes a text table; format = "
                          f"{config.output_format} is not supported")
    lines, ok = run_validation()
    text = "\n".join(lines) + "\n"
    if config.output_path:  # the table goes to stdout in any case
        sys.stdout.write(text)
    _write(config, text)
    return 0 if ok else 3


# command name -> (artifact schema, sections it needs, handler). ``run``
# refuses a config without a needed section, checked in the listed order.
# An artifact handler returns (header, columns), which ``run`` writes; the
# handler of a command without a schema writes its own output and returns
# the exit code. Handlers reach transmission_sweep, bound_wavefunction and
# run_validation through this module's names, so a wrapper set on the
# module (as bench/launch.py sets one) sees every call.
_COMMANDS = {
    "spectrum": ("twistcyl-spectrum-v1", ("geometry",), _spectrum),
    "wavefunction": ("twistcyl-wavefunction-v1", ("geometry",),
                     _wavefunction),
    "scatter-embedded": ("twistcyl-scatter-v1", ("geometry", "energy_grid"),
                         partial(_sweep, kind="embedded")),
    "scatter-free": ("twistcyl-scatter-v1", ("geometry", "energy_grid"),
                     partial(_sweep, kind="free")),
    "sweep": ("twistcyl-sweep-v1", ("sweep", "geometry", "energy_grid"),
              _sweep),
    "validate": (None, (), _validate),
}

# a sweep's vary word -> the config key it varies
_SWEPT = {"alpha": ("twist", "alpha"), "l": ("scattering", "l"),
          "radius": ("geometry", "radius")}

# (section, key) -> (kind, default, floor, message), one row per config key.
# kind is int, str, float (a bare number), a unit kind of _UNIT_TABLES, or
# the tuple of words the key accepts; a key without a default stays None
# unless given. A number must exceed floor. message, formatted with the raw
# value, is the error for a number at or below floor or an unknown word.
# The unit_system row goes first: it decides whether numbers take suffixes.
_SCHEMA = {
    ("physics", "unit_system"): ((NATURAL, ELECTRON_NM_EV), NATURAL, None,
                                 "unknown unit_system {!r}"),
    ("physics", "hbar"): (float, "1.0", 0,
                          "invalid [physics]: hbar must be positive"),
    ("physics", "mass"): (float, "1.0", 0,
                          "invalid [physics]: mass must be positive"),
    ("geometry", "radius"): ("length", None, 0,
                             "invalid [geometry]: radius must be positive"),
    ("geometry", "length"): ("length", None, 0,
                             "invalid [geometry]: length must be positive"),
    ("twist", "profile"): (("constant", "linear-ramp"), "constant", None,
                           "unknown twist profile {!r}"),
    ("twist", "alpha"): ("inverse_length", "0.0", None, None),
    ("twist", "alpha0"): ("inverse_length", None, None, None),
    ("modes", "n_max"): (int, "3", 0, "n_max must be >= 1"),
    ("modes", "l_max"): (int, "2", -1, "l_max must be >= 0"),
    ("scattering", "l"): (int, "0", None, None),
    ("energy_grid", "min"): ("energy", None, None, None),
    ("energy_grid", "max"): ("energy", None, None, None),
    ("energy_grid", "points"): (int, None, 1,
                                "energy grid needs at least 2 points"),
    ("sweep", "scenario"): (("embedded", "free"), None, None,
                            "unknown sweep scenario {!r}"),
    ("sweep", "vary"): (tuple(_SWEPT), None, None,
                        "cannot vary {!r} (alpha, l or radius)"),
    ("sweep", "values"): (str, None, None, None),
    ("wavefunction", "n"): (int, "1", 0, "wavefunction n must be >= 1"),
    ("wavefunction", "l"): (int, "0", None, None),
    ("wavefunction", "n_phi"): (
        int, "256", 1, "wavefunction grid needs at least 2 points per axis"),
    ("wavefunction", "n_z"): (
        int, "256", 1, "wavefunction grid needs at least 2 points per axis"),
    ("output", "path"): (str, None, None, None),
    ("output", "format"): (("csv", "json"), "csv", None,
                           "unknown output format {!r}"),
}
_SECTIONS = {section for section, _ in _SCHEMA}


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
            if section not in _SECTIONS:
                raise ConfigError(f"unknown section [{section}]", lineno)
            continue
        if "=" not in line:
            raise ConfigError("expected 'key = value'", lineno)
        if section is None:
            raise ConfigError("key outside any section", lineno)
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if (section, key) not in _SCHEMA:
            raise ConfigError(f"unknown key {key!r} in [{section}]", lineno)
        if not value:
            raise ConfigError(f"empty value for {key!r}", lineno)
        if (section, key) in entries:
            raise ConfigError(f"duplicate key {key!r} in [{section}]", lineno)
        entries[(section, key)] = (value, lineno)
    return entries


def _parse_value(raw: str, lineno: int | None, kind, unit_system: str | None):
    """``raw`` read as the schema ``kind``; str and words are returned as
    written, numbers converted by their unit suffix and checked finite."""
    if kind is str or isinstance(kind, tuple):
        return raw
    if kind is int:
        try:
            return int(raw)
        except ValueError:
            raise ConfigError(f"expected an integer, got {raw!r}",
                              lineno) from None
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


def parse_config(text: str) -> RunConfig:
    """Parse and validate a config document; raises ConfigError on any flaw."""
    entries = _tokenize(text)
    # every schema row, given or defaulted; line is None unless given
    value, line = {}, {}
    for name, (kind, default, floor, message) in _SCHEMA.items():
        raw, line[name] = entries.get(name, (default, None))
        if raw is None:
            value[name] = None
            continue
        parsed = value[name] = _parse_value(
            raw, line[name], kind, value.get(("physics", "unit_system")))
        if (parsed not in kind if isinstance(kind, tuple)
                else floor is not None and not parsed > floor):
            raise ConfigError(message.format(raw), line[name])

    for section in ("geometry", "energy_grid", "sweep"):  # all keys or none
        keys = [key for sec, key in _SCHEMA if sec == section]
        absent = [key for key in keys if line[section, key] is None]
        if absent and len(absent) < len(keys):
            raise ConfigError(
                f"missing required key {absent[0]!r} in [{section}]")

    unit_system = value["physics", "unit_system"]
    if unit_system == ELECTRON_NM_EV:
        for key in ("hbar", "mass"):
            if line["physics", key] is not None:
                raise ConfigError(
                    f"{key!r} is fixed by the electron_nm_eV preset",
                    line["physics", key])
        physics = PhysicsParams.electron_nm_ev()
    else:
        try:
            physics = PhysicsParams(hbar=value["physics", "hbar"],
                                    mass=value["physics", "mass"])
        except ValueError as exc:  # t = hbar^2/2m is off the float range
            # the line of the given key that moves log t the most
            key = max((k for k in ("hbar", "mass")
                       if line["physics", k] is not None),
                      key=lambda k: abs(np.log(value["physics", k]))
                      * (2.0 if k == "hbar" else 1.0))
            raise ConfigError(str(exc), line["physics", key]) from None

    geometry = None
    if line["geometry", "radius"] is not None:
        geometry = CylinderGeometry(radius=value["geometry", "radius"],
                                    length=value["geometry", "length"])

    if value["twist", "profile"] == "constant":
        if line["twist", "alpha0"] is not None:
            raise ConfigError("'alpha0' belongs to the linear-ramp profile",
                              line["twist", "alpha0"])
        twist = TwistProfile.constant(value["twist", "alpha"])
    else:
        if line["twist", "alpha0"] is None:
            raise ConfigError("missing required key 'alpha0' in [twist]")
        if line["twist", "alpha"] is not None:
            raise ConfigError("'alpha' belongs to the constant profile",
                              line["twist", "alpha"])
        twist = TwistProfile.linear_ramp(value["twist", "alpha0"])

    energy_grid = None
    if line["energy_grid", "min"] is not None:
        e_min, e_max = value["energy_grid", "min"], value["energy_grid", "max"]
        if not e_min < e_max:
            raise ConfigError("energy grid needs min < max",
                              line["energy_grid", "max"])
        energy_grid = (e_min, e_max, value["energy_grid", "points"])

    sweep = None
    if line["sweep", "values"] is not None:
        vary, lineno = value["sweep", "vary"], line["sweep", "values"]
        if vary == "alpha" and value["twist", "profile"] != "constant":
            raise ConfigError("vary = alpha needs the constant twist profile",
                              line["sweep", "vary"])
        tokens = [tok.strip() for tok in value["sweep", "values"].split(",")]
        if not all(tokens):
            raise ConfigError("empty entry in sweep values", lineno)
        # each value reads as the key it varies; only radius has a floor, 0
        kind, _, floor, _ = _SCHEMA[_SWEPT[vary]]
        values = tuple(_parse_value(tok, lineno, kind, unit_system)
                       for tok in tokens)
        if floor is not None and not min(values) > floor:
            raise ConfigError(f"{vary} values must be positive", lineno)
        # two values whose column tags print alike would merge their columns
        first = {}
        for token, tag in zip(tokens, _sweep_tags(vary, values)):
            if tag in first:
                raise ConfigError(f"sweep values {first[tag]!r} and "
                                  f"{token!r} both print as {tag}", lineno)
            first[tag] = token
        sweep = (value["sweep", "scenario"], vary, values)

    echo = {}
    for (section, key), (raw, _) in sorted(entries.items()):
        echo.setdefault(section, {})[key] = raw

    return RunConfig(
        physics=physics, geometry=geometry,
        twist=twist, n_max=value["modes", "n_max"],
        l_max=value["modes", "l_max"], scattering_l=value["scattering", "l"],
        energy_grid=energy_grid, sweep=sweep,
        wavefunction=tuple(value["wavefunction", key]
                           for key in ("n", "l", "n_phi", "n_z")),
        output_path=value["output", "path"],
        output_format=value["output", "format"],
        echo=echo, text=text)


def run(command: str, config: RunConfig) -> int:
    """Run ``command`` on a validated config; returns the process exit code."""
    if command not in _COMMANDS:
        raise ConfigError(f"unknown command {command!r}")
    schema, sections, handler = _COMMANDS[command]
    for section in sections:  # RunConfig names each field after its section
        if getattr(config, section) is None:
            keys = ", ".join(key for sec, key in _SCHEMA if sec == section)
            raise ConfigError(f"[{section}] with {keys} is required")
    if schema is None:
        return handler(config)
    _write(config, _render(config, schema, *handler(config)))
    return 0


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ConfigError(message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="twistcyl",
                     description="Bound states and scattering on twisted "
                                 "cylindrical surfaces.")
    parser.add_argument("command", nargs="?", choices=tuple(_COMMANDS))
    parser.add_argument("--config", default=None,
                        help="path to the run configuration")
    parser.add_argument("--out", default=None,
                        help="output path (default: stdout)")
    parser.add_argument("--format", choices=_SCHEMA["output", "format"][0],
                        default=None)
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
            except (OSError, UnicodeDecodeError) as exc:
                raise ConfigError(f"cannot read config: {exc}") from None
            config = parse_config(text)
        elif args.command == "validate":
            config = parse_config("")
        else:
            raise ConfigError("--config is required")
        return run(args.command, replace(
            config, output_path=args.out or config.output_path,
            output_format=args.format or config.output_format))
    except (ConfigError, MemoryError) as exc:  # a grid too large to allocate
        print(f"error: config: {exc}", file=sys.stderr)
        return 1
    except TwistCylError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except ArithmeticError as exc:  # a float-range refusal naming its quantity
        print(f"error: numerics: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


def console_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_entry()
