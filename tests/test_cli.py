import hashlib
import io
import json
import os
import re
import subprocess
import sys
import warnings
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import replace

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import twistcyl
from twistcyl.cli import _COMMANDS, _render, main, parse_config
from twistcyl.errors import ConfigError, ThresholdDegeneracy
from twistcyl.geometry import CylinderGeometry, PhysicsParams
from twistcyl.scattering import ScatteringScenario

from test_scattering import exact_section

MINIMAL = """\
[geometry]
radius = 1.0
length = 1.0
"""

SCATTER = MINIMAL + """
[twist]
profile = constant
alpha = 0.5

[scattering]
l = 1

[energy_grid]
min = 0.01
max = 5.0
points = 20
"""


def test_parse_minimal_applies_defaults():
    config = parse_config(MINIMAL)
    assert config.physics.hbar == 1.0 and config.physics.mass == 1.0
    assert config.geometry.radius == 1.0
    assert config.twist.f(1.0) == 0.0
    assert (config.n_max, config.l_max) == (3, 2)
    assert config.output_format == "csv"
    assert config.physics == PhysicsParams()
    assert config.wavefunction == (1, 0, 256, 256)
    assert config.scattering_l == 0
    assert config.energy_grid is None and config.sweep is None
    assert config.output_path is None


def test_parse_rejects_negative_radius():
    bad = MINIMAL.replace("radius = 1.0", "radius = -2.0")
    with pytest.raises(ConfigError, match="radius"):
        parse_config(bad)


def test_parse_rejects_unknown_key_with_line():
    bad = MINIMAL + "twist_rate = 3\n"
    with pytest.raises(ConfigError, match="line 4"):
        parse_config(bad)


def test_parse_rejects_unknown_section():
    with pytest.raises(ConfigError, match=r"unknown section \[plotting\]"):
        parse_config(MINIMAL + "[plotting]\nstyle = classic\n")


def test_parse_rejects_unknown_profile():
    bad = MINIMAL + "[twist]\nprofile = quadratic\n"
    with pytest.raises(ConfigError, match="quadratic"):
        parse_config(bad)


def test_parse_rejects_type_mismatch_with_line():
    bad = MINIMAL.replace("length = 1.0", "length = long")
    with pytest.raises(ConfigError, match="line 3"):
        parse_config(bad)


@pytest.mark.parametrize("old,new", [
    ("radius = 1.0", "radius = nan"),
    ("[geometry]", "[physics]\nhbar = nan\n\n[geometry]"),
    ("alpha = 0.5", "alpha = nan"),
    ("max = 5.0", "max = inf"),
    ("min = 0.01", "min = -inf"),
    ("l = 1\n", "l = 1\n\n[sweep]\nscenario = free\nvary = alpha\n"
                 "values = 0, inf\n"),
], ids=["radius", "hbar", "alpha", "max", "min", "sweep-value"])
def test_non_finite_number_is_config_error(tmp_path, old, new):
    text = SCATTER.replace(old, new, 1)
    assert text != SCATTER
    with pytest.raises(ConfigError, match="finite"):
        parse_config(text)
    cfg = write(tmp_path, "run.ini", text)
    command = "sweep" if "[sweep]" in text else "scatter-free"
    assert main([command, "--config", cfg]) == 1


# the modules that only printing a config hash or a JSON document needs
_RENDER_MODULES = "('hashlib', '_hashlib', 'json')"


def test_import_leaves_oracle_scipy_modules_unloaded():
    # a fresh interpreter runs validate on the same twistcyl this process
    # imported; neither the import nor the oracles may load any scipy module,
    # the seeded checks draw without numpy.random, and the table, which
    # prints no config hash, loads neither hashlib nor json
    src = os.path.dirname(os.path.dirname(twistcyl.__file__))
    code = ("import sys; sys.path.insert(0, sys.argv[1]); "
            "from twistcyl.cli import main; rc = main(['validate']); "
            "print(rc, sorted(m for m in sys.modules "
            "if m.partition('.')[0] == 'scipy'), "
            "'numpy.random' in sys.modules, "
            f"[m for m in {_RENDER_MODULES} if m in sys.modules], "
            "file=sys.stderr)")
    proc = subprocess.run([sys.executable, "-c", code, src],
                          capture_output=True, text=True, check=True)
    assert proc.stdout.rstrip().endswith("OK: 15 of 15 checks passed")
    assert proc.stderr.strip() == "0 [] False []"


# prelude of the fresh interpreters below: this twistcyl on the path, and
# threads(), the live thread count on Linux (None elsewhere)
_FRESH_PRELUDE = """\
import os, sys
sys.path.insert(0, sys.argv[1])
def threads():
    if sys.platform.startswith("linux"):
        return len(os.listdir("/proc/self/task"))
"""


def _fresh(code, **env):
    """Stdout words of ``code`` run in a fresh interpreter whose environment
    holds no BLAS thread setting but ``env``."""
    src = os.path.dirname(os.path.dirname(twistcyl.__file__))
    full = {k: v for k, v in os.environ.items()
            if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    full.update(env)
    proc = subprocess.run([sys.executable, "-c", _FRESH_PRELUDE + code, src],
                          capture_output=True, text=True, env=full,
                          check=True, timeout=120)
    return proc.stdout.split()


def test_import_loads_blas_with_one_thread():
    out = _fresh("import twistcyl\n"
                 "print('OPENBLAS_NUM_THREADS' in os.environ, threads())")
    assert out[0] == "False"
    if sys.platform.startswith("linux"):
        assert out[1] == "1"


def test_import_keeps_a_user_blas_setting():
    out = _fresh("import twistcyl\n"
                 "print(os.environ['OPENBLAS_NUM_THREADS'])",
                 OPENBLAS_NUM_THREADS="2")
    assert out == ["2"]


def test_import_after_numpy_changes_nothing():
    out = _fresh("import numpy\nbefore = threads()\nimport twistcyl\n"
                 "print('OPENBLAS_NUM_THREADS' in os.environ, "
                 "before == threads())")
    assert out == ["False", "True"]


def test_csv_sweep_loads_hashlib_but_not_json(tmp_path):
    # the CSV header prints the config hash; nothing of the run is JSON
    cfg = write(tmp_path, "run.ini", SCATTER + "[sweep]\nscenario = free\n"
                "vary = alpha\nvalues = 0, 0.5\n")
    out = _fresh("from twistcyl.cli import main\n"
                 f"rc = main(['sweep', '--config', {cfg!r}, "
                 f"'--out', {str(tmp_path / 'sweep.csv')!r}])\n"
                 f"print(rc, [m for m in {_RENDER_MODULES} "
                 "if m in sys.modules])")
    assert " ".join(out) == "0 ['hashlib', '_hashlib']"


def test_cli_import_leaves_the_oracles_unloaded():
    # only validate loads numeric and validation; the package still exports
    # the oracles, resolved on first use
    out = _fresh("import twistcyl.cli\n"
                 "print('twistcyl.numeric' in sys.modules, "
                 "'twistcyl.validation' in sys.modules)\n"
                 "import twistcyl\n"
                 "print(twistcyl.fd_bound_spectrum.__module__)\n"
                 "twistcyl.cli.main(['validate'])\n")
    assert out[:3] == ["False", "False", "twistcyl.numeric"]
    assert " ".join(out[-6:]) == "OK: 15 of 15 checks passed"


_LAUNCH = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "bench", "launch.py")


def _span_counts(tmp_path, *argv):
    """Span name -> count of one traced ``bench/launch.py run`` of ``argv``,
    which must exit 0."""
    spans = tmp_path / "spans.json"
    proc = subprocess.run([sys.executable, _LAUNCH, "run", "--spans",
                           str(spans), "--", *argv],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return Counter(span[1] for span in json.loads(spans.read_text()))


@pytest.mark.parametrize("vary,values,solves", [
    ("alpha", "0, 0.5, 1", 1), ("radius", "1, 2", 2)])
def test_sweep_solves_once_per_gauge_class(tmp_path, vary, values, solves):
    # the twist is a gauge phase: an alpha sweep of any length is one solve
    cfg = write(tmp_path, "run.ini", SCATTER + f"""
[sweep]
scenario = free
vary = {vary}
values = {values}
""")
    counts = _span_counts(tmp_path, "sweep", "--config", cfg,
                          "--out", str(tmp_path / "out.csv"))
    assert counts["scattering.transmission_sweep"] == solves


def test_validate_is_one_traced_run_validation(tmp_path):
    # the trace site twistcyl.cli.run_validation still sees the call
    counts = _span_counts(tmp_path, "validate", "--out",
                          str(tmp_path / "table.txt"))
    assert counts["validation.run_validation"] == 1
    assert (tmp_path / "table.txt").read_text().endswith(
        "OK: 15 of 15 checks passed\n")


ELECTRON_SCATTER = """\
[physics]
unit_system = electron_nm_eV

[geometry]
radius = 1 nm
length = 2 nm

[twist]
profile = constant
alpha = 0.5 1/nm

[scattering]
l = 1

[energy_grid]
min = 10 meV
max = 2 eV
points = 5
"""


def test_unit_factor_overflow_is_config_error(tmp_path, capsys):
    # finite as written, infinite once scaled by the unit factor
    text = ELECTRON_SCATTER.replace("alpha = 0.5 1/nm",
                                    "alpha = 1e308 1/angstrom")
    with pytest.raises(ConfigError, match="line 10: expected a finite number"):
        parse_config(text)
    assert main(["scatter-free", "--config",
                 write(tmp_path, "run.ini", text)]) == 1
    assert "finite" in capsys.readouterr().err
    # a scaled value that stays finite is accepted
    config = parse_config(ELECTRON_SCATTER.replace("radius = 1 nm",
                                                   "radius = 1e308 nm"))
    assert config.geometry.radius == 1e308


@pytest.mark.parametrize("text,message", [
    ("[modes]\nn_max = 0\nl_max = 2\n", "line 2: n_max must be >= 1"),
    ("[modes]\nn_max = 0\n", "line 2: n_max must be >= 1"),
    ("[modes]\nl_max = -1\n", "line 2: l_max must be >= 0"),
    ("[wavefunction]\nn = 0\nn_z = 8\n",
     "line 2: wavefunction n must be >= 1"),
    ("[wavefunction]\nn_phi = 1\n",
     "line 2: wavefunction grid needs at least 2 points per axis"),
    ("[energy_grid]\nmin = 5\nmax = 1\npoints = 3\n",
     "line 3: energy grid needs min < max"),
    ("[energy_grid]\nmin = 0\nmax = 1\npoints = 1\n",
     "line 4: energy grid needs at least 2 points"),
    ("[geometry]\nradius = 1\nlength = -1\n",
     "line 3: invalid [geometry]: length must be positive"),
    ("[physics]\nhbar = -1\n",
     "line 2: invalid [physics]: hbar must be positive"),
    ("[physics]\nmass = 0\n",
     "line 2: invalid [physics]: mass must be positive"),
    ("[physics]\nunit_system = cgs\n", "line 2: unknown unit_system 'cgs'"),
    ("[physics]\nunit_system = electron_nm_eV\n[geometry]\n"
     "radius = 2 furlong\nlength = 1 nm\n",
     "line 4: unknown length unit 'furlong'"),
    ("[twist]\nalpha0 = 0.3\n",
     "line 2: 'alpha0' belongs to the linear-ramp profile"),
    ("[twist]\nprofile = linear-ramp\n",
     "missing required key 'alpha0' in [twist]"),
    ("[twist]\nprofile = linear-ramp\nalpha0 = 0.3\nalpha = 0.5\n",
     "line 4: 'alpha' belongs to the constant profile"),
    ("[sweep]\nscenario = free\nvary = l\nvalues = 1,,2\n",
     "line 4: empty entry in sweep values"),
    ("[sweep]\nscenario = free\nvary = radius\nvalues = 1, -2\n",
     "line 4: radius values must be positive"),
], ids=["n_max", "n_max-alone", "l_max", "wf-n", "n_phi", "min-max",
        "points", "length", "hbar", "mass", "unit_system", "length-unit",
        "alpha0-constant", "ramp-alpha0", "alpha-ramp", "empty-value",
        "radius-values"])
def test_bound_error_cites_its_own_line(text, message):
    with pytest.raises(ConfigError) as info:
        parse_config(text)
    assert str(info.value) == message


def test_parse_rejects_duplicate_key():
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config(MINIMAL + "[modes]\nn_max = 2\nn_max = 3\n")


def test_parse_unit_suffixes_in_electron_preset():
    text = """\
[physics]
unit_system = electron_nm_eV

[geometry]
radius = 10 angstrom
length = 2 nm

[twist]
profile = constant
alpha = 0.5 1/nm

[energy_grid]
min = 10 meV
max = 2 eV
points = 5
"""
    config = parse_config(text)
    assert config.physics == PhysicsParams.electron_nm_ev()
    assert config.physics.hbar2_over_2m == pytest.approx(0.0380998, abs=1e-12)
    assert config.geometry.radius == pytest.approx(1.0, abs=1e-15)
    assert config.twist.f(1.0) == pytest.approx(0.5, abs=1e-15)
    assert config.energy_grid[0] == pytest.approx(0.01, abs=1e-15)


def test_parse_rejects_unit_suffix_in_natural_units():
    bad = MINIMAL.replace("radius = 1.0", "radius = 1.0 nm")
    with pytest.raises(ConfigError, match="nm"):
        parse_config(bad)


def test_parse_rejects_hbar_override_in_preset():
    text = "[physics]\nunit_system = electron_nm_eV\nhbar = 2\n" + MINIMAL
    with pytest.raises(ConfigError, match="hbar"):
        parse_config(text)


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_spectrum_csv_contents(tmp_path):
    cfg = write(tmp_path, "run.ini", MINIMAL)
    out = tmp_path / "spectrum.csv"
    assert main(["spectrum", "--config", cfg, "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "# schema: twistcyl-spectrum-v1"
    assert lines[1] == ("# config-sha256: "
                        + hashlib.sha256(MINIMAL.encode("utf-8")).hexdigest())
    assert lines[2] == "n,l,energy"
    rows = [line.split(",") for line in lines[3:]]
    assert len(rows) == 15
    assert rows[0] == ["1", "0", "4.80980220054"]
    energies = [float(r[2]) for r in rows]
    assert energies == sorted(energies)


def test_spectrum_json_format(tmp_path):
    # the hash is of the config text as UTF-8, non-ASCII comment included
    text = "# Radius in Ångström? No: natural units, ħ = m = 1\n" + MINIMAL
    cfg = write(tmp_path, "run.ini", text)
    out = tmp_path / "spectrum.json"
    assert main(["spectrum", "--config", cfg, "--out", str(out),
                 "--format", "json"]) == 0
    payload = json.loads(out.read_text())
    assert payload["schema"] == "twistcyl-spectrum-v1"
    assert payload["config_sha256"] == hashlib.sha256(
        text.encode("utf-8")).hexdigest()
    assert payload["config"]["geometry"]["radius"] == "1.0"
    assert len(payload["rows"]) == 15
    assert payload["rows"][0]["energy"] == pytest.approx(4.80980220054)


def test_scatter_embedded_flags(tmp_path):
    cfg = write(tmp_path, "run.ini", SCATTER)
    out = tmp_path / "scatter.csv"
    assert main(["scatter-embedded", "--config", cfg, "--out", str(out)]) == 0
    rows = [line.split(",") for line in out.read_text().splitlines()[3:]]
    assert len(rows) == 20
    flags = [r[3] for r in rows]
    assert flags[0] == "sub_threshold"
    assert flags[-1] == "ok"
    for row in rows:
        if row[3] == "sub_threshold":
            assert row[1] == "0" and row[2] == "1"
        else:
            assert float(row[1]) == pytest.approx(1.0, abs=1e-10)


def test_sweep_alpha_columns_identical(tmp_path):
    cfg = write(tmp_path, "run.ini", SCATTER + """
[sweep]
scenario = embedded
vary = alpha
values = 0, 0.5, 1.0
""")
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    header = lines[2].split(",")
    assert header[0] == "energy"
    assert header[1] == "T[alpha=0]" and header[4] == "T[alpha=0.5]"
    for line in lines[3:]:
        cells = line.split(",")
        assert cells[1] == cells[4] == cells[7]   # T columns
        assert cells[3] == cells[6] == cells[9]   # flag columns


@pytest.mark.parametrize("scenario,vary,values,line", [
    ("embedded", "alpha", ["0", "0.5", "1.25"], "alpha = 0.5"),
    ("free", "alpha", ["0", "0.5", "1.25"], "alpha = 0.5"),
    ("free", "radius", ["0.5", "2"], "radius = 1.0"),
    ("embedded", "l", ["0", "2"], "l = 1"),
    # past int64: the tag took its format from an object dtype, a KeyError
    ("free", "l", ["1", "100000000000000000000"], "l = 1"),
], ids=["embedded-alpha", "free-alpha", "free-radius", "embedded-l",
        "free-l-1e20"])
def test_sweep_groups_equal_their_scatter_artifacts(tmp_path, capsys, scenario,
                                                    vary, values, line):
    # a sweep solves once per gauge class, so every alpha shares one solve;
    # each group is still the scatter artifact of its own value, byte for byte
    sweep = _data_rows(tmp_path, capsys, "sweep", SCATTER + f"""
[sweep]
scenario = {scenario}
vary = {vary}
values = {", ".join(values)}
""")
    assert sweep[0].split(",")[1::3] == [f"T[{vary}={v}]" for v in values]
    key = line.partition(" = ")[0]
    for k, value in enumerate(values):
        scatter = _data_rows(tmp_path, capsys, f"scatter-{scenario}",
                             SCATTER.replace(line, f"{key} = {value}"))
        assert len(scatter) == len(sweep) == 21
        for sweep_row, scatter_row in zip(sweep[1:], scatter[1:]):
            cells = sweep_row.split(",")
            assert ",".join(cells[:1] + cells[1 + 3 * k:4 + 3 * k]) \
                == scatter_row


@pytest.mark.parametrize("vary,values,tag", [
    ("alpha", "0.5, 0.5, 0.5000000000001", "[alpha=0.5]"),
    ("radius", "1.0, 1.0000000000001", "[radius=1]"),
    ("l", "1, 1", "[l=1]"),
], ids=["alpha", "radius", "l"])
def test_sweep_values_that_print_alike_are_refused(tmp_path, capsys, vary,
                                                   values, tag):
    # their groups would share one header tag: the CSV repeated the tag and
    # the JSON kept one group, although radius values are two geometries
    text = SCATTER + f"""
[sweep]
scenario = free
vary = {vary}
values = {values}
"""
    with pytest.raises(ConfigError, match=re.escape(f"print as {tag}")) as err:
        parse_config(text)
    assert err.value.line == len(text.splitlines())
    cfg = write(tmp_path, "run.ini", text)
    assert main(["sweep", "--config", cfg]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    _single_line(captured.err,
                 f"error: config: line {err.value.line}: sweep values ")


def test_sweep_requires_section(tmp_path):
    cfg = write(tmp_path, "run.ini", SCATTER)
    assert main(["sweep", "--config", cfg]) == 1
    # the refusal order of the sections a sweep needs
    assert _COMMANDS["sweep"][1] == ("sweep", "geometry", "energy_grid")


# each section a command may need: a complete block, and the keys its
# refusal names
_SECTIONS = {
    "geometry": (MINIMAL, "radius, length"),
    "energy_grid": ("[energy_grid]\nmin = 0.01\nmax = 5.0\npoints = 20\n",
                    "min, max, points"),
    "sweep": ("[sweep]\nscenario = free\nvary = l\nvalues = 0, 1\n",
              "scenario, vary, values"),
}


@pytest.mark.parametrize("command, section", [
    (command, section) for command, (_, sections, _) in _COMMANDS.items()
    for section in sections])
def test_missing_section_is_refused_by_the_table(tmp_path, capsys, command,
                                                 section):
    # without the section alone, or without it and every later one, the
    # refusal names it: each needed section is checked, in the table's order
    sections = _COMMANDS[command][1]
    index = sections.index(section)
    for kept in (sections[:index] + sections[index + 1:], sections[:index]):
        cfg = write(tmp_path, "run.ini",
                    "\n".join(_SECTIONS[name][0] for name in kept))
        assert main([command, "--config", cfg]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: config: [{section}] with "
                                f"{_SECTIONS[section][1]} is required\n")


def test_sweep_over_l_with_threads(tmp_path):
    cfg = write(tmp_path, "run.ini", SCATTER + """
[sweep]
scenario = free
vary = l
values = 0, 1, 2
""")
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    assert main(["sweep", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["sweep", "--config", cfg, "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    # the thread option is gone; an unknown option is a config error
    assert main(["sweep", "--config", cfg, "--threads", "2"]) == 1


def test_wavefunction_artifact(tmp_path):
    cfg = write(tmp_path, "run.ini", MINIMAL + """
[twist]
profile = linear-ramp
alpha0 = 0.3

[wavefunction]
n = 1
l = 1
n_phi = 8
n_z = 9
""")
    out = tmp_path / "wf.csv"
    assert main(["wavefunction", "--config", cfg, "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[2] == "phi,z,re_psi,im_psi,density"
    rows = [line.split(",") for line in lines[3:]]
    assert len(rows) == 8 * 9
    # hard-wall rows are exactly zero
    assert rows[0][2] == "0" and rows[0][4] == "0"
    assert rows[-1][2] == "0" and rows[-1][4] == "0"


def _data_rows(tmp_path, capsys, command, text):
    """The data rows of a run that must exit 0 with an empty stderr."""
    cfg = write(tmp_path, "run.ini", text)
    out = tmp_path / "out.csv"
    assert main([command, "--config", cfg, "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    return out.read_text().splitlines()[2:]


@pytest.mark.parametrize("command", ["scatter-free", "scatter-embedded",
                                     "sweep"])
@pytest.mark.parametrize("alpha0", ["0.3", "1e308"])
def test_scatter_runs_every_twist_profile(tmp_path, capsys, command, alpha0):
    # the twist is only a phase on t: a ramp, however steep, gives the rows
    # of the untwisted section byte for byte
    text = SCATTER + "\n[sweep]\nscenario = free\nvary = l\nvalues = 0, 1, 3\n"
    untwisted = _data_rows(tmp_path, capsys, command, text.replace(
        "alpha = 0.5", "alpha = 0"))
    ramp = _data_rows(tmp_path, capsys, command, text.replace(
        "profile = constant\nalpha = 0.5",
        f"profile = linear-ramp\nalpha0 = {alpha0}"))
    assert ramp == untwisted
    assert len(ramp) == 21


def test_sweep_over_alpha_needs_a_constant_profile():
    text = SCATTER.replace("profile = constant\nalpha = 0.5",
                           "profile = linear-ramp\nalpha0 = 0.3")
    text += "\n[sweep]\nscenario = free\nvary = alpha\nvalues = 0, 1\n"
    with pytest.raises(ConfigError, match="vary = alpha") as err:
        parse_config(text)
    assert err.value.line == text.splitlines().index("vary = alpha") + 1


def _wavefunction_config(twist, l, n=1, n_z=5):
    return MINIMAL.replace("length = 1.0", "length = 2") + f"""
[twist]
{twist}

[wavefunction]
n = {n}
l = {l}
n_phi = 4
n_z = {n_z}
"""


@pytest.mark.parametrize("twist,n,n_z", [
    ("profile = linear-ramp\nalpha0 = 1e308", 1, 5), ("alpha = 1e308", 1, 5),
    ("alpha = 0", 10**17 + 1, 7), ("alpha = 0", 10**19, 7),
], ids=["ramp", "constant", "n-1e17", "n-1e19"])
def test_wavefunction_unresolved_phase_is_numerics_exit(tmp_path, capsys,
                                                        twist, n, n_z):
    # l theta(z) is inf or about 1e308 rad, or n is past 2^52: no digit of
    # the phase survives (at n = 1e17 + 1, z = L/6 printed re_psi = 0 where
    # the state is 0.399)
    cfg = write(tmp_path, "run.ini", _wavefunction_config(twist, 1, n, n_z))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["wavefunction", "--config", cfg]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    _single_line(captured.err, "error: numerics: FloatingPointError: ")
    if n > 1:
        return
    # at l = 0 the twist leaves no phase, however large theta is
    assert (_data_rows(tmp_path, capsys, "wavefunction",
                       _wavefunction_config(twist, 0))
            == _data_rows(tmp_path, capsys, "wavefunction",
                          _wavefunction_config("alpha = 0", 0)))


def test_sweep_flags_coalesced_roots_in_any_units(tmp_path, capsys):
    # hbar^2/2m = 5e19: 1e-6 above V* = 0.375 the region-II roots have
    # coalesced to |r| ~ 1.4e-13; the rows are ok and print the digits of a
    # 320-digit solve
    rows = _data_rows(tmp_path, capsys, "sweep", """\
[physics]
hbar = 1e10
mass = 1

[geometry]
radius = 1e10
length = 1

[scattering]
l = 1

[energy_grid]
min = 0.375001
max = 0.5
points = 2

[sweep]
scenario = free
vary = l
values = 1
""")
    scenario = ScatteringScenario.free(
        CylinderGeometry(1e10, 1.0), 0.0, 1, PhysicsParams(hbar=1e10, mass=1.0))
    assert [row.split(",")[1:] for row in rows[1:]] == [
        [*(format(p, ".12g") for p in exact_section(energy, scenario)), "ok"]
        for energy in (0.375001, 0.5)]
    assert rows[1].split(",")[2] == "1.87499500001e-21"


def _single_line(err, prefix):
    assert err.startswith(prefix), err
    assert len(err.splitlines()) == 1
    # a bare OverflowError or ZeroDivisionError names no quantity: only a
    # FloatingPointError that names one is a typed numerics failure
    if err.startswith("error: numerics: "):
        assert err.startswith("error: numerics: FloatingPointError: "), err


def _single_error_line(capsys, prefix):
    _single_line(capsys.readouterr().err, prefix)


def test_non_utf8_config_is_config_error(tmp_path, capsys):
    cfg = tmp_path / "run.ini"
    cfg.write_bytes(MINIMAL.encode("utf-8") + b"# \xff\n")
    assert main(["spectrum", "--config", str(cfg)]) == 1
    _single_error_line(capsys, "error: config: cannot read config: ")


def test_unwritable_output_is_config_error(tmp_path, capsys):
    cfg = write(tmp_path, "run.ini", MINIMAL)
    out = str(tmp_path / "missing-dir" / "x.csv")
    assert main(["spectrum", "--config", cfg, "--out", out]) == 1
    _single_error_line(capsys, "error: config: cannot write output: ")
    assert main(["validate", "--out", out]) == 1
    _single_error_line(capsys, "error: config: cannot write output: ")


README = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "README.md")


def _readme_configs():
    with open(README, encoding="utf-8") as fh:
        text = fh.read()
    return [block.partition("\n")[2].partition("\n```")[0] + "\n"
            for block in text.split("```ini")[1:]]


def test_readme_config_examples_run(tmp_path, capsys):
    examples = _readme_configs()
    assert examples
    for text in examples:
        parse_config(text)
        cfg = write(tmp_path, "run.ini", text)
        for command in ("spectrum", "scatter-free", "sweep"):
            out = str(tmp_path / f"{command}.out")
            assert main([command, "--config", cfg, "--out", out]) == 0
            assert capsys.readouterr().err == ""


def test_readme_python_examples_run():
    with open(README, encoding="utf-8") as fh:
        text = fh.read()
    blocks = list(re.finditer(r"^```python\n(.*?)^```", text, re.M | re.S))
    assert blocks
    for block in blocks:
        # padded so that a traceback cites the README's own line numbers
        pad = "\n" * text.count("\n", 0, block.start(1))
        exec(compile(pad + block.group(1), README, "exec"), {})


def test_readme_lists_every_command_and_schema():
    with open(README, encoding="utf-8") as fh:
        text = fh.read()
    listed = text.partition("\nCommands: ")[2].partition(".")[0]
    assert re.findall(r"`([^`]+)`", listed) == list(_COMMANDS)
    table = re.search(r"Schemas:\n\n((?:\|.*\n)+)", text).group(1)
    for schema, _, _ in _COMMANDS.values():
        assert schema is None or f"`{schema}`" in table, schema


def test_missing_config_is_config_error():
    assert main(["spectrum"]) == 1
    assert main(["spectrum", "--config", "/nonexistent/path.ini"]) == 1


def test_unknown_command_is_config_error(capsys):
    assert main(["nope"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    _single_line(captured.err, "error: config: argument command: invalid "
                 "choice: 'nope' ")
    assert main([]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: config: no command given\n"
    with pytest.raises(ConfigError, match="unknown command 'nope'"):
        twistcyl.cli.run("nope", parse_config(MINIMAL))


@pytest.mark.parametrize("argv", [["--help"], ["sweep", "--help"]])
def test_help_lists_every_command(capsys, argv):
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 0
    assert "{" + ",".join(_COMMANDS) + "}" in capsys.readouterr().out


def test_options_go_before_or_after_the_command(tmp_path, capsys):
    cfg = write(tmp_path, "run.ini", MINIMAL)
    assert main(["--config", cfg, "spectrum"]) == 0
    before = capsys.readouterr().out
    assert main(["spectrum", "--config", cfg]) == 0
    assert capsys.readouterr().out == before
    assert before.startswith("# schema: twistcyl-spectrum-v1\n")


def test_library_error_is_numerics_exit(tmp_path, capsys, monkeypatch):
    def handler(config):
        raise ThresholdDegeneracy("x")

    monkeypatch.setitem(_COMMANDS, "spectrum", (None, (), handler))
    cfg = write(tmp_path, "run.ini", MINIMAL)
    assert main(["spectrum", "--config", cfg]) == 2
    assert capsys.readouterr().err == "error: ThresholdDegeneracy: x\n"


def test_command_from_run_section(tmp_path, capsys):
    # only the command line names the command; a [run] section is refused,
    # so a document asking for a sweep cannot silently print a spectrum
    text = "[run]\ncommand = sweep\n" + MINIMAL
    with pytest.raises(ConfigError) as info:
        parse_config(text)
    assert str(info.value) == "line 1: unknown section [run]"
    assert main(["spectrum", "--config",
                 write(tmp_path, "run.ini", text)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    _single_line(captured.err, "error: config: line 1: unknown section [run]")


@pytest.mark.parametrize("how", ["flag", "config"])
def test_validate_refuses_json(tmp_path, capsys, how):
    # validate writes its text table only
    if how == "flag":
        argv = ["validate", "--format", "json"]
    else:
        argv = ["validate", "--config",
                write(tmp_path, "run.ini", "[output]\nformat = json\n")]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    _single_line(captured.err, "error: config: validate writes a text table")


def test_validate_exit_code_and_determinism(tmp_path, capsys):
    out1 = tmp_path / "v1.txt"
    out2 = tmp_path / "v2.txt"
    assert main(["validate", "--out", str(out1)]) == 0
    assert main(["validate", "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    assert capsys.readouterr().out == 2 * out1.read_text()
    lines = out1.read_text().splitlines()
    assert lines[-1] == "OK: 15 of 15 checks passed"
    # every row names its measure, its value and the tolerance it passed
    for line in lines[:-1]:
        assert line.startswith("PASS  ")
        assert re.search(r" \d\.\d\de[+-]\d+ \(tol [^)]+\)$", line), line


def test_validate_fails_nonzero(monkeypatch, capsys):
    from twistcyl import validation

    monkeypatch.setattr(validation, "CHECKS",
                        (("forced-check", "forced value", 0.0, lambda: 1.0,
                          [()]),)
                        + validation.CHECKS[:1])
    assert main(["validate"]) == 3
    assert capsys.readouterr().out.splitlines()[0] == (
        "FAIL  forced-check                 forced value 1.00e+00 (tol 0) "
        "[case 0]")


def test_validate_fail_line_names_its_worst_case():
    from twistcyl.validation import run_check

    def check(x):
        if x is None:
            raise FloatingPointError("forced")
        return x

    # the largest value, the first NaN, and the case that raised
    nan = float("nan")
    for cases, tail in (
            ([0.5, 2.0, 1.0], "value 2.00e+00 (tol 0) [case 1]"),
            ([0.5, nan, 2.0, nan], "value nan (tol 0) [case 1]"),
            ([0.0, 0.0, None], "error: FloatingPointError: forced [case 2]")):
        ok, line = run_check("worst", "value", 0.0, check,
                             [(x,) for x in cases])
        assert not ok and line.endswith(tail), line
    # a passing line names no case
    assert run_check("worst", "value", 0.0, check, [(0.0,)]) == (
        True, f"PASS  {'worst':<28s} value 0.00e+00 (tol 0)")


def test_validate_reports_a_raising_check_and_goes_on(monkeypatch, capsys):
    from twistcyl import validation
    from twistcyl.errors import EigensolverFailure

    def raising():
        raise EigensolverFailure("forced")

    monkeypatch.setattr(validation, "CHECKS", validation.CHECKS[:1]
                        + (("raising-check", "never read", 1.0, raising,
                            [()]),)
                        + validation.CHECKS[1:2])
    assert main(["validate"]) == 3
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 4
    assert lines[0].startswith("PASS  metric-determinant")
    assert lines[1].startswith("FAIL  raising-check")
    assert lines[1].endswith("error: EigensolverFailure: forced [case 0]")
    assert lines[2].startswith("PASS  metric-inverse-identity")
    assert lines[3] == "FAILED: 2 of 3 checks passed"


def test_validate_check_fails_on_nan(monkeypatch, capsys):
    # a NaN deviation must fail its check, not vanish in a running maximum
    from twistcyl import validation

    monkeypatch.setattr(validation, "ode_transmission_oracle",
                        lambda energy, scenario: (float("nan"), 0.0))
    row = next(row for row in validation.CHECKS
               if row[0] == "scattering-ode-oracle")
    ok, line = validation.run_check(*row)
    assert not ok and "nan" in line
    # one NaN case among several fails its row: the builtin max would keep
    # the 0.5 and drop the NaN
    ok, line = validation.run_check("nan-case", "value", 1.0, lambda x: x,
                                    [(0.0,), (float("nan"),), (0.5,)])
    assert not ok
    assert line.startswith("FAIL  nan-case ")
    assert line.endswith(" value nan (tol 1) [case 1]")
    # and every row fails on a NaN value, whatever its tolerance
    rows = validation.CHECKS
    assert len(rows) == 15
    monkeypatch.setattr(validation, "CHECKS", tuple(
        (name, measure, tol, lambda: float("nan"), [()])
        for name, measure, tol, *_ in rows))
    assert main(["validate"]) == 3
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 16
    for line, (name, measure, tol, *_) in zip(lines, rows):
        assert line.startswith(f"FAIL  {name} ")
        assert line.endswith(f" {measure} nan (tol {tol:g}) [case 0]")
    assert lines[-1] == "FAILED: 0 of 15 checks passed"


def test_validate_unitarity_judges_degenerate_rows(monkeypatch, capsys):
    # a sweep whose every row is degenerate (NaN T and R) has no unitary
    # row, so free-unitarity must fail with the checks that read T
    from twistcyl import validation
    from twistcyl.scattering import FLAG_DEGENERATE, SweepResult

    def degenerate(scenario, energies):
        nan = np.full(len(energies), np.nan)
        return SweepResult(np.asarray(energies), nan, nan.copy(),
                           np.full(len(energies), FLAG_DEGENERATE))

    monkeypatch.setattr(validation, "transmission_sweep", degenerate)
    assert main(["validate"]) == 3
    lines = capsys.readouterr().out.splitlines()
    failed = [line.split()[1] for line in lines if line.startswith("FAIL ")]
    assert failed == ["embedded-transparency", "free-unitarity",
                      "free-twist-invariance"]
    assert lines[-1] == "FAILED: 12 of 15 checks passed"


def test_validate_curvature_check_reads_the_second_form(monkeypatch, capsys):
    # K and M are derived from the forms, so a wrong h_zz = -R f (for
    # -R f^2) fails the check although the returned K and M stay right; the
    # second form from the embedding fails it too
    from twistcyl import validation
    from twistcyl.geometry import COVARIANT, CurvatureData, Metric2

    def wrong(geom, f):
        r = geom.radius
        return CurvatureData(Metric2(-r, -r * f, -r * f, COVARIANT),
                             mean=1.0 / (2.0 * r), gaussian=0.0)

    monkeypatch.setattr(validation, "surface_curvatures", wrong)
    assert main(["validate"]) == 3
    lines = capsys.readouterr().out.splitlines()
    assert lines[2].startswith("FAIL  metric-embedding-oracle ")
    assert lines[3].startswith("FAIL  curvature-twist-invariance ")
    assert lines[-1] == "FAILED: 13 of 15 checks passed"


def test_validate_oracles_read_the_curvature_potential(monkeypatch, capsys):
    # both oracles take V_dC = -t (M^2 - K) from surface_curvatures, so a
    # mean curvature of 1/R (for 1/(2R)) fails every check that holds an
    # oracle against a closed form
    from twistcyl import numeric
    from twistcyl.geometry import CurvatureData, surface_curvatures

    def wrong(geom, f):
        curv = surface_curvatures(geom, f)
        return CurvatureData(curv.second_form, mean=1.0 / geom.radius,
                             gaussian=curv.gaussian)

    monkeypatch.setattr(numeric, "surface_curvatures", wrong)
    assert main(["validate"]) == 3
    lines = capsys.readouterr().out.splitlines()
    assert any(line.startswith("FAIL  spectrum-fd-oracle ") for line in lines)
    assert lines[-1] == "FAILED: 11 of 15 checks passed"


def test_outputs_byte_identical_across_runs(tmp_path):
    cfg = write(tmp_path, "run.ini", SCATTER)
    out1 = tmp_path / "r1.csv"
    out2 = tmp_path / "r2.csv"
    assert main(["scatter-free", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["scatter-free", "--config", cfg, "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_stdout_output_when_no_path(tmp_path, capsys):
    cfg = write(tmp_path, "run.ini", MINIMAL)
    assert main(["spectrum", "--config", cfg]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[2] == "n,l,energy"
    assert len(lines) == 3 + 15


@pytest.mark.parametrize("command,key,value", [
    ("spectrum", "length", "1e-300"),
    ("spectrum", "radius", "1e-300"),
    ("spectrum", "radius", "1e200"),
])
def test_arithmetic_error_is_numerics_exit(tmp_path, capsys, command, key,
                                           value):
    text = SCATTER.replace(f"{key} = 1.0", f"{key} = {value}", 1)
    assert text != SCATTER
    cfg = write(tmp_path, "run.ini", text)
    assert main([command, "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: numerics: ")
    assert len(err.splitlines()) == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("radius,length,term", [
    # R^2 overflows, and V* reads 0.0 where it is about 1.9e-340
    ("1e170", "1e170", "V* = t (l^2 - 1/4) / R^2 of mode n = 1, l = -2 is "
                       "0.0"),
    ("7.9e-158", "1.0", "V* = t (l^2 - 1/4) / R^2 of mode n = 1, l = -2 is "
                        "inf"),
    ("1.0", "1e-300", "box term t (n pi / L)^2 of mode n = 1, l = -2 is inf"),
], ids=["r-l-1e170", "r-7.9e-158", "l-1e-300"])
def test_spectrum_refusal_names_the_term(tmp_path, capsys, radius, length,
                                         term):
    cfg = write(tmp_path, "run.ini", MINIMAL.replace(
        "radius = 1.0", f"radius = {radius}").replace(
        "length = 1.0", f"length = {length}"))
    assert main(["spectrum", "--config", cfg]) == 2
    assert capsys.readouterr().err == (
        f"error: numerics: FloatingPointError: {term}: not finite or below "
        "the smallest normal float\n")


def _quiet_scatter_free(tmp_path, capsys, text):
    """Rows of a scatter-free run that must exit 0 with warnings as errors
    and an empty stderr."""
    cfg = write(tmp_path, "run.ini", text)
    out = tmp_path / "scatter.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["scatter-free", "--config", cfg, "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    return [line.split(",") for line in out.read_text().splitlines()[3:]]


def test_long_thin_section_is_quiet_decaying_limit(tmp_path, capsys):
    # r L overflows to -inf in the exponent; e^{-inf} = 0 is the exact
    # decaying limit, so every row is a correct ok row
    text = (SCATTER.replace("radius = 1.0", "radius = 1e-150")
            .replace("length = 1.0", "length = 1e300"))
    rows = _quiet_scatter_free(tmp_path, capsys, text)
    assert len(rows) == 20
    assert all(row[1:] == ["0", "1", "ok"] for row in rows)


def test_wide_cylinder_large_twist_and_l_stays_finite(tmp_path, capsys):
    # g_zz l^2 / R^2 with g_zz = 1 + R^2 a^2 would overflow (R^2 a^2 is
    # 2.5e299, l^2 1e12) although the potential, about (a l)^2 / 2, is finite.
    # V* ~ 5e-289, so the section is free space: T = 1 and R is rounding
    # noise, which needs region roots free of the (a l)^2 cancellation.
    text = (SCATTER.replace("radius = 1.0", "radius = 1e150")
            .replace("l = 1\n", "l = 1000000\n"))
    rows = _quiet_scatter_free(tmp_path, capsys, text)
    assert len(rows) == 20
    for _, trans, refl, flag in rows:
        assert flag == "ok"
        assert abs(float(trans) + float(refl) - 1.0) <= 1e-12
        assert abs(float(trans) - 1.0) <= 1e-15
        assert float(refl) <= 1e-15


def _scatter_config(radius, length, l, e_min, e_max, points):
    return MINIMAL.replace("radius = 1.0", f"radius = {radius}").replace(
        "length = 1.0", f"length = {length}") + f"""
[scattering]
l = {l}

[energy_grid]
min = {e_min}
max = {e_max}
points = {points}
"""


_HUGE_COUNTS = {2**62: "2^62", 2**63 - 1: "2^63-1", 10**20: "1e20"}


@pytest.mark.parametrize("command,text,code", [
    # rho L ~ 5e-155 and k << rho: mpmath gives T = 1, R = 2.05e-169
    ("scatter-free", _scatter_config(3.487e-44, 3.630e-198, 0, 3.4e-55,
                                     3.5e-55, 2), 0),
    # an inside phase of 1.5e118 rad keeps no digit: degenerate rows
    ("scatter-free", _scatter_config(1.02, 2.6e118, 1, 1.0, 2.0, 3), 0),
    # V* = -inf: degenerate rows without a RuntimeWarning
    ("scatter-embedded", _scatter_config(4.5e-157, 1.0, 0, 0.01, 5.0, 3), 0),
    # R^2 underflows to 0 and l^2 overflows: V* = +inf in place of a bare
    # ZeroDivisionError or OverflowError, so degenerate rows
    ("scatter-free", SCATTER.replace("radius = 1.0", "radius = 1e-300"), 0),
    ("scatter-free", _scatter_config(1.0, 1.0, 10**200, 0.5, 3.0, 3), 0),
    # np.linspace repeats a value a few ulps wide
    ("scatter-free", _scatter_config(1.0, 1.0, 1, 5.07497072399346e-206,
                                     5.074970723993465e-206, 7), 1),
    ("spectrum", MINIMAL.replace("radius = 1.0", "radius = 7.9e-158"), 2),
    ("wavefunction", _wavefunction_config("alpha = 0", 0).replace(
        "radius = 1.0", "radius = 1.5e-280").replace(
        "length = 2", "length = 2.4e-246"), 2),
    # 1e15 points: numpy refuses the 7.11 PiB outright
    ("scatter-free", _scatter_config(1.0, 1.0, 1, 0.01, 5.0, 10**15), 1),
    ("sweep", _scatter_config(1.0, 1.0, 1, 0.01, 5.0, 10**15)
     + "\n[sweep]\nscenario = free\nvary = alpha\nvalues = 0, 1\n", 1),
    ("wavefunction", _wavefunction_config("alpha = 0", 0).replace(
        "n_phi = 4", f"n_phi = {10**15}"), 1),
    ("wavefunction", _wavefunction_config("alpha = 0", 0, n_z=10**15), 1),
    # counts past numpy's index range: a raw ValueError or IndexError, or
    # (n_phi = 2^63 - 1) an empty grid and a header without rows
    *[row for count in _HUGE_COUNTS for row in (
        ("scatter-free", _scatter_config(1.0, 1.0, 1, 0.01, 5.0, count), 1),
        ("wavefunction", _wavefunction_config("alpha = 0", 0).replace(
            "n_phi = 4", f"n_phi = {count}"), 1),
        ("wavefunction", _wavefunction_config("alpha = 0", 0, n_z=count), 1),
        ("spectrum", MINIMAL + f"\n[modes]\nn_max = {count}\n", 1),
        ("spectrum", MINIMAL + f"\n[modes]\nl_max = {count}\n", 1))],
    # np.arange(2^63 - 1) is empty: without the size check, a bare header
    ("spectrum", MINIMAL + f"\n[modes]\nn_max = {2**63 - 1}\nl_max = 0\n", 1),
    # R^2 overflows, so V* reads 0: without the refusal, 15 rows of energy 0
    ("spectrum", MINIMAL.replace("1.0", "1e170"), 2),
    # 1 / (pi R L) is subnormal: without the refusal, psi = 0 in every cell
    ("wavefunction", _wavefunction_config("alpha = 0", 0).replace(
        "radius = 1.0", "radius = 1e200").replace(
        "length = 2", "length = 1e200"), 2),
    # hbar^2 and R^2 raised a bare OverflowError; R^2 = inf makes V* = 0,
    # where the true V* is about 4e-321, so T = 1 and R = 0
    ("spectrum", MINIMAL + "\n[physics]\nhbar = 1e200\n", 1),
    ("scatter-free", _scatter_config(1e160, 1.0, 1, 0.5, 3.0, 3), 0),
    ("scatter-embedded", _scatter_config(1e160, 1.0, 1, 0.5, 3.0, 3), 0),
    ("scatter-free", SCATTER.replace("radius = 1.0", "radius = 1e200"), 0),
    # l^2 and R^2 both overflow: V* read NaN, now t (l / R)^2 = 0.5, so
    # ok rows with T = 1 where every row was degenerate
    ("scatter-embedded", _scatter_config(1e200, 1.0, 10**200, 0.75, 3.0, 3),
     0),
    # pi R L = 9.4e-309 is subnormal: refused, where the sample printed
    ("wavefunction", _wavefunction_config("alpha = 0", 0).replace(
        "radius = 1.0", "radius = 1e-154").replace(
        "length = 2", "length = 3e-155"), 2),
    # t = hbar^2/2m inf or zero: every row was nan,nan,degenerate at exit 0
    *[("scatter-free", _scatter_config(1.0, 1.0, 1, 0.5, 3.0, 3)
       + f"\n[physics]\n{key}\n", 1)
      for key in ("mass = 1e-320", "hbar = 1e-200")],
    # l phi of about 1.6e29 rad keeps no digit of e^(i l phi)
    ("wavefunction", _wavefunction_config("alpha = 0", 10**29), 2),
], ids=["cancelling-determinant", "inside-phase", "v-star-inf",
        "scatter-free-radius-1e-300", "scatter-free-l-1e200",
        "collapsed-grid", "spectrum-inf", "wavefunction-nan",
        "scatter-points-1e15", "sweep-points-1e15", "n-phi-1e15",
        "n-z-1e15", *[f"{key}-{name}" for name in _HUGE_COUNTS.values()
                      for key in ("points", "n-phi", "n-z", "n-max",
                                  "l-max")],
        "n-max-2^63-1-l-max-0", "spectrum-r-l-1e170",
        "wavefunction-r-l-1e200", "hbar-1e200", "scatter-free-r-1e160",
        "scatter-embedded-r-1e160", "scatter-free-radius-1e200",
        "scatter-embedded-r-l-1e200", "wavefunction-subnormal-pi-r-l",
        "mass-1e-320", "hbar-1e-200", "wavefunction-l-1e29"])
def test_extreme_input_ends_finite_or_typed(tmp_path, capsys, command, text,
                                            code):
    # exit 0 with finite, unitary ok rows and an empty stderr, or a typed
    # error: one stderr line and exit 1 (config) or 2 (numerics)
    cfg = write(tmp_path, "run.ini", text)
    out = tmp_path / "out.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([command, "--config", cfg, "--out", str(out)]) == code
    err = capsys.readouterr().err
    if code:
        _single_line(err, "error: config: " if code == 1 else "error: ")
        return
    assert err == ""
    rows = [line.split(",") for line in out.read_text().splitlines()[3:]]
    for _, trans, refl, flag in rows:
        if flag == "ok":
            assert abs(float(trans) + float(refl) - 1.0) <= 1e-12
        else:
            assert flag == "degenerate" and trans == refl == "nan"


def test_every_export_resolves():
    assert len(set(twistcyl.__all__)) == len(twistcyl.__all__)
    for name in twistcyl.__all__:
        assert hasattr(twistcyl, name), name


@pytest.mark.parametrize("module", ["twistcyl", "twistcyl.cli"])
def test_python_m_runs_the_cli(module):
    src = os.path.dirname(os.path.dirname(twistcyl.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-m", module, "validate"],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "OK: 15 of 15 checks passed"


# The per-cell row renderer that the columnar one replaced, kept verbatim as
# the byte-level reference for _render.
def _ref_fmt(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".12g")


def _ref_json_value(value):
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, str):
        return value
    value = float(value)
    return None if np.isnan(value) else value


def _ref_render_csv(schema: str, config_hash: str, header, rows) -> str:
    lines = [f"# schema: {schema}", f"# config-sha256: {config_hash}",
             ",".join(header)]
    lines.extend(",".join(_ref_fmt(v) for v in row) for row in rows)
    return "\n".join(lines) + "\n"


def _ref_render_json(schema: str, config_hash: str, header, rows, echo) -> str:
    payload = {
        "schema": schema,
        "config_sha256": config_hash,
        "config": echo,
        "rows": [dict(zip(header, (_ref_json_value(v) for v in row)))
                 for row in rows],
    }
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


_CELL_DTYPES = {"f": np.float64, "i": np.int64, "U": str}
_CELL_VALUES = {
    "f": st.one_of(st.floats(), st.sampled_from([
        float("nan"), float("inf"), float("-inf"), 0.0, -0.0, 5e-324,
        -5e-324, 2.2250738585072014e-308, 1e308, -1e308,
        1.7976931348623157e308, 0.1, 1e-5, 123456789012.5])),
    "i": st.integers(-2**63, 2**63 - 1),
    # "": one row of one "" cell is still a line after the header
    "U": st.sampled_from(["ok", "sub_threshold", "degenerate", ""]),
}


# NaNs with other bits than float("nan"): the sign, and a payload
_OTHER_NANS = [-float("nan"), np.frombuffer(
    np.array([0x7FF8000000000001], dtype=np.uint64).tobytes())[0].item()]


def _with_copies(draw, kinds, columns):
    """``kinds`` and ``columns`` with up to three copies of earlier columns
    inserted after them. A copy may be the source list itself, which
    ``_arrays`` turns into the source's array, as the groups of an alpha
    sweep share theirs; a float copy may have the sign of its zeros swapped
    or one cell made a NaN of other bits, so that it prints alike or differs
    from its source in a way its bytes show."""
    kinds, columns = list(kinds), list(columns)
    for _ in range(draw(st.integers(0, 3))):
        source = draw(st.integers(0, len(columns) - 1))
        copy = list(columns[source])
        change = draw(st.sampled_from(["none", "zero-sign", "nan", "shared"]))
        if change == "shared":
            copy = columns[source]
        elif kinds[source] == "f" and copy and change == "zero-sign":
            copy = [-v if v == 0.0 else v for v in copy]
        elif kinds[source] == "f" and copy and change == "nan":
            copy[draw(st.integers(0, len(copy) - 1))] = draw(
                st.sampled_from(_OTHER_NANS))
        at = draw(st.integers(source + 1, len(columns)))
        kinds.insert(at, kinds[source])
        columns.insert(at, copy)
    return kinds, columns


def _arrays(kinds, columns):
    """One array per column; a column that is the same list as an earlier
    one gets that column's array."""
    made = {}
    for kind, column in zip(kinds, columns):
        if id(column) not in made:
            made[id(column)] = np.array(column, dtype=_CELL_DTYPES[kind])
    return [made[id(column)] for column in columns]


@st.composite
def tables(draw, copies=True):
    """Equal-length columns of mixed kinds, as Python lists, some of them
    copies of earlier ones (see ``_with_copies``)."""
    rows = draw(st.integers(0, 12))
    kinds = draw(st.lists(st.sampled_from("fiU"), min_size=1, max_size=5))
    columns = [draw(st.lists(_CELL_VALUES[kind], min_size=rows,
                             max_size=rows)) for kind in kinds]
    return _with_copies(draw, kinds, columns) if copies else (kinds, columns)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(tables())
def test_emit_matches_per_cell_reference(table):
    kinds, columns = table
    header = [f"c{i}" for i in range(len(columns))]
    arrays = _arrays(kinds, columns)
    rows = list(zip(*columns))
    base = parse_config("")
    assert _render(replace(base, output_format="csv"), "test-v1", header,
                   arrays) == _ref_render_csv("test-v1", base.config_sha256,
                                              header, rows)
    assert _render(replace(base, output_format="json"), "test-v1", header,
                   arrays) == _ref_render_json("test-v1", base.config_sha256,
                                               header, rows, base.echo)


@pytest.mark.parametrize("output_format", ["csv", "json"])
def test_one_row_of_one_empty_cell_is_a_row(output_format):
    # the row count decides whether rows follow the header, not the text:
    # one CSV row of one "" cell is an empty line (the property above draws
    # that table too rarely to pin it)
    config = replace(parse_config(""), output_format=output_format)
    rows, sha = [("",)], config.config_sha256
    assert _render(config, "test-v1", ["a"], [np.array([""])]) == (
        _ref_render_csv("test-v1", sha, ["a"], rows) if output_format == "csv"
        else _ref_render_json("test-v1", sha, ["a"], rows, config.echo))


# header labels and str cells beyond the artifacts' own: any order, repeats,
# '%', quotes, control and non-ASCII characters (no NUL, which a numpy str
# array drops at the end of a value, and no lone surrogates)
_TEXT = st.text(st.characters(blacklist_categories=("Cs",),
                              blacklist_characters="\x00"), max_size=8)


@st.composite
def labelled_tables(draw):
    """A table as in ``tables`` with free-text labels and str cells."""
    kinds, columns = draw(tables(copies=False))
    columns = [draw(st.lists(_TEXT, min_size=len(column),
                             max_size=len(column))) if kind == "U" else column
               for kind, column in zip(kinds, columns)]
    kinds, columns = _with_copies(draw, kinds, columns)
    labels = draw(st.lists(st.sampled_from(["T", "R", "%s", "energy"]) | _TEXT,
                           min_size=len(kinds), max_size=len(kinds)))
    return kinds, labels, columns


@settings(max_examples=100, deadline=None, derandomize=True)
@given(labelled_tables())
def test_emit_json_matches_reference_for_any_labels(table):
    kinds, header, columns = table
    arrays = _arrays(kinds, columns)
    config = replace(parse_config(""), output_format="json")
    assert _render(config, "test-v1", header, arrays) == _ref_render_json(
        "test-v1", config.config_sha256, header, list(zip(*columns)),
        config.echo)


def test_json_document_peak_is_bounded_by_the_text():
    # the rows are spliced into the document by one join: on an 8 x 5000
    # alpha sweep the traced peak stays within 2.5 times the text (a
    # replace splice and a trailing "\n" made it 3.25 times)
    import tracemalloc

    from twistcyl import cli

    config = parse_config(
        SCATTER.replace("points = 20", "points = 5000")
        + "\n[sweep]\nscenario = free\nvary = alpha\n"
        + "values = 0, 0.5, 1, 1.5, 2, 2.5, 3, 3.5\n")
    schema, _, handler = cli._COMMANDS["sweep"]
    header, columns = handler(config)
    columns = [np.asarray(column) for column in columns]
    tracemalloc.start()
    try:
        text = cli._render(replace(config, output_format="json"), schema,
                           header, columns)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(json.loads(text)["rows"]) == 5000
    assert peak <= 2.5 * len(text)


FULL_NATURAL = """\
[physics]
hbar = 1.0
mass = 1.0

[geometry]
radius = 1.0
length = 2.0

[twist]
profile = linear-ramp
alpha0 = 0.3

[modes]
n_max = 3
l_max = 2

[scattering]
l = 1

[energy_grid]
min = 0.01
max = 5.0
points = 20

[sweep]
scenario = free
vary = radius
values = 0.5, 1.0, 2.0

[wavefunction]
n = 1
l = 0
n_phi = 8
n_z = 8

[output]
path = out.csv
format = csv
"""

FULL_ELECTRON = ELECTRON_SCATTER + """
[sweep]
scenario = embedded
vary = alpha
values = 0 1/nm, 2 1/angstrom
"""

_FUZZ_VALUES = st.sampled_from([
    "", "nan", "-nan", "inf", "-inf", "1e999", "-1e999", "1e308", "1e-320",
    "0", "-1", "2.5", "7", "99999999999999999999", "x", "1e308 1/angstrom",
    "1e308 angstrom", "2 nm", "3 A", "5 meV", "1 eV", "4 furlong", "1 2 3",
    "nan nm", "inf eV", "0, 1", "1,,2", "1, inf", "1, 1e999 1/A", ",",
    "constant", "linear-ramp", "free", "embedded", "alpha", "l", "radius",
    "natural", "electron_nm_eV", "json", "csv", "validate", "[x]"])


@st.composite
def mutated_configs(draw):
    """A valid config document with lines or whole sections dropped, lines
    duplicated, garbled or given new values, unit suffixes and inline
    comments."""
    lines = draw(st.sampled_from([FULL_NATURAL, FULL_ELECTRON])).splitlines()
    for _ in range(draw(st.integers(1, 6))):
        i = draw(st.integers(0, len(lines) - 1))
        op = draw(st.sampled_from(["drop", "duplicate", "garble", "value",
                                   "suffix", "comment", "drop-section"]))
        if op == "drop" and len(lines) > 1:
            del lines[i]
        elif op == "drop-section":
            heads = [j for j, line in enumerate(lines) if line.startswith("[")]
            if len(heads) > 1:
                k = draw(st.integers(0, len(heads) - 1))
                del lines[heads[k]:(heads + [len(lines)])[k + 1]]
        elif op == "comment":
            lines[i] += "  # comment"
        elif op == "duplicate":
            lines.insert(i, lines[i])
        elif op == "garble":
            cut = draw(st.integers(0, len(lines[i])))
            lines[i] = lines[i][:cut] + draw(st.text(max_size=8))
        elif op == "value":
            key, sep, _ = lines[i].partition("=")
            lines[i] = key + (sep or "=") + " " + draw(_FUZZ_VALUES)
        else:
            lines[i] += " " + draw(st.sampled_from(
                ["nm", "angstrom", "1/nm", "1/A", "eV", "meV", "m", "="]))
    return "\n".join(lines) + "\n"


@settings(max_examples=300, deadline=None, derandomize=True)
@given(mutated_configs())
def test_parse_config_returns_or_raises_config_error(text):
    try:
        config = parse_config(text)
    except ConfigError:
        return
    numbers = [config.physics.hbar, config.physics.mass, config.twist.f(1.0)]
    if config.geometry is not None:
        numbers += [config.geometry.radius, config.geometry.length]
    if config.energy_grid is not None:
        numbers += config.energy_grid[:2]
    if config.sweep is not None:
        numbers += config.sweep[2]
    assert np.all(np.isfinite(numbers))


# log-uniform magnitudes over 1e-300 .. 1e300
_MAGNITUDES = st.floats(-300.0, 300.0).map(lambda x: 10.0 ** x)
_ALPHAS = st.one_of(st.just(0.0), _MAGNITUDES, _MAGNITUDES.map(lambda x: -x))
_LS = st.integers(-40, 40)
_SWEEP_VALUES = {"alpha": _ALPHAS, "l": _LS, "radius": _MAGNITUDES}


@st.composite
def extreme_runs(draw):
    """A command and a config document with every section it may need:
    radius, length, twist and energies anywhere in 1e+-300, |l| <= 40, and
    tiny grids."""
    command = draw(st.sampled_from(["spectrum", "wavefunction",
                                    "scatter-embedded", "scatter-free",
                                    "sweep"]))
    l = draw(_LS)
    twist = draw(st.sampled_from(["profile = constant\nalpha",
                                  "profile = linear-ramp\nalpha0"]))
    e_min, e_max = sorted(draw(st.lists(_MAGNITUDES, min_size=2,
                                        max_size=2, unique=True)))
    vary = draw(st.sampled_from(sorted(_SWEEP_VALUES)))
    values = draw(st.lists(_SWEEP_VALUES[vary], min_size=1, max_size=3,
                           unique=True))
    sweep = f"""
[sweep]
scenario = {draw(st.sampled_from(["embedded", "free"]))}
vary = {vary}
values = {", ".join(map(repr, values))}
""" if command == "sweep" else ""
    return command, f"""\
[geometry]
radius = {draw(_MAGNITUDES)!r}
length = {draw(_MAGNITUDES)!r}

[twist]
{twist} = {draw(_ALPHAS)!r}

[modes]
l_max = {abs(l)}

[scattering]
l = {l}

[energy_grid]
min = {e_min!r}
max = {e_max!r}
points = 7

[wavefunction]
n = {draw(st.integers(1, 40))}
l = {l}
n_phi = 4
n_z = 9
""" + sweep


def _exact_energy(config, n: int, l: int):
    """t (n pi / L)^2 + t (l^2 - 1/4) / R^2 at 40 digits from the parsed
    floats, and one unit of its 12th significant digit, the last printed."""
    with mpmath.workdps(40):
        phys, geom = config.physics, config.geometry
        t = mpmath.mpf(phys.hbar)**2 / (2 * mpmath.mpf(phys.mass))
        energy = t * ((n * mpmath.pi / mpmath.mpf(geom.length))**2
                      + (mpmath.mpf(l)**2 - 0.25) / mpmath.mpf(geom.radius)**2)
        return energy, mpmath.mpf(10)**(
            mpmath.floor(mpmath.log10(abs(energy))) - 11)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(extreme_runs())
def test_every_artifact_command_ends_finite_or_typed(tmp_path_factory, run):
    # exit 0 with an empty stderr and finite rows whose flags mean what they
    # say, or exit 1 (config) or 2 (numerics) with one error line; a spectrum
    # energy agrees with the 40-digit closed form to its last printed digit
    command, text = run
    cfg = tmp_path_factory.mktemp("run") / "run.ini"
    cfg.write_text(text)
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), redirect_stdout(out), redirect_stderr(err):
        warnings.simplefilter("error")
        code = main([command, "--config", str(cfg)])
    if code:
        assert code in (1, 2)
        assert out.getvalue() == ""
        _single_line(err.getvalue(), "error: ")
        return
    assert err.getvalue() == ""
    rows = [line.split(",") for line in out.getvalue().splitlines()[3:]]
    assert rows
    config = parse_config(text)
    for row in rows:
        if command in ("spectrum", "wavefunction"):
            assert np.all(np.isfinite([float(cell) for cell in row])), row
            if command == "spectrum":
                energy, unit = _exact_energy(config, int(row[0]), int(row[1]))
                assert abs(mpmath.mpf(row[2]) - energy) <= unit, row
            continue
        assert np.isfinite(float(row[0])), row
        for trans, refl, flag in zip(row[1::3], row[2::3], row[3::3]):
            if flag == "ok":
                assert np.isfinite([float(trans), float(refl)]).all(), row
                assert abs(float(trans) + float(refl) - 1.0) <= 1e-12, row
            elif flag == "sub_threshold":
                assert (trans, refl) == ("0", "1"), row
            else:
                assert (flag, trans, refl) == ("degenerate", "nan", "nan"), row
