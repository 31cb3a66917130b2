import json
import os
import subprocess
import sys
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import twistcyl
from twistcyl.cli import _emit, default_config, main, parse_config
from twistcyl.errors import ConfigError
from twistcyl.geometry import ELECTRON_NM_EV

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
    assert config.twist.is_constant and config.twist.rate == 0.0
    assert (config.n_max, config.l_max) == (3, 2)
    assert config.output_format == "csv"


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


def test_import_leaves_oracle_scipy_modules_unloaded():
    # a fresh interpreter runs validate on the same twistcyl this process
    # imported; neither the import nor the oracles may load any scipy module,
    # and the seeded checks draw without numpy.random
    src = os.path.dirname(os.path.dirname(twistcyl.__file__))
    code = ("import sys; sys.path.insert(0, sys.argv[1]); "
            "from twistcyl.cli import main; rc = main(['validate']); "
            "print(rc, sorted(m for m in sys.modules "
            "if m.partition('.')[0] == 'scipy'), "
            "'numpy.random' in sys.modules, file=sys.stderr)")
    proc = subprocess.run([sys.executable, "-c", code, src],
                          capture_output=True, text=True, check=True)
    assert proc.stdout.rstrip().endswith("OK: 15 of 15 checks passed")
    assert proc.stderr.strip() == "0 [] False"


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
    assert config.physics.unit_system == ELECTRON_NM_EV
    assert config.physics.hbar2_over_2m == pytest.approx(0.0380998, abs=1e-12)
    assert config.geometry.radius == pytest.approx(1.0, abs=1e-15)
    assert config.twist.rate == pytest.approx(0.5, abs=1e-15)
    assert config.energy_grid[0] == pytest.approx(0.01, abs=1e-15)


def test_parse_rejects_unit_suffix_in_natural_units():
    bad = MINIMAL.replace("radius = 1.0", "radius = 1.0 nm")
    with pytest.raises(ConfigError, match="nm"):
        parse_config(bad)


def test_parse_rejects_hbar_override_in_preset():
    text = "[physics]\nunit_system = electron_nm_eV\nhbar = 2\n" + MINIMAL
    with pytest.raises(ConfigError, match="hbar"):
        parse_config(text)


def test_default_config_round_trip():
    config = default_config("validate")
    assert config.command == "validate"


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
    assert lines[1].startswith("# config-sha256: ")
    assert lines[2] == "n,l,energy"
    rows = [line.split(",") for line in lines[3:]]
    assert len(rows) == 15
    assert rows[0] == ["1", "0", "4.80980220054"]
    energies = [float(r[2]) for r in rows]
    assert energies == sorted(energies)


def test_spectrum_json_format(tmp_path):
    cfg = write(tmp_path, "run.ini", MINIMAL)
    out = tmp_path / "spectrum.json"
    assert main(["spectrum", "--config", cfg, "--out", str(out),
                 "--format", "json"]) == 0
    payload = json.loads(out.read_text())
    assert payload["schema"] == "twistcyl-spectrum-v1"
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


def test_sweep_requires_section(tmp_path):
    cfg = write(tmp_path, "run.ini", SCATTER)
    assert main(["sweep", "--config", cfg]) == 1


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


def test_scatter_requires_constant_twist(tmp_path):
    cfg = write(tmp_path, "run.ini", SCATTER.replace(
        "profile = constant\nalpha = 0.5", "profile = linear-ramp\nalpha0 = 0.3"))
    assert main(["scatter-free", "--config", cfg]) == 1


def test_missing_config_is_config_error():
    assert main(["spectrum"]) == 1
    assert main(["spectrum", "--config", "/nonexistent/path.ini"]) == 1


def test_unknown_command_is_config_error():
    assert main(["transmogrify"]) == 1


def test_command_from_run_section(tmp_path):
    text = "[run]\ncommand = spectrum\n" + MINIMAL
    config = parse_config(text)
    assert config.command == "spectrum"


def test_validate_exit_code_and_determinism(tmp_path, capsys):
    out1 = tmp_path / "v1.txt"
    out2 = tmp_path / "v2.txt"
    assert main(["validate", "--out", str(out1)]) == 0
    assert main(["validate", "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    stdout = capsys.readouterr().out
    assert "checks passed" in stdout


def test_validate_fails_nonzero(monkeypatch, capsys):
    from twistcyl import validation

    def broken():
        return False, "forced failure"

    monkeypatch.setattr(validation, "CHECKS",
                        (("forced-check", broken),) + validation.CHECKS[:1])
    assert main(["validate"]) == 3
    assert "FAIL  forced-check" in capsys.readouterr().out


def test_validate_reports_a_raising_check_and_goes_on(monkeypatch, capsys):
    from twistcyl import validation
    from twistcyl.errors import EigensolverFailure

    def raising():
        raise EigensolverFailure("forced")

    monkeypatch.setattr(validation, "CHECKS", validation.CHECKS[:1]
                        + (("raising-check", raising),)
                        + validation.CHECKS[1:2])
    assert main(["validate"]) == 3
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 4
    assert lines[0].startswith("PASS  metric-determinant")
    assert lines[1].startswith("FAIL  raising-check")
    assert lines[1].endswith("error: EigensolverFailure: forced")
    assert lines[2].startswith("PASS  metric-inverse-identity")
    assert lines[3] == "FAILED: 2 of 3 checks passed"


def test_validate_check_fails_on_nan(monkeypatch):
    # a NaN deviation must fail its check, not vanish in a running maximum
    from twistcyl import validation

    monkeypatch.setattr(validation, "ode_transmission_oracle",
                        lambda energy, scenario: (float("nan"), 0.0))
    ok, detail = dict(validation.CHECKS)["scattering-ode-oracle"]()
    assert not ok and "nan" in detail


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
    ("scatter-free", "radius", "1e-300"),
    ("spectrum", "radius", "1e200"),
    ("scatter-free", "radius", "1e200"),
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
# the byte-level reference for _emit.
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
    "U": st.sampled_from(["ok", "sub_threshold", "degenerate"]),
}


@st.composite
def tables(draw):
    """Equal-length columns of mixed kinds, as Python lists."""
    rows = draw(st.integers(0, 12))
    kinds = draw(st.lists(st.sampled_from("fiU"), min_size=1, max_size=5))
    return kinds, [draw(st.lists(_CELL_VALUES[kind], min_size=rows,
                                 max_size=rows)) for kind in kinds]


@settings(max_examples=100, deadline=None, derandomize=True)
@given(tables())
def test_emit_matches_per_cell_reference(tmp_path_factory, table):
    kinds, columns = table
    header = [f"c{i}" for i in range(len(columns))]
    arrays = [np.array(column, dtype=_CELL_DTYPES[kind])
              for kind, column in zip(kinds, columns)]
    rows = list(zip(*columns))
    out = tmp_path_factory.mktemp("emit") / "artifact"
    base = replace(default_config("spectrum"), output_path=str(out))
    _emit(replace(base, output_format="csv"), "test-v1", header, arrays)
    assert out.read_bytes() == _ref_render_csv(
        "test-v1", base.config_sha256, header, rows).encode("utf-8")
    _emit(replace(base, output_format="json"), "test-v1", header, arrays)
    assert out.read_bytes() == _ref_render_json(
        "test-v1", base.config_sha256, header, rows,
        base.echo).encode("utf-8")


# header labels and str cells beyond the artifacts' own: any order, repeats,
# '%', quotes, control and non-ASCII characters (no NUL, which a numpy str
# array drops at the end of a value, and no lone surrogates)
_TEXT = st.text(st.characters(blacklist_categories=("Cs",),
                              blacklist_characters="\x00"), max_size=8)


@st.composite
def labelled_tables(draw):
    """A table as in ``tables`` with free-text labels and str cells."""
    kinds, columns = draw(tables())
    labels = draw(st.lists(st.sampled_from(["T", "R", "%s", "energy"]) | _TEXT,
                           min_size=len(kinds), max_size=len(kinds)))
    columns = [draw(st.lists(_TEXT, min_size=len(column),
                             max_size=len(column))) if kind == "U" else column
               for kind, column in zip(kinds, columns)]
    return kinds, labels, columns


@settings(max_examples=100, deadline=None, derandomize=True)
@given(labelled_tables())
def test_emit_json_matches_reference_for_any_labels(tmp_path_factory, table):
    kinds, header, columns = table
    arrays = [np.array(column, dtype=_CELL_DTYPES[kind])
              for kind, column in zip(kinds, columns)]
    out = tmp_path_factory.mktemp("emit") / "artifact.json"
    config = replace(default_config("spectrum"), output_path=str(out),
                     output_format="json")
    _emit(config, "test-v1", header, arrays)
    assert out.read_bytes() == _ref_render_json(
        "test-v1", config.config_sha256, header, list(zip(*columns)),
        config.echo).encode("utf-8")


FULL_NATURAL = """\
[run]
command = sweep

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
    """A valid config document with lines dropped, duplicated, garbled or
    given new values and unit suffixes."""
    lines = draw(st.sampled_from([FULL_NATURAL, FULL_ELECTRON])).splitlines()
    for _ in range(draw(st.integers(1, 6))):
        i = draw(st.integers(0, len(lines) - 1))
        op = draw(st.sampled_from(
            ["drop", "duplicate", "garble", "value", "suffix"]))
        if op == "drop" and len(lines) > 1:
            del lines[i]
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
        numbers += config.sweep.values
    assert np.all(np.isfinite(numbers))
