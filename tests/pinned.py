"""Pinned artifacts of the README example config and of three bench cases,
and the script that regenerates them.

``pins/readme.ini`` is the README's example config without its ``path``
line. Its ``spectrum``, ``scatter-embedded``, ``scatter-free`` and ``sweep``
artifacts are pinned as text in CSV and JSON, and so is a reduced
``wavefunction`` grid (the same config with an ``[wavefunction]`` section
of l = 1 on 16 x 9 points). The ``wavefunction`` of the default 256 x 256
grid, 4 MB of CSV and 11 MB of JSON, is pinned by its SHA-256 in
``pins/wavefunction.sha256``, in ``sha256sum`` format.

``pins/bench-<workload>.ini`` is the config that ``bench/workloads.py``
builds for ``make(1, tiny=True)`` of the ``sweep-free``,
``scatter-embedded-json`` and ``wavefunction-csv`` workloads, copied as text
so that the tests import no bench code; each one's artifact is pinned as
``bench-<workload>.<format>``.

After a change that moves printed digits on purpose, rewrite every pin with

    PYTHONPATH=src python tests/pinned.py

and list the pins that moved in CHANGES.md.
"""

import hashlib
from dataclasses import replace
from pathlib import Path

from twistcyl.cli import parse_config, run

PINS = Path(__file__).parent / "pins"
SMALL_GRID = "\n[wavefunction]\nl = 1\nn_phi = 16\nn_z = 9\n"
HASHES = PINS / "wavefunction.sha256"
# (workload, command, format) of each pinned bench case
BENCH_CASES = (("sweep-free", "sweep", "csv"),
               ("scatter-embedded-json", "scatter-embedded", "json"),
               ("wavefunction-csv", "wavefunction", "csv"))


def artifacts():
    """(file name, command, config text, format) of every pinned artifact;
    the two ``wavefunction.*`` files are pinned by hash."""
    text = (PINS / "readme.ini").read_text(encoding="utf-8")
    for fmt in ("csv", "json"):
        for command in ("spectrum", "scatter-embedded", "scatter-free",
                        "sweep"):
            yield f"{command}.{fmt}", command, text, fmt
        yield (f"wavefunction-16x9.{fmt}", "wavefunction", text + SMALL_GRID,
               fmt)
        yield f"wavefunction.{fmt}", "wavefunction", text, fmt
    for workload, command, fmt in BENCH_CASES:
        bench = (PINS / f"bench-{workload}.ini").read_text(encoding="utf-8")
        yield f"bench-{workload}.{fmt}", command, bench, fmt


def write(out: Path, command: str, text: str, fmt: str) -> None:
    """Write one artifact to ``out`` through the CLI's ``run``."""
    run(command, replace(parse_config(text), output_path=str(out),
                         output_format=fmt))


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def pinned_hashes() -> dict:
    """File name -> SHA-256 of each artifact pinned by hash."""
    lines = HASHES.read_text(encoding="ascii").splitlines()
    return {name: digest for digest, name in map(str.split, lines)}


def regenerate() -> None:
    """Rewrite every pin under ``pins/`` from the current code."""
    hashes = []
    for name, command, text, fmt in artifacts():
        out = PINS / name
        write(out, command, text, fmt)
        if name.startswith("wavefunction."):
            hashes.append(f"{sha256(out)}  {name}\n")
            out.unlink()
    HASHES.write_text("".join(hashes), encoding="ascii")


if __name__ == "__main__":
    regenerate()
