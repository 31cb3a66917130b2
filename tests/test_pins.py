"""Every pinned artifact regenerates byte for byte.

The pins and the command that rewrites them are described in ``pinned.py``.
"""

import pytest

from pinned import PINS, artifacts, pinned_hashes, sha256, write

CASES = list(artifacts())


def _first_difference(got: bytes, want: bytes) -> str:
    got_lines, want_lines = got.splitlines(), want.splitlines()
    for lineno, (a, b) in enumerate(zip(got_lines, want_lines), start=1):
        if a != b:
            return f"line {lineno}: got {a!r}, pinned {b!r}"
    return (f"got {len(got_lines)} lines, pinned {len(want_lines)} "
            "(or only the line ends differ)")


@pytest.mark.parametrize("name,command,text,fmt", CASES,
                         ids=[case[0] for case in CASES])
def test_artifact_matches_its_pin(tmp_path, name, command, text, fmt):
    out = tmp_path / name
    write(out, command, text, fmt)
    if name.startswith("wavefunction."):
        assert sha256(out) == pinned_hashes()[name], (
            f"{name}: SHA-256 differs from its pin")
        return
    got, want = out.read_bytes(), (PINS / name).read_bytes()
    assert got == want, f"{name}: {_first_difference(got, want)}"
