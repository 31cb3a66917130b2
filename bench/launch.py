"""Child-process launcher: the one way the benchmark enters twistcyl.

    python3 bench/launch.py run [--spans FILE] -- <twistcyl argv...>
    python3 bench/launch.py setup CONFIG

``run`` calls ``twistcyl.cli.main(argv)`` and exits with its code, as the
installed console script would. With ``--spans`` it first replaces each
public layer function, at the module where it is looked up, with a timing
wrapper, and writes every span to FILE as JSON at exit. A function that no
longer exists is skipped, so it reads as absent with zero calls.

``setup`` imports ``twistcyl.cli``, parses CONFIG with ``parse_config`` and
exits: the fixed cost a user pays before any command runs.

The package is not installed, so ``src`` next to this directory goes first on
the path.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import sys
import threading
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src"))

# (module where the name is looked up, attribute, layer span name)
LAYER_SITES = (
    ("twistcyl.cli", "parse_config", "cli.parse_config"),
    ("twistcyl.cli", "run", "cli.run"),
    ("twistcyl.cli", "transmission_sweep", "scattering.transmission_sweep"),
    ("twistcyl.validation", "transmission_sweep",
     "scattering.transmission_sweep"),
    ("twistcyl.scattering", "solve_scattering", "scattering.solve_scattering"),
    ("twistcyl.validation", "solve_scattering", "scattering.solve_scattering"),
    ("twistcyl.scattering", "solve_linear_complex",
     "numeric.solve_linear_complex"),
    ("twistcyl.validation", "solve_linear_complex",
     "numeric.solve_linear_complex"),
    ("twistcyl.validation", "fd_bound_spectrum", "numeric.fd_bound_spectrum"),
    ("twistcyl.validation", "ode_transmission_oracle",
     "numeric.ode_transmission_oracle"),
    ("twistcyl.spectrum", "integrate_adaptive", "numeric.integrate_adaptive"),
    ("twistcyl.validation", "integrate_adaptive",
     "numeric.integrate_adaptive"),
    ("twistcyl.cli", "bound_wavefunction", "spectrum.bound_wavefunction"),
    ("twistcyl.validation", "bound_wavefunction",
     "spectrum.bound_wavefunction"),
    ("twistcyl.cli", "run_validation", "validation.run_validation"),
)


class Tracer:
    """In-memory spans: (id, name, start, end, parent id, thread id).

    A span's parent is the innermost open span of its own thread. A worker
    thread with no open span takes the main thread's innermost open span,
    which is the call that is blocked waiting for the worker.
    """

    def __init__(self):
        self.spans = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._main_stack = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = (self._main_stack
                     if threading.current_thread() is threading.main_thread()
                     else [])
            self._local.stack = stack
        return stack

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def timed(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else (
                self._main_stack[-1] if self._main_stack else None)
            span_id = next(self._ids)
            stack.append(span_id)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                self.spans.append((span_id, name, start, end, parent,
                                   threading.get_ident()))
        return timed

    def install(self) -> None:
        for module_name, attr, name in LAYER_SITES:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                continue
            fn = getattr(module, attr, None)
            if callable(fn):
                setattr(module, attr, self.wrap(name, fn))


def _run(args: list) -> int:
    spans_path = None
    if args[:1] == ["--spans"]:
        spans_path, args = args[1], args[2:]
    if args[:1] != ["--"]:
        raise SystemExit("usage: launch.py run [--spans FILE] -- ARGV...")
    import twistcyl.cli
    if spans_path is None:
        return twistcyl.cli.main(args[1:])
    tracer = Tracer()
    tracer.install()
    try:
        return twistcyl.cli.main(args[1:])
    finally:
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.spans, fh)


def _setup(path: str) -> int:
    from twistcyl.cli import parse_config
    with open(path, encoding="utf-8") as fh:
        parse_config(fh.read())
    return 0


if __name__ == "__main__":
    mode, rest = (sys.argv[1:2] or [""])[0], sys.argv[2:]
    if mode == "run":
        code = _run(rest)
    elif mode == "setup" and len(rest) == 1:
        code = _setup(rest[0])
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    sys.stdout.flush()
    sys.exit(code)
