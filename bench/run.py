"""twistcyl end-to-end benchmark with a separately traced per-layer run.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --smoke

Run from the repository root. Every invocation is a fresh interpreter
started through ``bench/launch.py``, the way a user runs the CLI, so import
cost is always paid. The load is a closed loop with one client: the next
invocation starts only after the previous one has exited. Nothing is passed
to the CLI but ``--config`` and ``--out``, so the sweep pool uses its
default size (the CPU count, at most 4).

``--trace 0`` reports the end-to-end metrics named in BENCHMARK.json.
``--trace 1`` reports the per-layer metrics: it alternates untraced and traced
invocations (the launcher wraps each layer function in a timing span) and
times imports with ``python -X importtime``. Every artifact is checked
against the closed forms, and repeated invocations must write identical
bytes. The last line of stdout is the JSON result; the line before it is a
report with the machine, tail latency, sample counts and the failed
fraction.

``--smoke`` runs every workload at tiny size in-process through the same
checkers, checks that each checker rejects a corrupted copy of its artifact,
and checks BENCHMARK.json against the metric names computed here.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.metadata
import io
import json
import math
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from workloads import WORKLOADS, CheckFailed

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
LAUNCH = BENCH / "launch.py"
SPEC = ROOT / "BENCHMARK.json"

SETUP_PROBES = 7
IMPORT_PROBES = 3

_IMPORT_LINE = re.compile(r"import time:\s*(\d+)\s*\|\s*(\d+)\s*\|( *)(\S+)")


@dataclass(frozen=True)
class Sample:
    wall: float
    code: int
    cpu: float
    rss_mb: float


def _spawn(cmd: list, stderr_path: Path) -> Sample:
    """Run one child to completion; wall time spans process start to exit."""
    with open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Sample(wall, proc.returncode, usage.ru_utime + usage.ru_stime,
                  usage.ru_maxrss / 1024.0)


class Bench:
    """One workload case in a private work directory inside the checkout."""

    def __init__(self, workload, seed: int, work: Path, tiny: bool = False):
        self.workload = workload
        self.case = workload.make(seed, tiny)
        self.work = work
        self.ini = work / f"{workload.name}{'-tiny' if tiny else ''}.ini"
        self.ini.write_text(self.case.ini, encoding="utf-8")
        self.out = work / "artifact"
        self.log = work / "stderr.log"
        self.argv = [self.case.command]
        if self.case.ini:
            self.argv += ["--config", str(self.ini)]
        self.argv += ["--out", str(self.out)]
        self.reference = None  # sha256 of the first artifact that passed
        self.rows = 0
        self.flags = {}
        self.artifact_bytes = 0
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def invoke(self, spans: Path | None = None) -> Sample:
        """One timed CLI invocation, then its artifact check (untimed)."""
        if self.out.exists():
            self.out.unlink()
        cmd = [sys.executable, str(LAUNCH), "run"]
        if spans is not None:
            cmd += ["--spans", str(spans)]
        sample = _spawn(cmd + ["--"] + self.argv, self.log)
        self.attempted += 1
        error = self._check(sample)
        if error:
            self.failed += 1
            self.errors.append(error)
        return sample

    def _check(self, sample: Sample) -> str | None:
        if sample.code != 0:
            tail = self.log.read_text(errors="replace").strip()[-300:]
            return f"exit code {sample.code}: {tail}"
        if not self.out.exists():
            return "no artifact written"
        data = self.out.read_bytes()
        digest = hashlib.sha256(data).hexdigest()
        if self.reference is not None:
            return (None if digest == self.reference
                    else "artifact differs from the first invocation's bytes")
        try:
            self.rows, self.flags = self.workload.check(self.case,
                                                        str(self.out))
        except CheckFailed as exc:
            return f"check failed: {exc}"
        self.reference = digest
        self.artifact_bytes = len(data)
        return None

    def setup_probe(self, importtime: bool = False) -> Sample:
        cmd = [sys.executable]
        if importtime:
            cmd += ["-X", "importtime"]
        sample = _spawn(cmd + [str(LAUNCH), "setup", str(self.ini)], self.log)
        if sample.code != 0:
            self.errors.append(f"setup probe exit code {sample.code}")
        return sample


def _machine() -> dict:
    cpu = platform.processor()
    with contextlib.suppress(OSError), open("/proc/cpuinfo") as fh:
        cpu = next((line.split(":", 1)[1].strip() for line in fh
                    if line.startswith("model name")), cpu)
    versions = {}
    for package in ("numpy", "scipy"):
        try:
            versions[package] = importlib.metadata.version(package)
        except importlib.metadata.PackageNotFoundError:
            versions[package] = None
    return {"nproc": os.cpu_count(), "cpu_model": cpu,
            "python": platform.python_version(), **versions,
            "loadavg_start": list(os.getloadavg())}


def _tail(values: list) -> dict:
    """Highest percentile with at least ten samples beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    for pct in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        if n * (1.0 - pct / 100.0) >= 10.0:
            return {"percentile": pct,
                    "value": ordered[min(n - 1, int(pct / 100.0 * n))]}
    return {"percentile": None, "value": None}


def _union(intervals) -> float:
    total, end = 0.0, float("-inf")
    for lo, hi in sorted(intervals):
        if hi > end:
            total += hi - max(lo, end)
            end = hi
    return total


def _span_stats(spans: list) -> dict:
    """Per-name call count, summed and union time, and self time."""
    children = {}
    for span in spans:
        children.setdefault(span[4], []).append(span)
    stats = {}
    for sid, name, start, end, _, _ in spans:
        st = stats.setdefault(name, {"calls": 0, "sum_s": 0.0, "self_s": 0.0,
                                     "intervals": []})
        st["calls"] += 1
        st["sum_s"] += end - start
        st["intervals"].append((start, end))
        covered = _union((max(c[2], start), min(c[3], end))
                         for c in children.get(sid, ()) if c[3] > start)
        st["self_s"] += (end - start) - covered
    for st in stats.values():
        st["union_s"] = _union(st.pop("intervals"))
    return stats


def layer_metrics(stats: dict, bench: Bench) -> dict:
    """Per-layer metrics of one traced invocation (absent layers read 0)."""

    def get(name, key):
        return stats.get(name, {}).get(key, 0.0)

    sweep = "scattering.transmission_sweep"
    points = sum(bench.flags.values())
    metrics = {
        "cli.parse_config.s": get("cli.parse_config", "sum_s"),
        "cli.run.s": get("cli.run", "sum_s"),
        "cli.self_s": get("cli.run", "self_s"),
        "cli.artifact_bytes": bench.artifact_bytes,
        "cli.rows": bench.rows,
        f"{sweep}.calls": get(sweep, "calls"),
        f"{sweep}.sum_s": get(sweep, "sum_s"),
        f"{sweep}.union_s": get(sweep, "union_s"),
        f"{sweep}.overlap": (get(sweep, "sum_s") / get(sweep, "union_s")
                             if get(sweep, "union_s") else 0.0),
        "scattering.solve_scattering.calls":
            get("scattering.solve_scattering", "calls"),
        "scattering.solve_scattering.sum_s":
            get("scattering.solve_scattering", "sum_s"),
        "scattering.us_per_point":
            get(sweep, "sum_s") * 1e6 / points if points else 0.0,
        "scattering.points_ok": bench.flags.get("ok", 0),
        "scattering.points_sub_threshold": bench.flags.get("sub_threshold", 0),
        "scattering.points_degenerate": bench.flags.get("degenerate", 0),
        "scattering.ok_ratio":
            bench.flags.get("ok", 0) / points if points else 0.0,
    }
    for name in ("numeric.solve_linear_complex", "numeric.fd_bound_spectrum",
                 "numeric.ode_transmission_oracle",
                 "numeric.integrate_adaptive"):
        metrics[f"{name}.calls"] = get(name, "calls")
        metrics[f"{name}.sum_s"] = get(name, "sum_s")
    metrics["validation.run_validation.sum_s"] = get(
        "validation.run_validation", "sum_s")
    metrics["spectrum.bound_wavefunction.sum_s"] = get(
        "spectrum.bound_wavefunction", "sum_s")
    return metrics


def import_metrics(stderr_text: str) -> dict:
    """Cumulative import times from ``python -X importtime`` output."""
    cumulative, top = {}, []
    for match in _IMPORT_LINE.finditer(stderr_text):
        seconds = int(match.group(2)) * 1e-6
        depth, name = len(match.group(3)), match.group(4)
        cumulative[name] = seconds
        if name == "twistcyl" or name.startswith("twistcyl."):
            top.append((depth, seconds))
    shallowest = min((depth for depth, _ in top), default=0)
    return {
        "import.twistcyl_cli_s": sum(s for d, s in top if d == shallowest),
        "import.scipy_integrate_s": cumulative.get("scipy.integrate", 0.0),
        "import.numpy_s": cumulative.get("numpy", 0.0),
    }


def _median_dict(dicts: list) -> dict:
    keys = set().union(*dicts)
    return {key: statistics.median(d[key] for d in dicts if key in d)
            for key in sorted(keys)}


def _has_room(start: float, seconds: float, walls: list) -> bool:
    """Whether another step of the median length ends, on average, inside
    the budget: the run stops early rather than overshooting by a step."""
    if not walls:
        return True
    elapsed = time.perf_counter() - start
    return elapsed + statistics.median(walls) / 2.0 <= seconds


def measure(bench: Bench, seconds: float) -> tuple:
    """Closed loop for ``seconds``, set-up probes spread evenly over it."""
    setup, samples = [], []
    start = time.perf_counter()
    while _has_room(start, seconds, [s.wall for s in samples]):
        share = (time.perf_counter() - start) / seconds
        while len(setup) < min(SETUP_PROBES, math.ceil(SETUP_PROBES * share)):
            setup.append(bench.setup_probe().wall)
        samples.append(bench.invoke())
    while len(setup) < SETUP_PROBES:
        setup.append(bench.setup_probe().wall)
    walls = [s.wall for s in samples]
    wall = statistics.median(walls)
    metrics = {
        "wall_s": wall,
        "rows_per_s": bench.rows / wall,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": statistics.median(s.rss_mb for s in samples),
    }
    report = {"wall_samples_s": walls, "wall_tail_s": _tail(walls),
              "setup_samples_s": setup}
    return metrics, report


def measure_traced(bench: Bench, seconds: float) -> tuple:
    imports = []
    for _ in range(IMPORT_PROBES):
        bench.setup_probe(importtime=True)
        imports.append(import_metrics(bench.log.read_text(errors="replace")))
    spans_path = bench.work / "spans.json"
    plain, traced, layers, selfs = [], [], [], []
    start = time.perf_counter()
    while _has_room(start, seconds,
                    [p.wall + t.wall for p, t in zip(plain, traced)]):
        plain.append(bench.invoke())
        if spans_path.exists():
            spans_path.unlink()
        traced.append(bench.invoke(spans=spans_path))
        stats = _span_stats(json.loads(spans_path.read_text())
                            if spans_path.exists() else [])
        layers.append(layer_metrics(stats, bench))
        selfs.append({name: st["self_s"] for name, st in stats.items()})
    wall = statistics.median(s.wall for s in plain)
    cpu = statistics.median(s.cpu for s in plain)
    metrics = {**_median_dict(imports), **_median_dict(layers),
               "proc.cpu_s": cpu, "proc.cpu_per_wall": cpu / wall,
               "trace.overhead_s":
                   statistics.median(s.wall for s in traced) - wall}
    report = {"pairs": len(traced), "untraced_wall_s": wall,
              "layer_self_s": _median_dict(selfs)}
    return metrics, report


def _spec() -> dict:
    with open(SPEC, encoding="utf-8") as fh:
        return json.load(fh)


def result_line(correct: bool, attempted: int, failed: int, metrics: dict,
                declared: list) -> str:
    """Final JSON line; the metric names must be exactly the declared ones."""
    names = [m["name"] for m in declared]
    if sorted(names) != sorted(metrics):
        raise RuntimeError(
            f"metrics {sorted(set(metrics) ^ set(names))} differ from "
            f"BENCHMARK.json")
    return json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in declared}})


def _benchmark(args) -> int:
    spec = _spec()
    machine = _machine()
    workload = WORKLOADS[args.workload]
    work = BENCH / ".work" / str(os.getpid())
    work.mkdir(parents=True)
    try:
        warm = Bench(workload, args.seed, work, tiny=True)
        warm.invoke()  # untimed: warms the OS file cache
        bench = Bench(workload, args.seed, work)
        if args.trace:
            metrics, report = measure_traced(bench, args.seconds)
            declared = spec["per_layer"]
        else:
            metrics, report = measure(bench, args.seconds)
            declared = spec["end_to_end"]
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            (BENCH / ".work").rmdir()
    correct = not bench.errors
    print(json.dumps({"report": {
        "workload": workload.name, "why": workload.why, "seed": args.seed,
        "seed_effect": workload.seed_effect, "machine": machine,
        "attempted": bench.attempted, "failed": bench.failed,
        "failed_frac": bench.failed / bench.attempted,
        "errors": bench.errors[:5], **report}}))
    print(result_line(correct, bench.attempted, bench.failed, metrics,
                      declared))
    return 0 if correct else 1


def _smoke() -> int:
    """Tiny in-process pass over every workload and the metric schema."""
    from twistcyl.cli import main
    start = time.perf_counter()
    work = BENCH / ".work" / f"smoke-{os.getpid()}"
    work.mkdir(parents=True)
    problems = []
    try:
        for workload in WORKLOADS.values():
            bench = Bench(workload, 0, work, tiny=True)
            outputs = []
            for _ in range(2):
                with contextlib.redirect_stdout(io.StringIO()):
                    code = main(bench.argv)
                outputs.append(bench.out.read_bytes() if code == 0 else None)
            if code != 0 or outputs[0] != outputs[1]:
                problems.append(f"{workload.name}: exit {code} or "
                                "non-deterministic artifact")
                continue
            try:
                workload.check(bench.case, str(bench.out))
            except CheckFailed as exc:
                problems.append(f"{workload.name}: {exc}")
            bench.out.write_text(workload.corrupt(outputs[0].decode("utf-8")),
                                 encoding="utf-8")
            try:
                workload.check(bench.case, str(bench.out))
                problems.append(f"{workload.name}: corrupted artifact passed")
            except CheckFailed:
                pass
        spec = _spec()
        result_line(True, 1, 0, {**import_metrics(""),
                                 **layer_metrics({}, bench),
                                 "proc.cpu_s": 1.0, "proc.cpu_per_wall": 1.0,
                                 "trace.overhead_s": 0.0}, spec["per_layer"])
        result_line(True, 1, 0, {"wall_s": 1.0, "rows_per_s": 1.0,
                                 "setup_s": 1.0, "peak_rss_mb": 1.0},
                    spec["end_to_end"])
    except RuntimeError as exc:
        problems.append(str(exc))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            (BENCH / ".work").rmdir()
    for problem in problems:
        print(f"smoke: {problem}", file=sys.stderr)
    print(f"smoke: {'FAILED' if problems else 'OK'} "
          f"({len(WORKLOADS)} workloads, {time.perf_counter() - start:.2f} s)")
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "twistcyl" / "cli.py").is_file():
        print("error: src/twistcyl not found; run from a twistcyl checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.smoke:
        return _smoke()
    if args.workload is None:
        parser.error("--workload is required")
    return _benchmark(args)


if __name__ == "__main__":
    sys.exit(main())
