#!/usr/bin/env python3
"""Cold-process CLI benchmark for spectraljet.

Each op is one fresh ``python -m spectraljet.cli ...`` process, timed from
spawn to exit with its output files written, and every op's outputs are
checked.  Ops run one at a time in a closed loop from this single process,
which stays small (it never imports numpy) because a child's max-RSS starts
from its parent's.

    python3 bench/run.py --workload lattice-dense --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` is the separate
traced run that derives the per-layer metrics (see bench/README.md).  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the full record (environment,
generated argv, every sample) goes to ``.bench_work/results/``.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import random
import re
import signal
import statistics
import subprocess
import sys
import time
from array import array
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_work"
OPS_DIR = ".bench_work/ops"  # relative to ROOT, the children's working directory
PYTHON = sys.executable

# Children see only these pins on top of the caller's environment.
PINNED_ENV = {
    "PYTHONPATH": "src",
    "PYTHONHASHSEED": "0",
    "SPECTRALJET_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "BLIS_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}
OP_TIMEOUT_S = 60.0
SETUP_ARGS = ["-c", "import spectraljet.cli"]
# The calibration spawn runs no spectraljet code, so its wall time tracks only
# the host's speed, which on a shared VM can drift by 1.5x within minutes.
# Gated times are scaled by CALIBRATION_S / (its wall time in the same
# cycle): seconds on a host where this spawn takes CALIBRATION_S.
CALIBRATION_ARGS = ["-c", "import numpy"]
CALIBRATION_S = 0.2

LAYERS = ("wick", "multiindex", "lattice", "jets", "manifolds", "asymptotics",
          "reporting", "cli")

# ---------------------------------------------------------------------------
# Ops and workloads
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Op:
    """One CLI invocation: ``python -m spectraljet.cli *argv``.

    ``csv_rows`` is the row count the CSV output must hold (the requested
    triples for ``lattice``); both CSV fields are None when the op writes no
    CSV.
    """

    argv: tuple[str, ...]
    json_path: str
    csv_path: str | None = None
    csv_rows: int | None = None

    @property
    def command(self) -> str:
        return self.argv[0]


def _out(name: str) -> str:
    return f"{OPS_DIR}/{name}"


def lattice_op(n: int, max_degree: int, count: int, seed: int) -> Op:
    csv, js = _out("lattice.csv"), _out("lattice.json")
    argv = ("lattice", "sample", "--n", str(n), "--max-degree", str(max_degree),
            "--count", str(count), "--seed", str(seed), "--out", csv, "--out-json", js)
    return Op(argv, js, csv, csv_rows=count)


def jet_pair_count(n: int, max_degree: int) -> int:
    """Unordered pairs {alpha, beta} of multi-indices on n indices with
    |alpha| + |beta| <= max_degree: the A-rows per time in a verify CSV."""
    per_degree = [math.comb(d + n - 1, n - 1) for d in range(max_degree + 1)]
    total = 0
    for p in range(max_degree + 1):
        for q in range(p, max_degree + 1 - p):
            if p == q:
                total += per_degree[p] * (per_degree[p] + 1) // 2
            else:
                total += per_degree[p] * per_degree[q]
    return total


def verify_op(model: list[str], n: int, max_degree: int, grid: list[str],
              grid_points: int) -> Op:
    csv, js = _out("verify.csv"), _out("verify.json")
    argv = ("verify", "--model", *model, "--max-degree", str(max_degree), *grid,
            "--out", csv, "--out-json", js)
    return Op(argv, js, csv, csv_rows=jet_pair_count(n, max_degree) * grid_points)


def curvature_op(model: list[str]) -> Op:
    js = _out("curvature.json")
    return Op(("curvature", "--model", *model, "--out-json", js), js)


@dataclass(frozen=True)
class Workload:
    """``draw(rng)`` returns one pass: a list of cycles, each a list of ops.
    With ``redraw`` every pass is drawn afresh; otherwise the first pass is
    repeated, so the inputs do not depend on how many passes fit in a run."""

    draw: Callable[[random.Random], list[list[Op]]]
    redraw: bool


def lattice_workload(n: int, max_degree: int, count: int) -> Workload:
    # The cost of a lattice op does not depend on its --seed, so each pass
    # is one op with a fresh one.
    def draw(rng: random.Random) -> list[list[Op]]:
        return [[lattice_op(n, max_degree, count, rng.randrange(1 << 31))]]
    return Workload(draw, redraw=True)


JETS_CYCLES = 4
JETS_RADII_PER_CYCLE = 8


def jets_pass(rng: random.Random) -> list[list[Op]]:
    """Four cycles of verify and curvature on S^3, S^2 and T^2.

    The modes summed grow with the radius, so the radii are stratified: each
    of the eight radius slots of a cycle takes, over the four cycles, one
    radius from each quarter of [1, 2], in an order the seed shuffles.  The
    pass then costs about the same whatever the seed.
    """
    slots = []
    for _ in range(JETS_RADII_PER_CYCLE):
        column = [1.0 + (k + rng.random()) / JETS_CYCLES for k in range(JETS_CYCLES)]
        rng.shuffle(column)
        slots.append(column)
    grid = ["--t-grid", "0.1:0.5:7"]
    cycles = []
    for c in range(JETS_CYCLES):
        r = [f"{column[c]:.4f}" for column in slots]
        cycles.append([
            verify_op(["sphere3", "--radius", r[0]], 3, 6, grid, 7),
            verify_op(["sphere2", "--radius", r[1]], 2, 6, grid, 7),
            verify_op(["torus", "--radii", f"{r[2]},{r[3]}"], 2, 6, ["--t", "0.01"], 1),
            curvature_op(["sphere3", "--radius", r[4]]),
            curvature_op(["sphere2", "--radius", r[5]]),
            curvature_op(["torus", "--radii", f"{r[6]},{r[7]}"]),
        ])
    return cycles


# Why each workload exists is recorded in bench/README.md.
WORKLOADS = {
    "lattice-dense": lattice_workload(3, 8, 10_000),
    "lattice-sparse": lattice_workload(8, 40, 5_000),
    "jets-sweep": Workload(jets_pass, redraw=False),
}


# Reported and recorded, but not in BENCHMARK.json: fail_frac is 0 on a
# correct program, and the wall times drift with the host.
UNGATED_UNITS = {
    "fail_frac": "ratio",
    "setup_wall_s": "s",
    "op_wall_s.p50": "s",
    "work_per_wall_s": "units/s",
    "calibration_wall_s": "s",
}


def metric_units(key: str) -> dict[str, str]:
    """Metric name -> unit, for ``key`` "end_to_end" or "per_layer" of
    BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[key]}


# ---------------------------------------------------------------------------
# Spawning and checking
# ---------------------------------------------------------------------------

def child_env() -> dict:
    env = dict(os.environ)
    env.update(PINNED_ENV)
    return env


class _OpTimeout(Exception):
    pass


def _alarm(signum, frame):
    raise _OpTimeout()


@dataclass
class Spawn:
    wall_s: float
    returncode: int
    cpu_s: float
    rss_mb: float
    stdout: str
    stderr: str


def spawn(args: list[str], timeout: float = OP_TIMEOUT_S) -> Spawn:
    """Run ``python *args`` from ROOT and wait for it; wall time is spawn to
    exit, CPU and max-RSS come from the child's rusage."""
    out_path, err_path = WORK / "ops" / "stdout.txt", WORK / "ops" / "stderr.txt"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        previous = signal.signal(signal.SIGALRM, _alarm)
        t0 = time.perf_counter()
        proc = subprocess.Popen([PYTHON, *args], cwd=ROOT, env=child_env(),
                                stdin=subprocess.DEVNULL, stdout=out, stderr=err)
        try:
            signal.setitimer(signal.ITIMER_REAL, timeout)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
        except _OpTimeout:
            proc.kill()  # reported as a failed op: exit code -9
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            signal.signal(signal.SIGALRM, previous)
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
    return Spawn(
        wall_s=wall,
        returncode=proc.returncode,
        cpu_s=usage.ru_utime + usage.ru_stime,
        rss_mb=usage.ru_maxrss / 1024.0,  # Linux reports kilobytes
        stdout=out_path.read_text(encoding="utf-8", errors="replace"),
        stderr=err_path.read_text(encoding="utf-8", errors="replace"),
    )


_CHECKS = re.compile(r"checks=(\d+) passed=True")
_SUITE = re.compile(r"^curvature: suite=(\S+) checks=(\d+) passed=True$")


def _csv_rows(path: Path) -> int | None:
    data = path.read_bytes()
    if not data.endswith(b"\n"):
        return None  # cut short mid-row
    return data.count(b"\n") - 1  # minus the header


def check_op(op: Op, returncode: int, stdout: str) -> tuple[int, str]:
    """Return (work units completed, failure reason or '').

    Work is lattice triples for ``lattice`` and the ``checks=`` totals of the
    status lines for ``verify``/``curvature``.
    """
    if returncode != 0:
        return 0, f"exit code {returncode}"
    try:
        doc = json.loads((ROOT / op.json_path).read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        return 0, f"unreadable JSON report: {exc}"
    if not isinstance(doc, dict) or doc.get("passed") is not True:
        return 0, 'JSON report lacks "passed": true'
    suites = doc.get("suites") or {}
    if op.csv_path is not None:
        rows = _csv_rows(ROOT / op.csv_path)
        if rows != op.csv_rows:
            return 0, f"CSV holds {rows} rows, expected {op.csv_rows}"
    lines = stdout.splitlines()
    if op.command == "lattice":
        if len(lines) != 1 or f"count={op.csv_rows} passed=True" not in lines[0]:
            return 0, f"unexpected status output {stdout!r}"
        return op.csv_rows, ""
    if op.command == "verify":
        match = _CHECKS.search(stdout)
        if len(lines) != 1 or match is None:
            return 0, f"unexpected status output {stdout!r}"
        checks = int(match.group(1))
        if len(suites.get("jet_relation", ())) != checks:
            return 0, "JSON summary count differs from the status line"
        return checks, ""
    work = 0
    for line in lines:
        match = _SUITE.match(line)
        if match is None:
            return 0, f"unexpected status line {line!r}"
        name, checks = match.group(1), int(match.group(2))
        if len(suites.get(name, ())) != checks:
            return 0, f"JSON summary count of {name} differs from the status line"
        work += checks
    if work == 0:
        return 0, "no status lines"
    return work, ""


def output_bytes(op: Op) -> tuple[bytes, ...]:
    paths = [op.json_path] + ([op.csv_path] if op.csv_path else [])
    out = []
    for path in paths:
        try:
            out.append((ROOT / path).read_bytes())
        except OSError:
            out.append(b"")
    return tuple(out)


@dataclass
class OpResult:
    op: Op
    spawn: Spawn
    work: int
    failure: str

    @property
    def ok(self) -> bool:
        return not self.failure

    def record(self) -> dict:
        return {
            "argv": list(self.op.argv),
            "wall_s": self.spawn.wall_s,
            "cpu_s": self.spawn.cpu_s,
            "rss_mb": self.spawn.rss_mb,
            "work": self.work,
            "failure": self.failure,
        }


def _clear_outputs(op: Op) -> None:
    for path in (op.json_path, op.csv_path):
        if path:
            (ROOT / path).unlink(missing_ok=True)


def run_op(op: Op, trace: tuple[int, str] | None = None) -> OpResult:
    """Spawn one op and check its outputs.  With ``trace = (op_id, prefix)``
    the op runs under bench/traced_child.py, which writes its spans to
    ``prefix.json`` and ``prefix.spans``."""
    _clear_outputs(op)
    if trace is None:
        args = ["-m", "spectraljet.cli", *op.argv]
    else:
        op_id, prefix = trace
        args = [str(BENCH / "traced_child.py"), str(op_id), prefix, "--", *op.argv]
    sp = spawn(args)
    work, failure = check_op(op, sp.returncode, sp.stdout)
    if failure and sp.stderr.strip():
        failure += f"; stderr: {sp.stderr.strip().splitlines()[-1]}"
    return OpResult(op, sp, work, failure)


# ---------------------------------------------------------------------------
# Environment
# ---------------------------------------------------------------------------

def source_digest() -> str:
    """sha256 over src/ (relative path and bytes of every .py file)."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                             capture_output=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return res.stdout.strip() or None


_PROBE = ("import sys, numpy, spectraljet; "
          "print(spectraljet.__file__); print(numpy.__version__); "
          "print(sys.version.split()[0])")


def environment(workload: str, seed: int) -> dict:
    """Machine and code facts; fails unless the checkout's own src/ is the
    code a child imports."""
    sp = spawn(["-c", _PROBE])
    if sp.returncode != 0:
        raise SystemExit(f"error: cannot import spectraljet from src/: {sp.stderr.strip()}")
    module_file, numpy_version, python_version = sp.stdout.split()
    if not Path(module_file).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"error: children import spectraljet from {module_file}, not src/")
    return {
        "workload": workload,
        "seed": seed,
        "nproc": len(os.sched_getaffinity(0)),
        "python": python_version,
        "numpy": numpy_version,
        "git_commit": git_commit(),
        "src_sha256": source_digest(),
        "pinned_env": PINNED_ENV,
    }


# ---------------------------------------------------------------------------
# Runs
# ---------------------------------------------------------------------------

def _metric(value: float, samples: int) -> dict:
    return {"value": value, "samples": samples}


def timed_run(workload: Workload, seed: int, seconds: float) -> dict:
    """The end-to-end run: one untimed re-execution of the first op, then
    whole passes of timed ops until ``seconds`` have passed.  Every cycle
    starts with a calibration spawn and a set-up spawn (``import
    spectraljet.cli``, then exit), so both sample the same stretch of time
    as the cycle's ops."""
    rng = random.Random(seed)
    spawn(SETUP_ARGS)  # writes bytecode; not a sample
    cycles = workload.draw(rng)
    first = cycles[0][0]
    reference = run_op(first)
    reference_bytes = output_bytes(first)
    calibration: list[Spawn] = []
    setup: list[Spawn] = []
    results: list[OpResult] = []
    cycle_means: list[float] = []  # mean op wall time of each cycle
    cycle_rates: list[float] = []  # work of each cycle per second of its op wall time
    deterministic = True
    start = time.perf_counter()
    while True:
        for ops in cycles:
            calibration.append(spawn(CALIBRATION_ARGS))
            setup.append(spawn(SETUP_ARGS))
            for op in ops:
                res = run_op(op)
                if not results and res.ok and output_bytes(op) != reference_bytes:
                    deterministic = False
                    res.failure = "outputs differ from the untimed re-execution"
                results.append(res)
            done = results[-len(ops):]
            cycle_means.append(statistics.fmean(r.spawn.wall_s for r in done))
            cycle_rates.append(sum(r.work for r in done) / sum(r.spawn.wall_s for r in done))
        if time.perf_counter() - start >= seconds:
            break
        if workload.redraw:
            cycles = workload.draw(rng)
    calibration.append(spawn(CALIBRATION_ARGS))  # closes the last cycle

    bad_spawns = [s for s in calibration + setup if s.returncode != 0]
    failed = sum(not r.ok for r in results) + (not reference.ok)
    attempted = len(results) + 1
    # Each time is scaled by the calibration nearest to it: a set-up spawn
    # by the one just before it, a cycle's ops by the mean of the two that
    # bracket the cycle.
    cal = [c.wall_s for c in calibration]
    setup_scale = [CALIBRATION_S / c for c in cal[:-1]]
    op_scale = [2 * CALIBRATION_S / (a + b) for a, b in zip(cal, cal[1:])]
    setup_wall = [s.wall_s for s in setup]
    n = len(cycle_means)
    # Medians over cycles.  A cycle is one op on the lattice workloads; on
    # jets-sweep, whose six op kinds take different times, a median over
    # single ops would jump between kinds.
    metrics = {
        "setup_s": _metric(statistics.median(w * k for w, k in zip(setup_wall, setup_scale)), n),
        "op_s.p50": _metric(statistics.median(w * k for w, k in zip(cycle_means, op_scale)), n),
        "work_per_s": _metric(statistics.median(r / k for r, k in zip(cycle_rates, op_scale)), n),
        "peak_rss_mb": _metric(max(r.spawn.rss_mb for r in results + [reference]), attempted),
        "fail_frac": _metric(failed / attempted, attempted),
        "setup_wall_s": _metric(statistics.median(setup_wall), n),
        "op_wall_s.p50": _metric(statistics.median(cycle_means), n),
        "work_per_wall_s": _metric(statistics.median(cycle_rates), n),
        "calibration_wall_s": _metric(statistics.median(cal), len(cal)),
    }
    return {
        "correct": failed == 0 and deterministic and not bad_spawns,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "calibration_wall_s": cal,
        "setup_wall_s": setup_wall,
        "reference_op": reference.record(),
        "ops": [r.record() for r in results],
    }


def read_trace(prefix: Path) -> dict:
    """Load one traced op's spans and reduce them to per-layer figures.

    A span's self time is its duration minus its children's; a layer's self
    time sums the self times of its spans (its public calls and its module
    import).  Spans outside the eight layers (the tracer's own set-up) are
    left unattributed.
    """
    meta = json.loads(prefix.with_suffix(".json").read_text(encoding="utf-8"))
    count = meta["spans"]
    name, start, end, parent = array("i"), array("q"), array("q"), array("i")
    with open(prefix.with_suffix(".spans"), "rb") as fh:
        for arr in (name, start, end, parent):
            arr.fromfile(fh, count)
    covered = [0] * count
    for p, s, e in zip(parent, start, end):
        if p >= 0:
            covered[p] += e - s
    self_ns = defaultdict(int)
    calls = defaultdict(int)
    for n, s, e, c in zip(name, start, end, covered):
        self_ns[n] += e - s - c
        calls[n] += 1
    layer_self = dict.fromkeys(LAYERS, 0.0)
    layer_calls = dict.fromkeys(LAYERS, 0)
    fits = 0
    for nid, span_name in enumerate(meta["names"]):
        layer, _, rest = span_name.partition(".")
        if layer not in layer_self:
            continue
        layer_self[layer] += self_ns[nid] / 1e9
        if rest not in ("import", "op"):
            layer_calls[layer] += calls[nid]
        if span_name == "asymptotics.limit_fit":
            fits = calls[nid]
    return {
        "op_id": meta["op_id"],
        "self_s": layer_self,
        "calls": layer_calls,
        "fits": fits,
        "counters": meta["counters"],
    }


def traced_run(workload: Workload, seed: int, seconds: float) -> dict:
    """The traced run: the first pass of the workload, run in rounds of
    (untraced op, traced op) pairs until ``seconds`` have passed.  Counts
    come from each round and must repeat exactly; times are medians over
    rounds; the traced outputs must equal the untraced ones byte for byte."""
    ops = [op for cycle in workload.draw(random.Random(seed)) for op in cycle]
    spawn(SETUP_ARGS)  # writes bytecode
    prefix = f"{OPS_DIR}/trace"
    rounds: list[dict] = []
    untraced: list[OpResult] = []
    traced: list[OpResult] = []
    failures: list[str] = []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < seconds:
        totals = {"self_s": dict.fromkeys(LAYERS, 0.0), "calls": dict.fromkeys(LAYERS, 0),
                  "fits": 0, "counters": defaultdict(int), "traced_wall_s": 0.0}
        for op_id, op in enumerate(ops):
            plain = run_op(op)
            plain_bytes = output_bytes(op)
            (ROOT / prefix).with_suffix(".json").unlink(missing_ok=True)
            res = run_op(op, trace=(op_id, prefix))
            if res.ok and output_bytes(op) != plain_bytes:
                res.failure = "traced outputs differ from untraced outputs"
            untraced.append(plain)
            traced.append(res)
            failures += [r.failure for r in (plain, res) if r.failure]
            if not res.ok:
                continue
            tr = read_trace(ROOT / prefix)
            if tr["op_id"] != op_id:
                failures.append("trace file belongs to another op")
                continue
            for layer in LAYERS:
                totals["self_s"][layer] += tr["self_s"][layer]
                totals["calls"][layer] += tr["calls"][layer]
            totals["fits"] += tr["fits"]
            for key, value in tr["counters"].items():
                totals["counters"][key] += value
            totals["traced_wall_s"] += res.spawn.wall_s
        rounds.append(totals)

    def counts(r: dict) -> dict:
        c = r["counters"]
        lookups = c["table_cache_hits"] + c["table_cache_misses"]
        return {
            "wick.calls": r["calls"]["wick"],
            "wick.distinct_pair_ratio":
                c["wick_b_distinct_pairs"] / c["wick_b_calls"] if c["wick_b_calls"] else 0.0,
            "multiindex.calls": r["calls"]["multiindex"],
            "lattice.calls": r["calls"]["lattice"],
            "jets.calls": r["calls"]["jets"],
            "manifolds.calls": r["calls"]["manifolds"],
            "manifolds.modes_summed": c["modes_summed"],
            "manifolds.table_cache_hit_ratio":
                c["table_cache_hits"] / lookups if lookups else 0.0,
            "asymptotics.fits": r["fits"],
            "reporting.calls": r["calls"]["reporting"],
            "reporting.bytes_written": c["bytes_written"],
        }

    per_round = [counts(r) for r in rounds]
    repeatable = all(pr == per_round[0] for pr in per_round)
    if not repeatable:
        failures.append("per-layer counts differ between rounds of identical ops")
    n = len(rounds)
    metrics = {name: _metric(value, n) for name, value in per_round[0].items()}
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = _metric(
            statistics.median(r["self_s"][layer] for r in rounds), n)
    metrics["trace.unattributed_s"] = _metric(
        statistics.median(r["traced_wall_s"] - sum(r["self_s"].values()) for r in rounds), n)
    metrics["cli.cpu_s_per_op"] = _metric(
        statistics.median(r.spawn.cpu_s for r in untraced), len(untraced))
    metrics["trace.overhead_frac"] = _metric(
        statistics.median(r.spawn.wall_s for r in traced)
        / statistics.median(r.spawn.wall_s for r in untraced) - 1.0, len(traced))
    failed = sum(not r.ok for r in untraced + traced)
    return {
        "correct": not failures,
        "attempted": len(untraced) + len(traced),
        "failed": failed,
        "metrics": metrics,
        "failures": failures,
        "rounds": [{"self_s": r["self_s"], "traced_wall_s": r["traced_wall_s"],
                    **counts(r)} for r in rounds],
        "ops": [r.record() for pair in zip(untraced, traced) for r in pair],
    }


# ---------------------------------------------------------------------------
# Command line
# ---------------------------------------------------------------------------

def run_workload(name: str, workload: Workload, seed: int, seconds: float,
                 trace: bool) -> dict:
    """Run one workload, label its metrics with the units BENCHMARK.json
    gives them (or UNGATED_UNITS), print them and write the full record."""
    (WORK / "ops").mkdir(parents=True, exist_ok=True)
    env = environment(name, seed)
    run = traced_run if trace else timed_run
    result = run(workload, seed, seconds)
    units = metric_units("per_layer" if trace else "end_to_end")
    if not trace:
        units.update(UNGATED_UNITS)
    if set(result["metrics"]) != set(units):
        raise SystemExit(f"error: metrics {sorted(result['metrics'])} "
                         f"differ from BENCHMARK.json's {sorted(units)}")
    result["metrics"] = {n: {"value": result["metrics"][n]["value"], "unit": unit,
                             "samples": result["metrics"][n]["samples"]}
                         for n, unit in units.items()}
    result = {"environment": env, "seconds": seconds, "trace": int(trace), **result}
    results_dir = WORK / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    path = results_dir / f"{name}-seed{seed}-trace{int(trace)}.json"
    path.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")

    print(f"workload={name} seed={seed} seconds={seconds} trace={int(trace)} "
          f"nproc={env['nproc']} python={env['python']} numpy={env['numpy']} "
          f"commit={env['git_commit']} src_sha256={env['src_sha256'][:12]}")
    for metric, m in result["metrics"].items():
        print(f"  {metric:34s} {m['value']:<22.10g} {m['unit']:8s} n={m['samples']}")
    print(f"  failed/attempted = {result['failed']}/{result['attempted']}; "
          f"correct={result['correct']}; record: {path.relative_to(ROOT)}")
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "spectraljet" / "cli.py").is_file():
        print(f"error: no spectraljet sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {w: run_workload(w, WORKLOADS[w], args.seed, args.seconds, bool(args.trace))
               for w in names}
    if args.workload == "all":
        metrics = {f"{w}:{name}": {"value": m["value"], "unit": m["unit"]}
                   for w, r in results.items() for name, m in r["metrics"].items()}
    else:
        gated = metric_units("per_layer" if args.trace else "end_to_end")
        metrics = {name: {"value": m["value"], "unit": m["unit"]}
                   for name, m in results[args.workload]["metrics"].items() if name in gated}
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
