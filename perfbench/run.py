"""End-to-end and per-layer benchmark of the ybc command line.

Usage (from anywhere; paths resolve against the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is sweep-two-large, compare-default, verify, or all (each in turn).
Every run is a fresh child process (``perfbench/child.py``) that imports
``ybc`` and calls ``ybc.cli.main`` once, because a CLI user pays for cold
caches on every invocation.  Children run one at a time (a closed loop with
one client) until S seconds have passed, with BLAS and OpenMP threads capped
at the number of usable CPUs.  Each run's output is checked afterwards,
outside the timed region; a run fails on an unexpected exit code or a
failed check.

The end-to-end times (``wall_s``, ``setup_s``, ``cpu_s`` and through
``wall_s`` also ``rows_per_s``) are given at a fixed reference host speed.
Other tenants of a shared host change how much work a CPU second does, by
up to 2x for tens of seconds at a time, and ybc's own CPU time follows.  So
the runner times a fixed reference task (``reference_task_s``: small numpy
products and Python float formatting, the kind of work ybc does) just
before and just after each child, and divides the child's ``wall_s`` and
``cpu_s`` by the host factor, the median of those timings over
``REFERENCE_TASK_S``.  Process start-up and imports follow the host's
state differently, so ``setup_s`` is divided by its own factor instead: the
time to spawn ``python3 -c "import numpy"`` just before the child, over
``REFERENCE_SPAWN_S``.  The raw times and both factors of every run are
printed and recorded too.

With ``--trace 0`` every run is untraced and each end-to-end metric is the
median over the passing runs.  With ``--trace 1`` untraced and traced runs
alternate; the per-layer metrics, raw seconds and counts, come from the
traced run with the median raw ``wall_s``, and ``trace_overhead_s`` is that
run's raw ``wall_s`` minus the median raw untraced ``wall_s``.

The last line of standard output is one JSON object with "correct",
"attempted", "failed" and "metrics"; the lines before it list the
environment, every metric with its unit, the error rate and the CSV hashes.
A fuller record, with every run, goes to ``.perfbench_out/`` at the
repository root.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

sys.path.insert(0, str(SRC))

import workloads  # noqa: E402
from tracer import LAYERS  # noqa: E402

CHILD_TIMEOUT_S = 120.0

# About the median of reference_task_s() on a 2-vCPU, 2.1 GHz host with
# Python 3.11 and numpy 2.4.  It only scales the reported times, so
# comparisons need it fixed, not exact.
REFERENCE_TASK_S = 0.0060

# The same for spawning ``python3 -c "import numpy"`` and waiting for it.
REFERENCE_SPAWN_S = 0.15

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "rows_per_s": "1/s",
}

# "<layer>.<function>.<statistic>" metrics read from the trace summary.
TRACED_FUNCTIONS = (
    "strategies.batched_grid.self_s",
    "strategies.closed_form_l1.calls",
    "strategies.closed_form_l1.self_s",
    "strategies.simulate_reduced.calls",
    "coherence.von_neumann_entropy.self_s",
    "linalg.partial_trace.self_s",
    "linalg.kron.calls",
    "gates.equivalence_residuals.calls",
)

PER_LAYER = {
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    **{f"{layer}.calls": "count" for layer in LAYERS},
    "cli.bytes_out": "bytes",
    "strategies.unitary_cache.hits": "count",
    "strategies.unitary_cache.misses": "count",
    **{name: "s" if name.endswith("_s") else "count" for name in TRACED_FUNCTIONS},
    "unattributed_s": "s",
    "trace_overhead_s": "s",
}


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def child_env() -> dict:
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = str(nproc())
    return env


def commit() -> str | None:
    """HEAD of the repository, or None outside a git checkout."""
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        )
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "ybc").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def environment(workload: workloads.Workload, seed: int, seconds: float, trace: int) -> dict:
    import numpy

    env = child_env()
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": nproc(),
        "threads": {var: env[var] for var in THREAD_VARS},
        "commit": commit(),
        "src_sha256": source_digest(),
        "workload": workload.name,
        "seed": seed,
        "argv": list(workload.argv),
        "grid": workload.grid.shape() if workload.grid else {"checks": workload.checks},
        "seconds": seconds,
        "trace": trace,
    }


def reference_task_s() -> float:
    """Seconds taken by one pass of a fixed task: 4x4 complex products and
    reductions in numpy, float maths and 12-digit formatting in Python."""
    a = np.arange(16.0).reshape(4, 4) * (1 + 1j)
    t0 = time.perf_counter()
    acc, parts = 0.0, []
    for i in range(1500):
        acc += float(np.abs(a @ a).sum()) * 1e-12 + math.sin(i) * math.sqrt(i)
        parts.append(f"{acc:.12g}")
    ",".join(parts)
    return time.perf_counter() - t0


def spawn(spec: dict, env: dict):
    """Run child.py once.

    Returns (spawn time, finished process or error text, host factor, spawn
    factor).  The host factor is the median of five reference_task_s()
    passes just before the child and five just after it, over
    REFERENCE_TASK_S.  It is not sampled while the child runs: the child
    slows a concurrent pass down.  The spawn factor is the time to run
    ``python3 -c "import numpy"`` just before the child, over
    REFERENCE_SPAWN_S.
    """
    cmd = [sys.executable, str(HERE / "child.py"), json.dumps(spec)]
    samples = [reference_task_s() for _ in range(5)]
    t_ref = time.monotonic()
    subprocess.run(
        [sys.executable, "-c", "import numpy"],
        cwd=ROOT,
        env=env,
        stdin=subprocess.DEVNULL,
        capture_output=True,
        check=True,
        timeout=CHILD_TIMEOUT_S,
    )
    spawn_factor = (time.monotonic() - t_ref) / REFERENCE_SPAWN_S
    t_spawn = time.monotonic()
    try:
        proc = subprocess.run(
            cmd,
            cwd=ROOT,
            env=env,
            stdin=subprocess.DEVNULL,
            capture_output=True,
            text=True,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return t_spawn, f"timed out after {CHILD_TIMEOUT_S:.0f} s", None, None
    samples += [reference_task_s() for _ in range(5)]
    return t_spawn, proc, statistics.median(samples) / REFERENCE_TASK_S, spawn_factor


def run_once(workload, argv, traced, paths, env, sample_seed) -> dict:
    """One child run and its output check; the check is outside the timed region."""
    csv_path, result_path, spans_path = paths
    for path in (csv_path, result_path):
        path.unlink(missing_ok=True)
    spec = {
        "src": str(SRC),
        "argv": argv,
        "result": str(result_path),
        "spans": str(spans_path) if traced else None,
    }
    t_spawn, proc, factor, spawn_factor = spawn(spec, env)
    run = {"traced": traced, "error": None, "sha256": None}
    if isinstance(proc, str):
        run["error"] = proc
        return run
    if proc.returncode != 0 or not result_path.is_file():
        tail = proc.stderr.strip().splitlines()[-1:] or [""]
        run["error"] = f"child exited with {proc.returncode}: {tail[0]}"
        return run
    result = json.loads(result_path.read_text())
    run["error"], run["sha256"] = workloads.check_output(
        workload, result["rc"], proc.stdout, csv_path, sample_seed
    )
    csv_bytes = csv_path.stat().st_size if csv_path.is_file() else 0
    raw = {
        "setup_s": result["ready"] - t_spawn,
        "wall_s": result["wall_s"],
        "cpu_s": result["cpu_s"],
    }
    run.update(
        setup_s=raw["setup_s"] / spawn_factor,
        wall_s=raw["wall_s"] / factor,
        cpu_s=raw["cpu_s"] / factor,
        peak_rss_mb=result["peak_rss_mb"],
        rows_per_s=workload.records * factor / result["wall_s"],
        raw=raw,
        host_factor=factor,
        spawn_factor=spawn_factor,
        bytes_out=csv_bytes + len(proc.stdout.encode()),
        unitary_cache=result["unitary_cache"],
        trace=result.get("trace"),
    )
    return run


def layer_values(run: dict) -> dict:
    """Per-layer metrics of one traced run, except trace_overhead_s."""
    trace = run["trace"]
    values = {}
    for layer, entry in trace["layers"].items():
        values[f"{layer}.self_s"] = entry["self_s"]
        values[f"{layer}.calls"] = entry["calls"]
    for name in TRACED_FUNCTIONS:
        function, stat = name.rsplit(".", 1)
        values[name] = trace["functions"].get(function, {}).get(stat, 0)
    values["cli.bytes_out"] = run["bytes_out"]
    values["strategies.unitary_cache.hits"] = run["unitary_cache"]["hits"]
    values["strategies.unitary_cache.misses"] = run["unitary_cache"]["misses"]
    values["unattributed_s"] = run["raw"]["wall_s"] - sum(
        e["self_s"] for e in trace["layers"].values()
    )
    return values


def median_run(runs: list[dict]) -> dict:
    """The run with the median raw wall_s (the lower middle one for an even count)."""
    return sorted(runs, key=lambda r: r["raw"]["wall_s"])[(len(runs) - 1) // 2]


def measure(workload: workloads.Workload, seed: int, seconds: float, trace: int,
            out_dir: Path = OUT) -> dict:
    """Run ``workload`` for ``seconds`` and summarise.  Returns a dict with
    "runs", "attempted", "failed", "metrics" (None when no run passed) and
    "units"."""
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = (
        out_dir / f"{workload.name}.csv",
        out_dir / f"{workload.name}.result.json",
        out_dir / f"{workload.name}.spans.npz",
    )
    argv = list(workload.argv)
    if workload.grid is not None:
        argv += ["--out", str(paths[0])]
    env = child_env()

    # Compile ybc's bytecode and warm the file cache; not measured.
    spawn({"src": str(SRC), "argv": None, "result": str(paths[1]), "spans": None}, env)

    runs: list[dict] = []
    min_runs = 2 if trace else 1
    deadline = time.monotonic() + seconds
    while len(runs) < min_runs or time.monotonic() < deadline:
        traced = bool(trace) and len(runs) % 2 == 1
        runs.append(run_once(workload, argv, traced, paths, env, seed * 100_003 + len(runs)))
    for path in paths[:2]:
        path.unlink(missing_ok=True)

    failed = sum(run["error"] is not None for run in runs)
    plain = [r for r in runs if r["error"] is None and not r["traced"]]
    traced_runs = [r for r in runs if r["error"] is None and r["traced"]]
    metrics = None
    if trace == 0 and plain:
        metrics = {m: statistics.median(r[m] for r in plain) for m in END_TO_END}
    elif trace == 1 and plain and traced_runs:
        middle = median_run(traced_runs)
        metrics = layer_values(middle)
        metrics["trace_overhead_s"] = middle["raw"]["wall_s"] - statistics.median(
            r["raw"]["wall_s"] for r in plain
        )
    units = PER_LAYER if trace else END_TO_END
    return {
        "runs": runs,
        "attempted": len(runs),
        "failed": failed,
        "metrics": metrics and {m: metrics[m] for m in units},
        "units": units,
    }


def report(workload: workloads.Workload, seed: int, seconds: float, trace: int) -> bool:
    """Measure, print the human-readable lines and the JSON line; False if no run passed."""
    env = environment(workload, seed, seconds, trace)
    summary = measure(workload, seed, seconds, trace)
    runs, metrics = summary["runs"], summary["metrics"]
    print(f"env {json.dumps(env)}")
    ok = [r for r in runs if r["error"] is None]
    print(
        f"{workload.name}: {summary['attempted']} runs ({sum(r['traced'] for r in runs)} traced), "
        f"{summary['failed']} failed"
    )
    plain = [r for r in ok if not r["traced"]]
    if metrics is not None:
        for name, unit in summary["units"].items():
            line = f"  {name:<40} {metrics[name]:>16.6g} {unit}"
            if not trace:
                values = [r[name] for r in plain]
                line += f"  (range {min(values):.6g} to {max(values):.6g}, {len(values)} runs)"
            print(line)
        if not trace:
            for name in ("wall_s", "setup_s", "cpu_s"):
                raw = statistics.median(r["raw"][name] for r in plain)
                print(f"  {'raw ' + name:<40} {raw:>16.6g} s  (median, not host-normalised)")
            for name in ("host_factor", "spawn_factor"):
                factors = [r[name] for r in plain]
                print(
                    f"  {name:<40} {statistics.median(factors):>16.6g}"
                    f"    (range {min(factors):.6g} to {max(factors):.6g})"
                )
    print(f"  {'error_rate':<40} {summary['failed'] / summary['attempted']:>16.6g} share of runs")
    hashes = sorted({r["sha256"] for r in ok if r["sha256"]})
    if hashes:
        same = "same on every run" if len(hashes) == 1 else "DIFFERS between runs"
        print(f"  csv sha256 {same}: {', '.join(hashes)}")
    for i, run in enumerate(runs):
        if run["error"] is not None:
            print(f"  run {i} failed: {run['error']}")

    record = {"env": env, **summary}
    (OUT / f"{workload.name}-seed{seed}-trace{trace}.json").write_text(
        json.dumps(record, indent=1) + "\n"
    )
    if metrics is None:
        print("no run passed; no metrics", file=sys.stderr)
        return False
    print(
        json.dumps(
            {
                "correct": summary["failed"] == 0,
                "attempted": summary["attempted"],
                "failed": summary["failed"],
                "metrics": {
                    name: {"value": metrics[name], "unit": unit}
                    for name, unit in summary["units"].items()
                },
            }
        )
    )
    return True


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*workloads.NAMES, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "ybc" / "cli.py").is_file():
        print(f"ybc sources not found under {SRC}", file=sys.stderr)
        return 2
    names = workloads.NAMES if args.workload == "all" else (args.workload,)
    passed = True
    for name in names:
        workload = workloads.build(name, args.seed)
        passed &= report(workload, args.seed, args.seconds, args.trace)
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
