"""One measured ybc invocation in a fresh interpreter.

Usage: python3 perfbench/child.py SPEC_JSON

SPEC_JSON holds "src" (the directory containing ``ybc``), "argv" (the
arguments for ``ybc.cli.main``, or null to stop after the import),
"result" (where to write this run's measurements as JSON) and "spans"
(where to write the recorded spans when tracing, or null for an untraced
run).  The result records ``ready`` (CLOCK_MONOTONIC once ``ybc`` is
imported, for the parent's set-up time), the exit code, and the wall and
CPU time of ``cli.main`` and the process's peak RSS.
"""

import json
import resource
import sys
import time


def peak_rss_mb() -> float:
    """Peak resident set of this process's own address space (VmHWM).

    Not ru_maxrss: Linux carries the parent's peak into it across the
    vfork and exec that start this process.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM line in /proc/self/status")


spec = json.loads(sys.argv[1])
sys.path.insert(0, spec["src"])

import ybc.cli  # noqa: E402

ready = time.monotonic()
result = {"ready": ready}

if spec["argv"] is not None:
    from contextlib import nullcontext

    from tracer import Tracer

    tracer = Tracer() if spec["spans"] is not None else None
    with tracer if tracer is not None else nullcontext():
        ru0 = resource.getrusage(resource.RUSAGE_SELF)
        t0 = time.perf_counter()
        rc = ybc.cli.main(spec["argv"])
        t1 = time.perf_counter()
        ru1 = resource.getrusage(resource.RUSAGE_SELF)
    sys.stdout.flush()
    result.update(
        rc=rc,
        wall_s=t1 - t0,
        cpu_s=(ru1.ru_utime - ru0.ru_utime) + (ru1.ru_stime - ru0.ru_stime),
        peak_rss_mb=peak_rss_mb(),
    )
    cache = getattr(ybc.strategies, "_channel_unitary", None)
    info = cache.cache_info() if hasattr(cache, "cache_info") else None
    result["unitary_cache"] = {
        "hits": info.hits if info else 0,
        "misses": info.misses if info else 0,
    }
    if tracer is not None:
        result["trace"] = tracer.summary()
        import numpy as np

        np.savez(spec["spans"], **tracer.spans())

with open(spec["result"], "w", encoding="utf-8") as fh:
    json.dump(result, fh)
