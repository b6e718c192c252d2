"""One workload run in a fresh process, started by ``run.py``.

Modes: ``setup`` imports secbc from the checkout, builds the workload's
inputs and channels, prints its ready time and exits; ``run`` then runs
the workload's passes (one request list each, with its own seeded
inputs) in whole cycles until ``--seconds`` have passed, at least one
cycle, and prints one JSON result line; ``trace`` does the same with
every layer wrapped by :class:`tracing.Tracer`.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import sys
import time


def env_info(secbc) -> dict:
    """What makes results comparable across machines."""
    import numpy
    import scipy

    try:
        have_numba = bool(importlib.import_module("secbc._kernels").HAVE_NUMBA)
    except (ImportError, AttributeError):
        have_numba = None
    threads = ("SECBC_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": {k: os.environ.get(k) for k in threads},
        "have_numba": have_numba,
        "secbc": getattr(secbc, "__version__", None),
    }


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=["setup", "run", "trace"], required=True)
    ap.add_argument("--work", required=True)
    ap.add_argument("--spans")
    args = ap.parse_args()

    sys.path.insert(0, os.path.join(args.root, "src"))
    import secbc
    import secbc.cli  # noqa: F401 - the package does not import its CLI
    import workloads

    make_pass, npasses = workloads.WORKLOADS[args.workload]
    passes = [make_pass(secbc, args.seed, args.work, args.root, p) for p in range(npasses)]
    print(json.dumps({"ready": time.monotonic()}), flush=True)
    if args.mode == "setup":
        return 0

    tracer = None
    if args.mode == "trace":
        import tracing

        tracer = tracing.Tracer()
    # Whole cycles over the distinct passes, as many as fit in --seconds
    # (at least one); the tally covers the first cycle only.
    done, failures, cycles = [], [], 0
    tally = workloads.Tally()
    deadline = time.perf_counter() + args.seconds
    while True:
        start = time.perf_counter()
        for requests in passes:
            results = workloads.run_list(requests, time.perf_counter, tracer)
            done.append(results)
            failures += workloads.check_list(results, tally if cycles == 0 else workloads.Tally())
        cycles += 1
        now = time.perf_counter()
        if now + (now - start) > deadline:
            break
    out = {
        "pass_s": [sum(r[2] for r in results) for results in done],
        "typical_pass_s": workloads.typical_pass(done),
        "attempted": cycles * sum(not r.probe for reqs in passes for r in reqs),
        "failures": failures,
        "tally": vars(tally),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "env": env_info(secbc),
    }
    if tracer is not None:
        tracer.close()
        out["layers"] = tracer.layer_metrics(len(done))
        out["missing"] = tracer.missing
        tracer.write(args.spans)
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
