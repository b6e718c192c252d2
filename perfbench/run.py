"""secbc benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload power-fig2 --seed 1 --seconds 20 --trace 0

Run from the root of a secbc checkout.  Every measurement is a fresh
child process (``child.py``), started one at a time, with
SECBC_THREADS=1 and single-threaded BLAS:

- ``SETUP_SAMPLES`` set-up-only children, whose median start-to-ready
  time (with the run child's own) is ``setup_s``;
- one run child that runs the workload's passes (seeded request lists)
  in whole cycles for ``--seconds``, at least one cycle, and checks every
  output; ``wall_s`` is its typical pass time (``workloads.typical_pass``);
- with ``--trace 1``, also a traced child that wraps each layer's public
  functions; its per-layer metrics describe one pass and
  ``trace.overhead_s`` is its typical pass time minus the run child's.

The last line of standard output is the result object; the lines before
it record the environment and any failures.  Exit status is 0 with a
result, 2 when the checkout has no secbc sources, 1 when a child fails.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("power-fig2", "fixed-cov", "envelope")
SETUP_SAMPLES = 4
TIME_LIMIT_S = 170.0
WORK_DIR = ".perfbench_work"  # outputs and span files, inside the checkout
THREAD_ENV = {
    "SECBC_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


class ChildError(Exception):
    pass


def _unit(name: str) -> str:
    field = name.rsplit(".", 1)[-1]
    if field.endswith("_s"):
        return "s"
    return {
        "peak_rss_mb": "MB",
        "closed_form_ratio": "ratio",
        "points_per_mnode": "points/Mnode",
        "frontier_area": "bit2",
        "triple_volume": "bit3",
        "wtc_gap_bits": "bit",
        "opt_value_sum": "bit",
    }.get(field, "count")


def _spawn(root, mode, args, work, deadline, spans=None):
    """Run one child to completion; returns (set-up seconds, result or None)."""
    cmd = [
        sys.executable,
        os.path.join(HERE, "child.py"),
        "--root", root,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--mode", mode,
        "--work", work,
    ]
    if spans:
        cmd += ["--spans", spans]
    env = dict(os.environ, **THREAD_ENV)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(root, "src"), HERE] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    start = time.monotonic()
    try:
        proc = subprocess.run(
            cmd, cwd=root, env=env, capture_output=True, text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped it
        raise ChildError(f"{mode} child passed the {TIME_LIMIT_S:.0f} s limit") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildError(f"{mode} child exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    ready = json.loads(lines[0])["ready"] - start
    return ready, (json.loads(lines[-1]) if mode != "setup" else None)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    deadline = time.monotonic() + TIME_LIMIT_S

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "secbc", "__init__.py")):
        print("no secbc sources under ./src: run from the root of a checkout", file=sys.stderr)
        return 2
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = os.path.join(root, WORK_DIR, f"{tag}-{os.getpid()}")
    os.makedirs(work)
    spans = os.path.join(root, WORK_DIR, f"spans-{tag}.npz")
    try:
        setups = [_spawn(root, "setup", args, work, deadline)[0] for _ in range(SETUP_SAMPLES)]
        ready, run = _spawn(root, "run", args, work, deadline)
        setups.append(ready)
        traced = None
        if args.trace:
            ready, traced = _spawn(root, "trace", args, work, deadline, spans)
            setups.append(ready)
    except ChildError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    tally = run["tally"]
    wall = run["typical_pass_s"]
    print("env " + json.dumps(run["env"], sort_keys=True))
    if run["env"]["have_numba"]:
        print("note: numba is installed; power sweeps take the fused kernel, not comparable")
    print(f"pass seconds {run['pass_s']}, typical pass {wall}, setup seconds {setups}")
    print(
        f"exit-code contract: {len(tally['exit_violations'])} of {tally['exit_probes']} "
        f"probes violated {tally['exit_violations']}"
    )
    print(f"factorization product above sum + 1e-6: {tally['factorization_violations']}")
    children = [run] + ([traced] if traced else [])
    failures = [f for c in children for f in c["failures"]]
    for f in failures:
        print(f"FAILED {f}")

    if args.trace:
        metrics = dict(traced["layers"])
        metrics["trace.overhead_s"] = traced["typical_pass_s"] - wall
        metrics["regions.frontier_area"] = tally["frontier_area"]
        metrics["regions.triple_volume"] = tally["triple_volume"]
        metrics["regions.wtc_gap_bits"] = tally["closed_form"] - tally["closed_reported"]
        metrics["envelopes.opt_value_sum"] = tally["opt_value_sum"]
        metrics["cli.exit_contract.violations"] = len(tally["exit_violations"])
        metrics["envelopes.factorization_violations"] = len(tally["factorization_violations"])
        if traced["missing"]:
            print(f"note: functions not found, so not traced: {traced['missing']}")
    else:
        metrics = {
            "wall_s": wall,
            "setup_s": statistics.median(setups),
            "peak_rss_mb": run["peak_rss_mb"],
            "closed_form_ratio": tally["closed_reported"] / tally["closed_form"],
        }
    result = {
        "correct": not failures,
        "attempted": sum(c["attempted"] for c in children),
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": _unit(k)} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
