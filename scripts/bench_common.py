"""Time the common-message sweeps, their triple Pareto filter, the envelopes,
the power pair regions and the identity checks.

    python scripts/bench_common.py --tree change=. --tree parent=../parent \
        --out BENCH_common.json
    python scripts/bench_common.py --cases envelope --tree change=. \
        --tree parent=../parent --out BENCH_envelope.json
    python scripts/bench_common.py --cases power --tree change=. \
        --tree parent=../parent --out BENCH_power.json
    python scripts/bench_common.py --cases checks --tree change=. \
        --tree parent=../parent --out BENCH_checks.json

Each ``--tree LABEL=PATH`` names a secbc checkout (its ``src`` is put on
the import path; default: this checkout as ``change``).  With
SECBC_THREADS=1 (BLAS single-threaded too) and with all cores, each case
runs in a fresh child process for every tree, the trees taking turns
case by case:

- ``region_common_power``: the example channel at P = 12, default grid;
- ``region_common_fixed``: a seeded t = 3 channel at chain grid (4, 3);
- ``pareto_filter``: ``regions._pareto_rows_triples`` alone, on the
  largest input it receives during the ``region_common_power`` case
  (its one call there: 3906 cell winners plus 68 max-R1 corners, 3974
  rows on the example channel); that call also sets its ``peak_rss_mb``.

``--cases envelope`` runs ``v_eta``, ``v_hat`` and ``v_tilde`` instead,
on the example channel with K = diag(3, 2), lambda = (2, 1, 0.8),
eta = 1.2 and alpha = 0.5 at the default grid; each record adds the
value and the grid nodes scored (``grid_meta["nodes_scored"]``), and the objective
calls of the polish and the median seconds of each
``grid_meta["phase_s"]`` phase (``grid``, ``polish``), where the tree
reports them.  ``--cases power`` runs the power-constrained pair regions
and the wiretap capacity: ``frontier_power``,
``both_confidential_frontier`` and ``wtc_capacity_power`` on the example
channel at P = 12 and the default grid (records add the output rows, or
the capacity, and the median seconds of each ``meta["phase_s"]`` phase
of the two regions), and ``compare``, the CLI command of the
``power-fig2`` benchmark workload (P = 12, CSVs and SVG written into a
temporary directory; records add the exit status and the rows of both
CSVs).  ``--cases checks`` runs the identity checks as the CLI does:
``dpc-check`` (the dirty-paper identity, ``dpc_identity_check``) and
``decomp-check`` (the decomposition round trip) at dims 2 and 3, 50
trials, seed 7; records add the exit status and the printed max gap or
residual.

A child runs its call ``--repeats`` times and reports every wall time
(``time.perf_counter``) and its ``ru_maxrss`` before and after the calls,
so ``peak_rss_mb`` includes the interpreter and numpy.  The JSON written
to ``--out`` holds the machine description and one record per tree,
thread setting and case.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from functools import partial

EXAMPLE_G1 = [[0.3, 2.5], [2.2, 1.8]]
EXAMPLE_G2 = [[1.3, 1.2], [1.5, 3.9]]
CASE_SETS = {
    "common": ("region_common_power", "region_common_fixed", "pareto_filter"),
    "envelope": ("v_eta", "v_hat", "v_tilde"),
    "power": ("frontier_power", "both_confidential_frontier", "wtc_capacity_power", "compare"),
    "checks": ("dpc_check_d2", "dpc_check_d3", "decomp_check_d2", "decomp_check_d3"),
}
SINGLE_THREAD_ENV = {
    "SECBC_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def _rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _seeded_t3():
    """The t = 3 channel and constraint of the fixed-covariance case."""
    import numpy as np

    rng = np.random.default_rng(3)
    g1, g2, a = (rng.normal(size=(3, 3)) for _ in range(3))
    return g1, g2, a @ a.T / 3.0 + 0.5 * np.eye(3)


def _rows(frontier) -> dict:
    # Counted without building a per-point list: trees whose Frontier
    # holds a rate array count its rows, older trees their point list.
    rates = frontier.rates
    out = {"output_rows": len(frontier.points) if callable(rates) else len(rates)}
    if "phase_s" in frontier.meta:
        out["phase_s"] = frontier.meta["phase_s"]
    return out


def _envelope_output(res) -> dict:
    out = {"value": res.value, "nodes_scored": res.grid_meta.get("nodes_scored")}
    for key in ("evaluations", "phase_s"):
        if key in res.grid_meta:
            out[key] = res.grid_meta[key]
    return out


def _check_output(argv) -> dict:
    """Run one check command; its exit status and the figure it prints."""
    from secbc import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        status = cli.main(argv)
    printed = out.getvalue().rsplit("=", 1)[1].split("(")[0].strip()
    return {"exit": status, "printed": printed}


def _compare_output(argv) -> dict:
    """Run ``compare`` writing its CSVs and SVG into a temporary directory;
    its exit status and the data rows of both CSVs."""
    from secbc import cli

    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "fig2.csv")
        with contextlib.redirect_stdout(io.StringIO()):
            status = cli.main(argv + ["--out", out, "--svg", os.path.join(tmp, "fig2.svg")])
        rows = []
        for path in (out, os.path.join(tmp, "fig2_both_confidential.csv")):
            with open(path, encoding="utf-8") as fh:
                rows.append(sum(1 for _ in fh) - 1)
    return {"exit": status, "output_rows": rows}


def _case_call(case: str):
    """(call, size) for one case; ``call`` returns a dict of outputs and
    ``size`` describes its input."""
    import numpy as np

    import secbc
    from secbc import regions

    example = secbc.make_channel(EXAMPLE_G1, EXAMPLE_G2)
    if case in CASE_SETS["checks"]:
        command, dim = case.rsplit("_d", 1)
        argv = [command.replace("_", "-"), "--seed", "7", "--trials", "50", "--dim", dim]
        return partial(_check_output, argv), f"dim {dim}, 50 trials"
    if case in CASE_SETS["envelope"]:
        k = np.diag([3.0, 2.0])
        w = secbc.EnvelopeWeights(lambda0=2.0, lambda1=1.0, lambda2=0.8, eta=1.2, alpha=0.5)
        if case == "v_eta":
            return lambda: _envelope_output(secbc.v_eta(example, k, w.eta)), "K = diag(3, 2)"
        fn = getattr(secbc, case)
        return lambda: _envelope_output(fn(example, k, w)), "K = diag(3, 2)"
    if case == "compare":
        argv = ["compare", "--power", "12.0"]
        for flag, g in (("--g1", EXAMPLE_G1), ("--g2", EXAMPLE_G2)):
            argv += [flag, ";".join(",".join(map(repr, row)) for row in g)]
        return partial(_compare_output, argv), "P = 12, CSV + SVG"
    if case in CASE_SETS["power"]:
        fn = getattr(regions, case)
        if case == "wtc_capacity_power":
            return lambda: {"value": fn(example, 12.0)[0]}, "P = 12"
        return lambda: _rows(fn(example, 12.0)), "P = 12"
    if case == "region_common_power":
        return lambda: _rows(regions.region_common_power(example, 12.0)), "P = 12"
    if case == "region_common_fixed":
        g1, g2, k = _seeded_t3()
        ch = secbc.make_channel(g1, g2)
        grid = secbc.GridSpec(chain_theta_steps=4, chain_diag_steps=3)
        return lambda: _rows(regions.region_common_fixed(ch, k, grid)), "t = 3"
    inputs = []
    inner = regions._pareto_rows_triples

    def record(arr, *args, **kwargs):
        inputs.append(np.array(arr))
        return inner(arr, *args, **kwargs)

    regions._pareto_rows_triples = record
    try:
        regions.region_common_power(example, 12.0)
    finally:
        regions._pareto_rows_triples = inner
    arr = max(inputs, key=len)
    return lambda: {"output_rows": len(inner(arr))}, f"{len(arr)} rows"


def child(case: str, repeats: int) -> dict:
    """Run one case ``repeats`` times in this process and report it."""
    call, size = _case_call(case)
    rss_before = _rss_mb()
    times, out, phases = [], None, []
    for _ in range(repeats):
        start = time.perf_counter()
        out = call()
        times.append(time.perf_counter() - start)
        phases.append(out.pop("phase_s", None))
    if phases[-1] is not None:
        out["phase_s_median"] = {k: statistics.median(p[k] for p in phases) for k in phases[-1]}
    return {
        "input": size,
        **out,
        "wall_s": times,
        "wall_s_median": statistics.median(times),
        "rss_before_mb": rss_before,
        "peak_rss_mb": _rss_mb(),
    }


def tree_src(path: str) -> str:
    src = os.path.join(os.path.abspath(path), "src")
    if not os.path.isdir(os.path.join(src, "secbc")):
        raise SystemExit(f"no secbc sources under {src}")
    return src


def run_case(label: str, src: str, threads: str, case: str, repeats: int) -> dict:
    """One child run of ``case`` on the tree whose sources are ``src``."""
    env = {k: v for k, v in os.environ.items() if k not in SINGLE_THREAD_ENV}
    if threads == "1":
        env.update(SINGLE_THREAD_ENV)
    env["PYTHONPATH"] = src
    cmd = [sys.executable, os.path.abspath(__file__), "--child", case]
    cmd += ["--repeats", str(repeats)]
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    print(
        f"{label:>8} threads={threads:>3} {case:20s} "
        f"{result['wall_s_median']:8.3f} s {result['peak_rss_mb']:7.1f} MB",
        file=sys.stderr,
    )
    return {"tree": label, "threads": threads, "case": case, **result}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--tree", action="append", default=[], metavar="LABEL=PATH")
    ap.add_argument("--repeats", type=int, default=5)
    ap.add_argument("--out", default="BENCH_common.json")
    ap.add_argument("--cases", choices=sorted(CASE_SETS), default="common")
    ap.add_argument("--child", choices=sum(CASE_SETS.values(), ()), help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.repeats < 1:
        ap.error("--repeats must be at least 1")
    if args.child:
        print(json.dumps(child(args.child, args.repeats)))
        return 0
    here = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    trees = args.tree or ["change=" + here]
    srcs = []
    for spec in trees:
        label, sep, path = spec.partition("=")
        if not sep or not label:
            ap.error(f"--tree wants LABEL=PATH, got {spec!r}")
        srcs.append((label, tree_src(path)))
    # The trees take turns case by case, so a drifting machine speed
    # reaches every tree alike.
    records = [
        run_case(label, src, threads, case, args.repeats)
        for threads in ("1", "all")
        for case in CASE_SETS[args.cases]
        for label, src in srcs
    ]
    import numpy as np

    report = {
        "machine": {
            "cpu": _cpu_model(),
            "cpus": os.cpu_count(),
            "platform": platform.platform(),
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
        "repeats": args.repeats,
        "records": records,
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
