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
    python scripts/bench_common.py --cases fixed --tree change=. \
        --tree parent=../parent --out BENCH_fixed.json
    python scripts/bench_common.py --cases startup --tree change=. \
        --tree parent=../parent --out BENCH_startup.json

Each ``--tree LABEL=PATH`` names a secbc checkout (its ``src`` is put on
the import path; default: this checkout as ``change``).  Each case runs
with BLAS on one thread (``threads`` = ``1``) and on all cores (``all``);
the two settings differ only in BLAS threads, since every sweep scores
its blocks on one thread.  Each tree runs each case in ``CHILDREN``
fresh child processes, the trees taking turns child by child, and the
tree that starts alternates, so a drifting machine speed, or a child
that stays in a fast or slow mode for its whole life, reaches every
tree alike.  The cases:

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
residual.  ``--cases fixed`` runs the fixed-covariance pair region:
``frontier_fixed_cov`` on a seeded t = 2 channel and constraint at the
default grid (records add the output rows), and ``region_no_common``,
``region --mode no-common --out`` on the same channel and constraint as
the ``fixed-cov`` benchmark workload runs it (records add the exit status
and the CSV rows), and ``retained_kb``, the memory one returned frontier
holds: the t = 3 ``region_common_fixed`` request of that workload (seed
1, pass 0, built by ``perfbench/workloads.py`` of this checkout), whose
``.points`` view is iterated as the workload's check does.  Its record
adds ``retained_kb``, the kB (tracemalloc) still allocated from that
call once the iteration is over and garbage is collected; a first call
before the timed ones fills the grid-table cache, so the figure is the
frontier alone.  Its timings include tracemalloc's overhead.
``--cases startup`` times whole fresh interpreters, as a shell runs the
CLI: ``import_cli`` (``python -c "import secbc.cli"``),
``compare_cli`` (``python -m secbc.cli compare`` on the example channel
at P = 12, CSVs and SVG written into a temporary directory) and
``region_cli`` (``python -m secbc.cli region --covariance 6,0;0,6`` on
the example channel, CSV written); records add the exit status, and
their ``peak_rss_mb`` is the largest ``ru_maxrss`` of those processes
(``RUSAGE_CHILDREN``), not of the process that starts them.

A child runs its call ``--repeats`` times and reports every wall time
(``time.perf_counter``), their median and its ``ru_maxrss`` before and
after the calls, so ``peak_rss_mb`` includes the interpreter and numpy.
The JSON written to ``--out`` holds the machine description and one
record per tree, thread setting and case: the outputs of its first
child, every child's report (``children``), the median of the child
medians (``wall_s_median``), their quartiles (``wall_s_quartiles``) and
the median child ``peak_rss_mb``.
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

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXAMPLE_G1 = [[0.3, 2.5], [2.2, 1.8]]
EXAMPLE_G2 = [[1.3, 1.2], [1.5, 3.9]]
CASE_SETS = {
    "common": ("region_common_power", "region_common_fixed", "pareto_filter"),
    "envelope": ("v_eta", "v_hat", "v_tilde"),
    "power": ("frontier_power", "both_confidential_frontier", "wtc_capacity_power", "compare"),
    "checks": ("dpc_check_d2", "dpc_check_d3", "decomp_check_d2", "decomp_check_d3"),
    "fixed": ("frontier_fixed_cov", "region_no_common", "retained_kb"),
    "startup": ("import_cli", "compare_cli", "region_cli"),
}
# Child processes per tree, thread setting and case.
CHILDREN = 3
# What a child reports that varies from child to child.
CHILD_TIMINGS = ("wall_s", "wall_s_median", "phase_s_median", "rss_before_mb", "peak_rss_mb")
SINGLE_THREAD_ENV = {
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


def _rss_mb(who=resource.RUSAGE_SELF) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


def _seeded(t: int):
    """The seeded channel and constraint of the fixed-covariance cases."""
    import numpy as np

    rng = np.random.default_rng(t)
    g1, g2, a = (rng.normal(size=(t, t)) for _ in range(3))
    return g1, g2, a @ a.T / t + 0.5 * np.eye(t)


def _matrix_arg(m) -> str:
    """A matrix as the CLI reads it, every entry at ``repr`` precision."""
    import numpy as np

    return ";".join(",".join(map(repr, row)) for row in np.asarray(m, dtype=float).tolist())


def _rows(frontier) -> dict:
    # Counted without building a per-point list: trees whose Frontier
    # holds a rate array count its rows, older trees their point list.
    rates = frontier.rates
    out = {"output_rows": len(frontier.points) if callable(rates) else len(rates)}
    if "phase_s" in frontier.meta:
        out["phase_s"] = frontier.meta["phase_s"]
    return out


def _retained(call) -> dict:
    """The kB still allocated from ``call()`` after the ``.points`` view
    of the frontier it returns has been iterated."""
    import gc
    import tracemalloc

    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        frontier = call()
        rows = sum(1 for _ in frontier.points)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    return {"output_rows": rows, "retained_kb": held / 1024.0}


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


def _cli_output(argv, csvs) -> dict:
    """Run a CLI command whose ``{tmp}`` arguments name files in a
    temporary directory; its exit status and the data rows of the CSVs
    ``csvs`` that it writes there."""
    from secbc import cli

    with tempfile.TemporaryDirectory() as tmp:
        with contextlib.redirect_stdout(io.StringIO()):
            status = cli.main([a.format(tmp=tmp) for a in argv])
        rows = []
        for name in csvs:
            with open(os.path.join(tmp, name), encoding="utf-8") as fh:
                rows.append(sum(1 for _ in fh) - 1)
    return {"exit": status, "output_rows": rows}


def _process_output(args) -> dict:
    """Run a fresh interpreter on ``args``, whose ``{tmp}`` arguments name
    files in a temporary directory; its exit status."""
    with tempfile.TemporaryDirectory() as tmp:
        argv = [sys.executable] + [a.format(tmp=tmp) for a in args]
        return {"exit": subprocess.run(argv, capture_output=True, check=False).returncode}


def _case_call(case: str):
    """(call, size) for one case; ``call`` returns a dict of outputs and
    ``size`` describes its input."""
    if case in CASE_SETS["startup"]:
        gains = ["--g1", _matrix_arg(EXAMPLE_G1), "--g2", _matrix_arg(EXAMPLE_G2)]
        args = {
            "import_cli": ["-c", "import secbc.cli"],
            "compare_cli": ["-m", "secbc.cli", "compare", "--power", "12.0", *gains]
            + ["--out", "{tmp}/fig2.csv", "--svg", "{tmp}/fig2.svg"],
            "region_cli": ["-m", "secbc.cli", "region", "--covariance", "6,0;0,6", *gains]
            + ["--out", "{tmp}/nc.csv"],
        }[case]
        return partial(_process_output, args), "fresh process"
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
        argv = ["compare", "--power", "12.0", "--g1", _matrix_arg(EXAMPLE_G1)]
        argv += ["--g2", _matrix_arg(EXAMPLE_G2)]
        argv += ["--out", "{tmp}/fig2.csv", "--svg", "{tmp}/fig2.svg"]
        csvs = ("fig2.csv", "fig2_both_confidential.csv")
        return partial(_cli_output, argv, csvs), "P = 12, CSV + SVG"
    if case == "frontier_fixed_cov":
        g1, g2, k = _seeded(2)
        ch = secbc.make_channel(g1, g2)
        return lambda: _rows(regions.frontier_fixed_cov(ch, k)), "t = 2"
    if case == "region_no_common":
        g1, g2, k = _seeded(2)
        # "=" keeps an argument that starts with a minus sign from reading as a flag
        argv = ["region", "--mode", "no-common", f"--g1={_matrix_arg(g1)}"]
        argv += [f"--g2={_matrix_arg(g2)}", f"--covariance={_matrix_arg(k)}"]
        argv += ["--out", "{tmp}/nc.csv"]
        return partial(_cli_output, argv, ("nc.csv",)), "t = 2, CSV"
    if case == "retained_kb":
        sys.path.insert(0, os.path.join(REPO, "perfbench"))
        import workloads

        import secbc.cli  # noqa: F401 - the workload's requests reach it as secbc.cli

        with tempfile.TemporaryDirectory() as work:
            requests = workloads.fixed_cov(secbc, 1, work, REPO, 0)
        call = next(r.call for r in requests if r.kind == "region_common_fixed t3")
        call()  # fills the grid-table cache outside the measurement
        return partial(_retained, call), "fixed-cov seed 1 pass 0, t = 3"
    if case in CASE_SETS["power"]:
        fn = getattr(regions, case)
        if case == "wtc_capacity_power":
            return lambda: {"value": fn(example, 12.0)[0]}, "P = 12"
        return lambda: _rows(fn(example, 12.0)), "P = 12"
    if case == "region_common_power":
        return lambda: _rows(regions.region_common_power(example, 12.0)), "P = 12"
    if case == "region_common_fixed":
        g1, g2, k = _seeded(3)
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
    # A startup case's memory is that of the processes it starts.
    who = resource.RUSAGE_CHILDREN if case in CASE_SETS["startup"] else resource.RUSAGE_SELF
    rss_before = _rss_mb(who)
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
        "peak_rss_mb": _rss_mb(who),
    }


def tree_src(path: str) -> str:
    src = os.path.join(os.path.abspath(path), "src")
    if not os.path.isdir(os.path.join(src, "secbc")):
        raise SystemExit(f"no secbc sources under {src}")
    return src


def run_child(label: str, src: str, threads: str, case: str, repeats: int) -> dict:
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
    return result


def run_case(srcs, threads: str, case: str, repeats: int) -> list[dict]:
    """``CHILDREN`` child runs of ``case`` per tree, the trees taking turns
    and the first tree alternating; one record per tree."""
    children = {label: [] for label, _ in srcs}
    for turn in range(CHILDREN):
        for label, src in srcs[::-1] if turn % 2 else srcs:
            children[label].append(run_child(label, src, threads, case, repeats))
    records = []
    for label, runs in children.items():
        medians = [r["wall_s_median"] for r in runs]
        q1, _, q3 = statistics.quantiles(medians, n=4, method="inclusive")
        outputs = {k: v for k, v in runs[0].items() if k not in CHILD_TIMINGS}
        records.append(
            {
                "tree": label,
                "threads": threads,
                "case": case,
                **outputs,
                "wall_s_median": statistics.median(medians),
                "wall_s_quartiles": [q1, q3],
                "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in runs),
                "children": runs,
            }
        )
    return records


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--tree", action="append", default=[], metavar="LABEL=PATH")
    ap.add_argument("--repeats", type=int, default=9)
    ap.add_argument("--out", default="BENCH_common.json")
    ap.add_argument("--cases", choices=sorted(CASE_SETS), default="common")
    ap.add_argument("--child", choices=sum(CASE_SETS.values(), ()), help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.repeats < 1:
        ap.error("--repeats must be at least 1")
    if args.child:
        print(json.dumps(child(args.child, args.repeats)))
        return 0
    trees = args.tree or ["change=" + REPO]
    srcs = []
    for spec in trees:
        label, sep, path = spec.partition("=")
        if not sep or not label:
            ap.error(f"--tree wants LABEL=PATH, got {spec!r}")
        srcs.append((label, tree_src(path)))
    records = [
        record
        for threads in ("1", "all")
        for case in CASE_SETS[args.cases]
        for record in run_case(srcs, threads, case, args.repeats)
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
