"""The benchmark's request lists and the independent checks of their outputs.

A workload is a fixed number of passes; a pass is a list of requests run
one after another (closed loop, one client) on inputs drawn from
``default_rng([seed, pass])``.  Each request is a ``call`` that the
benchmark times and a ``check`` that runs after the pass, outside the
timed window, on what the call returned or wrote.  Checks use only
:mod:`oracle`, never secbc's own rate functions.

``power-fig2`` is the paper's numerical example and has no random inputs;
the seed there names nothing but the run.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import re
import statistics
from dataclasses import dataclass, field

import numpy as np

import oracle
from oracle import CheckError, cap, gevd_secrecy, require

EXAMPLE_G1 = np.array([[0.3, 2.5], [2.2, 1.8]])
EXAMPLE_G2 = np.array([[1.3, 1.2], [1.5, 3.9]])
FIG2_POWER = 12.0
FIG2_SLACK = 5e-3  # the criterion-3 tolerances of tests/test_acceptance.py
SPLIT_TOL = 1e-5  # PSD order of envelope splits printed with 6 decimals
# Envelope splits are printed with 6 decimals, so re-evaluating the
# objective at them is good to about 1e-5 bits per unit weight.
PRINTED_TOL = 1e-4
PRINTED_ROUNDING = 5e-7 + oracle.CLOSED_TOL  # a value printed with 6 decimals


@dataclass
class Tally:
    """Output sizes of one cycle of passes, from re-verified outputs only."""

    closed_reported: float = 0.0  # secrecy values that have a closed form
    closed_form: float = 0.0  # the GEVD closed forms for the same maxima
    frontier_area: float = 0.0
    triple_volume: float = 0.0
    opt_value_sum: float = 0.0
    # Properties the seed program is known to violate; recorded, not failed
    # (see NOTES.md).
    exit_probes: int = 0
    exit_violations: list = field(default_factory=list)
    factorization_violations: list = field(default_factory=list)

    def add_closed(self, reported: float, closed: float, tol: float = oracle.CLOSED_TOL) -> None:
        require(reported <= closed + tol, f"{reported} above closed form {closed}")
        self.closed_reported += reported
        self.closed_form += closed


@dataclass
class Request:
    label: str  # "<kind> [<instance>]"
    call: object  # () -> value, timed
    check: object  # (value, Tally) -> None, raises CheckError
    probe: bool = False  # exit-code probes are tallied, not counted as failures

    @property
    def kind(self) -> str:
        return self.label.split(" [")[0]


def _mat(m: np.ndarray) -> str:
    return ";".join(",".join(repr(float(x)) for x in row) for row in np.atleast_2d(m))


def _channel_args(g1, g2) -> list[str]:
    return [f"--g1={_mat(g1)}", f"--g2={_mat(g2)}"]


def run_cli(cli, argv: list[str], env: dict | None = None):
    """(exit code, stdout, stderr) of one in-process ``secbc`` invocation.

    An exception escaping ``main`` is exit code 1, as for the console
    script.  ``env`` entries are set for this call only.
    """
    saved = {k: os.environ.get(k) for k in (env or {})}
    os.environ.update(env or {})
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = cli.main(argv)
            except SystemExit as exc:
                rc = exc.code if isinstance(exc.code, int) else 1
            except Exception as exc:  # noqa: BLE001 - an uncaught error is exit 1
                print(f"uncaught {type(exc).__name__}: {exc}", file=err)
                rc = 1
    finally:
        for k, v in saved.items():
            if v is None:
                os.environ.pop(k, None)
            else:
                os.environ[k] = v
    return rc, out.getvalue(), err.getvalue()


def _expect_ok(value) -> str:
    rc, out, err = value
    require(rc == 0, f"exit code {rc}: {err.strip()[-200:]}")
    return out


def _random_gain(rng, t: int) -> np.ndarray:
    while True:
        g = rng.normal(size=(t, t)) * 1.5
        if np.linalg.cond(g) < 30.0:
            return g


def _random_cov(rng, t: int, lo: float, hi: float) -> np.ndarray:
    a = rng.normal(size=(t, t))
    k = a @ a.T + 0.1 * np.eye(t)
    return k * (rng.uniform(lo, hi) * t / np.trace(k))


# ----------------------------------------------------------------- checks


def _closed_max_r1(tally: Tally, g1, g2, verified) -> None:
    """Count the max-R1 corner of a 2-D frontier against the closed form."""
    corner = max(verified, key=lambda v: v[2])
    tally.add_closed(corner[2], gevd_secrecy(g1, g2, corner[3]))


def _check_pairs(path, g1, g2, tally, *, power=None, k=None, both=False):
    rows = oracle.read_csv(path)
    verified = oracle.verify_pairs(rows, g1, g2, power=power, k_fixed=k, both_confidential=both)
    tally.frontier_area += oracle.area_2d([(v[0], v[1]) for v in verified])
    _closed_max_r1(tally, g1, g2, verified)
    return [(v[0], v[1]) for v in verified]


def _check_triples(rows, g1, g2, tally, *, power=None, k=None):
    triples = oracle.verify_triples(rows, g1, g2, power=power, k_fixed=k)
    require(len(triples) > 0, "empty triple frontier")
    tally.triple_volume += oracle.volume_3d(triples)


_FLOAT = re.compile(r"[-+]?(?:\d+\.\d*|\.\d+|\d+)(?:[eE][-+]?\d+)?")


def _parse_envelope(text: str, t: int):
    """(level, value, splits) from the ``secbc envelope`` printout."""
    head, *chunks = re.split(r"split \d+:", text)
    m = re.search(r"(v_eta|v_hat|v_tilde) = (\S+) bits", head)
    require(m is not None, f"unparsable envelope output {head!r}")
    splits = []
    for chunk in chunks:
        vals = [float(x) for x in _FLOAT.findall(chunk)]
        require(len(vals) == t * t, "unparsable split matrix")
        splits.append(np.array(vals).reshape(t, t))
    return m.group(1), float(m.group(2)), splits


def envelope_value(level, g1, g2, splits, w) -> float:
    """The envelope objective re-evaluated at the printed argmax splits."""
    inner = splits[0]
    s_inner = cap(g2, inner) - w["eta"] * cap(g1, inner)
    if level == "v_eta":
        return s_inner
    lam1, lam2 = w["lambda1"], w["lambda2"]
    k12 = splits[0] + splits[1]
    val = lam1 * s_inner + lam1 * cap(g1, k12) - (lam1 + lam2) * cap(g2, k12)
    if level == "v_hat":
        return val
    k123 = k12 + splits[2]
    abar = 1.0 - w["alpha"]
    return (
        val
        + (lam2 - abar * w["lambda0"]) * cap(g2, k123)
        - w["alpha"] * w["lambda0"] * cap(g1, k123)
    )


# -------------------------------------------------------------- workloads


def power_fig2(secbc, seed: int, work: str, root: str, p: int) -> list[Request]:
    """``compare --power 12`` (CSV + SVG) and ``region --mode common --power 12``."""
    cli = secbc.cli
    golden_dir = os.path.join(root, "tests", "golden")
    with open(os.path.join(golden_dir, "fig2.json"), encoding="utf-8") as fh:
        golden = json.load(fh)
    stair = np.loadtxt(os.path.join(golden_dir, "fig2_frontier.csv"), delimiter=",", skiprows=1)
    g1, g2, power = EXAMPLE_G1, EXAMPLE_G2, FIG2_POWER
    base = ["--power", repr(power)] + _channel_args(g1, g2)
    out_csv = os.path.join(work, "fig2.csv")
    both_csv = os.path.join(work, "fig2_both_confidential.csv")
    out_svg = os.path.join(work, "fig2.svg")
    common_csv = os.path.join(work, "fig2_common.csv")

    def check_compare(value, tally):
        _expect_ok(value)
        fp = _check_pairs(out_csv, g1, g2, tally, power=power)
        fb = _check_pairs(both_csv, g1, g2, tally, power=power, both=True)
        with open(out_svg, encoding="utf-8") as fh:
            svg = fh.read()
        require(svg.startswith("<svg") and svg.count("<polyline") == 2, "bad SVG")
        # criterion 3 of the acceptance suite, on the written CSVs
        max1 = max(r1 for r1, _ in fp)
        require(abs(max1 - max(r1 for r1, _ in fb)) <= FIG2_SLACK, "max R1 differs")
        require(abs(max1 - golden["max_r1_one"]) <= FIG2_SLACK, "max R1 off the golden value")
        for r1, r2 in fb:
            require(
                oracle.r2_available(fp, r1, FIG2_SLACK) >= r2 - FIG2_SLACK,
                "comparison region not inside",
            )
        gap = max(oracle.r2_available(fp, r1, 1e-9) - r2 for r1, r2 in fb)
        require(gap > 0.05 and abs(gap - golden["max_gap"]) <= 2.5e-2, f"inclusion gap {gap}")
        for r1_edge, r2_best in stair:
            require(
                oracle.r2_available(fp, r1_edge, FIG2_SLACK) >= r2_best - FIG2_SLACK,
                f"frontier below the golden staircase at R1={r1_edge}",
            )

    def check_common(value, tally):
        _expect_ok(value)
        _check_triples(oracle.read_csv(common_csv), g1, g2, tally, power=power)

    return [
        Request(
            "compare --power 12",
            lambda: run_cli(cli, ["compare"] + base + ["--out", out_csv, "--svg", out_svg]),
            check_compare,
        ),
        Request(
            "region --mode common --power 12",
            lambda: run_cli(cli, ["region", "--mode", "common"] + base + ["--out", common_csv]),
            check_common,
        ),
    ]


T3_CHAIN = dict(chain_theta_steps=4, chain_diag_steps=3)
K1_ZERO_SAMPLES = {1: 10, 2: 5, 3: 1}  # about 3 s and 1.2 GB per sample at t = 3
FIXED_COV_CHANNELS = {1: 1, 2: 8, 3: 1}  # channels per dimension in one pass


def _fixed_cov_channel(secbc, rng, t: int, tag: str, work: str) -> list[Request]:
    """The requests on one seeded channel and covariance constraint."""
    cli, regions = secbc.cli, secbc.regions
    g1, g2 = _random_gain(rng, t), _random_gain(rng, t)
    k = _random_cov(rng, t, 1.0, 4.0)
    ch = secbc.make_channel(g1, g2)
    split_seed = int(rng.integers(2**31))
    base = _channel_args(g1, g2) + [f"--covariance={_mat(k)}"]
    wtc_csv = os.path.join(work, f"wtc_{tag}.csv")
    nc_csv = os.path.join(work, f"nocommon_{tag}.csv")
    cm_csv = os.path.join(work, f"common_{tag}.csv")

    def check_wtc(value, tally):
        _expect_ok(value)
        rows = oracle.read_csv(wtc_csv)
        require(len(rows) == 1, "wtc CSV must hold one row")
        ((_, _, r1, _),) = oracle.verify_pairs(rows, g1, g2, k_fixed=k, wtc=True)
        tally.add_closed(r1, gevd_secrecy(g1, g2, k))

    def check_nc(value, tally):
        _expect_ok(value)
        _check_pairs(nc_csv, g1, g2, tally, k=k)

    def check_cm(value, tally):
        _expect_ok(value)
        _check_triples(oracle.read_csv(cm_csv), g1, g2, tally, k=k)

    def check_frontier(fr, tally):
        rows = [
            ({"R0": q.r0, "R1": q.r1, "R2": q.r2}, {"k": q.gen["k"], "k1": q.gen["k1"], "k2": q.gen["k2"]})
            for q in fr.points
        ]
        _check_triples(rows, g1, g2, tally, k=k)

    def check_true(ok, tally):
        require(ok is True, "check_k1_zero reported a shrinking rate")

    reqs = [
        Request(
            f"check_k1_zero t{t} [{tag}]",
            lambda: regions.check_k1_zero(ch, k, samples=K1_ZERO_SAMPLES[t], seed=split_seed),
            check_true,
        )
    ]
    if t == 3:
        # Builds (nv*nd)^2 candidate rows: about 335 MB here; see NOTES.md.
        reqs.append(
            Request(
                f"region_common_fixed t{t} [{tag}]",
                lambda: regions.region_common_fixed(ch, k, secbc.GridSpec(**T3_CHAIN)),
                check_frontier,
            )
        )
        return reqs
    reqs += [
        Request(f"wtc t{t} [{tag}]", lambda: run_cli(cli, ["wtc"] + base + ["--out", wtc_csv]), check_wtc),
        Request(
            f"region no-common t{t} [{tag}]",
            lambda: run_cli(cli, ["region", "--mode", "no-common"] + base + ["--out", nc_csv]),
            check_nc,
        ),
    ]
    if t == 1:
        reqs.append(
            Request(
                f"region common t{t} [{tag}]",
                lambda: run_cli(cli, ["region", "--mode", "common"] + base + ["--out", cm_csv]),
                check_cm,
            )
        )
    return reqs


def fixed_cov(secbc, seed: int, work: str, root: str, p: int) -> list[Request]:
    """Many small fixed-covariance requests on seeded channels, t = 1, 2, 3."""
    cli = secbc.cli
    rng = np.random.default_rng([seed, p])
    reqs: list[Request] = []
    for t, count in FIXED_COV_CHANNELS.items():
        for i in range(count):
            reqs += _fixed_cov_channel(secbc, rng, t, f"p{p}_t{t}_{i}", work)

    def check_printed(pattern, limit):
        def check(value, tally):
            out = _expect_ok(value)
            m = re.search(pattern + r" = (\S+)", out)
            require(m is not None and float(m.group(1)) <= limit, f"bad report {out!r}")

        return check

    s = str(int(rng.integers(1_000_000)))
    for dim in (2, 3):
        reqs.append(
            Request(
                f"dpc-check dim {dim} [p{p}]",
                lambda d=dim: run_cli(cli, ["dpc-check", "--seed", s, "--trials", "50", "--dim", str(d)]),
                check_printed("max relative gap", 1e-9),
            )
        )
        reqs.append(
            Request(
                f"decomp-check dim {dim} [p{p}]",
                lambda d=dim: run_cli(cli, ["decomp-check", "--seed", s, "--trials", "50", "--dim", str(d)]),
                check_printed("max Frobenius residual", 1e-7),
            )
        )
    if p > 0:
        return reqs

    # Exit-code contract: bad configuration must exit 2 (see NOTES.md).
    ex = _channel_args(EXAMPLE_G1, EXAMPLE_G2)
    probes = [
        ("region --power nan", ["region", "--power", "nan"] + ex, None),
        ("region --power inf", ["region", "--power", "inf"] + ex, None),
        ("wtc --power 12, SECBC_THREADS=0", ["wtc", "--power", "12"] + ex, {"SECBC_THREADS": "0"}),
    ]
    for label, argv, env in probes:

        def check_exit(value, tally, label=label):
            tally.exit_probes += 1
            if value[0] != 2:
                tally.exit_violations.append(f"{label}: exit {value[0]}, expected 2")

        reqs.append(Request(f"{label} [probe]", lambda a=argv, e=env: run_cli(cli, a, e), check_exit, probe=True))
    return reqs


def _envelope_weights(rng) -> dict:
    lam2 = float(rng.uniform(0.5, 1.2))
    return {
        "lambda0": float(rng.uniform(lam2 + 0.3, 2.5)),
        "lambda1": 1.0,
        "lambda2": lam2,
        "eta": float(rng.uniform(1.05, 1.55)),
        "alpha": float(rng.uniform(0.2, 0.8)),
    }


def envelope(secbc, seed: int, work: str, root: str, p: int) -> list[Request]:
    """v_eta / v_hat / v_tilde through ``secbc envelope``, factorization, bound_b.

    Pass 0 uses the example channel with K = diag(3, 2), later passes a
    seeded t = 2 channel; the weights are seeded in every pass.
    """
    cli, envelopes = secbc.cli, secbc.envelopes
    rng = np.random.default_rng([seed, p])
    if p == 0:
        g1, g2, k = EXAMPLE_G1, EXAMPLE_G2, np.diag([3.0, 2.0])
    else:
        g1, g2, k = _random_gain(rng, 2), _random_gain(rng, 2), _random_cov(rng, 2, 1.5, 3.0)
    w = _envelope_weights(rng)
    base = ["envelope", f"--covariance={_mat(k)}"] + _channel_args(g1, g2)
    lam = ["--lambda1", repr(w["lambda1"]), "--lambda2", repr(w["lambda2"]), "--eta", repr(w["eta"])]
    flags = {
        "v_eta@1": ["--eta", "1.0"],
        "v_eta": ["--eta", repr(w["eta"])],
        "v_hat": lam,
        "v_tilde": lam + ["--lambda0", repr(w["lambda0"]), "--alpha", repr(w["alpha"])],
    }
    reqs: list[Request] = []
    for name, extra in flags.items():
        weights = dict(w, eta=1.0) if name == "v_eta@1" else w

        def check(value, tally, weights=weights, name=name):
            level, reported, splits = _parse_envelope(_expect_ok(value), 2)
            require(level == name.split("@")[0], f"level {level}, expected {name}")
            for s in splits:
                oracle.check_psd_leq(np.zeros_like(s), s, "split is PSD", SPLIT_TOL)
            oracle.check_psd_leq(sum(splits), k, "sum of splits <= K", SPLIT_TOL)
            again = envelope_value(level, g1, g2, splits, weights)
            tol = PRINTED_TOL * (1.0 + sum(abs(v) for v in weights.values()))
            require(abs(again - reported) <= tol, f"{level} {reported} re-evaluates to {again}")
            tally.opt_value_sum += reported
            if name == "v_eta@1":
                # eta = 1 is the wiretap capacity with the roles swapped
                tally.add_closed(reported, gevd_secrecy(g2, g1, k), PRINTED_ROUNDING)

        reqs.append(Request(f"{name} [p{p}]", lambda a=base + extra: run_cli(cli, a), check))

    for mode in ("v", "vhat", "vtilde"):

        def check_gap(value, tally, mode=mode):
            product, total = value
            require(math.isfinite(product) and math.isfinite(total), "non-finite envelope value")
            if product > total + 1e-6:
                tally.factorization_violations.append(
                    f"factorization_gap {mode} p{p}: product {product:.3g} above sum {total:.3g}"
                )

        ga, gb = (secbc.make_channel(*rng.uniform(0.5, 3.0, (2, 1, 1))) for _ in range(2))
        ka, kb = rng.uniform(0.3, 3.0, (2, 1, 1))
        wts = secbc.EnvelopeWeights(**_envelope_weights(rng))
        reqs.append(
            Request(
                f"factorization_gap {mode} [p{p}]",
                lambda a=ga, b=gb, ka=ka, kb=kb, w=wts, m=mode: envelopes.factorization_gap(
                    a, b, ka, kb, w, mode=m
                ),
                check_gap,
            )
        )

    t = 2 + p % 2
    bg1, bg2 = (g1, g2) if t == 2 else (_random_gain(rng, t), _random_gain(rng, t))
    bw = secbc.EnvelopeWeights(lambda1=1.0, lambda2=float(rng.uniform(0.3, 1.2)), eta=1.3)
    probes = [_random_cov(rng, t, 0.1, 30.0) for _ in range(20)]

    def check_bound(b, tally):
        require(math.isfinite(b), "bound_b is not finite")
        l1, l2 = bw.lambda1, bw.lambda2
        for kx in probes:
            diff = 2.0 * (l1 * cap(bg1, kx) - (l1 + l2) * cap(bg2, kx))
            require(diff <= b + 1e-9, f"bound_b {b} below {diff}")

    ch = secbc.make_channel(bg1, bg2)
    reqs.append(Request(f"bound_b [p{p}]", lambda: envelopes.bound_b(ch, bw), check_bound))
    return reqs


# name -> (function giving the request list of pass p, passes per cycle)
WORKLOADS = {"power-fig2": (power_fig2, 1), "fixed-cov": (fixed_cov, 3), "envelope": (envelope, 4)}


def run_list(requests: list[Request], clock, tracer=None):
    """Run one pass: [(request, value or exception, seconds)]."""
    results = []
    for req in requests:
        if tracer is not None:
            tracer.request += 1
        start = clock()
        try:
            value = req.call()
        except Exception as exc:  # noqa: BLE001 - a raising request is a failure
            value = exc
        results.append((req, value, clock() - start))
    return results


def typical_pass(passes: list) -> float:
    """Seconds of a typical pass: per request kind, the median over passes
    of the kind's time in the pass, summed over kinds.  One slow input or
    one slow moment moves only its own kind's median."""
    per_kind: dict[str, list] = {}
    for results in passes:
        here: dict[str, float] = {}
        for req, _, seconds in results:
            here[req.kind] = here.get(req.kind, 0.0) + seconds
        for kind, seconds in here.items():
            per_kind.setdefault(kind, []).append(seconds)
    return sum(statistics.median(v) for v in per_kind.values())


def check_list(results, tally: Tally) -> list[str]:
    """Check every output of one pass into ``tally``; returns the failures."""
    failures = []
    for req, value, _ in results:
        if isinstance(value, Exception):
            failures.append(f"{req.label}: raised {type(value).__name__}: {value}")
            continue
        try:
            req.check(value, tally)
        except CheckError as exc:
            failures.append(f"{req.label}: {exc}")
        except Exception as exc:  # noqa: BLE001 - unreadable output is a failure too
            failures.append(f"{req.label}: check raised {type(exc).__name__}: {exc}")
    return failures
