"""Record the outputs of a fixed call list and diff two records.

    python scripts/compare_outputs.py record parent.json --src ../parent/src
    python scripts/compare_outputs.py record change.json
    python scripts/compare_outputs.py diff parent.json change.json

``record`` imports secbc from ``--src`` (default: this checkout's
``src``), runs every case below and writes its outputs as JSON at full
precision (floats at ``repr`` precision read back bit for bit).  A
frontier is stored as its rate rows plus one flattened matrix per
generator and point; ``wtc_capacity_power`` as its value, constraint and
argmax; a CLI case as rate columns of the CSV it writes.

``diff`` prints, per case, whether the two records are bitwise equal,
both point counts and the largest |change| of each rate column and each
generator.  Bitwise equal records pass every gate.  Otherwise each
case carries a gate: ``within`` a tolerance, every rate with equal
point counts; ``close``, as ``within`` and every generator too;
``dominates``, every value of the second record at least the first's
minus a slack (for maxima whose search may improve); or ``covers``,
every rate row of the first record at most some row of the second plus
a slack in each coordinate (for regions whose point sets may differ;
``diff`` prints the largest shortfall and the change of each column
maximum).  The last line tallies the cases: bitwise equal, the others
that pass per gate kind, and failed (a missing case counts as failed).
The exit status is 1 when a gate fails or a case is missing from either
record.

The cases (``P`` is the power, ``K`` the covariance constraint):

- ``wtc_capacity_power``, ``both_confidential_frontier`` and
  ``region_common_power`` on the example channel at P = 12 and on
  channels from ``default_rng(1000 t + s)``: gains N(0, 1.5^2) redrawn
  until cond < 30, then P ~ U(2, 20).  t = 1, 2 with s = 1-6 at the
  default grid; t = 3 with s = 1-3 (first two functions only) at
  ``theta_steps=8, trace_steps=9``.  ``wtc_capacity_power``: the value
  dominates within 1e-12; ``both_confidential_frontier``: covered within
  1e-12, so a change to the corner's start or polish passes only if it
  reaches at least the parent's corner.  ``region_common_power``: covered
  within 0.05 bit, about one r0 cell (max R0 / 96) of its thinning.
- ``wtc_capacity_power`` and ``both_confidential_frontier`` on the
  example channel at P = 0.1, 1e3, 1e4 and 1e6, the ends of the power
  range, with the gates above (the large powers are where a polish that
  stalls in its iteration cap would fall short), and
  ``region_common_power`` there at P = 1.
- ``frontier_fixed_cov`` and ``region_common_fixed`` on the example
  channel with K = 6I and 4I, and on ``default_rng(100 t + s)`` channels
  (t = 1-3, s = 1-4) with K = A A^T + 0.1 I.  Default grid, except
  ``theta_steps=8, diag_steps=9`` and chain grid (4, 3) at t = 3, where
  the default two-level grid holds about 10^13 nodes.
  ``frontier_fixed_cov``: same point count, every rate within 1e-12
  (its R2 column carries the last bits of the C2(K) log-determinant);
  ``region_common_fixed``: covered within 0.05 bit.
- t = 3 chained grids (covered within 0.05 bit): ``region_common_fixed``
  on the t = 3 channels s = 1, 2 above at chain grids (6, 3) and (8, 2),
  and ``region_common_power`` on the t = 3 power channels s = 1, 2 at
  ``deep_theta_steps=4, deep_diag_steps=2, deep_trace_steps=3``.  The
  6- and 4-step lattices are closed under signed permutations, the
  8-step one is not, so both kinds of outer level are compared.
- ``frontier_power`` on the example channel at P = 0.1, 12 and 1e6, on
  ``default_rng(s)`` t = 2 channels (s = 1-5, drawn as above) and on the
  t = 1 and t = 3 power channels above with s = 1-3 (t = 3 at its small
  grid), so that every spectrum branch of the K* scoring is compared:
  same point count, every rate within 1e-12.
- the CLI on the example channel at P = 12: the R1 of the ``wtc`` CSV
  dominates within 1e-12; the rate rows of the ``_both_confidential.csv``
  of ``compare`` are covered within 1e-12 and those of
  ``region --mode common`` within 0.05 bit.
- the envelope calls of the ``envelope`` benchmark workload for seeds
  1-10 and passes 0-3 (inputs drawn as there from
  ``default_rng([seed, pass])``): ``v_eta`` at eta = 1 and at the seeded
  eta, ``v_hat``, ``v_tilde`` and ``factorization_gap`` in modes v, vhat
  and vtilde, at the default grid.  Each runs refined (gate: every value
  dominates, within 1e-12) and with ``refine_iters=0`` (the grid
  maximum: value and splits within 1e-12, since a grid node may be a
  rounding variant of the parent's matrix).
- t = 3 envelopes for seeds 1-3 (channel, K = A A^T + 0.1 I and weights
  from ``default_rng([3, seed])``): ``v_eta`` at eta = 1 and at the
  seeded eta on (8, 5), ``v_eta`` on (16, 5), ``v_hat`` at chain grids
  (6, 3) and (8, 2) and ``v_tilde`` at deep grid (4, 2), refined and at
  ``refine_iters=0``, with the gates above.
- t = 1 envelopes, which take the closed form when refined: ``v_eta``
  at eta = 1 and at the seeded eta, ``v_hat`` and ``v_tilde`` for seeds
  1-6 (from ``default_rng([1, seed])``: gains U(2, 3) and U(0.3, 0.8),
  the stronger one first at odd seeds, K = 10^U(-3, 3), weights as above
  but alpha U(0, 0.3)), and at K = 1e50 ``v_eta`` (eta = 1.2) on
  gains (2, 3) and ``v_hat``/``v_tilde`` on the scalar channel and
  weights of ``TestVTildeTinySplits``, where a polish from the grid once
  fell to 0; and ``v_eta`` at eta = 1 on the example channel at
  K = 1e15 I and 1e50 I, where the rates of a rank-deficient argmax lose
  their unit eigenvalues; refined and at ``refine_iters=0``, with the
  gates above.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
import tempfile
from dataclasses import replace
from functools import partial
from pathlib import Path

import numpy as np

from bench_common import TINY_GAINS, TINY_WEIGHTS

EXAMPLE_G1 = [[0.3, 2.5], [2.2, 1.8]]
EXAMPLE_G2 = [[1.3, 1.2], [1.5, 3.9]]
RATE_TOL = 1e-12
COVERS = ("covers", 0.05)
WITHIN = ("within", RATE_TOL)
CLOSE = ("close", RATE_TOL)
DOMINATES = ("dominates", RATE_TOL)
COVERS_TIGHT = ("covers", RATE_TOL)


def _gain(rng, t: int) -> np.ndarray:
    while True:
        g = rng.normal(size=(t, t)) * 1.5
        if np.linalg.cond(g) < 30.0:
            return g


def _cases(secbc):
    """(name, gate, call) triples; a gate is (kind, tolerance)."""
    grid_t3 = secbc.GridSpec(theta_steps=8, trace_steps=9)
    fixed_t3 = secbc.GridSpec(
        theta_steps=8, diag_steps=9, chain_theta_steps=4, chain_diag_steps=3
    )
    example = secbc.make_channel(EXAMPLE_G1, EXAMPLE_G2)
    out = []

    power_sets = [("example", example, 12.0, None)]
    ends = [(f"example,P={p:g}", example, p, None) for p in (0.1, 1e3, 1e4, 1e6)]
    power_gates = {
        "wtc_capacity_power": DOMINATES,
        "both_confidential_frontier": COVERS_TIGHT,
        "region_common_power": COVERS,
    }
    for t in (1, 2, 3):
        for s in range(1, 7 if t < 3 else 4):
            rng = np.random.default_rng(1000 * t + s)
            ch = secbc.make_channel(_gain(rng, t), _gain(rng, t))
            p = float(rng.uniform(2.0, 20.0))
            power_sets.append((f"t{t}s{s}", ch, p, grid_t3 if t == 3 else None))
    for tag, ch, p, grid in power_sets:
        fns = ["wtc_capacity_power", "both_confidential_frontier"]
        if grid is None:
            fns.append("region_common_power")
        for fn in fns:
            call = partial(getattr(secbc, fn), ch, p, grid)
            out.append((f"{fn}[{tag}]", power_gates[fn], call))
    for tag, ch, p, grid in ends:
        for fn in ("wtc_capacity_power", "both_confidential_frontier"):
            call = partial(getattr(secbc, fn), ch, p, grid)
            out.append((f"{fn}[{tag}]", power_gates[fn], call))
    call = partial(secbc.region_common_power, example, 1.0)
    out.append(("region_common_power[example,P=1]", COVERS, call))

    fixed_sets = [("example,6I", example, 6.0 * np.eye(2), None)]
    fixed_sets.append(("example,4I", example, 4.0 * np.eye(2), None))
    for t in (1, 2, 3):
        for s in range(1, 5):
            rng = np.random.default_rng(100 * t + s)
            ch = secbc.make_channel(_gain(rng, t), _gain(rng, t))
            a = rng.normal(size=(t, t))
            k = a @ a.T + 0.1 * np.eye(t)
            fixed_sets.append((f"t{t}s{s}", ch, k, fixed_t3 if t == 3 else None))
    for tag, ch, k, grid in fixed_sets:
        for fn, gate in (("frontier_fixed_cov", WITHIN), ("region_common_fixed", COVERS)):
            out.append((f"{fn}[{tag}]", gate, partial(getattr(secbc, fn), ch, k, grid)))

    # t = 3 chained grids: chain (6, 3) and deep (4, 2) on lattices closed
    # under signed permutations, chain (8, 2) on one that is not.
    for tag, ch, k, _ in fixed_sets:
        if tag in ("t3s1", "t3s2"):
            for steps, d in ((6, 3), (8, 2)):
                grid = secbc.GridSpec(chain_theta_steps=steps, chain_diag_steps=d)
                call = partial(secbc.region_common_fixed, ch, k, grid)
                out.append((f"region_common_fixed[{tag}@chain{steps}x{d}]", COVERS, call))
    deep_t3 = secbc.GridSpec(deep_theta_steps=4, deep_diag_steps=2, deep_trace_steps=3)
    for tag, ch, p, _ in power_sets:
        if tag in ("t3s1", "t3s2"):
            call = partial(secbc.region_common_power, ch, p, deep_t3)
            out.append((f"region_common_power[{tag}@deep4x2]", COVERS, call))

    pair_sets = [("example", example, 12.0, None)]
    pair_sets += [(f"example,P={p:g}", example, p, None) for p in (0.1, 1e6)]
    for s in range(1, 6):
        rng = np.random.default_rng(s)
        ch = secbc.make_channel(_gain(rng, 2), _gain(rng, 2))
        pair_sets.append((f"t2s{s}", ch, float(rng.uniform(2.0, 20.0)), None))
    other_t = {f"t{t}s{s}" for t in (1, 3) for s in (1, 2, 3)}
    pair_sets += [case for case in power_sets if case[0] in other_t]
    for tag, ch, p, grid in pair_sets:
        call = partial(secbc.frontier_power, ch, p, grid)
        out.append((f"frontier_power[{tag}]", WITHIN, call))

    chan = ["--g1", "0.3,2.5;2.2,1.8", "--g2", "1.3,1.2;1.5,3.9", "--power", "12"]
    for name, argv, gate, read in (
        ("cli:region-common", ["region", "--mode", "common"], COVERS,
         partial(_csv_rates, "out.csv", ("R0", "R1", "R2"))),
        ("cli:wtc", ["wtc"], DOMINATES, partial(_csv_rates, "out.csv", ("R1",))),
        ("cli:compare", ["compare"], COVERS_TIGHT,
         partial(_csv_rates, "out_both_confidential.csv", ("R1", "R2"))),
    ):
        out.append((name, gate, partial(_cli_outputs, argv + chan, read)))

    unrefined = secbc.GridSpec(refine_iters=0)
    for seed in range(1, 11):
        for p in range(4):
            for name, call in _envelope_calls(secbc, seed, p):
                tag = f"{name}[s{seed}p{p}]"
                out.append((tag, DOMINATES, partial(call, None)))
                out.append((f"{tag}@grid", CLOSE, partial(call, unrefined)))
    for seed in range(1, 4):
        for name, grid, call in _envelope_calls_t3(secbc, seed):
            tag = f"{name}[t3s{seed}]"
            out.append((tag, DOMINATES, partial(call, grid)))
            out.append((f"{tag}@grid", CLOSE, partial(call, replace(grid, refine_iters=0))))
    for tag, call in _closed_form_calls(secbc, example):
        out.append((tag, DOMINATES, partial(call, None)))
        out.append((f"{tag}@grid", CLOSE, partial(call, unrefined)))
    return out


def _envelope_weights(rng) -> dict:
    lam2 = float(rng.uniform(0.5, 1.2))
    return {
        "lambda0": float(rng.uniform(lam2 + 0.3, 2.5)),
        "lambda1": 1.0,
        "lambda2": lam2,
        "eta": float(rng.uniform(1.05, 1.55)),
        "alpha": float(rng.uniform(0.2, 0.8)),
    }


def _envelope_calls(secbc, seed: int, p: int):
    """(name, call(grid)) of one pass of the envelope benchmark workload."""
    from secbc import envelopes

    rng = np.random.default_rng([seed, p])
    if p == 0:
        g1, g2, k = EXAMPLE_G1, EXAMPLE_G2, np.diag([3.0, 2.0])
    else:
        g1, g2 = _gain(rng, 2), _gain(rng, 2)
        a = rng.normal(size=(2, 2))
        k = a @ a.T + 0.1 * np.eye(2)
        k = k * (rng.uniform(1.5, 3.0) * 2 / np.trace(k))
    ch = secbc.make_channel(g1, g2)
    w = secbc.EnvelopeWeights(**_envelope_weights(rng))
    calls = [
        ("v_eta@1", lambda grid: envelopes.v_eta(ch, k, 1.0, grid)),
        ("v_eta", lambda grid: envelopes.v_eta(ch, k, w.eta, grid)),
        ("v_hat", lambda grid: envelopes.v_hat(ch, k, w, grid)),
        ("v_tilde", lambda grid: envelopes.v_tilde(ch, k, w, grid)),
    ]
    for mode in ("v", "vhat", "vtilde"):
        ga, gb = (secbc.make_channel(*rng.uniform(0.5, 3.0, (2, 1, 1))) for _ in range(2))
        ka, kb = rng.uniform(0.3, 3.0, (2, 1, 1))
        wts = secbc.EnvelopeWeights(**_envelope_weights(rng))
        call = partial(envelopes.factorization_gap, ga, gb, ka, kb, wts, mode=mode)
        calls.append((f"factorization_gap:{mode}", call))
    return calls


def _envelope_calls_t3(secbc, seed: int):
    """(name, grid, call(grid)) of the t = 3 envelope cases of one seed."""
    from secbc import envelopes

    rng = np.random.default_rng([3, seed])
    ch = secbc.make_channel(_gain(rng, 3), _gain(rng, 3))
    a = rng.normal(size=(3, 3))
    k = a @ a.T + 0.1 * np.eye(3)
    w = secbc.EnvelopeWeights(**_envelope_weights(rng))
    grid = secbc.GridSpec
    return [
        ("v_eta@1@8x5", grid(theta_steps=8, diag_steps=5),
         lambda g: envelopes.v_eta(ch, k, 1.0, g)),
        ("v_eta@8x5", grid(theta_steps=8, diag_steps=5),
         lambda g: envelopes.v_eta(ch, k, w.eta, g)),
        ("v_eta@16x5", grid(theta_steps=16, diag_steps=5),
         lambda g: envelopes.v_eta(ch, k, w.eta, g)),
        ("v_hat@chain6x3", grid(chain_theta_steps=6, chain_diag_steps=3),
         lambda g: envelopes.v_hat(ch, k, w, g)),
        ("v_hat@chain8x2", grid(chain_theta_steps=8, chain_diag_steps=2),
         lambda g: envelopes.v_hat(ch, k, w, g)),
        ("v_tilde@deep4x2", grid(deep_theta_steps=4, deep_diag_steps=2),
         lambda g: envelopes.v_tilde(ch, k, w, g)),
    ]


def _closed_form_calls(secbc, example):
    """(tag, call(grid)) of the envelope cases that take a closed form
    when refined: t = 1 and v_eta at eta = 1."""
    from secbc import envelopes

    calls = []
    for seed in range(1, 7):
        # the stronger receiver alternates, so that every level has
        # optima above 0: v_eta where it is the second, v_hat and v_tilde
        # (low alpha) where it is the first
        rng = np.random.default_rng([1, seed])
        gains = [[[rng.uniform(2.0, 3.0)]], [[rng.uniform(0.3, 0.8)]]]
        ch = secbc.make_channel(*gains[:: 1 if seed % 2 else -1])
        k = [[float(10.0 ** rng.uniform(-3.0, 3.0))]]
        w = secbc.EnvelopeWeights(**{**_envelope_weights(rng), "alpha": rng.uniform(0.0, 0.3)})
        calls += [
            (f"v_eta@1[t1s{seed}]", partial(envelopes.v_eta, ch, k, 1.0)),
            (f"v_eta[t1s{seed}]", partial(envelopes.v_eta, ch, k, w.eta)),
            (f"v_hat[t1s{seed}]", partial(envelopes.v_hat, ch, k, w)),
            (f"v_tilde[t1s{seed}]", partial(envelopes.v_tilde, ch, k, w)),
        ]
    big = [[1e50]]
    gains23 = secbc.make_channel([[2.0]], [[3.0]])
    tiny = secbc.make_channel(*([[g]] for g in TINY_GAINS))
    w = secbc.EnvelopeWeights(**TINY_WEIGHTS)
    calls += [
        ("v_eta[t1,K=1e50]", partial(envelopes.v_eta, gains23, big, 1.2)),
        ("v_hat[t1,K=1e50]", partial(envelopes.v_hat, tiny, big, w)),
        ("v_tilde[t1,K=1e50]", partial(envelopes.v_tilde, tiny, big, w)),
    ]
    for scale in (1e15, 1e50):
        call = partial(envelopes.v_eta, example, scale * np.eye(2), 1.0)
        calls.append((f"v_eta@1[example,K={scale:g}I]", call))
    return calls


def _csv_rates(name, cols, tmp) -> dict:
    """Rate rows (the columns ``cols``) of the CSV ``tmp/name``."""
    with open(Path(tmp, name), newline="", encoding="utf-8") as fh:
        rows = [[float(r[c]) for c in cols] for r in csv.DictReader(fh)]
    return {"rates": rows, "gens": {}}


def _cli_outputs(argv, read):
    """``read(DIR)`` after ``secbc argv --out DIR/out.csv`` has written its files."""
    from secbc import cli

    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "out.csv")
        with open(os.devnull, "w", encoding="utf-8") as null:
            saved, sys.stdout = sys.stdout, null
            try:
                rc = cli.main(argv + ["--out", path])
            finally:
                sys.stdout = saved
        if rc != 0:
            raise RuntimeError(f"secbc {' '.join(argv)} exited {rc}")
        return read(tmp)


def _flat(value) -> dict:
    """JSON-ready record of one call's output."""
    if isinstance(value, dict):  # CLI outputs
        return value
    if hasattr(value, "argmax_splits"):  # EnvelopeResult
        gens = {f"split{i}": [np.ravel(s).tolist()] for i, s in enumerate(value.argmax_splits)}
        return {"rates": [[float(value.value)]], "gens": gens}
    if isinstance(value, tuple) and len(value) == 2:  # factorization_gap
        return {"rates": [[float(v) for v in value]], "gens": {}}
    if isinstance(value, tuple):  # wtc_capacity_power
        v, k, ks = value
        gens = {"k": [np.ravel(k).tolist()], "kstar": [np.ravel(ks).tolist()]}
        return {"rates": [[float(v)]], "gens": gens}
    # A Frontier: its rate columns, triples reordered to (r0, r1, r2).
    rates = value.rates[:, [2, 0, 1]] if value.is_triple else value.rates
    names = list(value.gens) if len(rates) else []
    gens = {n: [np.ravel(m).tolist() for m in value.gens[n]] for n in names}
    return {"rates": rates.tolist(), "gens": gens}


def record(path: str, src: str) -> None:
    sys.path.insert(0, os.path.abspath(src))
    import secbc

    cases = {}
    for name, gate, call in _cases(secbc):
        cases[name] = {"gate": list(gate), **_flat(call())}
        print(name, flush=True)
    meta = {"src": os.path.abspath(src)}
    Path(path).write_text(json.dumps({"meta": meta, "cases": cases}) + "\n", encoding="utf-8")


def _shortfall(first, second) -> float:
    """max over rows a of ``first`` of min over rows b of ``second`` of
    max_c (a_c - b_c): how far the worst-covered row of ``first`` lies
    above the best row of ``second`` that covers it."""
    if len(first) == 0:
        return 0.0
    if len(second) == 0:
        return math.inf
    return max(
        float((first[s : s + 64, None, :] - second[None]).max(axis=2).min(axis=1).max())
        for s in range(0, len(first), 64)
    )


def _max_abs(a, b) -> float:
    if a.size == 0:
        return 0.0
    return float(np.max(np.abs(a - b)))


def diff(path_a: str, path_b: str) -> int:
    a = json.loads(Path(path_a).read_text(encoding="utf-8"))["cases"]
    b = json.loads(Path(path_b).read_text(encoding="utf-8"))["cases"]
    names = sorted(set(a) | set(b))
    failed = equal = 0
    passed = dict.fromkeys(("within", "close", "dominates", "covers"), 0)
    for name in names:
        if name not in a or name not in b:
            print(f"FAIL {name}: missing from the {'first' if name not in a else 'second'} record")
            failed += 1
            continue
        x, y = a[name], b[name]
        ra, rb = np.array(x["rates"], dtype=float), np.array(y["rates"], dtype=float)
        bitwise = (
            ra.tobytes() == rb.tobytes()
            and set(x["gens"]) == set(y["gens"])
            and all(
                np.array(x["gens"][g]).tobytes() == np.array(y["gens"][g]).tobytes()
                for g in x["gens"]
            )
        )
        line = f"{name}: points {len(ra)} -> {len(rb)}, bitwise {bitwise}"
        kind, tol = x["gate"]
        ok = bitwise
        cols = ("r0", "r1", "r2") if ra.shape[1:] == (3,) else ("r1", "r2")
        if kind in ("dominates", "close"):
            cols = tuple(f"v{i}" for i in range(ra.shape[1]))
        if not bitwise and kind == "covers":
            short = _shortfall(ra, rb)
            gain = rb.max(axis=0) - ra.max(axis=0) if len(ra) and len(rb) else []
            line += f", shortfall {short:+.2e}, max " + " ".join(
                f"{c}{d:+.2e}" for c, d in zip(cols, gain)
            )
            ok = short <= tol
        elif not bitwise and ra.shape == rb.shape:
            deltas = [_max_abs(ra[:, i], rb[:, i]) for i in range(ra.shape[1])]
            line += ", max|d| " + " ".join(f"{c}={d:.2e}" for c, d in zip(cols, deltas))
            for g in x["gens"]:
                ga, gb = np.array(x["gens"][g]), np.array(y["gens"].get(g, []))
                gap = _max_abs(ga, gb) if ga.shape == gb.shape else math.inf
                line += f" {g}=" + (f"{gap:.2e}" if ga.shape == gb.shape else "shape")
                if kind == "close":
                    deltas.append(gap)
            if kind in ("within", "close"):
                ok = max(deltas) <= tol
            elif kind == "dominates":
                low = float(np.min(rb - ra))
                line += f", min(second - first) {low:+.2e}"
                ok = low >= -tol
        gate = {
            "within": f"rates within {tol:g}",
            "close": f"rates and generators within {tol:g}",
            "covers": f"covered within {tol:g}",
        }.get(kind, f"dominates up to {tol:g}")
        print(f"{'ok  ' if ok else 'FAIL'} {line} (gate: {gate})")
        failed += not ok
        equal += bitwise
        if ok and not bitwise:
            passed[kind] += 1
    gates = ", ".join(f"{kind} {count}" for kind, count in passed.items())
    print(f"{len(names)} cases: {equal} bitwise equal; others passing by gate: {gates}; {failed} failed")
    return 1 if failed else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    rec = sub.add_parser("record", help="run the call list and write its outputs")
    rec.add_argument("out", help="JSON file to write")
    rec.add_argument("--src", default=str(Path(__file__).resolve().parent.parent / "src"))
    dif = sub.add_parser("diff", help="compare two records")
    dif.add_argument("first")
    dif.add_argument("second")
    args = parser.parse_args(argv)
    if args.command == "record":
        record(args.out, args.src)
        return 0
    return diff(args.first, args.second)


if __name__ == "__main__":
    sys.exit(main())
