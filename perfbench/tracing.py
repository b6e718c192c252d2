"""Outside-in layer tracing: wrap secbc's public functions from here.

A traced run replaces every module binding of each listed function with
a wrapper that records a span (metric name, start, end, parent span,
request id) plus the span's counts.  Bindings are found by identity over
all ``secbc`` modules, so ``regions.pair_dets`` and ``envelopes.pair_dets``
(both imported from ``sweeps``) and ``sweeps.rotation`` (imported from
``matops``) are each patched where they are looked up.

Spans live in compact arrays and are written out once, at the end.
Aggregates count outermost spans only: ``calls`` and ``busy_s`` ignore a
span nested inside another span of the same metric, and ``self_s`` is
``busy_s`` minus the time covered by wrapped child spans.  The traced run
is single-threaded (SECBC_THREADS=1), so one span stack is enough.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import pkgutil
from array import array
from time import perf_counter

import numpy as np


def _nodes(args, kwargs, result):
    g, parents, vbatch, dgrids = args[:4]
    n = parents.shape[0] * vbatch.shape[0]
    for d in dgrids:
        n *= len(d)
    return {"nodes": n}


def _matrices(args, kwargs, result):
    return {"matrices": int(np.prod(args[1].shape[:-2]))}


def _points(args, kwargs, result):
    if isinstance(result, bool):  # check_k1_zero: one point per sample
        return {"points": kwargs.get("samples", args[2] if len(args) > 2 else 100)}
    if isinstance(result, tuple):  # wtc_capacity: (value, argmax)
        return {"points": 1}
    return {"points": len(result.points)}


def _bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(args[1])}


# metric -> (home module, function names, counter); the names are the
# public functions of that layer.
LAYERS = {
    "sweeps.pair_dets": ("sweeps", ["pair_dets"], _nodes),
    "sweeps.det_i_plus_gram": ("sweeps", ["det_i_plus_gram"], _matrices),
    "sweeps.children_factors": ("sweeps", ["children_factors"], None),
    "sweeps.coordinate_refine": ("sweeps", ["coordinate_refine"], None),
    "sweeps.golden_max": ("sweeps", ["golden_max"], None),
    "sweeps.half_log2_det_gram": ("sweeps", ["half_log2_det_gram"], None),
    "sweeps.chain_factor": ("sweeps", ["chain_factor"], None),
    "sweeps.tables": (
        "sweeps",
        ["rotation_batch", "theta_tuple_grid", "diag_combos", "simplex_grid"],
        None,
    ),
    "sweeps.top_k_flat": ("sweeps", ["top_k_flat"], None),
    "matops.rotation": ("matops", ["rotation"], None),
    "matops.validate_psd": ("matops", ["validate_psd"], None),
    "matops.sqrt_factor": ("matops", ["sqrt_factor"], None),
    "matops.subcov": ("matops", ["compose_sub_cov", "decompose_sub_cov"], None),
    "channel.mi_xy": ("channel", ["mi_xy"], None),
    "channel.joint_mi": ("channel", ["joint_mi"], None),
    "dpc.dpc_identity_check": ("dpc", ["dpc_identity_check"], None),
    "envelopes.v_eta": ("envelopes", ["v_eta"], None),
    "envelopes.v_hat": ("envelopes", ["v_hat"], None),
    "envelopes.v_tilde": ("envelopes", ["v_tilde"], None),
    "envelopes.factorization_gap": ("envelopes", ["factorization_gap"], None),
    "regions.frontier_power": ("regions", ["frontier_power"], _points),
    "regions.both_confidential_frontier": (
        "regions",
        ["both_confidential_frontier"],
        _points,
    ),
    "regions.region_common_power": ("regions", ["region_common_power"], _points),
    "regions.frontier_fixed_cov": ("regions", ["frontier_fixed_cov"], _points),
    "regions.wtc_capacity": ("regions", ["wtc_capacity"], _points),
    "regions.region_common_fixed": ("regions", ["region_common_fixed"], _points),
    "regions.check_k1_zero": ("regions", ["check_k1_zero"], _points),
    "regions.pareto_filter": (
        "regions",
        ["pareto_filter_pairs", "pareto_filter_triples"],
        None,
    ),
    "cli.main": ("cli", ["main"], None),
    "cli.emit": ("cli", ["emit_csv", "emit_svg"], _bytes),
}

# Per-layer metrics read off the aggregates: (metric, field).
LAYER_METRICS = (
    [("sweeps.pair_dets", f) for f in ("calls", "busy_s", "nodes")]
    + [("sweeps.det_i_plus_gram", f) for f in ("calls", "busy_s", "matrices")]
    + [("sweeps.children_factors", "busy_s")]
    + [("sweeps.coordinate_refine", f) for f in ("calls", "busy_s")]
    + [(f"sweeps.{n}", "calls") for n in ("golden_max", "half_log2_det_gram", "chain_factor")]
    + [("sweeps.tables", "busy_s"), ("sweeps.top_k_flat", "busy_s")]
    + [("matops.rotation", "calls")]
    + [("matops.validate_psd", f) for f in ("calls", "busy_s")]
    + [("matops.sqrt_factor", "calls"), ("matops.subcov", "busy_s")]
    + [
        (m, f)
        for m in ("channel.mi_xy", "channel.joint_mi", "dpc.dpc_identity_check")
        for f in ("calls", "busy_s")
    ]
    + [
        (f"envelopes.{n}", f)
        for n in ("v_eta", "v_hat", "v_tilde", "factorization_gap")
        for f in ("calls", "busy_s", "self_s")
    ]
    + [
        (f"regions.{n}", f)
        for n in (
            "frontier_power",
            "both_confidential_frontier",
            "region_common_power",
            "frontier_fixed_cov",
            "wtc_capacity",
            "region_common_fixed",
            "check_k1_zero",
        )
        for f in ("calls", "busy_s", "self_s", "points")
    ]
    + [("regions.pareto_filter", "busy_s"), ("regions.frontier_power", "points_per_mnode")]
    + [("cli.main", "calls"), ("cli.main", "self_s")]
    + [("cli.emit", "busy_s"), ("cli.emit", "bytes")]
)


def _secbc_modules():
    pkg = importlib.import_module("secbc")
    mods = [pkg]
    for info in pkgutil.iter_modules(pkg.__path__):
        mods.append(importlib.import_module(f"secbc.{info.name}"))
    return mods


class Tracer:
    """Patches the layer bindings, records spans, restores on ``close``."""

    def __init__(self):
        self.names: list[str] = list(LAYERS)
        self.request = 0
        self.missing: list[str] = []
        self._name = array("i")
        self._parent = array("i")
        self._request = array("i")
        self._start = array("d")
        self._end = array("d")
        self._counts: dict[int, dict] = {}
        self._stack: list[list] = []
        self._depth = [0] * len(self.names)
        # per metric: calls, busy, self, {count: total}
        self._agg = [[0, 0.0, 0.0, {}] for _ in self.names]
        self._patched: list[tuple] = []
        self._frontier_power = self.names.index("regions.frontier_power")
        mods = _secbc_modules()
        for nid, (metric, (home, funcs, counter)) in enumerate(LAYERS.items()):
            home_mod = importlib.import_module(f"secbc.{home}")
            for fname in funcs:
                fn = getattr(home_mod, fname, None)
                if fn is None:
                    self.missing.append(f"{home}.{fname}")
                    continue
                wrapped = self._wrap(nid, fn, counter)
                for mod in mods:
                    for attr, val in list(vars(mod).items()):
                        if val is fn:
                            self._patched.append((mod, attr, fn))
                            setattr(mod, attr, wrapped)

    def close(self) -> None:
        for mod, attr, fn in reversed(self._patched):
            setattr(mod, attr, fn)
        self._patched.clear()

    def _wrap(self, nid, fn, counter):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = self._open(nid)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self._close(frame, perf_counter(), None)
                raise
            end = perf_counter()
            self._close(frame, end, counter(args, kwargs, result) if counter else None)
            return result

        return wrapper

    def _open(self, nid):
        idx = len(self._start)
        self._name.append(nid)
        self._parent.append(self._stack[-1][0] if self._stack else -1)
        self._request.append(self.request)
        self._end.append(float("nan"))
        outermost = self._depth[nid] == 0
        self._depth[nid] += 1
        # idx, metric, start, child time, outermost, nodes of nested pair_dets
        frame = [idx, nid, 0.0, 0.0, outermost, 0]
        self._stack.append(frame)
        frame[2] = perf_counter()
        self._start.append(frame[2])
        return frame

    def _close(self, frame, end, counts):
        idx, nid, start, child, outermost, nested_nodes = frame
        self._stack.pop()
        self._depth[nid] -= 1
        self._end[idx] = end
        dur = end - start
        if self._stack:
            self._stack[-1][3] += dur
        if counts:
            self._counts[idx] = counts
            if "nodes" in counts:
                for anc in self._stack:
                    anc[5] += counts["nodes"]
        if outermost:
            agg = self._agg[nid]
            agg[0] += 1
            agg[1] += dur
            agg[2] += dur - child
            tot = agg[3]
            for key, val in (counts or {}).items():
                tot[key] = tot.get(key, 0) + val
            if nid == self._frontier_power:
                tot["nodes"] = tot.get("nodes", 0) + nested_nodes

    def layer_metrics(self, passes: int) -> dict:
        """Per-layer metrics, per pass of the request list."""
        out = {}
        for metric, field in LAYER_METRICS:
            calls, busy, self_s, tot = self._agg[self.names.index(metric)]
            if field == "points_per_mnode":  # a ratio, not a per-pass total
                nodes = tot.get("nodes", 0)
                out[f"{metric}.{field}"] = tot.get("points", 0) / (nodes / 1e6) if nodes else 0.0
                continue
            val = {"calls": calls, "busy_s": busy, "self_s": self_s}.get(field, tot.get(field, 0))
            out[f"{metric}.{field}"] = val / passes
        return out

    def write(self, path: str) -> None:
        """Dump every span (and its counts) as one compressed npz file."""
        np.savez_compressed(
            path,
            metrics=np.array(self.names),
            name=np.frombuffer(self._name, dtype=np.int32),
            parent=np.frombuffer(self._parent, dtype=np.int32),
            request=np.frombuffer(self._request, dtype=np.int32),
            start=np.frombuffer(self._start, dtype=np.float64),
            end=np.frombuffer(self._end, dtype=np.float64),
            counts=np.array(json.dumps({str(k): v for k, v in self._counts.items()})),
        )
