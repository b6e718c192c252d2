"""Command-line surface: batch computations in, CSV/SVG files out.

Subcommands
-----------
region        frontier of the selected mode (no-common, common,
              both-confidential) under --covariance or --power
wtc           wiretap secrecy capacity (fixed covariance or power)
dpc-check     random-instance verification of the precoder identity
decomp-check  round trips of the sub-covariance parameterization
envelope      maximized envelope value (level picked by given weights)
compare       no-common region vs both-confidential comparison region

Matrices on the command line use commas between row entries and
semicolons between rows ("0.3,2.5;2.2,1.8"); larger configurations can
be given as a JSON file via --config with the same field names in
lower_snake_case.  Explicit flags override config-file values.

Exit codes: 0 success, 2 invalid configuration, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from dataclasses import dataclass, fields

import numpy as np

from . import regions
from .channel import make_channel
from .dpc import dpc_identity_check, random_instance
from .envelopes import EnvelopeWeights, v_eta, v_hat, v_tilde
from .errors import SecbcError
from .matops import SubCovParams, compose_sub_cov, decompose_sub_cov, validate_psd
from .regions import Frontier
from .sweeps import GridSpec, worker_count

__all__ = ["RunConfig", "main", "run", "emit_csv", "emit_svg", "parse_matrix"]

DPC_GAP_TOL = 1e-9
DECOMP_TOL = 1e-7


def parse_matrix(text: str) -> np.ndarray:
    """Parse "a,b;c,d" into a matrix (commas: columns, semicolons: rows)."""
    try:
        rows = [
            [float(x) for x in row.split(",")]
            for row in text.strip().split(";")
            if row.strip()
        ]
        mat = np.array(rows, dtype=float)
    except ValueError as exc:
        raise ValueError(f"cannot parse matrix {text!r}: {exc}") from None
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError(f"matrix {text!r} is not square")
    return mat


@dataclass
class RunConfig:
    """Everything one invocation needs; mirrors the JSON config schema."""

    mode: str = ""
    g1: np.ndarray | None = None
    g2: np.ndarray | None = None
    power: float | None = None
    covariance: np.ndarray | None = None
    grid_theta: int | None = None
    grid_d: int | None = None
    grid_trace: int | None = None
    eta: float | None = None
    lambda0: float | None = None
    lambda1: float | None = None
    lambda2: float | None = None
    alpha: float | None = None
    seed: int = 0
    trials: int = 100
    dim: int = 2
    out: str | None = None
    svg: str | None = None

    def grid(self) -> GridSpec:
        kw = {}
        if self.grid_theta is not None:
            kw["theta_steps"] = self.grid_theta
        if self.grid_d is not None:
            kw["diag_steps"] = self.grid_d
        if self.grid_trace is not None:
            kw["trace_steps"] = self.grid_trace
        return GridSpec(**kw)

    def channel(self):
        if self.g1 is None or self.g2 is None:
            raise ValueError("this command needs --g1 and --g2")
        return make_channel(self.g1, self.g2)

    def constraint(self):
        if (self.power is None) == (self.covariance is None):
            raise ValueError("give exactly one of --power / --covariance")
        if self.power is not None:
            if not math.isfinite(self.power) or self.power < 0:
                raise ValueError("power must be finite and nonnegative")
            return float(self.power), None
        return None, validate_psd(self.covariance, name="covariance")


_MATRIX_FIELDS = {"g1", "g2", "covariance"}


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    values: dict = {}
    if getattr(args, "config", None):
        with open(args.config, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
        known = {f.name for f in fields(RunConfig)}
        for key, val in raw.items():
            if key not in known:
                raise ValueError(f"unknown config field {key!r}")
            values[key] = np.asarray(val, dtype=float) if key in _MATRIX_FIELDS else val
    for f in fields(RunConfig):
        arg = getattr(args, f.name.replace("-", "_"), None)
        if arg is not None:
            values[f.name] = parse_matrix(arg) if f.name in _MATRIX_FIELDS else arg
    if getattr(args, "mode", None):
        values["mode"] = args.mode
    cfg = RunConfig(**values)
    if cfg.covariance is not None:
        cfg.covariance = np.asarray(cfg.covariance, dtype=float)
    return cfg


def _gen_columns(gen: dict) -> list[tuple[str, np.ndarray]]:
    label = {"k": "k", "kstar": "ks", "k1": "k1", "k2": "k2"}
    return [(label[name], np.asarray(gen[name])) for name in gen]


def emit_csv(frontier: Frontier, path: str) -> None:
    """Write the frontier as UTF-8 CSV: rates first, then the generators.

    Rates carry 6 decimal places; generator matrices are written row-major
    at ``repr`` precision, which reads back bit for bit, so every line can
    be re-verified exactly.  Output bytes depend only on the frontier
    contents.
    """
    if not frontier.points:
        raise ValueError("refusing to write an empty frontier")
    first = frontier.points[0]
    triple = frontier.is_triple
    header = ["R1", "R2"] + (["R0"] if triple else [])
    for name, mat in _gen_columns(first.gen):
        t = mat.shape[0]
        header += [f"{name}_{i}{j}" for i in range(t) for j in range(t)]
    lines = [",".join(header)]
    for p in frontier.points:
        row = [f"{p.r1:.6f}", f"{p.r2:.6f}"]
        if triple:
            row.append(f"{p.r0:.6f}")
        for _, mat in _gen_columns(p.gen):
            row += [repr(float(v)) for v in np.asarray(mat).ravel()]
        lines.append(",".join(row))
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("\n".join(lines) + "\n")
    except OSError as exc:
        raise OSError(f"cannot write CSV to {path}: {exc}") from exc


def _svg_path(points, sx, sy, height, margin) -> str:
    coords = [
        f"{margin + p.r1 * sx:.2f},{height - margin - p.r2 * sy:.2f}" for p in points
    ]
    return " ".join(coords)


def emit_svg(frontier: Frontier, path: str, comparison: Frontier | None = None) -> None:
    """Standalone SVG plot of a 2-D frontier (solid) plus optional
    comparison region (dashed).  Axis ranges are 1.05x the max rates."""
    if frontier.is_triple:
        raise ValueError("SVG output supports 2-D frontiers only; use CSV")
    width, height, margin = 640, 480, 60
    curves = [(frontier, "#1f77b4", "none")]
    if comparison is not None:
        if comparison.is_triple:
            raise ValueError("comparison frontier must be 2-D")
        curves.append((comparison, "#d62728", "8,6"))
    xmax = 1.05 * max(max((p.r1 for f, _, _ in curves for p in f.points)), 1e-9)
    ymax = 1.05 * max(max((p.r2 for f, _, _ in curves for p in f.points)), 1e-9)
    sx = (width - 2 * margin) / xmax
    sy = (height - 2 * margin) / ymax
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{margin}" y1="{height - margin}" x2="{width - margin}" '
        f'y2="{height - margin}" stroke="black"/>',
        f'<line x1="{margin}" y1="{height - margin}" x2="{margin}" y2="{margin}" '
        f'stroke="black"/>',
    ]
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        x = margin + frac * (width - 2 * margin)
        y = height - margin - frac * (height - 2 * margin)
        parts.append(
            f'<text x="{x:.1f}" y="{height - margin + 18}" font-size="11" '
            f'text-anchor="middle">{frac * xmax:.2f}</text>'
        )
        parts.append(
            f'<text x="{margin - 8}" y="{y:.1f}" font-size="11" '
            f'text-anchor="end" dominant-baseline="middle">{frac * ymax:.2f}</text>'
        )
    parts.append(
        f'<text x="{width / 2}" y="{height - 15}" font-size="14" '
        f'text-anchor="middle">R1 [bits/use]</text>'
    )
    parts.append(
        f'<text x="18" y="{height / 2}" font-size="14" text-anchor="middle" '
        f'transform="rotate(-90 18 {height / 2})">R2 [bits/use]</text>'
    )
    for f, color, dash in curves:
        dash_attr = f' stroke-dasharray="{dash}"' if dash != "none" else ""
        parts.append(
            f'<polyline points="{_svg_path(f.points, sx, sy, height, margin)}" '
            f'fill="none" stroke="{color}" stroke-width="2"{dash_attr}/>'
        )
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("\n".join(parts) + "\n</svg>\n")
    except OSError as exc:
        raise OSError(f"cannot write SVG to {path}: {exc}") from exc


def _summarize(name: str, frontier: Frontier, elapsed: float) -> None:
    print(f"{name}: {len(frontier.points)} frontier points in {elapsed:.2f} s")
    print(f"  max R1 = {frontier.max_r1():.6f} bits/use")
    print(f"  max R2 = {frontier.max_r2():.6f} bits/use")
    if frontier.is_triple:
        r0 = max(p.r0 for p in frontier.points)
        print(f"  max R0 = {r0:.6f} bits/use")


def _cmd_region(cfg: RunConfig) -> int:
    ch = cfg.channel()
    power, cov = cfg.constraint()
    grid = cfg.grid()
    mode = cfg.mode or "no-common"
    start = time.perf_counter()
    if mode == "no-common":
        fr = (
            regions.frontier_power(ch, power, grid)
            if power is not None
            else regions.frontier_fixed_cov(ch, cov, grid)
        )
    elif mode == "common":
        fr = (
            regions.region_common_power(ch, power, grid)
            if power is not None
            else regions.region_common_fixed(ch, cov, grid)
        )
    elif mode == "both-confidential":
        if power is None:
            raise ValueError("mode both-confidential needs --power")
        fr = regions.both_confidential_frontier(ch, power, grid)
    else:
        raise ValueError(f"unknown region mode {mode!r}")
    _summarize(f"region --mode {mode}", fr, time.perf_counter() - start)
    if cfg.out:
        emit_csv(fr, cfg.out)
        print(f"  wrote {cfg.out}")
    if cfg.svg:
        emit_svg(fr, cfg.svg)
        print(f"  wrote {cfg.svg}")
    return 0


def _cmd_wtc(cfg: RunConfig) -> int:
    ch = cfg.channel()
    power, cov = cfg.constraint()
    start = time.perf_counter()
    if power is not None:
        value, kmat, kstar = regions.wtc_capacity_power(ch, power, cfg.grid())
    else:
        kmat = cov
        value, kstar = regions.wtc_capacity(ch, cov)
    elapsed = time.perf_counter() - start
    print(f"wtc secrecy capacity = {value:.6f} bits/use ({elapsed:.2f} s)")
    print(f"  argmax K* = {np.array2string(kstar, precision=6)}")
    if cfg.out:
        fr = Frontier(
            [regions.RatePoint(value, 0.0, {"k": kmat, "kstar": kstar})],
            {"kind": "wtc"},
        )
        emit_csv(fr, cfg.out)
        print(f"  wrote {cfg.out}")
    return 0


def _cmd_dpc_check(cfg: RunConfig) -> int:
    rng = np.random.default_rng(cfg.seed)
    worst = 0.0
    start = time.perf_counter()
    for _ in range(cfg.trials):
        inst = random_instance(cfg.dim, rng)
        lhs, _, gap = dpc_identity_check(inst)
        worst = max(worst, gap / (1.0 + abs(lhs)))
    elapsed = time.perf_counter() - start
    print(
        f"dpc-check: {cfg.trials} instances (dim {cfg.dim}, seed {cfg.seed}), "
        f"max relative gap = {worst:.3e} ({elapsed:.2f} s)"
    )
    if worst > DPC_GAP_TOL:
        print(f"FAILED: gap exceeds {DPC_GAP_TOL}", file=sys.stderr)
        return 3
    return 0


def _cmd_decomp_check(cfg: RunConfig) -> int:
    rng = np.random.default_rng(cfg.seed)
    worst = 0.0
    start = time.perf_counter()
    t = cfg.dim
    for _ in range(cfg.trials):
        a = rng.normal(size=(t, t))
        k = a @ a.T + 0.1 * np.eye(t)
        angles = rng.uniform(0.0, 2.0 * np.pi, t * (t - 1) // 2)
        diag = rng.uniform(0.0, 1.0, t)
        kstar = compose_sub_cov(k, SubCovParams(angles, diag))
        back = compose_sub_cov(k, decompose_sub_cov(k, kstar))
        worst = max(worst, float(np.linalg.norm(back - kstar)))
    elapsed = time.perf_counter() - start
    print(
        f"decomp-check: {cfg.trials} round trips (dim {t}, seed {cfg.seed}), "
        f"max Frobenius residual = {worst:.3e} ({elapsed:.2f} s)"
    )
    if worst > DECOMP_TOL:
        print(f"FAILED: residual exceeds {DECOMP_TOL}", file=sys.stderr)
        return 3
    return 0


def _cmd_envelope(cfg: RunConfig) -> int:
    ch = cfg.channel()
    power, cov = cfg.constraint()
    if cov is None:
        raise ValueError("envelope needs --covariance (a constraint matrix)")
    grid = cfg.grid()
    kw = {}
    for name in ("lambda0", "lambda1", "lambda2", "eta", "alpha"):
        if getattr(cfg, name) is not None:
            kw[name] = getattr(cfg, name)
    w = EnvelopeWeights(**kw)
    start = time.perf_counter()
    if cfg.lambda0 is not None:
        level, res = "v_tilde", v_tilde(ch, cov, w, grid)
    elif cfg.lambda1 is not None or cfg.lambda2 is not None:
        level, res = "v_hat", v_hat(ch, cov, w, grid)
    else:
        level, res = "v_eta", v_eta(ch, cov, w.eta, grid)
    elapsed = time.perf_counter() - start
    print(f"{level} = {res.value:.6f} bits ({elapsed:.2f} s)")
    for i, split in enumerate(res.argmax_splits, start=1):
        print(f"  split {i}: {np.array2string(split, precision=6)}")
    return 0


def _cmd_compare(cfg: RunConfig) -> int:
    ch = cfg.channel()
    power, _ = cfg.constraint()
    if power is None:
        raise ValueError("compare needs --power")
    grid = cfg.grid()
    start = time.perf_counter()
    fr = regions.frontier_power(ch, power, grid)
    _summarize("one confidential message", fr, time.perf_counter() - start)
    start = time.perf_counter()
    cmp_fr = regions.both_confidential_frontier(ch, power, grid)
    _summarize("both confidential", cmp_fr, time.perf_counter() - start)
    print(f"  max R1 difference = {abs(fr.max_r1() - cmp_fr.max_r1()):.2e}")
    if cfg.out:
        emit_csv(fr, cfg.out)
        print(f"  wrote {cfg.out}")
        stem = cfg.out[:-4] if cfg.out.endswith(".csv") else cfg.out
        cmp_path = f"{stem}_both_confidential.csv"
        emit_csv(cmp_fr, cmp_path)
        print(f"  wrote {cmp_path}")
    if cfg.svg:
        emit_svg(fr, cfg.svg, comparison=cmp_fr)
        print(f"  wrote {cfg.svg}")
    return 0


_COMMANDS = {
    "region": _cmd_region,
    "wtc": _cmd_wtc,
    "dpc-check": _cmd_dpc_check,
    "decomp-check": _cmd_decomp_check,
    "envelope": _cmd_envelope,
    "compare": _cmd_compare,
}
# run() dispatches on the mode field; region modes share one handler.
_MODES = {
    "no-common": _cmd_region,
    "common": _cmd_region,
    "both-confidential": _cmd_region,
    "wtc": _cmd_wtc,
    "dpc-check": _cmd_dpc_check,
    "decomp-check": _cmd_decomp_check,
    "envelope": _cmd_envelope,
    "compare": _cmd_compare,
}


def run(cfg: RunConfig) -> int:
    """Execute one validated configuration; returns the exit status."""
    handler = _MODES.get(cfg.mode)
    if handler is None:
        print(f"invalid configuration: unknown mode {cfg.mode!r}", file=sys.stderr)
        return 2
    try:
        return handler(cfg)
    except (SecbcError, np.linalg.LinAlgError, FloatingPointError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


def _add_common(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--g1", help="gain matrix of receiver 1, e.g. '0.3,2.5;2.2,1.8'")
    sp.add_argument("--g2", help="gain matrix of receiver 2")
    sp.add_argument("--power", type=float, help="total power constraint")
    sp.add_argument("--covariance", help="covariance constraint matrix")
    sp.add_argument("--grid-theta", type=int, dest="grid_theta", help="angle steps")
    sp.add_argument("--grid-d", type=int, dest="grid_d", help="diagonal steps")
    sp.add_argument("--grid-trace", type=int, dest="grid_trace", help="trace steps")
    sp.add_argument("--eta", type=float)
    sp.add_argument("--lambda0", type=float)
    sp.add_argument("--lambda1", type=float)
    sp.add_argument("--lambda2", type=float)
    sp.add_argument("--alpha", type=float)
    sp.add_argument("--seed", type=int)
    sp.add_argument("--trials", type=int)
    sp.add_argument("--dim", type=int)
    sp.add_argument("--out", help="CSV output path")
    sp.add_argument("--svg", help="SVG output path")
    sp.add_argument("--config", help="JSON config file (flags override)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="secbc",
        description="Secrecy-capacity regions of two-user MIMO Gaussian BCs",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        sp = sub.add_parser(name)
        if name == "region":
            sp.add_argument(
                "--mode",
                choices=["no-common", "common", "both-confidential"],
                default="no-common",
            )
        _add_common(sp)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _config_from_args(args)
        if args.command != "region":
            cfg.mode = args.command
        elif not cfg.mode:
            cfg.mode = "no-common"
        # Constraint, channel and SECBC_THREADS validation happens before
        # any compute so configuration mistakes exit with status 2.
        if args.command in ("region", "wtc", "envelope", "compare"):
            cfg.channel()
            cfg.constraint()
        worker_count()
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"invalid configuration: {exc}", file=sys.stderr)
        return 2
    return run(cfg)


if __name__ == "__main__":
    sys.exit(main())
