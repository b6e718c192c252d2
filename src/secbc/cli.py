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
lower_snake_case.  Explicit flags override config-file values, --mode
included.

Exit codes: 0 success, 2 invalid configuration, 3 numerical failure.
Every configuration check runs before any computation; a flag or config
field that the command does not read (see ``_MODES``) exits 2.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time
from dataclasses import dataclass, fields
from typing import Callable, NamedTuple

import numpy as np

from . import regions
from .channel import GaussianBc, check_cov, check_power, make_channel
from .dpc import dpc_identity_check, random_instances
from .envelopes import EnvelopeWeights, v_eta, v_hat, v_tilde
from .errors import SecbcError
from .matops import ROUNDTRIP_TOL, SubCovParams, compose_sub_cov, decompose_sub_cov
from .regions import Frontier
from .sweeps import GridSpec

__all__ = ["Inputs", "RunConfig", "main", "run", "emit_csv", "emit_svg", "parse_matrix"]

DPC_GAP_TOL = 1e-9
# dpc-check and decomp-check draw their trials one by one, in seed order,
# and score them in stacked batches of this size, so memory stays flat
# in --trials.
CHECK_CHUNK = 128
# Most rows the largest table of a sweep may hold (see regions._grid_rows;
# wtc builds none).  The largest grid of the tests, the output comparison
# script and the benchmark is the t = 3 K* grid at theta_steps = 8,
# trace_steps = 9 (373 248 rows); a t = 3 manifold scan of this many rows
# takes about 0.4 GB.  At t = 3 the default grids of the power regions
# hold 562 million rows and more, the chained ones about 3 million outer
# rows and more; the single-level ones, 262 144 angle tuples, pass.
MAX_GRID_ROWS = 1 << 19


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

    mode: str = "no-common"
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
        """GridSpec with --grid-theta/-d/-trace set on every sweep depth.

        Each command sweeps one depth (single-level, ``chain_*`` or
        ``deep_*``), so it reads each flag exactly once.
        """
        flags = (self.grid_theta, self.grid_d, self.grid_trace)
        return GridSpec(
            **{n: v for names, v in zip(_GRID_FIELDS, flags) if v is not None for n in names}
        )

    def channel(self):
        if self.g1 is None or self.g2 is None:
            raise ValueError("this command needs --g1 and --g2")
        return make_channel(self.g1, self.g2)

    def constraint(self, ch: GaussianBc, reads: frozenset):
        """(power, None) or (None, covariance), checked against ``ch``;
        a missing constraint names the flags in ``reads``."""
        if (self.power is None) == (self.covariance is None):
            flags = [f"--{name}" for name in ("power", "covariance") if name in reads]
            if len(flags) > 1:
                raise ValueError(f"give exactly one of {' / '.join(flags)}")
            raise ValueError(f"{self.mode} needs {flags[0]}")
        if self.power is not None:
            return check_power(self.power), None
        return None, check_cov(ch, self.covariance, "covariance")

    def envelope(self) -> tuple[str, EnvelopeWeights]:
        """(level, weights) of the ``envelope`` command.

        lambda0 picks v_tilde, lambda1 or lambda2 picks v_hat, and eta
        alone v_eta; the weights must suit the level
        (:meth:`EnvelopeWeights.check_level`).
        """
        names = ("lambda0", "lambda1", "lambda2", "eta", "alpha")
        w = EnvelopeWeights(
            **{n: getattr(self, n) for n in names if getattr(self, n) is not None}
        )
        if self.lambda0 is not None:
            level = "v_tilde"
        elif self.lambda1 is not None or self.lambda2 is not None:
            level = "v_hat"
        else:
            level = "v_eta"
        w.check_level(level)
        return level, w


class Inputs(NamedTuple):
    """The parsed inputs of a compute command, built once by :func:`_validate`:
    the channel, the constraint (one of ``power`` and ``cov`` is None),
    the grid and, for ``envelope``, its (level, weights)."""

    ch: GaussianBc
    power: float | None
    cov: np.ndarray | None
    grid: GridSpec
    envelope: tuple[str, EnvelopeWeights] | None


_MATRIX_FIELDS = {"g1", "g2", "covariance"}
# GridSpec fields set by --grid-theta, --grid-d and --grid-trace: the
# steps of every depth (the chained grid has no trace steps).
_GRID_FIELDS = (
    ("theta_steps", "chain_theta_steps", "deep_theta_steps"),
    ("diag_steps", "chain_diag_steps", "deep_diag_steps"),
    ("trace_steps", "deep_trace_steps"),
)


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    values: dict = {}
    if getattr(args, "config", None):
        with open(args.config, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
        if not isinstance(raw, dict):
            raise ValueError(f"config file {args.config} holds no JSON object")
        known = {f.name for f in fields(RunConfig)}
        for key, val in raw.items():
            if key not in known:
                raise ValueError(f"unknown config field {key!r}")
            if val is not None:  # JSON null leaves the field unset
                values[key] = np.asarray(val, dtype=float) if key in _MATRIX_FIELDS else val
    for f in fields(RunConfig):
        arg = getattr(args, f.name.replace("-", "_"), None)
        if arg is not None:
            values[f.name] = parse_matrix(arg) if f.name in _MATRIX_FIELDS else arg
    return RunConfig(**values)


# CSV column stems of the generator matrices, and the rows emit_csv
# formats at once (its memory stays flat in the frontier size).
_GEN_LABELS = {"k": "k", "kstar": "ks", "k1": "k1", "k2": "k2"}
CSV_CHUNK = 1024


def emit_csv(frontier: Frontier, path: str) -> None:
    """Write the frontier as UTF-8 CSV: rates first, then the generators.

    Rates carry 6 decimal places; generator matrices are written row-major
    at ``repr`` precision, which reads back bit for bit, so every line can
    be re-verified exactly.  Output bytes depend only on the frontier
    contents.
    """
    rates, gens = frontier.rates, frontier.gens
    if not len(rates):
        raise ValueError("refusing to write an empty frontier")
    header = ["R1", "R2"] + (["R0"] if frontier.is_triple else [])
    for name, mats in gens.items():
        t = mats.shape[1]
        header += [f"{_GEN_LABELS[name]}_{i}{j}" for i in range(t) for j in range(t)]
    fmt = ",".join(["%.6f"] * rates.shape[1])
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(",".join(header) + "\n")
            # CSV_CHUNK rows at a time.  Generators are symmetric and often
            # repeat across rows, so each distinct bit pattern among a
            # chunk's generator entries (-0.0 apart from 0.0) is formatted
            # once, as the repr of the Python float tolist() yields for it.
            for lo in range(0, len(rates), CSV_CHUNK):
                hi = lo + CSV_CHUNK
                lines = [fmt % tuple(row) for row in rates[lo:hi].tolist()]
                if gens:
                    cols = [np.asarray(g[lo:hi], dtype=float) for g in gens.values()]
                    mats = np.concatenate([c.reshape(len(lines), -1) for c in cols], axis=1)
                    bits, inv = np.unique(mats.view(np.int64).ravel(), return_inverse=True)
                    text = np.array(list(map(repr, bits.view(float).tolist())), dtype=object)
                    cells = text[inv.reshape(mats.shape)].tolist()
                    lines = [f"{a},{','.join(b)}" for a, b in zip(lines, cells)]
                fh.writelines(line + "\n" for line in lines)
    except OSError as exc:
        raise OSError(f"cannot write CSV to {path}: {exc}") from exc


def _svg_path(rates, sx, sy, height, margin) -> str:
    xs = (margin + rates[:, 0] * sx).tolist()
    ys = (height - margin - rates[:, 1] * sy).tolist()
    return " ".join(map("%.2f,%.2f".__mod__, zip(xs, ys)))


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
    rates = np.concatenate([f.rates for f, _, _ in curves])
    xmax = 1.05 * max(float(rates[:, 0].max()), 1e-9)
    ymax = 1.05 * max(float(rates[:, 1].max()), 1e-9)
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
            f'<polyline points="{_svg_path(f.rates, sx, sy, height, margin)}" '
            f'fill="none" stroke="{color}" stroke-width="2"{dash_attr}/>'
        )
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("\n".join(parts) + "\n</svg>\n")
    except OSError as exc:
        raise OSError(f"cannot write SVG to {path}: {exc}") from exc


def _drop_stdout() -> None:
    """Point stdout at the null device once its reader has gone away."""
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, sys.stdout.fileno())
    os.close(devnull)


def _echo(line: str) -> None:
    """Print one line to stdout.  A closed pipe drops the rest of the
    output, but the command still writes its files and keeps its status."""
    try:
        print(line)
    except BrokenPipeError:
        _drop_stdout()


def _summarize(name: str, frontier: Frontier, elapsed: float) -> None:
    _echo(f"{name}: {len(frontier.rates)} frontier points in {elapsed:.2f} s")
    _echo(f"  max R1 = {frontier.max_r1():.6f} bits/use")
    _echo(f"  max R2 = {frontier.max_r2():.6f} bits/use")
    if frontier.is_triple:
        _echo(f"  max R0 = {float(frontier.rates[:, 2].max()):.6f} bits/use")


def _cmd_region(cfg: RunConfig, inp: Inputs) -> int:
    ch, power, cov, grid, _ = inp
    mode = _MODES[cfg.mode]
    start = time.perf_counter()
    if power is not None:
        fr = getattr(regions, mode.power)(ch, power, grid)
    else:
        fr = getattr(regions, mode.covariance)(ch, cov, grid)
    _summarize(f"region --mode {cfg.mode}", fr, time.perf_counter() - start)
    if cfg.out:
        emit_csv(fr, cfg.out)
        _echo(f"  wrote {cfg.out}")
    if cfg.svg:
        emit_svg(fr, cfg.svg)
        _echo(f"  wrote {cfg.svg}")
    return 0


def _cmd_wtc(cfg: RunConfig, inp: Inputs) -> int:
    ch, power, cov, grid, _ = inp
    start = time.perf_counter()
    if power is not None:
        value, kmat, kstar = regions.wtc_capacity_power(ch, power, grid)
    else:
        kmat = cov
        value, kstar = regions.wtc_capacity(ch, cov)
    elapsed = time.perf_counter() - start
    _echo(f"wtc secrecy capacity = {value:.6f} bits/use ({elapsed:.2f} s)")
    _echo(f"  argmax K* = {np.array2string(kstar, precision=6)}")
    if cfg.out:
        gens = {"k": kmat[None], "kstar": kstar[None]}
        fr = Frontier(np.array([[max(0.0, value), 0.0]]), gens, {"kind": "wtc"})
        emit_csv(fr, cfg.out)
        _echo(f"  wrote {cfg.out}")
    return 0


def _chunk_sizes(total: int):
    """Sizes of the CHECK_CHUNK-trial batches that make up ``total`` trials."""
    return [min(CHECK_CHUNK, total - start) for start in range(0, total, CHECK_CHUNK)]


def _cmd_dpc_check(cfg: RunConfig, inp: None) -> int:
    rng = np.random.default_rng(cfg.seed)
    worst = 0.0
    start = time.perf_counter()
    for n in _chunk_sizes(cfg.trials):
        lhs, _, gap = dpc_identity_check(random_instances(cfg.dim, rng, n))
        worst = max(worst, float(np.max(gap / (1.0 + np.abs(lhs)))))
    elapsed = time.perf_counter() - start
    _echo(
        f"dpc-check: {cfg.trials} instances (dim {cfg.dim}, seed {cfg.seed}), "
        f"max relative gap = {worst:.3e} ({elapsed:.2f} s)"
    )
    if worst > DPC_GAP_TOL:
        print(f"FAILED: gap exceeds {DPC_GAP_TOL}", file=sys.stderr)
        return 3
    return 0


def _cmd_decomp_check(cfg: RunConfig, inp: None) -> int:
    rng = np.random.default_rng(cfg.seed)
    worst = 0.0
    start = time.perf_counter()
    t = cfg.dim
    for n in _chunk_sizes(cfg.trials):
        ks, angles, diags = [], [], []
        for _ in range(n):
            a = rng.normal(size=(t, t))
            ks.append(a @ a.T + 0.1 * np.eye(t))
            angles.append(rng.uniform(0.0, 2.0 * np.pi, t * (t - 1) // 2))
            diags.append(rng.uniform(0.0, 1.0, t))
        k = np.stack(ks)
        kstar = compose_sub_cov(k, SubCovParams(np.stack(angles), np.stack(diags)))
        back = compose_sub_cov(k, decompose_sub_cov(k, kstar))
        worst = max(worst, float(np.linalg.norm(back - kstar, axis=(-2, -1)).max()))
    elapsed = time.perf_counter() - start
    _echo(
        f"decomp-check: {cfg.trials} round trips (dim {t}, seed {cfg.seed}), "
        f"max Frobenius residual = {worst:.3e} ({elapsed:.2f} s)"
    )
    if worst > ROUNDTRIP_TOL:
        print(f"FAILED: residual exceeds {ROUNDTRIP_TOL}", file=sys.stderr)
        return 3
    return 0


def _cmd_envelope(cfg: RunConfig, inp: Inputs) -> int:
    ch, _, cov, grid, (level, w) = inp
    start = time.perf_counter()
    if level == "v_eta":
        res = v_eta(ch, cov, w.eta, grid)
    else:
        res = (v_hat if level == "v_hat" else v_tilde)(ch, cov, w, grid)
    elapsed = time.perf_counter() - start
    _echo(f"{level} = {res.value:.6f} bits ({elapsed:.2f} s)")
    for i, split in enumerate(res.argmax_splits, start=1):
        _echo(f"  split {i}: {np.array2string(split, precision=6)}")
    return 0


def _cmd_compare(cfg: RunConfig, inp: Inputs) -> int:
    ch, power, _, grid, _ = inp
    start = time.perf_counter()
    fr = regions.frontier_power(ch, power, grid)
    _summarize("one confidential message", fr, time.perf_counter() - start)
    start = time.perf_counter()
    cmp_fr = regions.both_confidential_frontier(ch, power, grid)
    _summarize("both confidential", cmp_fr, time.perf_counter() - start)
    _echo(f"  max R1 difference = {abs(fr.max_r1() - cmp_fr.max_r1()):.2e}")
    if cfg.out:
        emit_csv(fr, cfg.out)
        _echo(f"  wrote {cfg.out}")
        stem = cfg.out[:-4] if cfg.out.endswith(".csv") else cfg.out
        cmp_path = f"{stem}_both_confidential.csv"
        emit_csv(cmp_fr, cmp_path)
        _echo(f"  wrote {cmp_path}")
    if cfg.svg:
        emit_svg(fr, cfg.svg, comparison=cmp_fr)
        _echo(f"  wrote {cfg.svg}")
    return 0


class _Mode(NamedTuple):
    """What one mode runs: its handler, the :class:`RunConfig` fields it
    reads (:func:`_validate` rejects any other field that is set, the
    constraint it does not accept included) and the names of its
    :mod:`secbc.regions` builders under --power and --covariance, looked
    up at call time.  The grid of the builder that runs (for
    ``envelope``, of its level) is checked against MAX_GRID_ROWS."""

    handler: Callable[[RunConfig, Inputs | None], int]
    reads: frozenset
    power: str | None = None
    covariance: str | None = None


# The fields each mode reads.  A mode that takes a channel reads the gains
# and all three grid steps as one group.  SVG plots 2-D frontiers only.
_CHANNEL = frozenset({"g1", "g2", "grid_theta", "grid_d", "grid_trace"})
_EITHER = _CHANNEL | {"power", "covariance", "out"}  # either constraint
_POWER = _CHANNEL | {"power", "out", "svg"}  # --power only
_CHECK = frozenset({"seed", "trials", "dim"})

# Every mode.  The modes of _cmd_region are the --mode choices of the
# region command; every other mode is its own command.  compare also
# runs the both-confidential region, whose grid is no larger than that of
# frontier_power; wtc --power builds no grid.
_MODES = {
    "no-common": _Mode(_cmd_region, _EITHER | {"svg"}, "frontier_power", "frontier_fixed_cov"),
    "common": _Mode(_cmd_region, _EITHER, "region_common_power", "region_common_fixed"),
    "both-confidential": _Mode(_cmd_region, _POWER, "both_confidential_frontier"),
    "wtc": _Mode(_cmd_wtc, _EITHER),
    "dpc-check": _Mode(_cmd_dpc_check, _CHECK),
    "decomp-check": _Mode(_cmd_decomp_check, _CHECK),
    "envelope": _Mode(
        _cmd_envelope, _CHANNEL | {"covariance", "eta", "lambda0", "lambda1", "lambda2", "alpha"}
    ),
    "compare": _Mode(_cmd_compare, _POWER, "frontier_power"),
}


def _command(mode: str) -> str:
    """The subcommand that runs ``mode``."""
    return "region" if _MODES[mode].handler is _cmd_region else mode


def _writable(path: str) -> None:
    folder = os.path.dirname(os.path.abspath(path))
    if os.path.isdir(path) or not os.path.isdir(folder) or not os.access(folder, os.W_OK):
        raise ValueError(f"cannot write {path}: not a file in a writable directory")


def _validate(cfg: RunConfig) -> Inputs | None:
    """Raise ValueError for any mistake in ``cfg``; runs no computation.

    Returns the parsed :class:`Inputs` of a compute command, or None for
    the identity checks, which read ``cfg`` alone.
    """
    mode = _MODES.get(cfg.mode)
    if mode is None:
        raise ValueError(f"unknown mode {cfg.mode!r}")
    for f in fields(RunConfig):
        val = getattr(cfg, f.name)
        # JSON true/false are Python bools, which pass every check for a number.
        if isinstance(val, bool):
            raise ValueError(f"{f.name} must not be a boolean, got {val!r}")
        # A field is set when it differs from its default.
        if f.name == "mode" or (val is None if f.default is None else val == f.default):
            continue
        if f.name not in mode.reads:
            raise ValueError(f"{cfg.mode} takes no --{f.name.replace('_', '-')}")
        if f.name in ("out", "svg"):
            _writable(val)
    if cfg.mode in ("dpc-check", "decomp-check"):
        for name in ("trials", "dim", "seed"):
            val, least = getattr(cfg, name), 0 if name == "seed" else 1
            if not isinstance(val, int) or val < least:
                raise ValueError(f"{name} must be an integer >= {least}, got {val!r}")
        return None
    ch = cfg.channel()
    power, cov = cfg.constraint(ch, mode.reads)
    grid = cfg.grid()
    envelope = cfg.envelope() if cfg.mode == "envelope" else None
    builder = envelope[0] if envelope else mode.power if cov is None else mode.covariance
    # Zero power returns before any grid is built.
    if builder and power != 0:
        rows = regions._grid_rows(ch.t, grid)[builder]
        if rows > MAX_GRID_ROWS:
            raise ValueError(
                f"the {cfg.mode} grid at t = {ch.t} has {rows} rows, more than "
                f"{MAX_GRID_ROWS}; lower the --grid-* steps"
            )
    return Inputs(ch, power, cov, grid, envelope)


def run(cfg: RunConfig, inputs: Inputs | None) -> int:
    """Execute one configuration with the ``inputs`` that :func:`_validate`
    parsed from it (which also rejects an unknown mode); returns the exit
    status."""
    try:
        # Every rate is checked, so numpy's overflow warnings would only
        # repeat the numerical-failure line.
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            return _MODES[cfg.mode].handler(cfg, inputs)
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


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process and shared by every
    :func:`main` call (parsing leaves it unchanged; do not modify it)."""
    parser = argparse.ArgumentParser(
        prog="secbc",
        description="Secrecy-capacity regions of two-user MIMO Gaussian BCs",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in dict.fromkeys(map(_command, _MODES)):
        sp = sub.add_parser(name)
        if name == "region":
            # No default: a --config file's mode holds unless --mode is given.
            sp.add_argument("--mode", choices=[m for m in _MODES if _command(m) == name])
        _add_common(sp)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _config_from_args(args)
        if args.command != "region":
            cfg.mode = args.command
        elif cfg.mode in _MODES and _command(cfg.mode) != "region":
            raise ValueError(f"{cfg.mode} is a command, not a region mode")
        # Configuration is validated before any compute, so
        # configuration mistakes exit with status 2.
        inputs = _validate(cfg)
    except (ValueError, TypeError, OSError, json.JSONDecodeError) as exc:
        print(f"invalid configuration: {exc}", file=sys.stderr)
        return 2
    status = run(cfg, inputs)
    try:
        sys.stdout.flush()
    except BrokenPipeError:
        _drop_stdout()
    return status


if __name__ == "__main__":
    sys.exit(main())
