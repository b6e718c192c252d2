import csv
import json
import math
import os
import subprocess
import sys
import tracemalloc
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import secbc
from secbc import (
    EnvelopeWeights,
    GridSpec,
    cli,
    frontier_fixed_cov,
    make_channel,
    r1_hat,
    r2_hat,
    regions,
    v_eta,
    v_hat,
    v_tilde,
)
from secbc.cli import RunConfig, emit_csv, emit_svg, main, parse_matrix
from secbc.dpc import dpc_identity_check, random_instance
from secbc.regions import Frontier
from secbc.sweeps import diag_values, grid_tables

from conftest import EXAMPLE_G1, EXAMPLE_G2, large_singular_covariance

G1_ARG = "0.3,2.5;2.2,1.8"
G2_ARG = "1.3,1.2;1.5,3.9"
FAST = [
    "--grid-theta", "10",
    "--grid-d", "7",
    "--grid-trace", "7",
]
GAINS_T3 = ["--g1", "2,0,0;0,1,0;0,0,1", "--g2", "1,0,0;0,2,0;0,0,1"]


def _package_env():
    """The environment with this checkout's package first on PYTHONPATH."""
    src = str(Path(secbc.__file__).resolve().parent.parent)
    return dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))


def _matrix_arg(m):
    return ";".join(",".join(repr(float(x)) for x in row) for row in m)


class TestParseMatrix:
    def test_example_matrix(self):
        assert np.allclose(parse_matrix(G1_ARG), EXAMPLE_G1)

    def test_rejects_ragged(self):
        with pytest.raises(ValueError):
            parse_matrix("1,2;3")

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            parse_matrix("1,2")


class TestExitCodes:
    def test_conflicting_constraints(self, capsys):
        code = main(
            ["region", "--power", "12", "--covariance", "6,0;0,6",
             "--g1", G1_ARG, "--g2", G2_ARG]
        )
        assert code == 2
        assert "exactly one" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["region"], "give exactly one of --power / --covariance"),
            (["wtc"], "give exactly one of --power / --covariance"),
            (["compare"], "compare needs --power"),
            (["region", "--mode", "both-confidential"], "both-confidential needs --power"),
            (["envelope", "--eta", "1.2"], "envelope needs --covariance"),
        ],
    )
    def test_missing_constraint_names_the_flags_read(self, argv, message, capsys):
        assert main(argv + ["--g1", G1_ARG, "--g2", G2_ARG]) == 2
        assert message in capsys.readouterr().err

    def test_missing_channel(self):
        assert main(["region", "--power", "4"]) == 2

    @pytest.mark.parametrize("power", ["nan", "inf"])
    def test_nonfinite_power(self, power, capsys):
        code = main(["region", "--power", power, "--g1", G1_ARG, "--g2", G2_ARG])
        assert code == 2
        assert "finite" in capsys.readouterr().err

    def test_covariance_tolerance_is_relative(self, capsys):
        gains = ["--g1", "2,0,0;0,1,0;0,0,1", "--g2", "1,0,0;0,2,0;0,0,1"]
        # PSD up to rounding at trace 1.2e7: min eigenvalue -3e-9
        big = large_singular_covariance()
        assert main(["wtc", "--covariance", _matrix_arg(big), *gains]) == 0
        # min eigenvalue -1e-6 of the norm (8e6) is not rounding
        v = np.linalg.eigh(big)[1][:, 0]
        bad = big - 8.0 * np.outer(v, v)
        assert main(["wtc", "--covariance", _matrix_arg(bad), *gains]) == 2
        assert "positive semidefinite" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["region", "--power", "12", "--grid-theta", "0"],
            ["wtc", "--power", "12", "--grid-trace", "-3"],
            ["region", "--mode", "common", "--power", "2", "--grid-d", "0"],
            ["envelope", "--covariance", "3,0;0,2", "--eta", "3"],
            ["envelope", "--covariance", "3,0;0,2", "--lambda1", "-1"],
            ["envelope", "--covariance", "3,0;0,2", "--lambda1", "nan"],
            ["envelope", "--covariance", "3,0;0,2", "--eta", "0.5"],
            ["envelope", "--covariance", "3,0;0,2", "--lambda0", "0.5"],
            ["envelope", "--power", "3"],
            ["region", "--mode", "both-confidential", "--covariance", "6,0;0,6"],
            ["compare", "--covariance", "6,0;0,6"],
            ["region", "--covariance", "1,0,0;0,1,0;0,0,1"],
            ["region", "--mode", "common", "--power", "2", "--svg", "{dir}/c.svg"],
            ["wtc", "--covariance", "6,0;0,6", "--svg", "{dir}/w.svg"],
            ["envelope", "--covariance", "3,0;0,2", "--out", "{dir}/e.csv"],
            ["dpc-check", "--out", "{dir}/d.csv"],
            ["wtc", "--covariance", "6,0;0,6", "--out", "{dir}/missing/x.csv"],
            ["wtc", "--covariance", "6,0;0,6", "--out", "{dir}"],
            ["dpc-check", "--dim", "0"],
            ["decomp-check", "--dim", "0"],
            ["dpc-check", "--trials", "-1"],
            ["dpc-check", "--trials", "0"],
            ["decomp-check", "--seed", "-1"],
            # wtc --power builds no grid at t = 3, but still checks its flags
            ["wtc", "--power", "4", *GAINS_T3, "--grid-trace", "0"],
            # t = 3 default power grids: 562 million rows and more
            ["compare", "--power", "4", *GAINS_T3],
            ["region", "--power", "4", *GAINS_T3],
            ["region", "--mode", "common", "--power", "4", *GAINS_T3],
            ["region", "--mode", "both-confidential", "--power", "4", *GAINS_T3],
            # flags the command does not read
            ["dpc-check", "--trials", "3", "--g1", "1", "--power", "5", "--eta", "1.5",
             "--grid-theta", "4"],
            ["region", "--covariance", "6,0;0,6", "--eta", "1.9", "--trials", "7",
             "--seed", "3", "--lambda0", "2"],
            ["wtc", "--covariance", "6,0;0,6", "--alpha", "0.3", "--dim", "9"],
            ["compare", "--power", "4", "--lambda2", "3"],
        ],
    )
    def test_bad_configuration_exits_2(self, argv, tmp_path, capsys):
        argv = [a.replace("{dir}", str(tmp_path)) for a in argv]
        if argv[0] not in ("dpc-check", "decomp-check") and "--g1" not in argv:
            argv += ["--g1", G1_ARG, "--g2", G2_ARG]
        assert main(argv) == 2
        assert "invalid configuration" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "command, field",
        [
            pytest.param("region", {"power": "12"}, id="field0"),
            pytest.param("region", {"power": 4, "grid_theta": "8"}, id="field1"),
            pytest.param("region", {"power": 4, "grid_theta": 10.5}, id="field2"),
            # JSON true is a Python bool, which is an int and compares as 1
            ("region", {"power": True}),
            ("region", {"power": 4, "seed": True}),
            ("dpc-check", {"trials": True}),
            ("dpc-check", {"seed": True}),
            ("dpc-check", {"dim": True}),
            ("decomp-check", {"trials": False}),
            ("envelope", {"covariance": [[3, 0], [0, 2]], "eta": True}),
            ("envelope", {"covariance": [[3, 0], [0, 2]], "lambda0": True}),
            ("envelope", {"covariance": [[3, 0], [0, 2]], "lambda1": True}),
            ("envelope", {"covariance": [[3, 0], [0, 2]], "lambda2": True}),
            ("envelope", {"covariance": [[3, 0], [0, 2]], "lambda1": 1, "alpha": True}),
        ],
    )
    def test_config_type_error_exits_2(self, command, field, tmp_path, capsys):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"g1": EXAMPLE_G1, "g2": EXAMPLE_G2, **field}))
        assert main([command, "--config", str(path)]) == 2
        assert "invalid configuration" in capsys.readouterr().err

    # A value other than its RunConfig default for every field.
    SET_VALUES = {
        "g1": EXAMPLE_G1, "g2": EXAMPLE_G2, "power": 4.0, "covariance": [[6, 0], [0, 6]],
        "grid_theta": 5, "grid_d": 5, "grid_trace": 5, "eta": 1.5, "lambda0": 2.0,
        "lambda1": 1.0, "lambda2": 0.5, "alpha": 0.3, "seed": 3, "trials": 7, "dim": 3,
        "out": "{dir}/x.csv", "svg": "{dir}/x.svg",
    }

    def test_reads_are_config_fields(self):
        names = {f.name for f in fields(RunConfig)}
        assert set(self.SET_VALUES) == names - {"mode"}
        for mode in cli._MODES.values():
            assert mode.reads <= names - {"mode"}

    @pytest.mark.parametrize(
        "mode, field",
        [
            (name, f.name)
            for name, mode in cli._MODES.items()
            for f in fields(RunConfig)
            if f.name != "mode" and f.name not in mode.reads
        ],
    )
    def test_unread_field_exits_2(self, mode, field, tmp_path, monkeypatch, capsys):
        command = cli._command(mode)
        cfg = {"mode": mode} if command == "region" else {}
        if "g1" in cli._MODES[mode].reads:
            constraint = "covariance" if mode == "envelope" else "power"
            cfg.update(g1=EXAMPLE_G1, g2=EXAMPLE_G2, **{constraint: self.SET_VALUES[constraint]})
        path = tmp_path / "run.json"
        argv = [command, "--config", str(path)]
        path.write_text(json.dumps(cfg))
        monkeypatch.setattr(cli, "run", lambda cfg, inputs: 0)
        assert main(argv) == 0  # the smallest valid config of the mode
        monkeypatch.undo()
        value = self.SET_VALUES[field]
        cfg[field] = value.replace("{dir}", str(tmp_path)) if isinstance(value, str) else value
        path.write_text(json.dumps(cfg))
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert f"invalid configuration: {mode} takes no --{field.replace('_', '-')}" in err
        assert [p.name for p in tmp_path.iterdir()] == ["run.json"]

    @pytest.mark.parametrize("body", ["[1, 2]", '"text"', "null", "5"])
    def test_config_without_an_object_exits_2(self, body, tmp_path, capsys):
        path = tmp_path / "run.json"
        path.write_text(body)
        assert main(["region", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert "invalid configuration" in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["region", "--covariance", "6,0;0,6", "--g1", "nan,0;0,1", "--g2", "1,0;0,1"],
            ["wtc", "--covariance", "6,0;0,6", "--g1", "inf,0;0,1", "--g2", "1,0;0,1"],
        ],
    )
    def test_nonfinite_gains_exit_2(self, argv, capsys):
        assert main(argv) == 2
        assert "non-finite" in capsys.readouterr().err

    def test_unknown_flag(self):
        with pytest.raises(SystemExit) as exc:
            main(["region", "--bogus", "1"])
        assert exc.value.code == 2

    def test_one_parser_per_process(self):
        # every call shares one parser, and no parse leaks into the next
        parser = cli.build_parser()
        assert parser.parse_args(["region", "--mode", "common"]).mode == "common"
        with pytest.raises(SystemExit):
            main(["region", "--mode", "bogus"])
        assert cli.build_parser() is parser
        # --mode has no default, so a config file's mode holds without it
        args = parser.parse_args(["region", "--power", "2"])
        assert (args.mode, args.covariance, args.power) == (None, None, 2.0)

    def test_dpc_check_passes(self, capsys):
        assert main(["dpc-check", "--seed", "7", "--trials", "25", "--dim", "2"]) == 0
        out = capsys.readouterr().out
        assert "max relative gap" in out

    def test_decomp_check_passes(self, capsys):
        assert main(["decomp-check", "--seed", "5", "--trials", "25", "--dim", "3"]) == 0


class TestInputsBuiltOnce:
    """One main call parses the channel, constraint, grid and weights once."""

    SMALL = ["--grid-theta", "3", "--grid-d", "3", "--grid-trace", "3"]

    @pytest.mark.parametrize(
        "argv",
        [
            ["region", "--covariance", "6,0;0,6"],
            ["region", "--mode", "common", "--power", "4"],
            ["wtc", "--covariance", "6,0;0,6"],
            ["wtc", "--power", "4"],
            ["compare", "--power", "4"],
            ["envelope", "--covariance", "3,0;0,2", "--eta", "1.2"],
        ],
    )
    def test_each_input_is_built_once(self, argv, monkeypatch, capsys):
        calls = {}

        def count(owner, name):
            fn = getattr(owner, name)

            def wrapped(*args, **kwargs):
                calls[name] = calls.get(name, 0) + 1
                return fn(*args, **kwargs)

            monkeypatch.setattr(owner, name, wrapped)

        for name in ("make_channel", "check_cov"):
            count(cli, name)
        for name in ("channel", "constraint", "grid", "envelope"):
            count(RunConfig, name)
        assert main(argv + ["--g1", G1_ARG, "--g2", G2_ARG] + self.SMALL) == 0
        want = dict.fromkeys(("make_channel", "channel", "constraint", "grid"), 1)
        want["check_cov"] = int("--covariance" in argv)
        want["envelope"] = int(argv[0] == "envelope")
        assert {name: calls.get(name, 0) for name in want} == want


class TestImports:
    @staticmethod
    def loaded(package: str) -> str:
        """The modules of ``package`` that a fresh ``import secbc, secbc.cli`` loads."""
        code = (
            "import sys, secbc, secbc.cli; "
            f"print(sorted(m for m in sys.modules if (m + '.').startswith({package + '.'!r})))"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], env=_package_env(), capture_output=True,
            text=True, timeout=60, check=True,
        )
        return proc.stdout.strip()

    def test_package_and_cli_load_no_scipy(self):
        assert self.loaded("scipy") == "[]"

    def test_package_and_cli_load_no_thread_pool(self):
        # every sweep scores its blocks in order on the calling thread
        assert self.loaded("concurrent.futures") == "[]"


def _printed_value(out: str) -> str:
    """The figure a check command prints after '=', without its elapsed time."""
    return out.rsplit("=", 1)[1].split("(")[0].strip()


class TestCheckCommands:
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_dpc_gap_is_the_per_instance_maximum(self, capsys, monkeypatch, dim):
        # a small chunk puts several chunk boundaries inside the run
        monkeypatch.setattr(cli, "CHECK_CHUNK", 16)
        for seed in range(5):
            assert main(["dpc-check", "--seed", str(seed), "--trials", "60", "--dim", str(dim)]) == 0
            printed = _printed_value(capsys.readouterr().out)
            rng = np.random.default_rng(seed)
            worst = 0.0
            for _ in range(60):
                lhs, _, gap = dpc_identity_check(random_instance(dim, rng))
                worst = max(worst, gap / (1.0 + abs(lhs)))
            assert printed == f"{worst:.3e}"

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_decomp_residual(self, capsys, monkeypatch, dim):
        monkeypatch.setattr(cli, "CHECK_CHUNK", 16)
        for seed in range(5):
            assert main(["decomp-check", "--seed", str(seed), "--trials", "60", "--dim", str(dim)]) == 0
            assert float(_printed_value(capsys.readouterr().out)) <= 1e-13

    def test_memory_does_not_grow_with_trials(self, capsys):
        def peak(trials):
            tracemalloc.start()
            try:
                assert main(["dpc-check", "--trials", str(trials), "--dim", "3"]) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        main(["dpc-check", "--trials", "2", "--dim", "3"])  # one-time set-up
        small, large = peak(400), peak(4000)
        assert large <= 1.5 * small


class TestRegionCommand:
    def test_fixed_cov_run_writes_artifacts(self, tmp_path, capsys):
        out = tmp_path / "f.csv"
        svg = tmp_path / "f.svg"
        code = main(
            ["region", "--mode", "no-common", "--covariance", "6,0;0,6",
             "--g1", G1_ARG, "--g2", G2_ARG, *FAST,
             "--out", str(out), "--svg", str(svg)]
        )
        assert code == 0
        text = out.read_text()
        header = text.splitlines()[0].split(",")
        assert header[:2] == ["R1", "R2"]
        assert any(col.startswith("ks_") for col in header)
        assert "max R1" in capsys.readouterr().out
        assert "R1 [bits/use]" in svg.read_text()

    def test_common_mode_at_vanishing_constraints(self, capsys):
        # the triple filter keeps only the max-R1 corners, or t = 1 takes
        # the zero-constraint frontier
        for argv in (
            ["--power", "1e-14", "--g1", "2", "--g2", "1"],
            ["--covariance", "1e-14", "--g1", "2", "--g2", "1"],
            ["--power", "1e-16", "--g1", "2", "--g2", "1"],
            ["--power", "1e-15", "--g1", G1_ARG, "--g2", G2_ARG],
        ):
            assert main(["region", "--mode", "common", *argv]) == 0
        assert "Traceback" not in capsys.readouterr().err

    def test_power_common_mode(self, tmp_path):
        out = tmp_path / "c.csv"
        code = main(
            ["region", "--mode", "common", "--power", "4",
             "--g1", G1_ARG, "--g2", G2_ARG, *FAST, "--out", str(out)]
        )
        assert code == 0
        header = out.read_text().splitlines()[0].split(",")
        assert header[:3] == ["R1", "R2", "R0"]

    def test_config_file(self, tmp_path):
        cfg = {
            "g1": EXAMPLE_G1,
            "g2": EXAMPLE_G2,
            "power": 4.0,
            "grid_theta": 10,
            "grid_d": 7,
            "grid_trace": 7,
            "out": str(tmp_path / "cfg.csv"),
        }
        path = tmp_path / "run.json"
        path.write_text(json.dumps(cfg))
        assert main(["region", "--config", str(path)]) == 0
        assert (tmp_path / "cfg.csv").exists()

    def test_config_null_leaves_a_field_unset(self, tmp_path, capsys):
        cfg = {"g1": EXAMPLE_G1, "g2": EXAMPLE_G2, "power": 3, "covariance": None, "seed": None}
        path = tmp_path / "run.json"
        path.write_text(json.dumps(cfg))
        assert main(["region", "--config", str(path), *FAST]) == 0
        assert "max R1" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "mode, flags, header",
        [
            ("common", [], ["R1", "R2", "R0"]),
            ("common", ["--mode", "no-common"], ["R1", "R2", "k_00"]),
            ("no-common", ["--mode", "common"], ["R1", "R2", "R0"]),
            (None, [], ["R1", "R2", "k_00"]),
        ],
    )
    def test_config_mode_unless_flag_given(self, mode, flags, header, tmp_path):
        cfg = {"g1": EXAMPLE_G1, "g2": EXAMPLE_G2, "covariance": [[3.0, 0.0], [0.0, 2.0]]}
        if mode is not None:
            cfg["mode"] = mode
        path, out = tmp_path / "run.json", tmp_path / "f.csv"
        path.write_text(json.dumps(cfg))
        argv = ["region", "--config", str(path), *flags, *FAST, "--out", str(out)]
        assert main(argv) == 0
        assert out.read_text().splitlines()[0].split(",")[:3] == header

    @pytest.mark.parametrize("mode", ["bogus", "wtc", "region", 3])
    def test_config_mode_outside_the_region_modes_exits_2(self, mode, tmp_path, capsys):
        cfg = {"g1": EXAMPLE_G1, "g2": EXAMPLE_G2, "power": 4.0, "mode": mode}
        path = tmp_path / "run.json"
        path.write_text(json.dumps(cfg))
        assert main(["region", "--config", str(path), *FAST]) == 2
        assert "invalid configuration" in capsys.readouterr().err

    def test_determinism_byte_identical(self, tmp_path):
        paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for p in paths:
            assert main(
                ["region", "--power", "4", "--g1", G1_ARG, "--g2", G2_ARG,
                 *FAST, "--out", str(p)]
            ) == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()


class TestWtcAndEnvelope:
    def test_wtc_fixed(self, capsys):
        code = main(
            ["wtc", "--covariance", "1", "--g1", "2", "--g2", "1", *FAST]
        )
        assert code == 0
        assert "0.660" in capsys.readouterr().out

    def test_wtc_example_channel(self, capsys):
        base = ["wtc", "--g1", G1_ARG, "--g2", G2_ARG]
        assert main(base + ["--covariance", "6,0;0,6"]) == 0
        assert "= 0.873612 bits/use" in capsys.readouterr().out
        assert main(base + ["--power", "12"]) == 0
        out = capsys.readouterr().out
        assert float(out.split("= ")[1].split()[0]) >= 0.938002

    def test_envelope_level_inference(self, capsys):
        code = main(
            ["envelope", "--covariance", "1", "--g1", "1", "--g2", "2",
             "--eta", "1.0", *FAST]
        )
        assert code == 0
        assert "v_eta" in capsys.readouterr().out
        code = main(
            ["envelope", "--covariance", "1", "--g1", "1", "--g2", "2",
             "--lambda1", "1.0", "--lambda2", "0.5", "--eta", "1.2", *FAST]
        )
        assert code == 0
        assert "v_hat" in capsys.readouterr().out


class TestGridFlags:
    """--grid-theta/-d/-trace set the steps of every depth, so each command
    sweeps the resolution the flags give."""

    @staticmethod
    def record(monkeypatch, module, name, seen):
        fn = getattr(module, name)

        def wrapped(*args):
            seen.append(fn(*args))
            return seen[-1]

        monkeypatch.setattr(module, name, wrapped)

    @pytest.mark.parametrize(
        "name, extra, levels",
        [
            ("v_eta", ["--eta", "1.2"], 1),
            ("v_hat", ["--lambda1", "1", "--lambda2", "0.8", "--eta", "1.2"], 2),
            ("v_tilde", ["--lambda0", "2", "--lambda1", "1", "--lambda2", "0.8"], 3),
        ],
    )
    def test_envelope_levels(self, monkeypatch, capsys, name, extra, levels):
        seen = []
        self.record(monkeypatch, cli, name, seen)
        for theta, d in ((2, 2), (3, 3)):
            argv = ["envelope", "--covariance", "3,0;0,2", "--g1", G1_ARG, "--g2", G2_ARG]
            argv += extra + ["--grid-theta", str(theta), "--grid-d", str(d), "--grid-trace", "2"]
            assert main(argv) == 0
            meta = seen[-1].grid_meta
            assert meta["resolution"] == {"theta_steps": theta, "diag_steps": d, "levels": levels}
            # t = 2 keeps one angle per quarter turn: theta / gcd(4, theta) of them
            assert meta["grid_nodes"] == (theta // math.gcd(4, theta) * d * d) ** levels
        assert name in capsys.readouterr().out

    @pytest.mark.parametrize(
        "constraint, name",
        [(["--covariance", "6,0;0,6"], "region_common_fixed"), (["--power", "4"], "region_common_power")],
    )
    def test_common_region(self, monkeypatch, constraint, name):
        seen = []
        self.record(monkeypatch, regions, name, seen)
        for theta, d, trace in ((2, 2, 2), (3, 3, 3)):
            flags = ["--grid-theta", str(theta), "--grid-d", str(d), "--grid-trace", str(trace)]
            argv = ["region", "--mode", "common", "--g1", G1_ARG, "--g2", G2_ARG]
            assert main(argv + constraint + flags) == 0
            fr = seen[-1]
            # two chained levels of one canonical angle (theta / gcd(4, theta)
            # of them at t = 2) and two scalings
            per_k = (theta // math.gcd(4, theta) * d * d) ** 2
            if name == "region_common_fixed":
                grid = (fr.meta["grid"].chain_theta_steps, fr.meta["grid"].chain_diag_steps)
                assert grid == (theta, d)
                assert fr.meta["candidates"] == per_k
            else:
                g = fr.meta["grid"]
                assert (g.deep_theta_steps, g.deep_diag_steps, g.deep_trace_steps) == (theta, d, trace)
                # manifold nodes (canonical angles of the pi span x trace splits) x grid
                nodes = theta // math.gcd(2, theta) * trace
                assert fr.meta["candidates"] == nodes * per_k

    def test_sweep_chosen_per_mode(self):
        base = dict(g1=np.eye(2), g2=np.eye(2), grid_theta=5, grid_d=4, grid_trace=3)
        steps = {
            "theta_steps": 5, "chain_theta_steps": 5, "deep_theta_steps": 5,
            "diag_steps": 4, "chain_diag_steps": 4, "deep_diag_steps": 4,
            "trace_steps": 3, "deep_trace_steps": 3,
        }
        cases = [
            dict(mode="no-common", power=2.0),
            dict(mode="no-common", covariance=np.eye(2)),
            dict(mode="common", power=2.0),
            dict(mode="common", covariance=np.eye(2)),
            dict(mode="common", power=2.0, g1=np.eye(1), g2=np.eye(1)),
            dict(mode="both-confidential", power=2.0),
            dict(mode="wtc", power=2.0),
            dict(mode="compare", power=2.0),
            dict(mode="envelope", covariance=np.eye(2), eta=1.2),
            dict(mode="envelope", covariance=np.eye(2), lambda1=1.0),
            dict(mode="envelope", covariance=np.eye(2), lambda0=2.0),
        ]
        for fields in cases:
            grid = RunConfig(**{**base, **fields}).grid()
            assert {n: getattr(grid, n) for n in steps} == steps, fields


class TestGridLimit:
    """Every grid is counted from its tables before anything is built
    (``regions._grid_rows``), and the CLI refuses counts above
    ``MAX_GRID_ROWS`` under either constraint."""

    SINGLE = {"frontier_fixed_cov", "v_eta"}

    def test_keys_are_the_builders_and_levels(self):
        builders = {b for mode in cli._MODES.values() for b in (mode.power, mode.covariance)}
        levels = {"v_eta", "v_hat", "v_tilde"}
        for t in (1, 2, 3):
            assert set(regions._grid_rows(t, GridSpec())) == (builders - {None}) | levels

    @pytest.mark.parametrize("t", [1, 2, 3])
    def test_counts_bound_the_grids_built(self, t):
        grid = GridSpec(
            theta_steps=5, trace_steps=4, chain_diag_steps=3,
            deep_theta_steps=2, deep_diag_steps=2, deep_trace_steps=3,
        )
        ch = make_channel(*np.random.default_rng(t).normal(size=(2, t, t)))
        rows = regions._grid_rows(t, grid)
        assert set(rows) >= {mode.power for mode in cli._MODES.values()} - {None}
        kmats = regions._manifold_scan(t, 2.0, grid)
        assert rows["both_confidential_frontier"] == len(kmats)
        coarse = regions.frontier_power(ch, 2.0, grid).meta["nodes_per_level"][0]
        assert max(len(kmats), coarse) <= rows["frontier_power"]
        theta, d = (
            (grid.chain_theta_steps, grid.chain_diag_steps) if t == 1
            else (grid.deep_theta_steps, grid.deep_diag_steps)
        )
        tab = grid_tables(t, theta, diag_values(d), chained=True)
        common = regions.region_common_power(ch, 2.0, grid).meta["candidates"]
        assert common // (len(tab.rots) * len(tab.combos)) <= rows["region_common_power"]

    @pytest.mark.parametrize("t", [1, 2, 3])
    def test_counts_bound_the_covariance_grids(self, t):
        grid = GridSpec(
            theta_steps=4, diag_steps=3, chain_theta_steps=4, chain_diag_steps=2,
            deep_theta_steps=2, deep_diag_steps=2, refine_iters=0,
        )
        ch = make_channel(*np.random.default_rng(t).normal(size=(2, t, t)))
        k, w = np.eye(t), EnvelopeWeights(lambda2=0.8, eta=1.2)
        rows = regions._grid_rows(t, grid)
        # a single level streams its rotations: its tables are the whole
        # angle lattice and the scaling tuples
        lattice = 4 ** (t * (t - 1) // 2)
        assert rows["frontier_fixed_cov"] == rows["v_eta"] == max(lattice, 3**t)
        assert v_eta(ch, k, 1.2, grid).grid_meta["grid_nodes"] <= lattice * 3**t
        # a chained sweep holds the parents of its innermost level
        chained = [
            ("region_common_fixed", 4, lambda: regions.region_common_fixed(ch, k, grid).meta["candidates"]),
            ("v_hat", 4, lambda: v_hat(ch, k, w, grid).grid_meta["grid_nodes"]),
            ("v_tilde", 2, lambda: v_tilde(ch, k, w, grid).grid_meta["grid_nodes"]),
        ]
        for name, theta, nodes in chained:
            inner = len(grid_tables(t, theta, diag_values(2), chained=True).rots) * 2**t
            assert nodes() // inner <= rows[name], name

    def test_limit_admits_the_grids_in_use(self):
        # the default grids at t <= 2, the --grid-* flags of these tests, and
        # the t = 3 grids of scripts/compare_outputs.py
        grids = [(t, GridSpec()) for t in (1, 2)]
        grids += [(t, RunConfig(grid_theta=10, grid_d=7, grid_trace=7).grid()) for t in (1, 2)]
        for t, grid in grids:
            assert max(regions._grid_rows(t, grid).values()) <= cli.MAX_GRID_ROWS
        pair_t3 = regions._grid_rows(3, GridSpec(theta_steps=8, diag_steps=9, trace_steps=9))
        for name in ("both_confidential_frontier", "frontier_power", "frontier_fixed_cov"):
            assert pair_t3[name] <= cli.MAX_GRID_ROWS
        for chain in ((4, 3), (6, 3), (8, 2)):
            chain_t3 = GridSpec(chain_theta_steps=chain[0], chain_diag_steps=chain[1])
            assert regions._grid_rows(3, chain_t3)["region_common_fixed"] <= cli.MAX_GRID_ROWS
        deep_t3 = GridSpec(deep_theta_steps=4, deep_diag_steps=2, deep_trace_steps=3)
        for name in ("region_common_power", "v_tilde"):
            assert regions._grid_rows(3, deep_t3)[name] <= cli.MAX_GRID_ROWS
        # at the t = 3 defaults only the streamed single-level sweeps pass
        default_t3 = regions._grid_rows(3, GridSpec())
        assert max(default_t3[name] for name in self.SINGLE) <= cli.MAX_GRID_ROWS
        assert min(v for name, v in default_t3.items() if name not in self.SINGLE) > cli.MAX_GRID_ROWS

    GAINS_3 = ["--g1", "1,0.2,0;0.1,1,0.3;0,0.2,1", "--g2", "0.5,0,0.1;0,0.7,0;0.2,0,0.4"]
    HUGE = ["--grid-theta", str(10**15), "--g1", G1_ARG, "--g2", G2_ARG]

    @pytest.mark.parametrize(
        "argv",
        [
            # t = 3 default chained grids: about 3 million outer rows and more
            ["envelope", *GAINS_3, "--covariance", "1,0,0;0,1,0;0,0,1",
             "--lambda0", "2", "--lambda1", "1", "--lambda2", "0.8", "--eta", "1.2"],
            ["envelope", *GAINS_3, "--covariance", "1,0,0;0,1,0;0,0,1",
             "--lambda1", "1", "--lambda2", "0.8", "--eta", "1.2"],
            ["region", "--mode", "common", *GAINS_3, "--covariance", "1,0,0;0,1,0;0,0,1"],
            # an angle table of 1e15 entries would not fit in memory
            ["region", "--mode", "common", "--covariance", "6,0;0,6", *HUGE],
            ["region", "--mode", "no-common", "--covariance", "6,0;0,6", *HUGE],
            ["envelope", "--covariance", "6,0;0,6", "--eta", "1.2", *HUGE],
            ["envelope", "--covariance", "6,0;0,6", "--lambda1", "1", "--lambda2", "0.8",
             "--eta", "1.2", *HUGE],
        ],
    )
    def test_covariance_grids_are_counted_not_built(self, argv, capsys):
        assert main(argv) == 2
        assert "lower the --grid-* steps" in capsys.readouterr().err

    @pytest.mark.parametrize("mode, extra", [("no-common", {}), ("envelope", {"eta": 1.2})])
    def test_t3_single_level_defaults_pass(self, mode, extra):
        # validation only: the streamed t = 3 sweeps are allowed, not run here
        g1, g2 = (parse_matrix(a) for a in self.GAINS_3[1::2])
        cfg = RunConfig(mode=mode, g1=g1, g2=g2, covariance=np.eye(3), **extra)
        assert cli._validate(cfg).grid == GridSpec()

    def test_huge_steps_are_counted_not_built(self, capsys):
        # an angle table of 5e14 entries would not fit in memory
        argv = ["region", "--power", "4", "--g1", G1_ARG, "--g2", G2_ARG]
        assert main(argv + ["--grid-theta", str(10**15)]) == 2
        assert "more than" in capsys.readouterr().err

    def test_zero_power_builds_no_grid(self):
        # p = 0 returns before any grid, so the t = 3 default grid is fine
        assert main(["wtc", "--power", "0", *GAINS_T3]) == 0

    def test_wtc_power_runs_at_t3_defaults(self, tmp_path, capsys):
        # wtc --power polishes one closed-form start and builds no grid; the
        # optimum puts all power on the first axis: 1/2 log2(17/5)
        out = tmp_path / "wtc.csv"
        assert main(["wtc", "--power", "4", *GAINS_T3, "--out", str(out)]) == 0
        with out.open() as fh:
            row = next(csv.DictReader(fh))
        best = 0.5 * math.log2(17.0 / 5.0)
        assert abs(float(row["R1"]) - best) <= 5e-7  # the %.6f column
        k, kstar = (
            np.array([[float(row[f"{name}_{i}{j}"]) for j in range(3)] for i in range(3)])
            for name in ("k", "ks")
        )
        gains = [parse_matrix(GAINS_T3[1]), parse_matrix(GAINS_T3[3])]
        assert abs(r1_hat(make_channel(*gains), k, kstar) - best) <= 1e-9


class TestBrokenPipe:
    @pytest.mark.parametrize("unbuffered", [False, True])
    def test_closed_stdout_still_writes_files_and_exits_0(self, tmp_path, unbuffered):
        out, svg = tmp_path / "f.csv", tmp_path / "f.svg"
        cmd = ["region", "--covariance", "6,0;0,6", "--g1", G1_ARG, "--g2", G2_ARG]
        cmd += ["--grid-theta", "8", "--grid-d", "5"]
        argv = [sys.executable] + (["-u"] if unbuffered else []) + ["-m", "secbc.cli"]
        argv += cmd + ["--out", str(out), "--svg", str(svg)]
        proc = subprocess.Popen(
            argv, env=_package_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE
        )
        proc.stdout.close()  # the reader goes away before the first line
        err = proc.stderr.read().decode()
        proc.stderr.close()
        assert proc.wait(timeout=120) == 0
        assert "Traceback" not in err and "Broken" not in err
        direct = tmp_path / "direct.csv"
        assert main(cmd + ["--out", str(direct)]) == 0
        assert out.read_bytes() == direct.read_bytes()
        assert "</svg>" in svg.read_text()


class TestHugePower:
    """The power corners end in time at huge powers."""

    @pytest.mark.parametrize("command", ["wtc", "compare"])
    def test_exits_0_in_time(self, command, tmp_path):
        argv = [sys.executable, "-m", "secbc.cli", command, "--power", "1e10"]
        argv += ["--g1", G1_ARG, "--g2", G2_ARG, *FAST, "--out", str(tmp_path / "f.csv")]
        proc = subprocess.run(
            argv, env=_package_env(), capture_output=True, text=True, timeout=60
        )
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "f.csv").exists()


class TestHugeCommonRegion:
    """Grid determinants that round to <= 0 at huge powers are a numerical failure."""

    @pytest.mark.parametrize(
        "constraint", [["--power", "1e15"], ["--covariance", "1e15,0;0,1e15"]]
    )
    def test_exits_0_or_3_without_traceback(self, constraint, tmp_path):
        argv = [sys.executable, "-m", "secbc.cli", "region", "--mode", "common", *constraint]
        argv += ["--g1", G1_ARG, "--g2", G2_ARG, "--out", str(tmp_path / "f.csv")]
        proc = subprocess.run(
            argv, env=_package_env(), capture_output=True, text=True, timeout=120
        )
        assert proc.returncode in (0, 3), proc.stderr
        assert "Traceback" not in proc.stderr


class TestOverflowingCovariance:
    """Rates that overflow at huge covariances are a numerical failure."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["envelope", "--covariance", "1e300,0;0,1e300", "--eta", "1.2"],
            ["envelope", "--covariance", "1e300,0;0,1e300", "--lambda1", "1",
             "--lambda2", "0.8", "--eta", "1.2"],
            # at 1e18 I the rotated 2x2 minors of the innermost grid level
            # cancel at about 1e37 (1e15 I runs: test_v_tilde_at_1e15_is_its_1e9_value)
            ["envelope", "--covariance", "1e18,0;0,1e18", "--lambda0", "2", "--lambda1", "1",
             "--lambda2", "0.8", "--eta", "1.2"],
            ["region", "--mode", "no-common", "--covariance", "1e300,0;0,1e300"],
            # symmetrizing these must not overflow to inf
            ["wtc", "--covariance", "9e307,0;0,1"],
            ["wtc", "--covariance", "1e308,0;0,1"],
            ["region", "--covariance", "9e307,0;0,1"],
            ["envelope", "--covariance", "1e308,0;0,1", "--eta", "1.2"],
            # a wiretap pencil that overflows
            ["wtc", "--covariance", "1,0;0,1", "--g1", "1e200,0;0,1e200"],
            # power budgets whose rates overflow (the wiretap corner alone
            # stays finite up to 1e307; see test_wtc_power_reaches_the_high_snr_limit)
            ["compare", "--power", "1e300"],
            ["wtc", "--power", "1e308"],
            ["region", "--power", "1e300"],
        ],
    )
    def test_exits_3_without_traceback(self, argv, tmp_path, capsys):
        out = ["--out", str(tmp_path / "f.csv")] if argv[0] == "region" else []
        gains = ["--g1", G1_ARG, "--g2", G2_ARG]  # a later --g1 in argv wins
        assert main(argv[:1] + gains + argv[1:] + out) == 3
        err = capsys.readouterr().err
        assert "numerical failure" in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "weights", [["--lambda0", "2", "--alpha", "0.5"], ["--lambda0", "1.2", "--alpha", "0.9"]]
    )
    def test_v_tilde_at_1e15_is_its_1e9_value(self, weights, capsys):
        # det(I + G K G^T) is about 1e31 at 1e15 I, finite.  Every grid
        # level is scored by the principal-minor expansion, where a zero
        # scaling drops its terms exactly, so the rank-deficient outer
        # nodes stay exact and v_tilde prints what it prints at 1e9 I.
        printed = []
        for scale in ("1e9", "1e15"):
            argv = ["envelope", "--g1", G1_ARG, "--g2", G2_ARG,
                    "--covariance", f"{scale},0;0,{scale}", *weights,
                    "--lambda1", "1", "--lambda2", "0.8", "--eta", "1.2"]
            assert main(argv) == 0
            printed.append(capsys.readouterr().out.split(" bits")[0])
        assert printed[0].startswith("v_tilde = ") and printed[1] == printed[0]

    @pytest.mark.parametrize(
        "argv",
        [
            ["region", "--covariance", "1e300,0;0,1e300"],
            ["region", "--mode", "common", "--covariance", "1e300,0;0,1e300"],
            ["envelope", "--eta", "1.2", "--covariance", "1e300,0;0,1e300"],
            ["wtc", "--covariance", "1e308,0;0,1"],
            ["compare", "--power", "1e300"],
            ["wtc", "--power", "1e308"],
            ["region", "--power", "1e300"],
        ],
    )
    def test_stderr_is_one_line(self, argv):
        # numpy's overflow warnings would only repeat the failure line
        argv = [sys.executable, "-m", "secbc.cli", *argv, "--g1", G1_ARG, "--g2", G2_ARG]
        env = _package_env()
        proc = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 3
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("numerical failure: "), proc.stderr

    def test_wtc_power_reaches_the_high_snr_limit(self, tmp_path, capsys):
        # the polish never forms a determinant, so at 1e300 the corner is the
        # rank-one high-SNR limit 1/2 log2 of the top eigenvalue of the pencil
        # (G1^T G1, G2^T G2)
        out = tmp_path / "wtc.csv"
        argv = ["wtc", "--power", "1e300", "--g1", G1_ARG, "--g2", G2_ARG, "--out", str(out)]
        assert main(argv) == 0
        with out.open() as fh:
            r1 = float(next(csv.DictReader(fh))["R1"])
        a1, a2 = (np.asarray(g, dtype=float) for g in (EXAMPLE_G1, EXAMPLE_G2))
        top = np.linalg.eigvals(np.linalg.solve(a2.T @ a2, a1.T @ a1)).real.max()
        assert abs(r1 - 0.5 * math.log2(top)) <= 5e-7  # the %.6f column

    def test_huge_gain_warns_nothing(self):
        # the gain's singularity test must not overflow its determinant
        argv = [sys.executable, "-m", "secbc.cli", "wtc", "--covariance", "1,0;0,1"]
        argv += ["--g1", "1e200,0;0,1e200", "--g2", G2_ARG]
        proc = subprocess.run(argv, env=_package_env(), capture_output=True, text=True, timeout=60)
        assert proc.returncode == 3
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("numerical failure: "), proc.stderr


class TestCompare:
    def test_compare_writes_both_csvs_and_svg(self, tmp_path, capsys):
        out = tmp_path / "fig.csv"
        svg = tmp_path / "fig.svg"
        code = main(
            ["compare", "--power", "4", "--g1", G1_ARG, "--g2", G2_ARG,
             *FAST, "--out", str(out), "--svg", str(svg)]
        )
        assert code == 0
        assert out.exists()
        assert (tmp_path / "fig_both_confidential.csv").exists()
        body = svg.read_text()
        assert "stroke-dasharray" in body
        assert "R2 [bits/use]" in body

    def test_max_r1_rows_are_the_wiretap_corner(self, monkeypatch, capsys):
        built = {}
        for name in ("frontier_power", "both_confidential_frontier"):
            fn = getattr(regions, name)

            def spy(*args, fn=fn, name=name, **kwargs):
                built[name] = fn(*args, **kwargs)
                return built[name]

            monkeypatch.setattr(regions, name, spy)
        assert main(["compare", "--power", "4", "--g1", G1_ARG, "--g2", G2_ARG, *FAST]) == 0
        grid = RunConfig(grid_theta=10, grid_d=7, grid_trace=7).grid()
        ch = make_channel(EXAMPLE_G1, EXAMPLE_G2)
        value, k, kstar = regions.wtc_capacity_power(ch, 4.0, grid)
        one = built["frontier_power"].points[-1]
        both = built["both_confidential_frontier"].points[-1]
        assert both.r1 == value
        assert both.gen["k"].tobytes() == k.tobytes()
        assert both.gen["kstar"].tobytes() == kstar.tobytes()
        # the one-confidential corner keeps K* and water-fills its own K
        assert one.gen["kstar"].tobytes() == kstar.tobytes()


def _reference_csv(frontier) -> str:
    """CSV text of ``frontier`` formatted entry by entry: repr(float(v))
    of every generator entry, one point at a time."""
    first = frontier.points[0]
    labels = {"k": "k", "kstar": "ks", "k1": "k1", "k2": "k2"}
    header = ["R1", "R2"] + (["R0"] if frontier.is_triple else [])
    for name, mat in first.gen.items():
        t = np.asarray(mat).shape[0]
        header += [f"{labels[name]}_{i}{j}" for i in range(t) for j in range(t)]
    lines = [",".join(header)]
    for p in frontier.points:
        row = [f"{p.r1:.6f}", f"{p.r2:.6f}"] + ([f"{p.r0:.6f}"] if frontier.is_triple else [])
        for mat in p.gen.values():
            row += [repr(float(v)) for v in np.asarray(mat).ravel()]
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


class TestEmitters:
    def test_bytes_match_the_entrywise_formatter(self, tmp_path, fast_grid):
        ch = make_channel(EXAMPLE_G1, EXAMPLE_G2)
        ch1 = make_channel([[1.5]], [[0.8]])
        rng = np.random.default_rng(3)
        g1, g2, a = (rng.normal(size=(3, 3)) for _ in range(3))
        ch3, k3 = make_channel(g1, g2), a @ a.T / 3.0 + 0.5 * np.eye(3)
        chain3 = GridSpec(chain_theta_steps=4, chain_diag_steps=3)
        odd = np.array([[-0.0, 5e-324], [1e300, 1.0 / 3.0]])
        power = (
            regions.frontier_power,
            regions.both_confidential_frontier,
            regions.region_common_power,
        )
        fixed = (frontier_fixed_cov, regions.region_common_fixed)
        frontiers = [
            *(fn(ch, p, fast_grid) for fn in power for p in (4.0, 0.0)),
            *(fn(ch, k, fast_grid) for fn in fixed for k in (np.diag([3.0, 2.0]), np.zeros((2, 2)))),
            regions.region_common_fixed(ch1, np.array([[3.0]]), fast_grid),
            regions.region_common_fixed(ch3, k3, chain3),
            Frontier(np.array([[0.5, 0.25]]), {"k": odd[None], "kstar": np.eye(2)[None]}),
            Frontier(
                np.array([[0.2, 0.3, 0.1]]),
                {"k": odd[None], "k1": odd.T[None], "k2": np.zeros((1, 2, 2))},
            ),
        ]
        for i, fr in enumerate(frontiers):
            path = tmp_path / f"f{i}.csv"
            emit_csv(fr, path)
            assert path.read_bytes() == _reference_csv(fr).encode("utf-8")

    @pytest.mark.parametrize("constraint", [["--power", "4"], ["--covariance", "3,0.5;0.5,2"]])
    def test_wtc_row_matches_the_entrywise_formatter(self, tmp_path, constraint, capsys):
        path = tmp_path / "wtc.csv"
        argv = ["wtc", *constraint, "--g1", G1_ARG, "--g2", G2_ARG, *FAST, "--out", str(path)]
        assert main(argv) == 0
        ch = make_channel(EXAMPLE_G1, EXAMPLE_G2)
        if constraint[0] == "--power":
            grid = RunConfig(grid_theta=10, grid_d=7, grid_trace=7).grid()
            value, k, kstar = regions.wtc_capacity_power(ch, 4.0, grid)
        else:
            k = parse_matrix(constraint[1])
            value, kstar = regions.wtc_capacity(ch, k)
        row = Frontier(np.array([[value, 0.0]]), {"k": k[None], "kstar": kstar[None]})
        assert path.read_bytes() == _reference_csv(row).encode("utf-8")

    def test_cli_never_builds_the_point_view(self, tmp_path, monkeypatch, capsys):
        def refuse(self):
            raise AssertionError("a CLI path built Frontier.points")

        monkeypatch.setattr(Frontier, "points", property(refuse))
        out, svg = str(tmp_path / "f.csv"), str(tmp_path / "f.svg")
        gains = ["--g1", G1_ARG, "--g2", G2_ARG, *FAST]
        for argv in (
            ["compare", "--power", "4", "--out", out, "--svg", svg],
            ["region", "--mode", "no-common", "--power", "4", "--out", out, "--svg", svg],
            ["region", "--mode", "both-confidential", "--power", "4", "--out", out, "--svg", svg],
            ["region", "--mode", "common", "--power", "4", "--out", out],
            ["region", "--mode", "no-common", "--covariance", "3,0;0,2", "--out", out],
            ["region", "--mode", "common", "--covariance", "3,0;0,2", "--out", out],
            ["wtc", "--power", "4", "--out", out],
        ):
            assert main(argv + gains) == 0

    def _tiny_frontier(self):
        k = np.diag([2.0, 1.0])
        ks = np.diag([1.0, 0.5])
        return Frontier(
            np.array([[0.0, 1.0], [0.5, 0.25]]),
            {"k": np.stack([k, k]), "kstar": np.stack([np.zeros((2, 2)), ks])},
            {"kind": "fixed_cov"},
        )

    def test_single_point_file_shape(self, tmp_path):
        zero = np.zeros((1, 2, 2))
        fr = Frontier(np.zeros((1, 2)), {"k": zero, "kstar": zero})
        path = tmp_path / "one.csv"
        emit_csv(fr, path)
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        assert lines[1].startswith("0.000000,0.000000,")

    def test_row_count_and_sorting(self, tmp_path):
        fr = self._tiny_frontier()
        path = tmp_path / "two.csv"
        emit_csv(fr, path)
        lines = path.read_text().splitlines()
        assert len(lines) == len(fr.points) + 1
        r1s = [float(line.split(",")[0]) for line in lines[1:]]
        assert r1s == sorted(r1s)

    def test_empty_frontier_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            emit_csv(Frontier(np.zeros((0, 2))), tmp_path / "x.csv")

    def test_rows_reverify_within_print_precision(self, tmp_path):
        ch = make_channel(EXAMPLE_G1, EXAMPLE_G2)
        fr = frontier_fixed_cov(ch, np.diag([3.0, 3.0]), GridSpec(theta_steps=10, diag_steps=7))
        path = tmp_path / "verify.csv"
        emit_csv(fr, path)
        lines = path.read_text().splitlines()
        header = lines[0].split(",")
        t = 2
        for line in lines[1:]:
            vals = [float(v) for v in line.split(",")]
            r1, r2 = vals[0], vals[1]
            k = np.array(vals[2 : 2 + t * t]).reshape(t, t)
            ks = np.array(vals[2 + t * t : 2 + 2 * t * t]).reshape(t, t)
            assert abs(max(0.0, r1_hat(ch, k, ks)) - r1) <= 5e-7
            assert abs(r2_hat(ch, k, ks) - r2) <= 5e-7

    def test_generators_read_back_bitwise(self, tmp_path):
        ch = make_channel(EXAMPLE_G1, EXAMPLE_G2)
        fr = frontier_fixed_cov(ch, np.diag([3.0, 3.0]), GridSpec(theta_steps=10, diag_steps=7))
        path = tmp_path / "exact.csv"
        emit_csv(fr, path)
        rows = path.read_text().splitlines()[1:]
        assert len(rows) == len(fr.points)
        for line, p in zip(rows, fr.points):
            mats = np.array([float(v) for v in line.split(",")[2:]]).reshape(2, 2, 2)
            assert np.array_equal(mats[0], p.gen["k"])
            assert np.array_equal(mats[1], p.gen["kstar"])

    def test_triple_rows_reverify(self, tmp_path):
        from secbc import region_common_fixed, r_common

        ch = make_channel(EXAMPLE_G1, EXAMPLE_G2)
        fr = region_common_fixed(
            ch, np.diag([2.0, 2.0]),
            GridSpec(chain_theta_steps=6, chain_diag_steps=4),
        )
        path = tmp_path / "triple.csv"
        emit_csv(fr, path)
        t = 2
        for line in path.read_text().splitlines()[1:]:
            vals = [float(v) for v in line.split(",")]
            r1, r2, r0 = vals[0], vals[1], vals[2]
            mats = np.array(vals[3:]).reshape(3, t, t)
            k, k1, k2 = mats
            e0, e1, e2 = r_common(ch, k, k1, k2)
            assert abs(max(e0, 0.0) - r0) <= 5e-7
            assert abs(max(e1, 0.0) - r1) <= 5e-7
            assert abs(max(e2, 0.0) - r2) <= 5e-7

    def test_svg_refuses_triples(self, tmp_path):
        fr = Frontier(np.array([[0.2, 0.3, 0.1]]), {"k": np.eye(2)[None]})
        with pytest.raises(ValueError):
            emit_svg(fr, tmp_path / "x.svg")

    def test_svg_axis_scaling(self, tmp_path):
        fr = self._tiny_frontier()
        path = tmp_path / "p.svg"
        emit_svg(fr, path)
        body = path.read_text()
        # axis max tick = 1.05 * max rate
        assert f"{1.05 * 0.5:.2f}" in body
        assert f"{1.05 * 1.0:.2f}" in body
        # no comparison region: a single solid polyline
        assert body.count("<polyline") == 1
        assert "stroke-dasharray" not in body
