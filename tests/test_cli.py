import json

import numpy as np
import pytest

from secbc import GridSpec, frontier_fixed_cov, make_channel, r1_hat, r2_hat
from secbc.cli import emit_csv, emit_svg, main, parse_matrix
from secbc.regions import Frontier, RatePoint, RateTriple

from conftest import EXAMPLE_G1, EXAMPLE_G2, large_singular_covariance

G1_ARG = "0.3,2.5;2.2,1.8"
G2_ARG = "1.3,1.2;1.5,3.9"
FAST = [
    "--grid-theta", "10",
    "--grid-d", "7",
    "--grid-trace", "7",
]


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

    def test_missing_channel(self):
        assert main(["region", "--power", "4"]) == 2

    @pytest.mark.parametrize("power", ["nan", "inf"])
    def test_nonfinite_power(self, power, capsys):
        code = main(["region", "--power", power, "--g1", G1_ARG, "--g2", G2_ARG])
        assert code == 2
        assert "finite" in capsys.readouterr().err

    @pytest.mark.parametrize("threads", ["0", "-2", "two"])
    def test_bad_thread_count(self, threads, monkeypatch, capsys):
        monkeypatch.setenv("SECBC_THREADS", threads)
        code = main(["wtc", "--power", "12", "--g1", G1_ARG, "--g2", G2_ARG, *FAST])
        assert code == 2
        assert "SECBC_THREADS" in capsys.readouterr().err

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

    def test_unknown_flag(self):
        with pytest.raises(SystemExit) as exc:
            main(["region", "--bogus", "1"])
        assert exc.value.code == 2

    def test_dpc_check_passes(self, capsys):
        assert main(["dpc-check", "--seed", "7", "--trials", "25", "--dim", "2"]) == 0
        out = capsys.readouterr().out
        assert "max relative gap" in out

    def test_decomp_check_passes(self, capsys):
        assert main(["decomp-check", "--seed", "5", "--trials", "25", "--dim", "3"]) == 0


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


class TestEmitters:
    def _tiny_frontier(self):
        k = np.diag([2.0, 1.0])
        ks = np.diag([1.0, 0.5])
        return Frontier(
            [
                RatePoint(0.0, 1.0, {"k": k, "kstar": np.zeros((2, 2))}),
                RatePoint(0.5, 0.25, {"k": k, "kstar": ks}),
            ],
            {"kind": "fixed_cov"},
        )

    def test_single_point_file_shape(self, tmp_path):
        fr = Frontier(
            [RatePoint(0.0, 0.0, {"k": np.zeros((2, 2)), "kstar": np.zeros((2, 2))})]
        )
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
            emit_csv(Frontier([]), tmp_path / "x.csv")

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
        fr = Frontier([RateTriple(0.1, 0.2, 0.3, {"k": np.eye(2)})])
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
