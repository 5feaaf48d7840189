"""Command line interface: artifact layout, config precedence, error
reporting, and byte determinism of outputs.
"""
import csv
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from attnflow.cli import load_config_file, main

LOG = "u1,A\nu1,B\nu1,A\nu2,A\nu2,C\nu3,B\n"


def run(args) -> int:
    return main([str(a) for a in args])


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


@pytest.fixture
def log_file(tmp_path):
    path = tmp_path / "log.csv"
    path.write_text(LOG)
    return path


@pytest.fixture
def network_dir(tmp_path):
    """Generated cyclic network artifacts for network-consuming commands."""
    out = tmp_path / "net"
    code = run(
        [
            "generate",
            "--family",
            "random-cyclic",
            "--size",
            "60",
            "--recirculation",
            "0.3",
            "--seed",
            "7",
            "--out",
            out,
        ]
    )
    assert code == 0
    return out


@pytest.fixture
def stats_dir(tmp_path, network_dir):
    out = tmp_path / "stats"
    assert run(["stats", "--input", network_dir / "network.csv", "--out", out]) == 0
    return out


class TestConfigFile:
    def test_parse_types_and_comments(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "# comment\n"
            "\n"
            "seed = 9\n"
            "gap-seconds = 1800\n"
            "header = true\n"
            "walkers = 1e4\n"
            "mode = residual\n"
        )
        values = load_config_file(str(cfg))
        assert values == {
            "seed": 9,
            "gap_seconds": 1800.0,
            "header": True,
            "walkers": 10_000,
            "mode": "residual",
        }

    def test_unknown_key(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("frobnicate = 1\n")
        with pytest.raises(ValueError, match="unknown config key"):
            load_config_file(str(cfg))

    def test_bad_boolean(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("header = maybe\n")
        with pytest.raises(ValueError, match="boolean"):
            load_config_file(str(cfg))

    def test_flags_override_file(self, tmp_path, log_file):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed = 5\nmode = residual\n")
        out = tmp_path / "out"
        code = run(
            ["ingest", "--input", log_file, "--config", cfg, "--seed", "11", "--out", out]
        )
        assert code == 0
        echoed = read_json(out / "config.json")
        assert echoed["seed"] == 11  # flag wins
        assert echoed["mode"] == "residual"  # file wins over default
        assert echoed["command"] == "ingest"


class TestIngestBuild:
    def test_ingest_artifacts(self, tmp_path, log_file):
        out = tmp_path / "out"
        assert run(["ingest", "--input", log_file, "--out", out]) == 0
        info = read_json(out / "ingest.json")
        assert info == {
            "users": 3,
            "sessions": 3,
            "visits": 6,
            "records": 6,
            "items": 3,
            "mode": "session-closed",
        }
        assert (out / "edges.csv").exists()

    def test_build_from_edges(self, tmp_path, log_file):
        ingest_out = tmp_path / "i"
        assert run(["ingest", "--input", log_file, "--out", ingest_out]) == 0
        build_out = tmp_path / "b"
        assert run(["build", "--input", ingest_out / "edges.csv", "--out", build_out]) == 0
        info = read_json(build_out / "build.json")
        assert info["certified"] is True
        assert info["nodes"] == 3
        assert (build_out / "network.csv").exists()
        assert (build_out / "network.json").exists()


class TestAnalysisCommands:
    def test_stats(self, stats_dir):
        info = read_json(stats_dir / "stats.json")
        assert info["sum_D"] == pytest.approx(info["source_outflow"])
        assert info["flux_residual"] <= 1e-6
        assert (stats_dir / "stats.csv").exists()

    def test_distance(self, tmp_path, network_dir):
        out = tmp_path / "d"
        assert run(["distance", "--input", network_dir / "network.csv", "--out", out]) == 0
        assert (out / "source_distance.csv").exists()
        assert not (out / "pairwise.csv").exists()

    def test_distance_pairwise(self, tmp_path, network_dir):
        out = tmp_path / "dp"
        code = run(
            ["distance", "--input", network_dir / "network.csv", "--pairwise", "--out", out]
        )
        assert code == 0
        header = (out / "pairwise.csv").read_text().splitlines()[0]
        assert header == "i,j,t,l,c"

    def test_fit_recovers_planted_exponent(self, tmp_path):
        gen = tmp_path / "gen"
        assert (
            run(
                [
                    "generate",
                    "--family",
                    "planted-dissipation",
                    "--size",
                    "300",
                    "--exponent",
                    "0.8",
                    "--out",
                    gen,
                ]
            )
            == 0
        )
        st = tmp_path / "st"
        assert run(["stats", "--input", gen / "network.csv", "--out", st]) == 0
        fit_out = tmp_path / "fit"
        assert run(["fit", "--input", st / "stats.csv", "--out", fit_out]) == 0
        fit = read_json(fit_out / "fit_D_vs_A.json")
        assert fit["x"] == "A" and fit["y"] == "D"
        assert abs(fit["exponent"] - 0.8) <= 0.05

    def test_gini(self, tmp_path, stats_dir):
        out = tmp_path / "g"
        assert run(["gini", "--input", stats_dir / "stats.csv", "--out", out]) == 0
        info = read_json(out / "gini_A.json")
        assert 0.0 <= info["gini"] <= 1.0

    def test_zipf(self, tmp_path, stats_dir):
        out = tmp_path / "z"
        code = run(
            ["zipf", "--input", stats_dir / "stats.csv", "--column", "D", "--out", out]
        )
        assert code == 0
        lines = (out / "zipf_D.csv").read_text().splitlines()
        assert lines[0] == "rank,value"
        values = [float(line.split(",")[1]) for line in lines[1:]]
        assert values == sorted(values, reverse=True)

    def test_duplication(self, tmp_path, log_file):
        out = tmp_path / "dup"
        assert run(["duplication", "--input", log_file, "--out", out]) == 0
        info = read_json(out / "duplication.json")
        assert info["users"] == 3
        assert info["edges_after"] <= info["edges_before"]

    def test_regress(self, tmp_path, network_dir):
        out = tmp_path / "r"
        assert run(["regress", "--input", network_dir / "network.csv", "--out", out]) == 0
        payload = read_json(out / "regression.json")
        names = [c["name"] for c in payload["coefficients"]]
        assert names == ["const", "ln_D", "ln_S", "ln_C", "l"]
        assert "R^2" in (out / "regression.txt").read_text()


class TestSimulateCompare:
    def test_simulate_artifacts(self, tmp_path, network_dir):
        out = tmp_path / "sim"
        code = run(
            [
                "simulate",
                "--input",
                network_dir / "network.csv",
                "--walkers",
                "2000",
                "--seed",
                "3",
                "--out",
                out,
            ]
        )
        assert code == 0
        info = read_json(out / "simulate.json")
        assert info["walkers"] == 2000
        assert info["absorbed"] + info["cap_exceeded"] == 2000
        tallies = read_json(out / "tallies.json")
        assert len(tallies["visit_sum"]) == 60

    def test_compare_from_tallies(self, tmp_path, network_dir, capsys):
        sim = tmp_path / "sim"
        assert (
            run(
                [
                    "simulate",
                    "--input",
                    network_dir / "network.csv",
                    "--walkers",
                    "100000",
                    "--seed",
                    "42",
                    "--out",
                    sim,
                ]
            )
            == 0
        )
        out = tmp_path / "cmp"
        code = run(
            [
                "compare",
                "--input",
                network_dir / "network.csv",
                "--tallies",
                sim / "tallies.json",
                "--out",
                out,
            ]
        )
        assert code == 0
        assert "compare: pass" in capsys.readouterr().out
        report = read_json(out / "compare.json")
        assert report["passed"] is True
        assert report["n_walkers"] == 100000


class TestGenerate:
    def test_network_family(self, network_dir):
        info = read_json(network_dir / "generate.json")
        assert info["certified"] is True
        assert info["nodes"] == 60

    def test_session_log_family(self, tmp_path):
        out = tmp_path / "logs"
        code = run(
            ["generate", "--family", "session-log", "--size", "12", "--seed", "1", "--out", out]
        )
        assert code == 0
        text = (out / "sessions.csv").read_text()
        assert text.count("\n") >= 12
        info = read_json(out / "generate.json")
        assert info["family"] == "session-log"


class TestPipeline:
    def test_summary_from_log(self, tmp_path, log_file):
        out = tmp_path / "p"
        assert run(["pipeline", "--input", log_file, "--out", out]) == 0
        summary = read_json(out / "summary.json")
        assert summary["schema_version"] == 1
        assert summary["users"] == 3
        assert summary["sessions"] == 3
        assert summary["visits"] == 6
        assert summary["nodes"] == 3
        assert summary["sum_D"] == pytest.approx(3.0)  # one exit per session
        # tiny network: fits legitimately fail and are recorded, not fatal
        assert set(summary["fits"]) == {"fit_D_vs_A", "fit_A_vs_S", "fit_C_vs_A"}
        for fit in summary["fits"].values():
            assert "exponent" in fit or "code" in fit
        assert "A" in summary["gini"] and "D" in summary["gini"]
        assert "zipf_A" in summary
        assert "regression" in summary
        assert "duplication" in summary

    def test_network_input_skips_log_analyses(self, tmp_path, network_dir):
        out = tmp_path / "pn"
        code = run(
            [
                "pipeline",
                "--input",
                network_dir / "network.csv",
                "--input-kind",
                "network",
                "--out",
                out,
            ]
        )
        assert code == 0
        summary = read_json(out / "summary.json")
        assert "users" not in summary
        assert summary["duplication"]["code"] == "Skipped"
        assert summary["regression"]["r_squared"] is not None

    def test_analysis_subset(self, tmp_path, network_dir):
        out = tmp_path / "ps"
        code = run(
            [
                "pipeline",
                "--input",
                network_dir / "network.csv",
                "--input-kind",
                "network",
                "--analyses",
                "stats,gini",
                "--out",
                out,
            ]
        )
        assert code == 0
        summary = read_json(out / "summary.json")
        assert "gini" in summary
        assert "fits" not in summary
        assert not (out / "source_distance.csv").exists()


class TestErrorHandling:
    def test_missing_input(self, tmp_path, capsys):
        out = tmp_path / "x"
        code = run(["stats", "--input", tmp_path / "nope.csv", "--out", out])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("FileNotFoundError: ")

    def test_malformed_log(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("u1,A\nu1\n")
        out = tmp_path / "x"
        code = run(["ingest", "--input", bad, "--out", out])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("MalformedRecord: line 2:")

    def test_partial_artifacts_removed(self, tmp_path, stats_dir, capsys):
        out = tmp_path / "fitfail"
        code = run(
            ["fit", "--input", stats_dir / "stats.csv", "--y", "nope", "--out", out]
        )
        assert code == 1
        assert capsys.readouterr().err.startswith("ValueError: ")
        # config.json was written before the failure and must be cleaned up
        assert os.listdir(out) == []

    def test_uncertified_input_pruned_with_warning(self, tmp_path, capsys):
        edges = tmp_path / "edges.csv"
        edges.write_text(
            "src,dst,weight\n"
            "__source__,A,1\n"
            "A,__sink__,1\n"
            "C1,C2,1\n"
            "C2,C1,1\n"
        )
        out = tmp_path / "b"
        with pytest.warns(Warning):
            code = run(["build", "--input", edges, "--out", out])
        assert code == 0
        info = read_json(out / "build.json")
        assert info["dropped_nodes"] == 2
        assert info["certified"] is True


class TestCertifiedInputs:
    """Every network-reading command balances its input before computing."""

    UNBALANCED = "src,dst,weight\n__source__,a,2\na,b,5\nb,__sink__,2\n"

    @pytest.mark.parametrize(
        "command", [["stats"], ["pipeline", "--input-kind", "network"]]
    )
    def test_unbalanced_network_is_balanced(self, tmp_path, command):
        edges = tmp_path / "net.csv"
        edges.write_text(self.UNBALANCED)
        out = tmp_path / "out"
        assert run([*command, "--input", edges, "--out", out]) == 0
        assert read_json(out / "stats.json")["flux_residual"] <= 1e-9
        with open(out / "stats.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert [r["item"] for r in rows] == ["a", "b"]
        for row in rows:
            assert float(row["A"]) == pytest.approx(float(row["phi"]), rel=1e-12)

    def test_non_finite_weight_fails_typed(self, tmp_path, capsys):
        edges = tmp_path / "net.csv"
        edges.write_text("src,dst,weight\n__source__,a,1\na,__sink__,nan\n")
        code = run(["stats", "--input", edges, "--out", tmp_path / "out"])
        assert code == 1
        err = capsys.readouterr().err
        assert err == f"InvalidEdge: {edges}:3: weight 'nan' is not finite\n"


class TestDeterminism:
    def test_pipeline_bytes_stable(self, tmp_path, log_file):
        for name in ("one", "two"):
            assert run(["pipeline", "--input", log_file, "--out", tmp_path / name]) == 0
        one, two = tmp_path / "one", tmp_path / "two"
        files = sorted(os.listdir(one))
        assert files == sorted(os.listdir(two))
        for name in files:
            if name == "config.json":
                continue  # echoes the differing --out value
            assert (one / name).read_bytes() == (two / name).read_bytes(), name

    def test_same_out_name_identical(self, tmp_path, log_file, child_env):
        """Byte-identical runs when the effective config matches exactly."""
        trees = []
        for sub in ("cwd1", "cwd2"):
            cwd = tmp_path / sub
            cwd.mkdir()
            proc = subprocess.run(
                [
                    sys.executable,
                    "-m",
                    "attnflow",
                    "pipeline",
                    "--input",
                    str(log_file),
                    "--out",
                    "run",
                ],
                cwd=cwd,
                env=child_env,
                capture_output=True,
                text=True,
            )
            assert proc.returncode == 0, proc.stderr
            tree = {
                name: (cwd / "run" / name).read_bytes()
                for name in sorted(os.listdir(cwd / "run"))
            }
            trees.append(tree)
        assert trees[0] == trees[1]


class TestEntryPoints:
    def test_version_flag(self, child_env):
        proc = subprocess.run(
            [sys.executable, "-m", "attnflow", "--version"],
            env=child_env,
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout.strip().endswith("0.1.0")

    def test_help_lists_commands(self, child_env):
        proc = subprocess.run(
            [sys.executable, "-m", "attnflow", "--help"],
            env=child_env,
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        for command in ("ingest", "pipeline", "simulate", "compare"):
            assert command in proc.stdout
