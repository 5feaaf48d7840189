"""Command line interface: artifact layout, config precedence, error
reporting, and byte determinism of outputs.
"""
import argparse
import csv
import hashlib
import json
import os
import subprocess
import sys
import warnings
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np
import pytest

from attnflow import GeneratorSpec, generate, serialize_log
from attnflow.cli import RunConfig, build_parser, load_config_file, main, merge_config

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
        cfg.write_text("mode = session-closed\nheader = true\n")
        out = tmp_path / "out"
        code = run(
            ["ingest", "--input", log_file, "--config", cfg, "--mode", "residual", "--out", out]
        )
        assert code == 0
        echoed = read_json(out / "config.json")
        assert echoed["mode"] == "residual"  # flag wins
        assert echoed["header"] is True  # file wins over default
        assert echoed["command"] == "ingest"

    def test_tab_delimiter_from_file(self, tmp_path, monkeypatch):
        log = tmp_path / "tab.csv"
        log.write_text(LOG.replace(",", "\t"))
        cfg = tmp_path / "tab.cfg"
        cfg.write_text("delimiter = \t\nmode =\tresidual \n")
        trees = []
        routes = {"file": ["--config", cfg], "flag": ["--delimiter", "\t", "--mode", "residual"]}
        for name, options in routes.items():
            (tmp_path / name).mkdir()
            monkeypatch.chdir(tmp_path / name)
            assert run(["ingest", "--input", log, *options, "--out", "out"]) == 0
            trees.append({p.name: p.read_bytes() for p in sorted(Path("out").iterdir())})
        assert trees[0] == trees[1]
        assert read_json(tmp_path / "file" / "out" / "ingest.json")["items"] == 3


COMMANDS = (
    "ingest", "build", "stats", "distance", "fit", "gini", "zipf",
    "duplication", "regress", "simulate", "generate", "pipeline", "compare",
)
LOG_READERS = ("ingest", "duplication", "pipeline")

#: setting -> (the commands that read it, a value other than its default;
#: None for a boolean flag)
READERS = {
    "out": (COMMANDS, "o"),
    "input": (tuple(c for c in COMMANDS if c != "generate"), "in.csv"),
    "mode": (("ingest", "pipeline"), "residual"),
    "gap_seconds": (LOG_READERS, "60"),
    "delimiter": (LOG_READERS + ("generate",), ";"),
    "header": (LOG_READERS + ("generate",), None),
    "dense_threshold": (("distance", "pipeline"), "32"),
    "pairwise": (("distance", "pipeline"), None),
    "seed": (("simulate", "compare", "generate"), "7"),
    "walkers": (("simulate", "compare"), "1e3"),
    "multiplier": (("compare",), "2.5"),
    "tallies": (("compare",), "t.json"),
    "family": (("generate",), "chain"),
    "size": (("generate",), "12"),
    "weight_scale": (("generate",), "2"),
    "recirculation": (("generate",), "0.5"),
    "exponent": (("generate",), "1.5"),
    "avg_degree": (("generate",), "3"),
    "x": (("fit",), "S"),
    "y": (("fit",), "C"),
    "column": (("gini", "zipf"), "D"),
    "input_kind": (("pipeline",), "edges"),
    "analyses": (("pipeline",), "stats,fits"),
}


def _flag(setting: str) -> str:
    return "--" + setting.replace("_", "-")


def _subparsers() -> dict:
    actions = build_parser()._actions
    (sub,) = [a for a in actions if isinstance(a, argparse._SubParsersAction)]
    return sub.choices


class TestSettings:
    """Each command takes the flags of exactly the settings it reads, and a
    setting parses the same from a flag and from a config file.
    """

    def test_readers_cover_every_setting(self):
        assert set(READERS) == {f.name for f in fields(RunConfig)}

    @pytest.mark.parametrize("command", COMMANDS)
    def test_command_flags(self, command):
        options = {
            opt
            for action in _subparsers()[command]._actions
            for opt in action.option_strings
        }
        wanted = {_flag(s) for s, (commands, _) in READERS.items() if command in commands}
        assert options == wanted | {"--config", "-h", "--help"}

    @pytest.mark.parametrize(
        "setting, command",
        [(s, c) for s, (commands, _) in READERS.items() for c in commands],
    )
    def test_flag_and_file_agree(self, tmp_path, setting, command):
        raw = READERS[setting][1]
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{setting} = {'true' if raw is None else raw}\n")
        parser = build_parser()
        flag_args = [command, _flag(setting)] + ([] if raw is None else [raw])
        from_flag = asdict(merge_config(parser.parse_args(flag_args)))
        from_file = asdict(merge_config(parser.parse_args([command, "--config", str(cfg)])))
        assert from_flag == from_file
        assert from_flag[setting] != getattr(RunConfig(), setting)

    @pytest.mark.parametrize(
        "argv",
        [
            ["stats", "--seed", "3"],
            ["build", "--dense-threshold", "32"],
            ["stats", "--pairwise-cap", "10"],
            ["generate", "--input", "in.csv"],
            ["duplication", "--mode", "residual"],
            ["stats", "--dense-threshold", "32"],
        ],
    )
    def test_dropped_flag_exits_2(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, key, raw",
        [
            ("generate", "seed", "abc"),
            ("generate", "seed", "-1"),
            ("simulate", "seed", "-1"),
            ("simulate", "walkers", "lots"),
            ("simulate", "walkers", "inf"),
            ("simulate", "walkers", "0"),
            ("simulate", "walkers", "2.5"),
            ("compare", "walkers", "-3"),
            ("ingest", "mode", "bogus"),
            ("generate", "family", "nope"),
            ("ingest", "delimiter", "ab"),
            ("pipeline", "gap_seconds", "-5"),
            ("ingest", "gap_seconds", "nan"),
            ("distance", "dense_threshold", "-3"),
            ("generate", "avg_degree", "-1"),
            ("compare", "multiplier", "inf"),
            ("compare", "multiplier", "nan"),
            ("compare", "multiplier", "-1"),
            ("compare", "multiplier", "0"),
        ],
    )
    def test_bad_value_names_file_line_and_key(self, tmp_path, capsys, command, key, raw):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key} = {raw}\n")
        out = tmp_path / "out"
        assert run([command, "--config", cfg, "--out", out]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"ValueError: {cfg}:1: config key {key}:")
        assert not out.exists()
        with pytest.raises(SystemExit) as exc:
            main([command, _flag(key), raw, "--out", str(out)])
        assert exc.value.code == 2
        flag_err = capsys.readouterr().err
        if key in ("mode", "family"):
            assert f"argument {_flag(key)}: invalid choice: {raw!r}" in flag_err
        else:  # the value parser's own reason, as in the config-file message
            reason = err.rstrip("\n").partition(f"config key {key}: ")[2]
            assert f"argument {_flag(key)}: {reason}\n" in flag_err


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


@pytest.fixture
def tallies(tmp_path, network_dir):
    """A tallies.json from 2,000 walkers on the 60-node network_dir."""
    sim = tmp_path / "sim"
    args = ["simulate", "--input", network_dir / "network.csv", "--walkers", "2000"]
    assert run(args + ["--seed", "3", "--out", sim]) == 0
    return sim / "tallies.json"


def _without(key):
    def edit(payload):
        del payload[key]
    return edit


def _set(key, value):
    def edit(payload):
        payload[key] = value
    return edit


NOT_A_TALLY = "must be a list of 60 finite numbers, one per item"
NOT_A_FLOW = "must be a finite number > 0"


class TestMalformedTallies:
    """compare --tallies refuses a file simulate could not have written,
    naming the file and the key, and writes no compare.json."""

    def _refused(self, tmp_path, network_dir, tallies, capsys) -> str:
        out = tmp_path / "cmp"
        args = ["compare", "--input", network_dir / "network.csv", "--tallies", tallies]
        assert run(args + ["--out", out]) == 1
        assert not (out / "compare.json").exists()
        return capsys.readouterr().err

    @pytest.mark.parametrize(
        "edit, reason",
        [
            (_without("fp_sum"), "key 'fp_sum' is missing"),
            (_without("items"), "key 'items' is missing"),
            (_set("fp_sum", [1.0] * 59), f"key 'fp_sum' {NOT_A_TALLY}"),
            (_set("visit_sum", [[1.0]] * 60), f"key 'visit_sum' {NOT_A_TALLY}"),
            (_set("absorption", ["x"] * 60), f"key 'absorption' {NOT_A_TALLY}"),
            (_set("fp_count", [float("nan")] * 60), f"key 'fp_count' {NOT_A_TALLY}"),
            (_set("fp_sumsq", [10**400] * 60), f"key 'fp_sumsq' {NOT_A_TALLY}"),
            (_set("n_walkers", 0), "key 'n_walkers' must be an integer >= 1, got 0"),
            (_set("n_walkers", 2.5), "key 'n_walkers' must be an integer >= 1, got 2.5"),
            (_set("n_walkers", True), "key 'n_walkers' must be an integer >= 1, got True"),
            (_set("cap_exceeded", -1), "key 'cap_exceeded' must be an integer >= 0, got -1"),
            (_set("cap_exceeded", 2001), "key 'cap_exceeded' is 2001, more than the 2000 walkers"),
            (_set("seed", "3"), "key 'seed' must be an integer >= 0, got '3'"),
            (_set("total_flow", float("inf")), f"key 'total_flow' {NOT_A_FLOW}, got inf"),
            (_set("total_flow", 0), f"key 'total_flow' {NOT_A_FLOW}, got 0"),
            (_set("total_flow", 10**400), f"key 'total_flow' {NOT_A_FLOW}, got {10**400}"),
            (_set("items", "n01"), "key 'items' must be a list of item names"),
        ],
        ids=[
            "no-fp_sum", "no-items", "short", "nested", "strings", "nan", "huge",
            "zero-walkers", "fractional-walkers", "bool-walkers", "negative-cap",
            "cap-over-walkers", "string-seed", "infinite-flow", "zero-flow", "huge-flow",
            "items-string",
        ],
    )
    def test_bad_key_names_file_and_key(self, tmp_path, network_dir, tallies, capsys, edit, reason):
        payload = read_json(tallies)
        edit(payload)
        tallies.write_text(json.dumps(payload))
        err = self._refused(tmp_path, network_dir, tallies, capsys)
        assert err == f"MalformedTallies: {tallies}: {reason}\n"

    @pytest.mark.parametrize(
        "text",
        ["{\"items\": [", "not json", "[1, 2]", "[" * 100_000],
        ids=["cut-short", "text", "array", "nested-too-deep"],
    )
    def test_not_a_json_object(self, tmp_path, network_dir, tallies, capsys, text):
        tallies.write_text(text)
        err = self._refused(tmp_path, network_dir, tallies, capsys)
        assert err.startswith(f"MalformedTallies: {tallies}: not ")

    def test_not_utf8(self, tmp_path, network_dir, tallies, capsys):
        tallies.write_bytes(b'{"items": "\xff"}')
        err = self._refused(tmp_path, network_dir, tallies, capsys)
        assert err.startswith(f"MalformedTallies: {tallies}: not JSON: ")


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

    #: The SHA-256 of what ``generate`` writes, so no change to the program
    #: moves a generator's stream unnoticed. The first is the input of the
    #: benchmark's synthetic-audit workload at seed 3.
    PINNED = [
        ("random-cyclic --size 3000 --avg-degree 6 --recirculation 0.25 --seed 3", "network.csv",
         "c0341d2d976d58709bdb18e88ced3002b7a57fc04e2738b15e800c7fa33ffd3e"),
        ("chain --size 5", "network.csv",
         "b157a1e182490db74666167bd19729255afea78989a68a317a913d21eb4ec7a3"),
        ("star --size 6 --weight-scale 2", "network.csv",
         "35a5e995568a5eb2a6e7c091d75d9cf3dbd3e22d488cef6d5e079168d401f858"),
        ("random-tree --size 30 --seed 4", "network.csv",
         "4a975d858870de511e1b483a0eff3b4573cedfcc5ad9b33f851e4797eaf28680"),
        ("random-cyclic --size 200 --recirculation 0.4 --seed 7", "network.csv",
         "37360e0f830a75fa5d496f5b3a55c9b4f4fff8a6f69d52fdde83615838b22933"),
        ("planted-dissipation --size 20", "network.csv",
         "d59e97b01fcc4685791b210ff413c031c1ffce3f4767b7061e83deecf59a6bff"),
        ("session-log --size 12 --seed 1", "sessions.csv",
         "6b3f43ee60d17e9f506da4627bef9bbd9aca36664305e6bf6630032e8d3d8400"),
    ]

    @pytest.mark.parametrize("spec, name, digest", PINNED, ids=[p[0] for p in PINNED])
    def test_generator_stream_is_pinned(self, tmp_path, spec, name, digest):
        assert run(["generate", "--family", *spec.split(), "--out", tmp_path]) == 0
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest


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

    def test_imports_are_frozen_once_per_process(self, tmp_path, log_file):
        """Importing the CLI moves what the imports made out of the
        collector's reach; main() freezes nothing more, so a process that
        calls it many times keeps no earlier run's garbage alive.
        """
        import gc

        frozen = gc.get_freeze_count()
        assert frozen > 0
        for k in range(2):
            assert run(["pipeline", "--input", log_file, "--out", tmp_path / f"p{k}"]) == 0
        assert gc.get_freeze_count() == frozen

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

    #: summary.json of ``--analyses duplication`` on each input, as the
    #: pipeline wrote it when it built the solver for sum_A and sum_D
    _DUPLICATION_SUMMARIES = {
        "log": (
            '{\n  "duplication": {\n    "edges_after": 225,\n    "edges_before": 280,\n'
            '    "retained_fraction": 0.8035714285714286,\n    "users": 160\n  },\n'
            '  "edges": 304,\n  "nodes": 40,\n  "schema_version": 1,\n  "sessions": 160,\n'
            '  "source_outflow": 160.0,\n  "sum_A": 446.0,\n  "sum_D": 160.0,\n'
            '  "users": 160,\n  "visits": 446\n}\n'
        ),
        "network": (
            '{\n  "duplication": {\n    "code": "Skipped",\n'
            '    "message": "duplication needs a session log input"\n  },\n'
            '  "edges": 6,\n  "nodes": 2,\n  "schema_version": 1,\n'
            '  "source_outflow": 2.533333333333333,\n  "sum_A": 3.033333333333333,\n'
            '  "sum_D": 2.5333333333333337\n}\n'
        ),
    }

    @pytest.mark.parametrize("kind", ["log", "network"])
    def test_duplication_alone_takes_no_solve(self, tmp_path, monkeypatch, kind):
        from attnflow._linalg import AbsorbingSolver

        solvers = []
        init = AbsorbingSolver.__init__

        def counted(self, *args, **kwargs):
            solvers.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(AbsorbingSolver, "__init__", counted)
        if kind == "log":
            path = tmp_path / "log.csv"
            path.write_text(serialize_log(generate(GeneratorSpec(family="session-log", size=40, seed=3))))
            args = ["--input", path]
        else:
            path = tmp_path / "net.csv"
            path.write_text(
                "src,dst,weight\n__source__,a,0.1\n__source__,b,0.7\na,b,0.2\nb,a,0.3\n"
                f"a,__sink__,{1 / 3!r}\nb,__sink__,2.2\n"
            )
            args = ["--input-kind", "network", "--input", path]
        assert run(["pipeline", *args, "--analyses", "duplication", "--out", tmp_path / "dup"]) == 0
        assert not solvers
        summary = (tmp_path / "dup" / "summary.json").read_text(encoding="utf-8")
        assert summary == self._DUPLICATION_SUMMARIES[kind]
        # the counter sees the solver a step that reads C builds
        assert run(["pipeline", *args, "--analyses", "stats", "--out", tmp_path / "stats"]) == 0
        assert len(solvers) == 1

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

    @pytest.mark.parametrize("route", ["flag", "config"])
    def test_unknown_analysis_rejected(self, tmp_path, network_dir, capsys, route):
        out = tmp_path / "pu"
        args = ["pipeline", "--input", network_dir / "network.csv", "--input-kind", "network"]
        if route == "flag":
            args += ["--analyses", "stat,gini"]
        else:
            cfg = tmp_path / "run.cfg"
            cfg.write_text("analyses = stat,gini\n")
            args += ["--config", cfg]
        assert run(args + ["--out", out]) == 1
        err = capsys.readouterr().err
        assert err.startswith("ValueError: ")
        assert "'stat'" in err
        for name in ("stats", "distance", "fits", "gini", "zipf", "regress", "duplication"):
            assert f"'{name}'" in err
        assert os.listdir(out) == []

    def test_matches_single_step_commands(self, tmp_path):
        """pipeline writes the same bytes as ingest -> build -> stats /
        distance / regress / duplication run one at a time, and as fit,
        gini and zipf run on its stats.csv.
        """
        gen = tmp_path / "gen"
        code = run(
            ["generate", "--family", "session-log", "--size", "120", "--seed", "5", "--out", gen]
        )
        assert code == 0
        log = gen / "sessions.csv"
        piped = tmp_path / "pipeline"
        assert run(["pipeline", "--input", log, "--out", piped]) == 0
        single = {
            "ingest": ["ingest", "--input", log],
            "build": ["build", "--input", tmp_path / "ingest" / "edges.csv"],
        }
        for name, args in single.items():
            assert run(args + ["--out", tmp_path / name]) == 0
        network = tmp_path / "build" / "network.csv"
        for name in ("stats", "distance", "regress"):
            assert run([name, "--input", network, "--out", tmp_path / name]) == 0
        assert run(["duplication", "--input", log, "--out", tmp_path / "duplication"]) == 0
        stats_csv = piped / "stats.csv"
        for x, y in (("A", "D"), ("S", "A"), ("A", "C")):
            args = ["fit", "--input", stats_csv, "--x", x, "--y", y, "--out", tmp_path / "fit"]
            assert run(args) == 0
        for name, columns in (("gini", "AD"), ("zipf", "A")):
            for column in columns:
                args = [name, "--input", stats_csv, "--column", column]
                assert run(args + ["--out", tmp_path / name]) == 0
        expected = {
            "edges.csv": "ingest",
            "network.csv": "build",
            "network.json": "build",
            "stats.csv": "stats",
            "stats.json": "stats",
            "source_distance.csv": "distance",
            "regression.json": "regress",
            "regression.txt": "regress",
            "duplication.csv": "duplication",
            "fit_D_vs_A.json": "fit",
            "fit_A_vs_S.json": "fit",
            "fit_C_vs_A.json": "fit",
            "gini_A.json": "gini",
            "gini_D.json": "gini",
            "zipf_A.csv": "zipf",
            "zipf_A.json": "zipf",
        }
        for artifact, command in expected.items():
            assert (piped / artifact).read_bytes() == (
                tmp_path / command / artifact
            ).read_bytes(), artifact

    def test_pairwise_from_config(self, tmp_path, network_dir):
        """``pairwise = true`` in a config file makes pipeline's distance
        step write the same pairwise table as ``distance --pairwise``.
        """
        network = network_dir / "network.csv"
        cfg = tmp_path / "run.cfg"
        cfg.write_text("pairwise = true\n")
        piped, single = tmp_path / "pp", tmp_path / "dp"
        args = ["pipeline", "--input", network, "--input-kind", "network", "--config", cfg]
        assert run(args + ["--out", piped]) == 0
        assert run(["distance", "--input", network, "--pairwise", "--out", single]) == 0
        assert read_json(piped / "config.json")["pairwise"] is True
        assert (piped / "pairwise.csv").read_bytes() == (single / "pairwise.csv").read_bytes()


    def test_pairwise_over_cap_fails_pipeline(self, tmp_path, network_dir, capsys):
        """With ``pairwise = true`` a network above ``--dense-threshold``
        nodes fails the whole pipeline, as it fails ``distance --pairwise``.
        """
        cfg = tmp_path / "run.cfg"
        cfg.write_text("pairwise = true\ndense-threshold = 10\n")
        out = tmp_path / "pp"
        network = network_dir / "network.csv"
        args = ["--input", network, "--config", cfg, "--out", out]
        assert run(["pipeline", "--input-kind", "network"] + args) == 1
        err = capsys.readouterr().err
        assert err == "MemoryError: dense fundamental matrix of order 60 exceeds threshold 10\n"
        assert os.listdir(out) == []
        assert run(["distance"] + args) == 1
        assert capsys.readouterr().err == err

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

    def test_row_csv_reader_refuses_names_its_line(self, tmp_path, capsys):
        log = tmp_path / "log.csv"
        log.write_text("u1,A\nu1,B\nu2,LONG_ITEM_ID_X\n")
        edges = tmp_path / "net.csv"
        edges.write_text("src,dst,weight\n__source__,a,1\na,LONG_NODE_LABEL,1\n")
        default = csv.field_size_limit(12)
        try:
            assert run(["ingest", "--input", log, "--out", tmp_path / "i"]) == 1
            assert run(["build", "--input", edges, "--out", tmp_path / "b"]) == 1
        finally:
            csv.field_size_limit(default)
        assert capsys.readouterr().err == (
            "MalformedRecord: line 3: field larger than field limit (12)\n"
            f"InvalidEdge: {edges}:3: field larger than field limit (12)\n"
        )

    def test_partial_artifacts_removed(self, tmp_path, stats_dir, capsys):
        out = tmp_path / "fitfail"
        code = run(
            ["fit", "--input", stats_dir / "stats.csv", "--y", "nope", "--out", out]
        )
        assert code == 1
        assert capsys.readouterr().err.startswith("ValueError: ")
        # config.json was written before the failure and must be cleaned up
        assert os.listdir(out) == []

    @pytest.mark.parametrize("command", ["fit", "gini", "zipf"])
    @pytest.mark.parametrize(
        "row, reason",
        [("a,1,2,3", "expected 7 columns, got 4"),
         ("a,1,2,x,4,5,6", "could not convert string to float: 'x'"),
         ("a,1,inf,3,4,5,6", "expected a finite number, got 'inf'")],
    )
    def test_bad_stats_row_names_file_and_line(self, tmp_path, capsys, command, row, reason):
        stats = tmp_path / "stats.csv"
        stats.write_text(f"item,A,D,S,F,C,phi\nb,1,1,1,0,1,1\n{row}\n")
        out = tmp_path / "out"
        assert run([command, "--input", stats, "--out", out]) == 1
        assert capsys.readouterr().err == f"ValueError: {stats}:3: {reason}\n"
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

    def test_large_flow_imbalance_certifies(self, tmp_path):
        edges = tmp_path / "net.csv"
        edges.write_text("src,dst,weight\n__source__,a,1000000\na,__sink__,1000000.0000005\n")
        out = tmp_path / "out"
        assert run(["build", "--input", edges, "--out", out]) == 0
        assert read_json(out / "build.json")["certified"] is True
        assert run(["stats", "--input", edges, "--out", tmp_path / "stats"]) == 0
        assert read_json(tmp_path / "stats" / "stats.json")["flux_residual"] <= 1e-9

    def test_uncertifiable_network_fails_build(self, tmp_path, capsys):
        edges = tmp_path / "net.csv"
        edges.write_text(
            "src,dst,weight\n__source__,a,9007199254740992\n__source__,b,1\n"
            "b,a,1\na,__sink__,9007199254740994\n"
        )
        out = tmp_path / "out"
        assert run(["build", "--input", edges, "--out", out]) == 1
        assert capsys.readouterr().err.startswith("NotCertified: ")
        assert not (out / "network.csv").exists()

    def test_non_finite_weight_fails_typed(self, tmp_path, capsys):
        edges = tmp_path / "net.csv"
        edges.write_text("src,dst,weight\n__source__,a,1\na,__sink__,nan\n")
        code = run(["stats", "--input", edges, "--out", tmp_path / "out"])
        assert code == 1
        err = capsys.readouterr().err
        assert err == f"InvalidEdge: {edges}:3: weight 'nan' is not finite\n"

    @pytest.mark.parametrize(
        "row, message",
        [
            ("a,b,-1", "NegativeWeight: {}:3: edge a->b has weight -1.0"),
            ("__sink__,a,1", "InvalidEdge: {}:3: edge __sink__->a: no flow may leave __sink__"),
        ],
    )
    def test_invalid_edge_names_file_and_line(self, tmp_path, capsys, row, message):
        edges = tmp_path / "net.csv"
        edges.write_text(f"src,dst,weight\n__source__,a,1\n{row}\n")
        out = tmp_path / "out"
        assert run(["build", "--input", edges, "--out", out]) == 1
        assert capsys.readouterr().err == message.format(edges) + "\n"
        assert os.listdir(out) == []


def _quote_all(plain: Path, quoted: Path) -> None:
    """Write the rows of ``plain`` to ``quoted`` with every field quoted
    and CRLF line ends.
    """
    with open(plain, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    with open(quoted, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh, quoting=csv.QUOTE_ALL, lineterminator="\r\n").writerows(rows)


def _assert_same_trees(one: Path, two: Path) -> None:
    files = sorted(os.listdir(one))
    assert files == sorted(os.listdir(two))
    for name in files:
        if name != "config.json":  # echoes the differing --input and --out
            assert (one / name).read_bytes() == (two / name).read_bytes(), name


class TestQuotedInput:
    """Input that csv.reader reads otherwise than a split at line ends and
    delimiters, every field quoted and CRLF line ends, gives the artifacts
    of the same rows written plain.
    """

    def test_quoted_log(self, tmp_path):
        gen = tmp_path / "gen"
        args = ["generate", "--family", "session-log", "--size", "60", "--seed", "3"]
        assert run(args + ["--out", gen]) == 0
        with open(gen / "sessions.csv", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        # timestamps out of order for some users, and gaps to split at
        plain = tmp_path / "plain.csv"
        with open(plain, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerows(row + [str(k * 7919 % 20000)] for k, row in enumerate(rows))
        quoted = tmp_path / "quoted.csv"
        _quote_all(plain, quoted)
        assert b'"\r\n"' in quoted.read_bytes()
        commands = {
            "ingest": ["ingest"],
            "residual": ["ingest", "--mode", "residual"],
            "pipeline": ["pipeline", "--gap-seconds", "1800"],
        }
        for name, command in commands.items():
            caught = []
            for log in (plain, quoted):
                out = tmp_path / log.stem / name
                with warnings.catch_warnings(record=True) as record:
                    warnings.simplefilter("always")
                    assert run(command + ["--input", log, "--out", out]) == 0
                caught.append([(w.category, str(w.message)) for w in record])
            assert caught[0] == caught[1] and caught[0]
            _assert_same_trees(tmp_path / "plain" / name, tmp_path / "quoted" / name)

    def test_quoted_edge_file(self, tmp_path, network_dir):
        plain = network_dir / "network.csv"
        quoted = tmp_path / "quoted.csv"
        _quote_all(plain, quoted)
        assert quoted.read_bytes() != plain.read_bytes()
        for edges in (plain, quoted):
            assert run(["build", "--input", edges, "--out", tmp_path / edges.stem]) == 0
        _assert_same_trees(tmp_path / "network", tmp_path / "quoted")


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


    def test_ascii_locale_writes_utf8_bytes(self, tmp_path, child_env):
        """Non-ASCII labels under an ASCII locale: every command exits 0 and
        writes the bytes of the same run in UTF-8 mode.
        """
        rename = {"n01": "café", "n02": "東京"}
        log = generate(GeneratorSpec(family="session-log", size=40, seed=1))
        rows = [line.split(",") for line in serialize_log(log).splitlines()]
        text = "".join(f"{user},{rename.get(item, item)}\n" for user, item in rows)
        commands = [
            ["pipeline", "--input", "log.csv", "--out", "run"],
            ["fit", "--input", "run/stats.csv", "--out", "fit"],
            ["gini", "--input", "run/stats.csv", "--out", "gini"],
            ["zipf", "--input", "run/stats.csv", "--out", "zipf"],
        ]
        ascii_env = {
            **child_env,
            "LC_ALL": "C",
            "LANG": "C",
            "PYTHONUTF8": "0",
            "PYTHONCOERCECLOCALE": "0",
        }
        trees = []
        for name, env in (("utf8", {**child_env, "PYTHONUTF8": "1"}), ("ascii", ascii_env)):
            cwd = tmp_path / name
            cwd.mkdir()
            (cwd / "log.csv").write_text(text, encoding="utf-8")
            for argv in commands:
                proc = subprocess.run(
                    [sys.executable, "-m", "attnflow", *argv],
                    cwd=cwd,
                    env=env,
                    capture_output=True,
                )
                assert proc.returncode == 0, (name, argv, proc.stderr)
            files = sorted(p for p in cwd.rglob("*") if p.is_file())
            trees.append({str(p.relative_to(cwd)): p.read_bytes() for p in files})
        assert trees[0] == trees[1]
        assert "東京".encode() in trees[0]["run/stats.csv"]


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


class TestWarningLines:
    """A library warning prints as one ``Name: message`` line, the shape of
    an error line, with no file, line number or source line."""

    def _stderr(self, tmp_path, child_env, argv):
        proc = subprocess.run(
            [sys.executable, "-m", "attnflow", *map(str, argv)],
            cwd=tmp_path,
            env={**child_env, "PYTHONWARNINGS": ""},
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        return proc.stderr

    def test_dropped_nodes(self, tmp_path, child_env):
        edges = tmp_path / "edges.csv"
        edges.write_text("src,dst,weight\n__source__,a,1\na,__sink__,1\nc1,c2,1\nc2,c1,1\n")
        err = self._stderr(tmp_path, child_env, ["build", "--input", edges, "--out", "b"])
        assert err == "DroppedNodesWarning: dropped 2 uncertified node(s)\n"

    def test_out_of_order_timestamps(self, tmp_path, child_env):
        log = tmp_path / "log.csv"
        log.write_text("u1,a,5\nu1,b,3\nu2,a,1\nu3,b,9\nu3,a,2\n")
        err = self._stderr(tmp_path, child_env, ["ingest", "--input", log, "--out", "i"])
        assert err == (
            "NonMonotonicTimestampsWarning: user 'u1': timestamps not non-decreasing; re-sorting\n"
            "NonMonotonicTimestampsWarning: user 'u3': timestamps not non-decreasing; re-sorting\n"
        )

    def test_main_leaves_the_warning_state_as_found(self, tmp_path):
        edges = tmp_path / "edges.csv"
        edges.write_text("src,dst,weight\n__source__,a,1\na,__sink__,1\nc1,c2,1\nc2,c1,1\n")
        before = (warnings.formatwarning, warnings.showwarning, list(warnings.filters))
        with pytest.warns(Warning, match="dropped 2 "):
            assert run(["build", "--input", edges, "--out", tmp_path / "b"]) == 0
        assert (warnings.formatwarning, warnings.showwarning, list(warnings.filters)) == before
