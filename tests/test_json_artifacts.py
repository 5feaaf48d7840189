"""Every JSON artifact the commands write is strict JSON: Python's json
writes a non-finite float as ``NaN`` or ``Infinity``, which JSON has no
value for and strict readers refuse.
"""
import json
import warnings

import pytest

from attnflow.cli import main
from attnflow.errors import DroppedNodesWarning

#: Source to sink directly, and a 2-cycle that certification prunes, so no
#: interior node is left.
ALL_PRUNED = "src,dst,weight\n__source__,__sink__,1\nc1,c2,1\nc2,c1,1\n"
#: Two parallel nodes; one walker visits only one of them.
PARALLEL = "src,dst,weight\n__source__,a,1\n__source__,b,1\na,__sink__,1\nb,__sink__,1\n"
LOG = "u1,A\nu1,B\nu1,A\nu2,A\nu2,C\nu3,B\n"


def _strict_json(path):
    def refuse(constant):
        raise ValueError(f"{path.name} holds {constant}, which is not JSON")

    return json.loads(path.read_text(encoding="utf-8"), parse_constant=refuse)


def _run(*args) -> None:
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DroppedNodesWarning)
        assert main([str(a) for a in args]) == 0, args


def _audit(tmp_path):
    """compare with 10 walkers on a generated network: deterministic tallies
    that miss the analytic value, whose z is infinite.
    """
    _run("generate", "--family", "random-cyclic", "--size", 50, "--seed", 1,
         "--out", tmp_path / "gen")
    network = tmp_path / "gen" / "network.csv"
    _run("simulate", "--walkers", 10, "--input", network, "--out", tmp_path / "sim")
    _run("compare", "--walkers", 10, "--input", network, "--out", tmp_path / "cmp")
    _run("compare", "--tallies", tmp_path / "sim" / "tallies.json", "--input", network,
         "--out", tmp_path / "cmp-tallies")
    worst = _strict_json(tmp_path / "cmp" / "compare.json")["worst"]
    assert None in [offender["z"] for offender in worst]


def _all_pruned(tmp_path):
    """A network whose interior is all pruned: pass fractions over no nodes."""
    network = tmp_path / "network.csv"
    network.write_text(ALL_PRUNED)
    _run("compare", "--walkers", 10, "--input", network, "--out", tmp_path / "cmp")
    _run("simulate", "--walkers", 10, "--input", network, "--out", tmp_path / "sim")
    _run("pipeline", "--input", network, "--input-kind", "network", "--out", tmp_path / "run")
    report = _strict_json(tmp_path / "cmp" / "compare.json")
    assert report["pass_fraction"] == {"A": 1.0, "D": 1.0, "l": 1.0}
    assert report["overall_pass_fraction"] == 1.0 and report["passed"] is True


def _unvisited(tmp_path):
    """One walker: the node it misses has no source-distance estimate."""
    network = tmp_path / "network.csv"
    network.write_text(PARALLEL)
    _run("compare", "--walkers", 1, "--seed", 5, "--input", network, "--out", tmp_path / "cmp")
    worst = _strict_json(tmp_path / "cmp" / "compare.json")["worst"]
    assert None in [offender["estimated"] for offender in worst]


def _logs(tmp_path):
    """Every log and network command on a generated session log, and
    pipeline on a three-item log, where the fits fail.
    """
    _run("generate", "--family", "session-log", "--size", 120, "--seed", 5,
         "--out", tmp_path / "gen")
    log = tmp_path / "gen" / "sessions.csv"
    _run("ingest", "--input", log, "--out", tmp_path / "ingest")
    _run("build", "--input", tmp_path / "ingest" / "edges.csv", "--out", tmp_path / "build")
    network = tmp_path / "build" / "network.csv"
    for name in ("stats", "regress"):
        _run(name, "--input", network, "--out", tmp_path / name)
    _run("distance", "--pairwise", "--input", network, "--out", tmp_path / "distance")
    _run("duplication", "--input", log, "--out", tmp_path / "duplication")
    stats_csv = tmp_path / "stats" / "stats.csv"
    _run("fit", "--input", stats_csv, "--out", tmp_path / "fit")
    for name in ("gini", "zipf"):
        _run(name, "--input", stats_csv, "--out", tmp_path / name)
    _run("pipeline", "--input", log, "--out", tmp_path / "run")
    tiny = tmp_path / "tiny.csv"
    tiny.write_text(LOG)
    _run("pipeline", "--input", tiny, "--out", tmp_path / "tiny-run")


@pytest.mark.parametrize("commands", [_audit, _all_pruned, _unvisited, _logs],
                         ids=lambda commands: commands.__name__.strip("_"))
def test_every_json_artifact_is_strict(tmp_path, commands):
    commands(tmp_path)
    paths = sorted(tmp_path.rglob("*.json"))
    assert paths
    for path in paths:
        _strict_json(path)
