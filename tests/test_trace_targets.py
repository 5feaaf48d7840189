"""The benchmark's trace targets (``perfbench/tracing.py``) name live
attributes of the package, so a rename fails here instead of silently
dropping the benchmark's per-layer metrics. Nothing is wrapped in this
process; the one traced run happens in a child process.
"""
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

from attnflow import parse_log, sessionize
from attnflow._linalg import _DENSE_ROUTE_MAX

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"

#: Installs the benchmark's tracer on every target, runs ``pipeline`` on a
#: session log whose giant SCC (about 560 nodes) takes the shifted factor
#: and its selected inversion, and prints what the tracer saw.
_TRACED_PIPELINE = """
import json, sys
sys.path.insert(0, sys.argv[1])
import inputs
from tracing import TARGETS, Tracer, layer_metrics
import attnflow.cli as cli

log = sys.argv[2] + "/sessions.csv"
info = inputs.session_log(log, 1, 600)
tracer = Tracer()
tracer.install(TARGETS)
code = cli.main(["pipeline", "--input", log, "--out", sys.argv[2] + "/out",
                 "--gap-seconds", str(info["gap_seconds"])])
print(json.dumps({"code": code, "missing": tracer.missing, "input": info,
                  "spans": sorted({span["name"] for span in tracer.spans}),
                  "metrics": layer_metrics(tracer.spans, tracer.counters)}))
"""


def _load_tracing():
    spec = importlib.util.spec_from_file_location("_perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _load_tracing()


@pytest.mark.parametrize("target", [target for target, _, _ in tracing.TARGETS])
def test_trace_target_resolves(target):
    owner_name, _, attr = target.rpartition(".")
    owner = tracing._resolve(owner_name)
    assert owner is not None, f"{owner_name} does not resolve"
    value = getattr(owner, attr, None)
    assert callable(value), f"{target} is missing"
    if not isinstance(owner, type):
        # a module-level target that is a class would be rebound as a whole
        assert not isinstance(value, type), f"{target} is a class, not a function"


def _count_calls(monkeypatch, module, names) -> dict[str, int]:
    """Replace each named module global with a wrapper that counts its calls."""
    calls = dict.fromkeys(names, 0)
    for name in names:
        def counted(*args, _name=name, _original=getattr(module, name), **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    return calls


def test_network_work_runs_inside_traced_functions(monkeypatch, tmp_path):
    """The ``network.*`` spans cover reading, building, balancing, checking
    and pruning: each runs through the module global the tracer wraps.
    """
    import attnflow.network as network

    path = tmp_path / "edges.csv"
    path.write_text("src,dst,weight\n__source__,a,1\na,__sink__,1\nc1,c2,1\nc2,c1,1\n")
    calls = _count_calls(monkeypatch, network, ("read_edges", "build_flow_network"))
    net = network.read_network(path)
    assert calls == {"read_edges": 1, "build_flow_network": 1}

    calls = _count_calls(monkeypatch, network, ("balance", "validate", "drop_uncertified"))
    with pytest.warns(network.DroppedNodesWarning):
        pruned, report = network.certify(net)
    assert report.certified and pruned.items == ("a",)
    # certify: balance, validate, prune (its one rebuild is balanced), validate
    assert calls == {"balance": 2, "validate": 2, "drop_uncertified": 1}


def test_traced_pipeline_records_every_layer(tmp_path, child_env, duplication_by_dicts):
    """A refactor cannot silently blank the per-layer metrics: under the
    benchmark's tracer every target resolves, the parse, sessionize, edge,
    build, duplication and diagonals spans are recorded, the largest-SCC
    counter reads a giant SCC above the dense route's cut, and the ingest
    and duplication counters read what the input holds and what the
    dict-loop filter keeps of it.
    """
    proc = subprocess.run(
        [sys.executable, "-c", _TRACED_PIPELINE, str(TRACING.parent), str(tmp_path)],
        env=child_env, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    seen = json.loads(proc.stdout.splitlines()[-1])
    assert seen["code"] == 0
    assert seen["missing"] == []
    assert {
        "ingest.parse_log", "ingest.sessionize", "ingest.to_transition_edges", "network.build",
        "stats.duplication", "linalg.diagonals",
    } <= set(seen["spans"])
    metrics = seen["metrics"]
    assert metrics["linalg.largest_scc"] > _DENSE_ROUTE_MAX
    assert metrics["ingest.records"] == seen["input"]["records"]
    assert metrics["ingest.sessions"] == seen["input"]["sessions"]

    with open(tmp_path / "sessions.csv", "rb") as fh:
        log = sessionize(parse_log(fh), seen["input"]["gap_seconds"])
    ref = duplication_by_dicts(log)
    assert metrics["stats.dup_retained_frac"] == len(ref["kept"]) / len(ref["observed"])
