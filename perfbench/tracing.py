"""Spans recorded from outside the program, and the per-layer metrics
computed from them.

:func:`install` wraps module-level public names of ``attnflow`` (and
methods of its solver class), looked up by dotted name. A wrapped function
is rebound in every ``attnflow`` module that imported it by name, so calls
made through ``from .x import f`` are traced too. Spans stay in memory
with name, start, end, parent and peak-RSS rise; counters are read from
arguments and results after a span closes, so reading them costs no span
time. A target that cannot be found is recorded as missing, not raised.
"""
from __future__ import annotations

import functools
import importlib
import resource
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

import numpy as np
from scipy.sparse.csgraph import connected_components


def _max_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.missing: list[str] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        record = {"name": name, "parent": self._stack[-1] if self._stack else None}
        self.spans.append(record)
        self._stack.append(index)
        rss = _max_rss_mb()
        record["start"] = time.perf_counter()
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            record["rss_rise_mb"] = _max_rss_mb() - rss
            self._stack.pop()

    def wrap(self, func, name: str, count=None):
        @functools.wraps(func)
        def traced(*args, **kwargs):
            with self.span(name):
                result = func(*args, **kwargs)
            if count is not None:
                count(self.counters, result, args)
            return result

        return traced

    def install(self, targets) -> None:
        for target, name, count in targets:
            module_name, _, attr = target.rpartition(".")
            owner = _resolve(module_name)
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                self.missing.append(target)
                continue
            traced = self.wrap(original, name, count)
            if isinstance(owner, type):
                setattr(owner, attr, traced)
                continue
            for mod_name, module in list(sys.modules.items()):
                if mod_name != "attnflow" and not mod_name.startswith("attnflow."):
                    continue
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, traced)


def _resolve(dotted: str):
    """Module, or class inside a module, named by ``dotted``; None if absent."""
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for part in parts[cut:]:
            obj = getattr(obj, part, None)
            if obj is None:
                return None
        return obj
    return None


# --- counters read after a span closes ------------------------------------

def _records(c, log, args):
    c["ingest.records"] += log.n_records


def _sessions(c, log, args):
    c["ingest.sessions"] = log.n_sessions


def _edges(c, net, args):
    c["network.edges"] = max(c["network.edges"], net.n_edges)


def _dropped(c, net, args):
    c["network.dropped_nodes"] += args[0].n_interior - net.n_interior


def _solver_n(c, _, args):
    c["linalg.n"] = max(c["linalg.n"], args[0].n)


def _largest_scc(c, _, args):
    W = args[0]
    if W.shape[0]:
        _, labels = connected_components(W, directed=True, connection="strong")
        c["linalg.largest_scc"] = max(c["linalg.largest_scc"], int(np.bincount(labels).max()))


def _finite_frac(c, l0, args):
    c["distance.finite_frac"] = float(np.isfinite(l0).mean()) if l0.size else 1.0


def _retained(c, report, args):
    c["stats.dup_retained_frac"] = report.retained_fraction()


def _walker_steps(c, est, args):
    # every step lands on an interior node or on the sink
    c["oracle.walker_steps"] += float(est.visit_sum.sum() + est.absorption.sum())
    c["oracle.cap_exceeded"] += est.cap_exceeded


def _pass_frac(c, report, args):
    c["oracle.pass_frac"] = report.overall_pass_fraction


#: (dotted target, span name, counter) for every wrapped boundary.
TARGETS = (
    ("attnflow.ingest.parse_log", "ingest.parse_log", _records),
    ("attnflow.ingest.sessionize", "ingest.sessionize", _sessions),
    ("attnflow.ingest.to_transition_edges", "ingest.to_transition_edges", None),
    ("attnflow.network.read_edges", "network.read", None),
    ("attnflow.network.build_flow_network", "network.build", _edges),
    ("attnflow.network.balance", "network.balance", None),
    ("attnflow.network.validate", "network.validate", None),
    ("attnflow.network.drop_uncertified", "network.drop_uncertified", _dropped),
    ("attnflow.network.write_network", "network.write", None),
    ("attnflow.network.write_edges", "network.write", None),
    ("attnflow.flowcalc.transition_matrix", "flowcalc.transition_matrix", None),
    ("attnflow.flowcalc.fundamental_matrix", "flowcalc.fundamental_matrix", None),
    ("attnflow.flowcalc.node_flows", "flowcalc.node_flows", None),
    ("attnflow.flowcalc.write_stats_csv", "flowcalc.write_stats", None),
    ("attnflow.flowcalc.AbsorbingSolver.__init__", "linalg.factor", _solver_n),
    ("attnflow.flowcalc.AbsorbingSolver.solve", "linalg.solve", None),
    ("attnflow.flowcalc.AbsorbingSolver.solve_transpose", "linalg.solve", None),
    ("attnflow.flowcalc.fundamental_diagonals", "linalg.diagonals", _largest_scc),
    ("attnflow.distance.source_distances", "distance.source_distances", _finite_frac),
    ("attnflow.distance.write_source_distances", "distance.write", None),
    ("attnflow.stats.fit_power_law", "stats.fits", None),
    ("attnflow.stats.gini", "stats.gini", None),
    ("attnflow.stats.concentration", "stats.zipf", None),
    ("attnflow.stats.regression_feature_table", "stats.regress", None),
    ("attnflow.stats.ols_regress", "stats.regress", None),
    ("attnflow.stats.duplication_filter", "stats.duplication", _retained),
    ("attnflow.stats.write_zipf_csv", "stats.write", None),
    ("attnflow.stats.write_duplication_csv", "stats.write", None),
    ("attnflow.oracle.generate", "oracle.generate", None),
    ("attnflow.oracle.simulate_walkers", "oracle.simulate", _walker_steps),
    ("attnflow.oracle.compare", "oracle.compare", _pass_frac),
)

LAYERS = ("cli", "ingest", "network", "flowcalc", "linalg", "distance", "stats", "oracle")


def _layer(name: str) -> str:
    return name.partition(".")[0]


def _has_ancestor(spans, index: int, same) -> bool:
    parent = spans[index]["parent"]
    while parent is not None:
        if same(spans[parent]):
            return True
        parent = spans[parent]["parent"]
    return False


def aggregate(spans: list[dict]) -> dict:
    """Span totals and counts, per-name and per-layer self times, and
    per-layer RSS rise, from one traced child process.

    A name's total counts only its outermost spans, so a recursive or
    nested call is not counted twice. Self time is a span's duration minus
    the durations of its direct children.
    """
    total: dict[str, float] = defaultdict(float)
    self_by_name: dict[str, float] = defaultdict(float)
    self_by_layer: dict[str, float] = defaultdict(float)
    rss_by_layer: dict[str, float] = defaultdict(float)
    child_time = [0.0] * len(spans)
    for span in spans:
        if span["parent"] is not None:
            child_time[span["parent"]] += span["end"] - span["start"]
    for i, span in enumerate(spans):
        name, layer = span["name"], _layer(span["name"])
        duration = span["end"] - span["start"]
        if not _has_ancestor(spans, i, lambda s: s["name"] == name):
            total[name] += duration
        self_time = duration - child_time[i]
        self_by_name[name] += self_time
        self_by_layer[layer] += self_time
        if not _has_ancestor(spans, i, lambda s: _layer(s["name"]) == layer):
            rss_by_layer[layer] += span["rss_rise_mb"]
    return {
        "total": dict(total),
        "calls": Counter(span["name"] for span in spans),
        "self_by_name": dict(self_by_name),
        "self_by_layer": dict(self_by_layer),
        "rss_by_layer": dict(rss_by_layer),
    }


def layer_metrics(spans: list[dict], counters: dict) -> dict[str, float]:
    """Every per-layer metric of one traced child process, by name."""
    agg = aggregate(spans)
    metrics: dict[str, float] = {}
    for name in sorted({n for _, n, _ in TARGETS} | {"cli.pipeline", "cli.generate",
                                                     "cli.simulate", "cli.compare"}):
        metrics[f"{name}_s"] = agg["total"].get(name, 0.0)
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = agg["self_by_layer"].get(layer, 0.0)
    for layer in ("network", "linalg", "oracle"):
        metrics[f"{layer}.rss_rise_mb"] = agg["rss_by_layer"].get(layer, 0.0)
    for key, name in (("network.validate_calls", "network.validate"),
                      ("linalg.solve_calls", "linalg.solve"), ("stats.fit_calls", "stats.fits")):
        metrics[key] = float(agg["calls"][name])
    for key in ("ingest.records", "ingest.sessions", "network.dropped_nodes", "network.edges",
                "linalg.n", "linalg.largest_scc", "distance.finite_frac",
                "stats.dup_retained_frac", "oracle.walker_steps", "oracle.cap_exceeded",
                "oracle.pass_frac"):
        metrics[key] = float(counters.get(key, 0.0))
    simulate_s = metrics["oracle.simulate_s"]
    metrics["oracle.steps_per_s"] = metrics["oracle.walker_steps"] / simulate_s if simulate_s else 0.0
    return metrics
