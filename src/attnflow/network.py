"""Weighted directed flow networks balanced by reserved source/sink nodes.

A :class:`FlowNetwork` stores non-negative flow weights over dense node
indices: 0 is the external source, ``1..N`` are interior nodes (real items),
``N+1`` is the external sink. Construction, the balancing rule (source feeds
any out-flow surplus, sink absorbs any in-flow surplus), reachability
validation, and the CSV/JSON wire formats all live here.
"""
from __future__ import annotations

import csv
import json
import math
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import breadth_first_order

from .errors import (
    AllNodesDropped,
    AttnFlowError,
    DroppedNodesWarning,
    InvalidEdge,
    NegativeWeight,
    NotCertified,
    SelfEdgeOnSourceOrSink,
)

#: Reserved node tokens; rejected as item ids at parse time.
SOURCE = "__source__"
SINK = "__sink__"

#: Absolute per-node conservation slack accepted for real-valued weights.
#: Integer-valued weights must balance exactly (float64 keeps them exact).
BALANCE_TOL = 1e-9

# Relative slack below which balance() leaves a node alone; keeps the
# operation idempotent on real weights without adding ulp-sized edges.
# It never exceeds BALANCE_TOL, so every node validate() would reject
# for its residual gets a compensation edge.
_REBALANCE_EPS = 1e-12


@dataclass(frozen=True, eq=False)
class FlowNetwork:
    """Immutable flow matrix plus the item labels of its interior nodes."""

    items: tuple[str, ...]
    flow: sp.csr_matrix  # (N+2) x (N+2), weights >= 0

    @property
    def n_interior(self) -> int:
        return len(self.items)

    @property
    def source_index(self) -> int:
        return 0

    @property
    def sink_index(self) -> int:
        return len(self.items) + 1

    @property
    def node_table(self) -> dict[str, int]:
        table = {SOURCE: 0}
        table.update({item: i + 1 for i, item in enumerate(self.items)})
        table[SINK] = self.sink_index
        return table

    @property
    def n_edges(self) -> int:
        return int(self.flow.nnz)

    def label(self, index: int) -> str:
        if index == 0:
            return SOURCE
        if index == self.sink_index:
            return SINK
        return self.items[index - 1]

    def out_flow(self) -> np.ndarray:
        return np.asarray(self.flow.sum(axis=1)).ravel()

    def in_flow(self) -> np.ndarray:
        return np.asarray(self.flow.sum(axis=0)).ravel()

    def residuals(self) -> np.ndarray:
        """Signed out-minus-in imbalance for every interior node."""
        out = self.out_flow()[1:-1]
        inn = self.in_flow()[1:-1]
        return out - inn

    @property
    def balanced(self) -> bool:
        """Every interior node conserves flow to within ``BALANCE_TOL``."""
        return bool(np.all(np.abs(self.residuals()) <= BALANCE_TOL))

    def total_source_outflow(self) -> float:
        return float(self.flow[0].sum())

    def edges(self):
        """Iterate ``(src_label, dst_label, weight)`` sorted by (row, col)."""
        coo = self.flow.tocoo()
        order = np.lexsort((coo.col, coo.row))
        labels = np.array((SOURCE, *self.items, SINK), dtype=object)
        return zip(
            labels[coo.row[order]].tolist(),
            labels[coo.col[order]].tolist(),
            coo.data[order].tolist(),
        )


def _check_edge(src: str, dst: str, weight: float) -> None:
    """Raise the typed error for an edge no network may hold."""
    if not math.isfinite(weight):
        raise InvalidEdge(f"edge {src}->{dst} has non-finite weight {weight}")
    if weight < 0:
        raise NegativeWeight(f"edge {src}->{dst} has weight {weight}")
    if src == dst and src in (SOURCE, SINK):
        raise SelfEdgeOnSourceOrSink(f"self-loop on reserved node {src}")
    if dst == SOURCE:
        raise InvalidEdge(f"edge {src}->{dst}: no flow may enter {SOURCE}")
    if src == SINK:
        raise InvalidEdge(f"edge {src}->{dst}: no flow may leave {SINK}")


def build_flow_network(edges) -> FlowNetwork:
    """Assemble a FlowNetwork from a weighted edge list.

    ``edges`` is either a mapping ``(src, dst) -> weight`` or an iterable of
    ``(src, dst, weight)`` triples. Duplicate edges are merged by summing.
    Interior node indices follow first appearance in the edge list, so the
    same input always produces the same network.
    """
    if hasattr(edges, "items"):
        triples = ((s, d, w) for (s, d), w in edges.items())
    else:
        triples = iter(edges)

    index: dict[str, int] = {}
    rows: list[int] = []
    cols: list[int] = []
    data: list[float] = []

    def interior_id(label: str) -> int:
        if label not in index:
            index[label] = len(index)
        return index[label]

    staged: list[tuple[str, str, float]] = []
    for src, dst, weight in triples:
        weight = float(weight)
        _check_edge(src, dst, weight)
        if weight == 0.0:
            continue
        if src != SOURCE:
            interior_id(src)
        if dst != SINK:
            interior_id(dst)
        staged.append((src, dst, weight))

    if not staged:
        raise InvalidEdge("edge list is empty")

    n = len(index)
    for src, dst, weight in staged:
        r = 0 if src == SOURCE else index[src] + 1
        c = n + 1 if dst == SINK else index[dst] + 1
        rows.append(r)
        cols.append(c)
        data.append(weight)

    flow = sp.coo_matrix((data, (rows, cols)), shape=(n + 2, n + 2)).tocsr()
    flow.sum_duplicates()
    return FlowNetwork(items=tuple(index), flow=flow)  # insertion order


def balance(net: FlowNetwork) -> FlowNetwork:
    """Close every interior node's flow budget with source/sink edges.

    A node whose out-flow exceeds its in-flow receives the difference from
    the source; a node whose in-flow exceeds its out-flow sends the
    difference to the sink. Compensation edges merge with existing ones.
    Idempotent: a balanced network is returned unchanged.
    """
    res = net.residuals()
    out = net.out_flow()[1:-1]
    inn = net.in_flow()[1:-1]
    scale = np.maximum(1.0, np.maximum(out, inn))
    needs = np.abs(res) > np.minimum(_REBALANCE_EPS * scale, BALANCE_TOL)
    if not np.any(needs):
        return net

    add = sp.lil_matrix(net.flow.shape)
    for i in np.flatnonzero(needs):
        node = i + 1
        if res[i] > 0:  # out-flow surplus: feed it from the source
            add[0, node] = res[i]
        else:  # in-flow surplus: drain it to the sink
            add[node, net.sink_index] = -res[i]
    flow = (net.flow + add.tocsr()).tocsr()
    flow.sum_duplicates()
    return FlowNetwork(items=net.items, flow=flow)


@dataclass(frozen=True)
class ValidationReport:
    """Certification diagnostics for a flow network."""

    unreachable_from_source: tuple[str, ...]
    cannot_reach_sink: tuple[str, ...]
    residuals: np.ndarray  # per interior node, signed out - in
    max_residual: float
    certified: bool

    def to_dict(self) -> dict:
        return {
            "unreachable_from_source": list(self.unreachable_from_source),
            "cannot_reach_sink": list(self.cannot_reach_sink),
            "max_residual": self.max_residual,
            "certified": self.certified,
        }


def reachable(pattern: sp.csr_matrix, start: int) -> np.ndarray:
    """Boolean mask of the nodes a BFS from ``start`` reaches, ``start`` included."""
    order = breadth_first_order(pattern, start, directed=True, return_predecessors=False)
    mask = np.zeros(pattern.shape[0], dtype=bool)
    mask[order] = True
    return mask


def validate(net: FlowNetwork) -> ValidationReport:
    """Diagnostic pass: reachability from source, reachability of sink, and
    per-node conservation residuals. Certification requires all three clean.
    """
    pattern = net.flow.copy().tocsr()
    pattern.eliminate_zeros()
    from_source = reachable(pattern, net.source_index)
    to_sink = reachable(pattern.T.tocsr(), net.sink_index)

    unreachable = tuple(
        net.items[i - 1] for i in range(1, net.sink_index) if not from_source[i]
    )
    trapped = tuple(
        net.items[i - 1] for i in range(1, net.sink_index) if not to_sink[i]
    )
    res = net.residuals()
    max_res = float(np.max(np.abs(res))) if res.size else 0.0
    certified = not unreachable and not trapped and max_res <= BALANCE_TOL
    return ValidationReport(
        unreachable_from_source=unreachable,
        cannot_reach_sink=trapped,
        residuals=res,
        max_residual=max_res,
        certified=certified,
    )


def drop_uncertified(net: FlowNetwork, report: ValidationReport) -> FlowNetwork:
    """Remove unreachable and trapped nodes, then re-balance.

    Dropping a node can orphan neighbours, so the prune repeats until the
    remainder certifies. Raises :class:`AllNodesDropped` if nothing survives.
    """
    dropped_total = 0
    current = net
    while True:
        bad = set(report.unreachable_from_source) | set(report.cannot_reach_sink)
        if not bad:
            if dropped_total:
                warnings.warn(
                    f"dropped {dropped_total} uncertified node(s)", DroppedNodesWarning
                )
            return current
        dropped_total += len(bad)
        kept = {
            (s, d): w
            for s, d, w in current.edges()
            if s not in bad and d not in bad
        }
        if not kept:
            raise AllNodesDropped(f"all {dropped_total} node(s) were uncertified")
        current = balance(build_flow_network(kept))
        report = validate(current)


def certify(net: FlowNetwork) -> tuple[FlowNetwork, ValidationReport]:
    """Balance, validate, and prune until the network certifies.

    Raises :class:`NotCertified` if the residuals still exceed
    ``BALANCE_TOL`` after that, as float rounding can leave them on
    networks with very large weights.
    """
    net = balance(net)
    report = validate(net)
    if not report.certified:
        net = drop_uncertified(net, report)
        report = validate(net)
    if not report.certified:
        raise NotCertified(
            f"network does not certify after balancing: max residual "
            f"{report.max_residual:.3g} exceeds {BALANCE_TOL:g}"
        )
    return net, report


# --- wire formats ----------------------------------------------------------

def write_edges(path, edges) -> None:
    """Write ``src,dst,weight`` CSV. ``edges`` as in build_flow_network."""
    if hasattr(edges, "items"):
        triples = ((s, d, w) for (s, d), w in edges.items())
    else:
        triples = iter(edges)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["src", "dst", "weight"])
        writer.writerows((s, d, repr(float(w))) for s, d, w in triples)


def read_edges(path) -> dict[tuple[str, str], float]:
    """Read ``src,dst,weight`` CSV, summing duplicate edges.

    Raises :class:`InvalidEdge` naming the file and 1-based line for a row
    without exactly three columns or with a non-numeric or non-finite weight,
    and for any other row the error :func:`_check_edge` raises, so prefixed.
    """
    edges: dict[tuple[str, str], float] = {}
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise InvalidEdge(f"{path}: empty edge file")
        for row in reader:
            if len(row) != 3:
                raise InvalidEdge(
                    f"{path}:{reader.line_num}: expected 3 columns, got {len(row)}"
                )
            try:
                weight = float(row[2])
            except ValueError:
                raise InvalidEdge(
                    f"{path}:{reader.line_num}: weight {row[2]!r} is not a number"
                ) from None
            if not math.isfinite(weight):
                raise InvalidEdge(
                    f"{path}:{reader.line_num}: weight {row[2]!r} is not finite"
                )
            try:
                _check_edge(row[0], row[1], weight)
            except AttnFlowError as exc:
                raise type(exc)(f"{path}:{reader.line_num}: {exc}") from None
            key = (row[0], row[1])
            edges[key] = edges.get(key, 0.0) + weight
    return edges


def write_network(net: FlowNetwork, csv_path, json_path=None,
                  report: ValidationReport | None = None) -> None:
    """Serialize a network to edge CSV plus a JSON sidecar."""
    write_edges(csv_path, net.edges())
    if json_path is not None:
        sidecar = {
            "schema_version": 1,
            "node_table": net.node_table,
            "n_interior": net.n_interior,
            "n_edges": net.n_edges,
            "balanced": net.balanced,
        }
        if report is not None:
            sidecar["validation"] = report.to_dict()
        with open(json_path, "w", encoding="utf-8") as fh:
            json.dump(sidecar, fh, indent=2, sort_keys=True)
            fh.write("\n")


def read_network(csv_path) -> FlowNetwork:
    return build_flow_network(read_edges(csv_path))
