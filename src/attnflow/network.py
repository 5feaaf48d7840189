"""Weighted directed flow networks balanced by reserved source/sink nodes.

A :class:`FlowNetwork` stores non-negative flow weights over dense node
indices: 0 is the external source, ``1..N`` are interior nodes (real items),
``N+1`` is the external sink. Construction, the balancing rule (source feeds
any out-flow surplus, sink absorbs any in-flow surplus), reachability
validation, and the UTF-8 CSV/JSON artifact format of every module live here.
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

    def _labels(self) -> np.ndarray:
        """Object array of every node's label, indexed like the flow matrix."""
        return np.array((SOURCE, *self.items, SINK), dtype=object)

    def _edge_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Row, column and weight arrays of every edge, sorted by (row, col)."""
        coo = self.flow.tocoo()
        order = np.lexsort((coo.col, coo.row))
        return coo.row[order], coo.col[order], coo.data[order]

    def edges(self):
        """Iterate ``(src_label, dst_label, weight)`` sorted by (row, col)."""
        rows, cols, weights = self._edge_arrays()
        labels = self._labels()
        return zip(labels[rows].tolist(), labels[cols].tolist(), weights.tolist())


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


def _triples(edges):
    """``(src, dst, weight)`` triples from a mapping ``(src, dst) -> weight``
    or from an iterable of triples.
    """
    if hasattr(edges, "items"):
        return ((s, d, w) for (s, d), w in edges.items())
    return iter(edges)


def build_flow_network(edges) -> FlowNetwork:
    """Assemble a FlowNetwork from a weighted edge list.

    ``edges`` is either a mapping ``(src, dst) -> weight`` or an iterable of
    ``(src, dst, weight)`` triples. Duplicate edges are merged by summing.
    Interior node indices follow first appearance in the edge list, so the
    same input always produces the same network.
    """
    triples = list(_triples(edges))
    ends = np.empty((len(triples), 2), dtype=object)
    ends[:, 0] = [s for s, _, _ in triples]
    ends[:, 1] = [d for _, d, _ in triples]
    weight = np.array([w for _, _, w in triples], dtype=float)

    # _check_edge raises for exactly these edges; the first one in input
    # order names the error
    bad = ~np.isfinite(weight) | (weight < 0) | (ends[:, 1] == SOURCE) | (ends[:, 0] == SINK)
    if bad.any():
        first = int(np.argmax(bad))
        _check_edge(ends[first, 0], ends[first, 1], float(weight[first]))

    nonzero = weight != 0.0
    ends, weight = ends[nonzero], weight[nonzero]
    if not weight.size:
        raise InvalidEdge("edge list is empty")

    # interior nodes in order of first appearance over src0, dst0, src1, ...
    labels = ends.ravel().tolist()
    first_seen = dict.fromkeys(labels)
    first_seen.pop(SOURCE, None)
    first_seen.pop(SINK, None)
    items = tuple(first_seen)
    index = {label: i for i, label in enumerate((SOURCE, *items, SINK))}
    codes = np.fromiter(map(index.__getitem__, labels), dtype=np.intp, count=len(labels))

    n = len(items)
    flow = sp.coo_matrix((weight, (codes[0::2], codes[1::2])), shape=(n + 2, n + 2)).tocsr()
    flow.sum_duplicates()
    return FlowNetwork(items=items, flow=flow)


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

    node = np.flatnonzero(needs) + 1
    surplus = res[needs]
    fed = surplus > 0  # out-flow surplus: feed it from the source, else drain to the sink
    rows = np.where(fed, 0, node)
    cols = np.where(fed, node, net.sink_index)
    add = sp.coo_matrix((np.abs(surplus), (rows, cols)), shape=net.flow.shape)
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

    items = net._labels()[1:-1]
    unreachable = tuple(items[~from_source[1:-1]].tolist())
    trapped = tuple(items[~to_sink[1:-1]].tolist())
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
        table = current.node_table
        dead = np.zeros(len(table), dtype=bool)
        dead[[table[label] for label in bad]] = True
        rows, cols, weights = current._edge_arrays()
        kept = ~(dead[rows] | dead[cols])
        if not kept.any():
            raise AllNodesDropped(f"all {dropped_total} node(s) were uncertified")
        labels = current._labels()
        src, dst = labels[rows[kept]].tolist(), labels[cols[kept]].tolist()
        current = balance(build_flow_network(zip(src, dst, weights[kept].tolist())))
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

def cell(x) -> str:
    """A float at ``repr`` precision, or the empty cell for NaN (no value)."""
    x = float(x)
    return "" if math.isnan(x) else repr(x)


def write_csv(path, header, rows) -> None:
    """Write a UTF-8 CSV artifact whose rows end in LF."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def write_json(path, obj) -> None:
    """Write a JSON artifact: sorted keys, two-space indent, final newline."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_edges(path, edges) -> None:
    """Write ``src,dst,weight`` CSV. ``edges`` as in build_flow_network.
    Unlike the other artifacts its rows end in CRLF, the csv default.
    """
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["src", "dst", "weight"])
        writer.writerows((s, d, repr(float(w))) for s, d, w in _triples(edges))


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
        write_json(json_path, sidecar)


def read_network(csv_path) -> FlowNetwork:
    return build_flow_network(read_edges(csv_path))
