"""Weighted directed flow networks balanced by reserved source/sink nodes.

A :class:`FlowNetwork` stores non-negative flow weights over dense node
indices: 0 is the external source, ``1..N`` are interior nodes (real items),
``N+1`` is the external sink. Construction, the balancing rule (source feeds
any out-flow surplus, sink absorbs any in-flow surplus), reachability
validation, and the UTF-8 CSV/JSON artifact format of every module live here.
"""
from __future__ import annotations

import csv
import io
import json
import math
import warnings
from collections.abc import Mapping
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, compress, repeat

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
        flow = self.flow.tocsr()
        if not flow.has_canonical_format:
            flow = flow.copy()
            flow.sum_duplicates()
        rows = np.repeat(np.arange(flow.shape[0], dtype=flow.indices.dtype), np.diff(flow.indptr))
        return rows, flow.indices, flow.data

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


def _bad_edges(codes: np.ndarray, weight: np.ndarray) -> np.ndarray:
    """Which edges :func:`_check_edge` raises for, from the ``(m, 2)`` codes
    of their ends (0 is SOURCE, 1 SINK) and their weights: weights that are
    not finite or are negative, edges into SOURCE and edges out of SINK.
    """
    return ~np.isfinite(weight) | (weight < 0) | (codes[:, 1] == 0) | (codes[:, 0] == 1)


def _label_codes(values: list, leading: tuple = ()) -> tuple[list, np.ndarray]:
    """``leading`` followed by every other value of ``values`` once, in
    order of first appearance, and the position in that list of each value
    of ``values``. The one first-appearance coder: of edge labels (with
    ``(SOURCE, SINK)`` leading), and of a log's users and items.
    """
    index = {label: i for i, label in enumerate(dict.fromkeys(chain(leading, values)))}
    codes = np.fromiter(map(index.__getitem__, values), dtype=np.intp, count=len(values))
    return list(index), codes


def _coded_edges(edges) -> tuple[list, np.ndarray, np.ndarray]:
    """Labels as :func:`_label_codes` lists them, SOURCE and SINK first,
    the ``(m, 2)`` codes of every edge's ends and the edges' float weights,
    from a mapping ``(src, dst) -> weight`` or an iterable of ``(src, dst,
    weight)`` triples.
    """
    if isinstance(edges, _EdgeRows) and tuple(edges.labels[:2]) == (SOURCE, SINK):
        return edges.labels, edges.codes, edges.weight.astype(float, copy=False)
    if hasattr(edges, "items"):
        ends = list(chain.from_iterable(edges))
        weight = np.fromiter(edges.values(), dtype=float, count=len(edges))
    else:
        triples = list(edges)
        ends = [label for s, d, _ in triples for label in (s, d)]
        weight = np.array([w for _, _, w in triples], dtype=float)
    labels, codes = _label_codes(ends, (SOURCE, SINK))
    return labels, codes.reshape(-1, 2), weight


def _raise_first(labels, codes: np.ndarray, weight: np.ndarray, bad: np.ndarray) -> None:
    """Raise :func:`_check_edge`'s error for the first edge ``bad`` marks, if any."""
    if bad.any():
        first = int(np.argmax(bad))
        src, dst = codes[first]
        _check_edge(labels[src], labels[dst], float(weight[first]))


def build_flow_network(edges) -> FlowNetwork:
    """Assemble a FlowNetwork from a weighted edge list.

    ``edges`` is either a mapping ``(src, dst) -> weight`` or an iterable of
    ``(src, dst, weight)`` triples. Every edge is checked in input order.
    Duplicate triples are summed in input order, each pair at its first
    triple, as a dict accumulating them would hold them, and pairs whose
    sum is zero are dropped. Interior node indices follow first appearance
    over the pairs that remain, so the triples build the network that
    :func:`read_network` reads from the same rows.
    """
    labels, codes, weight = _coded_edges(edges)
    _raise_first(labels, codes, weight, _bad_edges(codes, weight))
    if not hasattr(edges, "items"):  # a mapping holds each pair once
        merged = _edge_rows(labels, codes, weight)
        codes, weight = merged.codes, merged.weight
        # finite duplicates can sum past the largest float
        _raise_first(labels, codes, weight, ~np.isfinite(weight))

    nonzero = weight != 0.0
    codes, weight = codes[nonzero], weight[nonzero]
    if not weight.size:
        raise InvalidEdge("edge list is empty")

    # interior nodes in order of first appearance over src0, dst0, src1, ...:
    # mark each label's first position, then read the marked labels in order
    flat = codes.ravel()
    first = np.full(len(labels), flat.size)
    np.minimum.at(first, flat, np.arange(flat.size))
    marked = np.zeros(flat.size + 1, dtype=bool)  # the last slot takes unseen labels
    marked[first] = True
    interior = flat[marked[:-1] & (flat > 1)]
    items = tuple(map(labels.__getitem__, interior.tolist()))
    size = len(items) + 2
    index = np.zeros(len(labels), dtype=np.intp)  # SOURCE, and labels of dropped pairs
    index[1] = size - 1
    index[interior] = np.arange(1, size - 1)

    # the pairs are distinct, so sorted they are the CSR entries in (row, col) order
    pairs = index[codes[:, 0]] * size + index[codes[:, 1]]
    order = np.argsort(pairs)
    rows, cols = np.divmod(pairs[order], size)
    indptr = np.concatenate(([0], np.cumsum(np.bincount(rows, minlength=size))))
    flow = sp.csr_matrix((weight[order], cols, indptr), shape=(size, size))
    return FlowNetwork(items=items, flow=flow)


def balance(net: FlowNetwork) -> FlowNetwork:
    """Close every interior node's flow budget with source/sink edges.

    A node whose out-flow exceeds its in-flow receives the difference from
    the source; a node whose in-flow exceeds its out-flow sends the
    difference to the sink. Compensation edges merge with existing ones.
    Idempotent: a balanced network is returned unchanged.
    """
    out = net.out_flow()[1:-1]
    inn = net.in_flow()[1:-1]
    res = out - inn
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
    """Remove the unreachable and trapped nodes ``report`` names, then
    re-balance; interior nodes are numbered by first appearance in the kept
    edges' (row, col) order. Raises :class:`AllNodesDropped` if no edge survives.

    One prune suffices: a kept node is reachable from the source and reaches
    the sink, so every node on a path from the source to it, or from it to
    the sink, is kept too. Pruning removes no path of a kept node, and
    re-balancing only adds source and sink edges.
    """
    bad = set(report.unreachable_from_source) | set(report.cannot_reach_sink)
    if not bad:
        return net
    table = net.node_table
    dead = np.zeros(len(table), dtype=bool)
    dead[[table[label] for label in bad]] = True
    rows, cols, weights = net._edge_arrays()
    kept = ~(dead[rows] | dead[cols])
    if not kept.any():
        raise AllNodesDropped(f"all {len(bad)} node(s) were uncertified")
    # each node's code among the labels [SOURCE, SINK, *items]
    code = np.concatenate(([0], np.arange(2, net.n_interior + 2), [1]))
    codes = np.column_stack((code[rows[kept]], code[cols[kept]]))
    pruned = build_flow_network(_EdgeRows([SOURCE, SINK, *net.items], codes, weights[kept]))
    pruned = balance(pruned)
    warnings.warn(f"dropped {len(bad)} uncertified node(s)", DroppedNodesWarning)
    return pruned


def _require_certified(report: ValidationReport) -> None:
    """Raise :class:`NotCertified`, with the report's figures, unless it certifies."""
    if not report.certified:
        raise NotCertified(
            f"network not certified: max residual {report.max_residual:.3g} "
            f"(tolerance {BALANCE_TOL:g}), {len(report.unreachable_from_source)} "
            f"unreachable, {len(report.cannot_reach_sink)} trapped"
        )


def certify(net: FlowNetwork) -> tuple[FlowNetwork, ValidationReport]:
    """Balance and validate; prune the nodes the report names, and validate again.

    Raises :class:`NotCertified` if the residuals still exceed
    ``BALANCE_TOL`` after that, as float rounding can leave them on
    networks with very large weights.
    """
    net = balance(net)
    report = validate(net)
    if report.unreachable_from_source or report.cannot_reach_sink:
        net = drop_uncertified(net, report)
        report = validate(net)
    _require_certified(report)
    return net, report


# --- wire formats ----------------------------------------------------------

def cell(x) -> str:
    """A float at ``repr`` precision, or the empty cell for NaN (no value)."""
    x = float(x)
    return "" if math.isnan(x) else repr(x)


def reprs(values, nan: str = "nan") -> list[str]:
    """``repr`` of every value of a float column, or ``nan`` for NaN; each
    distinct value is formatted once.
    """
    values = np.ascontiguousarray(values, dtype=float)
    # distinct bit patterns, which keep -0.0 apart from 0.0
    keys, inverse = np.unique(values.view(np.uint64), return_inverse=True)
    keys = keys.view(float)
    text = list(map(repr, keys.tolist()))
    for i in np.flatnonzero(np.isnan(keys)).tolist():
        text[i] = nan
    return np.array(text, dtype=object)[inverse.ravel()].tolist()


def cells(values) -> list[str]:
    """:func:`cell` of every value of a column."""
    return reprs(values, nan="")


def write_csv(path, header, columns) -> None:
    """Write a UTF-8 CSV artifact whose rows end in LF; ``columns[k][r]``,
    a string, is cell ``k`` of row ``r``. The bytes are those csv.writer
    writes with ``lineterminator="\\n"``.
    """
    fields = [_fields([name, *column], "\n") for name, column in zip(header, columns, strict=True)]
    _write_rows(path, fields, "\n")


def split_columns(text: str, delimiter: str = ",", header: bool = False,
                  skip_empty: bool = False, *, lines=None) -> list[list[str]] | None:
    """The cells of the rows ``csv.reader`` reads from ``lines``, the lines
    of ``text`` (by default ``io.StringIO(text)``, which splits at LF only),
    a column at a time: ``columns[k][r]`` is cell ``k`` of row ``r``. With
    ``header`` the first row is left out, and with ``skip_empty`` every
    empty row; no rows give no columns. None for rows of more than one
    width, an empty row without ``skip_empty``, or a row csv.reader refuses.

    Text with an ASCII ``delimiter``, no ``"``, no CR outside a CRLF and no
    line longer than ``csv.field_size_limit()`` in UTF-8 bytes is split at
    its line ends and ``delimiter``, which is what csv.reader reads of it.
    Only other text is read with csv.reader, and only then is ``lines`` read.
    """
    columns = _split_plain(text, delimiter, header, skip_empty)
    if columns is False:
        reader = csv.reader(io.StringIO(text) if lines is None else lines, delimiter=delimiter)
        columns = _reader_columns(reader, header, skip_empty)
    return columns


def _split_plain(text: str, delimiter: str, header: bool,
                 skip_empty: bool) -> list[list[str]] | None | bool:
    """:func:`split_columns` of plain ``text``, by one scan of its UTF-8
    bytes and one split; False where csv.reader may read it otherwise.
    """
    if len(delimiter) != 1 or delimiter >= "\x80" or delimiter in '"\r\n' or '"' in text:
        return False
    if "\r" in text:
        if text.count("\r") != text.count("\r\n"):
            return False
        text = text.replace("\r\n", "\n")
    data = np.frombuffer(text.encode("utf-8", "surrogatepass"), dtype=np.uint8)
    ends = np.flatnonzero(data == 10)
    if data.size and data[-1] != 10:  # a last line without its LF
        ends = np.append(ends, data.size)
    marks = np.flatnonzero(data == ord(delimiter))
    del data
    if not ends.size:
        return []
    lengths = np.diff(ends, prepend=-1) - 1
    if int(lengths.max()) > csv.field_size_limit():
        return False
    empty = lengths == 0
    widths = np.diff(np.searchsorted(marks, ends), prepend=0)  # each line's delimiters
    del ends, marks, lengths  # no buffer of the scan outlives it into the split
    skip = 0
    if header:
        skip = int(widths[0]) + 1  # the header's cells
        widths, empty = widths[1:], empty[1:]
    keep = None
    if empty.any():
        if not skip_empty:
            return None
        keep = np.repeat(~empty, widths + 1)  # an empty line's one cell goes
        widths = widths[~empty]
    if not widths.size:
        return []
    if (widths != widths[0]).any():
        return None
    width = int(widths[0]) + 1
    del widths, empty

    cells = text.replace("\n", delimiter).split(delimiter)
    if text.endswith("\n"):
        cells.pop()
    del cells[:skip]
    if keep is not None:
        cells = list(compress(cells, keep.tolist()))
    return [cells[k::width] for k in range(width)]


def _reader_columns(reader, header: bool, skip_empty: bool) -> list[list[str]] | None:
    """:func:`split_columns` of the rows of a csv.reader."""
    try:
        if header:
            next(reader, None)
        rows = filter(None, reader) if skip_empty else reader
        # every row's cells and then None, which no cell is, to mark where
        # the row ends; no row's list outlives the row
        cells = list(chain.from_iterable(chain.from_iterable(zip(rows, repeat((None,))))))
    except csv.Error:
        return None
    n = cells.count(None)
    width = cells.index(None) if n else 0  # of the first row
    step = width + 1
    if n and (not width or len(cells) != step * n or cells[width::step].count(None) != n):
        return None  # an empty row, or rows of more than one width
    return [cells[k::step] for k in range(width)]


def _numbered_rows(lines, refuse, delimiter: str = ",", header: bool = False,
                   skip_empty: bool = False):
    """The rows csv.reader reads from ``lines``, one at a time, as ``(line,
    row)`` with the 1-based number of the row's last line; with ``header``
    the first row is left out, and with ``skip_empty`` every empty row. A
    row csv.reader refuses raises ``refuse(line, reason)``, an exception.
    """
    reader = csv.reader(lines, delimiter=delimiter)
    try:
        if header:
            next(reader, None)
        for row in reader:
            if row or not skip_empty:
                yield reader.line_num, row
    except csv.Error as exc:
        raise refuse(reader.line_num, str(exc)) from None


def write_json(path, obj) -> None:
    """Write a JSON artifact: ``json.dumps(obj, indent=2, sort_keys=True)``
    and a final newline.
    """
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _fields(cells: list[str], line_end: str) -> list[str]:
    """``cells`` as the fields of a CSV file whose rows end in ``line_end``,
    by csv.writer's QUOTE_MINIMAL rule (on Python 3.10 and 3.11; the tests
    hold both writers to the running interpreter's): a cell holding ``,``,
    ``"`` or a character of the line end is double-quoted, inner quotes
    doubled, so a lone CR in an LF file is not. One substring search per
    such character over the joined cells passes a column that needs no
    quotes, as every number column does, with no per-cell work.
    """
    special = ',"' + line_end
    joined = "".join(cells)
    if not any(char in joined for char in special):
        return cells
    return ['"' + cell.replace('"', '""') + '"' if any(char in cell for char in special) else cell
            for cell in cells]


def _write_rows(path, fields: list[list[str]], line_end: str) -> None:
    """Write the CSV file whose row ``r`` holds ``fields[k][r]``, already a
    field, as cell ``k``, each row ending in ``line_end``: laid out in one
    list and written in one join. As csv.writer does, a row of one empty
    cell is written as ``""``.
    """
    if len(fields) == 1:
        fields = [['""' if cell == "" else cell for cell in fields[0]]]
    parts = [None, ","] * len(fields)
    parts[-1] = line_end
    parts *= len(fields[0])
    for k, column in enumerate(fields):
        parts[2 * k :: 2 * len(fields)] = column
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write("".join(parts))


def _write_edge_rows(path, labels, rows: np.ndarray, cols: np.ndarray, weight: np.ndarray) -> None:
    """Write the ``src,dst,weight`` rows ``labels[rows]``, ``labels[cols]``
    and ``weight``, each label quoted once and each weight at ``repr``
    precision. Unlike the other artifacts its rows end in CRLF.
    """
    quoted = np.array(_fields(labels, "\r\n"), dtype=object)
    fields = [["src", *quoted[rows].tolist()], ["dst", *quoted[cols].tolist()],
              ["weight", *reprs(weight)]]
    _write_rows(path, fields, "\r\n")


def write_edges(path, edges) -> None:
    """Write ``src,dst,weight`` CSV in input order. ``edges`` as in
    build_flow_network.
    """
    labels, codes, weight = _coded_edges(edges)
    _write_edge_rows(path, labels, codes[:, 0], codes[:, 1], weight)


def _raise_bad_row(path) -> None:
    """Raise the error of the first row of an edge file that no network may
    hold, or that csv.reader refuses, naming the file and 1-based line.
    """
    def refuse(line: int, reason: str) -> InvalidEdge:
        return InvalidEdge(f"{path}:{line}: {reason}")

    with open(path, newline="", encoding="utf-8") as fh:
        for line, row in _numbered_rows(fh, refuse, header=True):
            if len(row) != 3:
                raise refuse(line, f"expected 3 columns, got {len(row)}")
            try:
                weight = float(row[2])
            except ValueError:
                raise refuse(line, f"weight {row[2]!r} is not a number") from None
            if not math.isfinite(weight):
                raise refuse(line, f"weight {row[2]!r} is not finite")
            try:
                _check_edge(row[0], row[1], weight)
            except AttnFlowError as exc:
                raise type(exc)(f"{path}:{line}: {exc}") from None
    raise AssertionError(f"{path}: the row checks pass a row the column checks reject")


def _read_edge_rows(path) -> tuple[list, np.ndarray, np.ndarray]:
    """The rows of an edge file as :func:`_coded_edges` gives them: labels,
    the ``(m, 2)`` codes of every row's ends and the rows' weights.

    The rows are split by :func:`split_columns` and checked a column at a
    time. Only if a check fails are they read again one by one, to raise
    the first bad row's error.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        text = fh.read()
        if not text:
            raise InvalidEdge(f"{path}: empty edge file")
        fh.seek(0)
        columns = split_columns(text, header=True, lines=fh)
    del text
    if columns == []:  # a header and no rows
        columns = [[], [], []]
    if columns is not None and len(columns) == 3:
        n = len(columns[0])
        ends = [None] * (2 * n)
        ends[0::2], ends[1::2], weights = columns
        del columns
        try:
            weight = np.fromiter(map(float, weights), dtype=float, count=n)
        except ValueError:
            pass
        else:
            del weights
            labels, codes = _label_codes(ends, (SOURCE, SINK))
            del ends
            codes = codes.reshape(-1, 2)
            if not _bad_edges(codes, weight).any():  # else _raise_bad_row raises
                return labels, codes, weight
    _raise_bad_row(path)


class _LazyMapping(Mapping):
    """A read-only mapping held as arrays, whose dict, the ``_dict`` a
    subclass defines, is made only when the mapping is read as one; a
    subclass gives ``len()`` from its arrays.
    """

    def __getitem__(self, key):
        return self._dict[key]

    def __iter__(self):
        return iter(self._dict)

    def __repr__(self) -> str:
        return repr(self._dict)


class _EdgeRows(_LazyMapping):
    """A read-only mapping ``(labels[i], labels[j]) -> weight``, held as
    labels, the ``(m, 2)`` codes ``[i, j]`` and the weights, one row per
    distinct pair. :func:`read_edges` and ``ingest.to_transition_edges``
    return one whose labels are those of :func:`_coded_edges`, SOURCE and
    SINK first; ``stats.duplication_filter`` one over sorted item pairs.
    """

    def __init__(self, labels: list | tuple, codes: np.ndarray, weight: np.ndarray):
        self.labels = labels
        self.codes = codes
        self.weight = weight

    @cached_property
    def _dict(self) -> dict[tuple[str, str], float]:
        src = map(self.labels.__getitem__, self.codes[:, 0].tolist())
        dst = map(self.labels.__getitem__, self.codes[:, 1].tolist())
        return dict(zip(zip(src, dst), self.weight.tolist()))

    def __len__(self) -> int:
        return len(self.weight)


def _edge_rows(labels: list, codes: np.ndarray, weight: np.ndarray | None = None) -> _EdgeRows:
    """The ``(m, 2)`` label codes ``codes`` with their rows' ``weight``,
    or a count of 1 each without one, as :class:`_EdgeRows`: each distinct
    edge at its first row, its rows' weights summed in row order.
    """
    pairs, first, inverse = np.unique(
        codes[:, 0] * len(labels) + codes[:, 1], return_index=True, return_inverse=True
    )
    if weight is not None and pairs.size == len(weight):
        # each weight as a sum from 0.0, which turns -0.0 into 0.0
        return _EdgeRows(labels, codes, weight + 0.0)
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    return _EdgeRows(labels, codes[first[order]], np.bincount(rank[inverse], weights=weight))


def read_edges(path) -> Mapping[tuple[str, str], float]:
    """Read ``src,dst,weight`` CSV into a read-only mapping ``(src, dst) ->
    weight``. Duplicate edges are summed in row order, each at its first
    row, as a dict accumulating the rows would hold them.

    Raises :class:`InvalidEdge` naming the file and 1-based line for a row
    without exactly three columns or with a non-numeric or non-finite weight,
    and for any other row the error :func:`_check_edge` raises, so prefixed.
    """
    return _edge_rows(*_read_edge_rows(path))


def write_network(net: FlowNetwork, csv_path, json_path=None,
                  report: ValidationReport | None = None) -> None:
    """Serialize a network to edge CSV plus a JSON sidecar."""
    _write_edge_rows(csv_path, net._labels().tolist(), *net._edge_arrays())
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
    """The network of an edge file: :func:`read_edges`'s pairs, each at its
    first row with its rows summed, built by :func:`build_flow_network`,
    which drops zero sums and numbers the interior nodes by first
    appearance over the pairs that remain. The same rows as triples build
    the same network.
    """
    return build_flow_network(read_edges(csv_path))
