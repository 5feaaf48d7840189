"""The artifact format has one owner, the wire-format section of
``network.py``. An AST scan of ``src/attnflow/*.py`` checks that every
text-mode ``open()`` names UTF-8, that no other code writes JSON or CSV
to a file, that csv.reader turns text into columns in one place, and
that labels are coded by first appearance, and reachability found, in
one place each. The section's tokenizer, ``split_columns``, reads what
csv.reader reads, its float formatter writes what ``repr`` writes, and
both CSV writers write what csv.writer writes.
"""
import ast
import csv
import io
import math
import struct
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from attnflow.network import cell, cells, reprs, split_columns, write_csv, write_edges

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "attnflow"
SECTION = "# --- wire formats"

#: the functions allowed to call each writer; all in network.py's section.
#: write_json lays out its text through _indented and _json_key.
OWNERS = {
    "json.dump": {"write_json"},
    "json.dumps": {"write_json", "_indented", "_json_key"},
    "csv.writer": {"write_csv"},
}

#: the functions allowed to call csv.reader: the one tokenizer, the two
#: row loops that only raise the first bad row's error, and the stats reader
READERS = {
    "network.split_columns",
    "network._raise_bad_row",
    "ingest._raise_bad_record",
    "flowcalc.read_stats_csv",
}

#: the one function allowed to call each of these, by the last part of the
#: call's dotted name: the first-appearance coder (``dict.fromkeys``), the
#: reachability helper (scipy's ``breadth_first_order``) and the builder's
#: numbering pass (``np.minimum.at``)
JOBS = {
    "fromkeys": "network._label_codes",
    "breadth_first_order": "network.reachable",
    "at": "network.build_flow_network",
}


def _modules():
    return sorted(PACKAGE.glob("*.py"))


class _Calls(ast.NodeVisitor):
    """Every call, with its dotted name (import aliases resolved) and the
    function around it.
    """

    def __init__(self):
        self.aliases: dict[str, str] = {}
        self.function = None
        self.calls: list[tuple[str, ast.Call, ast.FunctionDef | None]] = []

    def visit_Import(self, node):
        for alias in node.names:
            self.aliases[alias.asname or alias.name] = alias.name

    def visit_ImportFrom(self, node):
        for alias in node.names:
            self.aliases[alias.asname or alias.name] = f"{node.module}.{alias.name}"

    def visit_FunctionDef(self, node):
        outer, self.function = self.function, node
        self.generic_visit(node)
        self.function = outer

    def visit_Call(self, node):
        parts = []
        target = node.func
        while isinstance(target, ast.Attribute):
            parts.append(target.attr)
            target = target.value
        if isinstance(target, ast.Name):
            parts.append(self.aliases.get(target.id, target.id))
            self.calls.append((".".join(reversed(parts)), node, self.function))
        self.generic_visit(node)


def _scan(path: Path) -> _Calls:
    calls = _Calls()
    calls.visit(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
    return calls


def _writes_to_string(call: ast.Call, function: ast.FunctionDef | None) -> bool:
    """A csv.writer whose first argument is bound to ``io.StringIO()`` in
    the same function, as in ``ingest.serialize_log``.
    """
    if function is None or not call.args or not isinstance(call.args[0], ast.Name):
        return False
    for node in ast.walk(function):
        if (
            isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == call.args[0].id for t in node.targets)
            and isinstance(node.value, ast.Call)
            and ast.unparse(node.value.func) == "io.StringIO"
        ):
            return True
    return False


@pytest.mark.parametrize("path", _modules(), ids=lambda p: p.name)
def test_text_mode_open_names_utf8(path):
    for name, call, _ in _scan(path).calls:
        if name != "open":
            continue
        where = f"{path.name}:{call.lineno}"
        mode = call.args[1] if len(call.args) > 1 else None
        mode = next((k.value for k in call.keywords if k.arg == "mode"), mode)
        if mode is not None:
            assert isinstance(mode, ast.Constant), f"{where}: mode is not a literal"
            if "b" in mode.value:
                continue
        encoding = next((k.value for k in call.keywords if k.arg == "encoding"), None)
        assert isinstance(encoding, ast.Constant) and encoding.value == "utf-8", (
            f'{where}: text-mode open() without encoding="utf-8"'
        )


@pytest.mark.parametrize("path", _modules(), ids=lambda p: p.name)
def test_writers_live_in_wire_format_section(path):
    lines = path.read_text(encoding="utf-8").splitlines()
    section = next((i + 1 for i, line in enumerate(lines) if line.startswith(SECTION)), None)
    for name, call, function in _scan(path).calls:
        if name not in OWNERS:
            continue
        where = f"{path.name}:{call.lineno}"
        if name == "csv.writer" and _writes_to_string(call, function):
            continue
        assert path.name == "network.py", f"{where}: {name} outside network.py"
        assert function is not None and function.name in OWNERS[name], (
            f"{where}: {name} outside {sorted(OWNERS[name])}"
        )
        assert section is not None and function.lineno > section, (
            f"{where}: {function.name} is not in the wire-format section"
        )


@pytest.mark.parametrize("path", _modules(), ids=lambda p: p.name)
def test_csv_reader_has_one_column_builder(path):
    for name, call, function in _scan(path).calls:
        if name not in ("csv.reader", "csv.DictReader"):
            continue
        owner = f"{path.stem}.{function.name if function else '<module>'}"
        assert name == "csv.reader" and owner in READERS, (
            f"{path.name}:{call.lineno}: {name} outside {sorted(READERS)}"
        )


@pytest.mark.parametrize("path", _modules(), ids=lambda p: p.name)
def test_each_job_has_one_owner(path):
    for name, call, function in _scan(path).calls:
        job = name.rpartition(".")[2]
        if job not in JOBS:
            continue
        owner = f"{path.stem}.{function.name if function else '<module>'}"
        assert owner == JOBS[job], f"{path.name}:{call.lineno}: {name} outside {JOBS[job]}"


def _csv_rows(text: str, delimiter: str, newline: str):
    """csv.reader's rows of ``text`` split into lines in ``newline`` mode,
    or the error it raises.
    """
    try:
        return list(csv.reader(io.StringIO(text, newline=newline), delimiter=delimiter))
    except csv.Error as exc:
        return exc


#: mostly plain cells, some a field-size limit of 4 or 6 refuses, and
#: some that csv.reader reads differently from a split
_CELL = st.sampled_from(
    ["a", "b", "", " a", "\x00", "é", "ab", "\t", ";", "aaaa", "aaaaaa"] * 3
    + ['"', '"a"', "\r", ",", "aaaaaaa"]
)
#: how many of a row's cells are written: -1 for the draw's width, 0 for
#: an empty line
_ROW_WIDTH = st.sampled_from([-1] * 8 + [0, 1, 2, 3])


def _csv_columns(text: str, delimiter: str, newline: str, header: bool, skip_empty: bool):
    """What split_columns returns for ``text`` read by csv.reader in
    ``newline`` mode: None for a row csv.reader refuses, an empty row
    without ``skip_empty`` and rows of more than one width.
    """
    rows = _csv_rows(text, delimiter, newline)
    if isinstance(rows, csv.Error):
        return None
    if header:
        rows = rows[1:]
    if skip_empty:
        rows = [row for row in rows if row]
    if [] in rows or len(set(map(len, rows))) > 1:
        return None
    return [list(column) for column in zip(*rows)]


class _Unread:
    """A line source that fails the test if it is read."""

    def __iter__(self):
        raise AssertionError("the lines were read")


class TestSplitColumns:
    @pytest.mark.parametrize("text, columns", [
        ("a,b\r\nc,d\r\n", [["a", "c"], ["b", "d"]]),
        ("a,b\nc,d", [["a", "c"], ["b", "d"]]),
        ("a\x00,b\n", [["a\x00"], ["b"]]),
        ("", []),
        ("x\n", [["x"]]),
    ])
    def test_plain_text_is_split(self, text, columns):
        assert split_columns(text) == columns
        assert split_columns(text, lines=_Unread()) == columns

    @pytest.mark.parametrize("text", [
        "a,b\rc,d\n",  # a CR outside a CRLF, which csv.reader refuses in a line
        "a,b\nc\n",  # two widths
        "a,b\n\nc,d\n",  # an empty row
    ])
    def test_declines_what_csv_reads_otherwise(self, text):
        assert split_columns(text) is None

    @pytest.mark.parametrize("text, columns", [
        ('a,"b"\n', [["a"], ["b"]]),
        ("a,b\r", [["a"], ["b"]]),
        ('"x,y",z\r\n"q""",\r\n', [["x,y", 'q"'], ["z", ""]]),
        ('a,"b\r\nc"\nd,e', [["a", "d"], ["b\r\nc", "e"]]),
    ])
    def test_other_text_is_read_by_csv_reader(self, text, columns):
        assert split_columns(text) == columns

    def test_csv_reader_reads_the_given_lines(self):
        text = "a,b\rc,d\n"
        assert split_columns(text, lines=io.StringIO(text, newline="")) == [["a", "c"], ["b", "d"]]

    def test_empty_rows_skipped_and_header_left_out(self):
        text = "h\n\na,b\n\nc,d\n"
        assert split_columns(text, header=True, skip_empty=True) == [["a", "c"], ["b", "d"]]
        assert split_columns(text, skip_empty=True) is None  # the header has one cell
        # the header is the first row even when it is empty
        assert split_columns("\na,b\n", header=True) == [["a"], ["b"]]
        assert split_columns('"\n"\na,b\n\n', header=True, skip_empty=True) == [["a"], ["b"]]

    def test_line_longer_than_the_field_limit(self):
        limit = csv.field_size_limit()
        assert split_columns("a" * limit + "\n") == [["a" * limit]]
        assert split_columns("a" * (limit + 1) + "\n") is None
        # a line longer than the limit whose cells are not
        assert split_columns("a" * limit + ",b\n") == [["a" * limit], ["b"]]

    @settings(max_examples=400)
    @given(
        st.integers(1, 3),
        st.lists(st.tuples(st.lists(_CELL, min_size=3, max_size=3), _ROW_WIDTH), max_size=6),
        st.sampled_from([",", "\t", "é", ";"]),
        st.sampled_from(["\n", "\r\n", "\r"]),
        st.booleans(),
        st.booleans(),
        st.booleans(),
        st.sampled_from([4, 6, 131072]),
    )
    def test_where_it_splits_csv_reader_reads_the_same(
        self, width, rows, delimiter, newline, final, header, skip_empty, limit
    ):
        """Drawn text holds quotes, CRLF and lone CRs, NUL, empty lines,
        tab and non-ASCII delimiters, and fields at a lowered size limit.
        Read from its LF-split lines, the default, and from the lines of
        newline="" mode, split_columns returns csv.reader's rows as
        columns, or None exactly where they cannot be columns.
        """
        lines = [delimiter.join(cells[:own if own >= 0 else width]) for cells, own in rows]
        text = newline.join(lines) + (newline if final else "")
        default = csv.field_size_limit(limit)
        try:
            for mode, source in (("\n", None), ("", io.StringIO(text, newline=""))):
                columns = split_columns(text, delimiter, header, skip_empty, lines=source)
                assert columns == _csv_columns(text, delimiter, mode, header, skip_empty), mode
        finally:
            csv.field_size_limit(default)


def _bits(pattern: int) -> float:
    return struct.unpack("<d", struct.pack("<Q", pattern))[0]


#: signed zeros, NaNs of either sign and other payloads, infinities,
#: subnormals and values whose repr switches notation, drawn from a short
#: list so that they repeat, or any float
_FLOAT = st.one_of(
    st.sampled_from([
        0.0, -0.0, 1.0, 0.1, 1 / 3, 1e16, -1e16, 1e-5, 1e-4, 5e-324, -5e-324,
        2.2250738585072014e-308, math.inf, -math.inf, math.nan,
        _bits(0xFFF8000000000000), _bits(0x7FF0000000000001), _bits(0x7FF8000000000123),
    ]),
    st.floats(),
)


class TestReprs:
    @settings(max_examples=300)
    @given(st.lists(_FLOAT, max_size=40), st.booleans())
    def test_matches_repr_and_cell(self, values, square):
        """Element by element, from a 1-D or a 2-D array (whose unique
        inverse numpy 2.0 shapes like the input).
        """
        array = np.array(values, dtype=float)
        if square and array.size % 2 == 0:
            array = array.reshape(2, -1)
        assert reprs(array) == list(map(repr, values))
        assert reprs(array, nan="NaN") == ["NaN" if math.isnan(x) else repr(x) for x in values]
        assert cells(array) == list(map(cell, values))

    def test_signed_zeros_kept_apart(self):
        assert reprs([0.0, -0.0, 0.0, -0.0]) == ["0.0", "-0.0", "0.0", "-0.0"]
        assert cells([math.nan, -0.0, math.nan]) == ["", "-0.0", ""]
        assert reprs([]) == []


#: cells with every character csv.writer may quote for, and the empty cell
_FIELD = st.text(alphabet=st.sampled_from(["a", "é", " ", ".", "1", ",", '"', "\r", "\n"]),
                 max_size=6)


class TestWriteCsv:
    @settings(max_examples=300)
    @given(st.integers(1, 4).flatmap(lambda width: st.tuples(
        st.lists(_FIELD, min_size=width, max_size=width),
        st.lists(st.lists(_FIELD, min_size=width, max_size=width), max_size=8))))
    def test_matches_csv_writer(self, tmp_path_factory, table):
        """The bytes of csv.writer with an LF line terminator, on the
        running interpreter: a field holding ``,``, ``"`` or LF is quoted
        with its quotes doubled, CR alone is not, and a row of one empty
        cell is written as ``""``."""
        header, rows = table
        path = tmp_path_factory.mktemp("csv") / "table.csv"
        write_csv(path, header, [list(column) for column in zip(*rows)] or [[]] * len(header))
        expected = io.StringIO(newline="")
        writer = csv.writer(expected, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
        assert path.read_bytes() == expected.getvalue().encode("utf-8")

    def test_columns_of_unequal_length_are_refused(self, tmp_path):
        with pytest.raises(ValueError):
            write_csv(tmp_path / "t.csv", ["a", "b"], [["1", "2"], ["3"]])


#: edge labels with every character csv.writer may quote for in a CRLF file
_LABEL = st.text(alphabet=st.sampled_from(["a", "é", " ", ",", '"', "\r", "\n"]), max_size=6)


class TestWriteEdges:
    @settings(max_examples=300)
    @given(st.lists(st.tuples(_LABEL, _LABEL, st.floats(allow_nan=False, allow_infinity=False)),
                    max_size=8))
    def test_matches_csv_writer(self, tmp_path_factory, triples):
        """The bytes of csv.writer with a CRLF line terminator, weights at
        ``repr`` precision: a label holding ``,``, ``"``, CR or LF is quoted
        with its quotes doubled."""
        path = tmp_path_factory.mktemp("edges") / "edges.csv"
        write_edges(path, triples)
        expected = io.StringIO(newline="")
        writer = csv.writer(expected, lineterminator="\r\n")
        writer.writerow(["src", "dst", "weight"])
        writer.writerows((src, dst, repr(weight)) for src, dst, weight in triples)
        assert path.read_bytes() == expected.getvalue().encode("utf-8")
