"""Log parsing, sessionization, and transition-edge extraction."""
import csv
import io
import warnings
from itertools import accumulate, chain

import pytest
from hypothesis import example, given, settings, strategies as st

from attnflow import LogFormat, SessionLog, parse_log, sessionize, to_transition_edges
from attnflow.errors import (
    EmptyInput,
    MalformedRecord,
    MissingTimestamps,
    NonMonotonicTimestampsWarning,
)
from attnflow.ingest import _parse_columns, serialize_log
from attnflow.network import SINK, SOURCE


def _parse_rows(lines, fmt: LogFormat) -> SessionLog:
    """The reference of :func:`parse_log`: an iterable of lines read one
    csv row at a time. A bad row raises its error, naming the row's last
    line; a row csv.reader refuses raises MalformedRecord with its reason.
    """
    reader = csv.reader(lines, delimiter=fmt.delimiter)
    try:
        if fmt.has_header:
            next(reader, None)

        users: list[str] = []
        records: dict[str, list[tuple[str, int | None]]] = {}
        n_columns: int | None = None
        n_records = 0
        for row in reader:
            if not row:
                continue
            lineno = reader.line_num
            if n_columns is None:
                if len(row) not in (2, 3):
                    raise MalformedRecord(lineno, f"expected 2 or 3 columns, got {len(row)}")
                n_columns = len(row)
            if len(row) != n_columns:
                raise MalformedRecord(lineno, f"expected {n_columns} columns, got {len(row)}")
            user, item = row[0], row[1]
            if not user or not item:
                raise MalformedRecord(lineno, "empty user or item field")
            if item in (SOURCE, SINK):
                raise MalformedRecord(lineno, f"reserved token {item!r} used as item id")
            ts: int | None = None
            if n_columns == 3:
                try:
                    ts = int(row[2])
                except ValueError:
                    raise MalformedRecord(lineno, f"bad timestamp {row[2]!r}") from None
            if user not in records:
                records[user] = []
                users.append(user)
            records[user].append((item, ts))
            n_records += 1
    except csv.Error as exc:
        raise MalformedRecord(reader.line_num, str(exc)) from None

    if n_records == 0:
        raise EmptyInput("no records in input")

    with_time = n_columns == 3
    sessions: dict[str, list[list[str]]] = {}
    times: dict[str, list[list[int]]] = {}
    for user in users:
        recs = records[user]
        if with_time:
            stamps = [ts for _, ts in recs]
            if any(b < a for a, b in zip(stamps, stamps[1:])):
                warnings.warn(
                    f"user {user!r}: timestamps not non-decreasing; re-sorting",
                    NonMonotonicTimestampsWarning,
                )
            recs = sorted(recs, key=lambda rt: rt[1])
        sessions[user] = [[item for item, _ in recs]]
        if with_time:
            times[user] = [[ts for _, ts in recs]]
    return SessionLog.from_sessions(sessions, times if with_time else None, n_records)


class TestParseLog:
    def test_groups_by_user_in_file_order(self):
        log = parse_log("u1,A\nu1,B\nu2,A\n")
        assert log.sessions == {"u1": [["A", "B"]], "u2": [["A"]]}
        assert log.n_users == 2
        assert log.n_visits == 3
        assert log.item_registry == {"A", "B"}

    def test_interleaved_users_are_grouped(self):
        log = parse_log("u1,A\nu2,X\nu1,B\n")
        assert log.sessions["u1"] == [["A", "B"]]
        assert log.sessions["u2"] == [["X"]]

    def test_empty_input(self):
        with pytest.raises(EmptyInput):
            parse_log("")

    def test_wrong_column_count_reports_line(self):
        with pytest.raises(MalformedRecord) as err:
            parse_log("u1,A\nu1\n")
        assert "line 2" in str(err.value)

    def test_empty_field_rejected(self):
        with pytest.raises(MalformedRecord):
            parse_log("u1,\n")

    def test_reserved_tokens_rejected(self):
        with pytest.raises(MalformedRecord):
            parse_log("u1,__source__\n")
        with pytest.raises(MalformedRecord):
            parse_log("u1,__sink__\n")

    def test_bad_timestamp(self):
        with pytest.raises(MalformedRecord):
            parse_log("u1,A,notatime\n")

    def test_header_and_tab_delimiter(self):
        fmt = LogFormat(delimiter="\t", has_header=True)
        log = parse_log("user\titem\nu1\tA\n", fmt)
        assert log.sessions == {"u1": [["A"]]}

    def test_byte_stream(self):
        log = parse_log(io.BytesIO(b"u1,A\n"))
        assert log.n_visits == 1

    def test_out_of_order_timestamps_warn_and_resort(self):
        with pytest.warns(NonMonotonicTimestampsWarning):
            log = parse_log("u1,A,100\nu1,B,50\n")
        assert log.sessions["u1"] == [["B", "A"]]
        assert log.timestamps["u1"] == [[50, 100]]

    def test_column_count_fixed_by_first_row(self):
        with pytest.raises(MalformedRecord):
            parse_log("u1,A,5\nu1,B\n")

    @pytest.mark.parametrize("header", [False, True])
    def test_error_names_the_line_after_a_multiline_field(self, header):
        # the quoted item spans two lines, so the bad row is on the third
        text = 'u1,"a\nb",5\nu2,,7\n'
        fmt = LogFormat(has_header=header)
        with pytest.raises(MalformedRecord, match=f"^line {3 + header}: empty user or item"):
            parse_log("user,item,ts\n" * header + text, fmt)

    def test_out_of_order_users_warn_in_user_order(self):
        text = "u2,A,9\nu1,B,5\nu2,C,1\nu1,D,4\nu3,E,1\n"
        with pytest.warns(NonMonotonicTimestampsWarning) as record:
            log = parse_log(text)
        assert [str(w.message) for w in record] == [
            "user 'u2': timestamps not non-decreasing; re-sorting",
            "user 'u1': timestamps not non-decreasing; re-sorting",
        ]
        assert list(log.sessions) == ["u2", "u1", "u3"]
        assert log.sessions["u2"] == [["C", "A"]]
        assert log.timestamps["u1"] == [[4, 5]]

    def test_timestamps_beyond_int64_keep_python_ints(self):
        with pytest.warns(NonMonotonicTimestampsWarning):
            log = parse_log(f"u1,A,{2**70}\nu1,B,{-2**70}\n".encode())
        assert log.sessions == {"u1": [["B", "A"]]}
        assert log.timestamps == {"u1": [[-2**70, 2**70]]}

    @pytest.mark.parametrize("text, line, reason", [
        ("u1,A\nu2,LONG_ITEM\n", 2, "field larger than field limit (8)"),
        ("u1,\nu2,LONG_ITEM\n", 1, "empty user or item field"),
        ('u1,"A\nB"\nu2,LONG_ITEM\n', 3, "field larger than field limit (8)"),
        ("u1,A\nu2,B\rC\n", 2, "new-line character seen in unquoted field"),
    ])
    def test_row_csv_reader_refuses(self, text, line, reason):
        """A row csv.reader refuses raises MalformedRecord naming its
        line, unless an earlier row is bad.
        """
        default = csv.field_size_limit(8)
        try:
            outcome = _outcome(parse_log, text)
            assert outcome == _outcome(_parse_rows, io.StringIO(text), LogFormat())
        finally:
            csv.field_size_limit(default)
        (kind, message), caught = outcome
        assert kind is MalformedRecord and not caught
        assert message.startswith(f"line {line}: {reason}")

    @pytest.mark.parametrize("lines, line, reason", [
        (["u1,A\nu2,B\n"], 1, "new-line character seen in unquoted field"),
        (["u1,A\n", "u2,B\rC\n"], 2, "new-line character seen in unquoted field"),
        (["u1,A", "\nu2,B"], 2, "new-line character seen in unquoted field"),
        (["x\n", "u1,A\nu2,B\n"], 1, "expected 2 or 3 columns, got 1"),
    ])
    def test_line_end_inside_a_listed_line(self, lines, line, reason):
        """A list of lines is read as csv.reader reads it, which refuses a
        line end inside an unquoted line rather than starting a new row.
        """
        outcome = _outcome(parse_log, lines)
        assert outcome == _outcome(_parse_rows, lines, LogFormat())
        (kind, message), _ = outcome
        assert kind is MalformedRecord
        assert message.startswith(f"line {line}: {reason}")

    @pytest.mark.parametrize("lines", [
        ["u1,A\r\n", "u2,B\r\n"],
        ["u1,A\n\n", "u2,B"],
        ['u1,"A\nB"\n', "u2,C\n"],
    ])
    def test_listed_lines_csv_reader_accepts(self, lines):
        assert _outcome(parse_log, lines) == _outcome(_parse_rows, lines, LogFormat())
        assert parse_log(lines).n_records == 2

    @pytest.mark.parametrize("text", [
        "u1,A,5\nu2,B,7\n",
        "user,item,ts\r\nu1,A,5\r\n\r\nu2,B,7",
        "u1\tA\nu2\tB\n",
    ])
    def test_plain_text_is_read_a_column_at_a_time(self, text):
        fmt = LogFormat(delimiter="\t" if "\t" in text else ",", has_header=text.startswith("user"))
        log = _parse_columns(text, fmt)
        assert log is not None
        assert log.sessions == _parse_rows(io.StringIO(text), fmt).sessions


class TestSessionize:
    def test_split_on_gap(self):
        log = parse_log("u1,A,0\nu1,B,10\nu1,C,5000\n")
        out = sessionize(log, 3600)
        assert out.sessions["u1"] == [["A", "B"], ["C"]]

    def test_no_threshold_is_identity(self):
        log = parse_log("u1,A,0\nu1,B,10\n")
        assert sessionize(log, None) is log

    def test_zero_gap_splits_increasing_stamps(self):
        log = parse_log("u1,A,1\nu1,B,2\nu1,C,3\n")
        out = sessionize(log, 0)
        assert out.sessions["u1"] == [["A"], ["B"], ["C"]]

    @pytest.mark.parametrize("gap", [-5, float("nan"), float("inf")])
    def test_meaningless_gap_is_refused(self, gap):
        # -5 made every visit its own session; nan never split one
        log = parse_log("u1,A,0\nu1,B,10\n")
        with pytest.raises(ValueError, match="gap threshold"):
            sessionize(log, gap)

    def test_missing_timestamps(self):
        log = parse_log("u1,A\n")
        with pytest.raises(MissingTimestamps):
            sessionize(log, 60)

    def test_counts_preserved(self):
        log = parse_log("u1,A,0\nu1,B,10000\nu2,C,5\n")
        out = sessionize(log, 60)
        assert out.n_visits == log.n_visits
        assert out.n_users == log.n_users
        assert out.n_sessions == 3


class TestTransitionEdges:
    def test_session_closed_single_session(self):
        log = parse_log("u1,A\nu1,B\nu1,C\n")
        edges = to_transition_edges(log, "session-closed")
        assert edges == {
            ("__source__", "A"): 1,
            ("A", "B"): 1,
            ("B", "C"): 1,
            ("C", "__sink__"): 1,
        }

    def test_session_closed_merges_counts(self):
        log = parse_log("u1,A\nu2,A\n")
        edges = to_transition_edges(log, "session-closed")
        assert edges == {("__source__", "A"): 2, ("A", "__sink__"): 2}

    def test_residual_interior_only(self):
        log = parse_log("u1,A\nu1,B\nu2,A\nu2,B\n")
        assert to_transition_edges(log, "residual") == {("A", "B"): 2}

    def test_self_transitions_kept(self):
        log = parse_log("u1,A\nu1,A\n")
        edges = to_transition_edges(log, "residual")
        assert edges == {("A", "A"): 1}

    def test_source_weight_equals_session_count(self):
        log = sessionize(parse_log("u1,A,0\nu1,B,9000\nu2,C,0\n"), 3600)
        edges = to_transition_edges(log, "session-closed")
        n_sessions = log.n_sessions
        source_out = sum(w for (s, _), w in edges.items() if s == "__source__")
        assert source_out == n_sessions == 3

    def test_session_closed_is_balanced_per_node(self):
        log = parse_log("u1,A\nu1,B\nu1,A\nu2,B\nu2,B\n")
        edges = to_transition_edges(log, "session-closed")
        nodes = {n for pair in edges for n in pair} - {"__source__", "__sink__"}
        for node in nodes:
            inflow = sum(w for (_, d), w in edges.items() if d == node)
            outflow = sum(w for (s, _), w in edges.items() if s == node)
            assert inflow == outflow


_item = st.text(alphabet="abcdefg", min_size=1, max_size=3)
_user_sessions = st.dictionaries(
    st.text(alphabet="uvw", min_size=1, max_size=3),
    st.lists(_item, min_size=1, max_size=6).map(lambda seq: [seq]),
    min_size=1,
    max_size=5,
)


@given(_user_sessions)
def test_roundtrip_grouped_logs(sessions):
    """Grouped well-formed logs serialize and reparse byte-identically."""
    log = SessionLog.from_sessions(sessions)
    text = serialize_log(log)
    reparsed = parse_log(text)
    assert reparsed.sessions == sessions
    assert serialize_log(reparsed) == text


@given(_user_sessions)
def test_session_closed_visit_conservation(sessions):
    """Interior in-weights total the visit count of the whole log."""
    log = SessionLog.from_sessions(sessions)
    edges = to_transition_edges(log, "session-closed")
    arrivals = sum(w for (_, d), w in edges.items() if d != "__sink__")
    assert arrivals == log.n_visits


#: mostly well-formed cells, and each kind of cell a check refuses or
#: that csv.reader reads differently from a split
_label = st.sampled_from(
    ["u", "v", "w", "A", "B", "uv", "AB", "é", " x", "x\ty"] * 3 + ["a,b", "", "__source__", 'q"t']
)
_stamp = st.sampled_from(
    ["0", "3", "-4", "9", "12", "5", " 7", "1_0"] * 3 + [str(2**63), str(-2**63 - 1), "x", ""]
)
_user = st.sampled_from(["u", "v", "é w"] * 4 + ["", 'q"t'])
#: a record and its width, 0 for the draw's own width
_record = st.tuples(_user, _label, _stamp, st.sampled_from([0] * 8 + [1, 2, 3, 4]))


def _outcome(parse, *args):
    """What a parse returns or raises, and the warnings it gives."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            log = parse(*args)
        except Exception as exc:  # compared by type and text
            result = (type(exc), str(exc))
        else:
            result = (
                list(log.sessions.items()),
                None if log.timestamps is None else list(log.timestamps.items()),
                log.n_records,
                log.item_registry,
            )
    return result, [(w.category, str(w.message)) for w in caught]


@settings(max_examples=500)
@given(
    st.lists(_record, max_size=8),
    st.sampled_from([2, 3]),
    st.sampled_from([",", "\t", "é"]),
    st.booleans(),
    st.sampled_from(["\n", "\r\n", "\n", "\r"]),
    st.booleans(),
    st.booleans(),
)
def test_parse_log_matches_row_loop(records, width, delimiter, header, newline, blank, final):
    """Every route of parse_log returns, raises and warns what the row loop
    does on the same lines: text, bytes, a binary and a text stream, and a
    list of lines.
    """
    rows = [delimiter.join(record[:own or width]) for *record, own in records]
    if header:
        rows.insert(0, delimiter.join(["user", "item", "ts"]))
    if blank:
        rows.insert(len(rows) // 2, "")
    text = newline.join(rows) + (newline if final and rows else "")
    fmt = LogFormat(delimiter=delimiter, has_header=header)
    expected = _outcome(_parse_rows, io.StringIO(text), fmt)
    assert _outcome(parse_log, text, fmt) == expected
    assert _outcome(parse_log, text.encode(), fmt) == expected
    wrapped = io.TextIOWrapper(io.BytesIO(text.encode()), encoding="utf-8")
    universal = _outcome(_parse_rows, wrapped, fmt)
    assert _outcome(parse_log, io.BytesIO(text.encode()), fmt) == universal
    untranslated = _outcome(_parse_rows, io.StringIO(text, newline=""), fmt)
    assert _outcome(parse_log, io.StringIO(text, newline=""), fmt) == untranslated
    # lines without line ends, each of which csv.reader ends a row at
    assert _outcome(parse_log, rows, fmt) == _outcome(_parse_rows, rows, fmt)
    # two rows to a line, which csv.reader refuses where the line end is unquoted
    ended = [row + newline for row in rows]
    paired = [a + b for a, b in zip(ended[::2], ended[1::2] + [""])]
    assert _outcome(parse_log, paired, fmt) == _outcome(_parse_rows, paired, fmt)


def _sessionize_by_visits(sessions, times, gap):
    """Sessions and timestamps split where a visit follows the one before
    by more than ``gap``, one visit at a time: the reference for the
    columnar :func:`sessionize`.
    """
    out_sessions, out_times = {}, {}
    for user, seqs in sessions.items():
        out_sessions[user], out_times[user] = [], []
        for seq, stamps in zip(seqs, times[user]):
            cur_items, cur_times = [seq[0]], [stamps[0]]
            for item, ts in zip(seq[1:], stamps[1:]):
                if ts - cur_times[-1] > gap:
                    out_sessions[user].append(cur_items)
                    out_times[user].append(cur_times)
                    cur_items, cur_times = [], []
                cur_items.append(item)
                cur_times.append(ts)
            out_sessions[user].append(cur_items)
            out_times[user].append(cur_times)
    return out_sessions, out_times


def _edges_by_visits(sessions, mode):
    """Edge counts in order of first use, one visit at a time: the
    reference for the columnar :func:`to_transition_edges`.
    """
    edges = {}
    for seqs in sessions.values():
        for seq in seqs:
            walk = ["__source__", *seq, "__sink__"] if mode == "session-closed" else seq
            for pair in zip(walk, walk[1:]):
                edges[pair] = edges.get(pair, 0) + 1
    return edges


def _check_against_visits(log, sessions, times, gap):
    """``sessionize(log, gap)`` and its edges in both modes against the
    per-visit references, on the log whose sessions and timestamps are
    ``sessions`` and ``times``.
    """
    assert list(log.sessions.items()) == list(sessions.items())
    assert list(log.timestamps.items()) == list(times.items())
    if gap is not None:
        sessions, times = _sessionize_by_visits(sessions, times, gap)
    out = sessionize(log, gap)
    assert list(out.sessions.items()) == list(sessions.items())
    assert list(out.timestamps.items()) == list(times.items())
    assert out.n_users == len(sessions)
    assert out.n_sessions == sum(map(len, sessions.values()))
    assert out.n_visits == sum(len(seq) for seqs in sessions.values() for seq in seqs)
    assert out.n_records == log.n_records
    for mode in ("session-closed", "residual"):
        assert list(to_transition_edges(out, mode).items()) == list(
            _edges_by_visits(sessions, mode).items()
        )


#: a visit's timestamp step from the visit before it: none, backwards, and
#: around 2**53, where a float stops holding every whole number, and 2**63
_step = st.sampled_from([0, 0, 1, -1, -7, 2**53 - 1, 2**53, 2**53 + 1, 2**63 - 1, 2**63, 2**64 - 1])
_timed_sessions = st.dictionaries(
    st.text(alphabet="uvw", min_size=1, max_size=2),
    st.tuples(
        st.one_of(st.sampled_from([-2**63, -2**53, 0, 2**63 - 1]), st.integers(-2**63, 2**63 - 1)),
        st.lists(st.lists(st.tuples(_item, _step), min_size=1, max_size=4), min_size=1, max_size=3),
    ),
    min_size=1,
    max_size=4,
)
_gap = st.one_of(
    st.none(),
    st.sampled_from([0, 0.0, 0.5, 2**53 - 1, 2**53, 2.0**53, 2**53 + 1, 2.0**53 + 2,
                     2**63 - 1, 2.0**63, 2**63, 2**64 - 1, 2.0**64, 2**64 + 7]),
    st.integers(0, 2**66),
    st.floats(0, 2.0**66),
)


def _timestamps(first, steps, wide):
    """The running sums of ``steps`` from ``first``, each held inside
    int64 unless ``wide``.
    """
    def add(stamp, step):
        return stamp + step if wide else min(max(stamp + step, -2**63), 2**63 - 1)

    return list(accumulate(steps, add, initial=first))[1:]


@settings(max_examples=400)
@given(_timed_sessions, _gap, st.booleans())
@example({"u": (0, [[("A", 0), ("B", 2**53 + 1)]])}, 2**53, False)  # 2**53 + 1 rounds as a float
@example({"u": (-2**63, [[("A", 0), ("B", 2**64 - 1)]])}, 0, False)  # overflows int64
@example({"u": (-1, [[("A", 0), ("B", 2**63)]])}, 2**63 - 1, False)  # one past int64
def test_columnar_ingest_matches_visit_loop(drawn, gap, wide):
    """Sessions, timestamps, counts and edges (order and counts, both
    modes) of the columnar ingest equal the per-visit loop's, for a log
    built from lists and for the same log serialized and parsed. The
    stamps reach the int64 extremes, or pass them when ``wide``.
    """
    sessions, times = {}, {}
    for user, (first, seqs) in drawn.items():
        stamps = iter(_timestamps(first, [step for seq in seqs for _, step in seq], wide))
        sessions[user] = [[item for item, _ in seq] for seq in seqs]
        times[user] = [[next(stamps) for _ in seq] for seq in seqs]
    log = SessionLog.from_sessions(sessions, times)
    _check_against_visits(log, sessions, times, gap)

    # parse_log gives each user one session, stably sorted by time
    text = serialize_log(log)
    merged = {user: sorted(zip(chain(*sessions[user]), chain(*times[user])), key=lambda v: v[1])
              for user in sessions}
    parsed_sessions = {user: [[item for item, _ in visits]] for user, visits in merged.items()}
    parsed_times = {user: [[ts for _, ts in visits]] for user, visits in merged.items()}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", NonMonotonicTimestampsWarning)
        parsed = parse_log(text)
    _check_against_visits(parsed, parsed_sessions, parsed_times, gap)

    # a parsed log serializes to text that parses back to it
    again = serialize_log(parsed)
    assert serialize_log(parse_log(again)) == again
    assert list(parse_log(again).sessions.items()) == list(parsed_sessions.items())
