"""Log parsing, sessionization, and transition-edge extraction."""
import io

import pytest
from hypothesis import given, strategies as st

from attnflow import LogFormat, parse_log, sessionize, to_transition_edges
from attnflow.errors import (
    EmptyInput,
    MalformedRecord,
    MissingTimestamps,
    NonMonotonicTimestampsWarning,
)
from attnflow.ingest import serialize_log


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
    from attnflow import SessionLog

    log = SessionLog(sessions=sessions)
    text = serialize_log(log)
    reparsed = parse_log(text)
    assert reparsed.sessions == sessions
    assert serialize_log(reparsed) == text


@given(_user_sessions)
def test_session_closed_visit_conservation(sessions):
    """Interior in-weights total the visit count of the whole log."""
    from attnflow import SessionLog

    log = SessionLog(sessions=sessions)
    edges = to_transition_edges(log, "session-closed")
    arrivals = sum(w for (_, d), w in edges.items() if d != "__sink__")
    assert arrivals == log.n_visits
