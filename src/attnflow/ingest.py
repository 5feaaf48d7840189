"""Parsing of sequential browsing/transaction logs into per-user sessions.

Input is delimited text with columns ``user,item[,timestamp]``. Records are
grouped per user (re-sorted stably by timestamp when one is present) and
later converted into weighted transition edges, optionally closed through
the reserved source/sink nodes so the result is balanced by construction.
"""
from __future__ import annotations

import csv
import io
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    EmptyInput,
    MalformedRecord,
    MissingTimestamps,
    NonMonotonicTimestampsWarning,
)
from .network import SINK, SOURCE, split_columns


@dataclass(frozen=True)
class LogFormat:
    """Shape of the delimited input: separator and header presence."""

    delimiter: str = ","
    has_header: bool = False


@dataclass
class SessionLog:
    """Ordered visit sequences per user plus raw-data-level counts.

    ``sessions`` maps user id to a list of visit sequences; ``timestamps``
    mirrors that structure when the input carried a time column.
    """

    sessions: dict[str, list[list[str]]]
    item_registry: set[str] = field(default_factory=set)
    timestamps: dict[str, list[list[int]]] | None = None
    n_records: int = 0

    def __post_init__(self):
        if not self.item_registry:
            self.item_registry = {
                item for seqs in self.sessions.values() for seq in seqs for item in seq
            }
        if self.n_records == 0:
            self.n_records = self.n_visits

    @property
    def n_users(self) -> int:
        return len(self.sessions)

    @property
    def n_visits(self) -> int:
        return sum(len(seq) for seqs in self.sessions.values() for seq in seqs)

    @property
    def n_sessions(self) -> int:
        return sum(len(seqs) for seqs in self.sessions.values())


def parse_log(stream, fmt: LogFormat = LogFormat()) -> SessionLog:
    """Parse a delimited byte or text stream into a SessionLog.

    Columns are ``user,item`` or ``user,item,timestamp``; the first data row
    fixes the column count for the whole file. Records are grouped per user
    in file order; with timestamps, each user's records are re-sorted stably
    by time (out-of-order input triggers a warning, not an error).

    Raises MalformedRecord (bad column count, empty field, reserved item
    token, non-integer timestamp) or EmptyInput.
    """
    lines = None
    if isinstance(stream, (bytes, bytearray)):
        stream = stream.decode("utf-8")
    if isinstance(stream, str):
        text = stream
    elif hasattr(stream, "read") and isinstance(stream.read(0), bytes):
        data = stream.read()
        try:
            # with the universal newlines of a TextIOWrapper
            text = data.decode("utf-8").replace("\r\n", "\n").replace("\r", "\n")
        except UnicodeDecodeError:
            # the rows before the undecodable chunk are checked first
            return _parse_rows(io.TextIOWrapper(io.BytesIO(data), encoding="utf-8"), fmt)
    else:
        lines = list(stream)  # split as the stream splits its lines
        text = "".join(lines)
    log = _parse_columns(text, fmt)
    if log is None:
        log = _parse_rows(io.StringIO(text) if lines is None else lines, fmt)
    return log


def _warn_unsorted(user: str) -> None:
    warnings.warn(
        f"user {user!r}: timestamps not non-decreasing; re-sorting",
        NonMonotonicTimestampsWarning,
    )


def _parse_columns(text: str, fmt: LogFormat) -> SessionLog | None:
    """:func:`parse_log` of ``text``, every check run a column at a time;
    None where :func:`split_columns` cannot split the text, a check fails
    or a timestamp is outside int64.
    """
    columns = split_columns(text, fmt.delimiter, header=fmt.has_header, skip_empty=True)
    if columns is None or len(columns) not in (2, 3):
        return None
    users, items = columns[0], columns[1]
    if "" in users or "" in items or SOURCE in items or SINK in items:
        return None
    n = len(users)
    stamps = None
    if len(columns) == 3:
        try:
            stamps = np.fromiter(map(int, columns[2]), dtype=np.int64, count=n)
        except (ValueError, OverflowError):
            return None

    # users in order of first appearance, each one's records in file order
    # or stably by time
    code = {user: k for k, user in enumerate(dict.fromkeys(users))}
    user_code = np.fromiter(map(code.__getitem__, users), dtype=np.intp, count=n)
    if stamps is None:
        order = np.argsort(user_code, kind="stable")
    else:
        order = np.lexsort((stamps, user_code))
    ends = np.cumsum(np.bincount(user_code)).tolist()
    starts = [0, *ends[:-1]]
    visits = list(map(items.__getitem__, order.tolist()))
    sessions = {user: [visits[a:b]] for user, a, b in zip(code, starts, ends)}
    times = None
    if stamps is not None:
        # the stable sort moves a user's records only where their stamps decrease
        moved = np.diff(order) < 0
        moved[np.array(starts[1:], dtype=np.intp) - 1] = False
        by_code = list(code)
        for k in np.unique(user_code[order[1:][moved]]).tolist():
            _warn_unsorted(by_code[k])
        sorted_stamps = stamps[order].tolist()
        times = {user: [sorted_stamps[a:b]] for user, a, b in zip(code, starts, ends)}
    return SessionLog(sessions=sessions, item_registry=set(items), timestamps=times, n_records=n)


def _parse_rows(lines, fmt: LogFormat) -> SessionLog:
    """:func:`parse_log` of an iterable of lines, read one csv row at a
    time. A bad row raises its error, naming the row's last line.
    """
    reader = csv.reader(lines, delimiter=fmt.delimiter)
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
                _warn_unsorted(user)
            recs = sorted(recs, key=lambda rt: rt[1])
        sessions[user] = [[item for item, _ in recs]]
        if with_time:
            times[user] = [[ts for _, ts in recs]]
    return SessionLog(
        sessions=sessions,
        timestamps=times if with_time else None,
        n_records=n_records,
    )


def sessionize(log: SessionLog, gap_threshold: float | None = None) -> SessionLog:
    """Split each user's sequences wherever consecutive visits are separated
    by more than ``gap_threshold`` seconds. Without a threshold the log is
    returned unchanged. Requires timestamps on every record; a threshold
    that is negative or not finite raises ValueError.
    """
    if gap_threshold is None:
        return log
    if not (math.isfinite(gap_threshold) and gap_threshold >= 0):
        raise ValueError(f"gap threshold must be a finite number >= 0, got {gap_threshold!r}")
    if log.timestamps is None:
        raise MissingTimestamps("gap threshold given but the log has no timestamps")

    sessions: dict[str, list[list[str]]] = {}
    times: dict[str, list[list[int]]] = {}
    for user, seqs in log.sessions.items():
        new_seqs: list[list[str]] = []
        new_times: list[list[int]] = []
        for seq, stamps in zip(seqs, log.timestamps[user]):
            cur_items = [seq[0]]
            cur_times = [stamps[0]]
            for item, ts in zip(seq[1:], stamps[1:]):
                if ts - cur_times[-1] > gap_threshold:
                    new_seqs.append(cur_items)
                    new_times.append(cur_times)
                    cur_items, cur_times = [], []
                cur_items.append(item)
                cur_times.append(ts)
            new_seqs.append(cur_items)
            new_times.append(cur_times)
        sessions[user] = new_seqs
        times[user] = new_times
    return SessionLog(sessions=sessions, timestamps=times, n_records=log.n_records)


def to_transition_edges(log: SessionLog, mode: str = "session-closed") -> dict[tuple[str, str], int]:
    """Count consecutive-visit transitions as weighted edges.

    In ``session-closed`` mode every session also contributes a source edge
    into its first item and a sink edge out of its last, which balances the
    network exactly. ``residual`` mode emits interior transitions only and
    leaves balancing to the network layer.
    """
    if mode not in ("session-closed", "residual"):
        raise ValueError(f"unknown mode {mode!r}")
    if log.n_visits == 0:
        raise EmptyInput("session log has no visits")
    edges: dict[tuple[str, str], int] = {}

    def bump(src: str, dst: str) -> None:
        key = (src, dst)
        edges[key] = edges.get(key, 0) + 1

    for user, seqs in log.sessions.items():
        for seq in seqs:
            if mode == "session-closed":
                bump(SOURCE, seq[0])
            for a, b in zip(seq, seq[1:]):
                bump(a, b)
            if mode == "session-closed":
                bump(seq[-1], SINK)
    return edges


def serialize_log(log: SessionLog, fmt: LogFormat = LogFormat()) -> str:
    """Render a SessionLog back to delimited text, grouped by user.

    Inverse of parse_log for input that was already grouped by user; an
    interleaved file parses to the same SessionLog but serializes grouped.
    """
    out = io.StringIO()
    writer = csv.writer(out, delimiter=fmt.delimiter, lineterminator="\n")
    if fmt.has_header:
        writer.writerow(["user", "item", "timestamp"] if log.timestamps else ["user", "item"])
    for user, seqs in log.sessions.items():
        for si, seq in enumerate(seqs):
            for vi, item in enumerate(seq):
                if log.timestamps is not None:
                    writer.writerow([user, item, log.timestamps[user][si][vi]])
                else:
                    writer.writerow([user, item])
    return out.getvalue()
