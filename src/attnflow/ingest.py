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

from .errors import (
    EmptyInput,
    MalformedRecord,
    MissingTimestamps,
    NonMonotonicTimestampsWarning,
)
from .network import SINK, SOURCE


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
    if isinstance(stream, (bytes, bytearray)):
        stream = io.StringIO(stream.decode("utf-8"))
    elif isinstance(stream, str):
        stream = io.StringIO(stream)
    elif hasattr(stream, "read") and isinstance(stream.read(0), bytes):
        stream = io.TextIOWrapper(stream, encoding="utf-8")

    reader = csv.reader(stream, delimiter=fmt.delimiter)
    line_offset = 0
    if fmt.has_header:
        next(reader, None)
        line_offset = 1

    users: list[str] = []
    records: dict[str, list[tuple[str, int | None]]] = {}
    n_columns: int | None = None
    n_records = 0
    for lineno, row in enumerate(reader, start=line_offset + 1):
        if not row:
            continue
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
                warnings.warn(
                    f"user {user!r}: timestamps not non-decreasing; re-sorting",
                    NonMonotonicTimestampsWarning,
                )
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
