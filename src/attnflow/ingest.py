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
from collections.abc import Mapping
from dataclasses import dataclass, replace
from functools import cached_property
from itertools import chain

import numpy as np

from .errors import (
    EmptyInput,
    MalformedRecord,
    MissingTimestamps,
    NonMonotonicTimestampsWarning,
)
from .network import (SINK, SOURCE, _edge_rows, _label_codes, _LazyMapping, _numbered_rows,
                      split_columns)


@dataclass(frozen=True)
class LogFormat:
    """Shape of the delimited input: separator and header presence."""

    delimiter: str = ","
    has_header: bool = False


class _PerUser(_LazyMapping):
    """A read-only mapping user id -> that user's sessions, each a list of
    one value per visit, held as :class:`SessionLog`'s columns; ``len()``
    reads the user count.
    """

    def __init__(self, log: SessionLog, column: np.ndarray, labels: tuple[str, ...] | None = None):
        self._users = log.users
        self._owners = log.owners
        self._starts = log.starts
        self._column = column  # one value per visit, or its code in labels
        self._labels = labels

    @cached_property
    def _dict(self) -> dict[str, list[list]]:
        values = self._column.tolist()
        if self._labels is not None:
            values = list(map(self._labels.__getitem__, values))
        bounds = self._starts.tolist()
        seqs = [values[a:b] for a, b in zip(bounds, bounds[1:])]
        cuts = np.searchsorted(self._owners, np.arange(len(self._users) + 1)).tolist()
        return {user: seqs[a:b] for user, a, b in zip(self._users, cuts, cuts[1:])}

    def __len__(self) -> int:
        return len(self._users)


@dataclass(frozen=True, eq=False)
class SessionLog:
    """A log's visits on columns, in the order :func:`parse_log` groups
    them: users by first appearance, each user's sessions in time order,
    a session's visits consecutive.

    ``users`` and ``items`` hold the ids by code. ``visits`` holds every
    visit's item code; ``stamps`` its int64 timestamp (an object array of
    Python ints where one lies outside int64), or None without a time
    column. ``starts`` holds the offset of every session's first visit and
    then the number of visits; ``owners`` every session's user code, in
    non-decreasing order. ``sessions`` and ``timestamps`` read the columns
    as read-only mappings user id -> list of visit sequences.
    """

    users: tuple[str, ...]
    items: tuple[str, ...]
    visits: np.ndarray
    stamps: np.ndarray | None
    starts: np.ndarray
    owners: np.ndarray
    n_records: int

    @classmethod
    def from_sessions(cls, sessions: dict[str, list[list[str]]],
                      timestamps: dict[str, list[list[int]]] | None = None,
                      n_records: int = 0) -> SessionLog:
        """The log of ``sessions``, user id -> list of visit sequences, and
        of ``timestamps`` shaped alike. ``n_records`` defaults to the
        number of visits. Raises ValueError for an empty sequence, a
        reserved item id or timestamps shaped unlike the sessions.
        """
        users = tuple(sessions)
        seqs = [seq for user in users for seq in sessions[user]]
        lengths = np.fromiter(map(len, seqs), dtype=np.intp, count=len(seqs))
        if not lengths.all():
            raise ValueError("a session has no visits")
        flat = list(chain.from_iterable(seqs))
        items, visits = _label_codes(flat)
        if SOURCE in items or SINK in items:
            raise ValueError(f"{SOURCE!r} and {SINK!r} are reserved, not item ids")
        stamps = None
        if timestamps is not None:
            times = [seq for user in users for seq in timestamps[user]]
            if list(map(len, times)) != lengths.tolist():
                raise ValueError("timestamps are not shaped like the sessions")
            stamps = _stamp_column(list(chain.from_iterable(times)))
        starts = np.zeros(len(seqs) + 1, dtype=np.intp)
        np.cumsum(lengths, out=starts[1:])
        return cls(
            users=users,
            items=tuple(items),
            visits=visits,
            stamps=stamps,
            starts=starts,
            owners=np.repeat(np.arange(len(users)), [len(sessions[user]) for user in users]),
            n_records=n_records or len(flat),
        )

    @cached_property
    def sessions(self) -> Mapping[str, list[list[str]]]:
        return _PerUser(self, self.visits, self.items)

    @cached_property
    def timestamps(self) -> Mapping[str, list[list[int]]] | None:
        if self.stamps is None:
            return None
        return _PerUser(self, self.stamps)

    @property
    def item_registry(self) -> set[str]:
        return set(self.items)

    @property
    def n_users(self) -> int:
        return len(self.users)

    @property
    def n_visits(self) -> int:
        return len(self.visits)

    @property
    def n_sessions(self) -> int:
        return len(self.owners)

    def visit_users(self) -> np.ndarray:
        """The user code of every visit."""
        return np.repeat(self.owners, np.diff(self.starts))


def _stamp_column(values: list) -> np.ndarray:
    """``values`` as int64, or as an object array of the values themselves
    where one is not a whole number inside int64.
    """
    try:
        column = np.array(values, dtype=np.int64)
    except (OverflowError, TypeError, ValueError):
        column = None
    if column is None or column.tolist() != values:
        column = np.empty(len(values), dtype=object)
        column[:] = values
    return column


def parse_log(stream, fmt: LogFormat = LogFormat()) -> SessionLog:
    """Parse a delimited byte or text stream into a SessionLog.

    Columns are ``user,item`` or ``user,item,timestamp``; the first data row
    fixes the column count for the whole file. Records are grouped per user
    in file order; with timestamps, each user's records are re-sorted stably
    by time (out-of-order input triggers a warning, not an error).

    Raises MalformedRecord (a row csv.reader refuses, bad column count,
    empty field, reserved item token, non-integer timestamp) or EmptyInput.
    """
    lines = None  # where the text is not plain, csv.reader reads io.StringIO(text)
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
            _raise_bad_record(io.TextIOWrapper(io.BytesIO(data), encoding="utf-8"), fmt)
    else:
        lines = list(stream)  # split as the stream splits its lines
        # csv.reader ends a row where a line ends, with a line end or without
        text = "".join(line if line.endswith(("\n", "\r")) else line + "\n" for line in lines)
        if '"' not in text and any(
            "\n" in body or "\r" in body for body in (line.rstrip("\r\n") for line in lines)
        ):
            # csv.reader refuses a line end inside an unquoted line, where
            # the joined text would start a new row
            _raise_bad_record(lines, fmt)
    log = _parse_columns(text, fmt, lines)
    if log is None:
        _raise_bad_record(io.StringIO(text) if lines is None else lines, fmt)
    return log


def _parse_columns(text: str, fmt: LogFormat, lines=None) -> SessionLog | None:
    """:func:`parse_log` of ``text``, read by :func:`split_columns` from
    ``lines`` where it is not plain, every check run a column at a time;
    None where a check fails.
    """
    columns = split_columns(text, fmt.delimiter, header=fmt.has_header, skip_empty=True,
                            lines=lines)
    if columns is None or len(columns) not in (2, 3):
        return None
    users, items = columns[0], columns[1]
    if "" in users or "" in items or SOURCE in items or SINK in items:
        return None
    n = len(users)
    stamps = None
    if len(columns) == 3:
        try:
            try:
                stamps = np.fromiter(map(int, columns[2]), dtype=np.int64, count=n)
            except OverflowError:  # a stamp outside int64
                stamps = _stamp_column(list(map(int, columns[2])))
        except ValueError:
            return None

    # users in order of first appearance, each one's records in file order
    # or stably by time
    user_ids, user_code = _label_codes(users)
    if stamps is None:
        order = np.argsort(user_code, kind="stable")
    else:
        order = np.lexsort((stamps, user_code))
    starts = np.zeros(len(user_ids) + 1, dtype=np.intp)
    np.cumsum(np.bincount(user_code), out=starts[1:])
    if stamps is not None:
        # the stable sort moves a user's records only where their stamps decrease
        moved = np.diff(order) < 0
        moved[starts[1:-1] - 1] = False
        for k in np.unique(user_code[order[1:][moved]]).tolist():
            warnings.warn(
                f"user {user_ids[k]!r}: timestamps not non-decreasing; re-sorting",
                NonMonotonicTimestampsWarning,
            )
        stamps = stamps[order]
    item_ids, item_code = _label_codes(items)
    return SessionLog(users=tuple(user_ids), items=tuple(item_ids), visits=item_code[order],
                      stamps=stamps, starts=starts, owners=np.arange(len(user_ids)), n_records=n)


def _raise_bad_record(lines, fmt: LogFormat) -> None:
    """Raise the error of the first record of ``lines``, read one csv row
    at a time, that :func:`_parse_columns` refuses, naming the row's last
    line; EmptyInput where there is none.
    """
    n_columns: int | None = None
    for lineno, row in _numbered_rows(lines, MalformedRecord, fmt.delimiter, fmt.has_header,
                                      skip_empty=True):
        if n_columns is None:
            if len(row) not in (2, 3):
                raise MalformedRecord(lineno, f"expected 2 or 3 columns, got {len(row)}")
            n_columns = len(row)
        if len(row) != n_columns:
            raise MalformedRecord(lineno, f"expected {n_columns} columns, got {len(row)}")
        if not row[0] or not row[1]:
            raise MalformedRecord(lineno, "empty user or item field")
        if row[1] in (SOURCE, SINK):
            raise MalformedRecord(lineno, f"reserved token {row[1]!r} used as item id")
        if n_columns == 3:
            try:
                int(row[2])
            except ValueError:
                raise MalformedRecord(lineno, f"bad timestamp {row[2]!r}") from None
    if n_columns is None:
        raise EmptyInput("no records in input")
    raise AssertionError("the row checks pass a log the column checks reject")


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
    if log.stamps is None:
        raise MissingTimestamps("gap threshold given but the log has no timestamps")

    first = np.zeros(log.n_visits + 1, dtype=bool)
    first[log.starts] = True
    first[1:-1] |= _rises_over(log.stamps, gap_threshold)
    starts = np.flatnonzero(first)
    # a new session belongs to the user of the session it was cut from
    owners = log.owners[np.searchsorted(log.starts, starts[:-1], side="right") - 1]
    return replace(log, starts=starts, owners=owners)


def _rises_over(stamps: np.ndarray, gap: float) -> np.ndarray:
    """Whether each stamp after the first exceeds the one before it by more
    than ``gap``, compared as Python compares the exact difference.
    """
    if stamps.dtype == object:
        return np.diff(stamps) > gap
    # a whole number exceeds gap exactly when it exceeds floor(gap); where
    # a stamp is above the one before, their difference is exact in uint64
    limit = np.uint64(min(math.floor(gap), 2**64 - 1))
    rise = stamps[1:].view(np.uint64) - stamps[:-1].view(np.uint64)
    return (stamps[1:] > stamps[:-1]) & (rise > limit)


def to_transition_edges(log: SessionLog, mode: str = "session-closed") -> Mapping[tuple[str, str], int]:
    """Count consecutive-visit transitions as weighted edges.

    In ``session-closed`` mode every session also contributes a source edge
    into its first item and a sink edge out of its last, which balances the
    network exactly. ``residual`` mode emits interior transitions only and
    leaves balancing to the network layer.

    Returns a read-only mapping ``(src, dst) -> count`` held as code and
    count arrays, each edge at its first use: per session, the source
    edge, the transitions in visit order, then the sink edge.
    """
    if mode not in ("session-closed", "residual"):
        raise ValueError(f"unknown mode {mode!r}")
    if log.n_visits == 0:
        raise EmptyInput("session log has no visits")
    labels = [SOURCE, SINK, *log.items]
    codes = log.visits + 2
    starts = log.starts
    if mode == "session-closed":
        # each session's visits between a SOURCE (code 0) and a SINK (code 1)
        shift = 2 * np.arange(log.n_sessions)
        walk = np.empty(codes.size + shift.size * 2, dtype=np.intp)
        walk[np.arange(codes.size) + np.repeat(shift + 1, np.diff(starts))] = codes
        walk[starts[:-1] + shift] = 0
        walk[starts[1:] + shift + 1] = 1
        steps = walk[:-1] != 1  # not from one session's SINK to the next's SOURCE
        src, dst = walk[:-1][steps], walk[1:][steps]
    else:
        steps = np.ones(codes.size - 1, dtype=bool)
        steps[starts[1:-1] - 1] = False  # not from one session's last visit to the next's first
        src, dst = codes[:-1][steps], codes[1:][steps]
    return _edge_rows(labels, np.stack((src, dst), axis=1))


def serialize_log(log: SessionLog, fmt: LogFormat = LogFormat()) -> str:
    """Render a SessionLog back to delimited text, grouped by user.

    Inverse of parse_log for input that was already grouped by user; an
    interleaved file parses to the same SessionLog but serializes grouped.
    """
    out = io.StringIO()
    writer = csv.writer(out, delimiter=fmt.delimiter, lineterminator="\n")
    if fmt.has_header:
        writer.writerow(["user", "item", "timestamp"] if log.timestamps else ["user", "item"])
    columns = [
        list(map(log.users.__getitem__, log.visit_users().tolist())),
        list(map(log.items.__getitem__, log.visits.tolist())),
    ]
    if log.stamps is not None:
        columns.append(log.stamps.tolist())
    writer.writerows(zip(*columns))
    return out.getvalue()
