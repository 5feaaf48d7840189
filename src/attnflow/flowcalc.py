"""Per-node flow calculus on balanced open flow networks.

From a network's weight matrix this layer derives the row-normalized
transition matrix of the embedded random walk, the fundamental matrix
U = (I - W)^-1 of its interior block, and the per-node quantities:

    through_flow      A  total flow leaving the node
    dissipation       D  flow sent directly to the sink
    source_inflow     S  flow received directly from the source
    circulating_flow  F  flow passed on to other interior nodes (A - D)
    source_flux       phi  source flow arriving through all paths
    impact            C  total flow generated per unit of the node's own
                         recirculation, phi * rowsum(U) / diag(U)

For a balanced certified network, source_flux equals through_flow up to
numerical error; that redundancy is surfaced as a consistency check.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp

# fundamental_diagonals is re-exported: the solver layer is reached through flowcalc
from ._linalg import DENSE_THRESHOLD, AbsorbingSolver, fundamental_diagonals
from .errors import ZeroOutflowRow
from .network import FlowNetwork, _numbered_rows, reprs, write_csv

STATS_HEADER = ("item", "A", "D", "S", "F", "C", "phi")


@dataclass(frozen=True)
class TransitionMatrix:
    """Row-normalized walk matrix over (source, interior..., sink). Stored
    zeros are dropped when it is built, so the pattern of ``matrix`` is the
    walk's graph; ``matrix`` is copied only where it holds one."""

    items: tuple[str, ...]
    matrix: sp.csr_matrix

    def __post_init__(self):
        if not self.matrix.data.all():
            object.__setattr__(self, "matrix", self.matrix.copy())
            self.matrix.eliminate_zeros()

    @property
    def n_interior(self) -> int:
        return len(self.items)

    @cached_property
    def interior(self) -> sp.csr_matrix:
        n = self.n_interior
        return self.matrix[1 : n + 1, 1 : n + 1].tocsr()

    def source_row(self) -> np.ndarray:
        """Walk-start distribution over interior nodes."""
        n = self.n_interior
        return np.asarray(self.matrix[0, 1 : n + 1].todense()).ravel()


def transition_matrix(net: FlowNetwork) -> TransitionMatrix:
    """Normalize each row of the weight matrix by its out-flow.

    The sink row stays identically zero (walks stop there). Interior rows
    with zero out-flow would strand walkers and raise ZeroOutflowRow;
    balancing guarantees they cannot occur.
    """
    flow = net.flow.tocsr()
    out = np.asarray(flow.sum(axis=1)).ravel()
    interior = np.arange(1, net.n_interior + 1)
    dead = interior[out[interior] <= 0.0]
    if dead.size:
        raise ZeroOutflowRow([net.label(i) for i in dead])
    scale = np.zeros_like(out)
    nonzero = out > 0
    scale[nonzero] = 1.0 / out[nonzero]
    M = sp.diags(scale) @ flow
    return TransitionMatrix(items=net.items, matrix=M.tocsr())


def fundamental_matrix(
    tm: TransitionMatrix, dense_threshold: int = DENSE_THRESHOLD
) -> AbsorbingSolver:
    """The solver answering U = (I - W)^-1 queries over tm's interior block."""
    return AbsorbingSolver(tm, dense_threshold)


@dataclass(frozen=True)
class NodeFlowStats:
    """Flow calculus results over interior nodes, parallel arrays."""

    items: tuple[str, ...]
    through_flow: np.ndarray
    dissipation: np.ndarray
    source_inflow: np.ndarray
    circulating_flow: np.ndarray
    source_flux: np.ndarray
    impact: np.ndarray

    def __len__(self) -> int:
        return len(self.items)

    def flux_residual(self) -> float:
        """Largest relative gap between source_flux and through_flow."""
        denom = np.maximum(np.abs(self.through_flow), 1e-300)
        return float(np.max(np.abs(self.source_flux - self.through_flow) / denom)) if len(self) else 0.0

    def columns(self) -> dict[str, np.ndarray]:
        return {
            "A": self.through_flow,
            "D": self.dissipation,
            "S": self.source_inflow,
            "F": self.circulating_flow,
            "C": self.impact,
            "phi": self.source_flux,
        }

    def totals(self) -> dict[str, float]:
        return {name: float(col.sum()) for name, col in self.columns().items()}


def _edge_sums(net: FlowNetwork) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A, D and S of every interior node: sums over its edges, with no solve."""
    n = net.n_interior
    flow = net.flow.tocsr()
    interior = slice(1, n + 1)
    A = np.asarray(flow.sum(axis=1)).ravel()[interior]
    D = np.asarray(flow[interior, net.sink_index].todense()).ravel()
    S = np.asarray(flow[net.source_index, interior].todense()).ravel()
    return A, D, S


def node_flows(net: FlowNetwork, fm: AbsorbingSolver | None = None) -> NodeFlowStats:
    """Compute all per-node flow quantities for a balanced network.

    Needs only a handful of solves against one factorization, so it scales
    to large sparse networks without forming U.
    """
    if fm is None:
        fm = fundamental_matrix(transition_matrix(net))
    A, D, S = _edge_sums(net)
    phi = fm.solve_transpose(S)
    C = phi * fm.row_sums() / fm.diagonal()
    return NodeFlowStats(
        items=net.items,
        through_flow=A,
        dissipation=D,
        source_inflow=S,
        circulating_flow=A - D,
        source_flux=phi,
        impact=C,
    )


def flow_impact_double_sum(fm: AbsorbingSolver, source_flows: np.ndarray) -> np.ndarray:
    """Impact as the explicit double sum over inflow paths j and onward
    paths k, contracted against a materialized U. Dense-only cross-check
    for the factored form in :func:`node_flows`.
    """
    U = fm.matrix()
    return np.einsum("j,ji,ik->i", source_flows, U, U) / np.diag(U)


def write_stats_csv(path, stats: NodeFlowStats) -> None:
    columns = stats.columns()
    write_csv(path, STATS_HEADER, [stats.items, *(reprs(columns[c]) for c in STATS_HEADER[1:])])


def read_stats_csv(path) -> NodeFlowStats:
    """Read a stats CSV. Raises ValueError naming the file and 1-based line
    for a wrong header, a row csv.reader refuses, a row without one cell
    per column, or a cell that is not a finite number.
    """
    def refuse(line: int, reason: str) -> ValueError:
        return ValueError(f"{path}:{line}: {reason}")

    with open(path, newline="", encoding="utf-8") as fh:
        numbered = _numbered_rows(fh, refuse)
        _, header = next(numbered, (1, None))
        if header is None or tuple(header) != STATS_HEADER:
            raise refuse(1, f"unexpected stats header {header!r}")
        items: list[str] = []
        rows: list[list[float]] = []
        for line, row in numbered:
            if len(row) != len(STATS_HEADER):
                raise refuse(line, f"expected {len(STATS_HEADER)} columns, got {len(row)}")
            try:
                values = [float(x) for x in row[1:]]
            except ValueError as exc:
                raise refuse(line, str(exc)) from None
            for cell, value in zip(row[1:], values):
                if not math.isfinite(value):
                    raise refuse(line, f"expected a finite number, got {cell!r}")
            rows.append(values)
            items.append(row[0])
    data = np.array(rows) if rows else np.zeros((0, 6))
    return NodeFlowStats(
        items=tuple(items),
        through_flow=data[:, 0],
        dissipation=data[:, 1],
        source_inflow=data[:, 2],
        circulating_flow=data[:, 3],
        impact=data[:, 4],
        source_flux=data[:, 5],
    )
