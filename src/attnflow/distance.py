"""Flow distances between nodes of a balanced network.

The total flow distance from i to j is the average number of steps of all
weighted walks from i to j, t_ij = (U^2)_ij / U_ij - 1. Subtracting the
self-return time t_jj gives the first-passage distance l_ij, and the
harmonic mean of the two directions gives a symmetric distance c_ij.

Distances from the reserved source node need no extended matrix: appending
the source row to U gives u_0j = (m_0 U)_j, so two transpose solves yield
the whole source row of t.
"""
from __future__ import annotations

import csv
import math

import numpy as np
import scipy.sparse as sp
import scipy.sparse.csgraph as csgraph

from .errors import UnreachablePair
from .flowcalc import FundamentalMatrix
from .network import reachable

PAIRWISE_CAP = 2000


def _structural_reachability(pattern) -> np.ndarray:
    """Boolean all-pairs reachability (including self) on the edge pattern.

    U_ij is exactly zero iff there is no interior path i -> j, so masking
    by graph reachability separates structural zeros from roundoff.
    """
    hops = csgraph.shortest_path(csgraph=pattern, method="D", unweighted=True)
    return np.isfinite(hops)


def _reachable_from_source(W: sp.csr_matrix, m0: np.ndarray) -> np.ndarray:
    """Interior nodes reachable from any node with source flow ``m0 > 0``.

    One BFS from a virtual super-source over the pattern
    ``[0, (m0 > 0) ; 0, W]``; row 0 is built from ``m0`` itself, so explicit
    zeros in the transition matrix cannot add start nodes.
    """
    start = np.flatnonzero(m0 > 0)
    indptr = np.concatenate(([0], W.indptr + start.size))
    indices = np.concatenate((start, W.indices)) + 1
    data = np.concatenate((np.ones(start.size), W.data))
    n = W.shape[0] + 1
    pattern = sp.csr_matrix((data, indices, indptr), shape=(n, n))
    return reachable(pattern, 0)[1:]


def return_times(fm: FundamentalMatrix) -> np.ndarray:
    """t_jj for every interior node: 0 unless the node can revisit itself."""
    return fm.squared_diagonal() / fm.diagonal() - 1.0


def total_distance_row(fm: FundamentalMatrix, i: int) -> np.ndarray:
    """t_ij for one origin i over all interior targets; NaN if unreachable."""
    r = fm.row(i)
    s = fm.solve_transpose(r)
    mask = reachable(fm.transition.interior, i)
    t = np.full(fm.n, np.nan)
    t[mask] = s[mask] / r[mask] - 1.0
    return t


def source_total_distances(fm: FundamentalMatrix) -> np.ndarray:
    """t_0j from the source to every interior node via two transpose solves."""
    m0 = fm.transition.source_row()
    v = fm.solve_transpose(m0)
    w = fm.solve_transpose(v)
    mask = _reachable_from_source(fm.transition.interior, m0)
    t = np.full(fm.n, np.nan)
    t[mask] = w[mask] / v[mask]
    return t


def source_distances(fm: FundamentalMatrix) -> np.ndarray:
    """First-passage distance from the source, l_0j = t_0j - t_jj."""
    return source_total_distances(fm) - return_times(fm)


def pairwise_distances(
    fm: FundamentalMatrix, cap: int = PAIRWISE_CAP
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Dense (t, l, c) matrices over interior nodes; NaN marks unreachable.

    Materializes U, so it is capped; raise the cap explicitly for larger
    networks if the memory cost is acceptable.
    """
    n = fm.n
    if n > cap:
        raise ValueError(
            f"pairwise distances need a dense {n} x {n} matrix; over the cap of {cap}"
        )
    U = fm.matrix()
    reach = _structural_reachability(fm.transition.interior)
    with np.errstate(divide="ignore", invalid="ignore"):
        t = (U @ U) / U - 1.0
    t[~reach] = np.nan
    l = t - np.diag(t)[np.newaxis, :]
    np.fill_diagonal(l, 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        c = 2.0 * l * l.T / (l + l.T)
    c[np.isnan(l) | np.isnan(l.T)] = np.nan
    np.fill_diagonal(c, 0.0)
    return t, l, c


def first_passage(fm: FundamentalMatrix, i: int, j: int) -> float:
    """Scalar l_ij; raises UnreachablePair when j is unreachable from i."""
    if i == j:
        return 0.0
    t = total_distance_row(fm, i)
    if math.isnan(t[j]):
        raise UnreachablePair(fm.items[i], fm.items[j])
    return float(t[j] - return_times(fm)[j])


def symmetric_distance(fm: FundamentalMatrix, i: int, j: int) -> float:
    """Harmonic-mean distance c_ij; needs reachability in both directions."""
    if i == j:
        return 0.0
    lij = first_passage(fm, i, j)
    lji = first_passage(fm, j, i)
    if lij + lji == 0.0:
        return 0.0
    return 2.0 * lij * lji / (lij + lji)


def write_source_distances(path, items: tuple[str, ...], l0: np.ndarray) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["item", "l_source"])
        for item, value in zip(items, l0):
            writer.writerow([item, "" if math.isnan(value) else repr(float(value))])


def write_pairwise(
    path, items: tuple[str, ...], t: np.ndarray, l: np.ndarray, c: np.ndarray
) -> None:
    """All ordered pairs i != j with empty cells for unreachable entries."""

    def cell(x: float) -> str:
        return "" if math.isnan(x) else repr(float(x))

    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["i", "j", "t", "l", "c"])
        for a, src in enumerate(items):
            for b, dst in enumerate(items):
                if a == b:
                    continue
                writer.writerow([src, dst, cell(t[a, b]), cell(l[a, b]), cell(c[a, b])])
