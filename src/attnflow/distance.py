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

import math

import numpy as np

from .errors import UnreachablePair
from .flowcalc import AbsorbingSolver
from .network import cells, reachable, write_csv


def return_times(fm: AbsorbingSolver) -> np.ndarray:
    """t_jj for every interior node: 0 unless the node can revisit itself."""
    return fm.squared_diagonal() / fm.diagonal() - 1.0


def total_distance_row(fm: AbsorbingSolver, i: int) -> np.ndarray:
    """t_ij for one origin i over all interior targets; NaN if unreachable."""
    r = fm.row(i)
    s = fm.solve_transpose(r)
    mask = reachable(fm.transition.interior, i)
    t = np.full(fm.n, np.nan)
    t[mask] = s[mask] / r[mask] - 1.0
    return t


def source_total_distances(fm: AbsorbingSolver) -> np.ndarray:
    """t_0j from the source to every interior node via two transpose solves;
    NaN where no walk from the source node reaches j. The walk matrix
    holds no stored zeros, so its pattern is the reachability graph."""
    tm = fm.transition
    v = fm.solve_transpose(tm.source_row())
    w = fm.solve_transpose(v)
    mask = reachable(tm.matrix, 0)[1:-1]
    t = np.full(fm.n, np.nan)
    t[mask] = w[mask] / v[mask]
    return t


def source_distances(fm: AbsorbingSolver) -> np.ndarray:
    """First-passage distance from the source, l_0j = t_0j - t_jj."""
    return source_total_distances(fm) - return_times(fm)


def pairwise_distances(fm: AbsorbingSolver) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Dense (t, l, c) matrices over interior nodes; NaN marks unreachable.

    Materializes U, so the solver's ``dense_threshold`` bounds it; build
    the solver with a larger one if the memory cost is acceptable. U_ij is
    exactly zero iff no interior path leads from i to j, so each row is
    masked by reachability on the edge pattern, which separates structural
    zeros from roundoff.
    """
    n = fm.n
    U = fm.matrix()
    with np.errstate(divide="ignore", invalid="ignore"):
        t = (U @ U) / U - 1.0
    pattern = fm.transition.interior
    for i in range(n):
        t[i, ~reachable(pattern, i)] = np.nan
    l = t - np.diag(t)[np.newaxis, :]
    np.fill_diagonal(l, 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        c = 2.0 * l * l.T / (l + l.T)
    c[np.isnan(l) | np.isnan(l.T)] = np.nan
    np.fill_diagonal(c, 0.0)
    return t, l, c


def first_passage(fm: AbsorbingSolver, i: int, j: int) -> float:
    """Scalar l_ij; raises UnreachablePair when j is unreachable from i."""
    if i == j:
        return 0.0
    t = total_distance_row(fm, i)
    if math.isnan(t[j]):
        raise UnreachablePair(fm.items[i], fm.items[j])
    return float(t[j] - return_times(fm)[j])


def symmetric_distance(fm: AbsorbingSolver, i: int, j: int) -> float:
    """Harmonic-mean distance c_ij; needs reachability in both directions."""
    if i == j:
        return 0.0
    lij = first_passage(fm, i, j)
    lji = first_passage(fm, j, i)
    if lij + lji == 0.0:
        return 0.0
    return 2.0 * lij * lji / (lij + lji)


def write_source_distances(path, items: tuple[str, ...], l0: np.ndarray) -> None:
    write_csv(path, ["item", "l_source"], [items, cells(l0)])


def write_pairwise(
    path, items: tuple[str, ...], t: np.ndarray, l: np.ndarray, c: np.ndarray
) -> None:
    """All ordered pairs i != j with empty cells for unreachable entries."""
    a, b = np.nonzero(~np.eye(len(items), dtype=bool))  # row by row
    labels = np.array(items, dtype=object)
    columns = [labels[a].tolist(), labels[b].tolist(), *(cells(m[a, b]) for m in (t, l, c))]
    write_csv(path, ["i", "j", "t", "l", "c"], columns)
