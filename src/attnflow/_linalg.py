"""Direct-solve machinery shared by the flow and distance layers.

Everything here works on the interior transition block W (N x N, rows sum
to <= 1). The fundamental matrix U = (I - W)^-1 is never formed densely at
scale; instead a factorization of (I - W) answers row, column, and diagonal
queries on demand.
"""
from __future__ import annotations

import warnings

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.csgraph as csgraph
import scipy.sparse.linalg as spla

from .errors import SingularSystem

# Pivot magnitudes below this mean (I - W) is numerically singular, which
# for a substochastic W signals a closed recurrent component.
PIVOT_TOL = 1e-12

# Interior blocks at or below this order are factored densely.
DENSE_THRESHOLD = 4096


def closed_components(W: sp.spmatrix) -> list[list[int]]:
    """Strongly connected components whose rows lose no mass.

    A component is closed when every member row sums to ~1 and no edge
    leaves the component; random walks entering it are never absorbed.
    """
    n = W.shape[0]
    if n == 0:
        return []
    n_comp, labels = csgraph.connected_components(W, directed=True, connection="strong")
    row_sums = np.asarray(W.sum(axis=1)).ravel()
    coo = W.tocoo()
    leaky = np.bincount(labels, weights=row_sums < 1.0 - PIVOT_TOL, minlength=n_comp) > 0
    escapes = np.zeros(n_comp, dtype=bool)
    cross = labels[coo.row] != labels[coo.col]
    escapes[labels[coo.row[cross & (coo.data != 0)]]] = True
    order, bounds = _group_by_component(labels, n_comp)
    return [
        order[bounds[comp] : bounds[comp + 1]].tolist()
        for comp in np.flatnonzero(~(escapes | leaky))
    ]


def _group_by_component(labels: np.ndarray, n_comp: int) -> tuple[np.ndarray, np.ndarray]:
    """Node indices sorted by component label, ascending within each
    component, and the bounds of each component's slice of them.
    """
    order = np.argsort(labels, kind="stable")
    bounds = np.searchsorted(labels[order], np.arange(n_comp + 1))
    return order, bounds


class AbsorbingSolver:
    """LU factorization of (I - W) answering U-queries without forming U.

    Dense below ``dense_threshold``, sparse splu above. The factorization
    is checked for near-zero pivots; on failure the offending closed
    component is reported so the caller can name the trapped nodes.
    """

    def __init__(self, W: sp.spmatrix, dense_threshold: int = DENSE_THRESHOLD):
        self.n = W.shape[0]
        self.W = W.tocsr()
        self.dense = self.n <= dense_threshold
        eye = sp.identity(self.n, format="csc")
        system = (eye - self.W).tocsc()
        if self.dense:
            with warnings.catch_warnings():
                # the pivot check below raises a typed error instead
                warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
                self._lu, self._piv = scipy.linalg.lu_factor(system.toarray())
            pivots = np.abs(np.diag(self._lu))
        else:
            self._splu = spla.splu(system)
            pivots = np.abs(self._splu.U.diagonal())
        min_pivot = float(pivots.min()) if self.n else 1.0
        if min_pivot < PIVOT_TOL:
            trapped = closed_components(self.W)
            component = trapped[0] if trapped else []
            raise SingularSystem(component, min_pivot)

    def solve(self, b: np.ndarray) -> np.ndarray:
        """x with (I - W) x = b, i.e. x = U b."""
        if self.dense:
            return scipy.linalg.lu_solve((self._lu, self._piv), b)
        if b.ndim == 1:
            return self._splu.solve(b)
        return np.column_stack([self._splu.solve(np.ascontiguousarray(b[:, k])) for k in range(b.shape[1])])

    def solve_transpose(self, b: np.ndarray) -> np.ndarray:
        """x with (I - W)^T x = b, i.e. x = U^T b (row queries of U)."""
        if self.dense:
            return scipy.linalg.lu_solve((self._lu, self._piv), b, trans=1)
        if b.ndim == 1:
            return self._splu.solve(b, trans="T")
        return np.column_stack(
            [self._splu.solve(np.ascontiguousarray(b[:, k]), trans="T") for k in range(b.shape[1])]
        )

    def row(self, i: int) -> np.ndarray:
        e = np.zeros(self.n)
        e[i] = 1.0
        return self.solve_transpose(e)

    def column(self, j: int) -> np.ndarray:
        e = np.zeros(self.n)
        e[j] = 1.0
        return self.solve(e)

    def row_sums(self) -> np.ndarray:
        """U @ 1: expected visits to all interior nodes per start node."""
        return self.solve(np.ones(self.n))

    def condition_estimate(self) -> float:
        """1-norm condition estimate of (I - W) via the factorization."""
        if self.n == 0:
            return 1.0
        system = sp.identity(self.n, format="csc") - self.W
        norm = spla.norm(system, 1)
        inv_norm = spla.onenormest(
            spla.LinearOperator(
                (self.n, self.n), matvec=self.solve, rmatvec=self.solve_transpose
            )
        )
        return float(norm * inv_norm)


def fundamental_diagonals(
    W: sp.spmatrix, dense_threshold: int = DENSE_THRESHOLD
) -> tuple[np.ndarray, np.ndarray]:
    """Exact diag(U) and diag(U^2) without any global column solves.

    A walk that leaves node j and returns to j never exits j's strongly
    connected component, so both diagonals are computable per component
    from the small dense inverse of its restriction. Singleton components
    reduce to the self-loop weight w: u = 1/(1-w).
    """
    n = W.shape[0]
    diag_u = np.ones(n)
    diag_u2 = np.ones(n)
    if n == 0:
        return diag_u, diag_u2
    W = W.tocsr()
    n_comp, labels = csgraph.connected_components(W, directed=True, connection="strong")
    order, bounds = _group_by_component(labels, n_comp)
    loops = W.diagonal()
    for comp in range(n_comp):
        members = order[bounds[comp] : bounds[comp + 1]]
        if members.size == 1:
            j = members[0]
            w = loops[j]
            u = 1.0 / (1.0 - w)
            diag_u[j] = u
            diag_u2[j] = u * u
            continue
        if members.size > dense_threshold:
            # oversized recurrent component: per-column sparse solves, slow
            # but exact
            sub = (
                sp.identity(members.size, format="csc")
                - W[np.ix_(members, members)].tocsc()
            )
            lu = spla.splu(sub)
            for local, j in enumerate(members):
                e = np.zeros(members.size)
                e[local] = 1.0
                col = lu.solve(e)
                row = lu.solve(e, trans="T")
                diag_u[j] = col[local]
                diag_u2[j] = float(row @ col)
            continue
        block = W[np.ix_(members, members)].toarray()
        inv = np.linalg.inv(np.eye(members.size) - block)
        diag_u[members] = np.diag(inv)
        diag_u2[members] = np.einsum("ij,ji->i", inv, inv)
    return diag_u, diag_u2
