"""Direct-solve machinery shared by the flow and distance layers.

Everything here works on the interior transition block W (N x N, rows sum
to <= 1). The fundamental matrix U = (I - W)^-1 is never formed densely at
scale; instead one sparse LU factorization of (I - W) answers row, column,
and diagonal queries on demand.
"""
from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np
import scipy.sparse as sp
import scipy.sparse.csgraph as csgraph
import scipy.sparse.linalg as spla

from .errors import SingularSystem

if TYPE_CHECKING:
    from .flowcalc import TransitionMatrix

# Pivot magnitudes below this mean (I - W) is numerically singular, which
# for a substochastic W signals a closed recurrent component.
PIVOT_TOL = 1e-12

# Strongly connected components at or below this order get their diagonals
# from a dense inverse; a materialized U is refused above it.
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
    """U = (I - W)^-1 of a transition matrix's interior block, answered
    from one sparse LU factorization of (I - W) without forming U.

    Rows, columns and row sums come from triangular solves against the
    factor, the diagonals of U and U^2 from per-component inverses (cached
    after the first call); the full matrix is only materialized on request
    and only up to ``dense_threshold`` nodes.

    The SuperLU column ordering follows the SCC structure of W. With small
    components (I - W) is close to block triangular and COLAMD keeps the
    fill low. When the largest component holds more than half the nodes,
    minimum degree on the pattern of A^T + A fills far less: on a generated
    4,000-item session log (largest SCC 93% of the nodes) L + U hold 5% of
    n^2 under it and 29% under COLAMD.

    The factorization is checked for zero and near-zero pivots; on failure
    the offending closed component is reported so the caller can name the
    trapped nodes.
    """

    def __init__(self, tm: TransitionMatrix, dense_threshold: int = DENSE_THRESHOLD):
        self.transition = tm
        self.items = tm.items
        self.dense_threshold = dense_threshold
        self.W = tm.interior.tocsr()
        self.n = self.W.shape[0]
        self._diagonals: tuple[np.ndarray, np.ndarray] | None = None
        _, self._labels = csgraph.connected_components(
            self.W, directed=True, connection="strong"
        )
        largest = int(np.bincount(self._labels).max()) if self.n else 0
        self._ordering = "MMD_AT_PLUS_A" if 2 * largest > self.n else "COLAMD"
        system = (sp.identity(self.n, format="csc") - self.W).tocsc()
        try:
            self._lu = spla.splu(system, permc_spec=self._ordering)
        except RuntimeError as exc:
            # SuperLU reports an exactly zero pivot as "Factor is exactly singular"
            if "singular" not in str(exc):
                raise
            raise SingularSystem(self._trapped_component(), 0.0) from None
        min_pivot = float(np.abs(self._lu.U.diagonal()).min()) if self.n else 1.0
        if min_pivot < PIVOT_TOL:
            raise SingularSystem(self._trapped_component(), min_pivot)

    @property
    def ordering(self) -> str:
        """SuperLU column ordering chosen for this network."""
        return self._ordering

    def _trapped_component(self) -> list[int]:
        trapped = closed_components(self.W)
        return trapped[0] if trapped else []

    def solve(self, b: np.ndarray) -> np.ndarray:
        """x with (I - W) x = b, i.e. x = U b; b may hold several columns."""
        return self._lu.solve(b)

    def solve_transpose(self, b: np.ndarray) -> np.ndarray:
        """x with (I - W)^T x = b, i.e. x = U^T b (row queries of U)."""
        return self._lu.solve(b, trans="T")

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

    def diagonal(self) -> np.ndarray:
        """Expected visits to each node by walks started there (>= 1)."""
        if self._diagonals is None:
            self._diagonals = fundamental_diagonals(
                self.W, self._labels, self.dense_threshold
            )
        return self._diagonals[0]

    def squared_diagonal(self) -> np.ndarray:
        """diag(U^2), computed per recurrent component alongside diag(U)."""
        self.diagonal()
        return self._diagonals[1]

    def _refuse_above_threshold(self) -> None:
        if self.n > self.dense_threshold:
            raise MemoryError(
                f"dense fundamental matrix of order {self.n} exceeds threshold "
                f"{self.dense_threshold}"
            )

    def matrix(self) -> np.ndarray:
        """Dense U. Guarded: refuses above the dense threshold."""
        self._refuse_above_threshold()
        return np.linalg.inv(np.eye(self.n) - self.W.toarray())

    def identity_residual(self) -> float:
        """max-norm of U (I - W) - I, with U solved against the sparse
        factorization rather than inverted densely: a direct check of the
        solver in use.
        """
        self._refuse_above_threshold()
        U = self.solve(np.eye(self.n))
        res = U @ (np.eye(self.n) - self.W.toarray()) - np.eye(self.n)
        return float(np.abs(res).max()) if self.n else 0.0

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
    W: sp.spmatrix, labels: np.ndarray, dense_threshold: int = DENSE_THRESHOLD
) -> tuple[np.ndarray, np.ndarray]:
    """Exact diag(U) and diag(U^2), one strongly connected component at a
    time; ``labels`` are W's component labels.

    A walk that leaves node j and returns to j never exits j's strongly
    connected component, so both diagonals are computable per component
    from its restriction, whose inverse is U's block on it. Singleton
    components reduce to the self-loop weight w: u = 1/(1-w); components
    up to ``dense_threshold`` nodes use the dense inverse of their
    restriction. Larger ones factor their restriction and take one column
    and one row of its inverse per member: U_jj = col_j and
    (U^2)_jj = row_j . col_j.

    The solver's global factor would serve too, but each of its solves
    sweeps the fill of the whole network, not of the component: where the
    component is a small share of the nodes that is many times slower,
    and where it holds nearly all of them a second factorization costs
    little next to the loop's solves.
    """
    n = W.shape[0]
    diag_u = np.ones(n)
    diag_u2 = np.ones(n)
    if n == 0:
        return diag_u, diag_u2
    W = W.tocsr()
    n_comp = int(labels.max()) + 1
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
            # but exact; the block is one SCC, so minimum degree fits it
            sub = (
                sp.identity(members.size, format="csc")
                - W[np.ix_(members, members)].tocsc()
            )
            lu = spla.splu(sub, permc_spec="MMD_AT_PLUS_A")
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
