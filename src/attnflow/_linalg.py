"""Direct-solve machinery shared by the flow and distance layers: U = (I - W)^-1
for the interior transition block W (rows sum to <= 1), never formed at scale
but answered from one factorization per strongly connected component."""
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

# Strongly connected components at or below this order get a dense
# inverse, larger ones a sparse factor; a materialized U is refused above it.
DENSE_THRESHOLD = 4096


def _condensation_depths(src: np.ndarray, dst: np.ndarray, n_comp: int) -> np.ndarray:
    """Condensation depth of each SCC, from the SCC labels of each edge's
    ends: 0 without an edge out, else 1 + the largest depth it has an edge
    into. scipy labels SCCs in reverse topological order (checked), so after
    pointer jumping along chains of one-exit SCCs one pass in label order
    over the SCCs with several exits finds every depth."""
    cross = src != dst
    if np.any(src[cross] < dst[cross]):
        raise RuntimeError("SCC labels are not in reverse topological order")
    dag = sp.csr_matrix((np.ones(cross.sum()), (src[cross], dst[cross])), shape=(n_comp,) * 2)
    exits = np.diff(dag.indptr)
    root = np.arange(n_comp)
    root[exits == 1] = dag.indices[dag.indptr[:-1][exits == 1]]
    hops = (exits == 1).astype(np.intp)
    while np.any(root[root] != root):
        hops += hops[root]
        root = root[root]
    depth = np.zeros(n_comp, dtype=np.intp)
    for comp in np.flatnonzero(exits > 1).tolist():
        targets = dag.indices[dag.indptr[comp] : dag.indptr[comp + 1]]
        depth[comp] = 1 + (depth[root[targets]] + hops[targets]).max()
    return depth[root] + hops


def _sparse_factor(block: sp.csr_matrix, nodes: np.ndarray, **options):
    """splu of I - block; a pivot below PIVOT_TOL raises SingularSystem."""
    try:
        lu = spla.splu(sp.identity(block.shape[0], format="csc") - block.tocsc(), **options)
        min_pivot = float(np.abs(lu.U.diagonal()).min())
    except RuntimeError as exc:  # SuperLU: "Factor is exactly singular"
        if "singular" not in str(exc):
            raise
        min_pivot = 0.0
    if min_pivot < PIVOT_TOL:
        raise SingularSystem(sorted(nodes.tolist()), min_pivot)
    return lu


def _dense_inverses(inner: sp.csr_matrix, a: int, z: int, s: int, nodes: np.ndarray):
    """Stacked inverses of I - inner[a:z, a:z], SCCs of order s side by side;
    an inverse diagonal entry not finite or above 1/PIVOT_TOL is refused."""
    rows = np.repeat(np.arange(z - a), np.diff(inner.indptr[a : z + 1]))
    cols = inner.indices[inner.indptr[a] : inner.indptr[z]] - a
    stack = np.zeros(((z - a) // s, s, s))
    stack[rows // s, rows % s, cols % s] = -inner.data[inner.indptr[a] : inner.indptr[z]]
    stack[:, np.arange(s), np.arange(s)] += 1.0
    try:
        inv = np.linalg.inv(stack)
        peak = np.abs(np.diagonal(inv, axis1=1, axis2=2)).max(axis=1)
    except np.linalg.LinAlgError:  # an exactly singular block
        inv, peak = None, np.where(np.linalg.slogdet(stack)[0] == 0, np.inf, 1.0)
    bad = ~(peak <= 1.0 / PIVOT_TOL)
    if bad.any():
        k = int(np.argmax(bad))
        raise SingularSystem(sorted(nodes[k * s : (k + 1) * s].tolist()), 1.0 / peak[k])
    return inv


class AbsorbingSolver:
    """U = (I - W)^-1 of a transition matrix's interior block, answered
    from one factorization per strongly connected component (SCC) of W.

    Ordered by SCC depth, I - W is block lower triangular (Duff & Reid, ACM
    TOMS 4(2), 1978; KLU). SCCs up to ``dense_threshold`` nodes get dense
    inverses, batched per depth and size into stacked arrays, larger ones a
    sparse LU (minimum degree on A^T + A). Consecutive depths of one-node
    SCCs form a lower triangular run, one LU with the natural ordering, no
    pivoting and no fill. A solve substitutes forward over depths and runs,
    each adding its coupling rows (cut at build); a transpose solve runs
    backwards. A closed or numerically singular SCC raises SingularSystem
    naming its nodes. U is materialized only up to ``dense_threshold``.
    """

    def __init__(self, tm: TransitionMatrix, dense_threshold: int = DENSE_THRESHOLD):
        self.transition = tm
        self.items = tm.items
        self.dense_threshold = dense_threshold
        self.W = tm.interior.tocsr()
        n = self.n = self.W.shape[0]
        self._diagonals: tuple[np.ndarray, np.ndarray] | None = None
        n_comp, labels = csgraph.connected_components(self.W, directed=True, connection="strong")
        size = np.bincount(labels, minlength=n_comp)
        coo = self.W.tocoo()
        depth = _condensation_depths(labels[coo.row], labels[coo.col], n_comp)
        leaks = np.asarray(self.W.sum(axis=1)).ravel() < 1.0 - PIVOT_TOL
        closed = np.flatnonzero((depth == 0) & (np.bincount(labels, leaks, n_comp) == 0))
        if closed.size:
            raise SingularSystem(np.flatnonzero(labels == closed[0]).tolist(), 0.0)
        pivots = np.where(size[labels] == 1, 1.0 - self.W.diagonal(), 1.0)
        if pivots.min(initial=1.0) < PIVOT_TOL:  # a one-node SCC's only pivot
            raise SingularSystem([int(pivots.argmin())], float(pivots.min()))

        # level order; within a depth, the SCCs of one size sit together
        self._order = order = np.lexsort((labels, size[labels], depth[labels]))
        self._position = pos = np.argsort(order)
        lab, nsize = labels[order], size[labels[order]]
        n_levels = int(depth.max(initial=-1)) + 1
        singles = np.bincount(depth, size > 1, n_levels) == 0
        first = np.flatnonzero(np.r_[True, ~(singles[1:] & singles[:-1])][:n_levels])
        bounds = np.searchsorted(depth[lab], np.r_[first, n_levels])
        is_run = np.diff(np.r_[first, n_levels]) > 1
        stage = np.repeat(np.arange(first.size), np.diff(bounds))

        # the edges from each stage into earlier ones, and those within it
        rows, cols = pos[coo.row], pos[coo.col]
        out = cols < bounds[stage[rows]]
        K = sp.csr_matrix((coo.data[out], (rows[out], cols[out])), shape=(n, n))
        inner = sp.csr_matrix((coo.data[~out], (rows[~out], cols[~out])), shape=(n, n))

        # a stage's blocks: its run, or its SCCs by size, each large SCC alone
        alone = (nsize > dense_threshold) & ~is_run[stage]
        key = np.stack([stage, nsize, np.where(alone, lab, -1)])
        ends = np.flatnonzero(np.diff(key, prepend=-2, append=-2).any(axis=0)).tolist()
        blocks: list[list] = [[] for _ in first]
        self._dense, self._factored = [], []
        for a, z in zip(ends[:-1], ends[1:]):
            i, s, nodes = stage[a], int(nsize[a]), order[a:z]
            if is_run[i]:
                factor = _sparse_factor(inner[a:z, a:z], nodes, permc_spec="NATURAL",
                                        diag_pivot_thresh=0, panel_size=1)
            elif s > dense_threshold:
                factor = _sparse_factor(inner[a:z, a:z], nodes, permc_spec="MMD_AT_PLUS_A")
                self._factored.append((nodes, factor))
            else:
                factor = _dense_inverses(inner, a, z, s, nodes)
                self._dense.append((nodes.reshape(-1, s), factor))
            blocks[i].append((a, z, factor))
        KT = K.T.tocsr()
        self._stages = [(lo, hi, K[lo:hi], KT[lo:hi], b)
                        for lo, hi, b in zip(bounds[:-1].tolist(), bounds[1:].tolist(), blocks)]

    def _sweep(self, b: np.ndarray, trans: bool) -> np.ndarray:
        """U b by forward substitution over the stages; U^T b backwards."""
        x = np.asarray(b, dtype=float)[self._order]
        for lo, hi, coupling, coupling_t, blocks in self._stages[:: -1 if trans else 1]:
            x[lo:hi] += (coupling_t if trans else coupling) @ x
            for a, z, factor in blocks:
                if isinstance(factor, np.ndarray):
                    inv = factor.transpose(0, 2, 1) if trans else factor
                    part = x[a:z].reshape(*inv.shape[:2], -1)
                    x[a:z] = (inv @ part).reshape(x[a:z].shape)
                else:
                    x[a:z] = factor.solve(x[a:z], trans="T" if trans else "N")
        return x[self._position]

    def solve(self, b: np.ndarray) -> np.ndarray:
        """x with (I - W) x = b, i.e. x = U b; b may hold several columns."""
        return self._sweep(b, trans=False)

    def solve_transpose(self, b: np.ndarray) -> np.ndarray:
        """x with (I - W)^T x = b, i.e. x = U^T b (row queries of U)."""
        return self._sweep(b, trans=True)

    def row(self, i: int) -> np.ndarray:
        return self.solve_transpose(np.eye(1, self.n, i).ravel())

    def column(self, j: int) -> np.ndarray:
        return self.solve(np.eye(1, self.n, j).ravel())

    def row_sums(self) -> np.ndarray:
        """U @ 1: expected visits to all interior nodes per start node."""
        return self.solve(np.ones(self.n))

    def diagonal(self) -> np.ndarray:
        """Expected visits to each node by walks started there (>= 1)."""
        if self._diagonals is None:
            self._diagonals = fundamental_diagonals(self.W, self._dense, self._factored)
        return self._diagonals[0]

    def squared_diagonal(self) -> np.ndarray:
        """diag(U^2), computed per recurrent component alongside diag(U)."""
        self.diagonal()
        return self._diagonals[1]

    def _refuse_above_threshold(self) -> None:
        if self.n > self.dense_threshold:
            raise MemoryError(f"dense fundamental matrix of order {self.n} exceeds "
                              f"threshold {self.dense_threshold}")

    def matrix(self) -> np.ndarray:
        """Dense U. Guarded: refuses above the dense threshold."""
        self._refuse_above_threshold()
        return np.linalg.inv(np.eye(self.n) - self.W.toarray())

    def identity_residual(self) -> float:
        """max-norm of U (I - W) - I, U solved against the per-SCC factors."""
        self._refuse_above_threshold()
        U = self.solve(np.eye(self.n))
        res = U @ (np.eye(self.n) - self.W.toarray()) - np.eye(self.n)
        return float(np.abs(res).max(initial=0.0))

    def condition_estimate(self) -> float:
        """1-norm condition estimate of (I - W) via the factorization."""
        if self.n == 0:
            return 1.0
        inverse = spla.LinearOperator((self.n, self.n), matvec=self.solve,
                                      rmatvec=self.solve_transpose)
        norm = spla.norm(sp.identity(self.n, format="csc") - self.W, 1)
        return float(norm * spla.onenormest(inverse))


def fundamental_diagonals(W: sp.spmatrix, dense: list,
                          factored: list) -> tuple[np.ndarray, np.ndarray]:
    """Exact diag(U) and diag(U^2) of U = (I - W)^-1. A walk from j back to
    j never leaves j's SCC, so both come from the inverse of its restriction:
    1/(1 - w_jj) for one node, the stacked inverses in ``dense``, and per
    member of each SCC's sparse LU in ``factored`` one column and one row of
    the inverse: U_jj = col_j, (U^2)_jj = row_j . col_j."""
    diag_u = 1.0 / (1.0 - W.diagonal())
    diag_u2 = diag_u * diag_u
    for nodes, inv in dense:
        diag_u[nodes] = np.diagonal(inv, axis1=1, axis2=2)
        diag_u2[nodes] = np.einsum("kij,kji->ki", inv, inv)
    for members, lu in factored:
        for local, j in enumerate(members.tolist()):
            e = np.eye(1, members.size, local).ravel()
            col = lu.solve(e)
            row = lu.solve(e, trans="T")
            diag_u[j] = col[local]
            diag_u2[j] = float(row @ col)
    return diag_u, diag_u2
