"""Direct-solve machinery shared by the flow and distance layers: U = (I - W)^-1
for the interior transition block W (rows sum to <= 1), never formed at scale
but answered from one factorization per strongly connected component."""
from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np
import scipy.sparse as sp
import scipy.sparse.csgraph as csgraph
import scipy.sparse.linalg as spla
from scipy.linalg import solve_triangular

from .errors import SingularSystem

if TYPE_CHECKING:
    from .flowcalc import TransitionMatrix

# Pivot magnitudes below this mean (I - W) is numerically singular, which
# for a substochastic W signals a closed recurrent component.
PIVOT_TOL = 1e-12

# Default bound on the order of a materialized U (matrix(), identity_residual()).
DENSE_THRESHOLD = 2000

# Strongly connected components at or below this order get a batched dense
# inverse, larger ones a shifted sparse factor. Timed on session-log giant
# SCCs (build, both diagonals and two solves; 2 cores, one BLAS thread):
# 22 against 30 ms at 431-442 nodes, a tie at 569-592, and 620 against
# 320 ms at 1.9k. The cut sits below the tie, on the side of the route
# whose cost grows slower with size.
_DENSE_ROUTE_MAX = 512

# Imaginary shift h of the larger SCCs' factors of A - ihI, A = I - W:
# (A - ihI)^-1 = U + ihU^2 + O(h^2), so one complex factor answers solves
# (real part, exact in double) and diag(U^2) (imaginary part / h, with no
# cancellation; Squire & Trapp, SIAM Review 40(1), 1998).
SHIFT = 1e-20

# Rough bound, in bytes, on each temporary of the selected inversion.
_CHUNK_BYTES = 1 << 18

# Columns of a dense trailing block inverted per step (_invert_in_place).
_BLOCK = 256


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


def _sparse_factor(block: sp.csr_matrix, nodes: np.ndarray, diagonal=1.0, **options):
    """splu of diagonal * I - block; a pivot below PIVOT_TOL raises
    SingularSystem."""
    try:
        lu = spla.splu(diagonal * sp.identity(block.shape[0], format="csc") - block.tocsc(),
                       **options)
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
    TOMS 4(2), 1978; KLU). SCCs up to _DENSE_ROUTE_MAX nodes get dense
    inverses, batched per depth and size into stacked arrays, larger ones a
    complex sparse LU of A - ihI, A their block of I - W and h = SHIFT
    (minimum degree on A^T + A, diagonal pivots), whose real part answers
    solves and whose selected inverse gives both diagonals. Consecutive
    depths of one-node SCCs form a lower triangular run, one LU with the
    natural ordering, no pivoting and no fill. A solve substitutes forward
    over depths and runs, each adding its coupling rows (cut at build); a
    transpose solve runs backwards. A closed or numerically singular SCC
    raises SingularSystem naming its nodes. Only the route depends on SCC
    size; ``dense_threshold`` bounds the order of a materialized U.
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
        alone = (nsize > _DENSE_ROUTE_MAX) & ~is_run[stage]
        key = np.stack([stage, nsize, np.where(alone, lab, -1)])
        ends = np.flatnonzero(np.diff(key, prepend=-2, append=-2).any(axis=0)).tolist()
        blocks: list[list] = [[] for _ in first]
        self._dense, self._factored = [], []
        for a, z in zip(ends[:-1], ends[1:]):
            i, s, nodes = stage[a], int(nsize[a]), order[a:z]
            if is_run[i]:
                factor = _sparse_factor(inner[a:z, a:z], nodes, permc_spec="NATURAL",
                                        diag_pivot_thresh=0, panel_size=1)
            elif s > _DENSE_ROUTE_MAX:
                factor = _sparse_factor(inner[a:z, a:z], nodes, 1.0 - 1j * SHIFT,
                                        permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0)
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
                else:  # a shifted factor solves a complex copy; its real part is exact
                    x[a:z] = factor.solve(x[a:z], trans="T" if trans else "N").real
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
    1/(1 - w_jj) for one node, the stacked inverses in ``dense``, and for
    each SCC in ``factored`` the selected inverse of its shifted factor,
    (A - ihI)^-1 = U + ihU^2 + O(h^2): U_jj = Re, (U^2)_jj = Im / h."""
    diag_u = 1.0 / (1.0 - W.diagonal())
    diag_u2 = diag_u * diag_u
    for nodes, inv in dense:
        diag_u[nodes] = np.diagonal(inv, axis1=1, axis2=2)
        diag_u2[nodes] = np.einsum("kij,kji->ki", inv, inv)
    for members, lu in factored:
        shifted = _selected_diagonal(lu)
        diag_u[members] = shifted.real
        diag_u2[members] = shifted.imag / SHIFT
    return diag_u, diag_u2


def _ranges(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The concatenated ranges starts[k] .. starts[k] + lengths[k] - 1."""
    ends = np.cumsum(lengths)
    return np.arange(ends[-1] if ends.size else 0) + np.repeat(starts - ends + lengths, lengths)


def _segment_sum(owner: np.ndarray, values: np.ndarray, size: int) -> np.ndarray:
    """Complex ``values`` summed per ``owner`` in 0 .. size - 1."""
    return (np.bincount(owner, values.real, size)
            + 1j * np.bincount(owner, values.imag, size))


def _filled_pattern(lu) -> tuple[list, np.ndarray]:
    """Per column, the sorted rows below the diagonal of pattern(L) and
    pattern(U^T) of a SuperLU factor, closed along their elimination tree:
    a column's rows past its parent (its first row) join the parent's.
    Also the parents, -1 at a root. In the closure the rows of a column
    are pairwise linked, which the selected inverse relies on."""
    n = lu.shape[0]
    ones = []
    for name in ("L", "U"):  # one factor copy at a time; only its pattern is kept
        factor = getattr(lu, name)
        ones.append(sp.csc_matrix((np.ones(factor.nnz, dtype=np.int8), factor.indices,
                                   factor.indptr), shape=(n, n)))
        del factor
    union = sp.tril(ones[0] + ones[1].T, -1, format="csc")
    union.sort_indices()
    bounds = union.indptr.tolist()
    cols = [union.indices[a:z] for a, z in zip(bounds[:-1], bounds[1:])]
    del ones, union
    children: list[list[int]] = [[] for _ in range(n)]
    parent = np.full(n, -1)
    for j in range(n):
        if children[j]:
            cols[j] = np.unique(np.concatenate([cols[j]] + [cols[c][1:] for c in children[j]]))
        if cols[j].size:
            parent[j] = p = int(cols[j][0])
            children[p].append(j)
    return cols, parent


def _invert_in_place(Z: np.ndarray) -> None:
    """Overwrite a dense block holding unit lower L below its diagonal and
    U on and above it with (LU)^-1, in blocks of _BLOCK columns from the
    last. With S the columns after block J, already inverted:
        Z_SJ = -Z_SS L_SJ L_JJ^-1,   Z_JS = -U_JJ^-1 U_JS Z_SS,
        Z_JJ = (L_JJ U_JJ)^-1 + U_JJ^-1 U_JS Z_SS L_SJ L_JJ^-1,
    the last from three products and the recurrences of _selected_diagonal
    on J alone, which use matrix-vector products only, so a block of at
    most _BLOCK columns needs no workspace beyond a few vectors."""
    n = Z.shape[0]
    for j1 in range(n, 0, -_BLOCK):
        J, S = slice(max(j1 - _BLOCK, 0), j1), slice(j1, n)
        packed = Z[J, J]
        if j1 < n:
            x = Z[S, S] @ Z[S, J]
            y = Z[J, S] @ Z[S, S]
            corner = solve_triangular(packed, Z[J, S] @ x, check_finite=False)
            # both right divisions by L_JJ, as one transposed left division
            both = solve_triangular(packed, np.vstack([x, corner]).T, trans="T", lower=True,
                                    unit_diagonal=True, check_finite=False).T
            Z[J, S] = -solve_triangular(packed, y, check_finite=False)
            Z[S, J], corner = -both[: n - j1], both[n - j1 :]
        for j in range(packed.shape[0] - 1, -1, -1):
            inner, low, up = packed[j + 1 :, j + 1 :], packed[j + 1 :, j], packed[j, j + 1 :]
            x = -(inner @ low)
            y = -(up @ inner) / packed[j, j]
            packed[j, j] = (1.0 - up @ x) / packed[j, j]
            low[:], up[:] = x, y
        if j1 < n:
            packed += corner


def _selected_diagonal(lu) -> np.ndarray:
    """diag(B^-1) of one shifted SCC factor, in the SCC's own order.

    SuperLU factors P B P^T = L U (one symmetric permutation P, asserted).
    The Takahashi recurrences (Erisman & Tinney, CACM 18(3), 1975; Lin et
    al., "SelInv", ACM TOMS 37(4), 2011) give Z = (LU)^-1 on the filled
    pattern of L and U^T, column by column from the last:
        Z[S, j] = -Z[S, S] L[S, j],   Z[j, S] = -U[j, S] Z[S, S] / U_jj,
        Z_jj = (1 - U[j, S] Z[S, j]) / U_jj,   S = rows of column j.
    The trailing columns that form one chain of the elimination tree are
    nearly dense; their block Z_TT is inverted densely in place, and its
    share of every leading column's sums comes from two sparse products
    with it. The leading columns then run level by level down the tree,
    gathering only the pairs (a, b) of S x S with a leading one.
    Temporaries are chunked under _CHUNK_BYTES."""
    perm = lu.perm_c
    if not np.array_equal(lu.perm_r, perm):
        raise RuntimeError("the shifted SCC factor pivoted off its diagonal")
    n = perm.size
    cols, parent = _filled_pattern(lu)
    off_chain = np.flatnonzero(parent[:-1] != np.arange(1, n))
    t = int(off_chain[-1]) + 1 if off_chain.size else 0  # the chain is t..n-1

    # the leading columns' filled rows
    count = np.array([c.size for c in cols[:t]], dtype=np.intp)
    ptr = np.r_[0, np.cumsum(count)]
    rows = np.concatenate(cols[:t]).astype(np.intp) if t else np.empty(0, dtype=np.intp)
    del cols
    owner = np.repeat(np.arange(t), count)
    key = owner * n + rows

    # L and U^T on them, the pivots, and the trailing block of both factors
    # (L below and U on and above its diagonal), one factor copy at a time:
    # entry (row, col) sits in column lo and row hi of the filled pattern
    lval = np.zeros(rows.size, dtype=complex)
    uval = np.zeros(rows.size, dtype=complex)
    pivot = np.empty(n, dtype=complex)
    Z = np.zeros((n - t, n - t), dtype=complex)
    for name, vals in (("L", lval), ("U", uval)):
        factor = getattr(lu, name)
        row = factor.indices
        col = np.repeat(np.arange(n, dtype=row.dtype), np.diff(factor.indptr))
        lo, hi = (col, row) if name == "L" else (row, col)
        lead = (lo < hi) & (lo < t)
        vals[np.searchsorted(key, lo[lead].astype(np.intp) * n + hi[lead])] = factor.data[lead]
        on = lo == hi  # L's unit diagonal, then U's pivots over it
        pivot[lo[on]] = factor.data[on]
        tail = lo >= t
        Z[row[tail] - t, col[tail] - t] = factor.data[tail]
        del factor, row, col, lo, hi, lead, on, tail

    _invert_in_place(Z)
    z_tail = np.diagonal(Z).copy()
    if t == 0:
        return z_tail[perm]

    # the trailing block's share, L[T, :t]^T Z_TT^T and U[:t, T] Z_TT, is
    # where Z[:, :t] starts; the levels below add the leading pairs' sums
    tail = rows >= t
    lead_t = sp.csr_matrix((lval[tail], rows[tail] - t, np.r_[0, np.cumsum(np.bincount(
        owner[tail], minlength=t))]), shape=(t, n - t))
    up_t = sp.csr_matrix((uval[tail], lead_t.indices, lead_t.indptr), shape=(t, n - t))
    z_low = np.zeros(rows.size, dtype=complex)
    z_up = np.zeros(rows.size, dtype=complex)
    by_row = np.flatnonzero(tail)[np.argsort(rows[tail], kind="stable")]
    width = max(16, _CHUNK_BYTES // (16 * max(t, n - t)))  # columns of Z_TT per product
    edges = np.searchsorted(rows[by_row], np.arange(t, n + width, width))
    for k, s0 in enumerate(range(t, n, width)):
        pick = by_row[edges[k] : edges[k + 1]]
        need, at = np.unique(owner[pick], return_inverse=True)  # only these rows are read
        cut = rows[pick] - s0
        z_low[pick] = (lead_t[need] @ Z[s0 - t : s0 - t + width].T)[at, cut]
        z_up[pick] = (up_t[need] @ Z[:, s0 - t : s0 - t + width])[at, cut]
    del Z, lead_t, up_t, by_row, tail

    # leading columns by depth below the chain: parents before children
    depth, up = [0] * t, parent[:t].tolist()
    for j in range(t - 1, -1, -1):
        if 0 <= up[j] < t:
            depth[j] = depth[up[j]] + 1
    depth = np.array(depth)
    z_diag = np.zeros(t, dtype=complex)
    lead = np.bincount(owner, rows < t, t).astype(np.intp)  # leading rows come first
    for level in np.split(np.argsort(depth, kind="stable"),
                          np.flatnonzero(np.diff(np.sort(depth))) + 1):
        c, m, base = count[level], lead[level], ptr[level]
        entries = _ranges(base, c)
        local = np.r_[0, np.cumsum(c)[:-1]]
        acc_l = np.zeros(entries.size, dtype=complex)
        acc_u = np.zeros(entries.size, dtype=complex)
        # (a, b) pairs in rectangles: a leading x all b, then a trailing x b leading
        rect = (np.arange(level.size).repeat(2), np.c_[np.zeros_like(m), m].ravel(),
                np.c_[m, c - m].ravel(), np.c_[c, m].ravel())
        for who, a_idx, b_idx in _pair_chunks(*rect):
            a_pos, b_pos = base[who] + a_idx, base[who] + b_idx
            a, b = rows[a_pos], rows[b_pos]
            same = a == b
            want = np.minimum(a, b) * n + np.maximum(a, b)
            at = np.minimum(np.searchsorted(key, want), key.size - 1)
            if not np.all((key[at] == want) | same):
                raise RuntimeError("the filled pattern misses a pair of a column's rows")
            z = np.where(a > b, z_low[at], z_up[at])
            z[same] = z_diag[a[same]]
            acc_l += _segment_sum(local[who] + a_idx, z * lval[b_pos], entries.size)
            acc_u += _segment_sum(local[who] + b_idx, uval[a_pos] * z, entries.size)
        col = owner[entries]
        x = -(z_low[entries] + acc_l)
        z_low[entries] = x
        z_up[entries] = -(z_up[entries] + acc_u) / pivot[col]
        z_diag[level] = (1.0 - _segment_sum(np.repeat(np.arange(level.size), c),
                                            uval[entries] * x, level.size)) / pivot[level]
    return np.r_[z_diag, z_tail][perm]


def _pair_chunks(who: np.ndarray, r0: np.ndarray, nr: np.ndarray, nc: np.ndarray):
    """(who, a, b) for every cell of the rectangles [r0, r0 + nr) x [0, nc)
    of owners ``who``, in chunks of about _CHUNK_BYTES / 128 cells; tall
    rectangles are cut into bands of rows."""
    budget = max(1, _CHUNK_BYTES // 128)
    band = np.maximum(1, budget // np.maximum(nc, 1))
    bands = -(-nr // band)
    k = _ranges(np.zeros_like(bands), bands)
    rect = np.repeat(np.arange(nr.size), bands)
    start = r0[rect] + k * band[rect]
    height = np.minimum(band[rect], r0[rect] + nr[rect] - start)
    cells = height * nc[rect]
    chunk = (np.cumsum(cells) - cells) // budget
    for part in np.split(np.arange(rect.size), np.flatnonzero(np.diff(chunk)) + 1):
        size = cells[part]
        cell = _ranges(np.zeros_like(size), size)
        which = np.repeat(part, size)
        wide = nc[rect[which]]
        yield who[rect[which]], start[which] + cell // wide, cell % wide
