"""Direct-solve machinery shared by the flow and distance layers: U = (I - W)^-1
for the interior transition block W (rows sum to <= 1), never formed at scale
but answered from one factorization per strongly connected component."""
from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.csgraph as csgraph
import scipy.sparse.linalg as spla

from .errors import SingularSystem

if TYPE_CHECKING:
    from .flowcalc import TransitionMatrix

# Pivot magnitudes below this mean (I - W) is numerically singular, which
# for a substochastic W signals a closed recurrent component.
PIVOT_TOL = 1e-12

# Default bound on the order of a materialized U (matrix(), identity_residual()).
DENSE_THRESHOLD = 2000

# Strongly connected components at or below this order get a batched dense
# inverse, larger ones a hub-core factor (_HubCore). Timed on session-log
# giant SCCs (build, both diagonals and two solves; 2 cores, one BLAS
# thread): 4.9-7.1 against 6.4-8.4 ms at 305-356 nodes, the factor ahead
# from 378 nodes (7.6 against 8.8 ms) and level within noise to 431, and
# 52 against 377 ms at 1.9k. The cut sits below the tie, on the side of
# the route whose cost grows slower with size.
_DENSE_ROUTE_MAX = 320

# Imaginary shift h of the larger SCCs' factors of A - ihI, A = I - W:
# (A - ihI)^-1 = U + ihU^2 + O(h^2), so one complex factor answers solves
# (real part, exact in double) and diag(U^2) (imaginary part / h, with no
# cancellation; Squire & Trapp, SIAM Review 40(1), 1998).
SHIFT = 1e-20

# Rough bound, in bytes, on each temporary of the selected inversion, of
# the products that form a hub core's Schur complement and of each chunk
# of a stack of dense inverses.
_CHUNK_BYTES = 1 << 18


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
    # on lists: a few list reads per edge instead of numpy calls per SCC
    depth, up, far = [0] * n_comp, root.tolist(), hops.tolist()
    indptr, targets = dag.indptr.tolist(), dag.indices.tolist()
    for comp in np.flatnonzero(exits > 1).tolist():
        depth[comp] = 1 + max([depth[up[t]] + far[t]
                               for t in targets[indptr[comp] : indptr[comp + 1]]])
    return np.array(depth, dtype=np.intp)[root] + hops


def _rows(M: sp.csr_matrix, lo: int, hi: int) -> sp.csr_matrix:
    """M[lo:hi] on views of M's own index and value arrays, without scipy's
    row slicing and its copies."""
    a, z = M.indptr[lo], M.indptr[hi]
    return sp.csr_matrix((M.data[a:z], M.indices[a:z], M.indptr[lo : hi + 1] - a),
                         shape=(hi - lo, M.shape[1]))


def _triangles(lu) -> tuple:
    """(values, rows, columns) of a SuperLU factor's L below the diagonal
    and of its U above it, and U's diagonal, one factor copy at a time."""
    parts = []
    for name in ("L", "U"):
        factor = getattr(lu, name)
        row = factor.indices.astype(np.intp)
        col = np.repeat(np.arange(factor.shape[1]), np.diff(factor.indptr))
        off = row > col if name == "L" else row < col
        parts.append((factor.data[off], row[off], col[off]))
        if name == "U":
            pivot = np.empty(factor.shape[1], dtype=factor.dtype)
            pivot[col[row == col]] = factor.data[row == col]
        del factor
    return parts[0], parts[1], pivot


def _csr(parts: list, shape: tuple) -> sp.csr_matrix:
    """The CSR matrix of (values, rows, columns) triples, concatenated."""
    val, row, col = (np.concatenate(x) for x in zip(*parts))
    return sp.csr_matrix((val, (row, col)), shape=shape)


def _shifted_csc(row: np.ndarray, col: np.ndarray, w: np.ndarray, m: int,
                 diagonal=1.0) -> sp.csc_matrix:
    """diagonal * I - V for the m x m block V holding w at (row, col), no
    pair twice, laid out as scipy's sparse subtraction lays it out: rows
    sorted within each column, and no entry that comes out exactly zero."""
    dtype = np.result_type(diagonal, w)
    on = row == col
    lacking = np.ones(m, dtype=bool)
    lacking[row[on]] = False
    extra = np.flatnonzero(lacking)
    val = np.subtract(0, w, dtype=dtype)  # 0 - w, so a complex one keeps +0 imaginary
    val[on] = diagonal - w[on]
    val = np.concatenate([val, np.full(extra.size, diagonal, dtype=dtype)])
    row, col = np.concatenate([row, extra]), np.concatenate([col, extra])
    keep = val != 0
    val, row, col = val[keep], row[keep], col[keep]
    by_col = np.lexsort((row, col))
    indptr = np.concatenate([[0], np.cumsum(np.bincount(col, minlength=m))])
    return sp.csc_matrix((val[by_col], row[by_col], indptr), shape=(m, m))


def _sparse_factor(matrix: sp.csc_matrix, nodes: np.ndarray, **options):
    """splu of ``matrix``, one SCC's or run's (shifted) block of I - W; a
    pivot below PIVOT_TOL raises SingularSystem naming ``nodes``."""
    try:
        lu = spla.splu(matrix, **options)
        min_pivot = float(np.abs(lu.U.diagonal()).min())
    except RuntimeError as exc:  # SuperLU: "Factor is exactly singular"
        if "singular" not in str(exc):
            raise
        min_pivot = 0.0
    if min_pivot < PIVOT_TOL:
        raise SingularSystem(sorted(nodes.tolist()), min_pivot)
    return lu


def _checked_inverse(stack: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Inverses of a stack of matrices, and each one's peak diagonal
    magnitude, infinite for an exactly singular matrix. LAPACK inverts
    each matrix on its own, so a stack cut anywhere gives the same bits."""
    try:
        inv = np.linalg.inv(stack)
        singular = None
    except np.linalg.LinAlgError:  # an exactly singular matrix: invert the others
        singular = np.linalg.slogdet(stack)[0] == 0
        stack[singular] = np.eye(stack.shape[1])
        inv = np.linalg.inv(stack)
    peak = np.abs(np.diagonal(inv, axis1=1, axis2=2)).max(axis=1)
    if singular is not None:
        peak[singular] = np.inf
    return inv, peak


def _dense_stacks(nsize: np.ndarray, dense: np.ndarray, rows: np.ndarray, cols: np.ndarray,
                  w: np.ndarray) -> tuple[dict, tuple | None]:
    """Inverses of I - V for the SCCs that take the dense route, one stack
    per SCC size from every depth. In level order an SCC's nodes are
    consecutive: ``nsize`` is the size of each position's SCC, ``dense``
    marks the route's positions and (rows, cols, w) are the edges within
    SCCs, by position. Returns {size: (positions, stack)}, the SCCs in
    level order, row k of positions holding those of the SCC inverted in
    stack[k], and the first refused SCC in level order as (position,
    pivot), or None. A stack is built and inverted in chunks of about
    _CHUNK_BYTES."""
    at = np.flatnonzero(dense)
    at = at[np.argsort(nsize[at], kind="stable")]  # by size, in level order within one
    rank = np.zeros(nsize.size, dtype=np.intp)
    rank[at] = np.arange(at.size)
    inside = np.flatnonzero(dense[rows])
    inside = inside[np.argsort(rank[rows[inside]], kind="stable")]
    key, rows, cols, w = rank[rows[inside]], rows[inside], cols[inside], w[inside]
    del rank, inside
    sizes, base = np.unique(nsize[at], return_index=True)
    stacks, refused = {}, None
    for s, b, e in zip(sizes.tolist(), base.tolist(), np.r_[base[1:], at.size].tolist()):
        count, per = (e - b) // s, max(1, _CHUNK_BYTES // (8 * s * s))
        stack = None if count <= per else np.empty((count, s, s))
        for k0 in range(0, count, per):
            k1 = min(k0 + per, count)
            lo, hi = np.searchsorted(key, (b + k0 * s, b + k1 * s)).tolist()
            local = key[lo:hi] - (b + k0 * s)
            i = local % s
            chunk = np.zeros((k1 - k0, s, s))
            chunk[local // s, i, i + cols[lo:hi] - rows[lo:hi]] = -w[lo:hi]
            chunk[:, np.arange(s), np.arange(s)] += 1.0
            inv, peak = _checked_inverse(chunk)
            del chunk
            bad = ~(peak <= 1.0 / PIVOT_TOL)
            if bad.any():
                k = int(np.argmax(bad))
                where = int(at[b + (k0 + k) * s])
                if refused is None or where < refused[0]:
                    refused = (where, 1.0 / peak[k])
            if stack is None:
                stack = inv
            else:
                stack[k0:k1] = inv
        stacks[s] = (at[b:e].reshape(count, s), stack)
    return stacks, refused


def _hub_core(block: sp.csr_matrix) -> tuple[np.ndarray, int]:
    """A large SCC's nodes as [periphery, core], each part in the SCC's own
    order, and the core's size k. Ranked by degree in the pattern of A^T +
    A, the core is the top k for the smallest k that leaves the rest no
    more edges among themselves than nodes: with its hubs out, the rest is
    nearly a forest (SlashBurn: Lim, Kang & Faloutsos, IEEE TKDE 26(12),
    2014). The remaining count for every k is a suffix sum over each
    edge's higher-ranked end."""
    n = block.shape[0]
    sym = (block + block.T).tocoo()
    upper = sym.row < sym.col
    ends = np.stack([sym.row[upper], sym.col[upper]]).astype(np.intp)
    ranked = np.argsort(-np.bincount(ends.ravel(), minlength=n), kind="stable")
    rank = np.empty(n, dtype=np.intp)
    rank[ranked] = np.arange(n)
    left = np.cumsum(np.bincount(rank[ends].min(axis=0, initial=n), minlength=n + 1)[::-1])[::-1]
    k = int(np.argmax(left <= n - np.arange(n + 1)))
    in_core = np.zeros(n, dtype=bool)
    in_core[ranked[:k]] = True
    return np.r_[np.flatnonzero(~in_core), np.flatnonzero(in_core)], k


def _unit_lower_solve(strict: sp.csr_matrix, b: sp.csr_matrix) -> sp.csr_matrix:
    """x with (I + N) x = b for a strictly lower triangular N, all sparse:
    x = (I - N)(I + N^2)(I + N^4) ... b, the product ending at the first
    power of N that is zero, so one squaring per doubling of the longest
    chain in N. For the factors of an M-matrix every term has one sign."""
    x = b - strict @ b
    power = strict @ strict
    while power.nnz:
        x = x + power @ x
        power = power @ power
    return x


class _HubCore:
    """The shifted block B = (1 - ih) I - V of one large SCC, V its block
    of W, split by _hub_core into a periphery L and a hub core T:

        Q B Q^T = [L_LL  0] [U_LL  G]     P B_LL P^T = L_LL U_LL, SuperLU,
                  [H     I] [0     S],    minimum degree on B^T + B and
                                          diagonal pivots; Q = diag(P, I),

    G = L_LL^-1 P B_LT and H = B_TL P^T U_LL^-1 carry the periphery's factor
    into the core (sparse, held as G and Ht = H^T, both periphery x core),
    and the Schur complement S = B_TT - H G (BEAR: Shin, Jung, Sael & Kang,
    SIGMOD 2015), dense by the choice of T, is inverted by LAPACK as Z. S
    is the Schur complement of a nonsingular M-matrix up to the shift, so
    a singular one means a singular SCC. A solve substitutes through the
    periphery's factor and Z; the selected inverse (_selected_diagonal)
    reads L_LL, U_LL, G, Ht and Z."""

    def __init__(self, block: sp.csr_matrix, nodes: np.ndarray):
        n = block.shape[0]
        self.split, k = _hub_core(block)
        m = self.m = n - k
        at = np.empty(n, dtype=np.intp)
        at[self.split] = np.arange(n)
        v = block.tocoo()
        r, c, w = at[v.row], at[v.col], v.data
        row_l, col_l = r < m, c < m
        ll, lt, tl, tt = (row_l & col_l, row_l & ~col_l, ~row_l & col_l, ~(row_l | col_l))
        lu = self.lu = _sparse_factor(_shifted_csc(r[ll], c[ll], w[ll], m, 1.0 - 1j * SHIFT),
                                      nodes, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0)
        self.b_lt = sp.csr_matrix((-w[lt], (r[lt], c[lt] - m)), shape=(m, k))
        self.b_tl = sp.csr_matrix((-w[tl], (r[tl] - m, c[tl])), shape=(k, m))
        if k == 0:  # no hubs: the periphery's factor is the SCC's
            self.G = self.Ht = sp.csr_matrix((m, 0), dtype=complex)
            self.Z = np.zeros((0, 0), dtype=complex)
            return

        # L_LL G = P B_LT and U_LL^T Ht = P B_TL^T as one unit lower system,
        # rows in the factor's order, U^T's scaled by its pivots
        (l_val, l_row, l_col), (u_val, u_row, u_col), pivot = _triangles(lu)
        perm, inv_pivot = lu.perm_c, 1.0 / pivot
        strict = _csr([(l_val, l_row, l_col), (u_val * inv_pivot[u_col], m + u_col, m + u_row)],
                      (2 * m, 2 * m))
        rhs = _csr([(-w[lt], perm[r[lt]], c[lt] - m),
                    (-w[tl] * inv_pivot[perm[c[tl]]], m + perm[c[tl]], r[tl] - m)], (2 * m, k))
        both = _unit_lower_solve(strict, rhs)
        self.G, self.Ht = _rows(both, 0, m), _rows(both, m, 2 * m)

        # S = B_TT - H G, in Fortran order, so LAPACK inverts it in place
        S = np.zeros((k, k), dtype=complex, order="F")
        S[r[tt] - m, c[tt] - m] = -w[tt]
        S[np.arange(k), np.arange(k)] += 1.0 - 1j * SHIFT
        GT = self.G.T.tocsr()
        width = max(16, _CHUNK_BYTES // (16 * k))  # columns of S per product
        for c0 in range(0, k, width):
            S[:, c0 : c0 + width] -= (_rows(GT, c0, min(c0 + width, k)) @ self.Ht).toarray().T
        try:
            self.Z = sla.inv(S, overwrite_a=True, check_finite=False)
            peak = np.abs(np.diagonal(self.Z)).max()
        except np.linalg.LinAlgError:  # exactly singular
            peak = np.inf
        if not peak <= 1.0 / PIVOT_TOL:  # as for a dense inverse
            raise SingularSystem(sorted(nodes.tolist()), 1.0 / peak)

    def solve(self, b: np.ndarray, trans: str = "N") -> np.ndarray:
        """B^-1 b, or B^-T b for trans="T", b and the result in the SCC's
        order: y = B_LL^-1 b_L, x_T = Z (b_T - B_TL y), x_L = y - B_LL^-1
        B_LT x_T, and the same with every block transposed."""
        m, lu = self.m, self.lu
        into, out, Z = ((self.b_tl, self.b_lt, self.Z) if trans == "N"
                        else (self.b_lt.T, self.b_tl.T, self.Z.T))
        b = b[self.split]
        parts = [lu.solve(b[:m], trans=trans)]
        if m < b.shape[0]:
            y, = parts
            x_t = Z @ (b[m:] - into @ y)
            parts = [y - lu.solve(out @ x_t, trans=trans), x_t]
        x = np.empty(b.shape, dtype=complex)
        x[self.split] = np.concatenate(parts)
        return x


class AbsorbingSolver:
    """U = (I - W)^-1 of a transition matrix's interior block, answered
    from one factorization per strongly connected component (SCC) of W.

    Ordered by SCC depth, I - W is block lower triangular (Duff & Reid, ACM
    TOMS 4(2), 1978; KLU). SCCs up to _DENSE_ROUTE_MAX nodes get dense
    inverses, one stack per size over all depths (_dense_stacks), larger
    ones a complex factor of A - ihI, A their block of I - W and h =
    SHIFT, split at a hub core (_HubCore): a sparse LU of the periphery
    and a LAPACK inverse of the core's Schur complement. Its real part
    answers solves and its selected inverse gives both diagonals.
    Consecutive depths of one-node SCCs form a lower triangular run, one
    LU with the natural ordering, no pivoting and no fill. Runs and large
    SCCs are cut from the arrays of the edges within SCCs, and the build
    makes no object per block (a run, a large SCC, or a depth's dense
    SCCs of one size) beyond its stack's view or its factor. A solve
    substitutes forward over the blocks, each adding its coupling: its
    row range of one CSR K of the edges into earlier blocks, applied as a
    gather, a product and a bincount in K's stored order, as csr_matvec
    sums. A transpose solve runs backwards over K^T.
    A closed or numerically singular SCC raises SingularSystem naming its
    nodes, the first in level order where several are. Only the route
    depends on SCC size; ``dense_threshold`` bounds the order of a
    materialized U.
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
        is_run = np.repeat(np.diff(np.r_[first, n_levels]) > 1, np.diff(bounds))

        # the blocks: each run, each large SCC, and at each depth the dense
        # SCCs of one size; SCCs of one depth share no edge, so every edge
        # between blocks goes into an earlier one
        dense = ~is_run & (nsize <= _DENSE_ROUTE_MAX)
        key = np.stack([np.repeat(np.arange(first.size), np.diff(bounds)), nsize,
                        np.where(dense | is_run, -1, lab)])
        opens = np.diff(key, prepend=-2).any(axis=0)
        starts = np.flatnonzero(opens)
        stops = np.r_[starts[1:], n]
        begin = starts[np.cumsum(opens) - 1]  # each position's block's first position

        # the edges from each block into earlier ones, as row ranges of one
        # CSR K and one of K^T, each entry with its row within its block
        # (held in K's own index type: intp would be faster to index and
        # count with, but it doubles the memory the indices hold)
        rows, cols = pos[coo.row], pos[coo.col]
        out = cols < begin[rows]
        K = sp.csr_matrix((coo.data[out], (rows[out], cols[out])), shape=(n, n))
        self._couplings, spans = [], []
        for M in (K, K.T.tocsr()):
            row = np.repeat(np.arange(n), np.diff(M.indptr))
            local = (row - begin[row]).astype(M.indices.dtype)
            self._couplings.append((M.indices, M.data, local))
            spans.append(M.indptr[np.r_[starts, n]].tolist())
        # and those within it, which only SCCs and runs hold
        rows, cols, w = rows[~out], cols[~out], coo.data[~out]
        del K, M, row, local, out, coo, begin

        stacks, refused = _dense_stacks(nsize, dense, rows, cols, w)
        self._dense = [(order[at], stack) for at, stack in stacks.values()]
        place = np.zeros(n, dtype=np.intp)  # at an SCC's first position, its index in its stack
        for at, _ in stacks.values():
            place[at[:, 0]] = np.arange(at.shape[0])

        # each block's inverses, or its factor from the edges within runs
        # and large SCCs, by row
        routed = np.flatnonzero(~dense[rows])
        routed = routed[np.argsort(rows[routed], kind="stable")]
        rows, cols, w = rows[routed], cols[routed], w[routed]
        steps, self._factored = [], []
        for a, z, s, k, in_stack, run, lo, hi in zip(
                starts.tolist(), stops.tolist(), nsize[starts].tolist(), place[starts].tolist(),
                dense[starts].tolist(), is_run[starts].tolist(),
                np.searchsorted(rows, starts).tolist(), np.searchsorted(rows, stops).tolist()):
            if in_stack:
                steps.append(stacks[s][1][k : k + (z - a) // s])
                continue
            if refused is not None and refused[0] < a:
                break  # a dense SCC earlier in level order is refused
            r, c, nodes = rows[lo:hi] - a, cols[lo:hi] - a, order[a:z]
            if run:
                factor = _sparse_factor(_shifted_csc(r, c, w[lo:hi], z - a), nodes,
                                        permc_spec="NATURAL", diag_pivot_thresh=0, panel_size=1)
            else:
                factor = _HubCore(sp.csr_matrix((w[lo:hi], (r, c)), shape=(s, s)), nodes)
                self._factored.append((nodes, factor))
            steps.append(factor)
        if refused is not None:
            a, pivot = refused
            raise SingularSystem(sorted(order[a : a + nsize[a]].tolist()), pivot)

        # per block: its positions, its ranges of K's and K^T's entries, its inverses or factor
        self._blocks = list(zip(starts.tolist(), stops.tolist(), spans[0][:-1], spans[0][1:],
                                spans[1][:-1], spans[1][1:], steps))

    def _sweep(self, b: np.ndarray, trans: bool) -> np.ndarray:
        """U b by forward substitution over the blocks; U^T b backwards. A b
        of several columns is swept one column at a time, each as it is alone."""
        b = np.asarray(b, dtype=float)
        if b.ndim != 1:
            x = np.empty(b.shape)
            for column in np.ndindex(b.shape[1:]):
                x[(slice(None), *column)] = self._sweep(b[(slice(None), *column)], trans)
            return x
        x = b[self._order]
        indices, data, local = self._couplings[trans]
        for a, z, ka, kz, ta, tz, factor in self._blocks[:: -1 if trans else 1]:
            # x[a:z] += K[a:z] @ x, summed in the stored order, as csr_matvec sums
            if trans:
                ka, kz = ta, tz
            x[a:z] += np.bincount(local[ka:kz], data[ka:kz] * x[indices[ka:kz]], z - a)
            if isinstance(factor, np.ndarray):
                inv = factor.transpose(0, 2, 1) if trans else factor
                x[a:z] = (inv @ x[a:z].reshape(*inv.shape[:2], 1)).ravel()
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


def fundamental_diagonals(W: sp.spmatrix, dense: list,
                          factored: list) -> tuple[np.ndarray, np.ndarray]:
    """Exact diag(U) and diag(U^2) of U = (I - W)^-1. A walk from j back to
    j never leaves j's SCC, so both come from the inverse of its restriction:
    1/(1 - w_jj) for one node, the stacked inverses in ``dense``, and for
    each SCC in ``factored`` the selected inverse of its shifted hub-core
    factor, (A - ihI)^-1 = U + ihU^2 + O(h^2): U_jj = Re, (U^2)_jj = Im / h."""
    diag_u = 1.0 / (1.0 - W.diagonal())
    diag_u2 = diag_u * diag_u
    for nodes, inv in dense:
        diag_u[nodes] = np.diagonal(inv, axis1=1, axis2=2)
        diag_u2[nodes] = np.einsum("kij,kji->ki", inv, inv)
    for members, hub in factored:
        shifted = _selected_diagonal(hub)
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


def _selected_diagonal(hub: _HubCore) -> np.ndarray:
    """diag(B^-1) of one large SCC's shifted block B, in the SCC's own order.

    SuperLU factors the periphery P B_LL P^T = L U (one symmetric
    permutation P, asserted), and _HubCore carries that factor into the
    core: L[T, :] = H, U[:, T] = G and the trailing block S, whose inverse
    Z_TT it holds. From Z = (LU)^-1 = U^-1 L^-1, Z L = U^-1 and U Z = L^-1
    give, column by column from the last (Erisman & Tinney, CACM 18(3),
    1975):
        Z[k, j] = -Z[k, C] L[C, j]           for k in R,
        Z[j, l] = -U[j, R] Z[R, l] / U_jj    for l in C,
        Z_jj = (1 - U[j, R] Z[R, j]) / U_jj,
    with C the rows of L's column j and R the columns of U's row j. Every
    Z[k, l] of R x C sits on the pattern of (L + U)^T, since eliminating j
    fills (l, k): the signs of an M-matrix's factors rule out cancellation,
    so the factors' nonzeros are that pattern. The core's share of each
    sum, Z_TT H and G Z_TT at the entries wanted, comes from two sparse
    products; the periphery's columns then run in levels, each after the
    columns it reads, gathering only the pairs (k, l) with a periphery
    one. Temporaries are chunked under _CHUNK_BYTES."""
    lu, t, Z = hub.lu, hub.m, hub.Z
    perm = lu.perm_c
    if not np.array_equal(lu.perm_r, perm):
        raise RuntimeError("the shifted SCC factor pivoted off its diagonal")
    n = t + Z.shape[0]
    # per periphery column j: U's row j right of the diagonal, then L's
    # column j below it, each over the periphery, then the core (n columns)
    (l_val, l_row, l_col), (u_val, u_row, u_col), pivot = _triangles(lu)
    g, h = hub.G.tocoo(), hub.Ht.tocoo()
    parts = [_csr([(u_val, u_row, u_col), (g.data, g.row, t + g.col)], (t, n)),
             _csr([(l_val, l_col, l_row), (h.data, h.row, t + h.col)], (t, n))]
    for part in parts:
        part.eliminate_zeros()
        part.sort_indices()
    del l_val, l_row, l_col, u_val, u_row, u_col, g, h
    nu, nl = parts[0].nnz, parts[1].nnz
    base = [part.indptr[:-1].astype(np.intp) + at for part, at in zip(parts, (0, nu))]
    count = [np.diff(part.indptr).astype(np.intp) for part in parts]
    index = np.concatenate([part.indices for part in parts]).astype(np.intp)
    value = np.concatenate([part.data for part in parts])
    owner = np.repeat(np.tile(np.arange(t), 2), np.concatenate(count))
    lead = [np.bincount(owner[a:z], index[a:z] < t, t).astype(np.intp)  # periphery first
            for a, z in ((0, nu), (nu, nu + nl))]
    del parts, part

    # Z where it is read: Z[k, j] for U's entries (j, k), Z[j, l] for L's
    # (l, j) and Z_jj, in that order in z, each found by its code:
    # 2 (min * n + max), plus 1 above the diagonal
    z = np.zeros(nu + nl + t, dtype=complex)
    code = np.concatenate([owner * n + index, np.arange(t) * (n + 1)]) * 2
    code[nu : nu + nl] += 1
    slot = np.argsort(code)
    code = code[slot]

    # the core's share starts them: Z_TT H at (k, j), G Z_TT at (j, l)
    width = max(16, _CHUNK_BYTES // (16 * max(t, n - t)))  # columns of Z per product
    for a, dense, across in ((0, Z, hub.Ht), (nu, Z.T, hub.G)):
        tail = a + np.flatnonzero(index[a : a + (nl if a else nu)] >= t)
        by_col = tail[np.argsort(index[tail], kind="stable")]
        edges = np.searchsorted(index[by_col], np.arange(t, n + width, width))
        for c, s0 in enumerate(range(t, n, width)):
            pick = by_col[edges[c] : edges[c + 1]]
            need, at = np.unique(owner[pick], return_inverse=True)  # only these rows are read
            z[pick] = (across[need] @ dense[s0 - t : s0 - t + width].T)[at, index[pick] - s0]
    del dense, across

    # each column after the periphery columns among its entries, which
    # compute every Z it reads
    height, listed = [0] * t, index.tolist()
    u_ends, l_ends = (base[0] + lead[0]).tolist(), (base[1] + lead[1]).tolist()
    for j in range(t - 1, -1, -1):
        reads = listed[base[0][j] : u_ends[j]] + listed[base[1][j] : l_ends[j]]
        height[j] = max((height[i] + 1 for i in reads), default=0)
    height = np.array(height, dtype=np.intp)
    for level in np.split(np.argsort(height, kind="stable"),
                          np.flatnonzero(np.diff(np.sort(height))) + 1):
        (bu, bl), (cu, cl), (mu, ml) = ([side[level] for side in pair]
                                        for pair in (base, count, lead))
        sizes = np.concatenate([cu, cl])
        entries = _ranges(np.concatenate([bu, bl]), sizes)
        local = np.cumsum(sizes) - sizes
        acc = np.zeros(entries.size, dtype=complex)
        # (k, l) pairs in rectangles: k periphery x all l, then k core x l periphery
        rect = (np.arange(level.size).repeat(2), np.stack([np.zeros_like(mu), mu], 1).ravel(),
                np.stack([mu, cu - mu], 1).ravel(), np.stack([cl, ml], 1).ravel())
        for who, a_idx, b_idx in _pair_chunks(*rect):
            a_pos, b_pos = bu[who] + a_idx, bl[who] + b_idx
            k, l = index[a_pos], index[b_pos]
            want = (np.minimum(k, l) * n + np.maximum(k, l)) * 2 + (k < l)
            at = np.minimum(np.searchsorted(code, want), code.size - 1)
            if not np.array_equal(code[at], want):
                raise RuntimeError("the factors' pattern misses a pair of a column's entries")
            zz = z[slot[at]]
            acc += _segment_sum(np.concatenate([local[who] + a_idx,
                                                local[level.size + who] + b_idx]),
                                np.concatenate([zz * value[b_pos], value[a_pos] * zz]),
                                entries.size)
        x = -(z[entries] + acc)
        upper = int(cu.sum())  # the level's U entries, then its L entries
        x[upper:] /= pivot[owner[entries[upper:]]]
        z[entries] = x
        z[nu + nl + level] = (1.0 - _segment_sum(np.repeat(np.arange(level.size), cu),
                                                 value[entries[:upper]] * x[:upper],
                                                 level.size)) / pivot[level]
    out = np.empty(n, dtype=complex)
    out[hub.split] = np.concatenate([z[nu + nl :][perm], np.diagonal(Z)])
    return out


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
