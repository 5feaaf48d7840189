"""Transition normalization, fundamental-matrix queries, and the per-node
flow calculus, checked against hand-worked values and two independent
oracles: a truncated geometric series for U and a literal triple loop for
the impact double sum.
"""
import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.csgraph as csgraph
import scipy.sparse.linalg as spla
from hypothesis import given, settings, strategies as st
from scipy.sparse.csgraph import connected_components

from attnflow import (
    DENSE_THRESHOLD,
    AbsorbingSolver,
    SINK,
    SOURCE,
    FlowNetwork,
    GeneratorSpec,
    NodeFlowStats,
    SingularSystem,
    TransitionMatrix,
    ZeroOutflowRow,
    balance,
    build_flow_network,
    certify,
    flow_impact_double_sum,
    fundamental_matrix,
    generate,
    node_flows,
    read_stats_csv,
    source_distances,
    to_transition_edges,
    transition_matrix,
    validate,
    write_stats_csv,
)
from attnflow import _linalg
from attnflow._linalg import _DENSE_ROUTE_MAX, PIVOT_TOL, SHIFT, _hub_core


class _FactorProxy:
    """A SuperLU factor that counts its solves and may report another row
    permutation; everything else is the factor's own."""

    def __init__(self, lu, perm_r=None):
        self._lu, self.solves = lu, 0
        self.perm_r = lu.perm_r if perm_r is None else perm_r

    def solve(self, *args, **kwargs):
        self.solves += 1
        return self._lu.solve(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._lu, name)


def _counted(func, calls: list, record):
    """``func``, appending ``record`` of its arguments to ``calls`` on each
    call."""

    def wrapper(*args, **kwargs):
        calls.append(record(*args, **kwargs))
        return func(*args, **kwargs)

    return wrapper


def _record_factorizations(monkeypatch) -> list:
    """A list to which each later call of splu appends (order, permc_spec),
    each LAPACK inverse of a hub core (order, "core"), each SCC
    decomposition "scc" and each np.linalg.inv the order inverted."""
    calls = []
    monkeypatch.setattr(spla, "splu", _counted(
        spla.splu, calls, lambda A, permc_spec=None, **kw: (A.shape[0], permc_spec)))
    monkeypatch.setattr(csgraph, "connected_components", _counted(
        csgraph.connected_components, calls, lambda *a, **kw: "scc"))
    monkeypatch.setattr(np.linalg, "inv", _counted(np.linalg.inv, calls, lambda A: A.shape[-1]))
    monkeypatch.setattr(sla, "inv", _counted(sla.inv, calls, lambda A, **kw: (A.shape[0], "core")))
    return calls


def _two_cycle_chain(k: int, run: int = 5) -> TransitionMatrix:
    """k 2-cycles, each feeding the next, with a run of ``run`` one-node
    SCCs between the first half and the second: a stage per 2-cycle and
    one for the run. Each node leaks what it does not pass on."""
    n, half = 2 * k + run, k // 2
    triples = []
    for i in range(k):
        x, y = 2 * i, 2 * i + 1
        triples += [(x, y, 0.5), (y, x, 0.25)]
        if i + 1 < k:
            triples.append((y, 2 * k if i + 1 == half else x + 2, 0.25))
    triples += [(2 * k + j, 2 * k + j + 1 if j + 1 < run else 2 * half, 0.5) for j in range(run)]
    r, c, w = zip(*triples)
    W = sp.csr_matrix((w, (r, c)), shape=(n, n))
    leak = 1.0 - np.asarray(W.sum(axis=1)).ravel()
    M = sp.bmat([[None, sp.csr_matrix(np.full((1, n), 1.0 / n)), None],
                 [None, W, sp.csr_matrix(leak[:, None])],
                 [sp.csr_matrix((1, 1)), None, None]]).tocsr()
    return TransitionMatrix(items=tuple(map(str, range(n))), matrix=M)


def _neumann_series(W, tol=1e-15, max_terms=5000) -> np.ndarray:
    """Iterative oracle for U: accumulate I + W + W^2 + ... until the new
    term is below tol. Converges whenever every node keeps some chance of
    absorption; independent of any factorization.
    """
    Wd = np.asarray(W.todense())
    n = Wd.shape[0]
    U = np.eye(n)
    term = np.eye(n)
    for _ in range(max_terms):
        term = term @ Wd
        U += term
        if np.abs(term).max() < tol:
            return U
    raise AssertionError("series oracle failed to converge")


@pytest.fixture
def loop_net():
    """Four interior nodes with a 3-cycle n1 -> n2 -> n3 -> n1 plus enough
    leakage that the walk matrix is comfortably substochastic.
    """
    net = balance(
        build_flow_network(
            {
                ("__source__", "n1"): 4,
                ("n1", "n2"): 2,
                ("n1", "__sink__"): 2,
                ("n2", "n3"): 1,
                ("n2", "__sink__"): 1,
                ("n3", "n1"): 1,
                ("n3", "n4"): 0.5,
                ("n4", "__sink__"): 0.5,
            }
        )
    )
    assert validate(net).certified
    return net


class TestTransitionMatrix:
    def test_chain_rows(self, chain_net):
        tm = transition_matrix(chain_net)
        M = np.asarray(tm.matrix.todense())
        assert M.shape == (4, 4)
        np.testing.assert_allclose(M[0], [0, 1, 0, 0])
        np.testing.assert_allclose(M[1], [0, 0, 1, 0])
        np.testing.assert_allclose(M[2], [0, 0, 0, 1])
        np.testing.assert_allclose(M[3], [0, 0, 0, 0])

    def test_split_probabilities(self):
        net = build_flow_network(
            {
                ("__source__", "A"): 4,
                ("A", "B"): 1,
                ("A", "__sink__"): 3,
                ("B", "__sink__"): 1,
            }
        )
        tm = transition_matrix(net)
        M = np.asarray(tm.matrix.todense())
        assert M[1, 2] == pytest.approx(0.25)
        assert M[1, 3] == pytest.approx(0.75)

    def test_rows_sum_to_one(self, balanced_cyclic_net):
        tm = transition_matrix(balanced_cyclic_net)
        sums = np.asarray(tm.matrix.sum(axis=1)).ravel()
        np.testing.assert_allclose(sums[:-1], 1.0, atol=1e-12)
        assert sums[-1] == 0.0

    def test_interior_plus_dissipation(self, balanced_cyclic_net):
        tm = transition_matrix(balanced_cyclic_net)
        interior_sums = np.asarray(tm.interior.sum(axis=1)).ravel()
        np.testing.assert_allclose(
            interior_sums + tm.dissipation_column(), 1.0, atol=1e-12
        )

    def test_source_row_is_start_distribution(self, star_net):
        tm = transition_matrix(star_net)
        np.testing.assert_allclose(tm.source_row(), [1.0, 0, 0, 0])

    def test_dead_row_raises(self):
        net = build_flow_network({("__source__", "A"): 1, ("A", "B"): 1})
        with pytest.raises(ZeroOutflowRow) as exc:
            transition_matrix(net)
        assert exc.value.nodes == ("B",)


class TestFundamentalMatrix:
    def test_chain_closed_form(self, chain_net):
        fm = fundamental_matrix(transition_matrix(chain_net))
        np.testing.assert_allclose(fm.matrix(), [[1, 1], [0, 1]], atol=1e-12)
        np.testing.assert_allclose(fm.diagonal(), [1, 1], atol=1e-12)
        np.testing.assert_allclose(fm.row_sums(), [2, 1], atol=1e-12)

    def test_selfloop_expected_visits(self, selfloop_net):
        # half chance of repeating: geometric mean of 2 visits
        fm = fundamental_matrix(transition_matrix(selfloop_net))
        assert fm.diagonal()[0] == pytest.approx(2.0, abs=1e-12)

    def test_series_oracle(self, loop_net):
        tm = transition_matrix(loop_net)
        fm = fundamental_matrix(tm)
        expected = _neumann_series(tm.interior)
        np.testing.assert_allclose(fm.matrix(), expected, atol=1e-10)

    def test_series_oracle_random(self, balanced_cyclic_net):
        tm = transition_matrix(balanced_cyclic_net)
        fm = fundamental_matrix(tm)
        expected = _neumann_series(tm.interior, tol=1e-14)
        np.testing.assert_allclose(fm.matrix(), expected, atol=1e-9)

    def test_identity_residual(self, balanced_cyclic_net):
        fm = fundamental_matrix(transition_matrix(balanced_cyclic_net))
        assert fm.identity_residual() <= 1e-9

    def test_row_column_queries(self, loop_net):
        fm = fundamental_matrix(transition_matrix(loop_net))
        U = fm.matrix()
        for i in range(fm.n):
            np.testing.assert_allclose(fm.row(i), U[i], atol=1e-12)
            np.testing.assert_allclose(fm.column(i), U[:, i], atol=1e-12)

    def test_diagonals_match_dense(self, balanced_cyclic_net):
        fm = fundamental_matrix(transition_matrix(balanced_cyclic_net))
        U = fm.matrix()
        np.testing.assert_allclose(fm.diagonal(), np.diag(U), rtol=1e-10)
        np.testing.assert_allclose(
            fm.squared_diagonal(), np.diag(U @ U), rtol=1e-10
        )

    def test_sparse_path_matches_dense(self, balanced_cyclic_net, dense_route_max):
        # a session log's hub items tie almost every item into one giant SCC
        log = generate(GeneratorSpec(family="session-log", size=200, seed=3))
        session_net = build_flow_network(to_transition_edges(log))
        for net in (balanced_cyclic_net, session_net):
            tm = transition_matrix(net)
            n = tm.n_interior
            # reference kept here: a dense inverse, independent of the factor
            U = np.linalg.inv(np.eye(n) - tm.interior.toarray())
            b = np.linspace(0.5, 1.5, n)
            B = np.column_stack([b, b[::-1], np.ones(n)])
            # a route cut at 8 sends the components above 8 nodes through the
            # selected inverse of a shifted factor instead of a dense inverse
            for route_max in (_DENSE_ROUTE_MAX, 8):
                with dense_route_max(route_max):
                    fm = fundamental_matrix(tm)
                np.testing.assert_allclose(fm.solve(b), U @ b, rtol=1e-10)
                np.testing.assert_allclose(fm.solve_transpose(b), U.T @ b, rtol=1e-10)
                np.testing.assert_allclose(fm.solve(B), U @ B, rtol=1e-10)
                np.testing.assert_allclose(fm.solve_transpose(B), U.T @ B, rtol=1e-10)
                np.testing.assert_allclose(fm.diagonal(), np.diag(U), rtol=1e-10)
                np.testing.assert_allclose(
                    fm.squared_diagonal(), np.diag(U @ U), rtol=1e-10
                )

    def test_one_scc_decomposition(self, monkeypatch, dense_route_max):
        """One SCC pass; each SCC takes its route. The singleton run a -> b
        -> c (depths 4, 3, 2) gets one pivot-free triangular factor; the
        SCC d-e-f-h (depth 1: the 3-cycle d-e-f, each node also in a
        2-cycle with h, so its pattern is complete), the 2-cycle x-y
        (depth 0) and the singleton g beside it (depth 0) get batched dense
        inverses up to each route cut tried. Above it an SCC gets one
        periphery factor, plus a LAPACK inverse of its hub core where it has
        one: d-e-f-h a core of one node and a periphery of three, the
        2-cycle and the singleton no core. diagonal() factors nothing, and
        every answer matches a dense inverse.
        """
        net = build_flow_network(
            [("__source__", "a", 1), ("a", "b", 1), ("b", "c", 1), ("c", "d", 1),
             ("d", "e", 1), ("e", "f", 1), ("f", "d", 1), ("d", "h", 1), ("h", "d", 1),
             ("e", "h", 1), ("h", "e", 1), ("f", "h", 1), ("h", "f", 1), ("f", "g", 1),
             ("g", "__sink__", 1), ("__source__", "x", 1), ("x", "y", 1),
             ("y", "x", 1), ("y", "__sink__", 1)]
        )
        tm = transition_matrix(net)
        U = np.linalg.inv(np.eye(tm.n_interior) - tm.interior.toarray())
        calls = _record_factorizations(monkeypatch)
        b = np.arange(1.0, tm.n_interior + 1)
        hub_scc = [(3, "MMD_AT_PLUS_A"), (1, "core")]
        for route_max, factors, inverses in [
            (_DENSE_ROUTE_MAX, [(3, "NATURAL")], [1, 2, 4]),
            (3, [(3, "NATURAL")] + hub_scc, [1, 2]),
            (1, [(3, "NATURAL")] + hub_scc + [(2, "MMD_AT_PLUS_A")], [1]),
            (0, [(3, "NATURAL")] + hub_scc + [(2, "MMD_AT_PLUS_A"), (1, "MMD_AT_PLUS_A")],
             []),
        ]:
            del calls[:]
            with dense_route_max(route_max):
                fm = fundamental_matrix(tm)
            assert calls[0] == "scc" and "scc" not in calls[1:]
            assert sorted(c for c in calls if isinstance(c, tuple)) == sorted(factors)
            assert sorted(c for c in calls if isinstance(c, int)) == inverses
            del calls[:]
            np.testing.assert_allclose(fm.diagonal(), np.diag(U), rtol=1e-12)
            np.testing.assert_allclose(fm.squared_diagonal(), np.diag(U @ U), rtol=1e-12)
            assert calls == []
            np.testing.assert_allclose(fm.solve(b), U @ b, rtol=1e-12)
            np.testing.assert_allclose(fm.solve_transpose(b), U.T @ b, rtol=1e-12)

    @pytest.mark.parametrize("extra, factors, inverses", [
        (0, [], [_DENSE_ROUTE_MAX]),
        (1, [(_DENSE_ROUTE_MAX, "MMD_AT_PLUS_A"), (1, "core")], []),
    ])
    def test_default_route_cut(self, monkeypatch, extra, factors, inverses):
        """With the route cut as shipped, an SCC of _DENSE_ROUTE_MAX nodes
        gets one dense inverse and an SCC of one node more a hub-core
        factor: one sparse factor of its periphery, ordered by minimum
        degree, and one LAPACK inverse of its core. Node 0 is a hub in a
        2-cycle with every other node, and those form a leaky cycle, so the
        core is the hub alone."""
        n = _DENSE_ROUTE_MAX + extra
        M = sp.lil_matrix((n + 2, n + 2))
        M[0, 1] = 1.0
        M[1, 2:n + 1] = 1.0 / (n - 1)
        for i in range(2, n + 1):
            M[i, 1] = M[i, n + 1] = 0.25
            M[i, (i - 1) % (n - 1) + 2] = 0.5
        tm = TransitionMatrix(items=tuple(map(str, range(n))), matrix=M.tocsr())
        calls = _record_factorizations(monkeypatch)
        fundamental_matrix(tm)
        assert calls[0] == "scc"
        assert [c for c in calls if isinstance(c, tuple)] == factors
        assert [c for c in calls if isinstance(c, int)] == inverses

    @pytest.mark.parametrize("shape, core", [("leaky-cycle", 0), ("complete", 27),
                                             ("hub-and-spoke", 3)])
    def test_hub_core_split_matches_a_dense_inverse(self, shape, core, dense_route_max):
        """An SCC above the route cut splits, by degree and before any
        factor, into a hub core and a periphery. A leaky 30-cycle keeps
        every node in the periphery (k = 0). A complete digraph on 30 nodes
        puts all but three in the core (k = n - 3, the most the rule gives:
        any three nodes keep at most three edges). Three hubs, joined to
        each other and each in a 2-cycle with its share of 40 spokes, the
        spokes chained one to the next, give the hubs as the core (k = 3).
        Solves, one column or two, both ways, and both diagonals match a
        dense inverse to 1e-12."""
        n = 43 if shape == "hub-and-spoke" else 30
        W = np.zeros((n, n))
        if shape == "leaky-cycle":
            W[np.arange(n), (np.arange(n) + 1) % n] = 0.5
        elif shape == "complete":
            W[:] = 0.9 / (n - 1)
            np.fill_diagonal(W, 0.0)
        else:
            spokes = np.arange(3, n)
            W[:3, :3] = 0.2
            np.fill_diagonal(W[:3, :3], 0.0)
            W[spokes % 3, spokes] = 0.5 / np.bincount(spokes % 3)[spokes % 3]
            W[spokes, spokes % 3] = W[spokes[:-1], spokes[1:]] = 0.4
        split, k = _hub_core(sp.csr_matrix(W))
        assert k == core
        if shape == "hub-and-spoke":
            assert split[n - k :].tolist() == [0, 1, 2]
        tm = TransitionMatrix(items=tuple(map(str, range(n))), matrix=sp.csr_matrix(np.pad(W, 1)))
        with dense_route_max(8):
            fm = fundamental_matrix(tm)
        (nodes, hub), = fm._factored
        assert nodes.size == n and hub.m == n - k and hub.Z.shape == (k, k)
        U = np.linalg.inv(np.eye(n) - W)
        B = np.arange(1.0, 2 * n + 1).reshape(n, 2)
        for b in (B[:, 0], B):
            np.testing.assert_allclose(fm.solve(b), U @ b, rtol=1e-12)
            np.testing.assert_allclose(fm.solve_transpose(b), U.T @ b, rtol=1e-12)
        np.testing.assert_allclose(fm.diagonal(), np.diag(U), rtol=1e-12)
        np.testing.assert_allclose(fm.squared_diagonal(), np.diag(U @ U), rtol=1e-12)

    # a route cut at 4096 inverts every SCC here densely
    @pytest.mark.parametrize("route_max", [4096, 2])
    def test_closed_scc_among_open_ones_is_named(self, route_max, dense_route_max):
        # open: the chain a -> b, the leaky 2-cycle x-y and the 3-cycle
        # d-e-f that escapes into a; closed: the 3-cycle k-l-m fed by b
        net = build_flow_network(
            [("__source__", "a", 1), ("a", "b", 1), ("b", "__sink__", 1), ("b", "k", 1),
             ("k", "l", 1), ("l", "m", 1), ("m", "k", 1), ("__source__", "d", 1),
             ("d", "e", 1), ("e", "f", 1), ("f", "d", 1), ("f", "a", 1),
             ("__source__", "x", 1), ("x", "y", 1), ("y", "x", 1), ("y", "__sink__", 1)]
        )
        with pytest.raises(SingularSystem) as exc, dense_route_max(route_max):
            fundamental_matrix(transition_matrix(net))
        assert sorted(net.items[i] for i in exc.value.component) == ["k", "l", "m"]

    @pytest.mark.parametrize("chained", [True, False])
    def test_near_unit_self_loop_is_singular(self, chained, dense_route_max):
        # X keeps 1 - 1e-13 of its walkers; chained, it sits in the
        # singleton run a -> X -> b and passes the rest on to b
        items = ("a", "X", "b") if chained else ("X",)
        n = len(items)
        x = items.index("X") + 1
        M = sp.lil_matrix((n + 2, n + 2))
        M[0, 1] = 1.0
        for i in range(1, n + 1):
            M[i, i + 1] = 1.0
        M[x, x], M[x, x + 1] = 1.0 - 1e-13, 1e-13
        tm = TransitionMatrix(items=items, matrix=M.tocsr())
        for route_max in (_DENSE_ROUTE_MAX, 1):
            with pytest.raises(SingularSystem) as exc, dense_route_max(route_max):
                fundamental_matrix(tm)
            assert exc.value.component == (x - 1,)

    @pytest.mark.parametrize("route_max", [4096, 1])
    def test_near_closed_block_is_refused_by_its_factor(self, route_max, dense_route_max):
        # the 2-cycle {0, 1} keeps 1 - 1e-13 per step and its only way out
        # is an explicitly stored zero, so only its inverse or its factor
        # can tell that it is singular
        p = 1.0 - 1e-13
        W = sp.csr_matrix(
            (np.array([p, 0.0, p, 0.5]), np.array([1, 2, 0, 2]), np.array([0, 2, 3, 4])),
            shape=(3, 3),
        )
        M = sp.bmat([[None, sp.csr_matrix(([1.0], ([0], [2])), shape=(1, 3)), None],
                     [None, W, sp.csr_matrix(np.array([[1e-13], [1e-13], [0.5]]))],
                     [sp.csr_matrix((1, 1)), None, None]]).tocsr()
        tm = TransitionMatrix(items=("u", "v", "w"), matrix=M)
        with pytest.raises(SingularSystem) as exc, dense_route_max(route_max):
            fundamental_matrix(tm)
        assert exc.value.component == (0, 1)
        assert exc.value.min_pivot < PIVOT_TOL

    def test_near_closed_hub_core_is_refused(self, dense_route_max):
        """A complete digraph on 30 nodes that keeps 1 - 1e-13 of its
        walkers splits into a 27-node core and a 3-node periphery; the
        core's Schur complement is numerically singular, and the refusal
        names the whole SCC."""
        n = 30
        M = np.zeros((n + 2, n + 2))
        M[0, 1] = 1.0
        M[1 : n + 1, 1 : n + 1] = (1.0 - 1e-13) / (n - 1)
        np.fill_diagonal(M[1 : n + 1, 1 : n + 1], 0.0)
        M[1 : n + 1, n + 1] = 1e-13
        tm = TransitionMatrix(items=tuple(map(str, range(n))), matrix=sp.csr_matrix(M))
        with pytest.raises(SingularSystem) as exc, dense_route_max(8):
            fundamental_matrix(tm)
        assert exc.value.component == tuple(range(n))
        assert exc.value.min_pivot < PIVOT_TOL

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(min_value=1, max_value=24),
        arcs=st.lists(st.tuples(st.integers(0, 23), st.integers(0, 23), st.integers(1, 4)),
                      max_size=60),
        route_max=st.sampled_from([0, 1, 2, 3, _DENSE_ROUTE_MAX]),
        leak=st.sampled_from([1.0, 1e-3, 1e-6, 1e-9]),
    )
    def test_every_route_matches_a_dense_inverse(self, n, arcs, route_max, leak,
                                                 dense_route_max):
        """On drawn substochastic blocks, whatever mix of runs, dense
        groups and selected inversions the route cut makes, solves with one
        or several columns, both ways, and both diagonals match a dense
        inverse: 1e-10 relative for solves, 1e-12 for diagonals. Each row
        keeps ``leak`` in ``rowsum + leak`` of its flow. A leak below 1
        makes U large and ill conditioned, so there the bounds are scaled
        by the largest row sum of U, the growth any double-precision
        inverse, the reference's included, has. The diagonals' reference
        inverts each SCC's own block, which holds every walk from a node
        back to itself, so no rounding of the structural zeros of U
        outside it enters diag(U^2).
        """
        W = np.zeros((n, n))
        for i, j, w in arcs:
            if max(i, j) < n:
                W[i, j] += w
        W /= W.sum(axis=1, keepdims=True) + leak
        tm = TransitionMatrix(items=tuple(map(str, range(n))),
                              matrix=sp.csr_matrix(np.pad(W, 1)))
        U = np.linalg.inv(np.eye(n) - W)
        diag_u, diag_u2 = np.empty(n), np.empty(n)
        _, labels = connected_components(sp.csr_matrix(W), directed=True, connection="strong")
        for label in np.unique(labels):
            block = np.flatnonzero(labels == label)
            inv = np.linalg.inv(np.eye(block.size) - W[np.ix_(block, block)])
            diag_u[block], diag_u2[block] = np.diag(inv), np.einsum("ij,ji->i", inv, inv)
        scale = 1.0 if leak == 1.0 else max(1.0, float(np.abs(U).sum(axis=1).max()))
        with dense_route_max(route_max):
            fm = fundamental_matrix(tm)
        B = np.arange(1.0, 2 * n + 1).reshape(n, 2)
        for b in (B[:, 0], B):
            np.testing.assert_allclose(fm.solve(b), U @ b, rtol=1e-10 * scale)
            np.testing.assert_allclose(fm.solve_transpose(b), U.T @ b, rtol=1e-10 * scale)
        np.testing.assert_allclose(fm.diagonal(), diag_u, rtol=1e-12 * scale)
        np.testing.assert_allclose(fm.squared_diagonal(), diag_u2, rtol=1e-12 * scale)

    @pytest.mark.parametrize("route_max", [0, 1, 2])
    def test_selected_inversion_closes_the_pattern(self, route_max, dense_route_max):
        """A directed 8-cycle with three chords: its L and U^T patterns
        differ, and the selected inverse reads Z only on the pattern of
        (L + U)^T, which LU fill closes: for every column j, each pair
        (k, l) of U's row j and L's column j is a fill entry (l, k) of L +
        U. That holds for the SCC's whole factor and for its periphery
        factor carried into the hub core, and both diagonals match a dense
        inverse to 1e-12, with one SCC above each route cut.
        """
        n = 8
        W = np.zeros((n, n))
        for i in range(n):
            W[i, (i + 1) % n] = 0.5
        W[4, 0] = W[7, 2] = W[6, 3] = 0.3
        tm = TransitionMatrix(items=tuple("abcdefgh"), matrix=sp.csr_matrix(np.pad(W, 1)))
        with dense_route_max(route_max):
            fm = fundamental_matrix(tm)
        (nodes, hub), = fm._factored
        assert nodes.size == n and hub.Z.shape == (2, 2)  # two hubs of degree 3
        A = sp.csc_matrix(np.eye(n) - W) - 1j * SHIFT * sp.identity(n, format="csc")
        whole = spla.splu(A, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0)
        m = hub.m
        carried = (sp.vstack([sp.tril(hub.lu.L, -1), hub.Ht.T]),  # n x m
                   sp.hstack([sp.triu(hub.lu.U, 1), hub.G]))      # m x n
        for lower, upper, lead in ((sp.tril(whole.L, -1), sp.triu(whole.U, 1), n),
                                   carried + (m,)):
            filled = np.zeros((n, n), dtype=bool)
            filled[:, :lead] |= lower.toarray() != 0
            filled[:lead, :] |= upper.toarray() != 0
            filled[lead:, lead:] = True  # the core's inverse is dense
            for j in range(lead):
                for k in np.flatnonzero(filled[j, j + 1 :]) + j + 1:
                    for l in np.flatnonzero(filled[j + 1 :, j]) + j + 1:
                        assert k == l or filled[l, k], (j, k, l)
        assert (sp.tril(whole.L, -1) != 0).toarray().tolist() != (
            sp.triu(whole.U, 1).T != 0).toarray().tolist()
        U = np.linalg.inv(np.eye(n) - W)
        np.testing.assert_allclose(fm.diagonal(), np.diag(U), rtol=1e-12)
        np.testing.assert_allclose(fm.squared_diagonal(), np.diag(U @ U), rtol=1e-12)

    def test_chunked_selected_inversion_agrees(self, monkeypatch, dense_route_max):
        """Cutting the temporaries to a few entries (pair rectangles into
        one-row bands of two pairs, the core's share products and the Schur
        complement's into slices of 16 columns) leaves both diagonals and
        the solves unchanged."""
        log = generate(GeneratorSpec(family="session-log", size=200, seed=3))
        tm = transition_matrix(build_flow_network(to_transition_edges(log)))
        b = np.linspace(0.5, 1.5, tm.n_interior)
        with dense_route_max(8):
            whole = fundamental_matrix(tm)
            diag_u, diag_u2 = whole.diagonal(), whole.squared_diagonal()  # before the cut
            monkeypatch.setattr(_linalg, "_CHUNK_BYTES", 256)
            cut = fundamental_matrix(tm)
        assert max(hub.Z.shape[0] for _, hub in cut._factored) > 16
        np.testing.assert_allclose(cut.diagonal(), diag_u, rtol=1e-13)
        np.testing.assert_allclose(cut.squared_diagonal(), diag_u2, rtol=1e-13)
        np.testing.assert_allclose(cut.solve(b), whole.solve(b), rtol=1e-13)

    def test_diagonal_solves_nothing(self, dense_route_max):
        """diag(U) and diag(U^2) of an SCC above the route cut come from
        its periphery factor's L and U, G, H and the core's inverse alone:
        no SuperLU solve, one column or many."""
        log = generate(GeneratorSpec(family="session-log", size=200, seed=3))
        tm = transition_matrix(build_flow_network(to_transition_edges(log)))
        with dense_route_max(8):
            fm = fundamental_matrix(tm)
        proxies = []
        for _, hub in fm._factored:
            hub.lu = _FactorProxy(hub.lu)
            proxies.append(hub.lu)
        fm.diagonal()
        assert proxies and all(proxy.solves == 0 for proxy in proxies)

    def test_off_diagonal_pivoting_is_refused(self, dense_route_max):
        """The selected inverse reads one symmetric permutation of the
        periphery's factor; a factor whose row and column orders differ
        raises."""
        log = generate(GeneratorSpec(family="session-log", size=200, seed=3))
        tm = transition_matrix(build_flow_network(to_transition_edges(log)))
        with dense_route_max(8):
            fm = fundamental_matrix(tm)
        for _, hub in fm._factored:
            hub.lu = _FactorProxy(hub.lu, perm_r=np.roll(hub.lu.perm_r, 1))
        with pytest.raises(RuntimeError, match="pivoted off its diagonal"):
            fm.diagonal()

    def test_pattern_missing_a_pair_is_refused(self, dense_route_max):
        """Each column reads Z at the pairs of its U row and L column from
        the transposed pattern of the factors; a pattern missing one (here
        the fill entry U[l, t] behind the pair of U[j, t] and L[l, j], t in
        the core) raises instead of reading a neighbouring entry."""
        log = generate(GeneratorSpec(family="session-log", size=200, seed=3))
        tm = transition_matrix(build_flow_network(to_transition_edges(log)))
        with dense_route_max(8):
            fm = fundamental_matrix(tm)
        (_, hub), = fm._factored
        lower = sp.tril(hub.lu.L, -1).tocsc()
        G = hub.G.tolil()
        j, l, t = next((j, l, t) for j in range(hub.m)
                       for l in lower.indices[lower.indptr[j] : lower.indptr[j + 1]]
                       for t in G.rows[j] if G[l, t] != 0)
        G[l, t] = 0.0
        hub.G = G.tocsr()
        with pytest.raises(RuntimeError, match="misses a pair"):
            fm.diagonal()

    @pytest.mark.parametrize("earlier, later", [(3, 2), (2, 3), (2, 2)])
    @pytest.mark.parametrize("leak", [1e-13, 0.0])
    @pytest.mark.parametrize("route_max", [_DENSE_ROUTE_MAX, 2, 1, 0])
    def test_first_refused_scc_is_named(self, earlier, later, leak, route_max,
                                        dense_route_max):
        """Two singular SCCs, complete digraphs: an earlier one in level
        order (depth 1) that keeps 1 - 1e-13 of its walkers, its way out an
        explicitly stored zero into the open node 0, and a later one (depth
        2) that passes ``leak`` into the first and keeps the rest, so at a
        zero leak it is exactly singular. At a cut of 2 a 3-node SCC takes
        a hub core and a 2-node one a dense stack, in either order; at the
        shipped cut all take dense stacks, two of one size the same one;
        below 2 all take hub cores. Every time the refusal names the
        earlier SCC, as a build that walks the stages in order does. (No
        run is refused here: its pivots are its nodes' 1 - w_jj, checked
        first.)"""
        p, n = 1.0 - 1e-13, 1 + earlier + later
        first, second = range(1, 1 + earlier), range(1 + earlier, n)
        # (row, col, weight) of the full matrix: source 0, interior i at i + 1, sink n + 1
        triples = [(0, i + 1, 1.0 / n) for i in range(n)] + [(1, n + 1, 1.0)]
        for scc, keep in ((first, p), (second, 1.0 - leak)):
            triples += [(i + 1, j + 1, keep / (len(scc) - 1)) for i in scc for j in scc if i != j]
        triples += [(i + 1, n + 1, 1e-13) for i in first]
        triples += [(i + 1, first[0] + 1, leak) for i in second]
        triples.append((first[0] + 1, 1, 0.0))
        r, c, w = zip(*triples)
        M = sp.csr_matrix((w, (r, c)), shape=(n + 2, n + 2))
        tm = TransitionMatrix(items=tuple(map(str, range(n))), matrix=M)
        with pytest.raises(SingularSystem) as exc, dense_route_max(route_max):
            fundamental_matrix(tm)
        assert exc.value.component == tuple(first)
        assert exc.value.min_pivot < PIVOT_TOL

    def test_build_work_does_not_grow_with_the_stages(self, monkeypatch):
        """A chain of 500 or of 1,000 2-cycles, a block each, with a run
        of one-node SCCs halfway: building the solver calls np.linalg.inv
        and constructs scipy sparse matrices as often for either length,
        so none of that work is done per block."""
        counts = []
        for k in (500, 1000):
            tm = _two_cycle_chain(k)
            calls = []
            with monkeypatch.context() as patch:
                patch.setattr(np.linalg, "inv", _counted(np.linalg.inv, calls, lambda A: "inv"))
                for kind in (sp.csr_matrix, sp.csc_matrix, sp.coo_matrix,
                             sp.csr_array, sp.csc_array, sp.coo_array):
                    patch.setattr(kind, "__init__",
                                  _counted(kind.__init__, calls, lambda *a, **kw: "sparse"))
                fm = AbsorbingSolver(tm)
            assert len(fm._blocks) == k + 1
            counts.append((calls.count("inv"), calls.count("sparse")))
        assert counts[0] == counts[1]

    @pytest.mark.parametrize("route_max", [_DENSE_ROUTE_MAX, 8, 0])
    def test_columns_solve_as_they_would_alone(self, balanced_cyclic_net, route_max,
                                               dense_route_max):
        """solve and solve_transpose of a right-hand side with several
        columns give each column the bits of its own one-column solve, on
        networks of many stages: the couplings, dense stacks, runs and hub
        cores all treat a column as they treat it alone."""
        log = generate(GeneratorSpec(family="session-log", size=200, seed=3))
        for tm in (transition_matrix(balanced_cyclic_net), _two_cycle_chain(20),
                   transition_matrix(build_flow_network(to_transition_edges(log)))):
            with dense_route_max(route_max):
                fm = fundamental_matrix(tm)
            B = np.random.default_rng(1).uniform(-1.0, 1.0, (fm.n, 3))
            for solve in (fm.solve, fm.solve_transpose):
                X = solve(B)
                assert X.shape == B.shape
                for k in range(B.shape[1]):
                    assert solve(B[:, k]).tobytes() == X[:, k].tobytes()

    def test_edge_shapes_solve_as_their_columns(self, balanced_cyclic_net):
        """Right-hand sides with no nodes, no columns or several column
        axes keep their shape, and each column is its own solve's."""
        empty = fundamental_matrix(transition_matrix(build_flow_network({(SOURCE, SINK): 1.0})))
        assert empty.n == 0
        assert empty.identity_residual() == 0.0
        fm = fundamental_matrix(transition_matrix(balanced_cyclic_net))
        U = fm.matrix()
        rng = np.random.default_rng(2)
        for solver, shapes in ((empty, [(0,), (0, 3)]), (fm, [(fm.n, 0), (fm.n, 2, 3)])):
            for shape in shapes:
                B = rng.uniform(-1.0, 1.0, shape)
                for solve, M in ((solver.solve, U), (solver.solve_transpose, U.T)):
                    X = solve(B)
                    assert X.shape == B.shape
                    for column in np.ndindex(shape[1:]):
                        at = (slice(None), *column)
                        x = solve(B[at])
                        assert x.shape == (solver.n,)
                        assert x.tobytes() == X[at].tobytes()
                        if solver is fm:
                            np.testing.assert_allclose(x, M @ B[at], rtol=1e-10, atol=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(min_value=1, max_value=30),
        edges=st.lists(st.tuples(st.integers(0, 29), st.integers(0, 29)), max_size=90),
    )
    def test_scc_labels_are_reverse_topological(self, n, edges):
        """scipy labels SCCs so that every edge between two of them goes
        to the lower label, which the solver's one-pass depths rely on.
        """
        edges = [(i, j) for i, j in edges if max(i, j) < n]
        rows = np.array([i for i, _ in edges], dtype=np.intp)
        cols = np.array([j for _, j in edges], dtype=np.intp)
        graph = sp.csr_matrix((np.ones(rows.size), (rows, cols)), shape=(n, n))
        _, labels = connected_components(graph, directed=True, connection="strong")
        cross = labels[rows] != labels[cols]
        assert np.all(labels[rows][cross] > labels[cols][cross])

    def test_trapped_cycle_is_singular(self):
        net = build_flow_network(
            {
                ("__source__", "A"): 2,
                ("A", "__sink__"): 1,
                ("A", "C1"): 1,
                ("C1", "C2"): 1,
                ("C2", "C1"): 1,
            }
        )
        with pytest.raises(SingularSystem) as exc:
            fundamental_matrix(transition_matrix(net))
        # interior indices of the closed pair (A is index 0)
        assert set(exc.value.component) == {1, 2}

    def test_trapped_cycle_is_singular_at_scale(self):
        # the same trapped pair among more than DENSE_THRESHOLD open nodes
        edges = {
            ("__source__", "A"): 2,
            ("A", "__sink__"): 1,
            ("A", "C1"): 1,
            ("C1", "C2"): 1,
            ("C2", "C1"): 1,
        }
        for k in range(DENSE_THRESHOLD + 100):
            edges[("__source__", f"x{k}")] = 1
            edges[(f"x{k}", "__sink__")] = 1
        net = build_flow_network(edges)
        assert net.n_interior > DENSE_THRESHOLD
        with pytest.raises(SingularSystem) as exc:
            fundamental_matrix(transition_matrix(net))
        trapped = {net.items[i] for i in exc.value.component}
        assert trapped == {"C1", "C2"}

    def test_dense_guard(self, balanced_cyclic_net):
        tm = transition_matrix(balanced_cyclic_net)
        fm = fundamental_matrix(tm, dense_threshold=8)
        with pytest.raises(MemoryError):
            fm.matrix()


class TestNodeFlows:
    def test_chain_values(self, chain_net):
        stats = node_flows(chain_net)
        np.testing.assert_allclose(stats.through_flow, [2, 2], atol=1e-9)
        np.testing.assert_allclose(stats.dissipation, [0, 2], atol=1e-9)
        np.testing.assert_allclose(stats.source_inflow, [2, 0], atol=1e-9)
        np.testing.assert_allclose(stats.circulating_flow, [2, 0], atol=1e-9)
        np.testing.assert_allclose(stats.source_flux, [2, 2], atol=1e-9)
        np.testing.assert_allclose(stats.impact, [4, 2], atol=1e-9)

    def test_star_values(self, star_net):
        stats = node_flows(star_net)
        by_item = dict(zip(stats.items, stats.impact))
        assert by_item["hub"] == pytest.approx(6.0, abs=1e-9)
        for leaf in ("x", "y", "z"):
            assert by_item[leaf] == pytest.approx(1.0, abs=1e-9)
        np.testing.assert_allclose(stats.through_flow, [3, 1, 1, 1], atol=1e-9)
        np.testing.assert_allclose(stats.dissipation, [0, 1, 1, 1], atol=1e-9)

    def test_single_node(self, single_node_net):
        stats = node_flows(single_node_net)
        assert stats.through_flow[0] == pytest.approx(5.0)
        assert stats.impact[0] == pytest.approx(5.0)
        assert stats.circulating_flow[0] == pytest.approx(0.0)

    def test_flux_consistency(self, balanced_cyclic_net):
        stats = node_flows(balanced_cyclic_net)
        assert stats.flux_residual() <= 1e-6

    def test_dissipation_total_exact(self, balanced_cyclic_net):
        stats = node_flows(balanced_cyclic_net)
        # integer weights: conservation must hold to the last bit
        assert stats.dissipation.sum() == balanced_cyclic_net.total_source_outflow()

    def test_circulating_identity(self, balanced_cyclic_net):
        stats = node_flows(balanced_cyclic_net)
        np.testing.assert_array_equal(
            stats.circulating_flow, stats.through_flow - stats.dissipation
        )

    def test_impact_cross_form(self, balanced_cyclic_net):
        tm = transition_matrix(balanced_cyclic_net)
        fm = fundamental_matrix(tm)
        s = np.asarray(
            balanced_cyclic_net.flow[0, 1:-1].todense()
        ).ravel()
        factored = node_flows(balanced_cyclic_net, fm).impact
        literal = flow_impact_double_sum(fm, s)
        np.testing.assert_allclose(factored, literal, rtol=1e-9)

    def test_impact_triple_loop_oracle(self, loop_net):
        """Impact written out exactly as nested sums, no linear algebra."""
        tm = transition_matrix(loop_net)
        fm = fundamental_matrix(tm)
        U = fm.matrix()
        s = np.asarray(loop_net.flow[0, 1:-1].todense()).ravel()
        n = fm.n
        expected = np.zeros(n)
        for i in range(n):
            acc = 0.0
            for j in range(n):
                for k in range(n):
                    acc += s[j] * U[j, i] * U[i, k]
            expected[i] = acc / U[i, i]
        stats = node_flows(loop_net)
        np.testing.assert_allclose(stats.impact, expected, rtol=1e-9)

    def test_totals_and_columns(self, chain_net):
        stats = node_flows(chain_net)
        cols = stats.columns()
        assert set(cols) == {"A", "D", "S", "F", "C", "phi"}
        assert stats.totals()["D"] == pytest.approx(2.0)
        assert len(stats) == 2

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_generated_invariants(self, seed):
        net = generate(
            GeneratorSpec(
                family="random-cyclic",
                size=30,
                recirculation=0.25,
                seed=seed,
                avg_degree=3.0,
            )
        )
        stats = node_flows(net)
        assert stats.flux_residual() <= 1e-6
        assert stats.dissipation.sum() == net.total_source_outflow()
        assert np.all(stats.through_flow >= stats.dissipation)
        assert np.all(stats.impact >= 0)


    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        size=st.integers(min_value=10, max_value=300),
        recirculation=st.sampled_from([0.0, 0.1, 0.3, 0.5]),
        avg_degree=st.floats(min_value=1.0, max_value=5.0),
    )
    def test_conservation_at_documented_tolerance(self, seed, size, recirculation, avg_degree,
                                                  dense_route_max):
        """phi = A to 1e-9 on certified networks, whichever route each SCC
        takes: a route cut at 1 factors every cycle sparsely, at 2 and at
        the default small ones are inverted densely; runs of one-node SCCs
        are factored whole.
        """
        net = generate(GeneratorSpec(family="random-cyclic", size=size, seed=seed,
                                     recirculation=recirculation, avg_degree=avg_degree))
        assert validate(net).certified
        for route_max in (1, 2, _DENSE_ROUTE_MAX):
            with dense_route_max(route_max):
                assert node_flows(net).flux_residual() <= 1e-9


class TestStatsCsv:
    def test_roundtrip_bitexact(self, tmp_path, balanced_cyclic_net):
        stats = node_flows(balanced_cyclic_net)
        path = tmp_path / "stats.csv"
        write_stats_csv(path, stats)
        back = read_stats_csv(path)
        assert back.items == stats.items
        for name in ("A", "D", "S", "F", "C", "phi"):
            np.testing.assert_array_equal(back.columns()[name], stats.columns()[name])

    def test_header_check(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("item,A,B\nx,1,2\n")
        with pytest.raises(ValueError, match="unexpected stats header"):
            read_stats_csv(path)

    @pytest.mark.parametrize(
        "text, reason",
        [
            ("", "1: unexpected stats header None"),
            ("item,A,D,S,F,C,phi\na,1,2,3,4,5,6\nb,1,2,3\n", "3: expected 7 columns, got 4"),
            ("item,A,D,S,F,C,phi\na,1,2,x,4,5,6\n", "2: could not convert string to float: 'x'"),
            ("item,A,D,S,F,C,phi\na,1,2,3,4,5,6\nb,1,nan,3,4,5,6\n",
             "3: expected a finite number, got 'nan'"),
            ("item,A,D,S,F,C,phi\na,1,2,3,4,5,-inf\n", "2: expected a finite number, got '-inf'"),
        ],
    )
    def test_bad_file_names_file_and_line(self, tmp_path, text, reason):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        with pytest.raises(ValueError) as exc:
            read_stats_csv(path)
        assert str(exc.value) == f"{path}:{reason}"

    def test_deterministic_bytes(self, tmp_path, star_net):
        stats = node_flows(star_net)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_stats_csv(p1, stats)
        write_stats_csv(p2, node_flows(star_net))
        assert p1.read_bytes() == p2.read_bytes()


def _calculus(net):
    """W and every per-node output of the calculus, l_source included."""
    fm = fundamental_matrix(transition_matrix(net))
    return fm.transition.matrix, node_flows(net, fm).columns(), source_distances(fm)


_CYCLIC_SEEDS = [11, 12, 13, 14, 15]


def _cyclic_net(seed):
    net = generate(
        GeneratorSpec(family="random-cyclic", size=90, recirculation=0.4, seed=seed)
    )
    assert validate(net).max_residual == 0.0  # integer weights balance exactly
    return net


class TestMetamorphic:
    """Transformations of the input whose effect on every output is known."""

    @pytest.mark.parametrize("seed", _CYCLIC_SEEDS)
    @pytest.mark.parametrize("k", [-3, 7, 40])
    def test_power_of_two_scaling_is_exact(self, seed, k, dense_route_max):
        # W = diag(1/A) times the flow is scale-free; every other output is linear
        # in the weights through operations that a power of two commutes with
        net = _cyclic_net(seed)
        scaled = FlowNetwork(items=net.items, flow=net.flow * 2.0**k)
        for route_max in (_DENSE_ROUTE_MAX, 8):
            with dense_route_max(route_max):
                W, cols, l_source = _calculus(net)
                W2, cols2, l_source2 = _calculus(scaled)
            assert (W != W2).nnz == 0
            for name, col in cols.items():
                np.testing.assert_array_equal(cols2[name], col * 2.0**k, err_msg=name)
            np.testing.assert_array_equal(l_source2, l_source)

    @pytest.mark.parametrize("seed", _CYCLIC_SEEDS)
    def test_relabelling_permutes_every_output(self, seed, dense_route_max):
        net = _cyclic_net(seed)
        rng = np.random.default_rng(seed)
        rename = {item: f"r{k}" for item, k in zip(net.items, rng.permutation(net.n_interior))}
        rename.update({SOURCE: SOURCE, SINK: SINK})
        triples = [(rename[s], rename[d], w) for s, d, w in net.edges()]
        shuffled = [triples[i] for i in rng.permutation(len(triples))]
        relabelled, _ = certify(build_flow_network(shuffled))
        where = {item: i for i, item in enumerate(relabelled.items)}
        perm = [where[rename[item]] for item in net.items]
        assert sorted(perm) == list(range(net.n_interior)) and perm != sorted(perm)
        for route_max in (_DENSE_ROUTE_MAX, 8):
            with dense_route_max(route_max):
                _, cols, l_source = _calculus(net)
                _, cols2, l_source2 = _calculus(relabelled)
            for name, col in cols.items():
                np.testing.assert_allclose(
                    cols2[name][perm], col, rtol=1e-12, atol=0, err_msg=name
                )
            np.testing.assert_allclose(l_source2[perm], l_source, rtol=1e-12, atol=0)
