"""Transition normalization, fundamental-matrix queries, and the per-node
flow calculus, checked against hand-worked values and two independent
oracles: a truncated geometric series for U and a literal triple loop for
the impact double sum.
"""
import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st
from scipy.sparse.csgraph import connected_components

from attnflow import (
    DENSE_THRESHOLD,
    GeneratorSpec,
    NodeFlowStats,
    SingularSystem,
    ZeroOutflowRow,
    balance,
    build_flow_network,
    flow_impact,
    flow_impact_double_sum,
    fundamental_matrix,
    generate,
    node_flows,
    read_stats_csv,
    transition_matrix,
    validate,
    write_stats_csv,
)
from attnflow._linalg import PIVOT_TOL, closed_components


def _closed_components_loop(W) -> list[list[int]]:
    """closed_components written as one O(N) mask per component."""
    n_comp, labels = connected_components(W, directed=True, connection="strong")
    row_sums = np.asarray(W.sum(axis=1)).ravel()
    coo = W.tocoo()
    closed = []
    for comp in range(n_comp):
        members = labels == comp
        leaky = np.any(row_sums[members] < 1.0 - PIVOT_TOL)
        escapes = np.any(members[coo.row] & ~members[coo.col] & (coo.data != 0))
        if not (leaky or escapes):
            closed.append(np.flatnonzero(members).tolist())
    return closed


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

    def test_sparse_path_matches_dense(self, balanced_cyclic_net):
        tm = transition_matrix(balanced_cyclic_net)
        dense = fundamental_matrix(tm, dense_threshold=DENSE_THRESHOLD)
        sparse = fundamental_matrix(tm, dense_threshold=8)
        b = np.linspace(0.5, 1.5, dense.n)
        np.testing.assert_allclose(sparse.solve(b), dense.solve(b), rtol=1e-10)
        np.testing.assert_allclose(
            sparse.solve_transpose(b), dense.solve_transpose(b), rtol=1e-10
        )
        np.testing.assert_allclose(sparse.diagonal(), dense.diagonal(), rtol=1e-10)
        np.testing.assert_allclose(
            sparse.squared_diagonal(), dense.squared_diagonal(), rtol=1e-10
        )

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

    def test_closed_components_unchanged(self):
        # closed: the 2-cycle {2, 3} and the self-loop {6}; open: the leaky
        # 2-cycle {0, 1}, the 2-cycle {4, 5} escaping into 6, the leaky
        # singleton 7 and the singleton 8 escaping into 2
        entries = {
            (0, 1): 0.5, (1, 0): 0.5,
            (2, 3): 1.0, (3, 2): 1.0,
            (4, 5): 0.5, (4, 6): 0.5, (5, 4): 1.0,
            (6, 6): 1.0,
            (7, 7): 0.3,
            (8, 2): 1.0,
        }
        rows, cols = zip(*entries)
        W = sp.csr_matrix((list(entries.values()), (rows, cols)), shape=(9, 9))
        closed = closed_components(W)
        assert closed == _closed_components_loop(W)
        assert sorted(closed) == [[2, 3], [6]]

    def test_dense_guard(self, balanced_cyclic_net):
        tm = transition_matrix(balanced_cyclic_net)
        fm = fundamental_matrix(tm, dense_threshold=8)
        with pytest.raises(MemoryError):
            fm.matrix()

    def test_condition_estimate_sane(self, loop_net):
        fm = fundamental_matrix(transition_matrix(loop_net))
        kappa = fm.condition_estimate()
        assert kappa >= 1.0
        assert np.isfinite(kappa)


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
        factored = flow_impact(fm, s)
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
        with pytest.raises(ValueError):
            read_stats_csv(path)

    def test_deterministic_bytes(self, tmp_path, star_net):
        stats = node_flows(star_net)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_stats_csv(p1, stats)
        write_stats_csv(p2, node_flows(star_net))
        assert p1.read_bytes() == p2.read_bytes()
