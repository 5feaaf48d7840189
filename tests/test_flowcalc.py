"""Transition normalization, fundamental-matrix queries, and the per-node
flow calculus, checked against hand-worked values and two independent
oracles: a truncated geometric series for U and a literal triple loop for
the impact double sum.
"""
import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.csgraph as csgraph
import scipy.sparse.linalg as spla
from hypothesis import given, settings, strategies as st
from scipy.sparse.csgraph import connected_components

from attnflow import (
    DENSE_THRESHOLD,
    SINK,
    SOURCE,
    FlowNetwork,
    GeneratorSpec,
    NodeFlowStats,
    SingularSystem,
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
from attnflow._linalg import PIVOT_TOL, AbsorbingSolver, closed_components


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


def _largest_scc(W) -> int:
    _, labels = connected_components(W, directed=True, connection="strong")
    return int(np.bincount(labels).max())


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
            # threshold 8 sends the components above 8 nodes through the
            # per-column sparse diagonal loop instead of a dense inverse
            for threshold in (DENSE_THRESHOLD, 8):
                fm = fundamental_matrix(tm, dense_threshold=threshold)
                np.testing.assert_allclose(fm.solve(b), U @ b, rtol=1e-10)
                np.testing.assert_allclose(fm.solve_transpose(b), U.T @ b, rtol=1e-10)
                np.testing.assert_allclose(fm.solve(B), U @ B, rtol=1e-10)
                np.testing.assert_allclose(fm.solve_transpose(B), U.T @ B, rtol=1e-10)
                np.testing.assert_allclose(fm.diagonal(), np.diag(U), rtol=1e-10)
                np.testing.assert_allclose(
                    fm.squared_diagonal(), np.diag(U @ U), rtol=1e-10
                )

    def test_one_scc_decomposition(self, monkeypatch, balanced_cyclic_net):
        """The solver finds the SCCs once and the diagonals reuse them; an
        SCC above the threshold gets its own factor, and the per-column
        diagonal loop calls no solve method of the solver.
        """
        tm = transition_matrix(balanced_cyclic_net)
        assert _largest_scc(tm.interior) > 8  # the per-column route runs
        calls = []

        def counted(name, func):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return func(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(spla, "splu", counted("splu", spla.splu))
        monkeypatch.setattr(
            csgraph,
            "connected_components",
            counted("scc", csgraph.connected_components),
        )
        fm = fundamental_matrix(tm, dense_threshold=8)
        assert calls == ["scc", "splu"]
        for name in ("solve", "solve_transpose"):
            monkeypatch.setattr(
                AbsorbingSolver, name, counted(name, getattr(AbsorbingSolver, name))
            )
        fm.diagonal()
        fm.squared_diagonal()
        # one SCC of balanced_cyclic_net is above 8 nodes
        assert calls == ["scc", "splu", "splu"]

    def test_ordering_follows_scc_structure(self):
        # random-cyclic keeps its SCCs inside 64-node blocks
        cyclic = generate(GeneratorSpec(family="random-cyclic", size=500, seed=3))
        tm = transition_matrix(cyclic)
        assert _largest_scc(tm.interior) <= 64
        assert AbsorbingSolver(tm).ordering == "COLAMD"
        # a session log's hub items tie almost every item into one SCC
        log = generate(GeneratorSpec(family="session-log", size=200, seed=3))
        tm = transition_matrix(build_flow_network(to_transition_edges(log)))
        assert _largest_scc(tm.interior) > tm.n_interior // 2
        assert AbsorbingSolver(tm).ordering == "MMD_AT_PLUS_A"

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


def _calculus(net, dense_threshold):
    """W and every per-node output of the calculus, l_source included."""
    fm = fundamental_matrix(transition_matrix(net), dense_threshold)
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
    def test_power_of_two_scaling_is_exact(self, seed, k):
        # W = diag(1/A) times the flow is scale-free; every other output is linear
        # in the weights through operations that a power of two commutes with
        net = _cyclic_net(seed)
        scaled = FlowNetwork(items=net.items, flow=net.flow * 2.0**k)
        for threshold in (DENSE_THRESHOLD, 8):
            W, cols, l_source = _calculus(net, threshold)
            W2, cols2, l_source2 = _calculus(scaled, threshold)
            assert (W != W2).nnz == 0
            for name, col in cols.items():
                np.testing.assert_array_equal(cols2[name], col * 2.0**k, err_msg=name)
            np.testing.assert_array_equal(l_source2, l_source)

    @pytest.mark.parametrize("seed", _CYCLIC_SEEDS)
    def test_relabelling_permutes_every_output(self, seed):
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
        for threshold in (DENSE_THRESHOLD, 8):
            _, cols, l_source = _calculus(net, threshold)
            _, cols2, l_source2 = _calculus(relabelled, threshold)
            for name, col in cols.items():
                np.testing.assert_allclose(
                    cols2[name][perm], col, rtol=1e-12, atol=0, err_msg=name
                )
            np.testing.assert_allclose(l_source2[perm], l_source, rtol=1e-12, atol=0)
