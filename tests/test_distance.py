"""Flow distance checks: hand fixtures, internal identities, and an
independent oracle that appends the source as an explicit pseudo-node and
reads its distance row off a dense inverse.
"""
import math

import numpy as np
import pytest
import scipy.sparse as sp

from attnflow import (
    FundamentalMatrix,
    TransitionMatrix,
    UnreachablePair,
    build_flow_network,
    first_passage,
    fundamental_matrix,
    pairwise_distances,
    return_times,
    source_distances,
    source_total_distances,
    symmetric_distance,
    total_distance_row,
    transition_matrix,
    write_pairwise,
    write_source_distances,
)
from attnflow.distance import _reachable_from_source
from attnflow.network import reachable


def _fm(net):
    return fundamental_matrix(transition_matrix(net))


@pytest.fixture
def two_cycle_fm():
    """A <-> B with half chance of absorption at each node.

    U = [[4/3, 2/3], [2/3, 4/3]], so t_AB = 5/3, t_BB = 2/3, l_AB = 1.
    """
    net = build_flow_network(
        {
            ("__source__", "A"): 2,
            ("A", "B"): 1,
            ("A", "__sink__"): 1,
            ("B", "A"): 0.5,
            ("B", "__sink__"): 0.5,
        }
    )
    return _fm(net)


def _source_row_oracle(fm) -> np.ndarray:
    """t_0j computed the long way: extend the interior block with a row for
    the source and evaluate (V^2)_0j / V_0j - 1 on the dense inverse.
    """
    n = fm.n
    W = np.asarray(fm.transition.interior.todense())
    ext = np.zeros((n + 1, n + 1))
    ext[0, 1:] = fm.transition.source_row()
    ext[1:, 1:] = W
    V = np.linalg.inv(np.eye(n + 1) - ext)
    V2 = V @ V
    with np.errstate(divide="ignore", invalid="ignore"):
        t = V2[0, 1:] / V[0, 1:] - 1.0
    return t


class TestReturnTimes:
    def test_acyclic_zero(self, chain_net):
        np.testing.assert_allclose(return_times(_fm(chain_net)), [0, 0], atol=1e-12)

    def test_selfloop(self, selfloop_net):
        assert return_times(_fm(selfloop_net))[0] == pytest.approx(1.0, abs=1e-12)

    def test_two_cycle(self, two_cycle_fm):
        np.testing.assert_allclose(
            return_times(two_cycle_fm), [2 / 3, 2 / 3], atol=1e-12
        )


class TestSourceDistances:
    def test_chain(self, chain_net):
        np.testing.assert_allclose(source_distances(_fm(chain_net)), [1, 2], atol=1e-9)

    def test_star(self, star_net):
        np.testing.assert_allclose(
            source_distances(_fm(star_net)), [1, 2, 2, 2], atol=1e-9
        )

    def test_selfloop(self, selfloop_net):
        fm = _fm(selfloop_net)
        assert source_total_distances(fm)[0] == pytest.approx(2.0, abs=1e-9)
        assert source_distances(fm)[0] == pytest.approx(1.0, abs=1e-9)

    def test_extended_matrix_oracle(self, balanced_cyclic_net):
        fm = _fm(balanced_cyclic_net)
        expected = _source_row_oracle(fm)
        np.testing.assert_allclose(source_total_distances(fm), expected, atol=1e-9)

    def test_unreachable_is_nan(self):
        net = build_flow_network(
            {("__source__", "A"): 1, ("A", "__sink__"): 1, ("B", "__sink__"): 1}
        )
        fm = _fm(net)
        t = source_total_distances(fm)
        idx = {item: i for i, item in enumerate(fm.items)}
        assert t[idx["A"]] == pytest.approx(1.0)
        assert math.isnan(t[idx["B"]])
        assert math.isnan(source_distances(fm)[idx["B"]])


def _union_of_start_masks(fm) -> np.ndarray:
    """Reachability from the source the long way: one BFS per start node."""
    W = fm.transition.interior
    mask = np.zeros(fm.n, dtype=bool)
    for i in np.flatnonzero(fm.transition.source_row() > 0):
        mask |= reachable(W, i)
    return mask


def _random_uncertified_net(seed: int):
    """Random interior edges, sink edges everywhere (so I - W is regular),
    and source edges into a random subset, leaving some nodes unreachable.
    """
    rng = np.random.default_rng(seed)
    n = int(rng.integers(5, 80))
    names = [f"n{i}" for i in range(n)]
    edges = {(name, "__sink__"): 1.0 for name in names}
    for _ in range(int(rng.integers(n, 3 * n))):
        a, b = rng.integers(0, n, size=2)
        edges[(names[a], names[b])] = float(rng.integers(1, 5))
    for a in rng.choice(n, size=int(rng.integers(1, max(2, n // 4))), replace=False):
        edges[("__source__", names[a])] = 1.0
    return build_flow_network(edges)


class TestSourceReachability:
    """The super-source BFS gives the union of the per-start BFS masks."""

    @pytest.mark.parametrize("seed", range(20))
    def test_random_uncertified(self, seed):
        fm = _fm(_random_uncertified_net(seed))
        expected = _union_of_start_masks(fm)
        got = _reachable_from_source(fm.transition.interior, fm.transition.source_row())
        np.testing.assert_array_equal(got, expected)
        np.testing.assert_array_equal(np.isfinite(source_total_distances(fm)), expected)

    def test_random_certified(self, random_suite):
        for net in random_suite[:20]:
            fm = _fm(net)
            np.testing.assert_array_equal(
                np.isfinite(source_total_distances(fm)), _union_of_start_masks(fm)
            )

    def test_unreachable_node(self):
        net = build_flow_network(
            {("__source__", "A"): 1, ("A", "__sink__"): 1, ("B", "__sink__"): 1}
        )
        fm = _fm(net)
        got = _reachable_from_source(fm.transition.interior, fm.transition.source_row())
        np.testing.assert_array_equal(got, _union_of_start_masks(fm))
        np.testing.assert_array_equal(got, [True, False])

    def test_explicit_zero_in_source_row_adds_no_start(self):
        # source -> A stored, source -> B stored as an explicit zero; B only
        # leaks to the sink, so no walk from the source ever reaches it
        M = sp.csr_matrix(
            (
                [1.0, 0.0, 1.0, 1.0],
                [1, 2, 3, 3],
                [0, 2, 3, 4, 4],
            ),
            shape=(4, 4),
        )
        assert M[0].nnz == 2
        fm = FundamentalMatrix(TransitionMatrix(items=("A", "B"), matrix=M))
        t = source_total_distances(fm)
        assert t[0] == pytest.approx(1.0)
        assert math.isnan(t[1])


class TestTotalDistanceRow:
    def test_chain_row(self, chain_net):
        fm = _fm(chain_net)
        t = total_distance_row(fm, 0)
        assert t[0] == pytest.approx(0.0, abs=1e-12)  # self distance: no cycle
        assert t[1] == pytest.approx(1.0, abs=1e-9)
        assert math.isnan(total_distance_row(fm, 1)[0])

    def test_diagonal_matches_return_times(self, balanced_cyclic_net):
        fm = _fm(balanced_cyclic_net)
        rt = return_times(fm)
        for i in (0, 7, 23, 59):
            assert total_distance_row(fm, i)[i] == pytest.approx(rt[i], abs=1e-9)

    def test_reachable_offdiagonal_at_least_one_step(self, balanced_cyclic_net):
        fm = _fm(balanced_cyclic_net)
        t = total_distance_row(fm, 3)
        off = np.delete(t, 3)
        finite = off[np.isfinite(off)]
        assert finite.size
        assert np.all(finite >= 1.0 - 1e-12)


class TestFirstPassage:
    def test_chain_forward(self, chain_net):
        assert first_passage(_fm(chain_net), 0, 1) == pytest.approx(1.0, abs=1e-9)

    def test_chain_backward_unreachable(self, chain_net):
        with pytest.raises(UnreachablePair):
            first_passage(_fm(chain_net), 1, 0)

    def test_self_is_zero(self, chain_net):
        assert first_passage(_fm(chain_net), 1, 1) == 0.0

    def test_two_cycle(self, two_cycle_fm):
        assert first_passage(two_cycle_fm, 0, 1) == pytest.approx(1.0, abs=1e-9)
        assert first_passage(two_cycle_fm, 1, 0) == pytest.approx(1.0, abs=1e-9)


class TestPairwise:
    def test_two_cycle_values(self, two_cycle_fm):
        t, l, c = pairwise_distances(two_cycle_fm)
        assert t[0, 1] == pytest.approx(5 / 3, abs=1e-9)
        assert t[0, 0] == pytest.approx(2 / 3, abs=1e-9)
        assert l[0, 1] == pytest.approx(1.0, abs=1e-9)
        assert c[0, 1] == pytest.approx(1.0, abs=1e-9)

    def test_matches_row_queries(self, balanced_cyclic_net):
        fm = _fm(balanced_cyclic_net)
        t, _, _ = pairwise_distances(fm)
        for i in (0, 11, 42):
            row = total_distance_row(fm, i)
            np.testing.assert_allclose(t[i], row, atol=1e-9, equal_nan=True)

    def test_first_passage_identity(self, balanced_cyclic_net):
        fm = _fm(balanced_cyclic_net)
        t, l, _ = pairwise_distances(fm)
        n = fm.n
        rt = return_times(fm)
        for i in range(n):
            for j in range(n):
                if i == j or not np.isfinite(t[i, j]):
                    continue
                assert l[i, j] == pytest.approx(t[i, j] - rt[j], abs=1e-9)

    def test_symmetric_exactly(self, balanced_cyclic_net):
        _, _, c = pairwise_distances(_fm(balanced_cyclic_net))
        np.testing.assert_array_equal(c, c.T)

    def test_harmonic_combination(self, balanced_cyclic_net):
        _, l, c = pairwise_distances(_fm(balanced_cyclic_net))
        both = np.isfinite(l) & np.isfinite(l.T)
        np.fill_diagonal(both, False)
        i, j = np.nonzero(both)
        expected = 2.0 * l[i, j] * l[j, i] / (l[i, j] + l[j, i])
        np.testing.assert_allclose(c[i, j], expected, atol=1e-9)

    def test_unreachable_nan(self, chain_net):
        t, l, c = pairwise_distances(_fm(chain_net))
        assert math.isnan(t[1, 0])
        assert math.isnan(l[1, 0])
        assert math.isnan(c[0, 1])  # needs both directions
        assert c[0, 0] == 0.0

    def test_cap(self, balanced_cyclic_net):
        fm = _fm(balanced_cyclic_net)
        with pytest.raises(ValueError, match="cap"):
            pairwise_distances(fm, cap=10)


class TestSymmetricDistance:
    def test_two_cycle(self, two_cycle_fm):
        assert symmetric_distance(two_cycle_fm, 0, 1) == pytest.approx(1.0, abs=1e-9)

    def test_equal_legs_average_to_leg(self, two_cycle_fm):
        lij = first_passage(two_cycle_fm, 0, 1)
        lji = first_passage(two_cycle_fm, 1, 0)
        assert symmetric_distance(two_cycle_fm, 0, 1) == pytest.approx(
            2 * lij * lji / (lij + lji)
        )

    def test_one_direction_missing(self, chain_net):
        with pytest.raises(UnreachablePair):
            symmetric_distance(_fm(chain_net), 0, 1)

    def test_self(self, chain_net):
        assert symmetric_distance(_fm(chain_net), 1, 1) == 0.0

    def test_matches_matrix(self, balanced_cyclic_net):
        fm = _fm(balanced_cyclic_net)
        _, l, c = pairwise_distances(fm)
        both = np.isfinite(l) & np.isfinite(l.T)
        np.fill_diagonal(both, False)
        i, j = map(int, np.argwhere(both)[0])
        assert symmetric_distance(fm, i, j) == pytest.approx(c[i, j], abs=1e-9)


class TestDistanceCsv:
    def test_source_file_layout(self, tmp_path, chain_net):
        fm = _fm(chain_net)
        path = tmp_path / "l0.csv"
        write_source_distances(path, fm.items, source_distances(fm))
        assert path.read_text() == "item,l_source\nA,1.0\nB,2.0\n"

    def test_nan_written_empty(self, tmp_path):
        path = tmp_path / "l0.csv"
        write_source_distances(path, ("A", "B"), np.array([1.5, np.nan]))
        assert path.read_text() == "item,l_source\nA,1.5\nB,\n"

    def test_pairwise_layout(self, tmp_path, chain_net):
        fm = _fm(chain_net)
        t, l, c = pairwise_distances(fm)
        path = tmp_path / "pairs.csv"
        write_pairwise(path, fm.items, t, l, c)
        lines = path.read_text().splitlines()
        assert lines[0] == "i,j,t,l,c"
        assert len(lines) == 1 + 2  # two ordered pairs for two nodes
        assert lines[1] == "A,B,1.0,1.0,"
        assert lines[2] == "B,A,,,"
