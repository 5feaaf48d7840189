"""Network construction, balancing, certification, and serialization."""
import csv

import numpy as np
import pytest
from hypothesis import given, strategies as st

from attnflow import (
    SINK,
    SOURCE,
    balance,
    build_flow_network,
    certify,
    drop_uncertified,
    validate,
)
from attnflow.errors import (
    AllNodesDropped,
    DroppedNodesWarning,
    InvalidEdge,
    NegativeWeight,
    SelfEdgeOnSourceOrSink,
)
from attnflow.network import read_edges, read_network, write_edges, write_network


def _tally(net):
    """Independent per-node in/out tally straight from the edge triples."""
    inflow, outflow = {}, {}
    for src, dst, w in net.edges():
        outflow[src] = outflow.get(src, 0.0) + w
        inflow[dst] = inflow.get(dst, 0.0) + w
    return inflow, outflow


class TestBuild:
    def test_duplicate_edges_merge(self):
        net = build_flow_network([("A", "B", 1), ("A", "B", 1)])
        assert list(net.edges()) == [("A", "B", 2.0)]

    def test_balanced_flag_true(self):
        net = build_flow_network({(SOURCE, "A"): 2, ("A", SINK): 2})
        assert net.balanced

    def test_balanced_flag_false(self):
        assert not build_flow_network({("A", "B"): 2}).balanced

    def test_negative_weight(self):
        with pytest.raises(NegativeWeight):
            build_flow_network({("A", "B"): -1})

    def test_reserved_self_edges(self):
        with pytest.raises(SelfEdgeOnSourceOrSink):
            build_flow_network({(SOURCE, SOURCE): 1})
        with pytest.raises(SelfEdgeOnSourceOrSink):
            build_flow_network({(SINK, SINK): 1})

    def test_edges_into_source_or_out_of_sink(self):
        with pytest.raises(InvalidEdge):
            build_flow_network({("A", SOURCE): 1})
        with pytest.raises(InvalidEdge):
            build_flow_network({(SINK, "A"): 1})

    def test_empty_rejected(self):
        with pytest.raises(InvalidEdge):
            build_flow_network({})

    def test_insertion_order_indexing(self):
        net = build_flow_network({("B", "A"): 1, ("A", "C"): 1})
        assert net.items == ("B", "A", "C")
        assert net.node_table[SOURCE] == 0
        assert net.node_table["B"] == 1
        assert net.node_table[SINK] == 4


class TestBalance:
    def test_single_edge(self):
        net = balance(build_flow_network({("A", "B"): 2}))
        edges = dict(((s, d), w) for s, d, w in net.edges())
        assert edges[(SOURCE, "A")] == 2.0
        assert edges[("B", SINK)] == 2.0
        assert net.balanced

    def test_partial_cycle(self):
        net = balance(build_flow_network({("A", "B"): 2, ("B", "A"): 1}))
        edges = dict(((s, d), w) for s, d, w in net.edges())
        assert edges[(SOURCE, "A")] == 1.0
        assert edges[("B", SINK)] == 1.0
        inflow, outflow = _tally(net)
        for item in net.items:
            assert inflow[item] == outflow[item]

    def test_already_balanced_unchanged(self, chain_net):
        again = balance(chain_net)
        assert list(again.edges()) == list(chain_net.edges())

    def test_source_outflow_equals_sink_inflow(self):
        net = balance(build_flow_network({("A", "B"): 3, ("B", "C"): 1}))
        inflow, outflow = _tally(net)
        assert outflow[SOURCE] == inflow[SINK]

    @given(
        st.dictionaries(
            st.tuples(
                st.sampled_from("ABCDE"), st.sampled_from("ABCDE")
            ),
            st.integers(min_value=1, max_value=50),
            min_size=1,
        )
    )
    def test_balance_idempotent_bit_exact(self, raw):
        edges = {(a, b): w for (a, b), w in raw.items()}
        once = balance(build_flow_network(edges))
        twice = balance(once)
        assert (once.flow != twice.flow).nnz == 0
        assert once.balanced and twice.balanced
        inflow, outflow = _tally(once)
        for item in once.items:
            assert inflow.get(item, 0) == outflow.get(item, 0)


class TestValidate:
    def test_chain_certified(self, chain_net):
        report = validate(chain_net)
        assert report.certified
        assert report.max_residual <= 1e-9
        assert not report.unreachable_from_source
        assert not report.cannot_reach_sink

    def test_trapped_cycle_flagged(self):
        # the cycle recirculates everything: balance() has nothing to add,
        # but no flow can ever reach the sink from it
        net = build_flow_network(
            {
                (SOURCE, "A"): 1,
                ("A", SINK): 1,
                ("C1", "C2"): 1,
                ("C2", "C1"): 1,
            }
        )
        report = validate(net)
        assert set(report.cannot_reach_sink) == {"C1", "C2"}
        assert set(report.unreachable_from_source) == {"C1", "C2"}
        assert not report.certified

    def test_residuals_reported(self):
        net = build_flow_network({("A", "B"): 2})
        report = validate(net)
        assert report.residuals[net.items.index("A")] == pytest.approx(2.0)
        assert report.residuals[net.items.index("B")] == pytest.approx(-2.0)
        assert report.max_residual == pytest.approx(2.0)


class TestDropUncertified:
    def test_certified_identity(self, chain_net):
        report = validate(chain_net)
        dropped = drop_uncertified(chain_net, report)
        assert list(dropped.edges()) == list(chain_net.edges())
        assert validate(dropped).certified

    def test_isolated_component_removed(self):
        net = build_flow_network(
            {
                (SOURCE, "A"): 1,
                ("A", SINK): 1,
                ("C1", "C2"): 1,
                ("C2", "C1"): 1,
            }
        )
        with pytest.warns(DroppedNodesWarning):
            pruned = drop_uncertified(net, validate(net))
        assert pruned.items == ("A",)
        assert validate(pruned).certified

    def test_all_dropped(self):
        net = build_flow_network({("C1", "C2"): 1, ("C2", "C1"): 1})
        with pytest.raises(AllNodesDropped):
            drop_uncertified(net, validate(net))

    def test_certify_convenience(self, chain_net):
        net, report = certify(chain_net)
        assert report.certified


class TestSerialization:
    def test_edge_roundtrip(self, tmp_path):
        edges = {("A", "B"): 2.5, (SOURCE, "A"): 2.5, ("B", SINK): 2.5}
        path = tmp_path / "edges.csv"
        write_edges(path, edges)
        assert read_edges(path) == edges

    def test_network_roundtrip_preserves_structure(self, tmp_path, balanced_cyclic_net):
        csv_path = tmp_path / "net.csv"
        json_path = tmp_path / "net.json"
        write_network(balanced_cyclic_net, csv_path, json_path, validate(balanced_cyclic_net))
        back = read_network(csv_path)
        assert back.items == balanced_cyclic_net.items
        assert (back.flow != balanced_cyclic_net.flow).nnz == 0

    def test_deterministic_bytes(self, tmp_path, balanced_cyclic_net):
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_network(balanced_cyclic_net, p1)
        write_network(balanced_cyclic_net, p2)
        assert p1.read_bytes() == p2.read_bytes()


def _reference_write_network(net, path):
    """Per-edge writer: one label lookup and one writerow call per edge."""
    coo = net.flow.tocoo()
    order = np.lexsort((coo.col, coo.row))
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["src", "dst", "weight"])
        for k in order:
            writer.writerow(
                [
                    net.label(int(coo.row[k])),
                    net.label(int(coo.col[k])),
                    repr(float(coo.data[k])),
                ]
            )


class TestArrayEdgeWriter:
    """The array-built edge list writes the same bytes as a per-edge writer."""

    def _assert_same_bytes(self, tmp_path, net):
        fast, slow = tmp_path / "fast.csv", tmp_path / "slow.csv"
        write_network(net, fast)
        _reference_write_network(net, slow)
        assert fast.read_bytes() == slow.read_bytes()

    def test_quoted_labels_and_extreme_weights(self, tmp_path):
        net = build_flow_network(
            {
                (SOURCE, "a,b"): 1e-300,
                ("a,b", 'say "hi"'): 0.1 + 0.2,
                ('say "hi"', "café"): 1e300,
                ("café", "東京"): 3.0,
                ("東京", SINK): 7.5,
                ("東京", "a,b"): 2.0,
            }
        )
        self._assert_same_bytes(tmp_path, net)
        text = (tmp_path / "fast.csv").read_text(encoding="utf-8")
        assert '"a,b"' in text and '"say ""hi"""' in text
        assert "1e-300" in text and "1e+300" in text and "0.30000000000000004" in text

    def test_generated_networks(self, tmp_path, random_suite):
        for net in random_suite[:10]:
            self._assert_same_bytes(tmp_path, net)

    def test_edges_are_python_triples(self, chain_net):
        edges = list(chain_net.edges())
        assert edges == [(SOURCE, "A", 2.0), ("A", "B", 2.0), ("B", SINK, 2.0)]
        assert all(type(w) is float for _, _, w in edges)


class TestReadEdgesErrors:
    @pytest.mark.parametrize(
        "row, reason",
        [
            ("A,__sink__,x", "weight 'x' is not a number"),
            ("A,__sink__,nan", "weight 'nan' is not finite"),
            ("A,__sink__,inf", "weight 'inf' is not finite"),
            ("A,__sink__,-inf", "weight '-inf' is not finite"),
            ("A,__sink__", "expected 3 columns, got 2"),
        ],
    )
    def test_bad_row_names_file_and_line(self, tmp_path, row, reason):
        path = tmp_path / "edges.csv"
        path.write_text(f"src,dst,weight\n{SOURCE},A,1\n{row}\n")
        with pytest.raises(InvalidEdge) as exc:
            read_edges(path)
        assert str(exc.value) == f"{path}:3: {reason}"


def test_zero_weight_edges_are_dropped():
    net = build_flow_network({("A", "B"): 1, ("A", "C"): 0})
    assert net.items == ("A", "B")


def test_float_weights_balance_within_tolerance():
    rng = np.random.default_rng(5)
    edges = {
        ("A", "B"): float(rng.uniform(0.1, 2)),
        ("B", "C"): float(rng.uniform(0.1, 2)),
        ("C", "A"): float(rng.uniform(0.1, 2)),
    }
    net = balance(build_flow_network(edges))
    assert validate(net).max_residual <= 1e-9
