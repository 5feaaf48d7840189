"""Network construction, balancing, certification, and serialization."""
import csv
import io
import json
import math
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

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
    AttnFlowError,
    DroppedNodesWarning,
    InvalidEdge,
    NegativeWeight,
    NotCertified,
    SelfEdgeOnSourceOrSink,
)
from attnflow.ingest import SessionLog, to_transition_edges
from attnflow.network import (
    BALANCE_TOL,
    FlowNetwork,
    _check_edge,
    read_edges,
    read_network,
    write_edges,
    write_json,
    write_network,
)


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

    @pytest.mark.parametrize("weight", [float("nan"), float("inf")])
    def test_non_finite_weight_names_the_edge(self, weight):
        with pytest.raises(InvalidEdge, match=f"edge {SOURCE}->A has non-finite weight {weight}"):
            build_flow_network({(SOURCE, "A"): weight, ("A", SINK): 1.0})

    def test_empty_rejected(self):
        with pytest.raises(InvalidEdge):
            build_flow_network({})

    def test_insertion_order_indexing(self):
        net = build_flow_network({("B", "A"): 1, ("A", "C"): 1})
        assert net.items == ("B", "A", "C")
        assert net.node_table[SOURCE] == 0
        assert net.node_table["B"] == 1
        assert net.node_table[SINK] == 4


def _reference_build(edges) -> FlowNetwork:
    """Per-edge builder: check one edge at a time in input order, sum the
    edges as a dict does, then number and place one non-zero sum at a time.
    """
    if hasattr(edges, "items"):
        triples = [(s, d, float(w)) for (s, d), w in edges.items()]
    else:
        triples = [(s, d, float(w)) for s, d, w in edges]

    index: dict[str, int] = {}
    rows: list[int] = []
    cols: list[int] = []
    data: list[float] = []

    def interior_id(label: str) -> int:
        if label not in index:
            index[label] = len(index)
        return index[label]

    for src, dst, weight in triples:
        _check_edge(src, dst, weight)
    staged: list[tuple[str, str, float]] = []
    for (src, dst), weight in _dict_merged(triples).items():
        _check_edge(src, dst, weight)  # a sum past the largest float
        if weight == 0.0:
            continue
        if src != SOURCE:
            interior_id(src)
        if dst != SINK:
            interior_id(dst)
        staged.append((src, dst, weight))

    if not staged:
        raise InvalidEdge("edge list is empty")

    n = len(index)
    for src, dst, weight in staged:
        rows.append(0 if src == SOURCE else index[src] + 1)
        cols.append(n + 1 if dst == SINK else index[dst] + 1)
        data.append(weight)

    flow = sp.coo_matrix((data, (rows, cols)), shape=(n + 2, n + 2)).tocsr()
    flow.sum_duplicates()
    return FlowNetwork(items=tuple(index), flow=flow)


def _build_outcome(build, edges):
    """Items and the CSR arrays, bit for bit, or the error type and message."""
    try:
        net = build(edges)
    except AttnFlowError as exc:
        return type(exc), str(exc)
    flow = net.flow
    return net.items, flow.shape, *(
        (a.dtype.str, a.tobytes()) for a in (flow.indptr, flow.indices, flow.data)
    )


_BUILD_NODES = [SOURCE, SINK, "a", "b", "c", "d"]
_BUILD_WEIGHTS = [0.0, -0.0, 1.0, 2.5, 3, 1e-300, 1e300, -1.0, float("nan"), float("inf"),
                  float("-inf")]
#: Mostly edges any network may hold, so most lists build; the rest draw
#: zero, reserved, negative and non-finite entries anywhere in the list.
_BUILD_EDGE = st.one_of(
    st.tuples(st.sampled_from(_BUILD_NODES[:1] + _BUILD_NODES[2:]),
              st.sampled_from(_BUILD_NODES[1:]),
              st.sampled_from(_BUILD_WEIGHTS[:7])),
    st.tuples(st.sampled_from(_BUILD_NODES), st.sampled_from(_BUILD_NODES),
              st.sampled_from(_BUILD_WEIGHTS)),
)


class TestArrayBuilder:
    """The array builder matches the per-edge builder on any edge list."""

    @settings(derandomize=True, max_examples=400, deadline=None)
    @given(st.lists(_BUILD_EDGE, max_size=14), st.booleans())
    def test_same_network_or_same_error(self, triples, as_mapping):
        edges = {(s, d): w for s, d, w in triples} if as_mapping else triples
        assert _build_outcome(build_flow_network, edges) == _build_outcome(_reference_build, edges)

    def test_every_edge_error_kept(self):
        cases = [
            ([(SOURCE, "a", 1.0), ("a", "b", float("nan"))], InvalidEdge,
             "edge a->b has non-finite weight nan"),
            ([("a", "b", -2)], NegativeWeight, "edge a->b has weight -2.0"),
            ([(SINK, SINK, 1)], SelfEdgeOnSourceOrSink, f"self-loop on reserved node {SINK}"),
            ([("a", SOURCE, 0)], InvalidEdge, f"edge a->{SOURCE}: no flow may enter {SOURCE}"),
            ([(SINK, "a", 1)], InvalidEdge, f"edge {SINK}->a: no flow may leave {SINK}"),
            ([("a", "b", 0.0)], InvalidEdge, "edge list is empty"),
        ]
        for triples, error, message in cases:
            assert _build_outcome(build_flow_network, triples) == (error, message)
            assert _build_outcome(_reference_build, triples) == (error, message)


    def test_duplicates_summing_past_the_largest_float(self):
        # each triple is finite; the merged a->b edge is not
        triples = [(SOURCE, "a", 1e308), ("a", "b", 1e308), ("a", "b", 1e308), ("b", SINK, 1.0)]
        with pytest.raises(InvalidEdge, match="edge a->b has non-finite weight inf"):
            build_flow_network(triples)


def _dict_merged(triples) -> dict:
    """The triples summed into a dict, one triple at a time."""
    edges: dict = {}
    for src, dst, weight in triples:
        edges[(src, dst)] = edges.get((src, dst), 0.0) + weight
    return edges


#: Positive weights whose sums depend on the order they are added in.
_NON_DYADIC = [0.1, 0.2, 0.3, 0.7, 1 / 3, 2.2, 1e-3]


class TestInputOrderMerge:
    """Duplicate triples are summed in input order, as a dict sums them.

    One row holds 40 or more entries over 31 columns. On rows of 16
    entries and more, sorting a CSR row's entries does not keep their
    input order, so a merge that sorts first adds the duplicates in
    another order and the sums differ in the last bits.
    """

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(
        st.lists(st.tuples(st.integers(0, 30), st.sampled_from(_NON_DYADIC)),
                 min_size=40, max_size=90),
        st.lists(st.tuples(st.sampled_from("abc"), st.integers(0, 30), st.sampled_from(_NON_DYADIC)),
                 max_size=10),
    )
    def test_long_row_sums_like_a_dict(self, hub_row, other_rows):
        triples = [("hub", f"d{k}", w) for k, w in hub_row]
        triples += [(src, f"d{k}", w) for src, k, w in other_rows]
        merged = _dict_merged(triples)
        assert _build_outcome(build_flow_network, triples) == _build_outcome(
            build_flow_network, merged
        )


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

    def test_pruned_network_numbers_nodes_in_edge_order(self):
        # x (no source edge) comes before y in the input; the prune rebuilds
        # from the (row, col)-sorted edges, whose source row comes first
        net = build_flow_network(
            [
                ("x", SINK, 1),
                (SOURCE, "y", 2),
                ("y", "x", 1),
                ("y", SINK, 1),
                ("c1", "c2", 1),
                ("c2", "c1", 1),
            ]
        )
        assert net.items == ("x", "y", "c1", "c2")
        with pytest.warns(DroppedNodesWarning, match="dropped 2 "):
            pruned = drop_uncertified(net, validate(net))
        assert pruned.items == ("y", "x")
        assert list(pruned.edges()) == [
            (SOURCE, "y", 2.0), ("y", "x", 1.0), ("y", SINK, 1.0), ("x", SINK, 1.0)
        ]
        assert validate(pruned).certified

    def test_all_dropped(self):
        net = build_flow_network({("C1", "C2"): 1, ("C2", "C1"): 1})
        with pytest.raises(AllNodesDropped):
            drop_uncertified(net, validate(net))

    def test_certify_convenience(self, chain_net):
        net, report = certify(chain_net)
        assert report.certified


def _prune_until_stable(net):
    """The prune as a loop, for reference: drop every node validate() names,
    rebuild through label triples and re-balance, and repeat until
    validate() names none. Returns the network and the rounds taken, and
    warns with the number of nodes dropped, as drop_uncertified does.
    """
    rounds = dropped = 0
    report = validate(net)
    while report.unreachable_from_source or report.cannot_reach_sink:
        bad = set(report.unreachable_from_source) | set(report.cannot_reach_sink)
        rounds += 1
        dropped += len(bad)
        kept = [(s, d, w) for s, d, w in net.edges() if s not in bad and d not in bad]
        if not kept:
            raise AllNodesDropped(f"all {dropped} node(s) were uncertified")
        net = balance(build_flow_network(kept))
        report = validate(net)
    if dropped:
        warnings.warn(f"dropped {dropped} uncertified node(s)", DroppedNodesWarning)
    return net, rounds


_PRUNE_NODES = ["a", "b", "c", "d", "e"]
_PRUNE_WEIGHTS = st.sampled_from([0.0, 1.0, 2.0, 0.5, 3.0])


@st.composite
def _prunable_networks(draw) -> list:
    """Edge triples over up to nine nodes: edges among a..e that may leave
    a node without a source edge or end in a dead end, up to two cycles
    over c1..c4 that may touch them, and zero weights anywhere.
    """
    triples = draw(st.lists(
        st.tuples(st.sampled_from([SOURCE, *_PRUNE_NODES]),
                  st.sampled_from([SINK, *_PRUNE_NODES]), _PRUNE_WEIGHTS),
        max_size=10,
    ))
    for _ in range(draw(st.integers(0, 2))):
        cycle = draw(st.lists(st.sampled_from(["c1", "c2", "c3", "c4", *_PRUNE_NODES]),
                              min_size=1, max_size=4, unique=True))
        weight = draw(_PRUNE_WEIGHTS)
        triples += [(a, b, weight) for a, b in zip(cycle, cycle[1:] + cycle[:1])]
    return triples


def _outcome(prune, net):
    """The pruned network's items, CSR bytes and report, and the warnings
    raised; or the error's type and message.
    """
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            pruned = prune(net)
        except AttnFlowError as exc:
            return type(exc), str(exc)
    flow = pruned.flow
    report = validate(pruned)
    return (
        pruned.items, flow.shape, flow.indptr.tobytes(), flow.indices.tobytes(),
        flow.data.tobytes(), report.to_dict(), report.residuals.tobytes(),
        [(w.category, str(w.message)) for w in caught],
    )


class TestSinglePrune:
    """One prune leaves what pruning until nothing more is named leaves."""

    @settings(derandomize=True, max_examples=400, deadline=None)
    @given(_prunable_networks())
    def test_matches_the_prune_until_stable_loop(self, triples):
        """On the network as drawn, whose dead ends and nodes without a
        source edge the prune removes, and on it balanced, as certify
        prunes it.
        """
        try:
            built = build_flow_network(triples)
        except InvalidEdge:  # every weight zero
            return
        rounds = []

        def reference(net):
            pruned, taken = _prune_until_stable(net)
            rounds.append(taken)
            return pruned

        for net in (built, balance(built)):
            assert _outcome(lambda net: drop_uncertified(net, validate(net)), net) == _outcome(
                reference, net
            )
        assert set(rounds) <= {0, 1}


class TestBalanceMeetsValidate:
    """balance() closes every residual that validate() would reject."""

    def test_large_flow_small_relative_imbalance(self):
        # 5e-7 is below 1e-12 of the node's flow but above BALANCE_TOL
        net = build_flow_network({(SOURCE, "a"): 1_000_000, ("a", SINK): 1_000_000.0000005})
        assert not validate(net).certified
        certified, report = certify(net)
        assert report.certified
        assert report.max_residual <= BALANCE_TOL
        assert certified.items == ("a",)

    def test_certifying_input_keeps_its_flow(self):
        # one ulp at flow 1e6 (1.2e-10) passes validate and is left alone
        net = build_flow_network({(SOURCE, "a"): 1_000_000, ("a", SINK): 1_000_000 + 2.0**-33})
        assert validate(net).certified
        assert (balance(net).flow != net.flow).nnz == 0

    def test_rounding_that_cannot_close_raises(self):
        # a's in-flow 2**53 + 1 rounds to an even float on every
        # compensation, so its residual stays at 2
        net = build_flow_network(
            {
                (SOURCE, "a"): 2.0**53,
                (SOURCE, "b"): 1.0,
                ("b", "a"): 1.0,
                ("a", SINK): 2.0**53 + 2,
            }
        )
        with pytest.raises(NotCertified, match="max residual 2 "):
            certify(net)


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


_JSON_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.sampled_from([-0.0, 0.0, math.nan, math.inf, -math.inf])
    | st.text(max_size=6)
)

#: Nested dicts, lists and tuples, non-ASCII keys and empty containers.
_JSON_VALUES = st.recursive(
    _JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=5)
    | st.lists(inner, max_size=5).map(tuple)
    | st.dictionaries(st.text(max_size=4), inner, max_size=5),
    max_leaves=30,
)


class TestWriteJson:
    """write_json writes json.dumps(obj, indent=2, sort_keys=True)'s bytes."""

    @settings(max_examples=300, deadline=None)
    @given(obj=_JSON_VALUES)
    def test_matches_indented_dumps(self, obj):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "a.json"
            write_json(path, obj)
            assert path.read_bytes() == (json.dumps(obj, indent=2, sort_keys=True) + "\n").encode()

    @pytest.mark.parametrize(
        "obj", [{1.5: [1], 2: {}}, {True: [2], False: {"é": ()}}, {None: [[]]}]
    )
    def test_non_string_keys_beside_containers(self, tmp_path, obj):
        path = tmp_path / "a.json"
        write_json(path, obj)
        assert path.read_text() == json.dumps(obj, indent=2, sort_keys=True) + "\n"

    @pytest.mark.parametrize("obj", [{(1, 2): [1]}, {"a": 1, 2: [3]}, {"a": [{1, 2}]}])
    def test_what_json_refuses_is_refused(self, tmp_path, obj):
        with pytest.raises(TypeError):
            json.dumps(obj, indent=2, sort_keys=True)
        with pytest.raises(TypeError):
            write_json(tmp_path / "a.json", obj)


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


    @pytest.mark.parametrize(
        "row, error, reason",
        [
            ("A,B,-1", NegativeWeight, "edge A->B has weight -1.0"),
            (f"{SINK},A,1", InvalidEdge, f"edge {SINK}->A: no flow may leave {SINK}"),
            (f"A,{SOURCE},1", InvalidEdge, f"edge A->{SOURCE}: no flow may enter {SOURCE}"),
            (f"{SOURCE},{SOURCE},1", SelfEdgeOnSourceOrSink,
             f"self-loop on reserved node {SOURCE}"),
        ],
    )
    def test_invalid_edge_names_file_and_line(self, tmp_path, row, error, reason):
        path = tmp_path / "edges.csv"
        path.write_text(f"src,dst,weight\n{SOURCE},A,1\n{row}\n")
        with pytest.raises(error) as exc:
            read_edges(path)
        assert str(exc.value) == f"{path}:3: {reason}"


_NODES = [SOURCE, SINK, "a", "b", "c"]
_WEIGHTS = [0.0, 1e-300, 1.0, 1e300, float("nan"), float("inf"), -1.0]

#: Duplicates, self-loops, zero and extreme weights on edges any network
#: may hold, plus at most one edge drawn from every node and weight, so
#: that about half the lists are free of an edge no network may hold.
_EDGE_LISTS = st.tuples(
    st.lists(
        st.tuples(
            st.sampled_from(_NODES[:1] + _NODES[2:]),
            st.sampled_from(_NODES[1:]),
            st.sampled_from(_WEIGHTS[:4]),
        ),
        max_size=12,
    ),
    st.lists(
        st.tuples(st.sampled_from(_NODES), st.sampled_from(_NODES), st.sampled_from(_WEIGHTS)),
        max_size=1,
    ),
).map(lambda lists: lists[0] + lists[1])


class TestAdversarialEdges:
    """Any edge list either certifies or fails with a typed error."""

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(_EDGE_LISTS)
    def test_certified_or_typed_error(self, triples):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DroppedNodesWarning)
            try:
                net, report = certify(build_flow_network(triples))
            except AttnFlowError:
                return
        assert report.certified
        assert validate(net).certified


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


def _reference_read_edges(path) -> dict:
    """Per-row reader: csv, float, _check_edge and a dict accumulate per row."""
    edges: dict[tuple[str, str], float] = {}
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise InvalidEdge(f"{path}: empty edge file")
        try:
            for row in reader:
                if len(row) != 3:
                    raise InvalidEdge(
                        f"{path}:{reader.line_num}: expected 3 columns, got {len(row)}"
                    )
                try:
                    weight = float(row[2])
                except ValueError:
                    raise InvalidEdge(
                        f"{path}:{reader.line_num}: weight {row[2]!r} is not a number"
                    ) from None
                if not math.isfinite(weight):
                    raise InvalidEdge(
                        f"{path}:{reader.line_num}: weight {row[2]!r} is not finite"
                    )
                try:
                    _check_edge(row[0], row[1], weight)
                except AttnFlowError as exc:
                    raise type(exc)(f"{path}:{reader.line_num}: {exc}") from None
                key = (row[0], row[1])
                edges[key] = edges.get(key, 0.0) + weight
        except csv.Error as exc:
            raise InvalidEdge(f"{path}:{reader.line_num}: {exc}") from None
    return edges


def _read_outcome(read, path):
    """The edges in order with their weights' bits, or the error type and message."""
    try:
        edges = read(path)
    except Exception as exc:
        return type(exc), str(exc)
    return [(key, weight.hex()) for key, weight in edges.items()]


#: Labels the csv module must quote, or that only survive if it does not
#: strip them, drawn small so that edges repeat.
_HOSTILE = st.one_of(
    st.text(alphabet=[",", '"', "\r", "\n", " ", "a", "é", "東"], max_size=3),
    st.sampled_from(["café", "東京", " a", "a ", "a,b", 'say "hi"', "two\nlines"]),
)
_SRC = st.one_of(_HOSTILE, st.just(SOURCE))
_DST = st.one_of(_HOSTILE, st.just(SINK))
_GOOD_WEIGHT = st.sampled_from(
    ["1", "2.5", "0.1", "0.2", "1e-300", "1e300", " 3 ", "-0.0", "0", "1_0", "0.30000000000000004"]
)
#: A row the reader rejects: a wrong width (a blank line is no cell), a
#: weight that is not a finite number or is negative, a reserved-node edge.
_BAD_ROW = st.one_of(
    st.just([]),
    st.lists(_HOSTILE, min_size=1, max_size=2),
    st.lists(_HOSTILE, min_size=4, max_size=5),
    st.tuples(_SRC, _DST, st.sampled_from(["x", "", "nan", "inf", "-inf", "-1", "1e999"])),
    st.tuples(st.sampled_from([SOURCE, SINK, "a"]), st.sampled_from([SOURCE, SINK, "a"]), _GOOD_WEIGHT),
)


@st.composite
def _edge_files(draw) -> str:
    """Edge-file text: quoted fields that span lines, blank lines as bad
    rows, CRLF or LF rows, with or without a final line end, and up to two
    bad rows, each at any position.
    """
    rows = draw(st.lists(st.tuples(_SRC, _DST, _GOOD_WEIGHT), max_size=25))
    for bad in draw(st.lists(_BAD_ROW, max_size=2)):
        rows.insert(draw(st.integers(0, len(rows))), bad)
    end = draw(st.sampled_from(["\r\n", "\n"]))
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator=end)
    writer.writerow(["src", "dst", "weight"])
    for row in rows:
        if row:
            writer.writerow(row)
        else:
            buf.write(end)
    text = buf.getvalue()
    return text[: -len(end)] if draw(st.booleans()) else text


class TestReaderMatchesRowReader:
    """read_edges returns the per-row reader's dict, or raises its error."""

    @settings(derandomize=True, max_examples=400, deadline=None)
    @given(_edge_files())
    def test_same_edges_or_same_error(self, text):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "edges.csv"
            path.write_bytes(text.encode("utf-8"))
            assert _read_outcome(read_edges, path) == _read_outcome(_reference_read_edges, path)

    @pytest.mark.parametrize("rows", [["1,2", "3,4,5,6"], ["", "1,2,3,4,5,6"], ["1,2,3,4", "5,6"]])
    def test_widths_that_add_up_to_three_per_row(self, tmp_path, rows):
        path = tmp_path / "edges.csv"
        path.write_text("src,dst,weight\n" + "\n".join(rows) + "\n", encoding="utf-8")
        width = len(rows[0].split(",")) if rows[0] else 0
        expected = (InvalidEdge, f"{path}:2: expected 3 columns, got {width}")
        assert _read_outcome(read_edges, path) == expected
        assert _read_outcome(_reference_read_edges, path) == expected

    def test_bad_last_row_of_a_large_file(self, tmp_path):
        path = tmp_path / "edges.csv"
        rows = "".join(f"n{i % 5000},n{(7 * i + 1) % 5000},1.5\n" for i in range(119_999))
        path.write_text("src,dst,weight\n" + rows + "n1,n2,x\n", encoding="utf-8")
        expected = (InvalidEdge, f"{path}:120001: weight 'x' is not a number")
        assert _read_outcome(read_edges, path) == expected
        assert _read_outcome(_reference_read_edges, path) == expected

    @pytest.mark.parametrize("rows, line, reason", [
        (["a,b,1", "c,LONG_LABEL,1"], 3, "field larger than field limit (8)"),
        (["a,b,x", "c,LONG_LABEL,1"], 2, "weight 'x' is not a number"),
        (['a,"b\nb",1', "c,b,1\rLONG_LABEL,d,1"], 5, "field larger than field limit (8)"),
    ])
    def test_row_csv_reader_refuses(self, tmp_path, rows, line, reason):
        """A row csv.reader refuses raises InvalidEdge naming its line,
        unless an earlier row is bad.
        """
        path = tmp_path / "edges.csv"
        path.write_text("src,dst,weight\n" + "\n".join(rows) + "\n", encoding="utf-8")
        default = csv.field_size_limit(8)
        try:
            outcome = _read_outcome(read_edges, path)
            assert outcome == _read_outcome(_reference_read_edges, path)
        finally:
            csv.field_size_limit(default)
        assert outcome[0] is InvalidEdge
        assert outcome[1].startswith(f"{path}:{line}: {reason}")

    @pytest.mark.parametrize("end", ["\r", "\r\n", "\n"])
    def test_rows_end_at_any_line_end(self, tmp_path, end):
        """An edge file is read in newline="" mode, where a lone CR, as a
        quoted label holds, also ends a row.
        """
        path = tmp_path / "edges.csv"
        rows = ["src,dst,weight", "__source__,a,1", 'a,"b\rc",2.5', "a,__sink__,1"]
        path.write_bytes((end.join(rows) + end).encode("utf-8"))
        assert _read_outcome(read_edges, path) == _read_outcome(_reference_read_edges, path)
        assert dict(read_edges(path)) == {
            (SOURCE, "a"): 1.0, ("a", "b\rc"): 2.5, ("a", SINK): 1.0
        }

    def test_read_edges_is_read_only(self, tmp_path):
        path = tmp_path / "edges.csv"
        path.write_text("src,dst,weight\na,b,1\na,b,2\n", encoding="utf-8")
        edges = read_edges(path)
        assert dict(edges) == {("a", "b"): 3.0} and len(edges) == 1
        with pytest.raises(TypeError):
            edges[("a", "b")] = 1.0


def _write_triples(path, triples) -> None:
    """The triples as an edge file, each weight at ``repr`` precision."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["src", "dst", "weight"])
        writer.writerows((src, dst, repr(float(weight))) for src, dst, weight in triples)


def _file_outcomes(path) -> tuple:
    """read_network's outcome for an edge file, and the per-edge builder's
    on the per-row reader's dict of it.
    """
    return (_build_outcome(read_network, path),
            _build_outcome(lambda p: _reference_build(_reference_read_edges(p)), path))


_SESSION_ITEM = st.sampled_from("abcdef")
#: several sessions per user, one-visit ones among them, so residual edges
#: meet items later than their first visit
_SESSION_LOGS = st.dictionaries(
    st.sampled_from(["u", "v", "w"]),
    st.lists(st.lists(_SESSION_ITEM, min_size=1, max_size=4), min_size=1, max_size=4),
    min_size=1,
)


class TestBuildFromEdgeRows:
    """Built from the coded rows of read_edges or to_transition_edges, a
    network numbers its nodes as the per-edge builder does, also where a
    dropped zero-weight row held a label's first appearance.
    """

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(st.lists(_BUILD_EDGE, max_size=14))
    def test_read_network_matches_the_per_row_path(self, triples):
        """Drawn rows repeat edges and put zero weights anywhere, also
        before a label's first non-zero row.
        """
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "edges.csv"
            _write_triples(path, triples)
            fast, slow = _file_outcomes(path)
        assert fast == slow

    @pytest.mark.parametrize("triples, items", [
        ([("a", "b", 0.0), ("c", "a", 1.0), ("b", "c", 2.0)], ("c", "a", "b")),
        ([("a", "b", 1.0), ("c", "d", 0.0), ("d", "c", 1.0), ("a", "b", 1.0)], ("a", "b", "d", "c")),
        ([(SOURCE, "a", 1.0), ("a", SINK, 1.0), ("a", "a", 2.5)], ("a",)),
    ])
    def test_first_appearance_after_dropped_rows(self, tmp_path, triples, items):
        path = tmp_path / "edges.csv"
        _write_triples(path, triples)
        fast, slow = _file_outcomes(path)
        assert fast == slow and fast[0] == items

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(_SESSION_LOGS, st.sampled_from(["session-closed", "residual"]))
    def test_transition_edges(self, sessions, mode):
        rows = to_transition_edges(SessionLog.from_sessions(sessions), mode)
        assert _build_outcome(build_flow_network, rows) == _build_outcome(
            _reference_build, dict(rows))
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "edges.csv"
            write_edges(path, rows)
            fast, slow = _file_outcomes(path)
        assert fast == slow

    def test_transition_labels_out_of_first_appearance_order(self):
        log = SessionLog.from_sessions({"u": [["a"], ["b", "c"], ["c", "a"]]})
        rows = to_transition_edges(log, "residual")
        assert rows.labels == [SOURCE, SINK, "a", "b", "c"]
        assert build_flow_network(rows).items == ("b", "c", "a")
        assert _build_outcome(build_flow_network, rows) == _build_outcome(
            _reference_build, dict(rows))


def _entry_outcomes(triples) -> tuple:
    """build_flow_network's outcome on the triples, and read_network's on
    the same rows as an edge file; an error as its type alone, since the
    reader's message also names the file and line.
    """
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "edges.csv"
        _write_triples(path, triples)
        outcomes = _build_outcome(build_flow_network, triples), _build_outcome(read_network, path)
    return tuple(outcome[0] if isinstance(outcome[0], type) else outcome
                 for outcome in outcomes)


class TestEntryPointsAgree:
    """build_flow_network on triples and read_network on the same rows
    merge each pair at its first row and number the nodes alike.
    """

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(st.lists(_BUILD_EDGE, max_size=14))
    def test_same_network_or_same_error_type(self, triples):
        built, read = _entry_outcomes(triples)
        assert built == read

    def test_zero_row_first_in_a_duplicated_pair(self):
        # x->y's first row weighs 0, so its pair sits before S->y's row
        triples = [(SOURCE, "a", 1), ("x", "y", 0), (SOURCE, "y", 1), ("x", "y", 2),
                   ("a", SINK, 1), ("y", SINK, 3), (SOURCE, "x", 2)]
        built, read = _entry_outcomes(triples)
        assert built == read
        assert built[0] == ("a", "x", "y")


_POSITIVE_WEIGHT = st.sampled_from([0.1, 1 / 3, 2.5, 7.0, 1e-300, 1e300, 5e-324])


@st.composite
def _fed_networks(draw) -> FlowNetwork:
    """Networks whose every node gets source flow, on hostile labels.

    The source row comes first in the file and names every node in the
    network's own order, so a read numbers the nodes as the network does.
    """
    labels = draw(st.lists(_HOSTILE, min_size=1, max_size=8, unique=True))
    triples = [(SOURCE, label, draw(_POSITIVE_WEIGHT)) for label in labels]
    triples += draw(st.lists(
        st.tuples(st.sampled_from(labels), st.sampled_from([*labels, SINK]), _POSITIVE_WEIGHT),
        max_size=20,
    ))
    return build_flow_network(triples)


def _labelled_edges(net) -> list:
    return sorted((src, dst, weight.hex()) for src, dst, weight in net.edges())


class TestRoundTrip:
    """network.csv read back gives the network it was written from."""

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(_fed_networks())
    def test_write_read_write_same_bytes(self, net):
        with tempfile.TemporaryDirectory() as tmp:
            first, second = Path(tmp) / "first.csv", Path(tmp) / "second.csv"
            write_network(net, first)
            back = read_network(first)
            write_network(back, second)
            assert second.read_bytes() == first.read_bytes()
        assert back.items == net.items
        assert _labelled_edges(back) == _labelled_edges(net)

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(st.lists(st.tuples(_SRC, _DST, _POSITIVE_WEIGHT), min_size=1, max_size=20))
    def test_read_keeps_every_labelled_edge(self, triples):
        net = build_flow_network(triples)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "net.csv"
            write_network(net, path)
            back = read_network(path)
        assert set(back.items) == set(net.items)
        assert _labelled_edges(back) == _labelled_edges(net)
