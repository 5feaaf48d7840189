"""Synthetic network generators, the Monte Carlo walker simulator, the
exhaustive path enumerator, and the analytic-vs-simulated comparison
harness.
"""
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from attnflow import oracle
from attnflow._linalg import _DENSE_ROUTE_MAX, _HubCore
from attnflow import (
    GeneratorSpec,
    InvalidSpec,
    MismatchedNetworks,
    NotCertified,
    SessionLog,
    StepCapWarning,
    build_flow_network,
    compare,
    enumerate_walks,
    fundamental_matrix,
    generate,
    node_flows,
    simulate_walkers,
    source_distances,
    to_transition_edges,
    transition_matrix,
    validate,
    write_estimates_csv,
)


@pytest.fixture
def balanced_loop_net():
    """One node, 1/3 loop probability: expected visits per walker 1.5."""
    return build_flow_network(
        {("__source__", "X"): 2, ("X", "X"): 1, ("X", "__sink__"): 2}
    )


class TestGeneratorSpec:
    def test_unknown_family(self):
        with pytest.raises(InvalidSpec):
            GeneratorSpec(family="lattice", size=5)

    def test_bad_size(self):
        with pytest.raises(InvalidSpec):
            GeneratorSpec(family="chain", size=0)

    def test_bad_weight_scale(self):
        with pytest.raises(InvalidSpec):
            GeneratorSpec(family="chain", size=3, weight_scale=0.0)

    @pytest.mark.parametrize("field, value", [
        ("weight_scale", float("nan")), ("weight_scale", float("inf")),
        ("avg_degree", -1.0), ("avg_degree", float("nan")), ("exponent", float("nan")),
    ])
    def test_meaningless_numbers(self, field, value):
        # avg_degree -1 reached numpy's "lam < 0" from the generator
        with pytest.raises(InvalidSpec, match=field):
            GeneratorSpec(family="random-cyclic", size=10, **{field: value})

    def test_bad_recirculation(self):
        with pytest.raises(InvalidSpec):
            GeneratorSpec(family="random-cyclic", size=10, recirculation=1.5)

    def test_star_needs_leaves(self):
        with pytest.raises(InvalidSpec):
            generate(GeneratorSpec(family="star", size=1))

    def test_planted_needs_room(self):
        with pytest.raises(InvalidSpec):
            generate(GeneratorSpec(family="planted-dissipation", size=2))

    def test_planted_steep_exponent_breaks_positivity(self):
        with pytest.raises(InvalidSpec, match="positivity"):
            generate(GeneratorSpec(family="planted-dissipation", size=10, exponent=5.0))


class TestGenerate:
    def test_chain_matches_fixture_shape(self):
        net = generate(GeneratorSpec(family="chain", size=2, weight_scale=2.0))
        assert validate(net).certified
        stats = node_flows(net)
        np.testing.assert_allclose(stats.through_flow, [2, 2])
        np.testing.assert_allclose(stats.impact, [4, 2])

    def test_deterministic(self):
        spec = GeneratorSpec(family="random-cyclic", size=40, seed=12, recirculation=0.3)
        a = list(generate(spec).edges())
        b = list(generate(spec).edges())
        assert a == b

    def test_seed_changes_output(self):
        a = generate(GeneratorSpec(family="random-cyclic", size=40, seed=1))
        b = generate(GeneratorSpec(family="random-cyclic", size=40, seed=2))
        assert list(a.edges()) != list(b.edges())

    def test_cyclic_certified_with_positive_terminals(self):
        net = generate(
            GeneratorSpec(family="random-cyclic", size=120, recirculation=0.35, seed=5)
        )
        assert validate(net).certified
        stats = node_flows(net)
        assert np.all(stats.dissipation > 0)
        assert np.all(stats.source_inflow > 0)
        weights = [w for _, _, w in net.edges()]
        assert all(float(w).is_integer() for w in weights)

    def test_tree_is_acyclic_and_certified(self):
        net = generate(GeneratorSpec(family="random-tree", size=30, seed=4))
        assert validate(net).certified
        enumerate_walks(net, max_nodes=30)  # raises if any cycle exists

    def test_planted_exponent_recovered(self):
        from attnflow import fit_power_law

        net = generate(
            GeneratorSpec(family="planted-dissipation", size=200, exponent=0.8)
        )
        assert validate(net).certified
        stats = node_flows(net)
        fit = fit_power_law(stats.through_flow, stats.dissipation)
        assert fit.exponent == pytest.approx(0.8, abs=1e-9)

    def test_session_log_family(self):
        log = generate(GeneratorSpec(family="session-log", size=25, seed=9))
        assert isinstance(log, SessionLog)
        assert len(log.item_registry) == 25
        assert log.n_sessions >= 25  # one singleton per item plus extras

    def test_weight_scale(self):
        net = generate(GeneratorSpec(family="chain", size=3, weight_scale=5.0))
        assert net.total_source_outflow() == pytest.approx(5.0)


def _reference_cyclic_edges(spec):
    """random-cyclic drawn into a dict: each draw merged into its pair's
    entry, then every node's source and sink edge sized from its net
    out-flow, as the generator built it before it handed both rules to
    the network module.
    """
    rng = np.random.default_rng(spec.seed)
    n = spec.size
    names = oracle._names(n)
    degree = spec.avg_degree if spec.avg_degree is not None else min(6.0, max(1.0, n / 4))
    fwd_window = max(1, min(n - 1, 200))
    block = 64
    base = max(1, round(spec.weight_scale))
    interior = {}
    for i in range(n):
        k = rng.poisson(degree)
        for _ in range(k):
            if rng.random() < spec.recirculation:
                lo = (i // block) * block
                j = int(rng.integers(lo, i + 1))
            else:
                hi = min(n - 1, i + fwd_window)
                if i >= hi:
                    continue
                j = int(rng.integers(i + 1, hi + 1))
            w = int(rng.integers(1, 2 * base + 1))
            interior[(i, j)] = interior.get((i, j), 0) + w
    ends = np.array(list(interior), dtype=np.int64).reshape(-1, 2)
    weight = np.fromiter(interior.values(), dtype=np.float64, count=len(interior))
    net_out = np.bincount(ends[:, 0], weight, n) - np.bincount(ends[:, 1], weight, n)
    edges = dict(zip(((names[i], names[j]) for i, j in interior), weight.tolist()))
    source = (base + np.maximum(net_out, 0.0)).tolist()
    sink = (base + np.maximum(-net_out, 0.0)).tolist()
    for name, s, d in zip(names, source, sink):
        edges[("__source__", name)] = s
        edges[(name, "__sink__")] = d
    return edges


def _reference_session_log(spec):
    """session-log drawn with one Generator.choice call per session."""
    rng = np.random.default_rng(spec.seed)
    n = spec.size
    names = oracle._names(n)
    sessions = {f"u{i + 1:05d}": [[name]] for i, name in enumerate(names)}
    popularity = 1.0 / np.arange(1, n + 1) ** 0.8
    popularity /= popularity.sum()
    for k in range(max(1, int(round(3 * n * spec.weight_scale)))):
        length = 1 + int(rng.geometric(0.35))
        picks = rng.choice(n, size=length, p=popularity)
        sessions[f"x{k + 1:06d}"] = [[names[i] for i in picks]]
    return SessionLog.from_sessions(sessions)


class TestGeneratorsMatchReference:
    """The generators build, bit for bit, what the plain references above
    build: any change to how draws are merged, balanced or ordered fails.
    """

    @settings(max_examples=200, deadline=None)
    @example(size=1, recirculation=1.0, avg_degree=None, weight_scale=1.0, seed=0)
    @example(size=400, recirculation=0.0, avg_degree=0.0, weight_scale=1000.0, seed=4)
    @given(
        size=st.integers(1, 400),
        recirculation=st.floats(0.0, 1.0),
        avg_degree=st.none() | st.floats(0.0, 10.0),
        weight_scale=st.sampled_from([0.3, 1.0, 2.6, 1000.0]),
        seed=st.integers(0, 2**64 - 1),
    )
    def test_random_cyclic(self, size, recirculation, avg_degree, weight_scale, seed):
        spec = GeneratorSpec(family="random-cyclic", size=size, recirculation=recirculation,
                             avg_degree=avg_degree, weight_scale=weight_scale, seed=seed)
        net = generate(spec)
        ref = build_flow_network(_reference_cyclic_edges(spec))
        assert net.items == ref.items
        for part in ("indptr", "indices", "data"):
            got, want = getattr(net.flow, part), getattr(ref.flow, part)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), part

    @settings(max_examples=200, deadline=None)
    @given(
        size=st.integers(2, 300),
        weight_scale=st.sampled_from([0.3, 1.0, 2.6]),
        seed=st.integers(0, 2**64 - 1),
    )
    def test_session_log(self, size, weight_scale, seed):
        spec = GeneratorSpec(family="session-log", size=size, weight_scale=weight_scale,
                             seed=seed)
        log, ref = generate(spec), _reference_session_log(spec)
        assert (log.users, log.items, log.n_records) == (ref.users, ref.items, ref.n_records)
        assert log.stamps is None and ref.stamps is None
        for column in ("visits", "starts", "owners"):
            np.testing.assert_array_equal(getattr(log, column), getattr(ref, column))


class TestSimulateWalkers:
    def test_chain_deterministic_tallies(self, chain_net):
        est = simulate_walkers(chain_net, 500, seed=3)
        a_hat, a_se = est.through_flow_estimate()
        np.testing.assert_allclose(a_hat, [2, 2])
        np.testing.assert_allclose(a_se, [0, 0])
        d_hat, d_se = est.dissipation_estimate()
        np.testing.assert_allclose(d_hat, [0, 2])
        np.testing.assert_allclose(d_se, [0, 0])
        l_hat, l_se = est.source_distance_estimate()
        np.testing.assert_allclose(l_hat, [1, 2])
        np.testing.assert_allclose(l_se, [0, 0])

    def test_star_absorption_thirds(self, star_net):
        n = 3000
        est = simulate_walkers(star_net, n, seed=8)
        assert est.absorption.sum() == n
        d_hat, d_se = est.dissipation_estimate()
        for leaf in (1, 2, 3):
            assert abs(d_hat[leaf] - 1.0) <= 3.5 * d_se[leaf]

    def test_loop_mean_visits(self, balanced_loop_net):
        est = simulate_walkers(balanced_loop_net, 40_000, seed=21)
        a_hat, a_se = est.through_flow_estimate()
        assert abs(a_hat[0] - 3.0) <= 3.5 * a_se[0]

    def test_walker_conservation(self, balanced_cyclic_net):
        n = 7_777  # not a multiple of any batch size
        est = simulate_walkers(balanced_cyclic_net, n, seed=2)
        assert est.absorption.sum() + est.cap_exceeded == n
        assert est.first_arrival.sum() == n

    def test_deterministic_given_seed(self, balanced_cyclic_net):
        a = simulate_walkers(balanced_cyclic_net, 5_000, seed=6)
        b = simulate_walkers(balanced_cyclic_net, 5_000, seed=6)
        np.testing.assert_array_equal(a.visit_sum, b.visit_sum)
        np.testing.assert_array_equal(a.fp_sum, b.fp_sum)
        c = simulate_walkers(balanced_cyclic_net, 5_000, seed=7)
        assert not np.array_equal(a.visit_sum, c.visit_sum)

    def test_uncertified_rejected(self, selfloop_net):
        with pytest.raises(NotCertified):
            simulate_walkers(selfloop_net, 10)

    def test_bad_walker_count(self, chain_net):
        with pytest.raises(ValueError):
            simulate_walkers(chain_net, 0)

    @pytest.mark.parametrize("step_cap", [0, -1])
    def test_bad_step_cap(self, chain_net, step_cap):
        # a cap of 0 counted every walker as over it and estimated zeros
        with pytest.raises(ValueError, match=f"step_cap must be >= 1, got {step_cap}"):
            simulate_walkers(chain_net, 10, step_cap=step_cap)

    def test_step_cap_accounting(self, balanced_loop_net):
        heavy = build_flow_network(
            {("__source__", "X"): 2, ("X", "X"): 8, ("X", "__sink__"): 2}
        )
        with pytest.warns(StepCapWarning):
            est = simulate_walkers(heavy, 2_000, seed=1, step_cap=3)
        assert est.cap_exceeded > 0
        assert est.absorption.sum() + est.cap_exceeded == 2_000

    def test_error_shrinks_with_more_walkers(self, balanced_cyclic_net):
        stats = node_flows(balanced_cyclic_net)
        ratios = []
        for s in range(6):
            small = simulate_walkers(balanced_cyclic_net, 5_000, seed=100 + s)
            big = simulate_walkers(balanced_cyclic_net, 80_000, seed=200 + s)
            e_small = np.linalg.norm(
                small.through_flow_estimate()[0] - stats.through_flow
            )
            e_big = np.linalg.norm(big.through_flow_estimate()[0] - stats.through_flow)
            ratios.append(e_small / e_big)
        # 16x walkers should shrink error about 4x; demand at least half that
        assert np.median(ratios) >= 2.0

    def test_subtree_impact_on_dag(self):
        net = generate(GeneratorSpec(family="random-tree", size=10, seed=3))
        stats = node_flows(net)
        est = simulate_walkers(net, 50_000, seed=5)
        c_hat, c_se = est.impact_estimate()
        z = np.abs(c_hat - stats.impact) / np.where(c_se > 0, c_se, 1.0)
        assert np.all(z <= 4.0)
        np.testing.assert_allclose(c_hat, stats.impact, rtol=0.1)


TALLIES = (
    "visit_sum",
    "visit_sumsq",
    "absorption",
    "first_arrival",
    "fp_sum",
    "fp_sumsq",
    "fp_count",
    "subtree_sum",
    "subtree_sumsq",
)


def _dense_reference(net, n_walkers, seed, step_cap=oracle.STEP_CAP):
    """The simulator as it was before its tallies went sparse: two dense
    batch x N int32 matrices per batch, on the same seeded streams.
    Returns every tally over interior nodes plus cap_exceeded.
    """
    M = transition_matrix(net).matrix.tocsr()
    n_total = M.shape[0]
    sink = net.sink_index
    data, indptr, indices = M.data, M.indptr, M.indices
    cum = np.concatenate([[0.0], np.cumsum(data)])
    row_mass = cum[indptr[1:]] - cum[indptr[:-1]]
    out = {name: np.zeros(n_total) for name in TALLIES}
    cap_exceeded = 0
    batch = oracle._batch_size(n_total, n_walkers)
    n_batches = -(-n_walkers // batch)
    done = 0
    for child in np.random.SeedSequence(seed).spawn(n_batches):
        b = min(batch, n_walkers - done)
        done += b
        rng = np.random.default_rng(child)
        pos = np.zeros(b, dtype=np.int64)
        alive = np.arange(b)
        visits = np.zeros((b, n_total), dtype=np.int32)
        first_step = np.zeros((b, n_total), dtype=np.int32)
        length = np.zeros(b, dtype=np.int64)
        step = 0
        while alive.size and step < step_cap:
            step += 1
            p = pos[alive]
            u = rng.random(alive.size)
            start = indptr[p]
            target = cum[start] + u * row_mass[p]
            k = np.searchsorted(cum, target, side="right")
            k = np.minimum(np.maximum(k - 1, start), indptr[p + 1] - 1)
            nxt = indices[k]
            pos[alive] = nxt
            hit_sink = nxt == sink
            if hit_sink.any():
                out["absorption"] += np.bincount(p[hit_sink], minlength=n_total)
                length[alive[hit_sink]] = step - 1
            arrive = alive[~hit_sink]
            tgt = nxt[~hit_sink]
            if arrive.size:
                if step == 1:
                    out["first_arrival"] += np.bincount(tgt, minlength=n_total)
                visits[arrive, tgt] += 1
                new = first_step[arrive, tgt] == 0
                if new.any():
                    nt = tgt[new]
                    out["fp_sum"] += step * np.bincount(nt, minlength=n_total)
                    out["fp_sumsq"] += step * step * np.bincount(nt, minlength=n_total)
                    out["fp_count"] += np.bincount(nt, minlength=n_total)
                    first_step[arrive[new], nt] = step
            alive = alive[~hit_sink]
        if alive.size:
            cap_exceeded += alive.size
            length[alive] = step
        out["visit_sum"] += visits.sum(axis=0, dtype=np.float64)
        out["visit_sumsq"] += (visits.astype(np.float64) ** 2).sum(axis=0)
        onward = (length[:, None] - first_step + 1) * (first_step > 0)
        out["subtree_sum"] += onward.sum(axis=0, dtype=np.float64)
        out["subtree_sumsq"] += (onward.astype(np.float64) ** 2).sum(axis=0)
    interior = slice(1, net.n_interior + 1)
    return {name: tally[interior] for name, tally in out.items()}, cap_exceeded


def _heavy_loop_net():
    """One node that loops back with probability 0.8."""
    return build_flow_network(
        {("__source__", "X"): 2, ("X", "X"): 8, ("X", "__sink__"): 2}
    )


class TestSparseTallies:
    """The per-(walker, node) tallies equal the dense reference bit for bit."""

    def _assert_matches_dense(self, net, n_walkers, seed, step_cap=oracle.STEP_CAP):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", StepCapWarning)
            est = simulate_walkers(net, n_walkers, seed=seed, step_cap=step_cap)
        ref, ref_cap = _dense_reference(net, n_walkers, seed, step_cap)
        for name in TALLIES:
            np.testing.assert_array_equal(getattr(est, name), ref[name], err_msg=name)
        assert est.cap_exceeded == ref_cap
        return est

    def test_balanced_cyclic(self, balanced_cyclic_net):
        self._assert_matches_dense(balanced_cyclic_net, 7_777, seed=2)

    def test_generated_random_cyclic(self):
        net = generate(
            GeneratorSpec(family="random-cyclic", size=300, recirculation=0.4, seed=17)
        )
        # 300 nodes give batches of 8e6 // 302 walkers: three batches here
        self._assert_matches_dense(net, 60_000, seed=9)

    def test_step_cap(self):
        est = self._assert_matches_dense(_heavy_loop_net(), 2_000, seed=1, step_cap=3)
        assert est.cap_exceeded > 0

    def test_folds_within_a_batch(self, monkeypatch, balanced_cyclic_net):
        """A tiny fold threshold merges the queue into the pair table many
        times per batch; the tallies must not move.
        """
        monkeypatch.setattr(oracle, "_ARRIVAL_CHUNK", 7)
        self._assert_matches_dense(balanced_cyclic_net, 3_000, seed=4)
        self._assert_matches_dense(_heavy_loop_net(), 2_000, seed=5, step_cap=40)

    @staticmethod
    def _waves_of(monkeypatch, batches):
        """Batches of 1,024 walkers, the fewest _batch_size gives, stepped
        ``batches`` to a wave; returns every pair table made, in order.
        """
        monkeypatch.setattr(oracle, "_BATCH_ENTRY_BUDGET", 1)
        monkeypatch.setattr(oracle, "_WAVE_WALKERS", batches * 1024)
        tables = []

        class Recording(oracle._PairTally):
            """A pair table that remembers the last step it was given."""

            def __init__(self):
                super().__init__()
                self.last_step = 0
                tables.append(self)

            def add(self, keys, step):
                self.last_step = step
                super().add(keys, step)

        monkeypatch.setattr(oracle, "_PairTally", Recording)
        return tables

    @pytest.mark.parametrize("batches", [2, 3])
    def test_waves_with_a_short_last_batch(self, monkeypatch, balanced_cyclic_net, batches):
        # 7,777 walkers: seven full batches and one of 609, in waves of 2 or 3
        tables = self._waves_of(monkeypatch, batches)
        self._assert_matches_dense(balanced_cyclic_net, 7_777, seed=2)
        assert len(tables) == 8

    def test_batches_of_a_wave_end_at_different_steps(self, monkeypatch):
        tables = self._waves_of(monkeypatch, 3)
        self._assert_matches_dense(_heavy_loop_net(), 9 * 1024, seed=3)
        waves = [tables[i : i + 3] for i in range(0, len(tables), 3)]
        assert len(waves) == 3
        assert all(len({t.last_step for t in wave}) > 1 for wave in waves)

    def test_step_cap_inside_a_wave(self, monkeypatch):
        # one wave of three batches, the last of 952 walkers
        tables = self._waves_of(monkeypatch, 3)
        est = self._assert_matches_dense(_heavy_loop_net(), 3_000, seed=1, step_cap=5)
        assert len(tables) == 3
        assert est.cap_exceeded > 0

    def test_folds_within_a_wave(self, monkeypatch, balanced_cyclic_net):
        tables = self._waves_of(monkeypatch, 3)
        monkeypatch.setattr(oracle, "_ARRIVAL_CHUNK", 7)
        self._assert_matches_dense(balanced_cyclic_net, 3_500, seed=4)
        self._assert_matches_dense(_heavy_loop_net(), 5_000, seed=5, step_cap=40)
        assert len(tables) == 4 + 5

    def test_memory_follows_path_length(self):
        """100k nodes, each leaking half its flow to the sink: walkers take
        about two steps, so the tallies need kilobytes where two dense
        1024 x 100k int32 matrices would need about 800 MB.
        """
        n = 100_000
        names = [f"n{i}" for i in range(n)]
        edges = {("__source__", name): 1.0 for name in names}
        for a, b in zip(names, names[1:]):
            edges[(a, b)] = 1.0
        for name in names[1:-1]:
            edges[(name, "__sink__")] = 1.0
        edges[(names[-1], "__sink__")] = 2.0
        net = build_flow_network(edges)
        tracemalloc.start()
        try:
            est = simulate_walkers(net, 2_000, seed=3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert est.absorption.sum() == 2_000
        assert peak < 50 * 2**20


def _csr_rows(*rows):
    """indptr and data of CSR rows given as weight lists; [] is an empty row."""
    indptr = np.cumsum([0] + [len(r) for r in rows]).astype(np.int32)
    return indptr, np.concatenate([np.asarray(r, dtype=float) for r in rows])


class TestGuideSearch:
    """The guide search finds the entry a binary search over cum finds."""

    @staticmethod
    def _assert_matches_binary(indptr, data, row, target):
        table = oracle._GuideTable(indptr, data)
        pos = np.full(target.size, row)
        k = table.search(pos, target.copy(), table.row_base[pos])
        ref = np.searchsorted(table.cum, target, side="right") - 1
        ref = np.minimum(np.maximum(ref, indptr[pos]), indptr[pos + 1] - 1)
        np.testing.assert_array_equal(k, ref)
        return table

    @staticmethod
    def _row_targets(indptr, data, row, rng, n=5_000):
        """Uniform draws over the row as the simulator makes them, plus
        every entry's start and the row's end and just past it.
        """
        table = oracle._GuideTable(indptr, data)
        base, mass = table.row_base[row], table.row_mass[row]
        end = base + mass
        edges = table.cum[indptr[row] : indptr[row + 1] + 1]
        return np.concatenate([
            rng.random(n) * mass + base,
            edges,
            [np.nextafter(end, np.inf), np.nextafter(end, -np.inf), (1 - 2**-53) * mass + base],
        ])

    @pytest.mark.parametrize("passes", [0, 1, 3])
    def test_one_dominant_weight_and_many_tiny(self, monkeypatch, passes):
        # the tiny weights crowd into the row's last buckets, so a target
        # there takes the binary search, not thousands of steps
        monkeypatch.setattr(oracle, "_GUIDE_PASSES", passes)
        rng = np.random.default_rng(1)
        indptr, data = _csr_rows([0.5, 0.25], [1.0] + [1e-9] * 10_000, [], [3.0])
        target = self._row_targets(indptr, data, 1, rng)
        table = self._assert_matches_binary(indptr, data, 1, target)
        tail = table.row_base[1] + 1.0 + rng.random(2_000) * 1e-5
        self._assert_matches_binary(indptr, data, 1, tail)

    def test_targets_on_entry_starts(self):
        rng = np.random.default_rng(2)
        rows = [rng.integers(1, 5, size=d).astype(float) for d in (1, 2, 7, 40)]
        indptr, data = _csr_rows(*rows)
        table = oracle._GuideTable(indptr, data)
        for row in range(len(rows)):
            starts = table.cum[indptr[row] : indptr[row + 1]]
            self._assert_matches_binary(indptr, data, row, np.repeat(starts, 3))

    def test_targets_rounding_past_the_row_end(self):
        # thirds never sum exactly, and a base far from zero coarsens t
        indptr, data = _csr_rows([1e6] * 3, [1 / 3] * 3, [0.1] * 10)
        table = oracle._GuideTable(indptr, data)
        for row in range(3):
            end = table.row_base[row] + table.row_mass[row]
            past = np.array([end, np.nextafter(end, np.inf), end + 1e-9, end * (1 + 1e-12)])
            self._assert_matches_binary(indptr, data, row, past)

    @pytest.mark.parametrize("seed", [3, 4])
    def test_weights_over_many_decades(self, seed):
        rng = np.random.default_rng(seed)
        rows = [10.0 ** rng.uniform(-15, 15, size=d) for d in (1, 3, 60, 2_000)]
        indptr, data = _csr_rows(*rows)
        for row in range(len(rows)):
            self._assert_matches_binary(indptr, data, row, self._row_targets(indptr, data, row, rng))

    @settings(max_examples=60, deadline=None)
    @example(rows=[[16384.0], [1e-12], [1.0]], u=[0.0])  # a row whose mass rounds to 0
    @given(
        rows=st.lists(
            st.lists(st.floats(1e-12, 1e12), min_size=0, max_size=30), min_size=1, max_size=6
        ).filter(lambda rows: any(rows)),
        u=st.lists(st.floats(0.0, 1.0, exclude_max=True), min_size=1, max_size=30),
    )
    def test_property_matches_binary_search(self, rows, u):
        indptr, data = _csr_rows(*rows)
        table = oracle._GuideTable(indptr, data)
        for row in np.flatnonzero(np.diff(indptr)):
            target = np.asarray(u) * table.row_mass[row] + table.row_base[row]
            target = np.concatenate([target, table.cum[indptr[row] : indptr[row + 1] + 1]])
            self._assert_matches_binary(indptr, data, row, target)


class TestCompare:
    def test_passes_on_matching_network(self, balanced_cyclic_net):
        stats = node_flows(balanced_cyclic_net)
        fm = fundamental_matrix(transition_matrix(balanced_cyclic_net))
        l0 = source_distances(fm)
        est = simulate_walkers(balanced_cyclic_net, 200_000, seed=42)
        report = compare(est, stats, source_distance=l0)
        assert report.passed
        assert set(report.pass_fraction) == {"A", "D", "l", "C"}
        for fraction in report.pass_fraction.values():
            assert fraction >= 0.95

    @pytest.mark.parametrize("seed", [1, 2])
    def test_passes_through_hub_core(self, seed):
        """The walks audit a giant SCC that the hub-core factor solves: a
        400-item session log ties 382 items into one component.
        """
        log = generate(GeneratorSpec(family="session-log", size=400, seed=seed))
        net = build_flow_network(to_transition_edges(log))
        fm = fundamental_matrix(transition_matrix(net))
        (nodes, factor), = fm._factored
        assert nodes.size > _DENSE_ROUTE_MAX and isinstance(factor, _HubCore)
        est = simulate_walkers(net, 200_000, seed=seed)
        report = compare(est, node_flows(net, fm), source_distance=source_distances(fm))
        assert report.passed
        assert report.pass_fraction["C"] >= 0.95

    def test_impossible_multiplier_fails(self, balanced_cyclic_net):
        stats = node_flows(balanced_cyclic_net)
        est = simulate_walkers(balanced_cyclic_net, 20_000, seed=1)
        report = compare(est, stats, multiplier=1e-4)
        assert not report.passed
        assert report.worst  # offenders reported

    @pytest.mark.parametrize("multiplier", [float("inf"), float("nan"), -1.0, 0.0])
    def test_meaningless_multiplier_is_refused(self, chain_net, multiplier):
        # inf passed any tally, even one planted three times too large
        est = simulate_walkers(chain_net, 100, seed=0)
        with pytest.raises(ValueError, match=f"multiplier must be .* got {multiplier!r}"):
            compare(est, node_flows(chain_net), multiplier=multiplier)

    def test_mismatched_networks(self, chain_net, star_net):
        est = simulate_walkers(chain_net, 100, seed=0)
        with pytest.raises(MismatchedNetworks):
            compare(est, node_flows(star_net))

    def test_report_dict_roundtrip(self, chain_net):
        est = simulate_walkers(chain_net, 100, seed=0)
        report = compare(est, node_flows(chain_net))
        d = report.to_dict()
        assert d["passed"] is True
        assert d["n_walkers"] == 100
        assert isinstance(d["worst"], list)


class TestEnumerateWalks:
    def test_chain_exact(self, chain_net):
        res = enumerate_walks(chain_net)
        assert res.n_paths == 1
        np.testing.assert_allclose(res.through_flow(), [2, 2], atol=1e-12)
        np.testing.assert_allclose(res.dissipation(), [0, 2], atol=1e-12)
        np.testing.assert_allclose(res.source_distance(), [1, 2], atol=1e-12)
        np.testing.assert_allclose(res.impact(), [4, 2], atol=1e-12)

    def test_star_exact(self, star_net):
        res = enumerate_walks(star_net)
        assert res.n_paths == 3
        np.testing.assert_allclose(res.impact(), [6, 1, 1, 1], atol=1e-12)
        np.testing.assert_allclose(res.source_distance(), [1, 2, 2, 2], atol=1e-12)

    @pytest.mark.parametrize(
        "spec",
        [
            GeneratorSpec(family="random-tree", size=12, seed=31),
            GeneratorSpec(family="random-cyclic", size=12, recirculation=0.0, seed=32),
        ],
        ids=["tree", "dag"],
    )
    def test_matches_analytic(self, spec):
        net = generate(spec)
        assert validate(net).certified
        res = enumerate_walks(net)
        stats = node_flows(net)
        fm = fundamental_matrix(transition_matrix(net))
        np.testing.assert_allclose(res.through_flow(), stats.through_flow, atol=1e-9)
        np.testing.assert_allclose(res.dissipation(), stats.dissipation, atol=1e-9)
        np.testing.assert_allclose(res.impact(), stats.impact, atol=1e-9)
        l0 = source_distances(fm)
        np.testing.assert_allclose(res.source_distance(), l0, atol=1e-9)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 16).flatmap(lambda n: st.tuples(
        st.just(n),
        st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), st.integers(1, 3)),
                 max_size=2 * n),
    )))
    def test_matches_analytic_on_drawn_dags(self, drawn):
        """On any DAG of at most 16 nodes, whose SCCs are all single nodes,
        the enumeration reproduces A, D, C and l_source to 1e-9 relative.
        Each node closes its budget with a source and a sink edge.
        """
        n, arcs = drawn
        interior = {(f"n{i}", f"n{j}"): w for i, j, w in arcs if i < j}
        out_w = {f"n{i}": 0 for i in range(n)}
        in_w = dict(out_w)
        for (src, dst), w in interior.items():
            out_w[src] += w
            in_w[dst] += w
        edges = dict(interior)
        for node in out_w:
            edges[("__source__", node)] = 1 + max(0, out_w[node] - in_w[node])
            edges[(node, "__sink__")] = 1 + max(0, in_w[node] - out_w[node])
        net = build_flow_network(edges)
        assert validate(net).certified
        res = enumerate_walks(net)
        fm = fundamental_matrix(transition_matrix(net))
        stats = node_flows(net, fm)
        for exact, analytic in (
            (res.through_flow(), stats.through_flow),
            (res.dissipation(), stats.dissipation),
            (res.impact(), stats.impact),
            (res.source_distance(), source_distances(fm)),
        ):
            np.testing.assert_allclose(analytic, exact, rtol=1e-9, atol=0)

    def test_matches_simulator(self):
        net = generate(GeneratorSpec(family="random-tree", size=10, seed=13))
        res = enumerate_walks(net)
        est = simulate_walkers(net, 50_000, seed=2)
        a_hat, a_se = est.through_flow_estimate()
        z = np.abs(a_hat - res.through_flow()) / np.where(a_se > 0, a_se, 1.0)
        assert np.all(z <= 4.0)

    def test_cycle_rejected(self, balanced_cyclic_net):
        with pytest.raises(ValueError, match="cycle"):
            enumerate_walks(balanced_cyclic_net, max_nodes=100)

    def test_selfloop_rejected(self, balanced_loop_net):
        with pytest.raises(ValueError, match="cycle"):
            enumerate_walks(balanced_loop_net)

    def test_size_guard(self):
        net = generate(GeneratorSpec(family="chain", size=20))
        with pytest.raises(ValueError, match="enumeration"):
            enumerate_walks(net, max_nodes=16)


class TestEstimatesCsv:
    def test_layout_and_determinism(self, tmp_path, chain_net):
        est = simulate_walkers(chain_net, 200, seed=4)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_estimates_csv(p1, est)
        write_estimates_csv(p2, simulate_walkers(chain_net, 200, seed=4))
        assert p1.read_bytes() == p2.read_bytes()
        lines = p1.read_text().splitlines()
        assert lines[0] == "item,A_hat,D_hat,S_hat,F_hat,l_hat,C_hat"
        assert len(lines) == 3

    def test_matches_row_by_row(self, tmp_path, star_net):
        """The columns hold each value at repr precision, as a row at a
        time did; a leaf no walker reached has an empty l_hat.
        """
        est = simulate_walkers(star_net, 2, seed=1)
        path = tmp_path / "e.csv"
        write_estimates_csv(path, est)
        a, d, s = (f()[0] for f in (est.through_flow_estimate, est.dissipation_estimate,
                                    est.source_inflow_estimate))
        l_hat, c_hat = est.source_distance_estimate()[0], est.impact_estimate()[0]
        rows = ["item,A_hat,D_hat,S_hat,F_hat,l_hat,C_hat"]
        for i, item in enumerate(est.items):
            cells = [float(a[i]), float(d[i]), float(s[i]), float(a[i] - d[i]), float(l_hat[i])]
            cells = ["" if np.isnan(x) else repr(x) for x in cells] + [repr(float(c_hat[i]))]
            rows.append(",".join([item, *cells]))
        assert np.isnan(l_hat).any()
        assert path.read_text() == "\n".join(rows) + "\n"
