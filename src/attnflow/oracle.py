"""Independent verification engines: synthetic network generators, a
Monte Carlo random-walk simulator, and exact path enumeration for DAGs.

The simulator shares no code with the matrix calculus: walkers step
through the row-normalized weights with a seeded portable generator
(numpy PCG64), so its estimates are an independent check on every
analytic quantity. Enumeration is a second, noise-free oracle for small
acyclic networks.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.sparse.csgraph as csgraph

from .errors import InvalidSpec, MismatchedNetworks, StepCapWarning
from .flowcalc import NodeFlowStats, transition_matrix
from .ingest import SessionLog
from .network import (FlowNetwork, _require_certified, build_flow_network, cells, reprs,
                      validate, write_csv)

STEP_CAP = 1_000_000

# compare() passes when every quantity's share of passing nodes reaches this.
MIN_PASS_FRACTION = 0.95

# Fixes the batch size, and with it how walkers are split over the
# SeedSequence child streams. Changing the value changes every simulated
# tally for a given seed, so it must stay as it is.
_BATCH_ENTRY_BUDGET = 8_000_000

# Consecutive batches step together in waves of as many whole batches as
# fit in this many walkers (at least one), so each numpy call covers more
# walkers. Every batch still draws from its own child stream, for its own
# walkers in walker order, so the value changes no tally: it only sets how
# large each step's arrays are.
_WAVE_WALKERS = 8_192

# The guide search steps at most this many entries forward before the
# targets still short of their entry take a binary search.
_GUIDE_PASSES = 3

# Queued arrivals are folded into a batch's per-(walker, node) table once
# they reach this count or the table's size, whichever is larger.
_ARRIVAL_CHUNK = 1 << 20

# Per-node sums every simulation keeps, the arrays of tallies.json;
# subtree_sum is added on request.
_SUMS = (
    "visit_sum",
    "visit_sumsq",
    "absorption",
    "first_arrival",
    "fp_sum",
    "fp_sumsq",
    "fp_count",
)


@dataclass(frozen=True)
class GeneratorSpec:
    """Recipe for a deterministic synthetic network or session log.

    weight_scale multiplies all base weights; recirculation sets the
    fraction of backward (cycle-forming) interior edges for the cyclic
    family; exponent plants a dissipation-vs-throughflow power law for
    the planted-dissipation family; avg_degree tunes interior density.
    """

    family: str
    size: int
    weight_scale: float = 1.0
    recirculation: float = 0.2
    seed: int = 0
    exponent: float | None = None
    avg_degree: float | None = None

    def __post_init__(self):
        if self.family not in _FAMILIES:
            raise InvalidSpec(f"unknown family {self.family!r}; choose from {_FAMILIES}")
        if self.size < 1:
            raise InvalidSpec(f"size must be >= 1, got {self.size}")
        if not 0 < self.weight_scale < math.inf:
            raise InvalidSpec("weight_scale must be positive and finite")
        if not 0.0 <= self.recirculation <= 1.0:
            raise InvalidSpec("recirculation must be in [0, 1]")
        if self.avg_degree is not None and not 0 <= self.avg_degree < math.inf:
            raise InvalidSpec(f"avg_degree must be finite and >= 0, got {self.avg_degree}")
        if self.exponent is not None and not math.isfinite(self.exponent):
            raise InvalidSpec(f"exponent must be finite, got {self.exponent}")


def _names(n: int) -> list[str]:
    width = len(str(n))
    return [f"n{i:0{width}d}" for i in range(1, n + 1)]


def _gen_chain(spec: GeneratorSpec) -> dict[tuple[str, str], float]:
    names = _names(spec.size)
    w = spec.weight_scale
    edges = {("__source__", names[0]): w}
    for a, b in zip(names, names[1:]):
        edges[(a, b)] = w
    edges[(names[-1], "__sink__")] = w
    return edges


def _gen_star(spec: GeneratorSpec) -> dict[tuple[str, str], float]:
    if spec.size < 2:
        raise InvalidSpec("star needs size >= 2 (hub plus leaves)")
    names = _names(spec.size)
    hub, leaves = names[0], names[1:]
    w = spec.weight_scale
    edges = {("__source__", hub): w * len(leaves)}
    for leaf in leaves:
        edges[(hub, leaf)] = w
        edges[(leaf, "__sink__")] = w
    return edges


def _gen_tree(spec: GeneratorSpec) -> dict[tuple[str, str], float]:
    rng = np.random.default_rng(spec.seed)
    n = spec.size
    names = _names(n)
    parent = [0] * n
    for i in range(1, n):
        parent[i] = int(rng.integers(0, i))
    subtree = np.ones(n, dtype=np.int64)
    for i in range(n - 1, 0, -1):
        subtree[parent[i]] += subtree[i]
    w = spec.weight_scale
    edges = {("__source__", names[0]): float(subtree[0]) * w}
    for i in range(1, n):
        edges[(names[parent[i]], names[i])] = float(subtree[i]) * w
    for i in range(n):
        edges[(names[i], "__sink__")] = w
    return edges


def _gen_cyclic(spec: GeneratorSpec) -> dict[tuple[str, str], float]:
    """Random interior digraph with guaranteed source and sink edges at
    every node, so the result is certified and all D, S are positive.

    Forward edges are windowed to keep the matrix banded; backward
    (cycle-forming) edges stay within disjoint 64-node blocks so
    recurrent components remain small enough for exact per-component
    diagonal computations at any overall size.
    """
    rng = np.random.default_rng(spec.seed)
    n = spec.size
    names = _names(n)
    degree = spec.avg_degree if spec.avg_degree is not None else min(6.0, max(1.0, n / 4))
    fwd_window = max(1, min(n - 1, 200))
    block = 64
    base = max(1, round(spec.weight_scale))
    interior: dict[tuple[int, int], int] = {}
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
    # integer sums far below 2**53, so exact in float64; the 0.0 keeps them
    # floats where an empty interior makes bincount return integers
    net_out = np.bincount(ends[:, 0], weight, n) - np.bincount(ends[:, 1], weight, n)
    edges = dict(zip(((names[i], names[j]) for i, j in interior), weight.tolist()))
    source = (base + np.maximum(net_out, 0.0)).tolist()
    sink = (base + np.maximum(-net_out, 0.0)).tolist()
    for name, s, d in zip(names, source, sink):
        edges[("__source__", name)] = s
        edges[(name, "__sink__")] = d
    return edges


def _gen_planted(spec: GeneratorSpec) -> dict[tuple[str, str], float]:
    """Descending chain whose dissipation follows D = c * A**exponent
    exactly, noise free, while staying balanced and certified.
    """
    alpha = spec.exponent if spec.exponent is not None else 0.8
    n = spec.size
    if n < 3:
        raise InvalidSpec("planted-dissipation needs size >= 3")
    names = _names(n)
    a_max = 1000.0 * spec.weight_scale
    a_min = a_max / 100.0
    A = a_max * (a_min / a_max) ** (np.arange(n) / (n - 1))
    c = a_min ** (1.0 - alpha) if alpha <= 1.0 else a_max ** (1.0 - alpha)
    D = c * A**alpha
    F = A - D
    edges: dict[tuple[str, str], float] = {}
    S_prev_pass = 0.0
    for i, name in enumerate(names):
        s = A[i] - S_prev_pass
        if s <= 0:
            raise InvalidSpec(f"exponent {alpha} breaks positivity at node {i + 1}")
        edges[("__source__", name)] = float(s)
        edges[(name, "__sink__")] = float(D[i])
        if i + 1 < n:
            edges[(name, names[i + 1])] = float(F[i])
        S_prev_pass = F[i]
    return edges


def _gen_session_log(spec: GeneratorSpec) -> SessionLog:
    """Log whose session-closed network has exactly ``size`` items, each
    with positive direct source flow and dissipation.

    One singleton session per item pins D and S above zero; additional
    multi-item sessions with a heavy-tailed item popularity create the
    interior transitions and audience overlap.
    """
    rng = np.random.default_rng(spec.seed)
    n = spec.size
    names = _names(n)
    sessions: dict[str, list[list[str]]] = {}
    for i, name in enumerate(names):
        sessions[f"u{i + 1:05d}"] = [[name]]
    popularity = 1.0 / np.arange(1, n + 1) ** 0.8
    popularity /= popularity.sum()
    n_extra = max(1, int(round(3 * n * spec.weight_scale)))
    for k in range(n_extra):
        length = 1 + int(rng.geometric(0.35))
        picks = rng.choice(n, size=length, p=popularity)
        sessions[f"x{k + 1:06d}"] = [[names[i] for i in picks]]
    return SessionLog.from_sessions(sessions)


#: Every generator family, in the order the CLI lists them. A network
#: family returns an edge mapping; ``session-log`` returns a SessionLog.
_GENERATORS = {
    "chain": _gen_chain,
    "star": _gen_star,
    "random-tree": _gen_tree,
    "random-cyclic": _gen_cyclic,
    "session-log": _gen_session_log,
    "planted-dissipation": _gen_planted,
}
_FAMILIES = tuple(_GENERATORS)


def generate(spec: GeneratorSpec):
    """Deterministic network (or session log) from a GeneratorSpec."""
    result = _GENERATORS[spec.family](spec)
    return result if isinstance(result, SessionLog) else build_flow_network(result)


@dataclass
class WalkEstimate:
    """Monte Carlo tallies over interior nodes plus derived estimates.

    visit_* accumulate every arrival (through-flow semantics); fp_*
    record only the first arrival per walker (first-passage semantics);
    absorption counts the last interior node before the sink.
    """

    items: tuple[str, ...]
    n_walkers: int
    seed: int
    total_flow: float
    visit_sum: np.ndarray
    visit_sumsq: np.ndarray
    absorption: np.ndarray
    first_arrival: np.ndarray
    fp_sum: np.ndarray
    fp_sumsq: np.ndarray
    fp_count: np.ndarray
    cap_exceeded: int = 0
    subtree_sum: np.ndarray | None = None

    def through_flow_estimate(self) -> tuple[np.ndarray, np.ndarray]:
        """(A_hat, standard error) from per-walker visit counts."""
        n = self.n_walkers
        mean = self.visit_sum / n
        var = np.maximum(self.visit_sumsq / n - mean**2, 0.0) * n / max(n - 1, 1)
        return self.total_flow * mean, self.total_flow * np.sqrt(var / n)

    def dissipation_estimate(self) -> tuple[np.ndarray, np.ndarray]:
        """(D_hat, binomial standard error) from absorption counts."""
        n = self.n_walkers
        p = self.absorption / n
        return self.total_flow * p, self.total_flow * np.sqrt(p * (1 - p) / n)

    def source_inflow_estimate(self) -> tuple[np.ndarray, np.ndarray]:
        n = self.n_walkers
        p = self.first_arrival / n
        return self.total_flow * p, self.total_flow * np.sqrt(p * (1 - p) / n)

    def source_distance_estimate(self) -> tuple[np.ndarray, np.ndarray]:
        """(l_hat, standard error) over walkers that reached each node."""
        with np.errstate(divide="ignore", invalid="ignore"):
            mean = np.where(self.fp_count > 0, self.fp_sum / self.fp_count, np.nan)
            var = np.where(
                self.fp_count > 1,
                (self.fp_sumsq - self.fp_count * mean**2) / np.maximum(self.fp_count - 1, 1),
                0.0,
            )
            se = np.sqrt(np.maximum(var, 0.0) / np.maximum(self.fp_count, 1))
        return mean, se

    def impact_estimate(self) -> tuple[np.ndarray, np.ndarray] | None:
        """(C_hat, crude standard error); valid on acyclic networks only,
        where impact equals flow times expected onward visit count.
        """
        if self.subtree_sum is None:
            return None
        n = self.n_walkers
        mean = self.subtree_sum / n
        return self.total_flow * mean, self.total_flow * np.sqrt(np.maximum(mean, 0.0) / n)


def _batch_size(n_nodes: int, n_walkers: int) -> int:
    return max(1024, min(n_walkers, _BATCH_ENTRY_BUDGET // max(n_nodes, 1)))


class _PairTally:
    """Arrival count and first arrival step per ``walker * n_total + node``
    key, for the walkers of one batch.

    Arrivals queue in step order and are folded into a sorted table of
    distinct keys by one stable sort, so each key's earliest arrival comes
    first. Folding whenever the queue reaches max(_ARRIVAL_CHUNK, table
    size) bounds memory by the distinct pairs as well as by the arrivals.
    """

    def __init__(self):
        self.keys = np.zeros(0, dtype=np.int64)
        self.counts = np.zeros(0, dtype=np.int64)
        self.first = np.zeros(0, dtype=np.int64)
        self._queued: list[np.ndarray] = []
        self._steps: list[int] = []
        self._n_queued = 0

    def add(self, keys: np.ndarray, step: int) -> None:
        self._queued.append(keys)
        self._steps.append(step)
        self._n_queued += keys.size
        if self._n_queued >= max(_ARRIVAL_CHUNK, self.keys.size):
            self.fold()

    def fold(self) -> None:
        keys = np.concatenate([self.keys, *self._queued])
        counts = np.concatenate([self.counts, np.ones(self._n_queued, dtype=np.int64)])
        steps = np.repeat(np.array(self._steps, dtype=np.int64), [q.size for q in self._queued])
        first = np.concatenate([self.first, steps])
        self._queued, self._steps, self._n_queued = [], [], 0
        if not keys.size:
            return
        order = np.argsort(keys, kind="stable")
        keys = keys[order]
        starts = np.flatnonzero(np.concatenate([[True], keys[1:] != keys[:-1]]))
        self.keys = keys[starts]
        self.counts = np.add.reduceat(counts[order], starts)
        self.first = first[order][starts]


class _GuideTable:
    """Finds each walker's next CSR entry from per-row guide buckets: the
    cutpoint method of Chen & Asau (1974; Devroye, *Non-Uniform Random
    Variate Generation*, 1986, section III.2.4).

    ``cum`` holds every row's cumulative weights, end to end, plus an
    ``inf`` sentinel. Row r's stretch ``[row_base[r], row_base[r] +
    row_mass[r])`` is cut into 2 * deg(r) buckets. A target t falls in
    bucket ``floor((t - row_base[r]) * scale[r])``, clamped to the row's
    last one. Subtracting a constant, multiplying by a positive one and
    flooring are monotone in floats, so an entry whose start lies in an
    earlier bucket starts at or below t. Each bucket stores the last such
    entry, or the row's first, and a search steps forward from there while
    the next start is <= t; targets still short of their entry after
    _GUIDE_PASSES steps take a binary search. For any target at or above
    its row's base, ``search`` returns ``searchsorted(cum, t, "right") - 1``
    clamped to the row's entries, the index a binary search finds.
    """

    def __init__(self, indptr: np.ndarray, data: np.ndarray):
        deg = np.diff(indptr)
        self.indptr = indptr
        self.row_last = indptr[1:] - 1
        self.cum = np.concatenate([[0.0], np.cumsum(data), [np.inf]])
        self.row_base = self.cum[indptr[:-1]]
        self.row_mass = self.cum[indptr[1:]] - self.row_base
        n_buckets = 2 * deg
        with np.errstate(divide="ignore", invalid="ignore"):
            self.scale = n_buckets / self.row_mass
        # a row whose mass vanished beside its base keeps one wide bucket
        self.scale[~np.isfinite(self.scale)] = 0.0
        self.first_bucket = np.cumsum(n_buckets) - n_buckets
        self.last_bucket = self.first_bucket + n_buckets - 1
        # the bucket of every entry's start, non-decreasing along cum
        rows = np.repeat(np.arange(deg.size), deg)
        bucket = self._bucket(rows, self.cum[: indptr[-1]], self.row_base[rows])
        del rows
        # the last entry of each run of equal buckets opens the next bucket;
        # a spare slot past the last bucket takes the final entry's write
        ends = np.append(np.flatnonzero(bucket[1:] != bucket[:-1]), bucket.size - 1)
        guide = np.zeros(int(n_buckets.sum()) + 1, dtype=np.int32)
        guide[bucket[ends] + 1] = ends
        open_rows = deg > 0
        guide[self.first_bucket[open_rows]] = indptr[:-1][open_rows]
        self.guide = np.maximum.accumulate(guide, out=guide)

    def _bucket(self, rows: np.ndarray, target: np.ndarray, base: np.ndarray) -> np.ndarray:
        at = target - base
        at *= self.scale[rows]
        bucket = at.astype(np.int64)  # at >= 0, so this is the floor
        bucket += self.first_bucket[rows]
        return np.minimum(bucket, self.last_bucket[rows], out=bucket)

    def search(self, pos: np.ndarray, target: np.ndarray, base: np.ndarray) -> np.ndarray:
        """The entry of each walker's row whose stretch of cum holds its
        target. ``pos`` is each walker's node and ``base`` its
        ``row_base[pos]``, which the caller gathered to make the targets.
        """
        cum = self.cum
        following = cum[1:]  # following[k] is where entry k ends
        # as intp: numpy gathers through int32 indices more slowly
        k = self.guide[self._bucket(pos, target, base)].astype(np.int64)
        for _ in range(_GUIDE_PASSES):
            ahead = following[k] <= target
            if not ahead.any():
                break
            k += ahead
        else:
            left = np.flatnonzero(following[k] <= target)
            if left.size:
                k[left] = np.searchsorted(cum, target[left], side="right") - 1
        np.maximum(k, self.indptr[pos], out=k)
        np.minimum(k, self.row_last[pos], out=k)
        return k


def _add_pair_sums(pairs: _PairTally, length: np.ndarray, n_total: int, sums: dict) -> None:
    """Fold one batch's pair table into the per-node sums; ``length`` is
    each walker's step count, used when ``sums`` holds ``subtree_sum``.
    """
    pairs.fold()
    node = pairs.keys % n_total
    first = pairs.first
    sums["first_arrival"] += np.bincount(node[first == 1], minlength=n_total)
    sums["visit_sum"] += np.bincount(node, weights=pairs.counts, minlength=n_total)
    sums["visit_sumsq"] += np.bincount(node, weights=pairs.counts**2, minlength=n_total)
    sums["fp_count"] += np.bincount(node, minlength=n_total)
    sums["fp_sum"] += np.bincount(node, weights=first, minlength=n_total)
    sums["fp_sumsq"] += np.bincount(node, weights=first * first, minlength=n_total)
    if "subtree_sum" in sums:
        onward = length[pairs.keys // n_total] - first + 1
        sums["subtree_sum"] += np.bincount(node, weights=onward, minlength=n_total)


def simulate_walkers(
    net: FlowNetwork,
    n_walkers: int,
    seed: int = 0,
    step_cap: int = STEP_CAP,
    track_subtree: bool = False,
) -> WalkEstimate:
    """Drop seeded random walkers at the source and tally their paths.

    Deterministic given (network, n_walkers, seed): walkers are split into
    fixed-size batches, each drawing from its own SeedSequence-spawned
    child stream, so the result is independent of any execution schedule.
    Consecutive batches step together in waves of at most _WAVE_WALKERS
    walkers (at least one batch); each batch draws only for its own
    walkers, as it would alone. Walkers still alive at step_cap are counted
    in cap_exceeded and excluded from absorption. Tallies are kept per
    visited (walker, node) pair in one table per batch, so memory follows
    the wave's walkers times their path length, not the node count.
    """
    if n_walkers < 1:
        raise ValueError("n_walkers must be >= 1")
    if step_cap < 1:
        raise ValueError(f"step_cap must be >= 1, got {step_cap}")
    _require_certified(validate(net))
    M = transition_matrix(net).matrix.tocsr()
    n_total = M.shape[0]
    sink = net.sink_index
    indices = M.indices
    guide = _GuideTable(M.indptr, M.data)
    row_base, row_mass = guide.row_base, guide.row_mass

    names = _SUMS + ("subtree_sum",) if track_subtree else _SUMS
    sums = {name: np.zeros(n_total) for name in names}
    cap_exceeded = 0

    batch = _batch_size(n_total, n_walkers)
    n_batches = -(-n_walkers // batch)
    streams = np.random.SeedSequence(seed).spawn(n_batches)
    per_wave = max(1, _WAVE_WALKERS // batch)
    for first_batch in range(0, n_batches, per_wave):
        rngs = list(map(np.random.default_rng, streams[first_batch : first_batch + per_wave]))
        # each batch's walker range in the wave; only the last batch is short
        offsets = np.minimum(np.arange(len(rngs) + 1) * batch, n_walkers - first_batch * batch)
        bounds = offsets  # each batch's range among the alive walkers
        alive = np.arange(offsets[-1])
        pos = np.zeros(alive.size, dtype=np.int64)  # node of each alive walker
        length = np.zeros(alive.size, dtype=np.int64)
        absorbed_from: list[np.ndarray] = []
        tables = [_PairTally() for _ in rngs]
        step = 0
        while alive.size and step < step_cap:
            step += 1
            target = np.empty(alive.size)
            for rng, lo, hi in zip(rngs, bounds[:-1], bounds[1:]):
                if hi > lo:
                    rng.random(out=target[lo:hi])
            # each walker's uniform, scaled onto its row's stretch of cum
            base = row_base[pos]
            target *= row_mass[pos]
            target += base
            nxt = indices[guide.search(pos, target, base)]
            hit_sink = nxt == sink
            if hit_sink.any():
                absorbed_from.append(pos[hit_sink])
                length[alive[hit_sink]] = step - 1
                alive = alive[~hit_sink]
                nxt = nxt[~hit_sink]
                bounds = np.searchsorted(alive, offsets)
            pos = nxt
            keys = alive * n_total + pos
            for pairs, lo, hi in zip(tables, bounds[:-1], bounds[1:]):
                if hi > lo:
                    pairs.add(keys[lo:hi], step)
        if alive.size:
            cap_exceeded += alive.size
            length[alive] = step
        if absorbed_from:
            sums["absorption"] += np.bincount(np.concatenate(absorbed_from), minlength=n_total)
        # each table is dropped as it is summed: one kept while the next wave
        # steps leaves holes in the heap that raised the audit's peak RSS
        while tables:
            _add_pair_sums(tables.pop(0), length, n_total, sums)
    if cap_exceeded:
        warnings.warn(
            f"{cap_exceeded} walkers hit the {step_cap}-step cap", StepCapWarning
        )

    interior = slice(1, net.n_interior + 1)
    return WalkEstimate(
        items=net.items,
        n_walkers=n_walkers,
        seed=seed,
        total_flow=net.total_source_outflow(),
        cap_exceeded=cap_exceeded,
        **{name: tally[interior] for name, tally in sums.items()},
    )


def write_estimates_csv(path, est: WalkEstimate) -> None:
    """Stats-schema mirror with _hat suffixes; impact column only when
    subtree tracking was on.
    """
    a_hat, _ = est.through_flow_estimate()
    d_hat, _ = est.dissipation_estimate()
    s_hat, _ = est.source_inflow_estimate()
    l_hat, _ = est.source_distance_estimate()
    c = est.impact_estimate()
    header = ["item", "A_hat", "D_hat", "S_hat", "F_hat", "l_hat"]
    columns = [est.items, *map(reprs, (a_hat, d_hat, s_hat, a_hat - d_hat)), cells(l_hat)]
    if c is not None:
        header.append("C_hat")
        columns.append(reprs(c[0]))
    write_csv(path, header, columns)


@dataclass(frozen=True)
class Offender:
    item: str
    quantity: str
    z: float
    analytic: float
    estimated: float


@dataclass(frozen=True)
class ComparisonReport:
    """Per-quantity z-score summary of simulator vs analytic results."""

    n_walkers: int
    multiplier: float
    pass_fraction: dict[str, float]
    overall_pass_fraction: float
    passed: bool
    worst: tuple[Offender, ...]

    def to_dict(self) -> dict:
        return {
            "n_walkers": self.n_walkers,
            "multiplier": self.multiplier,
            "pass_fraction": dict(self.pass_fraction),
            "overall_pass_fraction": self.overall_pass_fraction,
            "passed": self.passed,
            # JSON has no inf or NaN: an infinite z (a deterministic tally
            # that misses) and a NaN estimate (no walker reached the node) are null
            "worst": [
                {
                    "item": o.item,
                    "quantity": o.quantity,
                    "z": o.z if math.isfinite(o.z) else None,
                    "analytic": o.analytic,
                    "estimated": o.estimated if math.isfinite(o.estimated) else None,
                }
                for o in self.worst
            ],
        }


def _zscores(analytic: np.ndarray, estimate: np.ndarray, se: np.ndarray) -> np.ndarray:
    diff = estimate - analytic
    z = np.zeros_like(diff)
    with np.errstate(divide="ignore", invalid="ignore"):
        nonzero = se > 0
        z[nonzero] = diff[nonzero] / se[nonzero]
    # zero standard error means a deterministic tally: any real gap is an
    # outright failure, not a borderline z
    exact = ~nonzero & (np.abs(diff) > 1e-9 * np.maximum(np.abs(analytic), 1.0))
    z[exact] = np.inf
    return z


def compare(
    est: WalkEstimate,
    stats: NodeFlowStats,
    source_distance: np.ndarray | None = None,
    multiplier: float = 3.0,
) -> ComparisonReport:
    """z-score the simulator against analytic per-node values.

    Covers through-flow, dissipation, and (when given) source distances;
    a node passes a quantity when |z| <= multiplier, and the report
    passes when every quantity's pass fraction reaches MIN_PASS_FRACTION.
    A multiplier that is not a finite number > 0 raises ValueError.
    """
    if not (math.isfinite(multiplier) and multiplier > 0):
        raise ValueError(f"multiplier must be a finite number > 0, got {multiplier!r}")
    if est.items != stats.items:
        raise MismatchedNetworks(
            f"estimate has {len(est.items)} items, stats {len(stats.items)}; "
            "node tables differ"
        )
    a_hat, a_se = est.through_flow_estimate()
    d_hat, d_se = est.dissipation_estimate()
    # quantity -> (analytic, estimated, z-scores), each per node
    quantities = {
        "A": (stats.through_flow, a_hat, _zscores(stats.through_flow, a_hat, a_se)),
        "D": (stats.dissipation, d_hat, _zscores(stats.dissipation, d_hat, d_se)),
    }
    if source_distance is not None:
        l0 = np.asarray(source_distance)
        l_hat, l_se = est.source_distance_estimate()
        mask = np.isfinite(l0) & (est.fp_count > 0)
        z_l = np.zeros(len(est.items))
        z_l[mask] = _zscores(l0[mask], l_hat[mask], l_se[mask])
        quantities["l"] = (l0, l_hat, z_l)

    # a pass fraction over zero nodes is 1.0, as flux_residual is 0.0 on none
    fractions = {
        q: float(np.mean(np.abs(z) <= multiplier)) if z.size else 1.0
        for q, (_, _, z) in quantities.items()
    }
    overall = float(np.mean(list(fractions.values())))
    offenders = [
        Offender(
            item=est.items[i],
            quantity=q,
            z=float(z[i]),
            analytic=float(analytic[i]),
            estimated=float(estimated[i]),
        )
        for q, (analytic, estimated, z) in quantities.items()
        for i in np.argsort(-np.abs(z))[:3]
    ]
    offenders.sort(key=lambda o: -abs(o.z) if math.isfinite(o.z) else -math.inf)
    return ComparisonReport(
        n_walkers=est.n_walkers,
        multiplier=multiplier,
        pass_fraction=fractions,
        overall_pass_fraction=overall,
        passed=all(f >= MIN_PASS_FRACTION for f in fractions.values()),
        worst=tuple(offenders[:5]),
    )


@dataclass(frozen=True)
class EnumerationResult:
    """Exact walk statistics from exhaustive path enumeration on a DAG."""

    items: tuple[str, ...]
    total_flow: float
    visit_prob: np.ndarray
    absorb_prob: np.ndarray
    first_arrival_prob: np.ndarray
    arrival_step_mean: np.ndarray
    subtree_flow: np.ndarray
    n_paths: int

    def through_flow(self) -> np.ndarray:
        return self.total_flow * self.visit_prob

    def dissipation(self) -> np.ndarray:
        return self.total_flow * self.absorb_prob

    def source_distance(self) -> np.ndarray:
        """On a DAG every arrival is a first arrival, so the average
        arrival step is both t_0i and l_0i.
        """
        return self.arrival_step_mean

    def impact(self) -> np.ndarray:
        return self.total_flow * self.subtree_flow


def enumerate_walks(net: FlowNetwork, max_nodes: int = 16) -> EnumerationResult:
    """Walk every source-to-sink path of an acyclic network exactly.

    Each interior arrival at probability q and depth d contributes q to
    the node's visit mass, q*d to its step mass, and q to the running
    subtree mass of every node on the current path. Exponential in
    pathology, so guarded by max_nodes.
    """
    n = net.n_interior
    if n > max_nodes:
        raise ValueError(f"enumeration limited to {max_nodes} interior nodes, got {n}")
    M = transition_matrix(net).matrix.tocsr()
    _topological_or_raise(M, net)
    sink = net.sink_index
    rows: list[list[tuple[int, float]]] = []
    for i in range(M.shape[0]):
        lo, hi = M.indptr[i], M.indptr[i + 1]
        rows.append(list(zip(M.indices[lo:hi].tolist(), M.data[lo:hi].tolist())))

    visit = np.zeros(n + 2)
    absorb = np.zeros(n + 2)
    first = np.zeros(n + 2)
    steps = np.zeros(n + 2)
    subtree = np.zeros(n + 2)
    n_paths = 0
    path: list[int] = []

    def walk(node: int, q: float, depth: int) -> None:
        nonlocal n_paths
        for child, prob in rows[node]:
            mass = q * prob
            if child == sink:
                absorb[node] += mass
                n_paths += 1
                continue
            visit[child] += mass
            steps[child] += mass * (depth + 1)
            if depth == 0:
                first[child] += mass
            path.append(child)
            for member in path:
                subtree[member] += mass
            walk(child, mass, depth + 1)
            path.pop()

    walk(net.source_index, 1.0, 0)
    with np.errstate(divide="ignore", invalid="ignore"):
        mean_steps = np.where(visit > 0, steps / visit, np.nan)
    interior = slice(1, n + 1)
    return EnumerationResult(
        items=net.items,
        total_flow=net.total_source_outflow(),
        visit_prob=visit[interior],
        absorb_prob=absorb[interior],
        first_arrival_prob=first[interior],
        arrival_step_mean=mean_steps[interior],
        subtree_flow=subtree[interior],
        n_paths=n_paths,
    )


def _topological_or_raise(M, net: FlowNetwork):
    """Reject cyclic interiors; enumeration would not terminate."""
    n = net.n_interior
    W = M[1 : n + 1, 1 : n + 1]
    n_comp, _ = csgraph.connected_components(W, directed=True, connection="strong")
    if n_comp != n or W.diagonal().any():
        raise ValueError("network interior has cycles; enumeration requires a DAG")
