"""Shared fixtures: hand networks with known values and a reusable suite
of random certified networks (mixed acyclic and cyclic).
"""
import os
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

import attnflow
from attnflow import _linalg
from attnflow import (
    GeneratorSpec,
    build_flow_network,
    balance,
    generate,
    validate,
)

#: Every property test draws the same examples on every run, and no run
#: reads or writes an example database, so tier-1 is deterministic. A
#: test's own @settings still sets its example count.
settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")


@pytest.fixture
def chain_net():
    """SOURCE -> A -> B -> SINK, weight 2 everywhere; balanced as given."""
    return build_flow_network(
        {("__source__", "A"): 2, ("A", "B"): 2, ("B", "__sink__"): 2}
    )


@pytest.fixture
def star_net():
    """Hub fed 3 from the source, one unit through each of 3 leaves."""
    edges = {("__source__", "hub"): 3}
    for leaf in ("x", "y", "z"):
        edges[("hub", leaf)] = 1
        edges[(leaf, "__sink__")] = 1
    return build_flow_network(edges)


@pytest.fixture
def selfloop_net():
    """Single node with a self-loop, deliberately left unbalanced: the
    walk probabilities (0.5 loop, 0.5 out) are what the distance fixtures
    assume.
    """
    return build_flow_network(
        {("__source__", "X"): 2, ("X", "X"): 1, ("X", "__sink__"): 1}
    )


@pytest.fixture
def single_node_net():
    return build_flow_network(
        {("__source__", "X"): 5, ("X", "__sink__"): 5}
    )


def _random_specs():
    rng = np.random.default_rng(20240501)
    specs = []
    for i in range(100):
        size = int(rng.integers(20, 501))
        cyclic = i % 2 == 1
        specs.append(
            GeneratorSpec(
                family="random-cyclic",
                size=size,
                recirculation=0.3 if cyclic else 0.0,
                seed=1000 + i,
                avg_degree=float(rng.uniform(2.0, 5.0)),
            )
        )
    return specs


@pytest.fixture(scope="session")
def random_suite():
    """100 certified random networks, 20-500 nodes, alternating DAG and
    cyclic, with integer edge weights.
    """
    nets = []
    for spec in _random_specs():
        net = generate(spec)
        report = validate(net)
        assert report.certified, f"generator produced uncertified network: {spec}"
        nets.append(net)
    return nets


@pytest.fixture
def small_log_text():
    return "u1,A\nu1,B\nu1,A\nu2,A\nu2,C\nu3,B\n"


@pytest.fixture
def balanced_cyclic_net():
    """Mid-size cyclic certified network for single-network tests."""
    net = generate(
        GeneratorSpec(family="random-cyclic", size=60, recirculation=0.3, seed=7)
    )
    assert validate(net).certified
    return net


@pytest.fixture(scope="session")
def dense_route_max():
    """``with dense_route_max(k):`` solvers built in the block give each
    SCC of up to k nodes a dense inverse and each larger one a shifted
    hub-core factor, as if ``_linalg._DENSE_ROUTE_MAX`` were k.
    """

    @contextmanager
    def route_max(k: int):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(_linalg, "_DENSE_ROUTE_MAX", k)
            yield

    return route_max


@pytest.fixture(scope="session")
def child_env():
    """Environment for `python -m attnflow` child processes.

    `PYTHONPATH` starts with the absolute directory that holds the
    imported package, so a child run from any cwd imports the same
    source tree as the test process, never another installed copy.
    """
    package_root = str(Path(attnflow.__file__).resolve().parents[1])
    env = os.environ.copy()
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = (
        package_root + os.pathsep + existing if existing else package_root
    )
    return env


def _duplication_by_dicts(log) -> dict:
    """The audience-overlap filter as one loop over the overlap pairs,
    filling dicts: the reference for ``stats.duplication_filter``. Returns
    the observed, expected and kept pairs, the degrees before and after,
    the audience sizes, and the bytes of ``duplication.csv``.
    """
    import csv
    import io

    import scipy.sparse as sp

    items = tuple(sorted(log.item_registry))
    index = {item: i for i, item in enumerate(items)}
    users = sorted(log.sessions)
    rows, cols = [], []
    for u, user in enumerate(users):
        seen = {index[item] for seq in log.sessions[user] for item in seq}
        rows.extend([u] * len(seen))
        cols.extend(sorted(seen))
    member = sp.csr_matrix(
        (np.ones(len(rows), dtype=np.int64), (rows, cols)), shape=(len(users), len(items))
    )
    overlap = (member.T @ member).tocoo()
    sizes = np.asarray(member.sum(axis=0)).ravel()
    observed, expected, kept = {}, {}, {}
    for i, j, count in zip(overlap.row, overlap.col, overlap.data):
        if i >= j:
            continue
        pair = (items[i], items[j])
        exp = sizes[i] * sizes[j] / len(users)
        observed[pair] = int(count)
        expected[pair] = float(exp)
        if count >= exp:
            kept[pair] = int(count)
    degrees = []
    for edges in (observed, kept):
        deg = dict.fromkeys(items, 0)
        for a, b in edges:
            deg[a] += 1
            deg[b] += 1
        degrees.append(deg)
    audience = {item: int(sizes[i]) for item, i in index.items()}
    text = io.StringIO()
    writer = csv.writer(text, lineterminator="\n")
    writer.writerow(["item", "audience", "degree_before", "degree_after"])
    writer.writerows([item, audience[item], degrees[0][item], degrees[1][item]] for item in items)
    return {
        "observed": observed,
        "expected": expected,
        "kept": kept,
        "audience_sizes": audience,
        "csv": text.getvalue().encode("utf-8"),
    }


@pytest.fixture(scope="session")
def duplication_by_dicts():
    """:func:`_duplication_by_dicts`, the dict-loop duplication filter."""
    return _duplication_by_dicts
