"""Seeded input generators owned by the benchmark.

The program's own generators (``attnflow.generate``) are deliberately not
used here, so a change to them cannot change what a workload measures.
Each generator writes one input file and returns its fingerprint: node
count, edge count (as the program counts them, source and sink edges
included), largest strongly connected component of the interior graph,
and the SHA-256 of the file.
"""
from __future__ import annotations

import hashlib

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

SOURCE = "__source__"
SINK = "__sink__"

# random-cyclic shape of the scale gate
AVG_DEGREE = 13.6
RECIRCULATION = 0.25
WINDOW = 200
BLOCK = 64

# browsing-log shape: users per item, item popularity exponent, chance a
# session stops after each visit, mean extra sessions per user
USERS_PER_ITEM = 2.0
ZIPF = 0.8
STOP_P = 0.35
EXTRA_SESSIONS = 0.5
GAP_SECONDS = 1800


def sha256_file(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def largest_scc(n: int, rows: np.ndarray, cols: np.ndarray) -> int:
    if n == 0:
        return 0
    graph = sp.csr_matrix((np.ones(rows.size), (rows, cols)), shape=(n, n))
    _, labels = connected_components(graph, directed=True, connection="strong")
    return int(np.bincount(labels).max())


def cyclic_network(path, seed: int, nodes: int) -> dict:
    """Balanced, certified ``random-cyclic``-shaped network as edge CSV.

    Each node draws Poisson(AVG_DEGREE) out-edges. A share RECIRCULATION
    of them point back into the node's own BLOCK (so no strongly connected
    component exceeds BLOCK nodes); the rest point forward within WINDOW
    positions. Weights are small integers,
    and every node gets a source edge and a sink edge sized to close its
    budget exactly, so the network needs no balancing and certifies as is.
    """
    rng = np.random.default_rng(seed)
    n = nodes
    src = np.repeat(np.arange(n), rng.poisson(AVG_DEGREE, size=n))
    back = rng.random(src.size) < RECIRCULATION
    lo = (src // BLOCK) * BLOCK
    hi = np.minimum(n - 1, src + WINDOW)
    u = rng.random(src.size)
    dst = np.where(
        back,
        lo + (u * (src - lo + 1)).astype(np.int64),
        src + 1 + (u * (hi - src)).astype(np.int64),
    )
    weight = rng.integers(1, 3, size=src.size)
    keep = back | (src < n - 1)
    src, dst, weight = src[keep], dst[keep], weight[keep]

    key, inverse = np.unique(src * n + dst, return_inverse=True)
    w = np.bincount(inverse, weights=weight).astype(np.int64)
    i, j = key // n, key % n
    out_w = np.bincount(i, weights=w, minlength=n).astype(np.int64)
    in_w = np.bincount(j, weights=w, minlength=n).astype(np.int64)
    from_source = 1 + np.maximum(0, out_w - in_w)
    to_sink = 1 + np.maximum(0, in_w - out_w)

    width = len(str(n))
    names = [f"c{k:0{width}d}" for k in range(n)]
    lines = ["src,dst,weight"]
    lines += [f"{SOURCE},{names[k]},{from_source[k]}" for k in range(n)]
    lines += [f"{names[a]},{names[b]},{c}" for a, b, c in zip(i.tolist(), j.tolist(), w.tolist())]
    lines += [f"{names[k]},{SINK},{to_sink[k]}" for k in range(n)]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    return {
        "nodes": n,
        "edges": int(key.size + 2 * n),
        "largest_scc": largest_scc(n, i, j),
        "sha256": sha256_file(path),
    }


def session_log(path, seed: int, items: int) -> dict:
    """Timestamped ``user,item,timestamp`` browsing log.

    Every item gets one singleton session from a user of its own, which
    pins its direct source flow and dissipation above zero. On top,
    USERS_PER_ITEM * ``items`` users each browse 1 + Poisson(EXTRA_SESSIONS)
    sessions of 1 + Geometric(STOP_P) visits drawn from a Zipf(ZIPF)
    popularity, so hub items knit the network into one giant strongly
    connected component, as real clickstreams do. Visits within a session
    are at most 600 s apart and sessions at least an hour apart, so
    splitting at GAP_SECONDS recovers exactly the generated sessions.
    Records are written in global time order, which interleaves users.
    """
    rng = np.random.default_rng(seed)
    width = len(str(items))
    names = [f"i{k:0{width}d}" for k in range(items)]
    popularity = 1.0 / np.arange(1, items + 1) ** ZIPF
    popularity /= popularity.sum()
    horizon = 30 * 86400

    records: list[tuple[int, str, str]] = []
    sessions: list[list[int]] = []
    for k in range(items):
        sessions.append([k])
        records.append((int(rng.integers(0, horizon)), f"s{k:0{width}d}", names[k]))
    n_users = int(round(USERS_PER_ITEM * items))
    for user in range(n_users):
        label = f"u{user:06d}"
        t = int(rng.integers(0, horizon))
        for _ in range(1 + rng.poisson(EXTRA_SESSIONS)):
            length = 1 + int(rng.geometric(STOP_P))
            picks = rng.choice(items, size=length, p=popularity).tolist()
            sessions.append(picks)
            for pick in picks:
                records.append((t, label, names[pick]))
                t += int(rng.integers(5, 601))
            t += int(rng.integers(3600, 86401))
    records.sort(key=lambda r: r[0])
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(f"{user},{item},{ts}\n" for ts, user, item in records)

    # The session-closed network: source -> first, consecutive pairs,
    # last -> sink. Interior ids 0..items-1, source = items, sink = items+1.
    pairs = set()
    for seq in sessions:
        pairs.add((items, seq[0]))
        pairs.update(zip(seq, seq[1:]))
        pairs.add((seq[-1], items + 1))
    interior = np.array([(a, b) for a, b in pairs if a < items and b < items])
    return {
        "nodes": items,
        "edges": len(pairs),
        "largest_scc": largest_scc(items, interior[:, 0], interior[:, 1]),
        "sha256": sha256_file(path),
        "users": items + n_users,
        "records": len(records),
        "sessions": len(sessions),
        "gap_seconds": GAP_SECONDS,
    }
