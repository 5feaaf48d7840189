"""Output checks. Each check is one operation: it passes or it fails,
and failures are counted in ``ops_failed_frac``.

Reference values are recomputed from the ``network.csv`` the program
wrote, with the benchmark's own ``scipy`` ``splu`` of ``I - W``; nothing
here calls into ``attnflow``.
"""
from __future__ import annotations

import csv
import json
import math
import os

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from inputs import SINK, SOURCE, largest_scc, sha256_file

REL_TOL = 1e-8
FLUX_TOL = 1e-9
SUM_TOL = 1e-9
SAMPLE = 16

PIPELINE_FILES = (
    "config.json", "network.csv", "network.json", "stats.csv", "stats.json",
    "source_distance.csv", "fit_D_vs_A.json", "fit_A_vs_S.json", "fit_C_vs_A.json",
    "zipf_A.csv", "regression.json", "regression.txt", "summary.json",
)
LOG_FILES = ("edges.csv", "duplication.csv")
AUDIT_FILES = {
    "net": ("config.json", "network.csv", "network.json", "generate.json"),
    "sim": ("config.json", "estimates.csv", "tallies.json", "simulate.json"),
    "cmp": ("config.json", "compare.json"),
}


def read_network(path) -> tuple[list[str], sp.csr_matrix]:
    """Interior labels and the (N+2)-square flow matrix, source at N and
    sink at N+1."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))[1:]
    index: dict[str, int] = {}
    for src, dst, _ in rows:
        for label in (src, dst):
            if label not in (SOURCE, SINK) and label not in index:
                index[label] = len(index)
    n = len(index)
    index[SOURCE], index[SINK] = n, n + 1
    r = np.fromiter((index[row[0]] for row in rows), np.int64, len(rows))
    c = np.fromiter((index[row[1]] for row in rows), np.int64, len(rows))
    w = np.fromiter((float(row[2]) for row in rows), np.float64, len(rows))
    flow = sp.csr_matrix((w, (r, c)), shape=(n + 2, n + 2))
    return list(index)[:n], flow


def reference(network_csv, seed: int) -> dict:
    """Per-node A, D, S, F and phi for every node, and C and l_source for
    a seeded sample of nodes."""
    items, flow = read_network(network_csv)
    n = len(items)
    out = np.asarray(flow.sum(axis=1)).ravel()
    A = out[:n]
    D = flow[:n, n + 1].toarray().ravel()
    S = flow[n, :n].toarray().ravel()
    W = sp.diags(1.0 / A) @ flow[:n, :n]
    lu = spla.splu((sp.identity(n, format="csc") - W).tocsc())
    phi = lu.solve(S, trans="T")
    row_sums = lu.solve(np.ones(n))
    v = lu.solve(S / out[n], trans="T")
    w2 = lu.solve(v, trans="T")
    rng = np.random.default_rng(seed)
    sample = np.sort(rng.choice(n, size=min(SAMPLE, n), replace=False))
    C, L = {}, {}
    for j in sample.tolist():
        e = np.zeros(n)
        e[j] = 1.0
        col = lu.solve(e)
        row = lu.solve(e, trans="T")
        u_jj = col[j]
        C[items[j]] = phi[j] * row_sums[j] / u_jj
        L[items[j]] = w2[j] / v[j] - (row @ col / u_jj - 1.0)
    return {
        "index": {item: k for k, item in enumerate(items)},
        "columns": {"A": A, "D": D, "S": S, "F": A - D, "phi": phi},
        "C": C,
        "l": L,
    }


def _close(x: float, ref: float) -> bool:
    return abs(x - ref) <= REL_TOL * abs(ref)


def _read_json(path) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _read_table(path) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def _run_checks(checks) -> list[tuple[str, bool, str]]:
    results = []
    for name, check in checks:
        try:
            detail = check()
        except Exception as exc:  # a broken artifact fails its check
            detail = f"{type(exc).__name__}: {exc}"
        results.append((name, detail is None, detail or ""))
    return results


def _missing(root, names) -> str | None:
    absent = [name for name in names if not os.path.isfile(os.path.join(root, name))]
    return f"missing {absent}" if absent else None


def check_pipeline(out, fingerprint: dict, ref_cache: dict, seed: int) -> list[tuple[str, bool, str]]:
    """Checks on one ``pipeline`` run; ``ref_cache`` maps the SHA-256 of
    ``network.csv`` to its reference values."""
    is_log = "sessions" in fingerprint
    path = lambda name: os.path.join(out, name)  # noqa: E731

    def artifacts():
        return _missing(out, PIPELINE_FILES + (LOG_FILES if is_log else ()))

    def flux():
        value = _read_json(path("stats.json"))["flux_residual"]
        return None if value <= FLUX_TOL else f"flux_residual {value}"

    def dissipation_sum():
        stats = _read_json(path("stats.json"))
        gap = abs(stats["sum_D"] - stats["source_outflow"])
        return None if gap <= SUM_TOL * abs(stats["source_outflow"]) else f"sum_D off by {gap}"

    def shape():
        stats = _read_json(path("stats.json"))
        got = (stats["nodes"], stats["edges"])
        want = (fingerprint["nodes"], fingerprint["edges"])
        return None if got == want else f"nodes, edges {got} != input {want}"

    def sessions():
        summary = _read_json(path("summary.json"))
        got = (summary["users"], summary["sessions"], summary["visits"])
        want = (fingerprint["users"], fingerprint["sessions"], fingerprint["records"])
        return None if got == want else f"users, sessions, visits {got} != input {want}"

    def distances_finite():
        _, rows = _read_table(path("source_distance.csv"))
        bad = [item for item, value in rows if not value or not math.isfinite(float(value))]
        return f"{len(bad)} non-finite l_source, e.g. {bad[:3]}" if bad else None

    def _ref():
        sha = sha256_file(path("network.csv"))
        if sha not in ref_cache:
            ref_cache[sha] = reference(path("network.csv"), seed)
        return ref_cache[sha]

    def stats_columns():
        ref = _ref()
        header, rows = _read_table(path("stats.csv"))
        if len(rows) != len(ref["index"]):
            return f"{len(rows)} stats rows for {len(ref['index'])} nodes"
        for name, want in ref["columns"].items():
            k = header.index(name)
            for row in rows:
                if not _close(float(row[k]), want[ref["index"][row[0]]]):
                    return f"{name} of {row[0]} is {row[k]}, expected {want[ref['index'][row[0]]]!r}"
        return None

    def sampled(key, file, field):
        ref = _ref()[key]
        header, rows = _read_table(path(file))
        k = header.index(field)
        got = {row[0]: row[k] for row in rows if row[0] in ref}
        for item, want in ref.items():
            if item not in got or not _close(float(got[item]), want):
                return f"{field} of {item} is {got.get(item)!r}, expected {want!r}"
        return None

    checks = [
        ("artifacts", artifacts),
        ("flux_residual", flux),
        ("sum_D", dissipation_sum),
        ("nodes_edges", shape),
        ("l_source_finite", distances_finite),
        ("stats_columns", stats_columns),
        ("sampled_C", lambda: sampled("C", "stats.csv", "C")),
        ("sampled_l_source", lambda: sampled("l", "source_distance.csv", "l_source")),
    ]
    if is_log:
        checks.append(("sessions", sessions))
    return _run_checks(checks)


def check_audit(out, size: int, first: dict) -> list[tuple[str, bool, str]]:
    """Checks on one generate/simulate/compare run. ``first`` holds the
    SHA-256 of the first run's network and tallies, which every later run
    with the same seed must reproduce byte for byte."""

    def artifacts():
        missing = [_missing(os.path.join(out, sub), names) for sub, names in AUDIT_FILES.items()]
        missing = [m for m in missing if m]
        return "; ".join(missing) if missing else None

    def generated():
        gen = _read_json(os.path.join(out, "net", "generate.json"))
        ok = gen["certified"] and gen["nodes"] == size
        return None if ok else f"generate.json {gen}"

    def passed():
        report = _read_json(os.path.join(out, "cmp", "compare.json"))
        return None if report["passed"] is True else f"compare failed: {report['pass_fraction']}"

    def same_bytes(key, rel):
        sha = sha256_file(os.path.join(out, rel))
        first.setdefault(key, sha)
        return None if sha == first[key] else f"{rel} differs from the first run"

    return _run_checks([
        ("artifacts", artifacts),
        ("generate_certified", generated),
        ("compare_passed", passed),
        ("network_identical", lambda: same_bytes("network", os.path.join("net", "network.csv"))),
        ("tallies_identical", lambda: same_bytes("tallies", os.path.join("sim", "tallies.json"))),
    ])


def audit_fingerprint(out) -> dict:
    gen = _read_json(os.path.join(out, "net", "generate.json"))
    items, flow = read_network(os.path.join(out, "net", "network.csv"))
    n = len(items)
    interior = flow[:n, :n].tocoo()
    return {
        "nodes": gen["nodes"],
        "edges": gen["edges"],
        "largest_scc": largest_scc(n, interior.row, interior.col),
        "sha256": sha256_file(os.path.join(out, "net", "network.csv")),
    }
