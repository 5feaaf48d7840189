"""Acceptance gate: the end-to-end guarantees the package ships under,
each with its stated tolerance and budget. Every test prints exactly one
PASS/FAIL line (bypassing capture) so the run log shows the verdict table.
"""
import json
import os
import subprocess
import sys
import tempfile
import time

import numpy as np
import pytest

from attnflow import (
    GeneratorSpec,
    build_flow_network,
    certify,
    compare,
    enumerate_walks,
    fit_power_law,
    flow_impact_double_sum,
    fundamental_matrix,
    generate,
    gini,
    node_flows,
    ols_regress,
    simulate_walkers,
    source_distances,
    to_transition_edges,
    transition_matrix,
    validate,
    write_network,
)
from attnflow._linalg import _DENSE_ROUTE_MAX


@pytest.fixture
def check(capsys):
    """Print one uncaptured PASS/FAIL line per criterion, then assert."""

    def _check(criterion: str, condition: bool, detail: str) -> None:
        verdict = "PASS" if condition else "FAIL"
        with capsys.disabled():
            print(f"[acceptance] {criterion}: {verdict} ({detail})", flush=True)
        assert condition, f"{criterion}: {detail}"

    return _check


def test_c01_conservation_suite(random_suite, check):
    """Per-node flux identity and exact dissipation totals on 100 random
    certified networks (20-500 nodes, acyclic and cyclic), inside 30 s.
    """
    start = time.monotonic()
    worst_residual = 0.0
    exact_totals = True
    for net in random_suite:
        stats = node_flows(net)
        worst_residual = max(worst_residual, stats.flux_residual())
        if stats.dissipation.sum() != net.total_source_outflow():
            exact_totals = False
    elapsed = time.monotonic() - start
    ok = worst_residual <= 1e-9 and exact_totals and elapsed < 30.0
    check(
        "1 conservation-suite",
        ok,
        f"max flux residual {worst_residual:.2e}, exact totals {exact_totals}, {elapsed:.1f} s",
    )


def test_c02_fundamental_identity(random_suite, check):
    """U (I - W) = I to 1e-9 in the max norm, checked densely per network."""
    worst = 0.0
    for net in random_suite:
        fm = fundamental_matrix(transition_matrix(net))
        worst = max(worst, fm.identity_residual())
    check("2 fundamental-identity", worst <= 1e-9, f"max residual {worst:.2e}")


def test_c03_hand_fixtures(chain_net, star_net, check):
    """Chain and star networks against hand-computed flow values."""
    chain = node_flows(chain_net)
    chain_l0 = source_distances(fundamental_matrix(transition_matrix(chain_net)))
    star = node_flows(star_net)
    star_l0 = source_distances(fundamental_matrix(transition_matrix(star_net)))
    gaps = [
        np.abs(chain.through_flow - [2, 2]).max(),
        np.abs(chain.dissipation - [0, 2]).max(),
        np.abs(chain.source_inflow - [2, 0]).max(),
        np.abs(chain.impact - [4, 2]).max(),
        np.abs(chain_l0 - [1, 2]).max(),
        np.abs(star.impact - [6, 1, 1, 1]).max(),
        np.abs(star_l0 - [1, 2, 2, 2]).max(),
    ]
    worst = max(gaps)
    check("3 hand-fixtures", worst <= 1e-9, f"max deviation {worst:.2e}")


def test_c04_impact_cross_form(random_suite, check):
    """Factored impact equals the literal double sum to 1e-9 relative."""
    worst = 0.0
    for net in random_suite:
        fm = fundamental_matrix(transition_matrix(net))
        s = np.asarray(net.flow[0, 1:-1].todense()).ravel()
        factored = node_flows(net, fm).impact
        literal = flow_impact_double_sum(fm, s)
        rel = np.abs(factored - literal) / np.maximum(np.abs(literal), 1e-300)
        worst = max(worst, float(rel.max()))
    check("4 impact-cross-form", worst <= 1e-9, f"max relative gap {worst:.2e}")


def test_c05_monte_carlo_agreement(check):
    """One million walkers on a 20-node cyclic network match analytic
    dissipation, impact and source distances within 3 standard errors for
    at least 95% of nodes, inside 60 s.
    """
    net = generate(
        GeneratorSpec(
            family="random-cyclic", size=20, recirculation=0.3, seed=11, avg_degree=4.0
        )
    )
    assert validate(net).certified
    fm = fundamental_matrix(transition_matrix(net))
    stats = node_flows(net, fm)
    l0 = source_distances(fm)
    start = time.monotonic()
    est = simulate_walkers(net, 1_000_000, seed=42)
    report = compare(est, stats, source_distance=l0, multiplier=3.0)
    elapsed = time.monotonic() - start
    ok = (
        report.pass_fraction["D"] >= 0.95
        and report.pass_fraction["C"] >= 0.95
        and report.pass_fraction["l"] >= 0.95
        and elapsed < 60.0
    )
    check(
        "5 monte-carlo",
        ok,
        f"pass fractions D {report.pass_fraction['D']:.2f}, "
        f"C {report.pass_fraction['C']:.2f}, "
        f"l {report.pass_fraction['l']:.2f}, {elapsed:.1f} s",
    )


def test_c06_exact_enumeration(check):
    """Exhaustive path enumeration on small acyclic networks reproduces the
    analytic quantities, including source distances, to 1e-9.
    """
    worst = 0.0
    for spec in (
        GeneratorSpec(family="random-tree", size=12, seed=31),
        GeneratorSpec(family="random-cyclic", size=12, recirculation=0.0, seed=32),
        GeneratorSpec(family="random-tree", size=9, seed=33),
    ):
        net = generate(spec)
        res = enumerate_walks(net)
        fm = fundamental_matrix(transition_matrix(net))
        stats = node_flows(net, fm)
        l0 = source_distances(fm)
        gaps = [
            np.abs(res.through_flow() - stats.through_flow).max(),
            np.abs(res.dissipation() - stats.dissipation).max(),
            np.abs(res.impact() - stats.impact).max(),
            np.nanmax(np.abs(res.source_distance() - l0)),
        ]
        worst = max(worst, max(gaps))
    check("6 exact-enumeration", worst <= 1e-9, f"max deviation {worst:.2e}")


def test_c07_fit_recovery(check):
    """Power-law fit recovers a planted exponent of 1.40 within 0.02 from
    1000 points under lognormal noise of sigma 0.1.
    """
    rng = np.random.default_rng(777)
    x = 10 ** rng.uniform(0.0, 3.0, size=1000)
    y = 0.5 * x**1.40 * rng.lognormal(mean=0.0, sigma=0.1, size=1000)
    fit = fit_power_law(x, y)
    gap = abs(fit.exponent - 1.40)
    check("7 fit-recovery", gap <= 0.02, f"exponent {fit.exponent:.4f}, gap {gap:.4f}")


def test_c08_gini_fixtures(check):
    """Gini fixtures plus scale invariance at 1e-12."""
    fixtures_ok = (
        abs(gini([1.0, 0.0, 0.0, 0.0]) - 0.75) <= 1e-12
        and abs(gini([2.0] * 8)) <= 1e-12
        and abs(gini([1.0, 3.0]) - 0.25) <= 1e-12
    )
    rng = np.random.default_rng(4242)
    x = rng.pareto(1.8, size=500) + 1e-3
    invariance_gap = abs(gini(x) - gini(7.31 * x))
    ok = fixtures_ok and invariance_gap <= 1e-12
    check(
        "8 gini",
        ok,
        f"fixtures {fixtures_ok}, scale invariance gap {invariance_gap:.2e}",
    )


def test_c09_regression_recovery(check):
    """OLS recovers generative slope coefficients (0.679, -0.344, 0.856,
    -0.063) within 3 reported standard errors on n=5000 Gaussian-noise
    draws, for at least 18 of 20 seeds.
    """
    truth = {"ln_D": 0.679, "ln_S": -0.344, "ln_C": 0.856, "l": -0.063}
    intercept = -1.183
    n = 5000
    passes = 0
    for seed in range(20):
        rng = np.random.default_rng(9000 + seed)
        ln_D = rng.normal(1.0, 1.2, n)
        ln_S = 0.4 * ln_D + rng.normal(0.5, 1.0, n)
        ln_C = 0.5 * ln_D + rng.normal(1.5, 0.9, n)
        l = rng.gamma(4.0, 0.5, n) + 1.0
        response = (
            intercept
            + truth["ln_D"] * ln_D
            + truth["ln_S"] * ln_S
            + truth["ln_C"] * ln_C
            + truth["l"] * l
            + rng.normal(0.0, 0.5, n)
        )
        result = ols_regress(
            response, {"ln_D": ln_D, "ln_S": ln_S, "ln_C": ln_C, "l": l}
        )
        by_name = dict(zip(result.names, zip(result.estimates, result.stderr)))
        ok = all(
            abs(by_name[name][0] - value) <= 3.0 * by_name[name][1]
            for name, value in truth.items()
        )
        passes += int(ok)
    check("9 regression-recovery", passes >= 18, f"{passes}/20 seeds within 3 SE")


@pytest.fixture(scope="module")
def scale_network(tmp_path_factory, child_env):
    """25,000-node, ~375,000-edge certified network written to disk once."""
    root = tmp_path_factory.mktemp("scale")
    out = root / "gen"
    proc = subprocess.run(
        [
            sys.executable,
            "-m",
            "attnflow",
            "generate",
            "--family",
            "random-cyclic",
            "--size",
            "25000",
            "--recirculation",
            "0.25",
            "--avg-degree",
            "13.6",
            "--seed",
            "1",
            "--out",
            str(out),
        ],
        env=child_env,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    info = json.loads((out / "generate.json").read_text())
    assert info["certified"] is True
    assert info["nodes"] == 25000
    assert 340_000 <= info["edges"] <= 410_000
    return out / "network.csv"


def _run_pipeline(network_csv, cwd, env) -> tuple[float, float, dict]:
    """Run the no-pairwise pipeline in a child; return its wall time, its
    own peak RSS in GB and the summary.

    The child is reaped with ``os.wait4``, whose rusage covers that child
    alone, unlike ``RUSAGE_CHILDREN``, which keeps the largest RSS of every
    child the test process has waited for.
    """
    os.makedirs(cwd, exist_ok=True)
    start = time.monotonic()
    with tempfile.TemporaryFile(mode="w+") as stderr:
        proc = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "attnflow",
                "pipeline",
                "--input",
                str(network_csv),
                "--input-kind",
                "network",
                "--analyses",
                "stats,distance,fits,gini,zipf",
                "--out",
                "run",
            ],
            cwd=cwd,
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=stderr,
            text=True,
        )
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        elapsed = time.monotonic() - start
        stderr.seek(0)
        assert proc.returncode == 0, stderr.read()
    peak_gb = usage.ru_maxrss / (1024.0 * 1024.0)
    summary = json.loads((cwd / "run" / "summary.json").read_text())
    return elapsed, peak_gb, summary


def test_c10_scale_budget(scale_network, tmp_path, check, child_env):
    """The no-pairwise pipeline handles 25,000 nodes / ~375,000 edges
    within 10 minutes and 4 GB, never forming a dense interior matrix.
    """
    elapsed, peak_child_gb, summary = _run_pipeline(
        scale_network, tmp_path / "cwd1", child_env
    )
    ok = (
        elapsed < 600.0
        and peak_child_gb < 4.0
        and summary["nodes"] == 25000
        and "exponent" in summary["fits"]["fit_D_vs_A"]
    )
    check(
        "10 scale-budget",
        ok,
        f"{summary['nodes']} nodes / {summary['edges']} edges in {elapsed:.0f} s, "
        f"peak child rss {peak_child_gb:.2f} GB",
    )


def test_c10b_no_dense_matrix_at_scale(scale_network, check):
    """Structural guard: above the dense threshold the interior inverse
    cannot be materialized, so scale runs stay factorization-only.
    """
    from attnflow import read_network

    net = read_network(scale_network)
    fm = fundamental_matrix(transition_matrix(net))
    with pytest.raises(MemoryError):
        fm.matrix()
    check("10b dense-guard", True, "dense inverse refused at n=25000")


def test_c11_pipeline_determinism(scale_network, tmp_path, check, child_env):
    """Two pipeline runs with identical effective configuration produce
    byte-identical artifact trees.
    """
    for sub in ("cwd1", "cwd2"):
        _run_pipeline(scale_network, tmp_path / sub, child_env)
    one = tmp_path / "cwd1" / "run"
    two = tmp_path / "cwd2" / "run"
    names = sorted(os.listdir(one))
    same_names = names == sorted(os.listdir(two))
    diff = [n for n in names if (one / n).read_bytes() != (two / n).read_bytes()]
    ok = same_names and not diff
    check(
        "11 determinism",
        ok,
        f"{len(names)} artifacts compared, mismatches: {diff or 'none'}",
    )


def _network_trees(tmp_path, env, networks: dict) -> list[dict]:
    """Run the pipeline (which must exit 0) on each network's bytes, held as
    ``network.csv`` in its own cwd so that config.json names the same
    relative path; return each run's artifacts by name.
    """
    trees = []
    for sub, data in networks.items():
        cwd = tmp_path / sub
        cwd.mkdir()
        (cwd / "network.csv").write_bytes(data)
        _run_pipeline("network.csv", cwd, env)
        run = cwd / "run"
        trees.append({name: (run / name).read_bytes() for name in os.listdir(run)})
    return trees


def test_c11_readers_agree_at_scale(scale_network, tmp_path, check, child_env):
    """The scale network with one label needlessly quoted reads as the same
    network, but through csv.reader instead of the byte-scan split; the
    pipeline writes the same artifact tree from both, byte for byte.
    """
    plain = scale_network.read_bytes()
    start = plain.index(b",", plain.index(b"\r\n")) + 1  # the first row's dst label
    end = plain.index(b",", start)
    quoted = plain[:start] + b'"' + plain[start:end] + b'"' + plain[end:]
    trees = _network_trees(tmp_path, child_env, {"plain": plain, "quoted": quoted})
    diff = sorted(n for n in trees[0].keys() | trees[1].keys() if trees[0].get(n) != trees[1].get(n))
    check(
        "11 readers agree",
        not diff,
        f"label {plain[start:end].decode()} quoted, {len(trees[0])} artifacts compared, "
        f"mismatches: {diff or 'none'}",
    )


def test_c11_prune_at_scale(scale_network, tmp_path, check, child_env):
    """The scale network with an isolated 2-cycle appended certifies by
    one prune of the cycle's two nodes, and the pipeline writes the same
    artifact tree, byte for byte, as from the network alone.
    """
    plain = scale_network.read_bytes()
    cycle = b"cycle-a,cycle-b,1.0\r\ncycle-b,cycle-a,1.0\r\n"
    trees = _network_trees(tmp_path, child_env, {"plain": plain, "cycle": plain + cycle})
    diff = sorted(n for n in trees[0].keys() | trees[1].keys() if trees[0].get(n) != trees[1].get(n))
    check(
        "11 prune at scale",
        not diff,
        f"2-cycle appended and pruned, {len(trees[0])} artifacts compared, "
        f"mismatches: {diff or 'none'}",
    )


def test_c11_dense_route_ignores_blas_threads(tmp_path, check, child_env):
    """On a random-cyclic network, whose SCCs (at most 64 nodes) all take
    the dense route, pipeline writes the same artifact tree, byte for
    byte, at one and at two OpenBLAS threads: for SCCs this small each
    LAPACK inverse in its size's stack, and each product with it, sums in
    an order that does not follow the thread count. That does not hold
    for larger dense-route SCCs: on session logs, a 97-node giant SCC gave
    the same stats.csv at both counts, but 116-, 238- and 288-node ones
    differed in the last digits on 36 of 120, 102 of 250 and 143 of 300
    rows. A hub core's inverse follows the thread count too."""
    net = generate(GeneratorSpec(family="random-cyclic", size=3000, recirculation=0.25,
                                 seed=3, avg_degree=6))
    write_network(net, tmp_path / "network.csv")
    trees = []
    for threads in ("1", "2"):
        cwd = tmp_path / f"threads-{threads}"
        cwd.mkdir()
        subprocess.run(
            [sys.executable, "-m", "attnflow", "pipeline", "--input", "../network.csv",
             "--input-kind", "network", "--out", "run"],
            cwd=cwd, env=dict(child_env, OPENBLAS_NUM_THREADS=threads), check=True,
            stdout=subprocess.DEVNULL,
        )
        run = cwd / "run"
        trees.append({name: (run / name).read_bytes() for name in os.listdir(run)})
    diff = sorted(n for n in trees[0].keys() | trees[1].keys() if trees[0].get(n) != trees[1].get(n))
    check(
        "11 blas-threads",
        not diff,
        f"{net.n_interior} nodes, {len(trees[0])} artifacts compared at 1 and 2 threads, "
        f"mismatches: {diff or 'none'}",
    )


def test_c12_giant_scc_selected_inversion(check):
    """A session log's giant SCC above the dense route's cut: diag(U) and
    diag(U^2), read from the selected inverse of its one shifted factor,
    match a dense inverse, and C and l_source are finite.
    """
    log = generate(GeneratorSpec("session-log", 1200, seed=3))
    net, _ = certify(build_flow_network(to_transition_edges(log)))
    tm = transition_matrix(net)
    n = tm.n_interior
    fm = fundamental_matrix(tm)
    (giant, _), = fm._factored
    U = np.linalg.inv(np.eye(n) - tm.interior.toarray())
    err_u = float(np.abs(fm.diagonal() / np.diag(U) - 1).max())
    err_u2 = float(np.abs(fm.squared_diagonal() / np.einsum("ij,ji->i", U, U) - 1).max())
    stats = node_flows(net, fm)
    finite = bool(np.isfinite(stats.impact).all() and np.isfinite(source_distances(fm)).all())
    ok = giant.size > _DENSE_ROUTE_MAX and max(err_u, err_u2) <= 1e-12 and finite
    check(
        "12 giant-scc-diagonals",
        ok,
        f"giant SCC {giant.size} of {n} nodes, rel err diag(U) {err_u:.1e}, "
        f"diag(U^2) {err_u2:.1e}, C and l_source finite {finite}",
    )
