"""End-to-end demonstration on a synthetic browsing log.

Generates a session log, builds the balanced network, runs the full flow
calculus, and prints the headline quantities: scaling exponents, Gini
concentration, the flow regression, and the audience duplication filter.

Usage:
    python3 scripts/run_full_analysis.py [--size 400] [--seed 0] [--out out/demo]
"""
import argparse
import json
import os
import sys

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from attnflow import (
    GeneratorSpec,
    build_flow_network,
    certify,
    duplication_filter,
    fit_power_law,
    fundamental_matrix,
    generate,
    gini,
    node_flows,
    ols_regress,
    regression_feature_table,
    source_distances,
    to_transition_edges,
    transition_matrix,
)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--size", type=int, default=400, help="number of items")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out", default=None, help="optional JSON summary path")
    args = ap.parse_args()

    log = generate(GeneratorSpec(family="session-log", size=args.size, seed=args.seed))
    print(
        f"log: {log.n_users} users, {log.n_sessions} sessions, "
        f"{log.n_visits} visits over {len(log.item_registry)} items"
    )

    net, report = certify(build_flow_network(to_transition_edges(log)))
    print(
        f"network: {net.n_interior} nodes, {net.n_edges} edges, "
        f"certified={report.certified}"
    )

    fm = fundamental_matrix(transition_matrix(net))
    stats = node_flows(net, fm)
    l0 = source_distances(fm)
    print(
        f"flow totals: sum A = {stats.through_flow.sum():.1f}, "
        f"sum D = {stats.dissipation.sum():.1f} "
        f"(source outflow {net.total_source_outflow():.1f})"
    )

    summary = {"nodes": net.n_interior, "edges": net.n_edges}
    for name, x, y in (
        ("D_vs_A", stats.through_flow, stats.dissipation),
        ("A_vs_S", stats.source_inflow, stats.through_flow),
        ("C_vs_A", stats.through_flow, stats.impact),
    ):
        try:
            fit = fit_power_law(x, y)
        except Exception as exc:
            print(f"fit {name}: skipped ({exc})")
            continue
        print(
            f"fit {name}: exponent {fit.exponent:+.3f} "
            f"(se {fit.stderr_exponent:.3f}, R^2 {fit.r_squared:.3f}, "
            f"n {fit.n_points})"
        )
        summary[f"fit_{name}"] = fit.to_dict()

    g_a, g_d = gini(stats.through_flow), gini(stats.dissipation)
    print(f"concentration: gini(A) = {g_a:.3f}, gini(D) = {g_d:.3f}")
    summary["gini_A"], summary["gini_D"] = g_a, g_d

    try:
        table = regression_feature_table(stats, l0)
        result = ols_regress(table.response, table.columns)
        print(f"regression on ln A ({result.n_observations} rows, "
              f"{table.dropped} dropped):")
        print(result.table())
        summary["regression"] = result.to_dict()
    except Exception as exc:
        print(f"regression: skipped ({exc})")

    dup = duplication_filter(log)
    print(
        f"duplication filter: kept {len(dup.kept)}/{len(dup.observed)} overlap "
        f"edges ({dup.retained_fraction():.0%})"
    )
    summary["duplication_retained"] = dup.retained_fraction()

    if args.out:
        os.makedirs(os.path.dirname(args.out) or ".", exist_ok=True)
        with open(args.out, "w") as fh:
            json.dump(summary, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"summary written to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
