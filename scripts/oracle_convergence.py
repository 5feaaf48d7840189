"""Monte Carlo oracle convergence sweep.

Doubles the walker count repeatedly on one cyclic network and reports the
error of the simulated through-flow, dissipation, impact and source
distances against the analytic values, together with the 3-sigma pass
fraction.
The error columns should shrink roughly as 1/sqrt(walkers).

Usage:
    python3 scripts/oracle_convergence.py [--size 50] [--max-walkers 1e6]
"""
import argparse
import os
import sys
import time

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from attnflow import (
    GeneratorSpec,
    compare,
    fundamental_matrix,
    generate,
    node_flows,
    simulate_walkers,
    source_distances,
    transition_matrix,
)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--size", type=int, default=50)
    ap.add_argument("--recirculation", type=float, default=0.3)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--max-walkers", type=float, default=1e6)
    args = ap.parse_args()

    net = generate(
        GeneratorSpec(
            family="random-cyclic",
            size=args.size,
            recirculation=args.recirculation,
            seed=args.seed,
        )
    )
    fm = fundamental_matrix(transition_matrix(net))
    stats = node_flows(net, fm)
    l0 = source_distances(fm)

    print(f"{'walkers':>9} {'rms A err':>10} {'rms D err':>10} {'rms C err':>10} "
          f"{'rms l err':>10} {'pass frac':>10} {'sim s':>6}")
    walkers = 1000
    while walkers <= args.max_walkers:
        t0 = time.monotonic()
        est = simulate_walkers(net, walkers, seed=args.seed + 1)
        elapsed = time.monotonic() - t0
        a_err = np.sqrt(np.mean((est.through_flow_estimate()[0] - stats.through_flow) ** 2))
        d_err = np.sqrt(np.mean((est.dissipation_estimate()[0] - stats.dissipation) ** 2))
        c_err = np.sqrt(np.mean((est.impact_estimate()[0] - stats.impact) ** 2))
        l_hat = est.source_distance_estimate()[0]
        mask = np.isfinite(l0) & np.isfinite(l_hat)
        l_err = np.sqrt(np.mean((l_hat[mask] - l0[mask]) ** 2))
        report = compare(est, stats, source_distance=l0)
        print(
            f"{walkers:>9} {a_err:>10.4f} {d_err:>10.4f} {c_err:>10.4f} {l_err:>10.4f} "
            f"{report.overall_pass_fraction:>10.3f} {elapsed:>6.1f}"
        )
        walkers *= 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
