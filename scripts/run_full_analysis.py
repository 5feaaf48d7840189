"""End-to-end demonstration on a synthetic browsing log.

Generates a session log, runs ``attnflow pipeline`` on it, and prints the
headline quantities from the run's ``summary.json`` and ``network.json``:
flow totals, scaling exponents, Gini concentration, the flow regression,
and the audience duplication filter.

Usage:
    python3 scripts/run_full_analysis.py [--size 400] [--seed 0] [--out out/demo]
"""
import argparse
import json
import os
import sys
import tempfile

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from attnflow.cli import main as attnflow


def _read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _skipped(entry) -> str | None:
    """The message of an analysis the pipeline recorded as failed."""
    return entry["message"] if isinstance(entry, dict) and "code" in entry else None


def digest(run: str) -> None:
    summary = _read_json(os.path.join(run, "summary.json"))
    network = _read_json(os.path.join(run, "network.json"))
    print(f"log: {summary['users']} users, {summary['sessions']} sessions, "
          f"{summary['visits']} visits")
    print(f"network: {network['n_interior']} nodes, {network['n_edges']} edges, "
          f"certified={network['validation']['certified']}")
    print(f"flow totals: sum A = {summary['sum_A']:.1f}, sum D = {summary['sum_D']:.1f} "
          f"(source outflow {summary['source_outflow']:.1f})")

    for name, fit in summary["fits"].items():
        if _skipped(fit):
            print(f"{name}: skipped ({_skipped(fit)})")
        else:
            print(f"{name}: exponent {fit['exponent']:+.3f} (se {fit['stderr_exponent']:.3f}, "
                  f"R^2 {fit['r_squared']:.3f}, n {fit['n_points']})")

    ginis = {c: _skipped(g) or f"{g:.3f}" for c, g in summary["gini"].items()}
    print(f"concentration: gini(A) = {ginis['A']}, gini(D) = {ginis['D']}")

    regression = summary["regression"]
    if _skipped(regression):
        print(f"regression: skipped ({_skipped(regression)})")
    else:
        print(f"regression on ln A ({regression['n_observations']} rows, "
              f"{regression['dropped_rows']} dropped):")
        with open(os.path.join(run, "regression.txt"), encoding="utf-8") as fh:
            print(fh.read(), end="")

    dup = summary["duplication"]
    if _skipped(dup):
        print(f"duplication filter: skipped ({_skipped(dup)})")
    else:
        print(f"duplication filter: kept {dup['edges_after']}/{dup['edges_before']} overlap "
              f"edges ({dup['retained_fraction']:.0%})")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--size", type=int, default=400, help="number of items")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out", default=None, help="run directory (default: a temporary one)")
    args = ap.parse_args()

    with tempfile.TemporaryDirectory() as scratch:
        run = args.out or scratch
        log_dir = os.path.join(run, "log")
        generate = ["generate", "--family", "session-log", "--size", str(args.size),
                    "--seed", str(args.seed), "--out", log_dir]
        pipeline = ["pipeline", "--input", os.path.join(log_dir, "sessions.csv"), "--out", run]
        if attnflow(generate) or attnflow(pipeline):
            return 1
        digest(run)
    return 0


if __name__ == "__main__":
    sys.exit(main())
