"""attnflow benchmark: whole CLI workloads, each command run in a fresh
interpreter, with every output checked.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One closed-loop client: each iteration starts a fresh interpreter, which
imports ``attnflow.cli`` and then runs the workload's commands back to
back; the next iteration starts when the previous one has ended and its
outputs have been checked. Iterations repeat until ``--seconds`` is used
up. Inputs are built from ``--seed`` before the first iteration, outside
the timed region.

``--trace 0`` reports the end-to-end metrics (medians over iterations).
``--trace 1`` alternates untraced and traced iterations and reports the
per-layer metrics (medians over traced iterations). The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import inputs  # noqa: E402
import tracing  # noqa: E402

#: Sizes are chosen so one iteration takes a few seconds on 2 cores, which
#: lets a run hold several iterations; see README.md for why each exists.
WORKLOADS = {
    "cyclic-8k": {"kind": "network", "nodes": 8000},
    "sessions-600": {"kind": "log", "items": 600, "dense_threshold": 256},
    "synthetic-audit": {"kind": "audit", "size": 3000, "walkers": 200_000},
}

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

MIN_ITERATIONS = 3
CHILD_TIMEOUT_S = 90  # keeps a run with a hung child under 180 s


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name and its unit."""
    names = list(tracing.layer_metrics([], {})) + ["trace.overhead_s", "trace.missing_targets"]
    units = {}
    for name in names:
        if name.endswith("_s"):
            units[name] = "1/s" if name.endswith("per_s") else "s"
        elif name.endswith("_mb"):
            units[name] = "MB"
        elif name.endswith("_frac"):
            units[name] = "ratio"
        else:
            units[name] = "count"
    return units


def prepare(params: dict, seed: int, work: Path) -> tuple[dict, Path | None]:
    """Write the workload's input; return its fingerprint and path."""
    if params["kind"] == "network":
        path = work / "network-input.csv"
        return inputs.cyclic_network(path, seed, params["nodes"]), path
    if params["kind"] == "log":
        path = work / "sessions.csv"
        return inputs.session_log(path, seed, params["items"]), path
    return {}, None  # the audit generates its own network


def commands(params: dict, seed: int, fingerprint: dict, source: Path | None, out: Path) -> list[list[str]]:
    if params["kind"] == "network":
        return [["pipeline", "--input-kind", "network", "--input", str(source), "--out", str(out)]]
    if params["kind"] == "log":
        return [[
            "pipeline", "--input", str(source), "--out", str(out),
            "--gap-seconds", str(fingerprint["gap_seconds"]),
            "--dense-threshold", str(params["dense_threshold"]),
        ]]
    net = out / "net" / "network.csv"
    return [
        ["generate", "--family", "random-cyclic", "--size", str(params["size"]),
         "--avg-degree", "6", "--recirculation", "0.25", "--seed", str(seed),
         "--out", str(out / "net")],
        ["simulate", "--input", str(net), "--walkers", str(params["walkers"]),
         "--seed", str(seed), "--out", str(out / "sim")],
        ["compare", "--input", str(net), "--tallies", str(out / "sim" / "tallies.json"),
         "--out", str(out / "cmp")],
    ]


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    # One BLAS thread: the client is one sequential process, and on a
    # shared VM idle BLAS workers spin, which makes CPU time noisy and
    # adds another vCPU's stolen time to wall time.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def spawn(cmds: list[list[str]], trace: bool, out: Path) -> dict | None:
    """Run one fresh interpreter; None if it failed before reporting."""
    out.mkdir(parents=True)
    spec = out / "spec.json"
    result = out / "result.json"
    spec.write_text(json.dumps({"src": str(SRC), "commands": cmds, "trace": trace,
                                "result": str(result)}))
    with open(out / "stderr.txt", "w") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, str(HERE / "child.py"), str(spec)],
                                stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                                stderr=err, env=child_env(), text=True)
        try:
            ready = proc.stdout.readline()
            setup = time.perf_counter() - start
            proc.communicate(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            pass  # killed below, so its non-zero exit marks it failed
        finally:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
            proc.stdout.close()
    if ready.strip() != "ready" or proc.returncode != 0 or not result.exists():
        sys.stderr.write((out / "stderr.txt").read_text()[-2000:])
        return None
    report = json.loads(result.read_text())
    report["setup_s"] = setup
    return report


def run(name: str, seed: int, seconds: float, trace: bool, params: dict | None = None) -> dict:
    params = params or WORKLOADS[name]
    work = ROOT / ".perfbench" / f"work-{name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        return _measure(name, seed, seconds, trace, params, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _measure(name, seed, seconds, trace, params, work) -> dict:
    fingerprint, source = prepare(params, seed, work)
    spawn([], False, work / "warmup")  # compiles bytecode, warms the file cache

    attempted = failed = 0
    problems: list[str] = []
    plain: list[dict] = []
    traced: list[dict] = []
    ref_cache: dict = {}
    first: dict = {}
    start = time.perf_counter()
    k = 0
    while True:
        out = work / f"iter{k}"
        cmds = commands(params, seed, fingerprint, source, out / "run")
        traced_now = trace and k % 2 == 1
        report = spawn(cmds, traced_now, out)
        codes = report["codes"] if report else [None] * len(cmds)
        attempted += len(cmds)
        failed += sum(code != 0 for code in codes)
        problems += [f"iteration {k}: command {c[0]} exited {code}"
                     for c, code in zip(cmds, codes) if code != 0]
        if params["kind"] == "audit":
            results = checks.check_audit(out / "run", params["size"], first)
            if not fingerprint and report and all(code == 0 for code in codes):
                fingerprint = checks.audit_fingerprint(out / "run")
        else:
            results = checks.check_pipeline(out / "run", fingerprint, ref_cache, seed)
        attempted += len(results)
        failed += sum(not ok for _, ok, _ in results)
        problems += [f"iteration {k}: check {check} failed: {detail}"
                     for check, ok, detail in results if not ok]
        if report:
            (traced if traced_now else plain).append(report)
        shutil.rmtree(out)
        k += 1
        elapsed = time.perf_counter() - start
        if k >= (2 if trace else MIN_ITERATIONS) and elapsed * (k + 1) / k > seconds:
            break

    if not plain or (trace and not traced):
        raise RuntimeError("no iteration completed: " + "; ".join(problems[-5:]))
    if trace:
        metrics = _layer_medians(traced)
        metrics["trace.overhead_s"] = (statistics.median(r["wall_s"] for r in traced)
                                       - statistics.median(r["wall_s"] for r in plain))
        metrics["trace.missing_targets"] = float(len(traced[0]["missing"]))
        _write_spans(name, seed, fingerprint, traced, metrics)
        units = per_layer_units()
    else:
        metrics = {key: statistics.median(r[key] for r in plain) for key in END_TO_END}
        units = END_TO_END
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {key: {"value": metrics[key], "unit": unit} for key, unit in units.items()},
        "fingerprint": fingerprint,
        "samples": {key: [r[key] for r in plain] for key in END_TO_END},
        "traced_iterations": len(traced),
        "problems": problems,
    }


def _layer_medians(traced: list[dict]) -> dict[str, float]:
    per_run = [tracing.layer_metrics(r["spans"], r["counters"]) for r in traced]
    return {key: statistics.median(m[key] for m in per_run) for key in per_run[0]}


def _write_spans(name, seed, fingerprint, traced, metrics) -> None:
    """Spans of every traced iteration, plus the largest self times."""
    self_by_name = [tracing.aggregate(r["spans"])["self_by_name"] for r in traced]
    names = set().union(*self_by_name)
    largest = sorted(((statistics.median(s.get(n, 0.0) for s in self_by_name), n) for n in names),
                     reverse=True)
    path = ROOT / ".perfbench" / f"{name}-seed{seed}-spans.json"
    path.write_text(json.dumps({
        "workload": name, "seed": seed, "fingerprint": fingerprint, "metrics": metrics,
        "largest_self_s": [[n, t] for t, n in largest[:5]],
        "iterations": [{"spans": r["spans"], "counters": r["counters"], "wall_s": r["wall_s"]}
                       for r in traced],
    }, indent=1))
    print("largest self time: " + ", ".join(f"{n} {t:.3f} s" for t, n in largest[:3]))
    print(f"spans written to {path.relative_to(ROOT)}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "attnflow" / "cli.py").is_file():
        print(f"perfbench: no program source at {SRC}", file=sys.stderr)
        return 2
    # On SIGTERM, unwind through the finally blocks, so the running child
    # is killed and waited for and the work directory is removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    for problem in result["problems"]:
        print(problem, file=sys.stderr)
    print(f"workload {args.workload} seed {args.seed}, "
          f"input {json.dumps(result['fingerprint'], sort_keys=True)}")
    for key, values in result["samples"].items():
        print(f"  {key} over {len(values)} untraced iterations: "
              + " ".join(f"{v:.4g}" for v in values))
    if args.trace:
        print(f"  per-layer medians over {result['traced_iterations']} traced iterations")
    for key, metric in result["metrics"].items():
        print(f"  {key:34s} {metric['value']:.6g} {metric['unit']}")
    print(f"  {'ops_failed_frac':34s} {result['failed'] / result['attempted']:.6g} ratio "
          f"({result['failed']} failed of {result['attempted']} attempted)")
    print(json.dumps({key: result[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
