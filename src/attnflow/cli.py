"""Command-line front end: reproducible runs of the ingest -> build ->
calculus -> fits chain with deterministic, byte-stable artifacts.

Every command echoes its effective configuration (defaults, then config
file, then flags) into the output directory, writes artifacts with
repr-precision floats and sorted JSON keys, and removes partial outputs
on failure. Errors exit 1 with a single machine-parseable line
``ErrorName: message`` on stderr.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict, dataclass, fields

import numpy as np

from . import __version__
from ._linalg import DENSE_THRESHOLD
from .distance import (
    PAIRWISE_CAP,
    pairwise_distances,
    source_distances,
    write_pairwise,
    write_source_distances,
)
from .errors import AttnFlowError
from .flowcalc import (
    STATS_HEADER,
    NodeFlowStats,
    fundamental_matrix,
    node_flows,
    read_stats_csv,
    transition_matrix,
    write_stats_csv,
)
from .ingest import LogFormat, parse_log, serialize_log, sessionize, to_transition_edges
from .network import (
    build_flow_network,
    certify,
    read_network,
    validate,
    write_edges,
    write_network,
)
from .oracle import (
    GeneratorSpec,
    WalkEstimate,
    compare,
    generate,
    simulate_walkers,
    write_estimates_csv,
)
from .stats import (
    concentration,
    duplication_filter,
    fit_power_law,
    gini,
    ols_regress,
    regression_feature_table,
    write_duplication_csv,
    write_zipf_csv,
)

COMMANDS = (
    "ingest",
    "build",
    "stats",
    "distance",
    "fit",
    "gini",
    "zipf",
    "duplication",
    "regress",
    "simulate",
    "generate",
    "pipeline",
    "compare",
)

SUMMARY_SCHEMA_VERSION = 1


@dataclass
class RunConfig:
    """Effective settings for one command; every field has a default."""

    input: str | None = None
    out: str = "out"
    input_kind: str = "log"
    mode: str = "session-closed"
    gap_seconds: float | None = None
    delimiter: str = ","
    header: bool = False
    dense_threshold: int = DENSE_THRESHOLD
    pairwise_cap: int = PAIRWISE_CAP
    pairwise: bool = False
    seed: int = 0
    walkers: int = 100_000
    multiplier: float = 3.0
    family: str = "random-cyclic"
    size: int = 100
    weight_scale: float = 1.0
    recirculation: float = 0.2
    exponent: float | None = None
    avg_degree: float | None = None
    x: str = "A"
    y: str = "D"
    column: str = "A"
    tallies: str | None = None
    analyses: str = "stats,distance,fits,gini,zipf,regress,duplication"


_BOOL_FIELDS = {"header", "pairwise"}
_INT_FIELDS = {"dense_threshold", "pairwise_cap", "seed", "size"}
_FLOAT_FIELDS = {"gap_seconds", "multiplier", "weight_scale", "recirculation", "exponent", "avg_degree"}

_FIELD_NAMES = {f.name for f in fields(RunConfig)}


def _convert(name: str, raw: str):
    if name in _BOOL_FIELDS:
        if raw.lower() in ("1", "true", "yes", "on"):
            return True
        if raw.lower() in ("0", "false", "no", "off"):
            return False
        raise ValueError(f"config key {name}: expected boolean, got {raw!r}")
    if name == "walkers":
        return int(float(raw))
    if name in _INT_FIELDS:
        return int(raw)
    if name in _FLOAT_FIELDS:
        return float(raw)
    return raw


def load_config_file(path: str) -> dict:
    """key = value lines; blank lines and # comments ignored."""
    values: dict = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.strip()
            if not text or text.startswith("#"):
                continue
            if "=" not in text:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {text!r}")
            key, _, raw = text.partition("=")
            key = key.strip().replace("-", "_")
            if key not in _FIELD_NAMES:
                raise ValueError(f"{path}:{lineno}: unknown config key {key!r}")
            values[key] = _convert(key, raw.strip())
    return values


def merge_config(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig()
    if getattr(args, "config", None):
        for key, value in load_config_file(args.config).items():
            setattr(cfg, key, value)
    for key in _FIELD_NAMES:
        value = getattr(args, key, None)
        if value is not None:
            setattr(cfg, key, value)
    return cfg


class ArtifactDir:
    """Tracks files written during a command so failures leave no
    partial artifacts behind.
    """

    def __init__(self, path: str):
        self.root = path
        self.created: list[str] = []
        os.makedirs(path, exist_ok=True)

    def path(self, name: str) -> str:
        full = os.path.join(self.root, name)
        self.created.append(full)
        return full

    def write_json(self, name: str, obj) -> str:
        full = self.path(name)
        with open(full, "w") as fh:
            json.dump(obj, fh, sort_keys=True, indent=2)
            fh.write("\n")
        return full

    def write_text(self, name: str, text: str) -> str:
        full = self.path(name)
        with open(full, "w") as fh:
            fh.write(text)
        return full

    def cleanup(self) -> None:
        for full in self.created:
            try:
                os.unlink(full)
            except OSError:
                pass


def _echo_config(cfg: RunConfig, art: ArtifactDir, command: str) -> None:
    payload = {"command": command, "version": __version__, **asdict(cfg)}
    art.write_json("config.json", payload)


def _error_payload(exc: Exception) -> dict:
    code = exc.code if isinstance(exc, AttnFlowError) else type(exc).__name__
    return {"error": {"code": code, "message": str(exc)}}


def _read_log(cfg: RunConfig):
    fmt = LogFormat(delimiter=cfg.delimiter, has_header=cfg.header)
    with open(cfg.input, "rb") as fh:
        log = parse_log(fh, fmt)
    return sessionize(log, cfg.gap_seconds)


def _load_network(cfg: RunConfig):
    net, _ = certify(read_network(cfg.input))
    return net


def _require_input(cfg: RunConfig) -> None:
    if cfg.input is None:
        raise ValueError("--input is required for this command")
    if not os.path.exists(cfg.input):
        raise FileNotFoundError(f"input path does not exist: {cfg.input}")


def cmd_ingest(cfg: RunConfig, art: ArtifactDir) -> None:
    _require_input(cfg)
    log = _read_log(cfg)
    edges = to_transition_edges(log, cfg.mode)
    write_edges(art.path("edges.csv"), edges)
    art.write_json(
        "ingest.json",
        {
            "users": log.n_users,
            "sessions": log.n_sessions,
            "visits": log.n_visits,
            "records": log.n_records,
            "items": len(log.item_registry),
            "mode": cfg.mode,
        },
    )


def cmd_build(cfg: RunConfig, art: ArtifactDir) -> None:
    _require_input(cfg)
    built = read_network(cfg.input)
    net, report = certify(built)
    dropped = built.n_interior - net.n_interior
    write_network(net, art.path("network.csv"), art.path("network.json"), report)
    art.write_json(
        "build.json",
        {
            "nodes": net.n_interior,
            "edges": net.n_edges,
            "dropped_nodes": dropped,
            "certified": report.certified,
            "max_residual": report.max_residual,
        },
    )


def _stats_payload(net, stats: NodeFlowStats) -> dict:
    totals = stats.totals()
    return {
        "nodes": net.n_interior,
        "edges": net.n_edges,
        "sum_A": totals["A"],
        "sum_D": totals["D"],
        "sum_S": totals["S"],
        "source_outflow": net.total_source_outflow(),
        "flux_residual": stats.flux_residual(),
    }


def cmd_stats(cfg: RunConfig, art: ArtifactDir) -> None:
    _require_input(cfg)
    net = _load_network(cfg)
    fm = fundamental_matrix(transition_matrix(net), cfg.dense_threshold)
    stats = node_flows(net, fm)
    write_stats_csv(art.path("stats.csv"), stats)
    art.write_json("stats.json", _stats_payload(net, stats))


def cmd_distance(cfg: RunConfig, art: ArtifactDir) -> None:
    _require_input(cfg)
    net = _load_network(cfg)
    fm = fundamental_matrix(transition_matrix(net), cfg.dense_threshold)
    l0 = source_distances(fm)
    write_source_distances(art.path("source_distance.csv"), net.items, l0)
    if cfg.pairwise:
        t, l, c = pairwise_distances(fm, cfg.pairwise_cap)
        write_pairwise(art.path("pairwise.csv"), net.items, t, l, c)


def _stats_column(stats: NodeFlowStats, name: str) -> np.ndarray:
    cols = stats.columns()
    if name not in cols:
        raise ValueError(f"unknown stats column {name!r}; choose from {sorted(cols)}")
    return cols[name]


def cmd_fit(cfg: RunConfig, art: ArtifactDir) -> None:
    _require_input(cfg)
    stats = read_stats_csv(cfg.input)
    fit = fit_power_law(_stats_column(stats, cfg.x), _stats_column(stats, cfg.y))
    art.write_json(f"fit_{cfg.y}_vs_{cfg.x}.json", {"x": cfg.x, "y": cfg.y, **fit.to_dict()})


def cmd_gini(cfg: RunConfig, art: ArtifactDir) -> None:
    _require_input(cfg)
    stats = read_stats_csv(cfg.input)
    value = gini(_stats_column(stats, cfg.column))
    art.write_json(f"gini_{cfg.column}.json", {"column": cfg.column, "gini": value})


def cmd_zipf(cfg: RunConfig, art: ArtifactDir) -> None:
    _require_input(cfg)
    stats = read_stats_csv(cfg.input)
    report = concentration(_stats_column(stats, cfg.column), stats.items)
    write_zipf_csv(art.path(f"zipf_{cfg.column}.csv"), report.zipf)
    art.write_json(
        f"zipf_{cfg.column}.json", {"column": cfg.column, "gini": report.gini}
    )


def cmd_duplication(cfg: RunConfig, art: ArtifactDir) -> None:
    _require_input(cfg)
    log = _read_log(cfg)
    report = duplication_filter(log)
    write_duplication_csv(art.path("duplication.csv"), report)
    art.write_json(
        "duplication.json",
        {
            "users": report.n_users,
            "items": len(report.items),
            "edges_before": len(report.observed),
            "edges_after": len(report.kept),
            "retained_fraction": report.retained_fraction(),
        },
    )


def _regression(net, stats: NodeFlowStats, l0: np.ndarray):
    table = regression_feature_table(stats, l0)
    result = ols_regress(table.response, table.columns)
    payload = result.to_dict()
    payload["dropped_rows"] = table.dropped
    return payload, result


def cmd_regress(cfg: RunConfig, art: ArtifactDir) -> None:
    _require_input(cfg)
    net = _load_network(cfg)
    fm = fundamental_matrix(transition_matrix(net), cfg.dense_threshold)
    stats = node_flows(net, fm)
    l0 = source_distances(fm)
    payload, result = _regression(net, stats, l0)
    art.write_json("regression.json", payload)
    art.write_text("regression.txt", result.table() + "\n")


def cmd_simulate(cfg: RunConfig, art: ArtifactDir) -> None:
    _require_input(cfg)
    net = _load_network(cfg)
    est = simulate_walkers(net, cfg.walkers, cfg.seed)
    write_estimates_csv(art.path("estimates.csv"), est)
    art.write_json("tallies.json", _tallies_to_json(est))
    art.write_json(
        "simulate.json",
        {
            "walkers": est.n_walkers,
            "seed": est.seed,
            "cap_exceeded": est.cap_exceeded,
            "absorbed": float(est.absorption.sum()),
        },
    )


_TALLY_ARRAYS = (
    "visit_sum",
    "visit_sumsq",
    "absorption",
    "first_arrival",
    "fp_sum",
    "fp_sumsq",
    "fp_count",
)


def _tallies_to_json(est: WalkEstimate) -> dict:
    payload = {
        "items": list(est.items),
        "n_walkers": est.n_walkers,
        "seed": est.seed,
        "total_flow": est.total_flow,
        "cap_exceeded": est.cap_exceeded,
    }
    for name in _TALLY_ARRAYS:
        payload[name] = [float(v) for v in getattr(est, name)]
    return payload


def _tallies_from_json(payload: dict) -> WalkEstimate:
    return WalkEstimate(
        items=tuple(payload["items"]),
        n_walkers=payload["n_walkers"],
        seed=payload["seed"],
        total_flow=payload["total_flow"],
        cap_exceeded=payload["cap_exceeded"],
        **{name: np.array(payload[name]) for name in _TALLY_ARRAYS},
    )


def cmd_compare(cfg: RunConfig, art: ArtifactDir) -> None:
    _require_input(cfg)
    net = _load_network(cfg)
    if cfg.tallies:
        with open(cfg.tallies) as fh:
            est = _tallies_from_json(json.load(fh))
    else:
        est = simulate_walkers(net, cfg.walkers, cfg.seed)
    fm = fundamental_matrix(transition_matrix(net), cfg.dense_threshold)
    stats = node_flows(net, fm)
    l0 = source_distances(fm)
    report = compare(est, stats, l0, cfg.multiplier)
    art.write_json("compare.json", report.to_dict())
    print(
        f"compare: {'pass' if report.passed else 'FAIL'} "
        f"(overall pass fraction {report.overall_pass_fraction:.4f} "
        f"at {report.multiplier} sigma)"
    )


def cmd_generate(cfg: RunConfig, art: ArtifactDir) -> None:
    spec = GeneratorSpec(
        family=cfg.family,
        size=cfg.size,
        weight_scale=cfg.weight_scale,
        recirculation=cfg.recirculation,
        seed=cfg.seed,
        exponent=cfg.exponent,
        avg_degree=cfg.avg_degree,
    )
    result = generate(spec)
    if cfg.family == "session-log":
        fmt = LogFormat(delimiter=cfg.delimiter, has_header=cfg.header)
        art.write_text("sessions.csv", serialize_log(result, fmt))
        art.write_json(
            "generate.json",
            {"family": cfg.family, "users": result.n_users, "visits": result.n_visits},
        )
    else:
        report = validate(result)
        write_network(result, art.path("network.csv"), art.path("network.json"), report)
        art.write_json(
            "generate.json",
            {
                "family": cfg.family,
                "nodes": result.n_interior,
                "edges": result.n_edges,
                "certified": report.certified,
            },
        )


def cmd_pipeline(cfg: RunConfig, art: ArtifactDir) -> None:
    """Full chain with per-analysis error capture in the summary."""
    _require_input(cfg)
    wanted = {a.strip() for a in cfg.analyses.split(",") if a.strip()}
    summary: dict = {"schema_version": SUMMARY_SCHEMA_VERSION}
    log = None
    if cfg.input_kind == "log":
        log = _read_log(cfg)
        edges = to_transition_edges(log, cfg.mode)
        write_edges(art.path("edges.csv"), edges)
        built = build_flow_network(edges)
        summary["users"] = log.n_users
        summary["sessions"] = log.n_sessions
        summary["visits"] = log.n_visits
    elif cfg.input_kind in ("edges", "network"):
        built = read_network(cfg.input)
    else:
        raise ValueError(f"unknown input kind {cfg.input_kind!r}")
    net, report = certify(built)
    write_network(net, art.path("network.csv"), art.path("network.json"), report)
    summary["nodes"] = net.n_interior
    summary["edges"] = net.n_edges
    summary["source_outflow"] = net.total_source_outflow()

    fm = fundamental_matrix(transition_matrix(net), cfg.dense_threshold)
    stats = node_flows(net, fm)
    if "stats" in wanted:
        write_stats_csv(art.path("stats.csv"), stats)
        art.write_json("stats.json", _stats_payload(net, stats))
    totals = stats.totals()
    summary["sum_A"] = totals["A"]
    summary["sum_D"] = totals["D"]

    l0 = None
    if "distance" in wanted or "regress" in wanted:
        l0 = source_distances(fm)
    if "distance" in wanted:
        write_source_distances(art.path("source_distance.csv"), net.items, l0)

    if "fits" in wanted:
        fit_specs = [
            ("fit_D_vs_A", stats.through_flow, stats.dissipation),
            ("fit_A_vs_S", stats.source_inflow, stats.through_flow),
            ("fit_C_vs_A", stats.through_flow, stats.impact),
        ]
        summary["fits"] = {}
        for name, x, y in fit_specs:
            try:
                fit = fit_power_law(x, y)
            except Exception as exc:  # recorded, not fatal: small inputs
                summary["fits"][name] = _error_payload(exc)["error"]
            else:
                summary["fits"][name] = fit.to_dict()
                art.write_json(f"{name}.json", fit.to_dict())

    if "gini" in wanted:
        summary["gini"] = {}
        for column in ("A", "D"):
            try:
                summary["gini"][column] = gini(_stats_column(stats, column))
            except Exception as exc:
                summary["gini"][column] = _error_payload(exc)["error"]

    if "zipf" in wanted:
        try:
            zipf_report = concentration(stats.through_flow, stats.items)
        except Exception as exc:
            summary["zipf_A"] = _error_payload(exc)["error"]
        else:
            write_zipf_csv(art.path("zipf_A.csv"), zipf_report.zipf)
            summary["zipf_A"] = {"gini": zipf_report.gini, "rows": len(zipf_report.zipf)}

    if "regress" in wanted:
        try:
            payload, result = _regression(net, stats, l0)
        except Exception as exc:
            summary["regression"] = _error_payload(exc)["error"]
        else:
            summary["regression"] = payload
            art.write_json("regression.json", payload)
            art.write_text("regression.txt", result.table() + "\n")

    if "duplication" in wanted:
        if log is None:
            summary["duplication"] = {
                "code": "Skipped",
                "message": "duplication needs a session log input",
            }
        else:
            try:
                dup = duplication_filter(log)
            except Exception as exc:
                summary["duplication"] = _error_payload(exc)["error"]
            else:
                write_duplication_csv(art.path("duplication.csv"), dup)
                summary["duplication"] = {
                    "users": dup.n_users,
                    "edges_before": len(dup.observed),
                    "edges_after": len(dup.kept),
                    "retained_fraction": dup.retained_fraction(),
                }

    art.write_json("summary.json", summary)


_HANDLERS = {
    "ingest": cmd_ingest,
    "build": cmd_build,
    "stats": cmd_stats,
    "distance": cmd_distance,
    "fit": cmd_fit,
    "gini": cmd_gini,
    "zipf": cmd_zipf,
    "duplication": cmd_duplication,
    "regress": cmd_regress,
    "simulate": cmd_simulate,
    "generate": cmd_generate,
    "pipeline": cmd_pipeline,
    "compare": cmd_compare,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="attnflow",
        description="Balanced flow networks from browsing logs: build, "
        "flow calculus, distances, fits, and a random-walk oracle.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--input", help="input path")
        p.add_argument("--out", help="output directory (default: out)")
        p.add_argument("--config", help="key=value config file; flags override it")
        p.add_argument("--seed", type=int, help="random seed (default: 0)")
        p.add_argument(
            "--dense-threshold",
            type=int,
            help=f"max size for dense linear algebra (default: {DENSE_THRESHOLD})",
        )
        p.add_argument(
            "--pairwise-cap",
            type=int,
            help=f"max nodes for pairwise distance matrices (default: {PAIRWISE_CAP})",
        )

    def log_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--mode",
            choices=["session-closed", "residual"],
            help="edge construction mode (default: session-closed)",
        )
        p.add_argument("--gap-seconds", type=float, help="session gap threshold")
        p.add_argument("--delimiter", help="log field delimiter (default: ,)")
        p.add_argument(
            "--header", action="store_const", const=True, help="log has a header row"
        )

    for name in COMMANDS:
        p = sub.add_parser(name, help=f"{name} step")
        common(p)
        if name in ("ingest", "duplication", "pipeline"):
            log_flags(p)
        if name == "pipeline":
            p.add_argument(
                "--input-kind",
                choices=["log", "edges", "network"],
                help="how to read --input (default: log)",
            )
            p.add_argument("--analyses", help="comma list of analyses to run")
        if name == "distance":
            p.add_argument(
                "--pairwise",
                action="store_const",
                const=True,
                help="also write the pairwise distance table",
            )
        if name == "fit":
            p.add_argument("--x", help="stats column for x (default: A)")
            p.add_argument("--y", help="stats column for y (default: D)")
        if name in ("gini", "zipf"):
            p.add_argument("--column", help="stats column (default: A)")
        if name in ("simulate", "compare"):
            p.add_argument(
                "--walkers", type=lambda v: int(float(v)), help="walker count"
            )
        if name == "compare":
            p.add_argument("--multiplier", type=float, help="z-score threshold")
            p.add_argument("--tallies", help="tallies.json from a simulate run")
        if name == "generate":
            p.add_argument(
                "--family",
                choices=[
                    "chain",
                    "star",
                    "random-tree",
                    "random-cyclic",
                    "session-log",
                    "planted-dissipation",
                ],
                help="generator family (default: random-cyclic)",
            )
            p.add_argument("--size", type=int, help="node count")
            p.add_argument("--weight-scale", type=float, help="base edge weight")
            p.add_argument("--recirculation", type=float, help="cycle edge fraction")
            p.add_argument("--exponent", type=float, help="planted dissipation exponent")
            p.add_argument("--avg-degree", type=float, help="interior out-degree mean")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = merge_config(args)
        art = ArtifactDir(cfg.out)
    except Exception as exc:
        print(f"{_error_payload(exc)['error']['code']}: {exc}", file=sys.stderr)
        return 1
    try:
        _echo_config(cfg, art, args.command)
        _HANDLERS[args.command](cfg, art)
    except Exception as exc:
        art.cleanup()
        print(f"{_error_payload(exc)['error']['code']}: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
