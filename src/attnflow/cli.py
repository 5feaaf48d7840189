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
from functools import cached_property

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
    _FAMILIES,
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


class Run:
    """What the steps of one command share. Each piece is built on first
    use and at most once, so a command computes only what its steps read.
    """

    def __init__(self, cfg: RunConfig, art: ArtifactDir):
        self.cfg = cfg
        self.art = art

    @property
    def input(self) -> str:
        """``--input``, checked to exist on every read."""
        if self.cfg.input is None:
            raise ValueError("--input is required for this command")
        if not os.path.exists(self.cfg.input):
            raise FileNotFoundError(f"input path does not exist: {self.cfg.input}")
        return self.cfg.input

    @cached_property
    def log(self):
        """The sessionized input log; None when pipeline reads a network."""
        fmt = LogFormat(delimiter=self.cfg.delimiter, has_header=self.cfg.header)
        with open(self.input, "rb") as fh:
            log = parse_log(fh, fmt)
        return sessionize(log, self.cfg.gap_seconds)

    @cached_property
    def net(self):
        """The certified input network, unless the build step set one."""
        net, _ = certify(read_network(self.input))
        return net

    @cached_property
    def solver(self):
        return fundamental_matrix(transition_matrix(self.net), self.cfg.dense_threshold)

    @cached_property
    def stats(self) -> NodeFlowStats:
        return node_flows(self.net, self.solver)

    @cached_property
    def l0(self) -> np.ndarray:
        return source_distances(self.solver)


# --- steps: each writes its artifacts and returns its summary fields ------

def _step_ingest(run: Run) -> dict:
    """Session log -> edges.csv; the edges stay on the run for the build."""
    log = run.log
    run.edges = to_transition_edges(log, run.cfg.mode)
    write_edges(run.art.path("edges.csv"), run.edges)
    return {"users": log.n_users, "sessions": log.n_sessions, "visits": log.n_visits}


def _step_build(run: Run, built) -> dict:
    """Certify ``built`` into the run's network and write it; returns the
    fields of build.json, of which pipeline's summary takes two.
    """
    run.net, report = certify(built)
    write_network(run.net, run.art.path("network.csv"), run.art.path("network.json"), report)
    return {
        "nodes": run.net.n_interior,
        "edges": run.net.n_edges,
        "dropped_nodes": built.n_interior - run.net.n_interior,
        "certified": report.certified,
        "max_residual": report.max_residual,
    }


def _step_stats(run: Run) -> dict:
    net, stats = run.net, run.stats
    totals = stats.totals()
    write_stats_csv(run.art.path("stats.csv"), stats)
    run.art.write_json(
        "stats.json",
        {
            "nodes": net.n_interior,
            "edges": net.n_edges,
            "sum_A": totals["A"],
            "sum_D": totals["D"],
            "sum_S": totals["S"],
            "source_outflow": net.total_source_outflow(),
            "flux_residual": stats.flux_residual(),
        },
    )
    return {}


def _step_distance(run: Run) -> dict:
    write_source_distances(run.art.path("source_distance.csv"), run.net.items, run.l0)
    if run.cfg.pairwise:
        t, l, c = pairwise_distances(run.solver, run.cfg.pairwise_cap)
        write_pairwise(run.art.path("pairwise.csv"), run.net.items, t, l, c)
    return {}


def _stats_column(stats: NodeFlowStats, name: str) -> np.ndarray:
    cols = stats.columns()
    if name not in cols:
        raise ValueError(f"unknown stats column {name!r}; choose from {sorted(cols)}")
    return cols[name]


def _step_fits(run: Run) -> dict:
    fits = {}
    for x, y in (("A", "D"), ("S", "A"), ("A", "C")):
        name = f"fit_{y}_vs_{x}"
        try:
            fit = fit_power_law(_stats_column(run.stats, x), _stats_column(run.stats, y))
        except Exception as exc:  # recorded, not fatal: small inputs
            fits[name] = _error_payload(exc)["error"]
        else:
            fits[name] = fit.to_dict()
            run.art.write_json(f"{name}.json", fit.to_dict())
    return {"fits": fits}


def _step_gini(run: Run) -> dict:
    ginis = {}
    for column in ("A", "D"):
        try:
            ginis[column] = gini(_stats_column(run.stats, column))
        except Exception as exc:
            ginis[column] = _error_payload(exc)["error"]
    return {"gini": ginis}


def _step_zipf(run: Run) -> dict:
    report = concentration(run.stats.through_flow, run.stats.items)
    write_zipf_csv(run.art.path("zipf_A.csv"), report.zipf)
    return {"zipf_A": {"gini": report.gini, "rows": len(report.zipf)}}


def _step_regress(run: Run) -> dict:
    table = regression_feature_table(run.stats, run.l0)
    result = ols_regress(table.response, table.columns)
    payload = result.to_dict()
    payload["dropped_rows"] = table.dropped
    run.art.write_json("regression.json", payload)
    run.art.write_text("regression.txt", result.table() + "\n")
    return {"regression": payload}


def _step_duplication(run: Run) -> dict:
    if run.log is None:
        skipped = {"code": "Skipped", "message": "duplication needs a session log input"}
        return {"duplication": skipped}
    report = duplication_filter(run.log)
    write_duplication_csv(run.art.path("duplication.csv"), report)
    return {
        "duplication": {
            "users": report.n_users,
            "edges_before": len(report.observed),
            "edges_after": len(report.kept),
            "retained_fraction": report.retained_fraction(),
        }
    }


#: pipeline analyses in run order: the step, and the summary key that
#: records its error (None: an error fails the run)
_ANALYSES = {
    "stats": (_step_stats, None),
    "distance": (_step_distance, None),
    "fits": (_step_fits, "fits"),
    "gini": (_step_gini, "gini"),
    "zipf": (_step_zipf, "zipf_A"),
    "regress": (_step_regress, "regression"),
    "duplication": (_step_duplication, "duplication"),
}


# --- commands: stats, distance and regress are their pipeline steps -------

def cmd_ingest(run: Run) -> None:
    fields = _step_ingest(run)
    run.art.write_json(
        "ingest.json",
        {
            **fields,
            "records": run.log.n_records,
            "items": len(run.log.item_registry),
            "mode": run.cfg.mode,
        },
    )


def cmd_build(run: Run) -> None:
    run.art.write_json("build.json", _step_build(run, read_network(run.input)))


def cmd_fit(run: Run) -> None:
    cfg, stats = run.cfg, read_stats_csv(run.input)
    fit = fit_power_law(_stats_column(stats, cfg.x), _stats_column(stats, cfg.y))
    run.art.write_json(f"fit_{cfg.y}_vs_{cfg.x}.json", {"x": cfg.x, "y": cfg.y, **fit.to_dict()})


def cmd_gini(run: Run) -> None:
    column, stats = run.cfg.column, read_stats_csv(run.input)
    value = gini(_stats_column(stats, column))
    run.art.write_json(f"gini_{column}.json", {"column": column, "gini": value})


def cmd_zipf(run: Run) -> None:
    column, stats = run.cfg.column, read_stats_csv(run.input)
    report = concentration(_stats_column(stats, column), stats.items)
    write_zipf_csv(run.art.path(f"zipf_{column}.csv"), report.zipf)
    run.art.write_json(f"zipf_{column}.json", {"column": column, "gini": report.gini})


def cmd_duplication(run: Run) -> None:
    fields = _step_duplication(run)["duplication"]
    run.art.write_json("duplication.json", {**fields, "items": len(run.log.item_registry)})


def cmd_simulate(run: Run) -> None:
    est = simulate_walkers(run.net, run.cfg.walkers, run.cfg.seed)
    write_estimates_csv(run.art.path("estimates.csv"), est)
    run.art.write_json("tallies.json", _tallies_to_json(est))
    run.art.write_json(
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


def cmd_compare(run: Run) -> None:
    cfg, net = run.cfg, run.net
    if cfg.tallies:
        with open(cfg.tallies) as fh:
            est = _tallies_from_json(json.load(fh))
    else:
        est = simulate_walkers(net, cfg.walkers, cfg.seed)
    report = compare(est, run.stats, run.l0, cfg.multiplier)
    run.art.write_json("compare.json", report.to_dict())
    print(
        f"compare: {'pass' if report.passed else 'FAIL'} "
        f"(overall pass fraction {report.overall_pass_fraction:.4f} "
        f"at {report.multiplier} sigma)"
    )


def cmd_generate(run: Run) -> None:
    cfg, art = run.cfg, run.art
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


def cmd_pipeline(run: Run) -> None:
    """Ingest (log input), certify, then every requested analysis in
    ``_ANALYSES`` order, with per-analysis error capture in the summary.
    """
    cfg = run.cfg
    wanted = {a.strip() for a in cfg.analyses.split(",") if a.strip()}
    if not wanted <= _ANALYSES.keys():
        raise ValueError(
            f"unknown analyses {sorted(wanted - _ANALYSES.keys())}; "
            f"choose from {list(_ANALYSES)}"
        )
    source = run.input  # a missing input is reported before a bad input kind
    summary: dict = {"schema_version": SUMMARY_SCHEMA_VERSION}
    if cfg.input_kind == "log":
        summary.update(_step_ingest(run))
        built = build_flow_network(run.edges)
    elif cfg.input_kind in ("edges", "network"):
        run.log = None
        built = read_network(source)
    else:
        raise ValueError(f"unknown input kind {cfg.input_kind!r}")
    network = _step_build(run, built)
    totals = run.stats.totals()
    summary.update(
        nodes=network["nodes"],
        edges=network["edges"],
        source_outflow=run.net.total_source_outflow(),
        sum_A=totals["A"],
        sum_D=totals["D"],
    )
    for name, (step, error_key) in _ANALYSES.items():
        if name not in wanted:
            continue
        try:
            summary.update(step(run))
        except Exception as exc:
            if error_key is None:
                raise
            summary[error_key] = _error_payload(exc)["error"]
    run.art.write_json("summary.json", summary)


_HANDLERS = {
    "ingest": cmd_ingest,
    "build": cmd_build,
    "stats": _step_stats,
    "distance": _step_distance,
    "fit": cmd_fit,
    "gini": cmd_gini,
    "zipf": cmd_zipf,
    "duplication": cmd_duplication,
    "regress": _step_regress,
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
            help="max order of the dense inverses: per strongly connected component "
            f"for the U diagonals, and of a materialized U (default: {DENSE_THRESHOLD})",
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

    for name in _HANDLERS:
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
                choices=_FAMILIES,
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
        _HANDLERS[args.command](Run(cfg, art))
    except Exception as exc:
        art.cleanup()
        print(f"{_error_payload(exc)['error']['code']}: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
