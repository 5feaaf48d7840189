"""Command-line front end: reproducible runs of the ingest -> build ->
calculus -> fits chain with deterministic, byte-stable artifacts.

Every command echoes its effective configuration (defaults, then config
file, then flags) into the output directory, writes artifacts with
repr-precision floats and sorted JSON keys, and removes partial outputs
on failure. Errors exit 1 with a single machine-parseable line
``ErrorName: message`` on stderr; warnings print as one line of the same
shape, ``WarningName: message``.
"""
from __future__ import annotations

import argparse
import gc
import json
import os
import sys
import warnings
from dataclasses import asdict, dataclass, field, fields
from functools import cached_property

import numpy as np

from . import __version__
from ._linalg import DENSE_THRESHOLD
from .distance import (
    pairwise_distances,
    source_distances,
    write_pairwise,
    write_source_distances,
)
from .errors import AttnFlowError, MalformedTallies
from .flowcalc import (
    NodeFlowStats,
    _edge_sums,
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
    write_json,
    write_network,
)
from .oracle import (
    _FAMILIES,
    _SUMS,
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

# Move every object the imports made (some 40k, most of them numpy's and
# scipy's) out of the collector's reach: a run's first full collection
# would otherwise walk them all and free none. Once per process, here: in
# main() each freeze would also keep the cyclic garbage of earlier calls
# alive for as long as a process that calls main() many times runs.
gc.freeze()

SUMMARY_SCHEMA_VERSION = 1


def _boolean(raw: str) -> bool:
    """A config-file boolean; on the command line the flag alone means True."""
    if raw.lower() in ("1", "true", "yes", "on"):
        return True
    if raw.lower() in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"expected boolean, got {raw!r}")


def _count(raw: str) -> int:
    """A whole number >= 1 that may be written as a float, such as ``1e6``."""
    value = float(raw)
    if not (value.is_integer() and value >= 1):
        raise ValueError(f"expected a whole number >= 1, got {raw!r}")
    return int(value)


def _nonnegative_float(raw: str) -> float:
    """A finite number >= 0, such as a gap in seconds or a mean degree."""
    value = float(raw)
    if not (np.isfinite(value) and value >= 0):
        raise ValueError(f"expected a finite number >= 0, got {raw!r}")
    return value


def _positive_float(raw: str) -> float:
    """A finite number > 0, such as a z-score threshold."""
    value = float(raw)
    if not (np.isfinite(value) and value > 0):
        raise ValueError(f"expected a finite number > 0, got {raw!r}")
    return value


def _nonnegative_int(raw: str) -> int:
    """A whole number >= 0, such as a node-count bound."""
    value = int(raw)
    if value < 0:
        raise ValueError(f"expected a whole number >= 0, got {raw!r}")
    return value


def _char(raw: str) -> str:
    """One character, such as a field delimiter."""
    if len(raw) != 1:
        raise ValueError(f"expected one character, got {raw!r}")
    return raw


def _flag_type(parse):
    """``parse`` for argparse: its ValueError's reason becomes the flag's error."""

    def convert(raw: str):
        try:
            return parse(raw)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    return convert


def _setting(default, help: str, commands: tuple[str, ...] | None, parse=str, choices=None):
    """A :class:`RunConfig` field. ``commands`` are the commands that read
    it and so take its flag (None: every command); ``parse`` converts both
    the flag and the config-file value; ``choices`` bounds the result.
    """
    meta = {"help": help, "commands": commands, "parse": parse, "choices": choices}
    return field(default=default, metadata=meta)


_LOG_READERS = ("ingest", "duplication", "pipeline")


@dataclass
class RunConfig:
    """Effective settings for one command; every field has a default. Each
    field is declared once, with the help, commands and parser of its flag
    and config key.
    """

    input: str | None = _setting(None, "input path", (
        "ingest", "build", "stats", "distance", "fit", "gini", "zipf",
        "duplication", "regress", "simulate", "pipeline", "compare",
    ))
    out: str = _setting("out", "output directory", None)
    input_kind: str = _setting(
        "log", "how to read --input", ("pipeline",), choices=("log", "edges", "network")
    )
    mode: str = _setting(
        "session-closed", "edge construction mode", ("ingest", "pipeline"),
        choices=("session-closed", "residual"),
    )
    gap_seconds: float | None = _setting(
        None, "session gap threshold", _LOG_READERS, _nonnegative_float
    )
    delimiter: str = _setting(",", "log field delimiter", (*_LOG_READERS, "generate"), _char)
    header: bool = _setting(False, "log has a header row", (*_LOG_READERS, "generate"), _boolean)
    dense_threshold: int = _setting(
        DENSE_THRESHOLD,
        "most interior nodes for which U is materialized, as --pairwise does",
        ("distance", "pipeline"),
        _nonnegative_int,
    )
    pairwise: bool = _setting(
        False, "also write the pairwise distance table", ("distance", "pipeline"), _boolean
    )
    seed: int = _setting(
        0, "random seed", ("simulate", "compare", "generate"), _nonnegative_int
    )
    walkers: int = _setting(100_000, "walker count", ("simulate", "compare"), _count)
    multiplier: float = _setting(3.0, "z-score threshold", ("compare",), _positive_float)
    family: str = _setting("random-cyclic", "generator family", ("generate",), choices=_FAMILIES)
    size: int = _setting(100, "node count", ("generate",), int)
    weight_scale: float = _setting(1.0, "base edge weight", ("generate",), float)
    recirculation: float = _setting(0.2, "cycle edge fraction", ("generate",), float)
    exponent: float | None = _setting(None, "planted dissipation exponent", ("generate",), float)
    avg_degree: float | None = _setting(
        None, "interior out-degree mean", ("generate",), _nonnegative_float
    )
    x: str = _setting("A", "stats column for x", ("fit",))
    y: str = _setting("D", "stats column for y", ("fit",))
    column: str = _setting("A", "stats column", ("gini", "zipf"))
    tallies: str | None = _setting(None, "tallies.json from a simulate run", ("compare",))
    analyses: str = _setting(
        "stats,distance,fits,gini,zipf,regress,duplication",
        "comma list of analyses to run",
        ("pipeline",),
    )


_SETTINGS = {f.name: f for f in fields(RunConfig)}


def load_config_file(path: str) -> dict:
    """key = value lines; blank lines and # comments ignored. Whitespace
    around a value is ignored, except that a value of spaces and tabs alone
    keeps its tabs, so ``delimiter = <tab>`` means a tab.
    """
    values: dict = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.strip()
            if not text or text.startswith("#"):
                continue
            if "=" not in text:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {text!r}")
            key, _, raw = line.rstrip("\n").partition("=")
            key = key.strip().replace("-", "_")
            if key not in _SETTINGS:
                raise ValueError(f"{path}:{lineno}: unknown config key {key!r}")
            meta = _SETTINGS[key].metadata
            try:
                value = meta["parse"](raw.strip() or raw.strip(" "))
                choices = meta["choices"]
                if choices is not None and value not in choices:
                    raise ValueError(f"invalid choice {value!r}; choose from {list(choices)}")
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: config key {key}: {exc}") from None
            values[key] = value
    return values


def merge_config(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig()
    if getattr(args, "config", None):
        for key, value in load_config_file(args.config).items():
            setattr(cfg, key, value)
    for key in _SETTINGS:
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

    def write_json(self, name: str, obj) -> None:
        write_json(self.path(name), obj)

    def write_text(self, name: str, text: str) -> None:
        with open(self.path(name), "w", encoding="utf-8") as fh:
            fh.write(text)

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
        t, l, c = pairwise_distances(run.solver)
        write_pairwise(run.art.path("pairwise.csv"), run.net.items, t, l, c)
    return {}


def _stats_column(stats: NodeFlowStats, name: str) -> np.ndarray:
    cols = stats.columns()
    if name not in cols:
        raise ValueError(f"unknown stats column {name!r}; choose from {sorted(cols)}")
    return cols[name]


def _fit(run: Run, x: str, y: str) -> dict:
    """Fit ``y ~ x^b`` on the run's stats into ``fit_{y}_vs_{x}.json``."""
    fit = fit_power_law(_stats_column(run.stats, x), _stats_column(run.stats, y)).to_dict()
    run.art.write_json(f"fit_{y}_vs_{x}.json", {"x": x, "y": y, **fit})
    return fit


def _gini(run: Run, column: str) -> float:
    value = gini(_stats_column(run.stats, column))
    run.art.write_json(f"gini_{column}.json", {"column": column, "gini": value})
    return value


def _zipf(run: Run, column: str) -> dict:
    report = concentration(_stats_column(run.stats, column), run.stats.items)
    write_zipf_csv(run.art.path(f"zipf_{column}.csv"), report.zipf)
    run.art.write_json(f"zipf_{column}.json", {"column": column, "gini": report.gini})
    return {"gini": report.gini, "rows": len(report.zipf)}


def _step_fits(run: Run) -> dict:
    fits = {}
    for x, y in (("A", "D"), ("S", "A"), ("A", "C")):
        name = f"fit_{y}_vs_{x}"
        try:
            fits[name] = _fit(run, x, y)
        except Exception as exc:  # recorded, not fatal: small inputs
            fits[name] = _error_payload(exc)["error"]
    return {"fits": fits}


def _step_gini(run: Run) -> dict:
    ginis = {}
    for column in ("A", "D"):
        try:
            ginis[column] = _gini(run, column)
        except Exception as exc:
            ginis[column] = _error_payload(exc)["error"]
    return {"gini": ginis}


def _step_zipf(run: Run) -> dict:
    return {"zipf_A": _zipf(run, "A")}


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
    run.stats = read_stats_csv(run.input)
    _fit(run, run.cfg.x, run.cfg.y)


def cmd_gini(run: Run) -> None:
    run.stats = read_stats_csv(run.input)
    _gini(run, run.cfg.column)


def cmd_zipf(run: Run) -> None:
    run.stats = read_stats_csv(run.input)
    _zipf(run, run.cfg.column)


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


def _tallies_to_json(est: WalkEstimate) -> dict:
    payload = {
        "items": list(est.items),
        "n_walkers": est.n_walkers,
        "seed": est.seed,
        "total_flow": est.total_flow,
        "cap_exceeded": est.cap_exceeded,
    }
    for name in _SUMS:
        payload[name] = [float(v) for v in getattr(est, name)]
    return payload


def _tallies_from_json(path) -> WalkEstimate:
    """Read a ``tallies.json`` as ``simulate`` writes it. Anything else
    raises MalformedTallies naming the file and, where there is one, the
    key.
    """
    def bad(reason: str) -> MalformedTallies:
        return MalformedTallies(f"{path}: {reason}")

    with open(path, encoding="utf-8") as fh:
        try:
            payload = json.load(fh)
        except (ValueError, RecursionError) as exc:  # JSONDecodeError, UnicodeDecodeError
            raise bad(f"not JSON: {exc}") from None
    if not isinstance(payload, dict):
        raise bad("not a JSON object")
    for key in ("items", "n_walkers", "seed", "total_flow", "cap_exceeded", *_SUMS):
        if key not in payload:
            raise bad(f"key {key!r} is missing")
    items = payload["items"]
    if not isinstance(items, list) or not all(isinstance(item, str) for item in items):
        raise bad("key 'items' must be a list of item names")

    def whole(key: str, low: int) -> int:
        value = payload[key]
        if isinstance(value, bool) or not isinstance(value, int) or value < low:
            raise bad(f"key {key!r} must be an integer >= {low}, got {value!r}")
        return value

    def tally(key: str) -> np.ndarray:
        try:
            values = np.array(payload[key], dtype=float)
        except (TypeError, ValueError, OverflowError):
            values = None
        if values is None or values.shape != (len(items),) or not np.isfinite(values).all():
            raise bad(f"key {key!r} must be a list of {len(items)} finite numbers, one per item")
        return values

    total_flow = payload["total_flow"]
    if isinstance(total_flow, bool) or not isinstance(total_flow, (int, float)) or not (
        0 < total_flow <= sys.float_info.max
    ):
        raise bad(f"key 'total_flow' must be a finite number > 0, got {total_flow!r}")
    n_walkers = whole("n_walkers", 1)
    cap_exceeded = whole("cap_exceeded", 0)
    if cap_exceeded > n_walkers:
        raise bad(f"key 'cap_exceeded' is {cap_exceeded}, more than the {n_walkers} walkers")
    return WalkEstimate(
        items=tuple(items),
        n_walkers=n_walkers,
        seed=whole("seed", 0),
        total_flow=float(total_flow),
        cap_exceeded=cap_exceeded,
        **{name: tally(name) for name in _SUMS},
    )


def cmd_compare(run: Run) -> None:
    cfg, net = run.cfg, run.net
    if cfg.tallies:
        est = _tallies_from_json(cfg.tallies)
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
    summary: dict = {"schema_version": SUMMARY_SCHEMA_VERSION}
    if cfg.input_kind == "log":
        summary.update(_step_ingest(run))
        built = build_flow_network(run.edges)
    else:  # "edges" or "network": RunConfig's choices admit nothing else
        run.log = None
        built = read_network(run.input)
    network = _step_build(run, built)
    # edge sums, so that a run whose steps read no C or phi takes no solve
    A, D, _ = _edge_sums(run.net)
    summary.update(
        nodes=network["nodes"],
        edges=network["edges"],
        source_outflow=run.net.total_source_outflow(),
        sum_A=float(A.sum()),
        sum_D=float(D.sum()),
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

    for name in _HANDLERS:
        p = sub.add_parser(name, help=f"{name} step")
        p.add_argument("--config", help="key=value config file; flags override it")
        for setting in _SETTINGS.values():
            meta = setting.metadata
            if meta["commands"] is not None and name not in meta["commands"]:
                continue
            flag = "--" + setting.name.replace("_", "-")
            help = meta["help"]
            if setting.default is not None:
                help += f" (default: {setting.default})"
            if meta["parse"] is _boolean:
                p.add_argument(flag, action="store_const", const=True, help=help)
            else:
                parse = _flag_type(meta["parse"])
                p.add_argument(flag, type=parse, choices=meta["choices"], help=help)
    return parser


def _warning_line(message, category, filename, lineno, line=None) -> str:
    """A warning as one ``Name: message`` line, in the shape of an error line."""
    return f"{category.__name__}: {message}\n"


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # each warning as one line, like an error's: formatwarning, unlike
    # showwarning, leaves a caller that records warnings its record
    saved, warnings.formatwarning = warnings.formatwarning, _warning_line
    art = None
    try:
        cfg = merge_config(args)
        art = ArtifactDir(cfg.out)
        _echo_config(cfg, art, args.command)
        _HANDLERS[args.command](Run(cfg, art))
    except Exception as exc:
        if art is not None:
            art.cleanup()
        print(f"{_error_payload(exc)['error']['code']}: {exc}", file=sys.stderr)
        return 1
    finally:
        warnings.formatwarning = saved
    return 0


if __name__ == "__main__":
    sys.exit(main())
