"""One closed-loop client in a fresh interpreter.

Usage: ``python3 child.py SPEC.json``. The spec names the program's
``src`` directory, the CLI commands to run and whether to trace. The
process imports ``attnflow.cli``, prints ``ready`` (the parent times
set-up up to that line), then runs the commands back to back through
``attnflow.cli.main`` and writes per-command exit codes, the wall time
of the commands, its own peak RSS and, when tracing, the spans and
counters to the spec's result path.
"""
import json
import os
import resource
import sys
import time


def main() -> int:
    with open(sys.argv[1]) as fh:
        spec = json.load(fh)
    import attnflow
    import attnflow.cli as cli

    if os.path.dirname(os.path.abspath(attnflow.__file__)) != os.path.join(spec["src"], "attnflow"):
        print(f"attnflow imported from {attnflow.__file__}, not {spec['src']}", file=sys.stderr)
        return 2
    print("ready", flush=True)

    tracer = None
    if spec["trace"]:
        from tracing import TARGETS, Tracer

        tracer = Tracer()
        tracer.install(TARGETS)

    codes = []
    start = time.perf_counter()
    for argv in spec["commands"]:
        try:
            if tracer is None:
                code = cli.main(argv)
            else:
                with tracer.span(f"cli.{argv[0]}"):
                    code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects a command line this way
            code = exc.code if isinstance(exc.code, int) else 1
        codes.append(code)
    wall = time.perf_counter() - start

    result = {
        "codes": codes,
        "wall_s": wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        result.update(spans=tracer.spans, counters=dict(tracer.counters), missing=tracer.missing)
    with open(spec["result"], "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
