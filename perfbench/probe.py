"""Child processes of the benchmark.

    python3 perfbench/probe.py setup <allocgen run arguments>
        Runs `allocgen run` until ``build_portfolio`` returns, prints
        ``time.monotonic()`` at that moment and exits.  The parent subtracts
        its own reading taken just before launch, so the set-up time covers
        interpreter start, imports, ``load_scenario`` and the portfolio build.

    python3 perfbench/probe.py trace <record.json> <allocgen run arguments>
        Runs `allocgen run` with spans around allocgen's public functions and
        writes the spans and counters to ``record.json``.

Both need ``src`` on ``PYTHONPATH``.
"""

from __future__ import annotations

import os
import sys
import time


def setup(argv: list[str]) -> int:
    from allocgen import cli, scenario

    build_portfolio = scenario.build_portfolio

    def stop_after_build(config):
        build_portfolio(config)
        print(repr(time.monotonic()), flush=True)
        os._exit(0)  # skip the rest of the run and interpreter teardown

    # run_scenario looks build_portfolio up in its own module
    scenario.build_portfolio = stop_after_build
    cli.main(argv)
    print("the run ended without calling build_portfolio", file=sys.stderr)
    return 1


def trace(record: str, argv: list[str]) -> int:
    start = time.perf_counter()
    from allocgen import cli

    import_s = time.perf_counter() - start

    import json

    import spans

    tracer = spans.Tracer()
    bindings = spans.install(tracer)
    code = tracer.call("cli.main", cli.main, argv)
    with open(record, "w") as fh:
        json.dump(
            {
                "exit_code": code,
                "import_s": import_s,
                "bindings": bindings,
                "counters": tracer.counters,
                "spans": [[s.name, s.start, s.end, s.parent] for s in tracer.spans],
            },
            fh,
        )
    return code


if __name__ == "__main__":
    if sys.argv[1] == "setup":
        sys.exit(setup(sys.argv[2:]))
    elif sys.argv[1] == "trace":
        sys.exit(trace(sys.argv[2], sys.argv[3:]))
    sys.exit(f"unknown mode {sys.argv[1]!r}")
