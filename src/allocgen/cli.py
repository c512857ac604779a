"""Command-line front end.

    allocgen run <scenario.yaml> [--out DIR] [--kmax N] [--tol X] [--seed N]
    allocgen reproduce <case>
    allocgen oracle <scenario.yaml> [--kmax N]

Exit codes: 0 success, 2 configuration error, 3 numerical failure,
4 reproduction-check failure.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .allocation import oracle_enumerate, oracle_size_biased_rows
from .errors import AllocationError, ConfigError, UnknownCase
from .scenario import allocate_portfolio, build_portfolio, check_settings, load_scenario, run_scenario

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_REPRODUCTION = 4


def _load_with_overrides(args):
    """The scenario file's config with ``--kmax`` and ``--tol`` applied, checked as the file's values are."""
    config = load_scenario(args.scenario)
    if args.kmax is not None:
        config.kmax = args.kmax
    if getattr(args, "tol", None) is not None:
        config.tolerance = args.tol
    config.kmax = check_settings(
        config.kmax, config.tolerance, config.underflow_floor, ("--kmax", "--tol", "underflow_floor")
    )
    return config


def _cmd_run(args) -> int:
    config = _load_with_overrides(args)
    if args.seed is not None:
        config.seed = int(args.seed)
    result = run_scenario(config, args.out)
    for line in result.report_lines:
        print(line)
    for path in result.paths:
        print(f"wrote {path}")
    return EXIT_OK


def _cmd_reproduce(args) -> int:
    from .reproduce import reproduce

    report = reproduce(args.case)
    for line in report.lines():
        print(line)
    return EXIT_OK if report.passed else EXIT_REPRODUCTION


def _cmd_oracle(args) -> int:
    config = _load_with_overrides(args)
    built = build_portfolio(config)
    table = allocate_portfolio(
        built.portfolio, built.kmax,
        tolerance=config.tolerance, underflow_floor=config.underflow_floor,
    )
    oracle = oracle_enumerate(built.portfolio, built.kmax)
    gap = float(np.max(np.abs(table.expected_allocation - oracle.expected_allocation)))
    print(f"enumeration cross-check: max |mu difference| = {gap:.3e}")
    worst_sb = None
    if built.portfolio.dependence is None:
        sb = oracle_size_biased_rows(built.portfolio.risks, built.kmax)
        worst_sb = max(float(np.max(np.abs(row - table.rows(i)))) for i, row in enumerate(sb))
        print(f"size-biased cross-check: max |mu difference| = {worst_sb:.3e}")
    ok = gap <= 1e-10 and (worst_sb is None or worst_sb <= 1e-10)
    print(f"oracle agreement at 1e-10: {'PASS' if ok else 'FAIL'}")
    return EXIT_OK if ok else EXIT_NUMERICAL


def _case(name: str) -> str:
    """``name`` if it is one of the study cases, else a parser error that lists them.

    The cases live in ``reproduce``, which only the ``reproduce`` command loads.
    """
    from .reproduce import CASES

    if name not in CASES:
        raise argparse.ArgumentTypeError(f"invalid choice: {name!r} (choose from {', '.join(CASES)})")
    return name


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="allocgen",
        description="Expected allocations, conditional-mean risk sharing and "
        "Euler capital splits for lattice risk portfolios.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a scenario file and write CSV/report outputs")
    p_run.add_argument("scenario", help="path to a scenario YAML file")
    p_run.add_argument("--out", default="out", help="output directory (default: ./out)")
    p_run.add_argument("--kmax", type=int, default=None, help="override transform length")
    p_run.add_argument("--tol", type=float, default=None, help="override validity tolerance")
    p_run.add_argument("--seed", type=int, default=None, help="override sampling seed")
    p_run.set_defaults(func=_cmd_run)

    p_rep = sub.add_parser("reproduce", help="run a canonical study case and check it")
    p_rep.add_argument("case", type=_case, help="a study case; an unknown one exits 2 and lists them")
    p_rep.set_defaults(func=_cmd_reproduce)

    p_or = sub.add_parser(
        "oracle", help="force enumeration/size-biased cross-checks on a small scenario"
    )
    p_or.add_argument("scenario", help="path to a scenario YAML file")
    p_or.add_argument("--kmax", type=int, default=None)
    p_or.set_defaults(func=_cmd_oracle)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
    except (ConfigError, UnknownCase) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except AllocationError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    return code


if __name__ == "__main__":
    sys.exit(main())
