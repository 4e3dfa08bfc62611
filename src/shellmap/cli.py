"""Command-line interface: run, validate, and list scenarios.

Exit codes: 0 success, 2 scenario parse/validation error, 3 numeric
failure (the diagnostic names the failing operation).
"""

from __future__ import annotations

import argparse
import os
import sys

from .errors import ScenarioError, ShellmapError
from .harness import list_scenarios, parse_scenario, resolve, run_scenario


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="shellmap",
        description="Normal-ray return dynamics on convex shells: scenario runner.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run a scenario file and write CSV reports")
    run_p.add_argument("scenario", help="path to a .scn scenario file")
    run_p.add_argument("--out", default=None, help="output directory (default: $SHELLMAP_OUT or ./runs/<name>)")
    run_p.add_argument("--seed", type=int, default=None, help="override the scenario rng_seed")

    sub.add_parser("list-scenarios", help="list bundled scenario names")

    val_p = sub.add_parser("validate", help="parse and validate a scenario file without running it")
    val_p.add_argument("scenario")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "list-scenarios":
            for name in list_scenarios():
                print(name)
            return 0
        scn = parse_scenario(args.scenario)
        if args.command == "validate":
            resolve(scn)
            print(f"ok: scenario {scn.name!r} (task {scn.task})")
            return 0
        # run
        out_dir = args.out or os.environ.get("SHELLMAP_OUT")
        if out_dir and not args.out:
            out_dir = os.path.join(out_dir, scn.name)
        for f in run_scenario(scn, out_dir=out_dir, seed=args.seed):
            print(f)
        return 0
    except ScenarioError as exc:
        where = f" at line {exc.line}, column {exc.column}" if exc.line else ""
        print(f"parse error{where}: {exc}", file=sys.stderr)
        return 2
    except ShellmapError as exc:
        # parse_scenario raises only ScenarioError, so scn is bound here
        print(f"numeric failure in {scn.task}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
