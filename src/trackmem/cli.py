"""Command-line interface: ``trackmem run|compare``."""

from __future__ import annotations

import argparse
import sys

from .harness import cmd_compare, cmd_run


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trackmem",
        description="Run memory-policy tracking benchmarks on synthetic scenes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run the policy x scenario matrix")
    run.add_argument("--config", required=True, help="JSON config file")
    run.add_argument("--out", required=True, help="output directory")
    run.add_argument("--policy", action="append", default=None,
                     help="run this policy (repeatable); replaces the config's policy list")
    run.add_argument("--set", action="append", default=[], dest="sets",
                     metavar="KEY=VALUE", help="override a config key (dotted path)")
    run.add_argument("--workers", type=int, default=1,
                     help="worker processes, at most one per scene (default 1)")

    compare = sub.add_parser("compare", help="diff two metrics CSV files")
    compare.add_argument("baseline")
    compare.add_argument("new")
    compare.add_argument("--tol", type=float, default=0.0,
                         help="absolute tolerance per cell, >= 0 (default exact)")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "run":
        return cmd_run(args.config, args.out, policy_filter=args.policy,
                       sets=args.sets, workers=args.workers)
    if args.command == "compare":
        return cmd_compare(args.baseline, args.new, tol=args.tol)
    raise AssertionError(f"unhandled command {args.command}")


if __name__ == "__main__":
    sys.exit(main())
