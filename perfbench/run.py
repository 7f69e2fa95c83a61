"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload suite_w1 --seed 0 --seconds 10 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced pass. Human-readable lines come first; the last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. The exit code is 0 only when
every output passed the correctness gate.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ["suite_w1", "suite_w2", "replay"]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    needed = [ROOT / "src" / "trackmem" / "__init__.py", ROOT / "configs" / "default.json",
              ROOT / "tests" / "fixtures" / "baselines" / "distractor_ao.json"]
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]
    if missing:
        print(f"error: not a trackmem checkout; missing {', '.join(missing)}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src")]
    import workloads

    run, values = workloads.measure(args.workload, args.seed, args.seconds, bool(args.trace))
    units = dict(workloads.PER_LAYER if args.trace else workloads.END_TO_END)
    print(f"# {run.workload} seed={run.seed} trace={args.trace}: {run.note}")
    print(f"# failed_frac = {run.failed}/{run.attempted} scene x policy pairs checked")
    for problem in run.problems[:20]:
        print(f"# FAIL {problem}")
    for name, unit in units.items():
        print(f"# {name} = {values[name]!r} {unit}")
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0 if run.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
