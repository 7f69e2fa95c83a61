"""Record the default-seed output digests into ``expected.json``.

Usage, from the repository root::

    python3 perfbench/record_expected.py

Runs the default suite once at one worker and once at two, refuses to
write unless both give the same files, and stores every file's sha256
(``manifest.json`` excluded). Recording is for a commit whose outputs
are known to be right; the locked fixtures never change to suit it.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    sys.path[:0] = [str(ROOT / "src")]
    import gate
    import workloads
    from trackmem import harness

    cfg = workloads.run_config(workloads.DEFAULT_SEED)
    trees = []
    workloads.WORK_DIR.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="record-", dir=workloads.WORK_DIR))
    try:
        for workers in (1, 2):
            out = scratch / f"w{workers}"
            harness.run_benchmark(cfg, out, workers=workers)
            trees.append(gate.output_files(out))
    finally:
        shutil.rmtree(scratch)
    if trees[0] != trees[1]:
        print("error: one and two workers wrote different files", file=sys.stderr)
        return 1
    record = {
        "seed": workloads.DEFAULT_SEED,
        "tree_sha256": gate.tree_digest(trees[0]),
        "files": trees[0],
    }
    workloads.EXPECTED.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(trees[0])} files, tree {record['tree_sha256']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
