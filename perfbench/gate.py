"""Correctness gate: the program's outputs must be exactly right.

Every output file except ``manifest.json`` (the one file with a
timestamp) is reduced to its sha256; a tree digest hashes the sorted
``path<TAB>sha256`` lines. At the default seed the file digests must
equal the ones recorded in ``expected.json``, and the distractor-family
AO per policy must equal the locked baseline exactly. A mismatch is
charged to the scene x policy pairs it belongs to: a log file to its own
pair, a summary file (metrics.csv, aggregate.json, plots) to every pair.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

NONDETERMINISTIC = {"manifest.json"}


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def output_files(root) -> dict[str, str]:
    """``relative path -> sha256`` for every deterministic file under ``root``."""
    root = Path(root)
    return {
        path.relative_to(root).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(root.rglob("*"))
        if path.is_file() and path.relative_to(root).as_posix() not in NONDETERMINISTIC
    }


def tree_digest(files: dict[str, str]) -> str:
    return sha256_text("".join(f"{rel}\t{files[rel]}\n" for rel in sorted(files)))


def log_path(policy: str, scene: str) -> str:
    """Where the harness writes one pair's per-frame log; ``scene`` is ``family_seed``."""
    return f"logs/{policy}/{scene}.jsonl"


def only_logs(files: dict[str, str]) -> dict[str, str]:
    return {rel: digest for rel, digest in files.items() if rel.startswith("logs/")}


def failed_pairs(actual: dict[str, str], expected: dict[str, str],
                 pairs: set[tuple[str, str]]) -> tuple[set[tuple[str, str]], list[str]]:
    """Pairs whose outputs differ from ``expected``, plus one message per differing file.

    ``pairs`` holds every ``(policy, scene)`` the run attempted.
    """
    by_log = {log_path(policy, scene): (policy, scene) for policy, scene in pairs}
    failed: set[tuple[str, str]] = set()
    problems = []
    for rel in sorted(set(actual) | set(expected)):
        if actual.get(rel) == expected.get(rel):
            continue
        problems.append(f"{rel}: " + ("missing" if rel not in actual else
                                      "unexpected" if rel not in expected else
                                      "content differs"))
        if rel in by_log:
            failed.add(by_log[rel])
        else:
            failed |= pairs
    return failed, problems


def ao_mismatches(distractor_ao: dict[str, float], baseline: dict) -> list[str]:
    """Policies whose distractor-family mean AO is not bit-equal to the baseline lock."""
    locked = baseline["mean_ao"]
    return [
        f"distractor AO of {policy}: {distractor_ao.get(policy)!r} != locked {locked[policy]!r}"
        for policy in sorted(locked)
        if distractor_ao.get(policy) != locked[policy]
    ]


def aggregate_distractor_ao(aggregate_path) -> dict[str, float]:
    aggregate = json.loads(Path(aggregate_path).read_text(encoding="utf-8"))
    return {policy: fams["distractor"]["ao"]
            for policy, fams in aggregate["per_policy_family"].items()
            if "distractor" in fams}


class DigestCache:
    """Output digests of earlier runs in this checkout, keyed by seed and source.

    Lets ``suite_w2`` compare its files with ``suite_w1``'s, and
    ``replay`` its logs with either, at any seed, without running the
    other workload again. The key includes a hash of the program's
    source, so a run never compares against another version's outputs.
    """

    def __init__(self, root: Path, source_hash: str):
        self.dir = Path(root) / source_hash[:16]

    def _path(self, seed: int, workload: str) -> Path:
        return self.dir / f"seed{seed}-{workload}.json"

    def remember(self, seed: int, workload: str, files: dict[str, str]) -> None:
        self.dir.mkdir(parents=True, exist_ok=True)
        tmp = self._path(seed, workload).with_suffix(".tmp")
        tmp.write_text(json.dumps(files, sort_keys=True), encoding="utf-8")
        tmp.replace(self._path(seed, workload))

    def recalled(self, seed: int, workload: str) -> dict[str, str] | None:
        path = self._path(seed, workload)
        if not path.exists():
            return None
        return json.loads(path.read_text(encoding="utf-8"))


def source_hash(src_root) -> str:
    """sha256 over the program's Python sources and default config."""
    root = Path(src_root)
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()
