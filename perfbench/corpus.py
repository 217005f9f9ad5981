"""Workload inputs, made from the workload seed alone.

The library never sees the seed itself: `stress` receives module shapes,
module seeds and trial seeds; the manifest workloads receive one-line
manifest files plus a `--seed` per `levelalg verify` call.
"""

from __future__ import annotations

import hashlib
from math import comb
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"

DENSITIES = (0.3, 0.5, 0.8)
TRIALS = 5
# Module shapes follow the acceptance stress corpus (r 2-5, e 2-8, t 2-4),
# but every cell is taken once in a fixed order instead of drawn at random,
# so that the work per run does not depend on the seed. Cells whose
# degree-e space is wider than SPACE_CAP are left out: one r=5, e=7, t=4
# module alone takes longer than a whole repetition may.
SPACE_CAP = 45
SMOKE_SPACE_CAP = 6

MANIFESTS = {"full": HERE / "manifest.txt", "smoke": HERE / "smoke_manifest.txt"}


def derive(*parts) -> int:
    """31-bit seed from labels; independent of the library's own derivation."""
    data = ":".join(str(p) for p in parts).encode()
    return int.from_bytes(hashlib.sha256(data).digest()[:4], "big") >> 1


def stress_corpus(seed: int, size: str) -> list[dict]:
    """One entry per module: shape, module seed and one trial seed per c."""
    cap = SMOKE_SPACE_CAP if size == "smoke" else SPACE_CAP
    corpus = []
    for r in range(2, 6):
        for e in range(2, 9):
            dim = comb(r + e - 1, r - 1)
            if dim > cap:
                continue
            for t in range(2, 5):
                if t >= dim:
                    continue
                k = len(corpus)
                corpus.append({
                    "r": r, "e": e, "t": t,
                    "density": DENSITIES[k % len(DENSITIES)],
                    "seed": derive(seed, "module", k),
                    "trial_seeds": [derive(seed, "trial", k, c) for c in range(1, t)],
                })
    return corpus


def manifest_lines(size: str) -> list[str]:
    text = MANIFESTS[size].read_text()
    return [
        line.strip() for line in text.splitlines()
        if line.strip() and not line.strip().startswith("#")
    ]


def manifest_inputs(seed: int, size: str) -> list[tuple[Path, int]]:
    """(one-line manifest path, run seed) per instance of the manifest.

    Each instance gets its own `levelalg verify` call, so its time can be
    read without hooks in the library. GF(p) and rational runs share the
    files and the seeds.
    """
    folder = BUILD / "inputs" / size
    return [
        (folder / f"instance-{i:02d}.txt", derive(seed, "manifest", i))
        for i in range(len(manifest_lines(size)))
    ]


def write_manifest_inputs(size: str) -> None:
    folder = BUILD / "inputs" / size
    folder.mkdir(parents=True, exist_ok=True)
    for i, line in enumerate(manifest_lines(size)):
        path = folder / f"instance-{i:02d}.txt"
        if not path.exists() or path.read_text() != line + "\n":
            path.write_text(line + "\n")
