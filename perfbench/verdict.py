"""Output signatures and invariant checks, independent of the library.

The O-sequence oracle below is written from Macaulay's bound directly, so
a defect in `levelalg.combinatorics` cannot hide itself.
"""

from __future__ import annotations

import hashlib
import json
from math import comb


def macaulay_growth(n: int, d: int) -> int:
    """n^<d>: shift each part C(a, k) of the greedy d-th expansion of n."""
    out, k = 0, d
    while n > 0 and k > 0:
        a = k
        while comb(a + 1, k) <= n:
            a += 1
        n -= comb(a, k)
        out += comb(a + 1, k + 1)
        k -= 1
    return out


def o_sequence_ok(h) -> bool:
    if not h or h[0] != 1 or any(x < 0 for x in h):
        return False
    return all(h[d + 1] <= macaulay_growth(h[d], d) for d in range(1, len(h) - 1))


def canonical_outputs(ops: list[dict]) -> list:
    """Every integer a repetition produced, without timings or the prime.

    The GF(p) and rational manifest runs canonicalise to the same list
    exactly when the two field backends agree.
    """
    out = []
    for op in ops:
        op = dict(op)
        if "report" in op:
            op["report"] = {k: v for k, v in op["report"].items() if k != "prime"}
        if op.get("output"):
            summary = {k: v for k, v in op["output"]["summary"].items()
                       if k != "wallTime"}
            reports = [{k: v for k, v in r.items() if k != "prime"}
                       for r in op["output"]["reports"]]
            op["output"] = {"summary": summary, "reports": reports}
        out.append(op)
    return out


def signature(ops: list[dict]) -> str:
    text = json.dumps(canonical_outputs(ops), sort_keys=True,
                      separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def broken_invariants(workload: str, op: dict) -> list[str]:
    """Why one operation counts as failed; empty when it passed."""
    if op["error"]:
        return [op["error"]]
    problems = []
    if workload == "stress":
        reports = [op["report"]]
        if "parentOSequence" in op and not op["parentOSequence"]:
            problems.append("is_o_sequence rejects a computed parent h-vector")
    else:
        if op["exit"] != 0:
            problems.append(f"levelalg verify exited {op['exit']}")
        summary = op["output"]["summary"]
        if summary["identityChecksFailed"]:
            problems.append(f"{summary['identityChecksFailed']} identity checks failed")
        reports = op["output"]["reports"]
    for rep in reports:
        if not rep["satisfied"]:
            problems.append(f"{rep['label']} c={rep['c']}: bound not satisfied")
        for key in ("h", "empirical"):
            if not o_sequence_ok(rep[key]):
                problems.append(f"{rep['label']} c={rep['c']}: {key} {rep[key]} "
                                "is not an O-sequence")
    return problems
