"""Lower bounds and feasibility tests for h-vectors of generic quotients.

The central function bounds, entry by entry, the h-vector of a quotient
module generated by c generic combinations of the t generators of a level
module with h-vector h:

    bound_u = ceil( ((t-c) h_{e-u} + (ct-1) h_u) / (t^2 - 1) ).

Degree 0 contributes 1 and degree e contributes exactly c; at t = 2,
c = 1 it is Iarrobino's pencil bound ceil((h_u + h_{e-u}) / 3). At u = 1
it implies both full-codimension conclusions: wherever a generic
Gorenstein (c = 1) or type-(t-1) quotient must keep all h_1 variables,
the bound is at least h_1. On top of it sit a low-codimension predicate
on h, an O-sequence feasibility test for candidate quotient h-vectors
(the candidate and the reversed difference must both be admissible
Hilbert functions), a greedy tightening loop, chaining along a descending
type path, and the report of one verified instance, with its JSON and
CSV renderings. Every h, candidate, type and path entry is read exactly,
as explicit coefficients are (`modules._explicit_coefficient`): a float
is a ValueError, never truncated. The overlap
bound H_u >= h_{e-u} - (inclusion-exclusion sum) is checked at every
degree by `levelalg verify` (see `manifest._identity_checks`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .combinatorics import is_o_sequence
from .modules import (
    InverseSystemModule,
    _check_type,
    _entrywise_max,
    _explicit_coefficient,
    generic_quotient_trials,
    h_vector,
)

HVector = tuple[int, ...]


class InfeasibleBoundError(ValueError):
    """Tightening ran past the parent h-vector without reaching feasibility."""


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


def _check_h(h: Sequence[int], t: int | None = None) -> HVector:
    """h as a tuple of ints, checked to be an h-vector, and to end in the
    parent type t when one is given."""
    h = tuple(_explicit_coefficient(x, "h-vector entries") for x in h)
    if len(h) < 2:
        raise ValueError("an h-vector needs at least degrees 0 and e")
    if h[0] != 1:
        raise ValueError(f"h_0 must be 1, got {h[0]}")
    if any(x < 0 for x in h):
        raise ValueError(f"negative entry in {h}")
    if t is not None and h[-1] != t:
        raise ValueError(f"h ends in {h[-1]}, expected the type {t}")
    return h


def generic_quotient_bound(h: Sequence[int], t: int, c: int) -> HVector:
    """Entrywise lower bound for the h-vector of a generic type-c quotient.

    Requires h to end in its type t >= 2 and 1 <= c <= t-1. The last entry
    of the bound is exactly c.
    """
    t, c = (_explicit_coefficient(x, "types") for x in (t, c))
    if t < 2:
        raise ValueError("parent type must be at least 2")
    h = _check_h(h, t)
    e = len(h) - 1
    _check_type(t, c)
    denom = t * t - 1
    out = [1]
    for u in range(1, e + 1):
        num = (t - c) * h[e - u] + (c * t - 1) * h[u]
        out.append(_ceil_div(num, denom))
    return tuple(out)


def penultimate_bound_holds(h: Sequence[int], t: int) -> bool:
    """Low-codimension sanity predicate: h_1 > 7, or h_{e-1} >= h_1.

    Every level h-vector in at most 7 variables satisfies the second
    disjunct, so on computed level h-vectors this must return True.
    """
    h = _check_h(h, t)
    return h[1] > 7 or h[-2] >= h[1]


def _first_violation(h: HVector, L: Sequence[int], c: int) -> tuple[bool, int] | None:
    """Check the candidate L as `quotient_feasible` does and return its
    first failed O-sequence test: (False, d) when L fails at degree d, else
    (True, d) when the reversed difference h - L does, else None. c is
    only compared with L's last entry, an int: a c equal to no int fails
    that test, and c reaches no result."""
    L = tuple(_explicit_coefficient(x, "candidate entries") for x in L)
    if len(L) != len(h):
        raise ValueError(f"length mismatch: {len(L)} vs {len(h)}")
    if L[-1] != c:
        raise ValueError(f"candidate ends in {L[-1]}, expected c={c}")
    if any(x > y for x, y in zip(L, h)):
        raise ValueError("candidate exceeds the parent h-vector")
    if any(x < 0 for x in L):
        raise ValueError(f"negative entry in {L}")
    diff_rev = tuple(y - x for x, y in zip(reversed(L), reversed(h)))
    if not any(diff_rev):
        return None
    for in_difference, seq in ((False, L), (True, diff_rev)):
        verdict = is_o_sequence(seq)
        if not verdict.ok:
            return in_difference, verdict.first_violation
    return None


def quotient_feasible(h: Sequence[int], L: Sequence[int], c: int) -> bool:
    """Whether L can be the h-vector of a type-c quotient of a module with
    h-vector h, by the two O-sequence obstructions.

    L must be admissible itself, and so must the reversed difference h - L
    (which is the h-vector of a complementary quotient when one generator
    is dropped at a time). The zero difference (c equal to the parent
    type) is trivially feasible.
    """
    return _first_violation(_check_h(h), L, c) is None


def tighten_bound(h: Sequence[int], L: Sequence[int], c: int) -> HVector:
    """Raise L minimally until quotient_feasible accepts it.

    Greedy loop: while infeasible, find the first violated growth
    condition — in L itself, or in the reversed difference — and raise the
    single entry of L that the violation pins, by one. Each raise is
    forced (any feasible vector above L must exceed it there too), so the
    result is still a valid lower bound whenever L was. Raising past h
    means no feasible vector exists and is an InfeasibleBoundError.
    """
    h = _check_h(h)
    cur = [_explicit_coefficient(x, "candidate entries") for x in L]
    e = len(h) - 1
    while (found := _first_violation(h, cur, c)) is not None:
        in_difference, d = found
        if not in_difference:
            # violation in L itself: L[d+1] exceeds the growth allowed by
            # L[d], and raising L[d] is the only repair that keeps L' >= L
            # (d = 0 means a leading 0, repaired by raising it to 1)
            pos = d
        elif d == 0:
            # the reversed difference leads with h_e - c, pinned by the
            # target type; nothing above L can repair a lead != 1
            raise InfeasibleBoundError(
                f"reversed difference leads with {h[e] - c}, not 1; "
                "the feasibility test applies to single type drops"
            )
        else:
            # reversed-difference entry d+1 is too big; shrink it by raising L
            pos = e - (d + 1)
        if cur[pos] + 1 > h[pos]:
            raise InfeasibleBoundError(
                f"entry {pos} cannot be raised past the parent value {h[pos]}"
            )
        cur[pos] += 1
    return tuple(cur)


def chained_bound(
    h: Sequence[int], t: int, path: Sequence[int], tighten: bool = False
) -> HVector:
    """Iterate the quotient bound along a strictly descending type path.

    Each step treats the previous bound vector as the parent h-vector,
    which is valid because the bound is entrywise monotone in h. With
    `tighten`, the first step (whose parent is exact, not just a bound) is
    additionally tightened when it drops the type by one; tightening
    against later, merely-bounded parents would not be sound. Returns the
    entrywise max with the direct one-step bound.
    """
    h = _check_h(h)
    path = [_explicit_coefficient(x, "path entries") for x in path]
    if len(path) < 2:
        raise ValueError("path needs at least two types")
    if path[0] != t:
        raise ValueError(f"path starts at {path[0]}, expected t={t}")
    for a, b in zip(path, path[1:]):
        if b >= a:
            raise ValueError(f"path must strictly descend, got {a} -> {b}")
    if path[-1] < 1:
        raise ValueError("path must end at type >= 1")
    direct = generic_quotient_bound(h, t, path[-1])
    cur: HVector = h
    for a, b in zip(path, path[1:]):
        step = generic_quotient_bound(cur, a, b)
        # a == t only at the first step, the one whose parent is exact
        cur = tighten_bound(cur, step, b) if tighten and a == t == b + 1 else step
    return tuple(max(a, b) for a, b in zip(direct, cur))


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of checking one module against the quotient bound."""

    label: str
    h: HVector
    c: int
    bound: HVector
    empirical: HVector
    satisfied: bool
    tight_degrees: tuple[int, ...]
    trials: int
    seed: int
    prime: int | None
    per_trial: tuple[HVector, ...]

    def to_json_dict(self) -> dict:
        return {
            "label": self.label,
            "h": list(self.h),
            "c": self.c,
            "bound": list(self.bound),
            "empirical": list(self.empirical),
            "satisfied": self.satisfied,
            "tightDegrees": list(self.tight_degrees),
            "trials": self.trials,
            "seed": self.seed,
            "prime": self.prime,
            "perTrial": [list(h) for h in self.per_trial],
        }


CSV_COLUMNS = (
    "label",
    "h",
    "c",
    "bound",
    "empirical",
    "satisfied",
    "tightDegrees",
    "trials",
    "seed",
    "prime",
)


def report_csv_row(r: VerificationReport) -> list[str]:
    """The CSV_COLUMNS cells of the report's JSON fields: lists are
    space-joined, booleans lowercase and None blank."""
    d = r.to_json_dict()
    return [_csv_cell(d[k]) for k in CSV_COLUMNS]


def _csv_cell(v) -> str:
    if isinstance(v, list):
        return " ".join(map(str, v))
    if isinstance(v, bool):
        return str(v).lower()
    return "" if v is None else str(v)


def verify_instance(
    m: InverseSystemModule, c: int, trials: int = 5, seed: int = 0
) -> VerificationReport:
    """Compare the empirical generic type-c quotient against the bound. A c
    or trials out of range raises ValueError before anything is built."""
    samples = generic_quotient_trials(m, c, trials=trials, seed=seed)
    h = h_vector(m)
    bound = generic_quotient_bound(h, m.type, c)
    per_trial = tuple(s.h for s in samples)
    empirical = _entrywise_max(per_trial)
    satisfied = all(e >= b for e, b in zip(empirical, bound))
    tight = tuple(u for u, (e, b) in enumerate(zip(empirical, bound)) if e == b)
    return VerificationReport(
        label=m.label or "module",
        h=h,
        c=c,
        bound=bound,
        empirical=empirical,
        satisfied=satisfied,
        tight_degrees=tight,
        trials=trials,
        seed=seed,
        prime=m.field.prime,
        per_trial=per_trial,
    )
