"""Batch verification driven by a small manifest text format.

One instance per line: a family name followed by key=value pairs, e.g.

    sharp t=3 p=1 e=3 c=1,2 trials=5 seed=11
    random-sparse r=4 e=5 t=3 density=0.5 c=1,2 seed=7
    truncated-gorenstein-conic s=7 e=6 c=1 identities=off

Blank lines and '#' comments are skipped. Recognized per-instance keys
beyond the family parameters: c (comma list, default all of 1..t-1),
trials, seed (default derived from the run seed and the line index),
label, identities (on/off). Any other key, a key given twice on one line,
a type repeated in the c list, or a family parameter the family cannot
build, is an InputError with the line number, raised before any
instance runs. A whole run is reproducible from the manifest text and
the run seed.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, replace

from .bounds import VerificationReport, verify_instance
from .combinatorics import binomial
from .fields import FieldSpec
from .modules import (
    DegenerateSampleError,
    InputError,
    _check_type,
    _content_lines,
    _draws,
    _overlap,
    _parse_int,
    _parse_positive,
    _single_spaces,
    derive_seed,
    h_vector,
)
from .families import FAMILY_NAMES, FAMILY_PARAMS, FamilySpec, build_family


@dataclass(frozen=True)
class ManifestInstance:
    spec: FamilySpec
    line: int
    c_list: tuple[int, ...] | None = None  # None = all admissible types
    trials: int = 5
    seed: int | None = None  # None = derived from the run seed
    label: str = ""
    identities: bool = True


@dataclass(frozen=True)
class IdentityFailure:
    """One failed identity check: the instance's label, the degree u, the
    identity (type-count, recount or overlap-bound) and its two sides."""

    label: str
    u: int
    identity: str
    lhs: int
    rhs: int


@dataclass(frozen=True)
class RunSummary:
    """The counts of one `run_manifest` run. `satisfied`, `violated` and
    `tight_instances` count (instance, c) reports, not instances: an
    instance verified at two types adds two. A report is tight when its
    empirical h-vector equals the bound in every degree."""

    instances: int
    satisfied: int
    violated: int
    tight_instances: int
    identity_checks_passed: int
    identity_checks_failed: int
    wall_time: float
    seed: int
    identity_failures: tuple[IdentityFailure, ...] = ()

    def to_json_dict(self) -> dict:
        out = {
            "instances": self.instances,
            "satisfied": self.satisfied,
            "violated": self.violated,
            "tightInstances": self.tight_instances,
            "identityChecksPassed": self.identity_checks_passed,
            "identityChecksFailed": self.identity_checks_failed,
        }
        if self.identity_failures:
            out["identityFailures"] = [asdict(f) for f in self.identity_failures]
        return out | {"wallTime": round(self.wall_time, 3), "seed": self.seed}


def _c_list(value: str) -> tuple[int, ...]:
    try:
        c_list = tuple(int(x) for x in value.split(","))
    except ValueError as exc:
        raise ValueError(f"bad c list {value!r}") from exc
    if len(set(c_list)) != len(c_list):
        raise ValueError(f"repeated type in c list {value!r}")
    return c_list


def _on_off(value: str) -> bool:
    if value not in ("on", "off"):
        raise ValueError("identities must be on or off")
    return value == "on"


def _float(value: str, what: str) -> float:
    try:
        return float(value)
    except ValueError as exc:
        raise ValueError(f"bad {what} {value!r}") from exc


#: The per-instance keys beyond the family parameters, each with the
#: ManifestInstance field it sets and the reader of its value.
_CONTROLS = {
    "c": ("c_list", _c_list),
    "trials": ("trials", lambda value: _parse_positive(value, "trials")),
    "seed": ("seed", lambda value: _parse_int(value, "seed")),
    "label": ("label", str),
    "identities": ("identities", _on_off),
}


def parse_manifest(text: str) -> tuple[ManifestInstance, ...]:
    instances = []
    for lineno, line in _content_lines(text):
        family, *tokens = line.split()
        params: dict[str, object] = {}
        fields: dict[str, object] = {}
        seen: set[str] = set()
        try:
            if family not in FAMILY_NAMES:
                known = ", ".join(FAMILY_NAMES)
                raise ValueError(f"unknown family {family!r}; known: {known}")
            for tok in tokens:
                if "=" not in tok:
                    raise ValueError(f"expected key=value, got {tok!r}")
                key, _, value = tok.partition("=")
                if key in seen:
                    raise ValueError(f"repeated key {key!r}")
                seen.add(key)
                if key in _CONTROLS:
                    name, read = _CONTROLS[key]
                    fields[name] = read(value)
                elif key not in FAMILY_PARAMS[family]:
                    known = ", ".join(FAMILY_PARAMS[family] + tuple(_CONTROLS))
                    raise ValueError(f"unknown key {key!r} for {family}; known: {known}")
                else:
                    read = _float if key == "density" else _parse_int
                    params[key] = read(value, key)
        except ValueError as exc:
            raise InputError(str(exc), lineno) from exc
        spec = FamilySpec.of(family, **params)
        instances.append(ManifestInstance(spec, lineno, **fields))
    if not instances:
        raise InputError("manifest has no instances", 1)
    return tuple(instances)


def _identity_checks(m, seed: int) -> tuple[int, list[IdentityFailure]]:
    """Run the per-degree identity checks on re-mixed generators; returns
    the number passed and a record of each failure.

    Three checks per inner degree u: the type-count identity
    sum = t*H_u - h_u, the subset recount sum = sum_j (j-1) C(t,j) D_u(j),
    and the overlap lower bound H_u >= h_{e-u} - sum, on the rows W that
    `remix_generators` draws, never built as a module. Each row W_k is a
    random type-1 combination of the generators, so H_u is the largest
    dimension of the t spaces M_u(W_k) that `_single_spaces` gathers: t
    type-1 samples, whatever the instance's trials. The sums and every
    D_u(j) of all degrees come from one `_overlap` walk over the same
    spaces, the degrees together; the D_u(j) it does not list are 0 and
    add nothing to the recount. The walk settles a degree whose spaces add
    up to h_u, or are each all of it, with no meet, as in every inner
    degree of the type-2 lines of perfbench/manifest.txt. On the sharp
    families it meets only the pairs and triples of each degree: every
    larger subset meets in the line its triples share.
    """
    t = m.type
    e = m.socle_degree
    if t < 2 or e < 2:
        return 0, []
    [(_, w)] = _draws(m, t, [derive_seed(seed, "identity-mix")], "remix")
    h = h_vector(m)
    passed = 0
    failures: list[IdentityFailure] = []
    degrees = range(1, e)
    spaces = _single_spaces(m, degrees, w)
    for u, singles, (sigma, dims) in zip(degrees, spaces, _overlap(spaces, m.field)):
        emp = max(len(s) for s in singles)
        type_count = t * emp - h[u]
        recount = sum((j - 1) * binomial(t, j) * d for j, d in enumerate(dims, start=2))
        bound = h[e - u] - sigma
        for identity, lhs, rhs, ok in (
            ("type-count", sigma, type_count, sigma == type_count),
            ("recount", sigma, recount, sigma == recount),
            ("overlap-bound", emp, bound, emp >= bound),
        ):
            if ok:
                passed += 1
            else:
                failures.append(IdentityFailure(m.label, u, identity, lhs, rhs))
    return passed, failures


def run_manifest(
    manifest: tuple[ManifestInstance, ...],
    field: FieldSpec | None = None,
    seed: int = 0,
) -> tuple[RunSummary, list[VerificationReport]]:
    """Run every instance; returns the summary and the per-(instance, c)
    verification reports in manifest order. Every module is built and its
    c list checked, an error an InputError with its line (degenerate
    family draws included), before any instance is verified."""
    if field is None:
        field = FieldSpec.modular()
    start = time.monotonic()
    built = []
    for index, inst in enumerate(manifest):
        inst_seed = inst.seed if inst.seed is not None else derive_seed(seed, index)
        try:
            m = build_family(inst.spec, field, seed=inst_seed)
            c_list = inst.c_list if inst.c_list is not None else tuple(range(1, m.type))
            for c in c_list:
                _check_type(m.type, c)
        except (ValueError, DegenerateSampleError) as exc:
            raise InputError(str(exc), inst.line) from exc
        if inst.label:
            m = replace(m, label=inst.label)
        built.append((inst, inst_seed, m, c_list))
    reports: list[VerificationReport] = []
    id_passed = 0
    id_failures: list[IdentityFailure] = []
    for inst, inst_seed, m, c_list in built:
        reports += [
            verify_instance(
                m, c, trials=inst.trials, seed=derive_seed(inst_seed, "verify", c)
            )
            for c in c_list
        ]
        if inst.identities:
            p, f = _identity_checks(m, inst_seed)
            id_passed += p
            id_failures += f
    satisfied = sum(r.satisfied for r in reports)
    summary = RunSummary(
        instances=len(manifest),
        satisfied=satisfied,
        violated=len(reports) - satisfied,
        tight_instances=sum(len(r.tight_degrees) == len(r.h) for r in reports),
        identity_checks_passed=id_passed,
        identity_checks_failed=len(id_failures),
        wall_time=time.monotonic() - start,
        seed=seed,
        identity_failures=tuple(id_failures),
    )
    return summary, reports
