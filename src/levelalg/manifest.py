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
    _draws,
    _overlap,
    _parse_int,
    _single_spaces,
    derive_seed,
    empirical_generic_h,
    h_vector,
)
from .families import FAMILY_NAMES, FAMILY_PARAMS, FamilySpec, build_family


@dataclass(frozen=True)
class ManifestInstance:
    spec: FamilySpec
    c_list: tuple[int, ...] | None  # None = all admissible types
    trials: int
    seed: int | None
    label: str
    identities: bool
    line: int


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


_CONTROL_KEYS = ("c", "trials", "seed", "label", "identities")


def parse_manifest(text: str) -> tuple[ManifestInstance, ...]:
    instances = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        family = tokens[0]
        if family not in FAMILY_NAMES:
            raise InputError(
                f"unknown family {family!r}; known: {', '.join(FAMILY_NAMES)}", lineno
            )
        params: dict[str, object] = {}
        c_list = None
        trials = 5
        seed = None
        label = ""
        identities = True
        seen: set[str] = set()
        for tok in tokens[1:]:
            if "=" not in tok:
                raise InputError(f"expected key=value, got {tok!r}", lineno)
            key, _, value = tok.partition("=")
            if key in seen:
                raise InputError(f"repeated key {key!r}", lineno)
            seen.add(key)
            if key == "c":
                try:
                    c_list = tuple(int(x) for x in value.split(","))
                except ValueError as exc:
                    raise InputError(f"bad c list {value!r}", lineno) from exc
                if len(set(c_list)) != len(c_list):
                    raise InputError(f"repeated type in c list {value!r}", lineno)
            elif key == "trials":
                trials = _parse_int(value, "trials", lineno)
                if trials < 1:
                    raise InputError("trials must be positive", lineno)
            elif key == "seed":
                seed = _parse_int(value, "seed", lineno)
            elif key == "label":
                label = value
            elif key == "identities":
                if value not in ("on", "off"):
                    raise InputError("identities must be on or off", lineno)
                identities = value == "on"
            elif key not in FAMILY_PARAMS[family]:
                known = ", ".join(FAMILY_PARAMS[family] + _CONTROL_KEYS)
                raise InputError(
                    f"unknown key {key!r} for {family}; known: {known}", lineno
                )
            elif key == "density":
                try:
                    params[key] = float(value)
                except ValueError as exc:
                    raise InputError(f"bad density {value!r}", lineno) from exc
            else:
                params[key] = _parse_int(value, key, lineno)
        instances.append(
            ManifestInstance(
                spec=FamilySpec.of(family, **params),
                c_list=c_list,
                trials=trials,
                seed=seed,
                label=label,
                identities=identities,
                line=lineno,
            )
        )
    if not instances:
        raise InputError("manifest has no instances", 1)
    return tuple(instances)


def _identity_checks(m, trials: int, seed: int) -> tuple[int, list[IdentityFailure]]:
    """Run the per-degree identity checks on re-mixed generators; returns
    the number passed and a record of each failure.

    Three checks per inner degree u: the type-count identity
    sum = t*H_u - h_u, the subset recount sum = sum_j (j-1) C(t,j) D_u(j),
    and the overlap lower bound H_u >= h_{e-u} - sum, on the rows W that
    `remix_generators` draws, never built as a module. The sums and every
    D_u(j) of all degrees come from one `_overlap` walk over the degrees
    together; the D_u(j) it does not list are 0 and add nothing to the
    recount. The walk settles a degree whose spaces add up to h_u, or are
    each all of it, with no meet, as in every inner degree of the type-2
    lines of perfbench/manifest.txt. On the sharp families it meets only
    the pairs and triples of each degree: every larger subset meets in
    the line its triples share.
    """
    t = m.type
    e = m.socle_degree
    if t < 2 or e < 2:
        return 0, []
    [(_, w)] = _draws(m, t, [derive_seed(seed, "identity-mix")], "remix")
    h = h_vector(m)
    emp = empirical_generic_h(m, 1, trials=trials, seed=derive_seed(seed, "identity-emp"))
    passed = 0
    failures: list[IdentityFailure] = []
    degrees = range(1, e)
    walks = _overlap(_single_spaces(m, degrees, w), m.field)
    for u, (sigma, dims) in zip(degrees, walks):
        type_count = t * emp[u] - h[u]
        recount = sum((j - 1) * binomial(t, j) * d for j, d in enumerate(dims, start=2))
        bound = h[e - u] - sigma
        for identity, lhs, rhs, ok in (
            ("type-count", sigma, type_count, sigma == type_count),
            ("recount", sigma, recount, sigma == recount),
            ("overlap-bound", emp[u], bound, emp[u] >= bound),
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
    reports: list[VerificationReport] = []
    satisfied = violated = tight_instances = 0
    id_passed = 0
    id_failures: list[IdentityFailure] = []
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
    for inst, inst_seed, m, c_list in built:
        for c in c_list:
            rep = verify_instance(
                m, c, trials=inst.trials, seed=derive_seed(inst_seed, "verify", c)
            )
            reports.append(rep)
            if rep.satisfied:
                satisfied += 1
            else:
                violated += 1
            if len(rep.tight_degrees) == len(rep.h):
                tight_instances += 1
        if inst.identities:
            p, f = _identity_checks(m, inst.trials, inst_seed)
            id_passed += p
            id_failures += f
    summary = RunSummary(
        instances=len(manifest),
        satisfied=satisfied,
        violated=violated,
        tight_instances=tight_instances,
        identity_checks_passed=id_passed,
        identity_checks_failed=len(id_failures),
        wall_time=time.monotonic() - start,
        seed=seed,
        identity_failures=tuple(id_failures),
    )
    return summary, reports
