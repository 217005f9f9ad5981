"""Finitely generated submodules of the dual polynomial ring.

A module here is a list of linearly independent homogeneous forms of one
degree e; the polynomial ring acts by contraction (or differentiation).
The h-vector entry in degree u is the dimension of the degree-u piece,
i.e. of the span of all order-(e-u) derivatives of the generators. The
socle degree e always contributes dim = number of generators, the type.

Randomized operations (generic quotients, generator re-mixing) are fully
reproducible: every draw comes from a Mersenne Twister seeded through a
sha256 counter derivation of the caller's seed. A quotient sample is the
rows of W = A·F, never a new module; the trials of one quotient type are
drawn side by side and ranked as one stack per degree.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from functools import cached_property, lru_cache
from math import lcm

import numpy as np

from .fields import FieldSpec
from .linalg import _combine, _echelon, _meet, _meets, _rank, _ranks
from .polynomials import (
    DerivativeAction,
    Form,
    FormParseError,
    catalecticant_rows,
    coefficient_rows,
    form_from_row,
    parse_form,
)

COEFF_RANGE = 10**6  # bound of the random coefficients; see random_coefficient


class DependentGeneratorsError(ValueError):
    """The given generators are linearly dependent (or zero)."""


class DegenerateSampleError(RuntimeError):
    """Random sampling failed to produce an independent family."""


class ModuleFileError(ValueError):
    """Malformed module file; carries the offending line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


def derive_seed(*parts) -> int:
    """Deterministic 64-bit seed derived from the given labels."""
    data = ":".join(str(p) for p in parts).encode()
    return int.from_bytes(hashlib.sha256(data).digest()[:8], "big")


def random_coefficient(rng: random.Random, field: FieldSpec) -> int:
    """Nonzero integer coefficient: [1, min(10^6, p-1)] over GF(p), so that
    it is nonzero modulo p too, and [-10^6, 10^6] over Q."""
    if field.is_modular:
        return rng.randint(1, min(COEFF_RANGE, field.prime - 1))
    while True:
        v = rng.randint(-COEFF_RANGE, COEFF_RANGE)
        if v:
            return v


@dataclass(frozen=True)
class InverseSystemModule:
    """Independent degree-e generators over a common field, with a label."""

    generators: tuple[Form, ...]
    field: FieldSpec
    label: str = ""

    def __post_init__(self) -> None:
        if not self.generators:
            raise ValueError("a module needs at least one generator")
        g0 = self.generators[0]
        if g0.degree < 1:
            raise ValueError("generator degree must be at least 1")
        for g in self.generators:
            if g.field != self.field:
                raise ValueError("generator field disagrees with module field")
            if (g.num_vars, g.degree) != (g0.num_vars, g0.degree):
                raise ValueError("generators disagree in variables or degree")
        if self.field.is_modular and self.field.prime <= g0.degree:
            raise ValueError(
                f"modulus {self.field.prime} must exceed the socle degree {g0.degree}"
            )
        if _rank(self._coeffs, self.field) != len(self.generators):
            raise DependentGeneratorsError(
                f"{len(self.generators)} generators span a smaller space"
            )

    @cached_property
    def _coeffs(self) -> np.ndarray:
        """The generators' coefficient rows, over Q scaled by one common
        denominator to integers; built once, shared and read-only."""
        rows = coefficient_rows(self.generators, integral=True)
        rows.flags.writeable = False
        return rows

    @property
    def num_vars(self) -> int:
        return self.generators[0].num_vars

    @property
    def socle_degree(self) -> int:
        return self.generators[0].degree

    @property
    def type(self) -> int:
        return len(self.generators)


@dataclass(frozen=True)
class QuotientSample:
    """One random type-c quotient: the combination matrix and its h-vector."""

    parent: InverseSystemModule
    c: int
    coefficients: tuple[tuple[int, ...], ...]
    seed: int
    h: tuple[int, ...]


def _graded_ranks(w: np.ndarray, m: InverseSystemModule) -> list[tuple[int, ...]]:
    """h-vectors of the modules generated by each w[k], c independent
    coefficient rows in the ring of m: one stacked rank per inner degree.
    h_0 = 1 and h_e = c need none, and for one form h_u = h_{e-u}, since
    its contraction catalecticants C_{e-u} and C_u are transposes."""
    k, c, _ = w.shape
    e = m.socle_degree
    h = np.ones((k, e + 1), dtype=np.int64)
    h[:, e] = c
    top = e // 2 if c == 1 else e - 1
    forms = w.reshape(k * c, -1)
    for u in range(1, top + 1):
        rows = catalecticant_rows(
            forms, m.num_vars, e, e - u, DerivativeAction.CONTRACT, m.field
        )
        h[:, u] = _ranks(rows.reshape(k, -1, rows.shape[1]), m.field)
    for u in range(top + 1, e):
        h[:, u] = h[:, e - u]
    return [tuple(row) for row in h.tolist()]


@lru_cache(maxsize=4096)
def h_vector(m: InverseSystemModule) -> tuple[int, ...]:
    """Dimensions of the graded pieces, from degree 0 to the socle degree."""
    return _graded_ranks(m._coeffs[None], m)[0]


def _derivative_rows(
    coeffs: np.ndarray, num_vars: int, e: int, u: int, field: FieldSpec
) -> tuple[np.ndarray, ...]:
    """Echelon rows of the degree-u derivative space of each form whose
    coefficient row is in `coeffs`."""
    return tuple(
        _echelon(
            catalecticant_rows(
                coeffs[j : j + 1], num_vars, e, e - u, DerivativeAction.CONTRACT, field
            ),
            field,
        )[0]
        for j in range(len(coeffs))
    )


@lru_cache(maxsize=16384)
def _single_spaces(m: InverseSystemModule, u: int) -> tuple[np.ndarray, ...]:
    """Each generator's degree-u echelon rows; shared, so never written to."""
    return _derivative_rows(m._coeffs, m.num_vars, m.socle_degree, u, m.field)


@lru_cache(maxsize=16384)
def _subset_meet(m: InverseSystemModule, u: int, subset: tuple[int, ...]) -> np.ndarray:
    """Rows spanning the intersection of the subset's degree-u spaces, met
    onto the cached meet of subset[:-1]: the prefixes of one subset share
    their meets. Shared, so never written to."""
    spaces = _single_spaces(m, u)
    if len(subset) == 1:
        return spaces[subset[0]]
    inter = _subset_meet(m, u, subset[:-1])
    return _meet(inter, spaces[subset[-1]], m.field) if len(inter) else inter


def _random_matrix(
    seed: int, label: str, attempt: int, rows: int, cols: int, field: FieldSpec
) -> tuple[tuple[int, ...], ...]:
    rng = random.Random(derive_seed(seed, label, attempt))
    return tuple(
        tuple(random_coefficient(rng, field) for _ in range(cols))
        for _ in range(rows)
    )


def _check_type(m: InverseSystemModule, c: int) -> None:
    if not 1 <= c <= m.type - 1:
        raise ValueError(f"quotient type {c} out of range 1..{m.type - 1}")


def _samples(m: InverseSystemModule, c: int, seeds) -> list[QuotientSample]:
    """One random type-c quotient per seed, all drawn and ranked together.

    Round k draws attempt k of every trial not yet accepted and accepts
    those whose combinations W = A·F have rank c, in one stacked rank; so
    each trial sees the attempts 0, 1, ... it would see alone. The h-vectors
    of the accepted W are then one stacked rank per degree.
    """
    t = m.type
    draws: dict[int, tuple] = {}
    for attempt in range(100):
        pending = [k for k in range(len(seeds)) if k not in draws]
        if not pending:
            break
        a = [_random_matrix(seeds[k], "quotient", attempt, c, t, m.field) for k in pending]
        ranks = _ranks(_combine(a, m._coeffs, m.field), m.field)
        draws.update((k, rows) for k, rows, r in zip(pending, a, ranks) if r == c)
    if len(draws) < len(seeds):
        raise DegenerateSampleError(
            f"no independent {c}-of-{t} combination found in 100 attempts"
        )
    accepted = [draws[k] for k in range(len(seeds))]
    hs = _graded_ranks(_combine(accepted, m._coeffs, m.field), m)
    return [QuotientSample(m, c, *x) for x in zip(accepted, seeds, hs)]


def sample_generic_quotient(
    m: InverseSystemModule,
    c: int,
    seed: int = 0,
    coefficients=None,
) -> QuotientSample:
    """Submodule generated by c random combinations of the generators.

    Draws a c-by-t integer matrix A with nonzero random entries and retries
    (up to 100 derived attempts, attempt k seeded by derive_seed(seed,
    "quotient", k)) until the combinations W = A·F are independent; h is
    then read off the catalecticants of W. An explicit `coefficients`
    matrix skips the sampling; a 0/1 selection matrix, for instance, picks
    out a plain subset of the generators.
    """
    _check_type(m, c)
    if coefficients is None:
        return _samples(m, c, [seed])[0]
    rows = tuple(tuple(int(x) for x in row) for row in coefficients)
    if len(rows) != c or any(len(r) != m.type for r in rows):
        raise ValueError(f"coefficient matrix must be {c}x{m.type}")
    w = _combine([rows], m._coeffs, m.field)
    if _ranks(w, m.field)[0] != c:
        raise DependentGeneratorsError(f"{c} combinations span a smaller space")
    return QuotientSample(m, c, rows, seed, _graded_ranks(w, m)[0])


def generic_quotient_trials(
    m: InverseSystemModule, c: int, trials: int = 5, seed: int = 0
) -> list[QuotientSample]:
    """Independent quotient samples with per-trial derived seeds.

    Trial k equals sample_generic_quotient(m, c, derive_seed(seed, "trial",
    k)), bit for bit, but all trials are drawn and ranked side by side.
    """
    _check_type(m, c)
    if trials < 1:
        raise ValueError("need at least one trial")
    return _samples(m, c, [derive_seed(seed, "trial", k) for k in range(trials)])


def empirical_generic_h(
    m: InverseSystemModule, c: int, trials: int = 5, seed: int = 0
) -> tuple[int, ...]:
    """Entrywise max of sampled quotient h-vectors.

    A certified lower bound for the generic quotient h-vector, and equal
    to it unless every trial landed in the thin non-generic locus.
    """
    samples = generic_quotient_trials(m, c, trials, seed)
    return tuple(max(col) for col in zip(*(s.h for s in samples)))


def remix_generators(m: InverseSystemModule, seed: int = 0) -> InverseSystemModule:
    """Same module, re-generated by t random independent combinations.

    Useful because overlap statistics below depend on the chosen
    generators; a random re-mix realizes the generic choice while leaving
    the module (hence its h-vector) untouched.
    """
    t = m.type
    # den·F in integers, den the common denominator m._coeffs clears
    den = lcm(*(x.denominator for g in m.generators for x in g.terms.values()))
    for attempt in range(100):
        a = _random_matrix(seed, "remix", attempt, t, t, m.field)
        w = _combine(a, m._coeffs, m.field)
        if _rank(w, m.field) != t:
            continue
        rows = w.tolist()
        if den > 1:
            rows = [[Fraction(x, den) for x in row] for row in rows]
        forms = tuple(
            form_from_row(row, m.num_vars, m.socle_degree, m.field) for row in rows
        )
        return InverseSystemModule(forms, m.field, label=m.label)
    raise DegenerateSampleError("no invertible re-mix found in 100 attempts")


def _check_degree(m: InverseSystemModule, u: int) -> None:
    if not 1 <= u <= m.socle_degree - 1:
        raise ValueError(
            f"degree u={u} out of range 1..{m.socle_degree - 1}"
        )


def intersection_dim(forms, u: int) -> int:
    """Dimension of the intersection of the forms' degree-u derivative spaces."""
    family = list(forms)
    if not family:
        raise ValueError("need at least one form")
    e = family[0].degree
    if not 1 <= u <= e - 1:
        raise ValueError(f"degree u={u} out of range 1..{e - 1}")
    f0 = family[0]
    coeffs = coefficient_rows(family, integral=True)
    inter, *rest = _derivative_rows(coeffs, f0.num_vars, e, u, f0.field)
    for rows in rest:
        if len(inter):
            inter = _meet(inter, rows, f0.field)
    return len(inter)


def inclusion_exclusion_sum(m: InverseSystemModule, u: int) -> int:
    """Alternating sum of intersection dimensions over generator subsets.

    Pairs count positive, triples negative, and so on; for generically
    chosen generators this equals t * H_u(generic Gorenstein quotient)
    minus h_u. Use remix_generators first when that identity is wanted.

    The subsets are walked level by level in lexicographic order. Level q
    holds the rows of each q-subset's intersection with a nonzero result,
    and its children, the subset plus one generator after its last, are
    all met in one stacked `_meets` call. A zero intersection is dropped,
    since every superset then contributes 0, and a level is freed once its
    children are built.
    """
    _check_degree(m, u)
    t = m.type
    if t < 2:
        raise ValueError("inclusion-exclusion needs at least two generators")
    spaces = _single_spaces(m, u)
    level = list(zip(spaces, range(t)))
    total, sign = 0, 1
    while level:
        children = [
            (k, j) for k, (_, last) in enumerate(level) for j in range(last + 1, t)
        ]
        meets = _meets([(level[k][0], spaces[j]) for k, j in children], m.field)
        level = [(meet, j) for meet, (_, j) in zip(meets, children) if len(meet)]
        total += sign * sum(len(meet) for meet, _ in level)
        sign = -sign
    return total


def relative_intersection_dim(
    m: InverseSystemModule, q: int, u: int, subset=None
) -> int:
    """Dimension of the q-fold intersection modulo the complement's span.

    Intersect the degree-u spaces of q chosen generators, then quotient by
    the sum of the remaining generators' spaces. Defaults to the first q
    generators; for generic generators the value is independent of the
    choice of subset.
    """
    _check_degree(m, u)
    t = m.type
    if not 1 <= q <= t:
        raise ValueError(f"subset size {q} out of range 1..{t}")
    if subset is None:
        subset = tuple(range(q))
    subset = tuple(subset)
    if len(set(subset)) != q or any(not 0 <= j < t for j in subset):
        raise ValueError(f"subset {subset} is not {q} distinct indices below {t}")
    spaces = _single_spaces(m, u)
    inter = _subset_meet(m, u, subset)
    rest = [spaces[j] for j in range(t) if j not in subset]
    if not rest or not len(inter):
        return len(inter)
    rest = np.vstack(rest)
    return _rank(np.vstack([inter, rest]), m.field) - _rank(rest, m.field)


# ---------------------------------------------------------------------------
# module files

def parse_module_file(
    text: str, field_override: FieldSpec | None = None
) -> InverseSystemModule:
    """Read a module from its text format.

    Header lines `vars: r`, `degree: e`, `prime: p` (or `prime: rational`),
    then one `F<k>: <expression>` line per generator, numbered from 1.
    Blank lines and lines starting with '#' are skipped. A field override
    reinterprets the integer literals over that field instead of the
    header's.
    """
    num_vars = degree = None
    field: FieldSpec | None = None
    gen_texts: list[tuple[int, str, int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if ":" not in line:
            raise ModuleFileError("expected 'key: value'", lineno)
        key, _, value = line.partition(":")
        key = key.strip()
        value = value.strip()
        if key == "vars":
            num_vars = _parse_positive(value, "vars", lineno)
        elif key == "degree":
            degree = _parse_positive(value, "degree", lineno)
        elif key == "prime":
            if value == "rational":
                field = FieldSpec.rational()
            else:
                try:
                    field = FieldSpec.modular(int(value))
                except ValueError as exc:
                    raise ModuleFileError(str(exc), lineno) from exc
        elif key.startswith("F") and key[1:].isdigit():
            gen_texts.append((int(key[1:]), value, lineno))
        else:
            raise ModuleFileError(f"unknown key {key!r}", lineno)
    if num_vars is None or degree is None:
        raise ModuleFileError("missing 'vars' or 'degree' header", 1)
    if field_override is not None:
        field = field_override
    elif field is None:
        field = FieldSpec.modular()
    if not gen_texts:
        raise ModuleFileError("no generator lines", 1)
    expected = list(range(1, len(gen_texts) + 1))
    if sorted(k for k, _, _ in gen_texts) != expected:
        raise ModuleFileError(
            f"generator labels must be F1..F{len(gen_texts)}", gen_texts[0][2]
        )
    forms = []
    for _, expr, lineno in sorted(gen_texts):
        try:
            forms.append(parse_form(expr, num_vars, degree, field))
        except FormParseError as exc:
            raise ModuleFileError(str(exc), lineno) from exc
    try:
        return InverseSystemModule(tuple(forms), field)
    except (DependentGeneratorsError, ValueError) as exc:
        raise ModuleFileError(str(exc), 1) from exc


def _parse_positive(value: str, what: str, lineno: int) -> int:
    try:
        n = int(value)
    except ValueError as exc:
        raise ModuleFileError(f"{what} must be an integer", lineno) from exc
    if n < 1:
        raise ModuleFileError(f"{what} must be positive", lineno)
    return n


def module_to_text(m: InverseSystemModule) -> str:
    """Serialize in the same format parse_module_file reads."""
    prime = m.field.prime if m.field.is_modular else "rational"
    lines = [f"vars: {m.num_vars}", f"degree: {m.socle_degree}", f"prime: {prime}"]
    for k, g in enumerate(m.generators, start=1):
        lines.append(f"F{k}: {g.to_text()}")
    return "\n".join(lines) + "\n"
