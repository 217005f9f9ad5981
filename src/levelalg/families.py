"""Module generators used throughout the test batteries.

Three constructions: a block family that attains the generic-quotient
bound in every degree, truncations of power sums supported on a conic,
and density-controlled random modules, plus random monomial modules. Each
writes its generators' coefficient rows directly, in monomial order.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import islice

import numpy as np

from .fields import FieldSpec
from .modules import (
    DegenerateSampleError,
    DependentGeneratorsError,
    InverseSystemModule,
    _coefficients,
    derive_seed,
)
from .polynomials import check_space_dim, monomial_rank, monomials_of_degree, space_dim

_CONIC_POINT_RANGE = 10**4


def sharp_family(t: int, p: int, e: int, field: FieldSpec) -> InverseSystemModule:
    """Module in (t+1)p variables whose every generic quotient is as small
    as the bound allows: h = (1, (t+1)p, ..., (t+1)p, t), and a generic
    type-c quotient has h = (1, (c+1)p, ..., (c+1)p, c).

    Generator j is the sum over m of y_{jp+m} * y_m^(e-1).
    """
    if t < 2:
        raise ValueError("need type t >= 2")
    if p < 1:
        raise ValueError("block size p must be positive")
    if e < 2:
        raise ValueError("socle degree must be at least 2")
    r = (t + 1) * p
    check_space_dim(r, e)
    # the exponents of term m of generator j, 0-based: e-1 at m, 1 at (j+1)p+m
    exps = np.zeros((t, p, r), dtype=np.int64)
    j, m = np.arange(t)[:, None], np.arange(p)
    exps[j, m, m] = e - 1
    exps[j, m, (j + 1) * p + m] = 1
    rows = np.zeros((t, space_dim(r, e)), dtype=np.int64)
    rows[j, monomial_rank(exps, e)] = 1
    return InverseSystemModule(r, e, field, rows, label=f"sharp-t{t}-p{p}-e{e}")


def truncated_gorenstein_conic(
    s: int, e: int, field: FieldSpec, seed: int = 0
) -> InverseSystemModule:
    """First-order derivatives of a random weighted sum of s powers of
    linear forms supported on the conic (1, x, x^2), each of degree e,
    with the powers encoded for the exponent-lowering action (see
    _conic_partials).

    The s points s_k are drawn distinct from [1, _CONIC_POINT_RANGE]; a
    draw with dependent partials is retried with the next derived seed.
    """
    if not 3 <= s <= _CONIC_POINT_RANGE:
        raise ValueError(f"need between 3 and {_CONIC_POINT_RANGE} points")
    if e < 3:
        raise ValueError("socle degree must be at least 3")
    for attempt in range(100):
        rng = random.Random(derive_seed(seed, "conic", attempt))
        points = rng.sample(range(1, _CONIC_POINT_RANGE + 1), s)
        lams = list(islice(_coefficients(rng, field), s))
        rows = _conic_partials(points, lams, e)
        try:
            return InverseSystemModule(3, e, field, rows, label=f"conic-s{s}-e{e}")
        except DependentGeneratorsError:
            continue
    raise DegenerateSampleError("no valid conic configuration in 100 attempts")


def _conic_partials(points, lams, e: int) -> list[list[int]]:
    # Contraction lowers exponents with unit coefficients, so the power of
    # the linear form (1, s, s^2) is encoded without multinomial factors:
    # P_d(s) = sum over a+b+c=d of s^(b+2c) y1^a y2^b y3^c, which satisfies
    # x1.P_d = P_(d-1), x2.P_d = s P_(d-1), x3.P_d = s^2 P_(d-1). Generator
    # j is then x_j applied to sum_k lam_k P_(e+1)(s_k), i.e. sum_k lam_k
    # s_k^(j-1) P_e(s_k): its coefficient rows, in Python ints (the module
    # reduces them mod p over GF(p)).
    monos = monomials_of_degree(3, e)
    return [
        [sum(lam * s_k ** (j + b + 2 * c) for s_k, lam in zip(points, lams))
         for _, b, c in monos]
        for j in range(3)
    ]


def _check_size(r: int, e: int, t: int) -> int:
    """The dimension of the space of degree-e forms in r variables, once r,
    e and t are positive, t is at most it and the space passes
    `check_space_dim`; else a ValueError."""
    if e < 1 or r < 1 or t < 1:
        raise ValueError("r, e, t must be positive")
    dim = space_dim(r, e)
    if t > dim:
        raise ValueError(f"type {t} exceeds the space dimension {dim}")
    check_space_dim(r, e)
    return dim


def random_module(
    r: int,
    e: int,
    t: int,
    density: float,
    seed: int,
    field: FieldSpec,
) -> InverseSystemModule:
    """t independent random forms of degree e in r variables.

    Each degree-e monomial enters a form with the given probability and a
    nonzero random coefficient, drawn into the form's coefficient row in
    monomial order; empty or dependent draws are regenerated, up to 50
    attempts.
    """
    if not 0 < density <= 1:
        raise ValueError("density must be in (0, 1]")
    dim = _check_size(r, e, t)
    for attempt in range(50):
        rng = random.Random(derive_seed(seed, "random-module", attempt))
        draw, coefficients = rng.random, _coefficients(rng, field)
        rows = []
        for _ in range(t):
            for _ in range(50):
                row = [
                    next(coefficients) if draw() < density else 0
                    for _ in range(dim)
                ]
                if any(row):
                    break
            else:
                break
            rows.append(row)
        if len(rows) != t:
            continue
        try:
            return InverseSystemModule(
                r, e, field, rows, label=f"random-r{r}-e{e}-t{t}-d{density:g}-s{seed}"
            )
        except DependentGeneratorsError:
            continue
    raise DegenerateSampleError("no independent random family in 50 attempts")


def monomial_module(
    r: int, e: int, t: int, seed: int, field: FieldSpec
) -> InverseSystemModule:
    """t distinct random degree-e monomials (independent by construction),
    sampled by their positions in monomial order."""
    dim = _check_size(r, e, t)
    rng = random.Random(derive_seed(seed, "monomial-module"))
    rows = np.zeros((t, dim), dtype=np.int64)
    rows[range(t), rng.sample(range(dim), t)] = 1
    return InverseSystemModule(r, e, field, rows, label=f"monomial-r{r}-e{e}-t{t}-s{seed}")


# family -> (builder, the parameters a manifest line may give it, in order,
# each with its default, None where the line must give it); the builder
# takes them in that order, then the field and the seed
FAMILIES = {
    "sharp": (
        lambda t, p, e, field, seed: sharp_family(t, p, e, field),
        {"t": None, "p": 1, "e": None},
    ),
    "truncated-gorenstein-conic": (
        lambda s, e, field, seed: truncated_gorenstein_conic(s, e, field, seed),
        {"s": None, "e": None},
    ),
    "random-dense": (
        lambda r, e, t, field, seed: random_module(r, e, t, 1.0, seed, field),
        {"r": None, "e": None, "t": None},
    ),
    "random-sparse": (
        lambda r, e, t, density, field, seed: random_module(r, e, t, density, seed, field),
        {"r": None, "e": None, "t": None, "density": 0.35},
    ),
    "monomial": (
        lambda r, e, t, field, seed: monomial_module(r, e, t, seed, field),
        {"r": None, "e": None, "t": None},
    ),
}
FAMILY_PARAMS = {family: tuple(params) for family, (_, params) in FAMILIES.items()}
FAMILY_NAMES = tuple(FAMILIES)


@dataclass(frozen=True)
class FamilySpec:
    """A named family plus its integer/float parameters."""

    family: str
    params: tuple[tuple[str, object], ...]

    @classmethod
    def of(cls, family: str, **params) -> FamilySpec:
        return cls(family, tuple(sorted(params.items())))


def build_family(spec: FamilySpec, field: FieldSpec, seed: int = 0) -> InverseSystemModule:
    """Instantiate a FamilySpec from its `FAMILIES` row, the row's defaults
    filling the parameters the spec leaves out; `seed` is the fallback when
    the spec has none."""
    if spec.family not in FAMILIES:
        raise ValueError(
            f"unknown family {spec.family!r}; known: {', '.join(FAMILY_NAMES)}"
        )
    builder, defaults = FAMILIES[spec.family]
    given = dict(spec.params)
    args = [given.get(key, default) for key, default in defaults.items()]
    if None in args:
        missing = list(defaults)[args.index(None)]
        raise ValueError(f"family {spec.family!r} requires parameter {missing}=")
    return builder(*args, field, given.get("seed", seed))
