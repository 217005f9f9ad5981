"""Module generators used throughout the test batteries.

Three constructions: a block family that attains the generic-quotient
bound in every degree, truncations of power sums supported on a conic,
and density-controlled random modules.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .fields import FieldSpec
from .modules import (
    DegenerateSampleError,
    DependentGeneratorsError,
    InverseSystemModule,
    derive_seed,
    random_coefficient,
)
from .polynomials import Form, check_space_dim, monomials_of_degree, space_dim

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
    gens = []
    for j in range(1, t + 1):
        terms = {}
        for m in range(1, p + 1):
            exps = [0] * r
            exps[m - 1] += e - 1
            exps[j * p + m - 1] += 1
            terms[tuple(exps)] = 1
        gens.append(Form(r, e, field, terms))
    return InverseSystemModule(tuple(gens), field, label=f"sharp-t{t}-p{p}-e{e}")


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
        lams = [random_coefficient(rng, field) for _ in range(s)]
        gens = _conic_partials(points, lams, e, field)
        try:
            return InverseSystemModule(
                tuple(gens), field, label=f"conic-s{s}-e{e}"
            )
        except DependentGeneratorsError:
            continue
    raise DegenerateSampleError("no valid conic configuration in 100 attempts")


def _conic_partials(points, lams, e: int, field: FieldSpec) -> list[Form]:
    # The default action lowers exponents with unit coefficients, so the
    # power of the linear form (1, s, s^2) is encoded without multinomial
    # factors: P_d(s) = sum over a+b+c=d of s^(b+2c) y1^a y2^b y3^c, which
    # satisfies x1.P_d = P_(d-1), x2.P_d = s P_(d-1), x3.P_d = s^2 P_(d-1).
    # Generator j is then x_j applied to sum_k lam_k P_(e+1)(s_k), i.e.
    # sum_k lam_k s_k^(j-1) P_e(s_k).
    monos = monomials_of_degree(3, e)
    gens = []
    for j in range(3):
        terms = {}
        for exps in monos:
            _, b, c = exps
            coeff = 0
            for s_k, lam in zip(points, lams):
                coeff += lam * pow(s_k, j) * pow(s_k, b + 2 * c)
            if coeff:
                terms[exps] = coeff
        gens.append(Form(3, e, field, terms))
    return gens


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
    nonzero random coefficient; empty or dependent draws are regenerated,
    up to 50 attempts.
    """
    if not 0 < density <= 1:
        raise ValueError("density must be in (0, 1]")
    if e < 1 or r < 1 or t < 1:
        raise ValueError("r, e, t must be positive")
    dim = space_dim(r, e)
    if t > dim:
        raise ValueError(f"type {t} exceeds the space dimension {dim}")
    monos = monomials_of_degree(r, e)
    for attempt in range(50):
        rng = random.Random(derive_seed(seed, "random-module", attempt))
        gens = []
        for _ in range(t):
            terms = {}
            for _ in range(50):
                terms = {
                    mono: random_coefficient(rng, field)
                    for mono in monos
                    if rng.random() < density
                }
                if terms:
                    break
            if not terms:
                break
            gens.append(Form(r, e, field, terms))
        if len(gens) != t:
            continue
        try:
            return InverseSystemModule(
                tuple(gens),
                field,
                label=f"random-r{r}-e{e}-t{t}-d{density:g}-s{seed}",
            )
        except DependentGeneratorsError:
            continue
    raise DegenerateSampleError("no independent random family in 50 attempts")


def monomial_module(
    r: int, e: int, t: int, seed: int, field: FieldSpec
) -> InverseSystemModule:
    """t distinct random degree-e monomials (independent by construction)."""
    if e < 1 or r < 1 or t < 1:
        raise ValueError("r, e, t must be positive")
    dim = space_dim(r, e)
    if t > dim:
        raise ValueError(f"type {t} exceeds the space dimension {dim}")
    rng = random.Random(derive_seed(seed, "monomial-module"))
    chosen = rng.sample(monomials_of_degree(r, e), t)
    gens = tuple(Form(r, e, field, {mono: 1}) for mono in chosen)
    return InverseSystemModule(gens, field, label=f"monomial-r{r}-e{e}-t{t}-s{seed}")


# family -> the parameters a manifest line may give it
FAMILY_PARAMS = {
    "sharp": ("t", "p", "e"),
    "truncated-gorenstein-conic": ("s", "e"),
    "random-dense": ("r", "e", "t"),
    "random-sparse": ("r", "e", "t", "density"),
    "monomial": ("r", "e", "t"),
}
FAMILY_NAMES = tuple(FAMILY_PARAMS)


@dataclass(frozen=True)
class FamilySpec:
    """A named family plus its integer/float parameters."""

    family: str
    params: tuple[tuple[str, object], ...]

    @classmethod
    def of(cls, family: str, **params) -> FamilySpec:
        return cls(family, tuple(sorted(params.items())))

    def get(self, key: str, default=None):
        for k, v in self.params:
            if k == key:
                return v
        return default


def build_family(spec: FamilySpec, field: FieldSpec, seed: int = 0) -> InverseSystemModule:
    """Instantiate a FamilySpec; `seed` is the fallback when the spec has none."""
    fam = spec.family
    s = spec.get("seed", seed)
    if fam == "sharp":
        return sharp_family(
            _need(spec, "t"), spec.get("p", 1), _need(spec, "e"), field
        )
    if fam == "truncated-gorenstein-conic":
        return truncated_gorenstein_conic(
            _need(spec, "s"), _need(spec, "e"), field, seed=s
        )
    if fam == "random-dense":
        return random_module(
            _need(spec, "r"), _need(spec, "e"), _need(spec, "t"), 1.0, s, field
        )
    if fam == "random-sparse":
        return random_module(
            _need(spec, "r"),
            _need(spec, "e"),
            _need(spec, "t"),
            float(spec.get("density", 0.35)),
            s,
            field,
        )
    if fam == "monomial":
        return monomial_module(
            _need(spec, "r"), _need(spec, "e"), _need(spec, "t"), s, field
        )
    raise ValueError(f"unknown family {fam!r}; known: {', '.join(FAMILY_NAMES)}")


def _need(spec: FamilySpec, key: str) -> int:
    v = spec.get(key)
    if v is None:
        raise ValueError(f"family {spec.family!r} requires parameter {key}=")
    return int(v)
