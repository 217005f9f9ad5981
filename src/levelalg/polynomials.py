"""Homogeneous forms in the dual variables y1..yr: the monomial order, the
closed-form rank of a monomial in it, and the contraction catalecticants
of coefficient rows.

Monomials are exponent vectors. Within a fixed degree they are ordered
graded reverse-lexicographically with y1 > y2 > ..., so index 0 is always
y1^d. Each (num_vars, degree) gets its exponents once, as a read-only int64
array in that order, read straight off the stars-and-bars cuts in the
order `itertools.combinations` yields the bars, with no sort. The position
of a monomial in that order has a closed form in the prefix sums of its
exponents (`monomial_rank`), and that one formula places every term of a
form in its coefficient row and builds every catalecticant index table.

The operator x^a acts by contraction: it sends y^(a+b) to y^b and kills
every monomial it does not divide. So the row of x^a in a catalecticant
reads the form's dense coefficients at the positions of a+b, for every
monomial b of the lower degree: one gather through a table cached per
(num_vars, degree, operator degree), from which every catalecticant row
in the package, apply_operator's included, is built.

`Form` is the sparse, exact form of the text and API edges: what
`parse_form` reads and `Form.to_text` writes. Like every value type of the
package it is a frozen dataclass, which reduces its coefficients in its
field once, when it is made. `coefficient_rows` turns forms into the dense
rows a module holds, and `form_from_row` turns a row back into a Form.
`coefficient_rows` and `to_text` clear denominators with `linalg._clear`.
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import chain, combinations
from math import comb

import numpy as np

from .fields import FieldSpec, Scalar
from .linalg import Subspace, _clear, _integer_array, _span

Exponents = tuple[int, ...]


class FormParseError(ValueError):
    """Syntax or semantic error in a form expression, with a position."""

    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


class ParameterMismatchError(ValueError):
    """Forms with incompatible (num_vars, degree, field) were combined."""


# Largest space of forms the package builds tables for: every table is
# indexed by the monomials of one degree, so this bounds time and memory.
MAX_SPACE_DIM = 10**6


def space_dim(num_vars: int, degree: int) -> int:
    """Dimension of the space of degree-`degree` forms in `num_vars` variables."""
    if degree < 0:
        return 0
    return comb(degree + num_vars - 1, num_vars - 1)


def check_space_dim(num_vars: int, degree: int) -> None:
    """Raise ValueError when the degree-`degree` forms in `num_vars`
    variables span more than MAX_SPACE_DIM monomials, or the degrees 0..e
    are more than MAX_SPACE_DIM: the h-vector and the num_vars × (e + 1)
    table of `_positions` have e + 1 entries a row. (N_e >= e + 1 for two
    or more variables, so only one variable reaches the second bound.)"""
    if degree + 1 > MAX_SPACE_DIM:
        raise ValueError(
            f"degree {degree} is more than the {MAX_SPACE_DIM - 1} "
            "this tool builds tables for"
        )
    dim = space_dim(num_vars, degree)
    if dim > MAX_SPACE_DIM:
        raise ValueError(
            f"degree-{degree} forms in {num_vars} variables span {dim} monomials, "
            f"more than the {MAX_SPACE_DIM} this tool builds tables for"
        )


@lru_cache(maxsize=None)
def _exponents(num_vars: int, degree: int) -> np.ndarray:
    """The exponent vectors of the given total degree, one row each, in
    monomial order: a read-only int64 array of shape (N, num_vars).

    Stars and bars: the num_vars - 1 bars among degree + num_vars - 1
    slots cut the stars into num_vars parts. `combinations` yields the
    bars in lexicographic order, so the parts come out ascending in
    lexicographic order, and read backwards they are the exponents in
    grevlex-descending order (which is ascending lexicographic order on
    the reversed exponents): no sort is needed. Raises ValueError above
    MAX_SPACE_DIM monomials, before anything is built.
    """
    check_space_dim(num_vars, degree)
    slots, n = degree + num_vars - 1, space_dim(num_vars, degree)
    cuts = np.empty((n, num_vars + 1), dtype=np.int64)
    cuts[:, 0], cuts[:, -1] = -1, slots
    bars = chain.from_iterable(combinations(range(slots), num_vars - 1))
    cuts[:, 1:-1] = np.fromiter(bars, np.int64, n * (num_vars - 1)).reshape(n, -1)
    # part k is cuts[k + 1] - cuts[k] - 1, and the exponent of y_(k+1) is
    # part num_vars - 1 - k
    exps = cuts[:, :0:-1] - cuts[:, -2::-1] - 1
    exps.flags.writeable = False
    return exps


@lru_cache(maxsize=None)
def monomials_of_degree(num_vars: int, degree: int) -> tuple[Exponents, ...]:
    """All exponent vectors of the given total degree, in monomial order:
    the rows of `_exponents` as tuples. Raises ValueError above
    MAX_SPACE_DIM monomials."""
    if num_vars < 1 or degree < 0:
        return ()
    return tuple(map(tuple, _exponents(num_vars, degree).tolist()))


def _positions(prefix, num_vars: int, degree: int) -> np.ndarray:
    """Positions in monomial order of degree-`degree` monomials x, given by
    their prefix sums: prefix(k), k = 0, 1, ..., is the array of x_1 + ...
    + x_(k+1), one shape for every k.

    With S_k = x_1 + ... + x_k, the monomials before x are, for each k >=
    2, those that agree with x in y_(k+1)..y_r and have a smaller y_k:
    space_dim(k, S_k) - space_dim(k, S_(k-1)) of them, summing
    space_dim(k-1, .) over the degrees left to y_1..y_(k-1). The sum runs
    one variable at a time, so every array keeps prefix's shape.
    """
    dims = np.array(
        [[space_dim(k, d) for d in range(degree + 1)] for k in range(1, num_vars + 1)]
    )
    prev = prefix(0)
    pos = np.zeros(np.shape(prev), dtype=np.int64)
    for k in range(1, num_vars):
        s = prefix(k)
        pos += dims[k, s] - dims[k, prev]
        prev = s
    return pos


def monomial_rank(exps, degree: int) -> np.ndarray:
    """Positions in monomial order of exponent vectors of total degree
    `degree`, laid along the last axis of `exps`, in one vectorized pass."""
    s = np.asarray(exps, dtype=np.int64).cumsum(-1)
    return _positions(lambda k: s[..., k], s.shape[-1], degree)


@dataclass(frozen=True, slots=True)
class Form:
    """Homogeneous polynomial with exact coefficients, stored sparsely.

    `terms` maps exponent tuples to nonzero field scalars: the given
    coefficients reduced in the field, the zero ones dropped. A Form with
    no terms is the zero form of its declared degree; those arise from
    operator actions but are rejected as module generators. Forms compare
    and hash by their four fields.
    """

    num_vars: int
    degree: int
    field: FieldSpec
    terms: dict[Exponents, Scalar]

    def __post_init__(self) -> None:
        if self.num_vars < 1:
            raise ValueError("need at least one variable")
        if self.degree < 0:
            raise ValueError("degree must be nonnegative")
        reduced: dict[Exponents, Scalar] = {}
        for exps, coeff in self.terms.items():
            exps = tuple(exps)
            if len(exps) != self.num_vars:
                raise ValueError(f"exponent tuple {exps} has wrong length")
            if any(e < 0 for e in exps):
                raise ValueError(f"negative exponent in {exps}")
            if sum(exps) != self.degree:
                raise ValueError(
                    f"monomial {exps} has degree {sum(exps)}, form declares {self.degree}"
                )
            if c := self.field.reduce(coeff):
                reduced[exps] = c
        object.__setattr__(self, "terms", reduced)

    def __hash__(self) -> int:
        return hash((self.num_vars, self.degree, self.field, frozenset(self.terms.items())))

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __repr__(self) -> str:
        return f"Form({self.to_text()!r}, vars={self.num_vars}, degree={self.degree})"

    def to_text(self) -> str:
        """Expression in the module-file grammar (integer coefficients)."""
        if self.is_zero:
            return "0"
        values, _ = _clear(self.terms.values())
        ranks = monomial_rank(list(self.terms), self.degree).tolist()
        pieces: list[str] = []
        for _, exps, c in sorted(zip(ranks, self.terms, values)):
            mono = "*".join(
                f"y{i + 1}^{e}" if e > 1 else f"y{i + 1}"
                for i, e in enumerate(exps)
                if e
            )
            mag = abs(c)
            body = mono if mag == 1 else f"{mag}*{mono}"
            if not pieces:
                pieces.append(body if c > 0 else f"-{body}")
            else:
                pieces.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(pieces)


_TOKEN = re.compile(r"(?P<int>\d+)|(?P<var>y)|(?P<sym>[\^*+-])|(?P<bad>\S)")


def _tokenize(text: str) -> list[tuple[str, str | int, int]]:
    """The tokens of `text` as (kind, value, position), an integer's value
    read as an int, then an ("end", "", len(text)) sentinel."""
    tokens = []
    for m in _TOKEN.finditer(text):
        kind, value, at = m.lastgroup, m.group(), m.start()
        if kind == "bad":
            raise FormParseError(f"unexpected character {value!r}", at)
        if kind == "int":
            try:
                value = int(value)
            except ValueError:  # past sys.get_int_max_str_digits()
                raise FormParseError(
                    f"integer literal of {len(value)} digits, more than the "
                    f"{sys.get_int_max_str_digits()} allowed",
                    at,
                ) from None
        tokens.append((kind, value, at))
    return tokens + [("end", "", len(text))]


def parse_form(text: str, num_vars: int, degree: int, field: FieldSpec) -> Form:
    """Parse an expression like ``y1^2*y2 + 3*y2^3 - y1*y2*y3``.

    Grammar: expression := ['-'] term (('+'|'-') term)*;
    term := [integer '*'] factor ('*' factor)*;
    factor := 'y' index ['^' exponent]. Indices are 1-based, whitespace is
    insignificant. Every term must have total degree `degree`. The integer
    coefficients of each monomial are summed, and the Form reduces them in
    its field; a form whose terms all cancel there is rejected.
    """
    tokens = _tokenize(text)
    if len(tokens) == 1:
        raise FormParseError("empty expression", 0)
    i = 0

    def take(kind: str, what: str, value: str | None = None):
        # the next token's value and position, if it is a `kind` (and one
        # of the characters `value`), else "expected `what`" at it
        nonlocal i
        tk, val, at = tokens[i]
        if tk != kind or value is not None and val not in value:
            raise FormParseError(f"expected {what}", at)
        i += 1
        return val, at

    acc: dict[Exponents, int] = {}
    sign, exps = 1, None
    if tokens[0][1] == "-":
        sign, i = -1, 1
    while True:  # one factor per pass, after its term's start or a '*'
        if exps is None:  # a term starts, with an optional "integer *"
            coeff, term_at, exps = 1, tokens[i][2], [0] * num_vars
            if tokens[i][0] == "int":
                coeff, _ = take("int", "a coefficient")
                take("sym", "'*' after a coefficient", "*")
        take("var", "a variable like y1")
        index, at = take("int", "a variable index")
        if not 1 <= index <= num_vars:
            raise FormParseError(
                f"variable index {index} out of range 1..{num_vars}", at
            )
        exp = 1
        if tokens[i][1] == "^":
            i += 1
            exp, _ = take("int", "an exponent")
        exps[index - 1] += exp
        if tokens[i][1] == "*":
            i += 1
            continue
        if sum(exps) != degree:
            raise FormParseError(
                f"term has degree {sum(exps)}, expected {degree}", term_at
            )
        key = tuple(exps)
        acc[key] = acc.get(key, 0) + sign * coeff
        if tokens[i][0] == "end":
            break
        val, _ = take("sym", "'+' or '-' between terms", "+-")
        sign, exps = (1 if val == "+" else -1), None

    form = Form(num_vars, degree, field, acc)
    if form.is_zero:
        raise FormParseError("form is zero after combining terms", 0)
    return form


def apply_operator(op: Exponents, form: Form) -> Form:
    """Contract `form` by the operator monomial x^op: each term divisible
    by x^op has its exponents lowered by op, with coefficient 1, and every
    other term dies. The result is a Form of degree deg - |op|, possibly
    zero: the row of op in the catalecticant of the form.
    """
    r, e, field, i = form.num_vars, form.degree, form.field, sum(op)
    if len(op) != r:
        raise ParameterMismatchError(f"operator has {len(op)} variables, form has {r}")
    if any(a < 0 for a in op):
        raise ValueError(f"negative exponent in operator {tuple(op)}")
    if i > e:
        raise ValueError(f"operator degree {i} out of range 0..{e}")
    rows, den = coefficient_rows([form])
    row = catalecticant_rows(rows, r, e, i)[monomial_rank(op, i)]
    return form_from_row(row.tolist(), r, e - i, field, den)


def _check_family(forms) -> tuple[int, int, FieldSpec]:
    if not forms:
        raise ValueError("need at least one form")
    first = forms[0]
    for f in forms[1:]:
        if (f.num_vars, f.degree, f.field) != (
            first.num_vars,
            first.degree,
            first.field,
        ):
            raise ParameterMismatchError(
                "forms disagree in variables, degree or field"
            )
    return first.num_vars, first.degree, first.field


def coefficient_rows(forms) -> tuple[np.ndarray, int]:
    """Dense coefficient rows of the forms, one row each, with every term
    placed at its `monomial_rank`, in the array type that
    `linalg._integer_array` picks for their term values, and the
    denominator d they are scaled by.

    Over GF(p) the rows hold residues in [0, p): int64 for p <=
    `linalg._INT64_PRIME_LIMIT`, so a product of two fits in int64 and
    every array built from them stays int64, and Python ints in an object
    array for larger primes; d is 1. Over Q they hold the coefficients
    times their least common denominator d, int64 while each is below
    2^62 in absolute value and Python ints in an object array otherwise:
    the same ranks and row spaces, and row / d gives the forms back
    exactly.
    """
    num_vars, degree, field = _check_family(forms)
    terms = [(k, exps, c) for k, f in enumerate(forms) for exps, c in f.terms.items()]
    values, den = _clear([c for *_, c in terms])
    values = _integer_array(values, field)
    rows = np.zeros((len(forms), space_dim(num_vars, degree)), dtype=values.dtype)
    if terms:
        ks, exps, _ = zip(*terms)
        rows[list(ks), monomial_rank(exps, degree)] = values
    return rows, den


def form_from_row(
    row, num_vars: int, degree: int, field: FieldSpec, denominator: int = 1
) -> Form:
    """The Form whose dense coefficients, in monomial order, are `row`
    divided by `denominator`."""
    terms = {m: c for m, c in zip(monomials_of_degree(num_vars, degree), row) if c}
    if denominator != 1:
        terms = {m: Fraction(c, denominator) for m, c in terms.items()}
    return Form(num_vars, degree, field, terms)


@lru_cache(maxsize=None)
def _gather_table(num_vars: int, degree: int, i: int) -> np.ndarray:
    """Where each catalecticant entry comes from: entry (op, m), for a
    degree-i operator op and a degree-(degree-i) monomial m, is the
    position of op*m among the degree-`degree` monomials. The prefix sums
    of op*m are the sums of those of op and m, so `_positions` builds the
    table one variable at a time from N_i-by-N_(e-i) arrays."""
    so = _exponents(num_vars, i).cumsum(1)
    sm = _exponents(num_vars, degree - i).cumsum(1)
    return _positions(lambda k: so[:, k, None] + sm[:, k], num_vars, degree)


def catalecticant_rows(
    coeffs: np.ndarray, num_vars: int, degree: int, i: int
) -> np.ndarray:
    """Contraction catalecticant C_i of the forms whose coefficient rows
    are `coeffs`: one row per (form, degree-i operator) pair, in form
    order then operator order, gathered from `coeffs` through the cached
    table, in the array type of `coeffs`.
    """
    table = _gather_table(num_vars, degree, i)
    return coeffs[:, table].reshape(-1, table.shape[1])


def derivative_space(forms, u: int) -> Subspace:
    """Degree-u subspace spanned by all order-(e-u) contractions of the
    forms: the row space of their catalecticant C_{e-u}."""
    num_vars, degree, field = _check_family(forms)
    if not 0 <= u <= degree:
        raise ValueError(f"degree {u} out of range 0..{degree}")
    rows, _ = coefficient_rows(forms)
    rows = catalecticant_rows(rows, num_vars, degree, degree - u)
    return _span(rows, rows.shape[1], field)
