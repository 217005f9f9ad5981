"""Sparse homogeneous forms in the dual variables y1..yr and the action of
operator monomials on them by partial differentiation or by contraction.

Monomials are bare exponent tuples. Within a fixed degree they are ordered
graded reverse-lexicographically with y1 > y2 > ..., so index 0 is always
y1^d. Each (num_vars, degree) gets its exponents once, as a read-only int64
array in that order, read straight off the stars-and-bars cuts in the
order `itertools.combinations` yields the bars, with no sort; the tuples
and the (monomial -> column index) maps are derived from it and cached.

Both actions are one gather. The operator x^a sends y^(a+b) to y^b, so the
row of x^a in a catalecticant reads the form's dense coefficients at the
indices of a+b, for every monomial b of the lower degree. Those indices
are cached per (num_vars, degree, operator degree, action), and every
catalecticant row in the package, apply_operator included, is built from
that table. Differentiation only adds the falling-factorial weight
prod_k (a_k + b_k)! / b_k! of each entry; contraction has no weights.
"""

from __future__ import annotations

import re
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from itertools import chain, combinations
from math import comb, lcm, perm

import numpy as np

from .fields import FieldSpec, Scalar
from .linalg import Subspace, _dtype, _span

Exponents = tuple[int, ...]


class DerivativeAction(Enum):
    DIFFERENTIATE = "differentiate"
    CONTRACT = "contract"


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
    variables span more than MAX_SPACE_DIM monomials."""
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


@lru_cache(maxsize=None)
def monomial_index(num_vars: int, degree: int) -> dict[Exponents, int]:
    return {m: i for i, m in enumerate(monomials_of_degree(num_vars, degree))}


class Form:
    """Homogeneous polynomial with exact coefficients, stored sparsely.

    `terms` maps exponent tuples to nonzero field scalars. A Form with no
    terms is the zero form of its declared degree; those arise from
    operator actions but are rejected as module generators.
    """

    __slots__ = ("num_vars", "degree", "field", "terms", "_hash")

    def __init__(
        self,
        num_vars: int,
        degree: int,
        field: FieldSpec,
        terms: dict[Exponents, int | Fraction],
    ):
        if num_vars < 1:
            raise ValueError("need at least one variable")
        if degree < 0:
            raise ValueError("degree must be nonnegative")
        reduced: dict[Exponents, Scalar] = {}
        for exps, coeff in terms.items():
            exps = tuple(exps)
            if len(exps) != num_vars:
                raise ValueError(f"exponent tuple {exps} has wrong length")
            if any(e < 0 for e in exps):
                raise ValueError(f"negative exponent in {exps}")
            if sum(exps) != degree:
                raise ValueError(
                    f"monomial {exps} has degree {sum(exps)}, form declares {degree}"
                )
            c = field.reduce(coeff)
            if c != field.zero():
                reduced[exps] = c
        self.num_vars = num_vars
        self.degree = degree
        self.field = field
        self.terms = reduced
        self._hash = None

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Form):
            return NotImplemented
        return (
            self.num_vars == other.num_vars
            and self.degree == other.degree
            and self.field == other.field
            and self.terms == other.terms
        )

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(
                (
                    self.num_vars,
                    self.degree,
                    self.field,
                    frozenset(self.terms.items()),
                )
            )
        return self._hash

    def __repr__(self) -> str:
        return f"Form({self.to_text()!r}, vars={self.num_vars}, degree={self.degree})"

    def coefficient_vector(self) -> list[Scalar]:
        """Dense coefficients in the monomial order of this degree."""
        idx = monomial_index(self.num_vars, self.degree)
        zero = self.field.zero()
        vec = [zero] * len(idx)
        for exps, coeff in self.terms.items():
            vec[idx[exps]] = coeff
        return vec

    def to_text(self) -> str:
        """Expression in the module-file grammar (integer coefficients)."""
        if self.is_zero:
            return "0"
        coeffs = dict(self.terms)
        if not self.field.is_modular:
            den = lcm(*(c.denominator for c in coeffs.values()))
            coeffs = {m: c * den for m, c in coeffs.items()}
        order = monomial_index(self.num_vars, self.degree)
        pieces: list[str] = []
        for exps in sorted(coeffs, key=order.get):
            c = int(coeffs[exps])
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


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    for m in _TOKEN.finditer(text):
        kind = m.lastgroup
        if kind == "bad":
            raise FormParseError(f"unexpected character {m.group()!r}", m.start())
        tokens.append((kind, m.group(), m.start()))
    return tokens


def parse_form(text: str, num_vars: int, degree: int, field: FieldSpec) -> Form:
    """Parse an expression like ``y1^2*y2 + 3*y2^3 - y1*y2*y3``.

    Grammar: expression := ['-'] term (('+'|'-') term)*;
    term := [integer '*']? factor ('*' factor)*;
    factor := 'y' index ['^' exponent]. Indices are 1-based, whitespace is
    insignificant. Every term must have total degree `degree`; a form whose
    terms all cancel is rejected.
    """
    tokens = _tokenize(text)
    pos = 0
    end = len(text)

    def peek():
        return tokens[pos] if pos < len(tokens) else (None, "", end)

    def take(kind: str, what: str):
        nonlocal pos
        tk, val, at = peek()
        if tk != kind:
            raise FormParseError(f"expected {what}", at)
        pos += 1
        return val, at

    def parse_factor() -> tuple[int, int, int]:
        nonlocal pos
        _, at = take("var", "a variable like y1")
        val, iat = take("int", "a variable index")
        index = int(val)
        if not 1 <= index <= num_vars:
            raise FormParseError(
                f"variable index {index} out of range 1..{num_vars}", iat
            )
        exp = 1
        tk, val, _ = peek()
        if tk == "sym" and val == "^":
            pos += 1
            ev, _ = take("int", "an exponent")
            exp = int(ev)
        return index, exp, at

    def parse_term() -> tuple[Exponents, int, int]:
        nonlocal pos
        coeff = 1
        tk, val, at = peek()
        term_at = at
        if tk == "int":
            coeff = int(val)
            pos += 1
            take("sym", "'*' after a coefficient")
        exps = [0] * num_vars
        index, exp, _ = parse_factor()
        exps[index - 1] += exp
        while True:
            tk, val, _ = peek()
            if tk == "sym" and val == "*":
                pos += 1
                index, exp, _ = parse_factor()
                exps[index - 1] += exp
            else:
                break
        tdeg = sum(exps)
        if tdeg != degree:
            raise FormParseError(
                f"term has degree {tdeg}, expected {degree}", term_at
            )
        return tuple(exps), coeff, term_at

    if not tokens:
        raise FormParseError("empty expression", 0)

    acc: dict[Exponents, Scalar] = {}
    sign = 1
    tk, val, _ = peek()
    if tk == "sym" and val == "-":
        sign = -1
        pos += 1
    while True:
        exps, coeff, _ = parse_term()
        cur = acc.get(exps, field.zero())
        acc[exps] = field.add(cur, field.reduce(sign * coeff))
        tk, val, at = peek()
        if tk is None:
            break
        if tk == "sym" and val in "+-":
            sign = 1 if val == "+" else -1
            pos += 1
        else:
            raise FormParseError("expected '+' or '-' between terms", at)

    acc = {m: c for m, c in acc.items() if c != field.zero()}
    if not acc:
        raise FormParseError("form is zero after combining terms", 0)
    return Form(num_vars, degree, field, acc)


def apply_operator(
    op: Exponents, form: Form, action: DerivativeAction = DerivativeAction.CONTRACT
) -> Form:
    """Act on `form` by the operator monomial x^op.

    Differentiation multiplies by falling factorials; contraction just
    lowers exponents with coefficient 1. Either way a term not divisible
    by the operator dies. The result is a Form of degree deg - |op|,
    possibly zero: the row of op in the catalecticant of the form.
    """
    r, e, field, i = form.num_vars, form.degree, form.field, sum(op)
    if len(op) != r:
        raise ParameterMismatchError(f"operator has {len(op)} variables, form has {r}")
    k = monomial_index(r, i).get(tuple(op))
    if k is None:
        raise ValueError(f"negative exponent in operator {op}")
    if i > e:
        raise ValueError(f"operator degree {i} out of range 0..{e}")
    rows = catalecticant_rows(coefficient_rows([form]), r, e, i, action, field)
    return form_from_row(rows[k].tolist(), r, e - i, field)


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


def coefficient_rows(forms, integral: bool = False) -> np.ndarray:
    """Dense coefficient vectors of the forms, one row each, in the array
    type of their field (`linalg._dtype`). Over GF(p) they are residues in
    [0, p): int64 for p <= `linalg._INT64_PRIME_LIMIT`, so a product of two
    fits in int64 and every array built from them stays int64, and Python
    ints in an object array for larger primes. Over Q they are Fractions
    in an object array; `integral` scales them by one common denominator
    to Python ints, which keeps ranks and row spaces but not the values.
    """
    _, _, field = _check_family(forms)
    rows = [f.coefficient_vector() for f in forms]
    if integral and not field.is_modular:
        den = lcm(*(x.denominator for row in rows for x in row))
        rows = [[x.numerator * (den // x.denominator) for x in row] for row in rows]
    return np.array(rows, dtype=_dtype(field))


def form_from_row(row, num_vars: int, degree: int, field: FieldSpec) -> Form:
    """The Form whose dense coefficients, in monomial order, are `row`."""
    monos = monomials_of_degree(num_vars, degree)
    return Form(num_vars, degree, field, {m: c for m, c in zip(monos, row) if c})


@lru_cache(maxsize=None)
def _gather_table(
    num_vars: int, degree: int, i: int, action: DerivativeAction
) -> tuple[np.ndarray, np.ndarray | None]:
    """Where each catalecticant entry comes from, and its weight.

    Entry (op, m), for a degree-i operator op and a degree-(degree-i)
    monomial m, is the index of op*m among the degree-`degree` monomials.
    The weights are prod_k perm(op_k + m_k, op_k), Python ints, for
    DIFFERENTIATE and None for CONTRACT.
    """
    ops, monos = _exponents(num_vars, i), _exponents(num_vars, degree - i)
    # In the monomial order the monomials before x = op*m are, for each k >= 2,
    # those that agree with x in y_(k+1)..y_r and have a smaller y_k:
    # space_dim(k, s_k) - space_dim(k, s_(k-1)) of them, s_k = x_1 + ... + x_k.
    # The prefix sums of op + m are the sums of those of op and m, so the
    # table is built one variable at a time from N_i-by-N_(e-i) arrays.
    so, sm = ops.cumsum(1), monos.cumsum(1)
    dims = np.array(
        [[space_dim(k, d) for d in range(degree + 1)] for k in range(1, num_vars + 1)]
    )
    table = np.zeros((len(ops), len(monos)), dtype=np.int64)
    prev = so[:, 0, None] + sm[:, 0]
    for k in range(1, num_vars):
        s = so[:, k, None] + sm[:, k]
        table += dims[k, s] - dims[k, prev]
        prev = s
    if action is DerivativeAction.CONTRACT:
        return table, None
    # fall[a, b] = (a + b)! / b!, the weight's factor in one variable; it is
    # 1 where the operator has a zero exponent
    fall = np.array(
        [[perm(a + b, a) for b in range(degree + 1)] for a in range(degree + 1)],
        dtype=object,
    )
    weights = np.ones(table.shape, dtype=object)
    for k in range(num_vars):
        hit = ops[:, k] > 0
        weights[hit] *= fall[ops[hit, k, None], monos[:, k]]
    return table, weights


def catalecticant_rows(
    coeffs: np.ndarray,
    num_vars: int,
    degree: int,
    i: int,
    action: DerivativeAction,
    field: FieldSpec,
) -> np.ndarray:
    """Catalecticant of the forms whose coefficient rows are `coeffs`.

    One row per (form, degree-i operator) pair, in form order then
    operator order, gathered from `coeffs` through the cached table, in
    the array type of `coeffs`. Over GF(p) the weights are reduced mod p
    into that type too, so each product of residues stays below p².
    """
    table, weights = _gather_table(num_vars, degree, i, action)
    rows = coeffs[:, table]
    if weights is not None:
        if field.is_modular:
            p = field.prime
            rows = rows * (weights % p).astype(coeffs.dtype) % p
        else:
            rows = rows * weights
    return rows.reshape(-1, table.shape[1])


def derivative_space(
    forms, u: int, action: DerivativeAction = DerivativeAction.CONTRACT
) -> Subspace:
    """Degree-u subspace spanned by all order-(e-u) derivatives of the forms:
    the row space of their catalecticant C_{e-u}."""
    num_vars, degree, field = _check_family(forms)
    if not 0 <= u <= degree:
        raise ValueError(f"degree {u} out of range 0..{degree}")
    coeffs = coefficient_rows(forms, integral=True)
    rows = catalecticant_rows(coeffs, num_vars, degree, degree - u, action, field)
    return _span(rows, rows.shape[1], field)
