"""Reference constructions the package replaced, kept as test oracles.

The package builds every catalecticant row by gathering dense coefficient
rows through a cached index table, and draws a quotient sample as the
rows of A·F. These are the slower constructions it replaced: operators
act on a form term by term, derivative spaces are built operator by
operator from the monomials that divide some term, and a quotient sample
combines Form objects and takes the h-vector of the module they span,
one trial at a time and one rank per degree. The index table itself is
rebuilt entry by entry from exponent tuples, where the package computes
it with numpy from a closed-form rank of each monomial.

The overlap statistics are likewise rebuilt the old way. The package
meets whole levels of generator subsets in one stacked Zassenhaus
elimination and walks the subsets level by level; here an intersection
comes from the null space of the stacked bases, reduced by a separate
Gauss-Jordan loop in field arithmetic, and every generator subset is
intersected from scratch. `zassenhaus` keeps the one-pair intersection the
stacked one replaced: a column-by-column forward pass of one Zassenhaus
matrix.
"""

import random
from bisect import bisect_left
from functools import lru_cache, reduce
from itertools import combinations
from math import perm, prod

import numpy as np

from levelalg.linalg import (
    Matrix,
    Subspace,
    _echelon,
    rank,
    row_space,
    zero_subspace,
)
from levelalg.modules import (
    DegenerateSampleError,
    DependentGeneratorsError,
    derive_seed,
    random_coefficient,
)
from levelalg.polynomials import (
    DerivativeAction,
    Form,
    monomial_index,
    monomials_of_degree,
    space_dim,
)

CONT = DerivativeAction.CONTRACT


def gather_table(num_vars, degree, i, action):
    """polynomials._gather_table built entry by entry: the index of op*m
    among the degree-`degree` monomials, and prod_k perm(op_k + m_k, op_k)."""
    index = monomial_index(num_vars, degree)
    ops = monomials_of_degree(num_vars, i)
    monos = monomials_of_degree(num_vars, degree - i)
    products = [[tuple(a + b for a, b in zip(op, m)) for m in monos] for op in ops]
    table = np.array([[index[x] for x in row] for row in products], dtype=np.intp)
    if action is CONT:
        return table, None
    weights = [[prod(map(perm, x, op)) for x in row] for op, row in zip(ops, products)]
    return table, np.array(weights, dtype=object)


def divisors_of_degree(exps, degree):
    """All exponent vectors a <= exps componentwise with total degree `degree`."""
    n = len(exps)
    suffix = [0] * (n + 1)
    for i in range(n - 1, -1, -1):
        suffix[i] = suffix[i + 1] + exps[i]
    out = []
    acc = []

    def rec(idx, rem):
        if rem > suffix[idx]:
            return
        if idx == n:
            out.append(tuple(acc))
            return
        for k in range(min(exps[idx], rem), -1, -1):
            acc.append(k)
            rec(idx + 1, rem - k)
            acc.pop()

    rec(0, degree)
    return out


def apply_operator(op, form, action=CONT):
    """x^op acting on each term of the form in turn."""
    field = form.field
    out = {}
    for exps, coeff in form.terms.items():
        if all(b >= a for b, a in zip(exps, op)):
            target = tuple(b - a for b, a in zip(exps, op))
            if action is DerivativeAction.DIFFERENTIATE:
                factor = 1
                for b, a in zip(exps, op):
                    factor *= perm(b, a)
                c = field.mul(coeff, field.reduce(factor))
                if c != field.zero():
                    out[target] = c
            else:
                out[target] = coeff
    return Form(form.num_vars, form.degree - sum(op), field, out)


def _dense(form):
    idx = monomial_index(form.num_vars, form.degree)
    vec = [form.field.zero()] * len(idx)
    for exps, coeff in form.terms.items():
        vec[idx[exps]] = coeff
    return vec


def catalecticant(forms, i, action=CONT):
    """One apply_operator call per (form, degree-i operator) pair."""
    f0 = forms[0]
    rows = [
        _dense(apply_operator(op, f, action))
        for f in forms
        for op in monomials_of_degree(f0.num_vars, i)
    ]
    return Matrix.from_rows(rows, f0.field, cols=space_dim(f0.num_vars, f0.degree - i))


def derivative_space(forms, u, action=CONT):
    """Row space of the nonzero derivatives by operators dividing some term."""
    f0 = forms[0]
    i = f0.degree - u
    op_order = monomial_index(f0.num_vars, i)
    rows = []
    for f in forms:
        ops = set()
        for exps in f.terms:
            ops.update(divisors_of_degree(exps, i))
        for op in sorted(ops, key=op_order.get):
            g = apply_operator(op, f, action)
            if g.terms:
                rows.append(_dense(g))
    cols = space_dim(f0.num_vars, u)
    if not rows:
        return zero_subspace(cols, f0.field)
    return row_space(Matrix.from_rows(rows, f0.field, cols=cols))


def h_vector(forms):
    return tuple(derivative_space(forms, u).dim for u in range(forms[0].degree + 1))


def combine_forms(generators, coeffs, field):
    """The Form sum_j coeffs[j] * generators[j], accumulated term by term."""
    g0 = generators[0]
    acc = {}
    zero = field.zero()
    for coeff, g in zip(coeffs, generators):
        c = field.reduce(coeff)
        if c == zero:
            continue
        for exps, val in g.terms.items():
            acc[exps] = field.add(acc.get(exps, zero), field.mul(c, val))
    return Form(g0.num_vars, g0.degree, field, acc)


def _independent(forms, field):
    rows = [f.coefficient_vector() for f in forms]
    return rank(Matrix.from_rows(rows, field)) == len(forms)


def sample_generic_quotient(m, c, seed=0, coefficients=None):
    """(coefficients, h) of a quotient sample, drawn as the package draws it."""
    t = m.type
    if coefficients is not None:
        draws = [tuple(tuple(int(x) for x in row) for row in coefficients)]
    else:
        draws = []
        for attempt in range(100):
            rng = random.Random(derive_seed(seed, "quotient", attempt))
            draws.append(tuple(
                tuple(random_coefficient(rng, m.field) for _ in range(t))
                for _ in range(c)
            ))
    for rows in draws:
        if rank(Matrix.from_rows(rows, m.field, cols=t)) != c:
            continue
        forms = [combine_forms(m.generators, row, m.field) for row in rows]
        if _independent(forms, m.field):
            return rows, h_vector(forms)
    if coefficients is not None:
        raise DependentGeneratorsError("dependent combinations")
    raise DegenerateSampleError("no independent combination in 100 attempts")


def remix_generators(m, seed=0):
    """The generators a re-mix with this seed produces, combined term by term."""
    t = m.type
    for attempt in range(100):
        rng = random.Random(derive_seed(seed, "remix", attempt))
        rows = [[random_coefficient(rng, m.field) for _ in range(t)] for _ in range(t)]
        if rank(Matrix.from_rows(rows, m.field, cols=t)) == t:
            return tuple(combine_forms(m.generators, row, m.field) for row in rows)
    raise DegenerateSampleError("no invertible re-mix in 100 attempts")


# ------------------------------------------------------- overlap statistics


def span(rows, ambient, field):
    """Gauss-Jordan on Python scalars: the canonical Subspace of the rows."""
    p = field.prime  # None over Q
    mat = [[field.reduce(x) for x in row] for row in rows]
    pivots = []
    for c in range(ambient):
        r = len(pivots)
        piv = next((i for i in range(r, len(mat)) if mat[i][c]), None)
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        inv = pow(mat[r][c], -1, p) if p else 1 / mat[r][c]
        prow = mat[r] = [x * inv % p if p else x * inv for x in mat[r]]
        for i, row in enumerate(mat):
            f = row[c]
            if i != r and f:
                mat[i] = [(x - f * y) % p if p else x - f * y for x, y in zip(row, prow)]
        pivots.append(c)
    basis = tuple(map(tuple, mat[: len(pivots)]))
    return Subspace(ambient, basis, tuple(pivots), field)


def nullspace(rows, cols, field):
    """Basis of the right null space {x : rows @ x = 0}."""
    s = span(rows, cols, field)
    out = []
    for f in sorted(set(range(cols)) - set(s.pivots)):
        v = [field.zero()] * cols
        v[f] = field.one()
        for k, pc in enumerate(s.pivots):
            v[pc] = field.neg(s.basis[k][f])
        out.append(v)
    return out


def subspace_intersection(a, b):
    """a ∩ b as the vectors x·A with x·A = y·B: (x, y) runs over the null
    space of the ambient-by-(dim a + dim b) system [A^T | -B^T]."""
    field = a.field
    if a.dim == 0 or b.dim == 0:
        return zero_subspace(a.ambient, field)
    system = [
        [row[i] for row in a.basis] + [field.neg(row[i]) for row in b.basis]
        for i in range(a.ambient)
    ]
    rows = [
        [sum(xk * row[i] for xk, row in zip(x, a.basis)) for i in range(a.ambient)]
        for x in nullspace(system, a.dim + b.dim, field)
    ]
    return span(rows, a.ambient, field)


def zassenhaus(a, b, field):
    """Echelon rows spanning row(a) ∩ row(b): the forward pass of
    [[a, a], [b, 0]], pivot by pivot column, and the right halves of the
    rows whose pivot lies in the right half."""
    k, n = a.shape
    z = np.zeros((k + len(b), 2 * n), dtype=object)
    z[:k, :n] = z[:k, n:] = a
    z[k:, :n] = b
    rows, pivots = _echelon(z, field)
    return rows[bisect_left(pivots, n) :, n:]


@lru_cache(maxsize=None)
def _spaces(m, u):
    return tuple(derivative_space([g], u) for g in m.generators)


def inclusion_exclusion_sum(m, u):
    """Signed intersection dimensions, every subset intersected from scratch."""
    spaces = _spaces(m, u)
    return sum(
        (-1) ** q * reduce(subspace_intersection, (spaces[j] for j in subset)).dim
        for q in range(2, m.type + 1)
        for subset in combinations(range(m.type), q)
    )


def relative_intersection_dim(m, q, u, subset=None):
    """dim of the subset's intersection modulo the span of the others."""
    spaces = _spaces(m, u)
    subset = tuple(range(q)) if subset is None else tuple(subset)
    inter = reduce(subspace_intersection, (spaces[j] for j in subset))
    rest = [row for j in range(m.type) if j not in subset for row in spaces[j].basis]
    ambient, field = inter.ambient, m.field
    return span(inter.basis + tuple(rest), ambient, field).dim - span(rest, ambient, field).dim
