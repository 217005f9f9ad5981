"""Reference constructions the package replaced, kept as test oracles.

The package builds every catalecticant row by gathering dense coefficient
rows through a cached index table, and draws a quotient sample as the
rows of A·F. These are the slower constructions it replaced: operators
act on a form term by term, derivative spaces are built operator by
operator from the monomials that divide some term, and a quotient sample
combines Form objects and takes the h-vector of the module they span,
one trial at a time and one rank per degree. The index table itself is
rebuilt entry by entry from exponent tuples, through `monomial_index`, a
dict over every monomial of a degree, where the package computes it with
numpy from the closed-form rank of each monomial (`monomial_rank`), and
`_dense` places a form's terms through that dict too.

The package acts by contraction only. Classical differentiation is kept
here (`differentiate=True`): it multiplies each contraction by falling
factorials, and in characteristic 0 or p > e it gives the h-vector that
contraction gives on the form with each coefficient c_a scaled by a! =
prod_k a_k! (`factorial_scaled`).

The overlap statistics are likewise rebuilt the old way. The package
meets whole levels of generator subsets in one stacked Zassenhaus
elimination and walks the subsets level by level; here an intersection
comes from the null space of the stacked bases, reduced by a separate
Gauss-Jordan loop in field arithmetic, and every generator subset is
intersected from scratch. `zassenhaus` keeps the one-pair intersection the
stacked one replaced: a column-by-column forward pass of one Zassenhaus
matrix. Over GF(p) that pass is `echelon_mod`, the column-by-column
elimination the package's stacked line steps replaced.

The oracle's quotient and re-mix draws go through `random.randint`
(`random_coefficient`), not the package's draw rule.

`graded_ranks` keeps the full-width quotient ranks the frame replaced:
each quotient catalecticant gathered through the whole table of C_{e-u},
over every degree-u monomial, instead of the parent's frame.

`overlap` keeps the walk of one degree at a time that the package's walk
over all inner degrees at once replaced: its spaces from one `_bases` call
per degree, and its levels, prefixes and relative dimensions its own.

`monomials_sorted` keeps the exponent tuples as the package first built
them: one tuple per stars-and-bars cut, then a sort into monomial order,
where the package reads that order off the lexicographic order of the bars.

`pencil_bound` writes out Iarrobino's type-2 bound on its own, as the
reference for the general quotient bound at t = 2, c = 1.
"""

import random
from bisect import bisect_left
from functools import lru_cache, reduce
from itertools import combinations
from math import factorial, perm, prod

import numpy as np

from levelalg.linalg import (
    Matrix,
    Subspace,
    _bases,
    _echelon_int,
    _meets,
    _ranks,
    rank,
    row_space,
    zero_subspace,
)
from levelalg.modules import (
    DegenerateSampleError,
    DependentGeneratorsError,
    _relative_dims,
    derive_seed,
)
from levelalg.polynomials import (
    Form,
    catalecticant_rows,
    monomials_of_degree,
    space_dim,
)


@lru_cache(maxsize=None)
def monomial_index(num_vars, degree):
    """The position of each degree-`degree` exponent tuple in monomial
    order, as a dict over all of them."""
    return {m: i for i, m in enumerate(monomials_of_degree(num_vars, degree))}


def monomials_sorted(num_vars, degree):
    """The degree-`degree` exponent tuples in monomial order, by a sort:
    grevlex descending is ascending lexicographic order on the reversed
    exponents."""
    slots = degree + num_vars - 1
    vecs = []
    for bars in combinations(range(slots), num_vars - 1):
        cuts = (-1, *bars, slots)
        vecs.append(tuple(b - a - 1 for a, b in zip(cuts, cuts[1:])))
    return sorted(vecs, key=lambda m: m[::-1])


def gather_table(num_vars, degree, i):
    """polynomials._gather_table built entry by entry: the index of op*m
    among the degree-`degree` monomials."""
    index = monomial_index(num_vars, degree)
    ops = monomials_of_degree(num_vars, i)
    monos = monomials_of_degree(num_vars, degree - i)
    products = [[tuple(a + b for a, b in zip(op, m)) for m in monos] for op in ops]
    return np.array([[index[x] for x in row] for row in products], dtype=np.intp)


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


def apply_operator(op, form, differentiate=False):
    """x^op acting on each term of the form in turn, by contraction or by
    differentiation."""
    field = form.field
    out = {}
    for exps, coeff in form.terms.items():
        if all(b >= a for b, a in zip(exps, op)):
            target = tuple(b - a for b, a in zip(exps, op))
            if differentiate:
                c = field.reduce(coeff * prod(map(perm, exps, op)))
                if c != field.reduce(0):
                    out[target] = c
            else:
                out[target] = coeff
    return Form(form.num_vars, form.degree - sum(op), field, out)


def factorial_scaled(form):
    """The form with each coefficient c_a times a! = prod_k a_k!: its
    contractions span, degree by degree, the images of the derivatives of
    `form` under y^b -> b! y^b, an isomorphism when b! is invertible."""
    terms = {a: c * prod(map(factorial, a)) for a, c in form.terms.items()}
    return Form(form.num_vars, form.degree, form.field, terms)


def _dense(form):
    """The form's dense coefficients, placed through `monomial_index`."""
    idx = monomial_index(form.num_vars, form.degree)
    vec = [form.field.reduce(0)] * len(idx)
    for exps, coeff in form.terms.items():
        vec[idx[exps]] = coeff
    return vec


def catalecticant(forms, i, differentiate=False):
    """One apply_operator call per (form, degree-i operator) pair."""
    f0 = forms[0]
    rows = [
        _dense(apply_operator(op, f, differentiate))
        for f in forms
        for op in monomials_of_degree(f0.num_vars, i)
    ]
    return Matrix.from_rows(rows, f0.field, cols=space_dim(f0.num_vars, f0.degree - i))


def derivative_space(forms, u, differentiate=False):
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
            g = apply_operator(op, f, differentiate)
            if g.terms:
                rows.append(_dense(g))
    cols = space_dim(f0.num_vars, u)
    if not rows:
        return zero_subspace(cols, f0.field)
    return row_space(Matrix.from_rows(rows, f0.field, cols=cols))


def h_vector(forms, differentiate=False):
    return tuple(
        derivative_space(forms, u, differentiate).dim
        for u in range(forms[0].degree + 1)
    )


def combine_forms(generators, coeffs, field):
    """The Form sum_j coeffs[j] * generators[j], accumulated term by term."""
    g0 = generators[0]
    acc = {}
    zero = field.reduce(0)
    for coeff, g in zip(coeffs, generators):
        c = field.reduce(coeff)
        if c == zero:
            continue
        for exps, val in g.terms.items():
            acc[exps] = field.reduce(acc.get(exps, zero) + c * val)
    return Form(g0.num_vars, g0.degree, field, acc)


def _independent(forms, field):
    rows = [_dense(f) for f in forms]
    return rank(Matrix.from_rows(rows, field)) == len(forms)


def random_coefficient(rng, field):
    """One random coefficient as the package first drew it, through
    random.randint: [1, min(10^6, p-1)] over GF(p), and [-10^6, 10^6]
    redrawn while zero over Q. The package's draw rule
    (`modules._coefficients`) takes the same bits without randint."""
    if field.is_modular:
        return rng.randint(1, min(10**6, field.prime - 1))
    while True:
        v = rng.randint(-(10**6), 10**6)
        if v:
            return v


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


def graded_ranks(w, m):
    """h-vectors of the modules generated by each w[k], c coefficient rows
    in the ring of m, ranked at full width: one stacked rank of the whole
    catalecticant per inner degree, mirrored for one form."""
    k, c, _ = w.shape
    e = m.socle_degree
    h = np.ones((k, e + 1), dtype=np.int64)
    h[:, e] = c
    top = e // 2 if c == 1 else e - 1
    forms = w.reshape(k * c, -1)
    for u in range(1, top + 1):
        rows = catalecticant_rows(forms, m.num_vars, e, e - u)
        h[:, u] = _ranks(rows.reshape(k, -1, rows.shape[1]), m.field)
    for u in range(top + 1, e):
        h[:, u] = h[:, e - u]
    return [tuple(row) for row in h.tolist()]


def pencil_bound(h):
    """Type-2 bound of a generic Gorenstein quotient of a pencil of forms:
    1, then ceil((h_u + h_{e-u}) / 3) for u = 1..e."""
    e = len(h) - 1
    return (1,) + tuple(-(-(h[u] + h[e - u]) // 3) for u in range(1, e + 1))


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
        v = [field.reduce(0)] * cols
        v[f] = field.reduce(1)
        for k, pc in enumerate(s.pivots):
            v[pc] = field.reduce(-s.basis[k][f])
        out.append(v)
    return out


def subspace_intersection(a, b):
    """a ∩ b as the vectors x·A with x·A = y·B: (x, y) runs over the null
    space of the ambient-by-(dim a + dim b) system [A^T | -B^T]."""
    field = a.field
    if a.dim == 0 or b.dim == 0:
        return zero_subspace(a.ambient, field)
    system = [
        [row[i] for row in a.basis] + [field.reduce(-row[i]) for row in b.basis]
        for i in range(a.ambient)
    ]
    rows = [
        [sum(xk * row[i] for xk, row in zip(x, a.basis)) for i in range(a.ambient)]
        for x in nullspace(system, a.dim + b.dim, field)
    ]
    return span(rows, a.ambient, field)


def echelon_mod(a, p):
    """Forward pass over GF(p) on an array of entries in [0, p), column by
    column: each pivot is scaled to 1 and cleared below only."""
    nr, nc = a.shape
    pivots = []
    r = 0
    for c in range(nc):
        if r == nr:
            break
        nz = a[r:, c].nonzero()[0]
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            a[[r, i]] = a[[i, r]]
        a[r, c:] = a[r, c:] * pow(int(a[r, c]), -1, p) % p
        below = a[r + 1 :, c]
        if below.any():
            a[r + 1 :, c:] = (a[r + 1 :, c:] - np.outer(below, a[r, c:])) % p
        pivots.append(c)
        r += 1
    return a[:r], pivots


def echelon(rows, field):
    """Echelon rows and pivot columns: `echelon_mod` on Python ints over
    GF(p), the package's fraction-free pass over Q."""
    if field.is_modular:
        return echelon_mod(np.array(rows, dtype=object) % field.prime, field.prime)
    return _echelon_int(rows)


def zassenhaus(a, b, field):
    """Echelon rows spanning row(a) ∩ row(b): the forward pass of
    [[a, a], [b, 0]], pivot by pivot column, and the right halves of the
    rows whose pivot lies in the right half."""
    k, n = a.shape
    z = np.zeros((k + len(b), 2 * n), dtype=object)
    z[:k, :n] = z[:k, n:] = a
    z[k:, :n] = b
    rows, pivots = echelon(z, field)
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


def overlap(m, u, w):
    """(sum, [D_u(q) of the nonzero prefixes {0..q-1}, q >= 2]) of degree u
    of the forms with coefficient rows w, walked for that degree alone: the
    spaces of one `_bases` call on the rows gathered through m's frame,
    each level's children met in one `_meets` call, and the prefixes
    ranked in one `_relative_dims` call."""
    spaces = _bases(w[:, m._frame_tables[u]], m.field)
    t = len(spaces)
    level = list(zip(spaces, range(t)))
    prefixes = []  # the meets of {0, 1}, {0, 1, 2}, ... while nonzero
    total, sign, q = 0, 1, 1
    while level:
        children = [
            (k, j) for k, (_, last) in enumerate(level) for j in range(last + 1, t)
        ]
        meets = _meets([(level[k][0], spaces[j]) for k, j in children], m.field)
        # while {0..q-1} is nonzero it is level[0], so {0..q} is meets[0]
        if q < t and len(prefixes) == q - 1 and len(meets[0]):
            prefixes.append(meets[0])
        level = [(meet, j) for meet, (_, j) in zip(meets, children) if len(meet)]
        total += sign * sum(len(meet) for meet, _ in level)
        sign, q = -sign, q + 1
    pairs = [(inter, spaces[q:]) for q, inter in enumerate(prefixes, start=2)]
    return total, _relative_dims(pairs, m.field)
