"""Finitely generated submodules of the dual polynomial ring.

A module here is t linearly independent forms of one degree e in r
variables, held as their coefficient rows only: a read-only t-by-N_e array
over the degree-e monomials in monomial order, int64 residues over GF(p)
(Python ints above `linalg._INT64_PRIME_LIMIT`) and, over Q, integers
that one common denominator divides back into the forms, stored by their
values: int64 while every entry is below 2^62 in absolute value, Python
ints in an object array otherwise (`linalg._integer_array`). The families,
the re-mix and the quotient samples write and read those rows; Forms
appear only at the edges, in `InverseSystemModule.from_forms`, the derived
`generators`, and the module file format. The polynomial ring acts by
contraction. The h-vector entry in degree u is the dimension of the
degree-u piece, i.e. of the span of all order-(e-u) contractions of the
generators. The socle degree e always contributes dim = number of
generators, the type.

Quotients and generator subsets live inside their parent: each degree-u
piece lies in the parent's P_u = row C_{e-u}(F). The module's frame holds
J_u, a column basis of C_{e-u}(F) read off the pass that gives h_u = |J_u|,
and later catalecticants are gathered on the columns J_u and rows J_{e-u}
only. The other columns are combinations of those in J_u, so restriction
to J_u is injective on P_u; and x^α, α outside J_{e-u}, is a combination of
the x^β, β in J_{e-u}, modulo Ann(F) ⊆ Ann(W): no integer changes. The
passes run from u = e-1 down and stop at the first J_u that misses fewer
than r of the degree-u monomials, r the number of variables: the missed
count is dim Ann(F)_u, and a nonzero g in Ann(F)_{u-1} would put the r
independent x_i·g into Ann(F)_u, so Ann(F) is 0 below u and every lower
J_{u'} is all of its columns.

Randomized operations (generic quotients, generator re-mixing) are fully
reproducible: every draw comes from a Mersenne Twister seeded through a
sha256 counter derivation of the caller's seed. A quotient sample is the
rows of W = A·F, never a new module; the trials of one quotient type are
drawn side by side, and the inner degrees whose frame tables share a
shape are ranked as one stack (on the sharp families, whose inner h_u
are all equal, every degree shares one). A rank at u bounded by h_u(F)
and by c·h_{e-u}(F) settles a run of degrees when it meets either cap,
exactly and in every field: M_u(W) = P_u gives M_{u'}(W) = R_{u-u'}∘P_u =
P_{u'} for u' < u, and a full row rank at u, an injective (g_k) ↦ Σ g_k∘W_k
on (R/Ann F)_{e-u}^c, stays injective in every lower operator degree, as
multiplying by every x^γ of degree u'-u shows. A generic quotient sits at
its caps in every degree (generic level algebras are compressed), so two
critical degrees are ranked first and the degrees left open after them
second (`_graded_ranks`). A W of rank c' < c spans a module of c' forms,
so dim M_u(W) <= c'·h_{e-u}(F) <= (c-1)·h_{e-u}(F) in every degree: a draw
whose h-vector exceeds (c-1)·h_{e-u}(F) in some inner degree u is
independent, and only the other draws take a rank of W (`_draws`). The
re-mix that the identity checks of `levelalg verify` walk is rows too: W =
A·F with A t-by-t, whose spaces `_single_spaces` gathers through the
parent's frame, whose rows, each a random type-1 combination, are the
checks' type-1 samples (the largest of the t space dimensions in each
degree), and whose generator subsets `_overlap` walks for every inner
degree in one pass.
A degree whose spaces add up to h_u, or are each all of it, is
settled with no meet; elsewhere a subset whose children all keep its
intersection stops the walk below it, as every descendant meets in that
intersection too, so the sharp families take the C(t,2) + C(t,3) meets of
their pairs and triples per degree, not 2^t - t - 1.
"""

from __future__ import annotations

import hashlib
import operator
import random
from dataclasses import dataclass, replace
from functools import cached_property, lru_cache
from itertools import chain, islice

import numpy as np

from .fields import FieldSpec
from .linalg import _bases, _column_basis, _combine, _integer_array, _meets, _ranks
from .polynomials import (
    Form,
    FormParseError,
    _gather_table,
    catalecticant_rows,
    check_space_dim,
    coefficient_rows,
    form_from_row,
    parse_form,
    space_dim,
)

COEFF_RANGE = 10**6  # bound of the random coefficients; see _coefficients
MAX_TRIALS = 1000  # the most quotient trials of one call; see _check_trials


class DependentGeneratorsError(ValueError):
    """The given generators are linearly dependent (or zero)."""


class DegenerateSampleError(RuntimeError):
    """Random sampling failed to produce an independent family."""


class InputError(ValueError):
    """Malformed input text, a module file or a manifest; carries the
    offending line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


def _content_lines(text: str) -> list[tuple[int, str]]:
    """(line number, stripped line) for each line of `text` that is neither
    blank nor a '#' comment: the lines both input formats read."""
    lines = (raw.strip() for raw in text.splitlines())
    return [(n, line) for n, line in enumerate(lines, start=1) if line[:1] not in ("", "#")]


def _parse_int(value: str, what: str) -> int:
    """The integer `value` spells, or a ValueError naming `what`."""
    try:
        return int(value)
    except ValueError as exc:
        raise ValueError(f"{what} must be an integer, got {value!r}") from exc


def _parse_positive(value: str, what: str) -> int:
    n = _parse_int(value, what)
    if n < 1:
        raise ValueError(f"{what} must be positive")
    return n


def derive_seed(*parts) -> int:
    """Deterministic 64-bit seed derived from the given labels."""
    data = ":".join(str(p) for p in parts).encode()
    return int.from_bytes(hashlib.sha256(data).digest()[:8], "big")


def _coefficients(rng: random.Random, field: FieldSpec):
    """The endless stream of random coefficients drawn from rng, the one
    draw rule of the package: nonzero integers in [1, min(10^6, p-1)] over
    GF(p), so that each is nonzero modulo p too, and in [-10^6, 10^6] over
    Q. Its range, bit count and rejection are set up once per stream. A
    draw takes rng's bits only when it is read, so draws may interleave
    with rng's other calls.

    The draws are those of rng.randint(1, min(10^6, p-1)), and over Q of
    rng.randint(-10^6, 10^6) redrawn while zero, bit for bit: randint(a, b)
    is a + the first getrandbits(k) below n = b - a + 1, k = n.bit_length()
    (CPython's `_randbelow`), here without its three Python frames. Every
    draw fits in int64.
    """
    getrandbits = rng.getrandbits
    if field.is_modular:
        low, n = 1, min(COEFF_RANGE, field.prime - 1)
    else:
        low, n = -COEFF_RANGE, 2 * COEFF_RANGE + 1
    k = n.bit_length()
    while True:
        r = getrandbits(k)
        # r == -low is the zero draw over Q, redrawn like an r >= n
        if r < n and r != -low:
            yield low + r


@dataclass(frozen=True, eq=False)
class InverseSystemModule:
    """Independent degree-e generators over a common field, with a label,
    held as their coefficient rows (see the module docstring).

    `rows` is t-by-N_e, N_e = space_dim(num_vars, socle_degree), in
    monomial order, integers of any integer type and size (a non-integer
    entry is a ValueError); the module keeps a read-only copy in the array
    type `linalg._integer_array` picks, reduced mod p over GF(p). Over Q
    `denominator` divides the rows back into the generators. A module
    hashes and compares by identity.
    """

    num_vars: int
    socle_degree: int
    field: FieldSpec
    rows: np.ndarray
    label: str = ""
    denominator: int = 1

    def __post_init__(self) -> None:
        rows = _integer_array(self.rows, self.field)
        rows.flags.writeable = False
        object.__setattr__(self, "rows", rows)
        if rows.ndim != 2 or not len(rows):
            raise ValueError("a module needs at least one generator")
        e = self.socle_degree
        if e < 1:
            raise ValueError("generator degree must be at least 1")
        if rows.shape[1] != space_dim(self.num_vars, e):
            raise ValueError(
                f"{rows.shape[1]} coefficients per row, but {self.num_vars} "
                f"variables have {space_dim(self.num_vars, e)} monomials of degree {e}"
            )
        if self.field.is_modular and self.field.prime <= e:
            raise ValueError(
                f"modulus {self.field.prime} must exceed the socle degree {e}"
            )
        if _ranks(rows[None], self.field)[0] != len(rows):
            raise DependentGeneratorsError(f"{len(rows)} generators span a smaller space")

    @classmethod
    def from_forms(cls, forms, field: FieldSpec, label: str = "") -> InverseSystemModule:
        """The module the forms generate, their rows from `coefficient_rows`."""
        if any(g.field != field for g in forms):
            raise ValueError("generator field disagrees with module field")
        rows, den = coefficient_rows(forms)
        g = forms[0]
        return cls(g.num_vars, g.degree, field, rows, label, den)

    @property
    def generators(self) -> tuple[Form, ...]:
        """The generators as Forms, each row divided by the denominator: over
        Q exactly the forms the module was built from."""
        r, e, field, den = self.num_vars, self.socle_degree, self.field, self.denominator
        return tuple(form_from_row(row, r, e, field, den) for row in self.rows.tolist())

    @cached_property
    def _frame(self) -> dict[int, list[int]]:
        """J_u for each inner degree u (see the module docstring): the column
        basis `_column_basis` finds in C_{e-u}(F), one pass per degree from
        u = e-1 down to the first J_u that misses fewer than r of the N_u
        degree-u monomials (r the number of variables). Below it every
        J_{u'} is range(N_{u'}), with no pass. For, the N_u - |J_u| missed
        columns are the dimension of Ann(F)_u, the kernel of C_{e-u}(F)
        (g∘F_k = 0 exactly when every coefficient x^α∘g∘F_k is 0). A
        nonzero g in Ann(F)_{u-1} would put x_1·g, ..., x_r·g into Ann(F)_u,
        and they are independent, as Σ c_i x_i·g = (Σ c_i x_i)·g is 0 only
        for c = 0; so Ann(F)_{u-1} = 0, and Ann(F)_{u'} = 0 for every u' <
        u - 1 too, as a nonzero g there times a power of x_1 would lie in
        Ann(F)_{u-1}. The columns of C_{e-u'}(F) are then independent, and
        its column basis is all of them."""
        r, e = self.num_vars, self.socle_degree
        frame = {}
        for u in range(e - 1, 0, -1):
            rows = catalecticant_rows(self.rows, r, e, e - u)
            frame[u] = _column_basis(rows, self.field)
            if rows.shape[1] - len(frame[u]) < r:
                frame.update((v, list(range(space_dim(r, v)))) for v in range(1, u))
                break
        return dict(sorted(frame.items()))

    @cached_property
    def _frame_tables(self) -> dict[int, np.ndarray]:
        """The gather table of C_{e-u} on the frame, table[J_{e-u}][:, J_u]."""
        r, e, frame = self.num_vars, self.socle_degree, self._frame
        return {
            u: _gather_table(r, e, e - u)[np.ix_(frame[e - u], frame[u])]
            for u in frame
        }

    @property
    def type(self) -> int:
        return len(self.rows)


@dataclass(frozen=True)
class QuotientSample:
    """One random type-c quotient: the combination matrix and its h-vector."""

    c: int
    coefficients: tuple[tuple[int, ...], ...]
    seed: int
    h: tuple[int, ...]


def _by_shape(m: InverseSystemModule, us, gather, kernel) -> dict:
    """kernel's results for the degrees us, split by degree: gather(u) is
    the stack of degree u, and the stacks of the degrees whose frame
    tables share a shape go to one kernel call, concatenated, while a
    degree with a shape of its own gets the call on its stack alone."""
    groups: dict[tuple, list[int]] = {}
    for u in us:
        groups.setdefault(m._frame_tables[u].shape, []).append(u)
    out = {}
    for group in groups.values():
        stacks = [gather(u) for u in group]
        n = len(stacks[0])
        results = kernel(stacks[0] if len(stacks) == 1 else np.concatenate(stacks))
        out.update((u, results[i * n : (i + 1) * n]) for i, u in enumerate(group))
    return out


def _graded_ranks(w: np.ndarray, m: InverseSystemModule) -> list[tuple[int, ...]]:
    """h-vectors of the modules generated by each w[k], c coefficient rows
    in the ring of m, gathered through m's frame. h_0 = 1 and h_e = c need
    no rank, and for one form h_u = h_{e-u}, since C_{e-u} and C_u are
    transposes. The inner entries are the dimensions of M_u(w[k]) for
    any w[k]; h_e = c is w[k]'s only when its rows are independent, and
    `_draws` reads that off the inner entries: a w[k] of rank c' < c
    spans c' forms, so its H_u is at most (c-1)·h_{e-u}(m).

    The rank at u of W's table, c·h_{e-u}(m) rows by h_u(m) columns, is at
    most either side, and a rank at either cap settles a run of degrees
    exactly, in every field:
    - rank h_u(m): M_u(W) = P_u, so for u' < u, M_{u'}(W) = R_{u-u'}∘M_u(W)
      = R_{u-u'}∘P_u = P_{u'}, and the rank at u' is h_{u'}(m);
    - rank c·h_{e-u}(m), full row rank: (g_k) ↦ Σ g_k∘W_k is one-to-one on
      (R/Ann F)_{e-u}^c, hence on degree e-u' < e-u for every u' > u. If
      Σ g_k∘W_k = 0 there, so is Σ (x^γ g_k)∘W_k for every x^γ of degree
      u'-u, so x^γ g_k ∘ F = 0; the forms g_k∘F of degree u' have no
      nonzero contraction of order u'-u, so they are 0 and g_k ∈ Ann F: the
      rank at u' is c·h_{e-u'}(m).
    A dependent W never meets a row cap: if Σ a_k W_k = 0, the rows
    x^β∘W_k of one β in J_{e-u} sum to 0 with the weights a_k. So the
    inner entries are dimensions of M_u(W) whatever W is.

    So the first round ranks, for every trial, the two critical degrees,
    the largest u with c·h_{e-u} >= h_u and the smallest u with c·h_{e-u}
    <= h_u, and every degree whose frame table shares their shape (the
    inner degrees of the sharp families all do); a quotient at its caps,
    as a generic one is, then has nothing left. The next round ranks every
    trial at each degree still open for some trial; a trial settled there
    ranks to the value it already holds, by the two rules above. Degrees
    whose tables share a shape go to one stacked rank (`_by_shape`).
    """
    k, c, _ = w.shape
    e = m.socle_degree
    top = e // 2 if c == 1 else e - 1
    degrees = range(1, top + 1)
    tables = m._frame_tables
    # the caps at u: h_u(m), and c·h_{e-u}(m) for full row rank
    full = [0, *(tables[u].shape[1] for u in degrees)]
    rows = [0, *(c * tables[u].shape[0] for u in degrees)]
    critical = [u for u in degrees if rows[u] >= full[u]][-1:]
    critical += [u for u in degrees if rows[u] <= full[u]][:1]
    shapes = {tables[u].shape for u in critical}
    pick = [u for u in degrees if tables[u].shape in shapes]
    h = [[1, *[None] * (e - 1), c] for _ in range(k)]

    def gather(u):
        return w[:, :, tables[u]].reshape(k, -1, tables[u].shape[1])

    while pick:
        ranks = _by_shape(m, pick, gather, lambda a: _ranks(a, m.field))
        for u in pick:
            for row, r in zip(h, ranks[u]):
                row[u] = r
                if r == full[u]:
                    row[1:u] = full[1:u]
                if r == rows[u]:
                    row[u + 1 : top + 1] = rows[u + 1 :]
        pick = [u for u in degrees if any(row[u] is None for row in h)]
    for row in h:
        for u in range(top + 1, e):
            row[u] = row[e - u]
    return [tuple(row) for row in h]


@lru_cache(maxsize=4096)
def h_vector(m: InverseSystemModule) -> tuple[int, ...]:
    """Dimensions of the graded pieces, degree 0 to e; h_u = |J_u| inside."""
    return (1, *(len(m._frame[u]) for u in range(1, m.socle_degree)), m.type)


def _single_spaces(m: InverseSystemModule, us, w: np.ndarray) -> list[list[np.ndarray]]:
    """For each degree u in us, the degree-u basis rows on the columns J_u
    of each form whose coefficient row is a row of w: m's generators
    (m.rows) or a re-mix W = A·F of them, whose span is m's and so is
    its frame. One stacked `_bases` call on the catalecticants gathered
    through m's frame for the degrees whose frame tables share a shape."""
    spaces = _by_shape(
        m, us, lambda u: w[:, m._frame_tables[u]], lambda a: _bases(a, m.field)
    )
    return [spaces[u] for u in us]


def _random_matrices(
    seeds, label: str, attempt: int, rows: int, cols: int, field: FieldSpec
) -> np.ndarray:
    """For each seed, attempt `attempt`'s rows-by-cols matrix of random
    coefficients, drawn row by row from the `_coefficients` of
    random.Random(derive_seed(seed, label, attempt)): one int64 array of
    shape (len(seeds), rows, cols)."""
    size = rows * cols
    draws = chain.from_iterable(
        islice(_coefficients(random.Random(derive_seed(seed, label, attempt)), field), size)
        for seed in seeds
    )
    return np.fromiter(draws, np.int64, len(seeds) * size).reshape(len(seeds), rows, cols)


def _check_trials(trials: int) -> int:
    """trials, or a ValueError unless 1 <= trials <= MAX_TRIALS: every
    trial is a derived seed and a c-by-N_e row stack held at once."""
    if trials < 1:
        raise ValueError("trials must be positive")
    if trials > MAX_TRIALS:
        raise ValueError(f"trials must be at most {MAX_TRIALS}, got {trials}")
    return trials


def _check_type(t: int, c: int) -> None:
    """Raise ValueError unless a type-t module has type-c quotients: 1 <= c
    <= t - 1."""
    if not 1 <= c <= t - 1:
        raise ValueError(f"c={c} out of range 1..{t - 1}")


def _draws(
    m: InverseSystemModule, c: int, seeds, label: str, graded: bool = False
) -> list[tuple]:
    """For each seed, a random c-by-t coefficient matrix A whose
    combinations W = A·F are independent, as tuples of Python ints, with
    that W, or with W's h-vector when `graded`.

    Attempt k of a seed is seeded by derive_seed(seed, label, k), up to 100
    attempts. Round k draws attempt k of every seed not yet served and
    keeps those whose W is independent; so each seed sees the attempts 0,
    1, ... it would see alone. A round's matrices are one int64 array
    (`_random_matrices`), combined as it is. When `graded`, the round is
    ranked through `_graded_ranks` first, and a W whose H_u exceeds
    (c-1)·h_{e-u}(m) in some inner degree u is independent: a W of rank
    c' < c spans c' forms, so H_u(W) <= c'·h_{e-u}(m) in every degree.
    Every other W of the round, and every W of an ungraded round, takes a
    rank of its c rows, in one stacked call. A W at its caps, as a generic
    one is, needs none where some inner degree has h_u(m) > (c-1)·h_{e-u}(m),
    every nonzero W at c = 1 and e >= 2 among them; on the sharp families,
    h_u(m) <= (c-1)·h_{e-u}(m) in every inner degree for c >= 2, every W
    takes one. A dependent W is redrawn at its next attempt.
    """
    t, e = m.type, m.socle_degree
    # a W of rank c' < c spans c' forms: H_u(W) <= c'·h_{e-u}(m) <= caps[u]
    caps = {u: (c - 1) * len(m._frame[e - u]) for u in range(1, e)} if graded else {}
    draws: dict[int, tuple] = {}
    for attempt in range(100):
        pending = [k for k in range(len(seeds)) if k not in draws]
        if not pending:
            break
        a = _random_matrices([seeds[k] for k in pending], label, attempt, c, t, m.field)
        w = _combine(a, m.rows, m.field)
        values = _graded_ranks(w, m) if graded else w
        kept = [any(h[u] > cap for u, cap in caps.items()) for h in values]
        unproved = [i for i, ok in enumerate(kept) if not ok]
        if unproved:
            for i, r in zip(unproved, _ranks(w[unproved], m.field)):
                kept[i] = r == c
        draws.update(
            (k, (tuple(map(tuple, ak.tolist())), v))
            for k, ak, v, ok in zip(pending, a, values, kept)
            if ok
        )
    if len(draws) < len(seeds):
        raise DegenerateSampleError(
            f"no independent {c}-of-{t} combination found in 100 attempts"
        )
    return [draws[k] for k in range(len(seeds))]


def _samples(m: InverseSystemModule, c: int, seeds) -> list[QuotientSample]:
    """One random type-c quotient per seed: the graded `_draws` labelled
    "quotient". Each round's h-vectors come from one `_graded_ranks` call,
    and a draw whose H_u exceeds (c-1)·h_{e-u}(m) in some inner degree u
    is independent by them, with no rank of its own."""
    draws = _draws(m, c, seeds, "quotient", graded=True)
    return [QuotientSample(c, a, seed, h) for (a, h), seed in zip(draws, seeds)]


def _explicit_coefficient(x, what: str = "coefficients") -> int:
    """An explicit integer as a Python int, read exactly by operator.index
    (a numpy scalar through .item()), or a ValueError naming it and `what`
    it is: a float such as 1.5 is refused, never truncated."""
    try:
        return operator.index(x.item() if isinstance(x, np.generic) else x)
    except TypeError:
        raise ValueError(f"{what} must be integers, got {x!r}") from None


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
    out a plain subset of the generators. Its entries are integers of any
    size, Python or numpy, or bools, read exactly; any other entry is a
    ValueError.
    """
    _check_type(m.type, c)
    if coefficients is None:
        return _samples(m, c, [seed])[0]
    rows = tuple(tuple(map(_explicit_coefficient, row)) for row in coefficients)
    if len(rows) != c or any(len(r) != m.type for r in rows):
        raise ValueError(f"coefficient matrix must be {c}x{m.type}")
    w = _combine([rows], m.rows, m.field)
    if _ranks(w, m.field)[0] != c:
        raise DependentGeneratorsError(f"{c} combinations span a smaller space")
    return QuotientSample(c, rows, seed, _graded_ranks(w, m)[0])


def generic_quotient_trials(
    m: InverseSystemModule, c: int, trials: int = 5, seed: int = 0
) -> list[QuotientSample]:
    """Independent quotient samples with per-trial derived seeds.

    Trial k equals sample_generic_quotient(m, c, derive_seed(seed, "trial",
    k)), bit for bit, but all trials are drawn and ranked side by side.
    """
    _check_type(m.type, c)
    _check_trials(trials)
    return _samples(m, c, [derive_seed(seed, "trial", k) for k in range(trials)])


def empirical_generic_h(
    m: InverseSystemModule, c: int, trials: int = 5, seed: int = 0
) -> tuple[int, ...]:
    """Entrywise max of sampled quotient h-vectors.

    A certified lower bound for the generic quotient h-vector, and equal
    to it unless every trial landed in the thin non-generic locus.
    """
    return _entrywise_max(s.h for s in generic_quotient_trials(m, c, trials, seed))


def _entrywise_max(hs) -> tuple[int, ...]:
    """Entrywise maximum of equally long h-vectors."""
    return tuple(max(col) for col in zip(*hs))


def remix_generators(m: InverseSystemModule, seed: int = 0) -> InverseSystemModule:
    """Same module, re-generated by t random independent combinations.

    Useful because overlap statistics below depend on the chosen
    generators; a random re-mix realizes the generic choice while leaving
    the module (hence its h-vector) untouched. `levelalg verify` walks
    the rows W alone (`manifest._identity_checks`). Over Q, W = A·(d·F)
    for the rows d·F of m, so m's denominator d gives back A·F exactly.
    """
    [(_, w)] = _draws(m, m.type, [seed], "remix")
    remixed = replace(m, rows=w)
    object.__setattr__(remixed, "_frame", m._frame)  # same span, same frame
    return remixed


def _check_degree(m: InverseSystemModule, u: int) -> None:
    if not 1 <= u <= m.socle_degree - 1:
        raise ValueError(
            f"degree u={u} out of range 1..{m.socle_degree - 1}"
        )


def _relative_dims(pairs, field: FieldSpec) -> list[int]:
    """For each pair (inter, rest) of a 2-D array and a list of 2-D arrays,
    all with one column count, the dimension of row(inter) modulo the span
    of rest: rank([inter; rest]) - rank(rest). Every [inter; rest] and rest
    is ranked in one stacked `_ranks` call; an empty inter or rest needs no
    rank, its value is len(inter)."""
    dims = [len(inter) for inter, _ in pairs]
    ranked = [k for k, (inter, rest) in enumerate(pairs) if len(inter) and rest]
    stack = []
    for k in ranked:
        rest = np.vstack(pairs[k][1])
        stack += [np.vstack([pairs[k][0], rest]), rest]
    if stack:
        ranks = _ranks(stack, field)
        for k, r_all, r_rest in zip(ranked, ranks[::2], ranks[1::2]):
            dims[k] = r_all - r_rest
    return dims


def _overlap(degrees: list[list[np.ndarray]], field: FieldSpec):
    """One pair per entry of degrees, each the t spaces of one degree
    (`_single_spaces`): the alternating sum of `inclusion_exclusion_sum`,
    and the list of the relative dimensions D_u(q) of
    `relative_intersection_dim` for the prefixes {0..q-1}, q = 2, 3, ...,
    that meet in nonzero rows (the sizes the subset recount weighs). All
    come from one walk over the subsets of every degree at once, and one
    `_relative_dims` call ranks the prefixes of every degree.

    The spaces are in frame coordinates, so their column count is h_u, and
    they span all of it. Two caps settle a degree before the walk, with no
    meet: if the dimensions add up to h_u the sum is direct, every meet is
    0, and the pair is (0, []); if every space has dimension h_u, every
    subset meets in the whole space, so the sum is (t-1)·h_u, and the
    prefixes are those of a prefix pruned at {0} (below): no rank.

    The other degrees are walked level by level in lexicographic order.
    Level q holds, for every degree, the rows of each q-subset's
    intersection I_T with a nonzero result, and its children T∪{j}, j
    after its last generator, are all met in one `_meets` call, whatever
    their degree. A zero intersection is dropped, since every superset
    then contributes 0, and a level is freed once its children are met.
    If all m children of T keep dim I_T, then I_T ⊆ S_j for each such j
    (nested spaces of equal dimension are equal), so every
    descendant meets in I_T: the children are not expanded, and the
    grandchildren and deeper add Σ_{k>=2} C(m,k)·(-1)^(q+k)·dim I_T =
    (-1)^q·dim I_T·(m-1). A q-subset whose last generator is q - 1 is the
    prefix {0..q-1}. Below a pruned prefix T = {0..q-1}, I_T ⊆ S_j for
    every j >= q, so every longer prefix meets in I_T: one of size below t
    has D_u 0, as I_T lies in the next space, and is handed no rows, and
    the size-t prefix, with nothing to mod out, has D_u = dim I_T and is
    handed I_T; neither takes a rank. Once one prefix meets in 0 so do all
    longer ones, their D_u is 0 and the list stops. D_u(1) is left out: it
    would rank all t spaces together, and no caller reads it. On the sharp
    families every triple keeps the meet of its pairs, so the walk meets
    the C(t,2) + C(t,3) pairs and triples of a degree, not its 2^t - t - 1
    subsets.
    """
    totals = [0] * len(degrees)
    prefixes: list[list[np.ndarray]] = [[] for _ in degrees]
    # (degree, rows, last generator) of each subset with a nonzero meet
    level = []
    for d, spaces in enumerate(degrees):
        h, dims = spaces[0].shape[1], [len(s) for s in spaces]
        if sum(dims) == h:
            continue
        if all(dim == h for dim in dims):
            totals[d] = (len(spaces) - 1) * h
            prefixes[d] = [spaces[0][:0]] * (len(spaces) - 2) + [spaces[0]]
        else:
            level += [(d, s, j) for j, s in enumerate(spaces)]
    q = 1  # the size of the subsets in level; their children count (-1)^(q+1)
    while children := [
        (s, degrees[d][j]) for d, s, last in level for j in range(last + 1, len(degrees[d]))
    ]:
        meets = iter(_meets(children, field))
        below = []
        for d, s, last in level:
            kids = [(j, next(meets)) for j in range(last + 1, len(degrees[d]))]
            for j, meet in kids:
                totals[d] -= (-1) ** q * len(meet)
                if j == q and len(meet):
                    prefixes[d].append(meet)
            if kids and all(len(meet) == len(s) for _, meet in kids):
                # every descendant meets in s: the deeper ones in closed form
                totals[d] += (-1) ** q * len(s) * (len(kids) - 1)
                if last == q - 1:
                    prefixes[d][-1:] = [s[:0]] * (len(degrees[d]) - q - 1) + [s]
            else:
                below += [(d, meet, j) for j, meet in kids if len(meet)]
        level = below
        q += 1
    pairs = [
        (inter, spaces[q:])
        for spaces, inters in zip(degrees, prefixes)
        for q, inter in enumerate(inters, start=2)
    ]
    flat = iter(_relative_dims(pairs, field))
    return [
        (total, list(islice(flat, len(inters))))
        for total, inters in zip(totals, prefixes)
    ]


def inclusion_exclusion_sum(m: InverseSystemModule, u: int) -> int:
    """Alternating sum of intersection dimensions over generator subsets.

    Pairs count positive, triples negative, and so on; for generically
    chosen generators this equals t * H_u(generic Gorenstein quotient)
    minus h_u. Use remix_generators first when that identity is wanted.
    The walk is `_overlap`'s: a degree whose spaces add up to h_u (a direct
    sum) or are each all of it is settled with no meet; otherwise the
    subsets are met level by level, a whole level in one stacked
    elimination, a subset whose parent meets in 0 is skipped, and below a
    subset whose children all keep its dimension every subset past the
    children is added in closed form, not met. The walk's relative
    dimensions, one stacked rank, are left unread.
    """
    _check_degree(m, u)
    if m.type < 2:
        raise ValueError("inclusion-exclusion needs at least two generators")
    return _overlap(_single_spaces(m, [u], m.rows), m.field)[0][0]


def relative_intersection_dim(
    m: InverseSystemModule, q: int, u: int, subset=None
) -> int:
    """Dimension of the q-fold intersection modulo the complement's span.

    Intersect the degree-u spaces of q chosen generators, in the order
    given, then quotient by the sum of the remaining generators' spaces.
    Defaults to the first q generators; for generic generators the value
    is independent of the choice of subset. The subset is met one pair at
    a time; `_overlap` gives the values of all the default subsets from
    the walk `inclusion_exclusion_sum` makes anyway, ranked together.
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
    [spaces] = _single_spaces(m, [u], m.rows)
    inter = spaces[subset[0]]
    for j in subset[1:]:
        if not len(inter):
            break
        inter = _meets([(inter, spaces[j])], m.field)[0]
    rest = [spaces[j] for j in range(t) if j not in subset]
    return _relative_dims([(inter, rest)], m.field)[0]


# ---------------------------------------------------------------------------
# module files

#: The module-file headers, each with the reader of its value.
_HEADERS = {
    "vars": lambda value: _parse_positive(value, "vars"),
    "degree": lambda value: _parse_positive(value, "degree"),
    "prime": lambda value: (
        FieldSpec.rational() if value == "rational"
        else FieldSpec.modular(_parse_int(value, "prime"))
    ),
}


def parse_module_file(
    text: str, field_override: FieldSpec | None = None
) -> InverseSystemModule:
    """Read a module from its text format.

    Header lines `vars: r`, `degree: e`, `prime: p` (or `prime: rational`),
    then one `F<k>: <expression>` line per generator, k decimal digits
    numbering them from 1. Blank lines and lines starting with '#' are
    skipped; a malformed line, a repeated header included, is an
    InputError on that line. A field override reinterprets the integer
    literals over that field instead of the header's. Dependent generators
    are reported on the line of the first one in the span of the earlier
    ones.
    """
    values: dict[str, object] = {}
    header_lines: dict[str, int] = {}
    gen_texts: list[tuple[int, str, int]] = []
    for lineno, line in _content_lines(text):
        try:
            if ":" not in line:
                raise ValueError("expected 'key: value'")
            key, _, value = (part.strip() for part in line.partition(":"))
            if key in _HEADERS:
                if key in header_lines:
                    raise ValueError(
                        f"repeated header {key!r}, first on line {header_lines[key]}"
                    )
                header_lines[key] = lineno
                values[key] = _HEADERS[key](value)
            elif key[:1] == "F" and key[1:].isdecimal():
                gen_texts.append((int(key[1:]), value, lineno))
            else:
                raise ValueError(f"unknown key {key!r}")
        except ValueError as exc:
            raise InputError(str(exc), lineno) from exc
    if "vars" not in values or "degree" not in values:
        raise InputError("missing 'vars' or 'degree' header", 1)
    num_vars, degree = values["vars"], values["degree"]
    try:
        check_space_dim(num_vars, degree)
    except ValueError as exc:
        raise InputError(str(exc), header_lines["vars"]) from exc
    field = field_override or values.get("prime") or FieldSpec.modular()
    if not gen_texts:
        raise InputError("no generator lines", 1)
    expected = list(range(1, len(gen_texts) + 1))
    if sorted(k for k, _, _ in gen_texts) != expected:
        raise InputError(
            f"generator labels must be F1..F{len(gen_texts)}", gen_texts[0][2]
        )
    gen_texts.sort()
    forms = []
    for _, expr, lineno in gen_texts:
        try:
            forms.append(parse_form(expr, num_vars, degree, field))
        except FormParseError as exc:
            raise InputError(str(exc), lineno) from exc
    try:
        return InverseSystemModule.from_forms(forms, field)
    except DependentGeneratorsError as exc:
        # the line of the first generator in the span of the earlier ones
        rows, _ = coefficient_rows(forms)
        ranks = _ranks([rows[: k + 1] for k in range(len(rows))], field)
        k = next(k for k, r in enumerate(ranks) if r <= k)
        raise InputError(str(exc), gen_texts[k][2]) from exc
    except ValueError as exc:  # a modulus p <= e: the prime's, or the degree's
        line = header_lines.get("prime", header_lines["degree"])
        raise InputError(str(exc), line) from exc


def module_to_text(m: InverseSystemModule) -> str:
    """Serialize in the same format parse_module_file reads."""
    prime = m.field.prime or "rational"
    lines = [f"vars: {m.num_vars}", f"degree: {m.socle_degree}", f"prime: {prime}"]
    for k, g in enumerate(m.generators, start=1):
        lines.append(f"F{k}: {g.to_text()}")
    return "\n".join(lines) + "\n"
