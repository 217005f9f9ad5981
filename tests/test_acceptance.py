"""End-to-end acceptance checks, one per shipped guarantee.

Each test prints a single PASS/FAIL line (run with -s to see them all),
so the suite output doubles as an acceptance report.  Shared corpora are
computed once and reused across checks; every random draw is seeded, so
the whole report is reproducible bit for bit.
"""

import random
import time
from itertools import combinations

from levelalg.bounds import (
    chained_bound,
    generic_quotient_bound,
    penultimate_bound_holds,
    quotient_feasible,
    tighten_bound,
    verify_instance,
)
from levelalg.combinatorics import (
    alternating_binomial_sum,
    binomial,
    is_o_sequence,
    macaulay_expansion,
)
from levelalg.families import random_module, sharp_family
from levelalg.fields import FieldSpec
from levelalg.modules import (
    DegenerateSampleError,
    InverseSystemModule,
    derive_seed,
    h_vector,
    inclusion_exclusion_sum,
    relative_intersection_dim,
    remix_generators,
)
from levelalg.polynomials import space_dim

MOD = FieldSpec.modular()
RAT = FieldSpec.rational()

H733 = (1, 3, 5, 7, 7, 5, 3)

_CACHE: dict = {}


def _verdict(n: int, failures: list, detail: str) -> None:
    ok = not failures
    tail = "" if ok else f" [{len(failures)} failures, first: {failures[0]}]"
    print(f"\nacceptance {n}: {'PASS' if ok else 'FAIL'} {detail}{tail}")
    assert ok, f"acceptance {n}: {detail}{tail}"


# ------------------------------------------------------------------ corpora


def _sharp_grid(field: FieldSpec) -> dict:
    """Sharp-family grid: parent h plus one report per quotient type."""
    grid = {}
    for t in (2, 3, 4):
        for p in (1, 2):
            for e in range(2, 7):
                m = sharp_family(t, p, e, field)
                h = h_vector(m)
                reports = {
                    c: verify_instance(
                        m, c, trials=2, seed=derive_seed("sharp", t, p, e, c)
                    )
                    for c in range(1, t)
                }
                grid[(t, p, e)] = (h, reports)
    return grid


def _sharp_grid_cached(field: FieldSpec) -> dict:
    key = ("sharp", field.is_modular)
    if key not in _CACHE:
        _CACHE[key] = _sharp_grid(field)
    return _CACHE[key]


def _stress_corpus() -> list:
    """100 seeded random modules, verified at every admissible type."""
    if "stress" in _CACHE:
        return _CACHE["stress"]
    rng = random.Random(derive_seed("acceptance", "stress"))
    corpus = []
    while len(corpus) < 100:
        r = rng.randint(2, 5)
        e = rng.randint(2, 8)
        t = rng.randint(2, 4)
        if t > space_dim(r, e):
            continue
        density = rng.choice((0.3, 0.5, 0.8))
        seed = rng.randint(0, 10**6)
        trial_seeds = [rng.randint(0, 10**6) for _ in range(t - 1)]
        try:
            m = random_module(r, e, t, density, seed, MOD)
        except DegenerateSampleError:
            continue
        reports = {
            c: verify_instance(m, c, trials=5, seed=trial_seeds[c - 1])
            for c in range(1, t)
        }
        corpus.append((m, reports))
    _CACHE["stress"] = corpus
    return corpus


# The overlap identities are generic-position statements about how the
# generators' derivative spaces meet.  They hold unconditionally at t = 2
# (two-subspace dimension count) and, for t >= 3, on the block families
# whose overlap structure is exactly the extremal one; generic dense
# modules of higher type genuinely violate them at middle degrees, so the
# corpus below sticks to the classes where they are theorems.
_OVERLAP_SHARP = (
    [(3, 1, e) for e in (2, 3, 4, 5)]
    + [(3, 2, e) for e in (2, 3, 4)]
    + [(4, 1, e) for e in (2, 3, 4, 5)]
    + [(4, 2, e) for e in (2, 3)]
)


def _overlap_records(field: FieldSpec) -> tuple[list, list]:
    """25 instances with re-mixed generators and their overlap statistics.

    Returns (summaries, live): summaries hold plain integers only, so two
    field backends can be compared wholesale; live keeps the modules.
    """
    rng = random.Random(derive_seed("acceptance", "overlap"))
    instances = []
    for t, p, e in _OVERLAP_SHARP:
        instances.append((sharp_family(t, p, e, field), rng.randint(0, 10**6)))
    while len(instances) < 25:
        r = rng.randint(2, 4)
        e = rng.randint(3, 5)
        density = rng.choice((0.5, 0.8, 1.0))
        seed = rng.randint(0, 10**6)
        try:
            m = random_module(r, e, 2, density, seed, field)
        except DegenerateSampleError:
            continue
        instances.append((m, rng.randint(0, 10**6)))
    summaries = []
    live = []
    for m, mix_seed in instances:
        t, e = m.type, m.socle_degree
        g = remix_generators(m, seed=derive_seed(mix_seed, "mix"))
        h = h_vector(m)
        single = InverseSystemModule.from_forms((g.generators[0],), field)
        big_h = h_vector(single)
        per_u = []
        for u in range(1, e):
            dims = {
                q: relative_intersection_dim(g, q, u) for q in range(1, t + 1)
            }
            all_subset_dims = {
                q: tuple(
                    relative_intersection_dim(g, q, u, subset=s)
                    for s in combinations(range(t), q)
                )
                for q in range(1, t + 1)
            }
            sigma = inclusion_exclusion_sum(g, u)
            per_u.append((u, big_h[u], sigma, dims, all_subset_dims))
        summaries.append(
            {"t": t, "e": e, "label": m.label, "seed": mix_seed,
             "h": h, "per_u": per_u}
        )
        live.append((m, g))
    return summaries, live


def _overlap_records_cached(field: FieldSpec) -> tuple[list, list]:
    key = ("overlap", field.is_modular)
    if key not in _CACHE:
        _CACHE[key] = _overlap_records(field)
    return _CACHE[key]


def _reference_arithmetic() -> dict:
    return {
        "direct2": generic_quotient_bound(H733, 3, 2),
        "direct1": generic_quotient_bound(H733, 3, 1),
        "reject": quotient_feasible(H733, (1, 3, 4, 6, 5, 4, 2), 2),
        "accept": quotient_feasible(H733, (1, 3, 5, 6, 6, 4, 2), 2),
        "tightened": tighten_bound(H733, generic_quotient_bound(H733, 3, 2), 2),
        "chained": chained_bound(H733, 3, (3, 2, 1), tighten=True),
    }


# ------------------------------------------------------------------- checks


def test_01_alternating_sum_identities():
    failures = []
    t0 = time.perf_counter()
    for t in range(2, 61):
        for j in range(2, t + 1):
            want = (j - 1) * binomial(t, j)
            if alternating_binomial_sum(t, j, start=2) != want:
                failures.append(f"signed sum (t={t}, j={j})")
            if alternating_binomial_sum(t, j, start=0) != 0:
                failures.append(f"zero form (t={t}, j={j})")
    elapsed = time.perf_counter() - t0
    if elapsed >= 1.0:
        failures.append(f"took {elapsed:.2f}s, budget 1s")
    _verdict(
        1, failures,
        f"alternating-sum identities for 2 <= j <= t <= 60 ({elapsed:.2f}s)",
    )


def test_02_sharp_families_attain_the_bound():
    failures = []
    t0 = time.perf_counter()
    grid = _sharp_grid(MOD)
    elapsed = time.perf_counter() - t0
    _CACHE[("sharp", True)] = grid
    for (t, p, e), (h, reports) in grid.items():
        want_h = (1,) + ((t + 1) * p,) * (e - 1) + (t,)
        if h != want_h:
            failures.append(f"parent h (t={t}, p={p}, e={e}): {h}")
        for c, rep in reports.items():
            want_q = (1,) + ((c + 1) * p,) * (e - 1) + (c,)
            if not (rep.bound == rep.empirical == want_q):
                failures.append(
                    f"quotient (t={t}, p={p}, e={e}, c={c}): "
                    f"bound {rep.bound}, empirical {rep.empirical}"
                )
            if rep.tight_degrees != tuple(range(e + 1)):
                failures.append(f"not tight everywhere (t={t}, p={p}, e={e}, c={c})")
    if elapsed >= 30.0:
        failures.append(f"took {elapsed:.1f}s, budget 30s")
    _verdict(
        2, failures,
        f"sharp grid of {len(grid)} modules: every quotient bound exact "
        f"and tight ({elapsed:.1f}s)",
    )


def test_03_reference_bound_vectors():
    failures = []
    ref = _reference_arithmetic()
    _CACHE["reference"] = ref
    checks = [
        ("direct c=2", ref["direct2"] == (1, 3, 4, 6, 5, 4, 2)),
        ("direct c=1", ref["direct1"] == (1, 2, 3, 4, 3, 2, 1)),
        ("rejects loose vector", ref["reject"] is False),
        ("accepts staircase vector", ref["accept"] is True),
        ("tightened c=2", ref["tightened"] == (1, 3, 5, 6, 6, 4, 2)),
        (
            "chained 3->2->1 dominates",
            all(a >= b for a, b in zip(ref["chained"], (1, 3, 4, 4, 4, 3, 1)))
            and all(a >= b for a, b in zip(ref["chained"], ref["direct1"])),
        ),
    ]
    failures = [name for name, ok in checks if not ok]
    _verdict(3, failures, "reference vectors, feasibility verdicts, chaining")


def test_04_random_stress_corpus():
    failures = []
    t0 = time.perf_counter()
    corpus = _stress_corpus()
    elapsed = time.perf_counter() - t0
    n_checks = 0
    for m, reports in corpus:
        for c, rep in reports.items():
            n_checks += 1
            if not rep.satisfied:
                failures.append(
                    f"{m.label} c={c}: empirical {rep.empirical} "
                    f"below bound {rep.bound}"
                )
    _verdict(
        4, failures,
        f"stress corpus: {len(corpus)} modules, {n_checks} quotient "
        f"verifications, 5 trials each ({elapsed:.1f}s)",
    )


def test_05_overlap_identities_exact():
    failures = []
    summaries, _ = _overlap_records_cached(MOD)
    n_checks = 0
    for rec in summaries:
        t, h = rec["t"], rec["h"]
        for u, big_h, sigma, dims, all_subset_dims in rec["per_u"]:
            n_checks += 1
            if sigma != t * big_h - h[u]:
                failures.append(
                    f"{rec['label']}: sigma {sigma} != {t}*{big_h} - {h[u]} "
                    f"at u={u}"
                )
            recount = sum(
                (j - 1) * binomial(t, j) * dims[j] for j in range(2, t + 1)
            )
            if sigma != recount:
                failures.append(f"weighted recount at u={u}: {sigma} != {recount}")
            if t == 3:
                d1, d2, d3 = dims[1], dims[2], dims[3]
                if big_h != d1 + 2 * d2 + d3:
                    failures.append(f"three-term split of H at u={u}")
                if h[u] != 3 * d1 + 3 * d2 + d3:
                    failures.append(f"three-term split of h at u={u}")
                if sigma != 3 * d2 + 2 * d3:
                    failures.append(f"three-term split of sigma at u={u}")
            for q, subset_dims in all_subset_dims.items():
                if len(set(subset_dims)) != 1:
                    failures.append(
                        f"subset choice leaks at u={u}, q={q}: {subset_dims}"
                    )
    _verdict(
        5, failures,
        f"overlap identities exact on {len(summaries)} re-mixed instances "
        f"({n_checks} degrees)",
    )


def test_06_overlap_lower_bound():
    failures = []
    summaries, _ = _overlap_records_cached(MOD)
    for rec in summaries:
        e, h = rec["e"], rec["h"]
        for u, big_h, sigma, _, _ in rec["per_u"]:
            if big_h < h[e - u] - sigma:
                failures.append(
                    f"{rec['label']}: H_{u}={big_h} < {h[e - u]} - {sigma}"
                )
    _verdict(
        6, failures,
        f"derivative-span lower bound holds at every degree on "
        f"{len(summaries)} instances",
    )


def test_07_full_codimension_conclusions():
    failures = []
    n_gor = n_drop = 0
    # each conclusion applies wherever the bound forces H_1 = h_1, which
    # both full-codimension hypotheses imply
    for m, reports in _stress_corpus():
        h = h_vector(m)
        t = m.type
        r = h[1]
        if generic_quotient_bound(h, t, 1)[1] >= r:
            n_gor += 1
            if reports[1].empirical[1] != r:
                failures.append(f"{m.label}: Gorenstein quotient lost a variable")
        if generic_quotient_bound(h, t, t - 1)[1] >= r:
            n_drop += 1
            if reports[t - 1].empirical[1] != r:
                failures.append(f"{m.label}: type-drop quotient lost a variable")
    if n_gor == 0 or n_drop == 0:
        failures.append(f"hypotheses never triggered (gor={n_gor}, drop={n_drop})")
    _verdict(
        7, failures,
        f"full-codimension conclusions on qualifying stress instances "
        f"({n_gor} Gorenstein-side, {n_drop} type-drop-side)",
    )


def test_08_growth_machinery_on_computed_vectors():
    failures = []
    n_exp = 0
    for i in range(1, 13):
        for n in range(1, 5001):
            exp = macaulay_expansion(n, i)
            n_exp += 1
            ms = [m for m, _ in exp.parts]
            ks = [k for _, k in exp.parts]
            if exp.value() != n:
                failures.append(f"re-sum ({n}, {i})")
            elif ks != list(range(i, i - len(ks), -1)):
                failures.append(f"row indices ({n}, {i})")
            elif any(a <= b for a, b in zip(ms, ms[1:])):
                failures.append(f"column entries not descending ({n}, {i})")
            elif any(m < k for m, k in exp.parts):
                failures.append(f"degenerate part ({n}, {i})")
    verdict = is_o_sequence((1, 3, 4, 6))
    if verdict.ok or verdict.first_violation != 2:
        failures.append(f"(1,3,4,6) verdict {verdict}")

    vectors = []
    for (t, _, _), (h, reports) in _sharp_grid_cached(MOD).items():
        vectors.append((h, t))
        vectors.extend((rep.empirical, c) for c, rep in reports.items())
    for m, reports in _stress_corpus():
        vectors.append((h_vector(m), m.type))
        vectors.extend((rep.empirical, c) for c, rep in reports.items())
    for h, t in vectors:
        if not is_o_sequence(h).ok:
            failures.append(f"computed vector {h} fails the growth test")
        if not penultimate_bound_holds(h, t):
            failures.append(f"computed vector {h} breaks the next-to-last bound")
    _verdict(
        8, failures,
        f"growth machinery: {n_exp} expansions, o-sequence and "
        f"next-to-last checks on {len(vectors)} computed vectors",
    )


def test_09_rational_rerun_matches_modular():
    failures = []
    t0 = time.perf_counter()

    mod_grid = _sharp_grid_cached(MOD)
    rat_grid = _sharp_grid(RAT)
    for key, (h_mod, reps_mod) in mod_grid.items():
        h_rat, reps_rat = rat_grid[key]
        if h_rat != h_mod:
            failures.append(f"parent h differs at {key}")
        for c in reps_mod:
            pair = (reps_mod[c], reps_rat[c])
            if any(a.bound != b.bound or a.empirical != b.empirical
                   or a.tight_degrees != b.tight_degrees for a, b in [pair]):
                failures.append(f"report differs at {key}, c={c}")

    ref = _CACHE.get("reference") or _reference_arithmetic()
    if _reference_arithmetic() != ref:
        failures.append("reference arithmetic not reproducible")

    mod_summaries, _ = _overlap_records_cached(MOD)
    rat_summaries, _ = _overlap_records(RAT)
    if mod_summaries != rat_summaries:
        for a, b in zip(mod_summaries, rat_summaries):
            if a != b:
                failures.append(f"overlap record differs: seed {a['seed']}")
                break
    elapsed = time.perf_counter() - t0
    _verdict(
        9, failures,
        f"exact-rational rerun reproduces every modular integer "
        f"({elapsed:.1f}s)",
    )
