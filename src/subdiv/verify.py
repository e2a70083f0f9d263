"""Replayable verification suites over the package's main identities.

Each suite enumerates a deterministic family of cases, runs one pure
check per case, and returns a report whose case order depends only on
the parameters.  Case lists are not generated in key order, so the
results are sorted on the case key.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import lru_cache
from itertools import islice, permutations

from .complexes import from_facets, h_polynomial
from .localh import (
    c_coefficients,
    ell_mk,
    ell_mkj,
    h_from_local,
    local_h,
    local_h_via_uniform,
    p_poly,
    second_sd_local_h,
)
from .perm import (
    _check_enum,
    _split_sum,
    ascents,
    bad_points,
    d_nk,
    d_nkj,
    eulerian,
    fixed_points,
    foata,
)
from .poly import (
    Poly,
    add,
    format_poly,
    mul,
    power,
    reverse,
    shift,
    sub,
    veronese,
)
from .realroot import interlaces, is_interlacing_sequence, is_real_rooted
from .triangulate import (
    FACETS_CAP,
    FTriangle,
    Triangulation,
    check_simplex,
    f_triangle,
    f_triangle_of,
    iterated_sd,
    parse_kind,
    random_triangulation,
    reference,
    refine,
    restriction,
    stellar,
    trivial,
)

# Cases one run may list.  The range suites expand max(ns) and max(rs)
# to 0..max or 1..max, and the gamma suites multiply ns, seeds and kinds.
CASE_CAP = 100_000

COUNTEREXAMPLE = (0, 7, 42, 63, 42, 7)


@dataclass(frozen=True)
class CaseResult:
    """Outcome of one case; ``params`` doubles as the sort key."""

    params: tuple[tuple[str, object], ...]
    ok: bool
    detail: str

    @property
    def label(self) -> str:
        return " ".join(f"{k}={v}" for k, v in self.params) or "-"


@dataclass(frozen=True)
class VerifySuiteReport:
    suite: str
    cases: tuple[CaseResult, ...]
    seconds: float

    @property
    def cases_run(self) -> int:
        return len(self.cases)

    @property
    def failures(self) -> tuple[CaseResult, ...]:
        return tuple(c for c in self.cases if not c.ok)

    @property
    def ok(self) -> bool:
        return not self.failures


# Built and counted, not read off f_triangle: prop-lnkj, prop-dnkj parts
# a and b and prop-esdr test formulas about the triangle, and the library
# reads it off the very h-polynomials those formulas give (prop-esdr's
# k = 0 check would compare a Veronese section with itself).
@lru_cache(maxsize=None)
def _triangle(kind: str, n: int) -> tuple[Triangulation, FTriangle]:
    check_simplex(kind, n)
    T = refine(trivial(range(1, n + 1)), kind)
    return T, f_triangle_of(T)


def _gamma(n: int, seed: int, steps_cap: int, kind: str) -> tuple[Triangulation, int]:
    """The case's random triangulation; its facets have n vertices, so
    ``check_simplex`` checks the simplex before it is built, and
    ``refine`` checks the triangulation itself."""
    check_simplex(kind, n)
    steps = seed % (steps_cap + 1)
    return random_triangulation(range(1, n + 1), steps, seed=seed), steps


def _structural(T: Triangulation, n: int, problems: list[str]) -> Poly:
    """Invariants every constructed subdivision of a simplex must obey.

    A triangulation that fails validation is reported and not computed
    with further; the remaining checks assume a sound carrier map.  The
    round trip ``h_from_local`` sums the local h-polynomials of the
    restrictions that validation builds and checks, against h of the
    whole: the restrictions are built complexes, not rows of ``T``'s
    face table, so the two sides are independent computations.
    """
    try:
        round_trip = h_from_local(T)
    except ValueError as err:
        problems.append(f"structure: {err}")
        return ()
    ell = local_h(T)
    if ell != reverse(ell, n):
        problems.append(f"local h not symmetric: {format_poly(ell)}")
    if any(c < 0 for c in ell):
        problems.append(f"local h has a negative coefficient: {format_poly(ell)}")
    if round_trip != h_polynomial(T.total, n):
        problems.append("restriction sum does not give back the h-polynomial")
    return ell


def _certify(ell: Poly, ref: Poly, problems: list[str]) -> None:
    """Report ``ell`` unless it is real-rooted and interlaced by ``ref``."""
    if not is_real_rooted(ell):
        problems.append(f"not real-rooted: {format_poly(ell)}")
    elif not interlaces(ref, ell):
        problems.append(f"{format_poly(ref)} does not interlace {format_poly(ell)}")


def _result(params: dict, problems: list[str], ok_detail: str) -> CaseResult:
    key = tuple(sorted(params.items()))
    if problems:
        return CaseResult(key, False, "; ".join(problems))
    return CaseResult(key, True, ok_detail)


def _case_local_theorem(params: dict) -> CaseResult:
    """thm-sd without an ``r`` parameter, thm-esd with one: local h of
    the refined random triangulation is real-rooted and interlaced by
    ``reference``."""
    n, seed, r = params["n"], params["seed"], params.get("r")
    kind = "sd" if r is None else f"esd:{r}"
    G, steps = _gamma(n, seed, params["steps"], kind)
    problems: list[str] = []
    ell = _structural(refine(G, kind), n, problems)
    _certify(ell, reference(kind, n), problems)
    return _result(params, problems, f"steps={steps} ell={format_poly(ell)}")


def _case_thm_uniform(params: dict) -> CaseResult:
    n, seed, kind = params["n"], params["seed"], params["kind"]
    G, steps = _gamma(n, seed, params["steps"], kind)
    T = refine(G, kind)
    problems: list[str] = []
    direct = _structural(T, n, problems)
    expanded = local_h_via_uniform(f_triangle(kind, n), c_coefficients(G))
    if direct != expanded:
        problems.append(
            f"direct {format_poly(direct)} != expansion {format_poly(expanded)}")
    return _result(params, problems, f"steps={steps} ell={format_poly(direct)}")


def _case_thm_dnkj(params: dict) -> CaseResult:
    n, k = params["n"], params["k"]
    seq = [d_nkj(n, k, j) for j in range(n + 1)]
    problems: list[str] = []
    if not is_interlacing_sequence(seq):
        problems.append("(d_nkj)_j is not an interlacing sequence")
    a_n = eulerian(n)
    for j in range(n - k + 1):
        if not interlaces(a_n, seq[j]):
            problems.append(
                f"{format_poly(a_n)} does not interlace j={j}: {format_poly(seq[j])}")
    return _result(params, problems, f"{n + 1} polynomials certified")


def _case_cor_sd(params: dict) -> CaseResult:
    n, k = params["n"], params["k"]
    T = iterated_sd(range(1, n + 1), k)
    problems: list[str] = []
    ell = _structural(T, n, problems)
    _certify(ell, reference("sd", n), problems)
    return _result(params, problems, f"ell={format_poly(ell)}")


def _case_cor_2sd(params: dict) -> CaseResult:
    n = params["n"]
    from_stats = second_sd_local_h(n)
    direct = local_h(iterated_sd(range(1, n + 1), 2))
    problems: list[str] = []
    if from_stats != direct:
        problems.append(
            f"statistics {format_poly(from_stats)} != direct {format_poly(direct)}")
    if from_stats != reverse(from_stats, n):
        problems.append("not symmetric")
    if any(c < 0 for c in from_stats):
        problems.append("negative coefficient")
    return _result(params, problems, f"ell={format_poly(from_stats)}")


def _p_built(T: Triangulation, m: int) -> list[Poly]:
    """p_{m,j}, j = 0..m, off the built refinement ``T`` of a simplex on
    1..n, m <= n, as h(T_m) - h(R_j) with respect to m.  T_m is the
    restriction to [m], and R_j the union of its restrictions to the
    facets [m] - {v}, v = 1..j.  By the uniform expansion of h, the
    simplex (h = 1) gives p_{m,0}, and those j facets (h = 1 - x^j)
    give p_{m,0} - p_{m,j}."""
    top = tuple(range(1, m + 1))
    Tm = restriction(T, top)
    h = h_polynomial(Tm.total, m)
    out, facets = [h], []  # R_0 is void, with h = 0
    for v in top:
        facets += restriction(Tm, tuple(u for u in top if u != v)).total.facets
        out.append(sub(h, h_polynomial(from_facets(facets), m)))
    return out


def _case_prop_lnkj(params: dict) -> CaseResult:
    kind, part = params["kind"], params["part"]
    size = params["size"]
    T, F = _triangle(kind, size)
    if part == "d":  # ell_mkj at k = 0 is p_poly itself, so p is read off T
        p_built = [_p_built(T, m) for m in range(size + 1)]
    problems: list[str] = []
    xm1 = (-1, 1)
    for m in range(size + 1):
        for k in range(m + 1):
            for j in range(m - k + 1):
                val = ell_mkj(F, m, k, j)
                if part == "a" and any(c < 0 for c in val):
                    problems.append(f"(m,k,j)=({m},{k},{j}) negative: {format_poly(val)}")
                elif part == "b" and reverse(val, m) != ell_mkj(F, m, k, m - k - j):
                    problems.append(f"(m,k,j)=({m},{k},{j}) reversal fails")
                elif part == "c" and j == 0 and val != ell_mk(F, m, k):
                    problems.append(f"(m,k)=({m},{k}) j=0 specialization fails")
                elif part == "d" and k == 0 and val != p_built[m][j]:
                    problems.append(f"(m,j)=({m},{j}) k=0 specialization fails")
                elif part == "e" and j >= 1:
                    want = add(ell_mkj(F, m, k, j - 1),
                               mul(xm1, ell_mkj(F, m - 1, k, j - 1)))
                    if val != want:
                        problems.append(f"(m,k,j)=({m},{k},{j}) j-recurrence fails")
                elif part == "f" and k >= 1:
                    want = sub(ell_mkj(F, m, k - 1, j), ell_mkj(F, m - 1, k - 1, j))
                    if val != want:
                        problems.append(f"(m,k,j)=({m},{k},{j}) k-recurrence fails")
    return _result(params, problems[:4], f"all (m,k,j) with m<={size} pass")


@lru_cache(maxsize=None)
def _refined_bad_point_counts(n: int) -> tuple[tuple[Poly, ...], ...]:
    """d_nkj(n, k, j) for all 0 <= k, j <= n, counted afresh: ascents of
    the w in S_{n+1} with bad points in [n+1-k] and last value j+1."""
    _check_enum(n + 1)
    # (max bad point, last value) -> counts by ascent number
    buckets: dict[tuple[int, int], list[int]] = {}
    for w in permutations(range(1, n + 2)):
        bad = bad_points(w)
        row = buckets.setdefault((max(bad) if bad else 0, w[-1]), [0] * (n + 1))
        row[ascents(w)] += 1
    return tuple(
        tuple(add(*(c for (top, last), c in buckets.items()
                    if top <= n + 1 - k and last == j + 1))
              for j in range(n + 1))
        for k in range(n + 1))


def _case_prop_dnkj(params: dict) -> CaseResult:
    n, part = params["n"], params["part"]
    problems: list[str] = []
    # Part c holds the library to counted tables; parts d-g test their
    # identities on those tables, since the library's are built by the
    # same recurrences.  Summed over j, row k of the table at n-1 counts
    # all of S_n with bad points in [n-k]: that is d_nk.
    if part in "cdefg":
        D = _refined_bad_point_counts(n)
        prev = _refined_bad_point_counts(n - 1) if n >= 1 else ()
    if part == "a":
        _, F = _triangle("sd", n)
        for k in range(n + 1):
            if ell_mk(F, n, k) != d_nk(n, k):
                problems.append(f"k={k}: ell_mk != d_nk")
    elif part == "b":
        _, F = _triangle("sd", n)
        for k in range(n + 1):
            for j in range(n - k + 1):
                if ell_mkj(F, n, k, j) != d_nkj(n, k, j):
                    problems.append(f"(k,j)=({k},{j}): ell_mkj != d_nkj")
    elif part == "c":
        for k in range(n + 1):
            for j in range(n + 1):
                if d_nkj(n, k, j) != D[k][j]:
                    problems.append(f"(k,j)=({k},{j}): bad-point route differs")
    elif part == "d" and n >= 1:
        for k in range(n):
            if D[k][0] != add(*prev[k]):
                problems.append(f"k={k}: column sum identity fails")
    elif part == "e" and n >= 1:
        for k in range(1, n + 1):
            for j in range(n + 1):
                if j <= n - k:
                    want = sub(D[k - 1][j], prev[k - 1][j])
                elif j == n - k + 1:
                    want = D[k - 1][j]
                else:
                    want = sub(D[k - 1][j], prev[k - 1][j - 1])
                if D[k][j] != want:
                    problems.append(f"(k,j)=({k},{j}): case recurrence fails")
    elif part == "f":
        for k in range(1, n + 1):
            for j in range(n - k + 1, n + 1):
                if D[k][j] != _split_sum(prev[k - 1], j):
                    problems.append(f"(k,j)=({k},{j}): split sum fails")
    elif part == "g":
        for k in range(1, n + 1):
            if D[k][n] != shift(add(*prev[k - 1]), 1):
                problems.append(f"k={k}: top-j identity fails")
    return _result(params, problems[:4], "all indices pass")


def _case_prop_dnkj_rec(params: dict) -> CaseResult:
    n, part = params["n"], params["part"]
    # Counted tables: the library builds its own by these recurrences.
    D = _refined_bad_point_counts(n)
    prev = _refined_bad_point_counts(n - 1)
    problems: list[str] = []
    if part == "a":
        for k in range(n):
            rows = prev[k]
            for j in range(n + 1):
                want = _split_sum(rows, j)
                if j > n - k:
                    want = add(want, rows[j - 1])
                if D[k][j] != want:
                    problems.append(f"(k,j)=({k},{j}): recurrence fails")
    elif part == "b":
        rows = prev[n - 1]
        if D[n][0] != add(*rows[1:]):
            problems.append("j=0 row fails")
        for j in range(1, n + 1):
            if D[n][j] != _split_sum(rows, j):
                problems.append(f"j={j}: row fails")
    return _result(params, problems[:4], "all indices pass")


def _case_prop_esdr(params: dict) -> CaseResult:
    n, r = params["n"], params["r"]
    _, F = _triangle(f"esd:{r}", n)
    ones = (1,) * r
    positive = shift((1,) * (r - 1), 1) if r > 1 else ()
    problems: list[str] = []
    for k in range(n + 1):
        if p_poly(F, n, k) != veronese(shift(power(ones, n), k), r, 0):
            problems.append(f"k={k}: p formula fails")
        base = mul(power(ones, n - k), power(positive, k))
        if ell_mk(F, n, k) != veronese(base, r, 0):
            problems.append(f"k={k}: ell formula fails")
        for j in range(n - k + 1):
            if ell_mkj(F, n, k, j) != veronese(shift(base, j), r, 0):
                problems.append(f"(k,j)=({k},{j}): refined formula fails")
    return _result(params, problems[:4], "all three formula families pass")


def _case_esd_counterexample(params: dict) -> CaseResult:
    n = 6
    verts = tuple(range(1, n + 1))
    T = refine(stellar(trivial(verts), verts), "esd:2")
    problems: list[str] = []
    ell = _structural(T, n, problems)
    if ell != COUNTEREXAMPLE:
        problems.append(f"unexpected value {format_poly(ell)}")
    if is_real_rooted(ell):
        problems.append("polynomial is real-rooted but must not be")
    return _result(params, problems, f"ell={format_poly(ell)} and not real-rooted")


def _case_foata(params: dict) -> CaseResult:
    n = params["n"]
    _check_enum(n)
    problems: list[str] = []
    checked = 0
    for w in permutations(range(1, n + 1)):
        v = foata(w)
        exc = sum(1 for i in range(1, n + 1) if w[i - 1] > i)
        if exc != ascents(v):
            problems.append(f"excedances of {w} != ascents of {v}")
        if set(fixed_points(w)) != set(bad_points(v)):
            problems.append(f"fixed points of {w} != bad points of {v}")
        if w.index(1) + 1 != v[-1]:
            problems.append(f"position of 1 in {w} != last value of {v}")
        if problems:
            break
        checked += 1
    return _result(params, problems, f"{checked} permutations checked")


def _cases_gamma_family(o, extra=lambda n: [{}]):
    for n in o["ns"]:
        for seed in o["seeds"]:
            for added in extra(n):
                yield {"n": n, "seed": seed, "steps": o["steps"], **added}


# name -> (description, the options the suite reads with their defaults,
# case generator over those options, case function).  The gamma suites
# share the defaults of ns, seeds and steps.
_GAMMA = {"ns": (2, 3, 4), "seeds": tuple(range(1, 21)), "steps": 6}
_SUITES = {
    "thm-sd": (
        "barycentric local h real-rooted and interlaced by the Eulerian polynomial",
        _GAMMA,
        _cases_gamma_family,
        _case_local_theorem,
    ),
    "thm-esd": (
        "edgewise local h real-rooted and interlaced by the word polynomial (r >= n)",
        # rs None runs r = n, n+1, n+2; esd:r needs r >= 1, so n = 0 runs r = 1, 2.
        {**_GAMMA, "rs": None},
        lambda o: _cases_gamma_family(
            o, lambda n: [{"r": r} for r in (o["rs"] or range(max(n, 1), n + 3))]),
        _case_local_theorem,
    ),
    "thm-uniform": (
        "local h of a uniform refinement equals its weighted expansion",
        {**_GAMMA, "kinds": ("sd", "esd:2", "esd:3")},
        lambda o: _cases_gamma_family(o, lambda n: [{"kind": k} for k in o["kinds"]]),
        _case_thm_uniform,
    ),
    "thm-dnkj": (
        "(d_nkj)_j interlacing sequences, interlaced by the Eulerian polynomial",
        {"ns": (6,)},
        lambda o: ({"n": n, "k": k}
                   for n in range(max(o["ns"]) + 1) for k in range(n + 1)),
        _case_thm_dnkj,
    ),
    "cor-sd": (
        "iterated barycentric local h real-rooted and Eulerian-interlaced",
        {"ns": (4,), "k_max": 2},
        lambda o: ({"n": n, "k": k}
                   for n in range(1, max(o["ns"]) + 1)
                   for k in range(1, o["k_max"] + 1)),
        _case_cor_sd,
    ),
    "cor-2sd": (
        "second barycentric local h equals its permutation expansion",
        {"ns": (4,)},
        lambda o: ({"n": n} for n in range(max(o["ns"]) + 1)),
        _case_cor_2sd,
    ),
    "prop-lnkj": (
        "structure of the two-parameter family: positivity, reversal, recurrences",
        {"kinds": ("sd", "esd:2", "esd:3")},
        lambda o: ({"kind": kind, "size": 5 if parse_kind(kind) == 3 else 6, "part": p}
                   for kind in o["kinds"] for p in "abcdef"),
        _case_prop_lnkj,
    ),
    "prop-dnkj": (
        "properties of the position-refined d-polynomials",
        {"ns": (7,)},
        lambda o: ({"n": n, "part": p}
                   for n in range(max(o["ns"]) + 1) for p in "abcdefg"),
        _case_prop_dnkj,
    ),
    "prop-dnkj-rec": (
        "row recurrences generating d_nkj from size n-1",
        {"ns": (7,)},
        lambda o: ({"n": n, "part": p}
                   for n in range(1, max(o["ns"]) + 1) for p in "ab"),
        _case_prop_dnkj_rec,
    ),
    "prop-esdr": (
        "closed dilation-count formulas for the edgewise families",
        {"ns": (5,), "rs": (6,)},
        lambda o: ({"n": n, "r": r} for n in range(1, max(o["ns"]) + 1)
                   for r in range(1, max(o["rs"]) + 1)),
        _case_prop_esdr,
    ),
    "esd-counterexample": (
        "the halved stellar simplex: exact value, not real-rooted",
        {},
        lambda o: [{"input": "esd_2(stellar simplex), n=6"}],
        _case_esd_counterexample,
    ),
    "foata": (
        "cycle-notation transform: excedances, fixed points, position of 1",
        {"ns": (8,)},
        lambda o: ({"n": n} for n in range(1, max(o["ns"]) + 1)),
        _case_foata,
    ),
}

SUITE_NAMES = tuple(_SUITES)

# run_suite's option keywords in signature order, with the CLI flag of each.
_FLAGS = {"ns": "--n", "seeds": "--seeds", "steps": "--steps", "rs": "--r",
          "kinds": "--kinds", "k_max": "--k"}


def suite_description(suite: str) -> str:
    return _SUITES[suite][0]


def _run_case(item: tuple[str, tuple[tuple[str, object], ...]]) -> CaseResult:
    suite, params = item
    try:
        return _SUITES[suite][3](dict(params))
    except Exception as err:  # a crashing case must not abort its siblings
        return CaseResult(params, False, f"raised {type(err).__name__}: {err}")


def run_suite(suite: str, *, ns=None, seeds=None, steps=None, rs=None,
              kinds=None, k_max=None) -> VerifySuiteReport:
    """Run one named suite and return its sorted, deterministic report.

    An option the suite's ``_SUITES`` entry does not list is refused before
    any other check; an option not given takes the entry's default."""
    if suite not in _SUITES:
        raise ValueError(f"unknown suite {suite!r}; choose from {', '.join(_SUITES)}")
    _, defaults, cases, _ = _SUITES[suite]
    given = {key: value for key, value
             in zip(_FLAGS, (ns, seeds, steps, rs, kinds, k_max)) if value is not None}
    for key in given:
        if key not in defaults:
            raise ValueError(f"suite {suite} does not read {_FLAGS[key]}; it reads "
                             + (", ".join(map(_FLAGS.get, defaults)) or "no option"))
    # Read only now, so a value parsed on first iteration is never parsed
    # for a suite that does not read it.
    given = {key: value if isinstance(value, int) else tuple(value)
             for key, value in given.items()}
    if () in given.values():
        raise ValueError("an option given lists no value")
    o = {**defaults, **given}
    if o.get("steps", 0) < 0:
        raise ValueError("--steps must be nonnegative")
    # sd^k of a simplex on n >= 2 vertices has at least 2^k facets, so
    # a larger k is refused there; at n = 1, sd^k is just a point.
    top_k = FACETS_CAP.bit_length() - 1
    if o.get("k_max", 0) > top_k:
        raise ValueError(f"k is limited to {top_k}: sd^k has at least 2^k "
                         f"facets and the limit is {FACETS_CAP}")
    if any(n < 0 for n in o.get("ns", ())):
        raise ValueError("n must be nonnegative")
    for kind in o.get("kinds", ()):
        parse_kind(kind)
    for r in o.get("rs") or ():
        parse_kind(f"esd:{r}")
    # Cases are drawn lazily, so an oversize list is refused before it
    # is built and before any case runs.
    items = [(suite, tuple(sorted(case.items())))
             for case in islice(cases(o), CASE_CAP + 1)]
    # --steps changes no case count, so these hints leave it out.
    flags = [_FLAGS[key] for key in defaults if key != "steps"]
    hint = " or ".join(filter(None, (", ".join(flags[:-1]), *flags[-1:])))
    if len(items) > CASE_CAP:
        raise ValueError(f"suite {suite} lists more than {CASE_CAP} cases; "
                         f"narrow {hint}")
    if not items:
        raise ValueError(f"suite {suite} lists no cases; widen {hint}")
    start = time.perf_counter()
    results = [_run_case(item) for item in items]
    results.sort(key=lambda c: tuple((k, repr(v)) for k, v in c.params))
    return VerifySuiteReport(suite, tuple(results), time.perf_counter() - start)
