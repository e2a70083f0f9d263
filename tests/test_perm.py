"""Permutation statistics, the d/p polynomial families, Foata, and words.

The TABLE_* dicts below are the trusted transcription of the reference
tables for n <= 4. They were written down before the module existed and
double as the oracle for the CLI golden files.
"""

from dataclasses import dataclass
from functools import lru_cache
from itertools import permutations, product
from math import comb, factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subdiv import perm as perm_mod
from subdiv.perm import (
    E_nr,
    _check_enum,
    _check_perm,
    ascents,
    bad_points,
    d_nk,
    d_nkj,
    derangement_counts,
    eulerian,
    fixed_points,
    foata,
    p_nk,
)
from subdiv.poly import normalize, parse_poly, power, veronese

P = parse_poly

# Slow routes and statistics that only the tests use; each is an
# independent count of a polynomial the library computes another way.


def descents(w):
    return sum(1 for i in range(len(w) - 1) if w[i] > w[i + 1])


def excedances(w):
    return sum(1 for i, v in enumerate(w, start=1) if v > i)


@dataclass(frozen=True)
class PermStats:
    des: int
    asc: int
    exc: int
    fix: frozenset


def stats(w):
    """Descent, ascent, excedance and fixed-point data of w."""
    _check_perm(w)
    return PermStats(descents(w), ascents(w), excedances(w), fixed_points(w))


def _counts_to_poly(counts):
    if not counts:
        return ()
    top = max(counts)
    return normalize(counts.get(i, 0) for i in range(top + 1))


@lru_cache(maxsize=None)
def exc_sweep(m):
    """One pass over S_m keyed by (max fixed point, position of value 1, exc).

    max fixed point is 0 for fixed-point-free permutations, so the
    constraint Fix(w) within [t] reads as maxfix <= t.
    """
    _check_enum(m)
    if m == 0:
        # The empty permutation: no fixed points, no value 1, no excedances.
        return {(0, 0, 0): 1}
    acc = {}
    for w in permutations(range(1, m + 1)):
        maxfix = 0
        exc = 0
        for i, v in enumerate(w, start=1):
            if v == i:
                maxfix = i
            elif v > i:
                exc += 1
        key = (maxfix, w.index(1) + 1, exc)
        acc[key] = acc.get(key, 0) + 1
    return acc


def exc_poly(m, keep):
    """Excedance enumerator over the w in S_m whose max fixed point and
    position of value 1 pass ``keep(maxfix, pos)``."""
    counts = {}
    for (maxfix, pos, exc), cnt in exc_sweep(m).items():
        if keep(maxfix, pos):
            counts[exc] = counts.get(exc, 0) + cnt
    return _counts_to_poly(counts)


def p_nk_via_tails(n, k):
    """Descent enumerator over the n! permutations of [n+1] starting k+1."""
    counts = {}
    rest = [v for v in range(1, n + 2) if v != k + 1]
    for tail in permutations(rest):
        d = descents((k + 1,) + tail)
        counts[d] = counts.get(d, 0) + 1
    return _counts_to_poly(counts)


def eulerian_via_descents(n):
    """Descent enumerator over S_n."""
    _check_enum(n)
    counts = {}
    for w in permutations(range(1, n + 1)):
        d = descents(w)
        counts[d] = counts.get(d, 0) + 1
    return _counts_to_poly(counts)


def d_nk_via_bad_points(n, k):
    """Ascent enumerator over w in S_n whose bad points lie in [n-k]."""
    if not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= n, got k={k}, n={n}")
    _check_enum(n)
    counts = {}
    for w in permutations(range(1, n + 1)):
        if all(b <= n - k for b in bad_points(w)):
            a = ascents(w)
            counts[a] = counts.get(a, 0) + 1
    return _counts_to_poly(counts)


def words(n, r):
    """All maps {0..n-1} -> {0..r-1} with first letter 0."""
    if n < 1 or r < 1:
        raise ValueError("words need n >= 1 and r >= 1")
    for tail in product(range(r), repeat=n - 1):
        yield (0,) + tail


def word_ascents(w):
    return sum(1 for i in range(1, len(w)) if w[i - 1] < w[i])


def e_nr_words(n, r):
    counts = {}
    for w in words(n, r):
        a = word_ascents(w)
        counts[a] = counts.get(a, 0) + 1
    return _counts_to_poly(counts)


# d_{n,k}(x) for n <= 4.
TABLE1 = {
    (0, 0): P("1"),
    (1, 0): P("1"),
    (1, 1): P("0"),
    (2, 0): P("1+x"),
    (2, 1): P("x"),
    (2, 2): P("x"),
    (3, 0): P("1+4x+x^2"),
    (3, 1): P("3x+x^2"),
    (3, 2): P("2x+x^2"),
    (3, 3): P("x+x^2"),
    (4, 0): P("1+11x+11x^2+x^3"),
    (4, 1): P("7x+10x^2+x^3"),
    (4, 2): P("4x+9x^2+x^3"),
    (4, 3): P("2x+8x^2+x^3"),
    (4, 4): P("x+7x^2+x^3"),
}

# d_{n,1,j}(x) for n <= 4.
TABLE2 = {
    (1, 0): P("0"),
    (1, 1): P("x"),
    (2, 0): P("x"),
    (2, 1): P("x"),
    (2, 2): P("x+x^2"),
    (3, 0): P("3x+x^2"),
    (3, 1): P("2x+2x^2"),
    (3, 2): P("x+3x^2"),
    (3, 3): P("x+4x^2+x^3"),
    (4, 0): P("7x+10x^2+x^3"),
    (4, 1): P("4x+12x^2+2x^3"),
    (4, 2): P("2x+12x^2+4x^3"),
    (4, 3): P("x+10x^2+7x^3"),
    (4, 4): P("x+11x^2+11x^3+x^4"),
}

# d_{n,2,j}(x) for n <= 4.
TABLE3 = {
    (2, 0): P("x"),
    (2, 1): P("x"),
    (2, 2): P("x^2"),
    (3, 0): P("2x+x^2"),
    (3, 1): P("x+2x^2"),
    (3, 2): P("x+3x^2"),
    (3, 3): P("3x^2+x^3"),
    (4, 0): P("4x+9x^2+x^3"),
    (4, 1): P("2x+10x^2+2x^3"),
    (4, 2): P("x+9x^2+4x^3"),
    (4, 3): P("x+10x^2+7x^3"),
    (4, 4): P("7x^2+10x^3+x^4"),
}


class TestStats:
    def test_identity(self):
        s = stats((1, 2, 3, 4))
        assert (s.des, s.asc, s.exc) == (0, 3, 0)
        assert s.fix == frozenset({1, 2, 3, 4})

    def test_321(self):
        s = stats((3, 2, 1))
        assert (s.des, s.asc, s.exc) == (2, 0, 1)
        assert s.fix == frozenset({2})

    def test_excedance_sum_is_eulerian(self):
        acc = [0, 0, 0]
        for w in permutations((1, 2, 3)):
            acc[excedances(w)] += 1
        assert tuple(acc) == (1, 4, 1)

    def test_rejects_non_permutation(self):
        with pytest.raises(ValueError):
            stats((1, 1, 3))


class TestEulerian:
    @pytest.mark.parametrize(
        "n, expected",
        [(0, P("1")), (1, P("1")), (2, P("1+x")), (3, P("1+4x+x^2")), (4, P("1+11x+11x^2+x^3"))],
    )
    def test_small(self, n, expected):
        assert eulerian(n) == expected

    def test_enumeration_bound(self):
        with pytest.raises(ValueError):
            eulerian(11)

    @pytest.mark.parametrize("n", range(9))
    def test_agrees_with_excedance_route(self, n):
        # The library builds d_n00 by recurrences; the oracle counts descents.
        assert eulerian(n) == eulerian_via_descents(n)


class TestPnk:
    def test_pinned(self):
        assert p_nk(2, 1) == P("2x")
        assert p_nk(0, 0) == P("1")

    @pytest.mark.parametrize("n", range(1, 6))
    def test_endpoints(self, n):
        assert p_nk(n, 0) == eulerian(n)
        assert p_nk(n, n) == tuple([0] + list(eulerian(n)))

    @pytest.mark.parametrize("n", range(8))
    def test_descent_and_excedance_routes_agree(self, n):
        # The library reads d_n0k off the recurrence table; the oracle
        # counts descents over the n! tails after k+1.
        for k in range(n + 1):
            assert p_nk(n, k) == p_nk_via_tails(n, k)

    def test_range_guard(self):
        with pytest.raises(ValueError):
            p_nk(3, 4)


class TestDnk:
    @pytest.mark.parametrize("key", sorted(TABLE1))
    def test_table(self, key):
        n, k = key
        assert d_nk(n, k) == TABLE1[key]

    def test_range_guard(self):
        with pytest.raises(ValueError):
            d_nk(3, -1)
        with pytest.raises(ValueError):
            d_nk(3, 4)

    @pytest.mark.parametrize("n", range(6))
    def test_bad_point_route_agrees(self, n):
        for k in range(n + 1):
            assert d_nk_via_bad_points(n, k) == d_nk(n, k)

    def test_bad_point_pinned(self):
        assert d_nk_via_bad_points(3, 2) == P("2x+x^2")
        assert d_nk_via_bad_points(4, 4) == P("x+7x^2+x^3")


class TestDnkj:
    @pytest.mark.parametrize("key", sorted(TABLE2))
    def test_table_k1(self, key):
        n, j = key
        assert d_nkj(n, 1, j) == TABLE2[key]

    @pytest.mark.parametrize("key", sorted(TABLE3))
    def test_table_k2(self, key):
        n, j = key
        assert d_nkj(n, 2, j) == TABLE3[key]

    def test_conventions(self):
        assert d_nkj(0, 0, 0) == P("1")

    @pytest.mark.parametrize("n", range(5))
    def test_j0_specializes(self, n):
        for k in range(n + 1):
            assert d_nkj(n, k, 0) == d_nk(n, k)

    def test_rejects_out_of_range_indices(self):
        for bad in [(3, 4, 0), (3, 0, 4), (3, -1, 0), (3, 0, -1), (-1, 0, 0)]:
            with pytest.raises(ValueError):
                d_nkj(*bad)


class TestFoata:
    def test_pinned(self):
        assert foata((3, 2, 1)) == (2, 1, 3)

    def test_identity_maps_to_reversal(self):
        assert foata((1, 2, 3, 4)) == (4, 3, 2, 1)

    def test_bad_points_pinned(self):
        assert bad_points((2, 1, 3)) == frozenset({2})

    def test_bad_points_of_descending_word(self):
        assert bad_points((4, 3, 2, 1)) == frozenset({1, 2, 3, 4})

    @pytest.mark.parametrize("n", range(1, 7))
    def test_three_properties(self, n):
        for w in permutations(range(1, n + 1)):
            v = foata(w)
            assert excedances(w) == stats(v).asc
            assert fixed_points(w) == bad_points(v)
            assert w.index(1) + 1 == v[-1]

    @given(st.permutations(list(range(1, 8))))
    def test_bijection(self, wl):
        # Distinct cycle forms give distinct words; spot-check injectivity
        # via the inverse reading: split before each left-to-right minimum.
        w = tuple(wl)
        v = foata(w)
        assert sorted(v) == sorted(w)


class TestDerangements:
    @pytest.mark.parametrize(
        "n, expected",
        [(0, (1,)), (1, (0,)), (2, (0, 1)), (3, (0, 1, 1)), (4, (0, 1, 7, 1))],
    )
    def test_counts(self, n, expected):
        assert derangement_counts(n) == expected

    @pytest.mark.parametrize("n", range(6))
    def test_matches_derangement_polynomial(self, n):
        # d_{n,n} is the excedance enumerator over derangements; the
        # bad-point route counts it without the table both library reads share.
        assert normalize(derangement_counts(n)) == d_nk_via_bad_points(n, n)


class TestWords:
    def test_word_count(self):
        assert sum(1 for _ in words(3, 2)) == 4
        assert sum(1 for _ in words(4, 3)) == 27

    def test_first_letter_zero(self):
        assert all(w[0] == 0 for w in words(3, 3))

    def test_word_ascents(self):
        assert word_ascents((0, 1, 1)) == 1
        assert word_ascents((0, 0, 0)) == 0
        assert word_ascents((0, 2, 1)) == 1

    @pytest.mark.parametrize(
        "n, r, expected",
        [(3, 2, P("1+3x")), (2, 2, P("1+x")), (4, 1, P("1")), (1, 5, P("1"))],
    )
    def test_E_pinned(self, n, r, expected):
        assert E_nr(n, r) == expected

    @pytest.mark.parametrize("n", range(1, 7))
    def test_E_routes_agree(self, n):
        for r in range(1, 7):
            assert e_nr_words(n, r) == E_nr(n, r)

    @pytest.mark.parametrize("n", range(1, 11))
    def test_E_matches_power_section(self, n):
        for r in range(1, 11):
            assert E_nr(n, r) == veronese(power((1,) * r, n), r, 0)

    @pytest.mark.parametrize("n, r", [(3, 200), (2, 2000)])
    def test_E_matches_power_section_at_large_r(self, n, r):
        assert E_nr(n, r) == veronese(power((1,) * r, n), r, 0)

    def test_guards(self):
        with pytest.raises(ValueError):
            E_nr(0, 2)
        with pytest.raises(ValueError):
            E_nr(2, 0)

    @pytest.mark.parametrize("n, r", [(400, 400), (200, 200), (3000, 2),
                                      (2, 3 * 10**6), (1, 10**12)])
    def test_budget_refuses(self, n, r):
        with pytest.raises(ValueError, match="exceeds the budget"):
            E_nr(n, r)

    def test_budget_is_inclusive(self, monkeypatch):
        monkeypatch.setattr(perm_mod, "E_NR_BUDGET", 36)
        assert E_nr(3, 5) == veronese(power((1,) * 5, 3), 5, 0)
        with pytest.raises(ValueError, match="exceeds the budget"):
            E_nr(3, 6)

    def test_budget_keeps_the_largest_call(self):
        # ftriangle --kind esd:40320 --n 2, the largest E_nr the
        # package makes, answers.
        assert E_nr(2, 40320) == (1, 40319)


class TestRecurrenceTableAgainstSweep:
    """Every family the table serves, against the excedance sweep."""

    @pytest.mark.parametrize("n", range(9))
    def test_families_match_the_sweep(self, n):
        assert eulerian(n) == exc_poly(n, lambda maxfix, pos: True)
        counts = exc_poly(n, lambda maxfix, pos: maxfix == 0)
        assert derangement_counts(n) == counts + (0,) * (n - len(counts))
        for k in range(n + 1):
            assert d_nk(n, k) == exc_poly(n, lambda maxfix, pos: maxfix <= n - k)
            assert p_nk(n, k) == exc_poly(n + 1, lambda maxfix, pos: pos == k + 1)
            for j in range(n + 1):
                assert d_nkj(n, k, j) == exc_poly(
                    n + 1, lambda maxfix, pos: pos == j + 1 and maxfix <= n + 1 - k)


class TestEnumerationBoundParity:
    """The families enumerate nothing but answer and refuse exactly as
    the enumerations that computed them did."""

    S11 = "enumeration over S_11 exceeds the desk-scale bound 10"

    def refused(self, fn, *args):
        with pytest.raises(ValueError) as err:
            fn(*args)
        return str(err.value)

    def test_size_ten_answers(self):
        assert eulerian(10) == (1, 1013, 47840, 455192, 1310354,
                                1310354, 455192, 47840, 1013, 1)
        for k in range(11):
            # Permutations of [10] with no fixed point among the last k.
            want = sum((-1) ** i * comb(k, i) * factorial(10 - i)
                       for i in range(k + 1))
            assert sum(d_nk(10, k)) == want
        assert sum(d_nk(10, 0)) == factorial(10)
        counts = derangement_counts(10)
        assert len(counts) == 10 and sum(counts) == 1_334_961

    def test_past_the_bound_refuses(self):
        for k in (0, 5, 10):
            assert self.refused(p_nk, 10, k) == self.S11
            assert self.refused(d_nk, 11, k) == self.S11
            for j in (0, 10):
                assert self.refused(d_nkj, 10, k, j) == self.S11
        assert self.refused(eulerian, 11) == self.S11

    def test_range_is_checked_first(self):
        assert self.refused(d_nkj, 11, 12, 0) == (
            "need 0 <= k, j <= n, got n=11, k=12, j=0")
        assert self.refused(p_nk, 11, 12) == "need 0 <= k <= n, got k=12, n=11"
        assert self.refused(d_nk, 11, 12) == "need 0 <= k <= n, got k=12, n=11"
