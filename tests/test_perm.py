"""Permutation statistics, the d/p polynomial families, Foata, and words.

The TABLE_* dicts below are the trusted transcription of the reference
tables for n <= 4. They were written down before the module existed and
double as the oracle for the CLI golden files.
"""

from dataclasses import dataclass
from itertools import permutations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subdiv.perm import (
    E_nr,
    _check_enum,
    _check_perm,
    _counts_to_poly,
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
from subdiv.poly import parse_poly

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
        # The library reads excedances off the sweep; the oracle counts descents.
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
        # The library counts descents; d_nkj(n, 0, k) reads excedances
        # with 1 in position k+1 off the sweep of S_{n+1}.
        for k in range(n + 1):
            assert p_nk(n, k) == d_nkj(n, 0, k)

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
        # bad-point route counts it without the sweep both library reads share.
        counts = derangement_counts(n)
        from subdiv.poly import normalize

        assert normalize(counts) == d_nk_via_bad_points(n, n)


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

    def test_guards(self):
        with pytest.raises(ValueError):
            E_nr(0, 2)
        with pytest.raises(ValueError):
            E_nr(2, 0)
