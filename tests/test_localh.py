"""Local h-polynomials and their expansion over uniform subdivisions."""

import tracemalloc
from functools import lru_cache
from itertools import combinations
from math import comb

import pytest
from hypothesis import given, settings

from conftest import outcome, perturbed, refined_stellar
from subdiv import triangulate, verify
from subdiv.complexes import from_facets, full_simplex, h_polynomial
from subdiv.localh import (
    CoefficientMatrix,
    c_coefficients,
    ell_mk,
    ell_mkj,
    h_from_local,
    local_h,
    local_h_via_uniform,
    p_poly,
    second_sd_local_h,
)
from subdiv.perm import E_nr, d_nk, d_nkj, p_nk
from subdiv.poly import add, mul, neg, parse_poly, power, reverse, scale, shift, sub, veronese
from subdiv.triangulate import (
    Triangulation,
    barycentric,
    compose,
    edgewise,
    f_triangle,
    identity,
    iterated_sd,
    random_triangulation,
    restriction,
    stellar,
    trivial,
)

P = parse_poly


@lru_cache(maxsize=None)
def bary(n):
    return f_triangle("sd", n)


@lru_cache(maxsize=None)
def esd(n, r):
    return f_triangle(f"esd:{r}", n)


def sd3():
    return barycentric(trivial((1, 2, 3)))


def full_stellar(n):
    verts = tuple(range(1, n + 1))
    return stellar(trivial(verts), verts)


class TestLocalH:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_trivial_vanishes(self, n):
        assert local_h(trivial(range(1, n + 1))) == ()

    def test_empty_simplex(self):
        assert local_h(trivial(())) == (1,)

    def test_barycentric_triangle(self):
        assert local_h(sd3()) == P("x+x^2")

    def test_stellar_is_interior_ascending(self):
        assert local_h(full_stellar(4)) == P("x+x^2+x^3")

    def test_bisected_hexahedron_counterexample_value(self):
        T = edgewise(full_stellar(6), 2)
        assert local_h(T) == P("7x+42x^2+63x^3+42x^4+7x^5")

    def test_rejects_non_simplex_base(self):
        K = from_facets([(1, 2), (2, 3)])
        with pytest.raises(ValueError):
            local_h(identity(K))

    @pytest.mark.parametrize("seed", [3, 11, 19])
    def test_symmetric_and_nonnegative(self, seed):
        T = random_triangulation((1, 2, 3, 4), 4, seed=seed)
        ell = local_h(T)
        assert ell == reverse(ell, 4)
        assert all(c >= 0 for c in ell)


class TestHFromLocal:
    def test_barycentric_triangle(self):
        T = sd3()
        assert h_from_local(T) == P("1+4x+x^2") == h_polynomial(T.total, 3)

    def test_trivial(self):
        assert h_from_local(trivial((1, 2, 3))) == (1,)

    @pytest.mark.parametrize("seed", [0, 5])
    def test_round_trip_random(self, seed):
        T = random_triangulation((1, 2, 3, 4), 3, seed=seed)
        assert h_from_local(T) == h_polynomial(T.total, 4)

    def test_round_trip_edgewise(self):
        T = edgewise(full_stellar(6), 2)
        assert h_from_local(T) == h_polynomial(T.total, 6)

    # The restrictions summed over are validation's, so a triangulation
    # that validation rejects raises validation's own message.  An
    # off-base carrier is refused with it earlier, at construction.
    @pytest.mark.parametrize("fault, message", [
        ("recarried center", "restriction to (1, 2) is not a triangulation of it"),
        ("off-base carrier", "carrier of 7 is not a nonempty base face: (1, 4)"),
        ("dropped facet", "restriction to (1, 2) is not a triangulation of it"),
    ])
    def test_raises_validation_message(self, fault, message):
        T = sd3()  # center 7, facets (1, 4, 7), (1, 5, 7), ...
        carriers, facets = dict(T.vertex_carrier), T.total.facets
        if fault == "recarried center":
            carriers[7] = (1, 2)
        elif fault == "off-base carrier":
            carriers[7] = (1, 4)
        else:
            facets = [f for f in facets if f != (1, 4, 7)]
        if fault == "off-base carrier":
            with pytest.raises(ValueError) as built:
                Triangulation(T.base, from_facets(facets), carriers)
            assert str(built.value) == message
            return
        bad = Triangulation(T.base, from_facets(facets), carriers)
        with pytest.raises(ValueError) as validated:
            triangulate.validate_triangulation(bad)
        with pytest.raises(ValueError) as summed:
            h_from_local(bad)
        assert str(summed.value) == str(validated.value) == message


class TestCoefficients:
    def test_trivial_has_single_entry(self):
        c = c_coefficients(trivial((1, 2, 3, 4)))
        assert c.entries() == ((4, 0, 1),)
        assert c.rows[4][0] == 1 and c.rows[0][1] == 0

    def test_barycentric_triangle(self):
        c = c_coefficients(sd3())
        assert c.entries() == ((0, 1, 1), (0, 2, 1), (1, 1, 3), (3, 0, 1))

    def test_full_stellar(self):
        c = c_coefficients(full_stellar(4))
        assert c.entries() == ((0, 1, 1), (0, 2, 1), (0, 3, 1), (4, 0, 1))

    def test_shape_is_validated(self):
        with pytest.raises(ValueError):
            CoefficientMatrix(2, ((0, 1), (0,), (1,)))

    @pytest.mark.parametrize("seed", [2, 9])
    def test_corner_entry_and_nonnegativity(self, seed):
        T = random_triangulation((1, 2, 3), 3, seed=seed)
        c = c_coefficients(T)
        assert c.rows[3][0] == 1
        assert all(v >= 0 for _, _, v in c.entries())


class TestPPoly:
    def test_pinned_small_case(self):
        assert p_poly(bary(2), 2, 1) == P("2x")

    def test_k_zero_is_h(self):
        assert p_poly(bary(3), 3, 0) == P("1+4x+x^2")
        assert p_poly(esd(3, 2), 3, 0) == P("1+3x")

    def test_edgewise_top_case(self):
        assert p_poly(esd(3, 2), 3, 3) == P("3x^2+x^3")

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_matches_first_value_descent_count(self, n):
        for k in range(n + 1):
            assert p_poly(bary(n), n, k) == p_nk(n, k)

    @pytest.mark.parametrize("F", ["bary", "esd"])
    def test_recurrence(self, F):
        tri = bary(5) if F == "bary" else esd(5, 3)
        for m in range(1, 6):
            for k in range(1, m + 1):
                want = add(p_poly(tri, m, k - 1),
                           mul(P("-1+x"), p_poly(tri, m - 1, k - 1)))
                assert p_poly(tri, m, k) == want

    @pytest.mark.parametrize("F", ["bary", "esd"])
    def test_reciprocity(self, F):
        tri = bary(5) if F == "bary" else esd(4, 4)
        for m in range(tri.n + 1):
            for k in range(m + 1):
                assert reverse(p_poly(tri, m, k), m) == p_poly(tri, m, m - k)

    def test_expands_h_of_uniform_subdivision(self):
        # h of a subdivided complex is the h-vector of the base paired
        # with the p family of the subdivision's face counts
        K = from_facets([(1, 3, 4), (3, 4, 5), (2, 4, 5)])
        hK = h_polynomial(K, 3)
        for T, F in [
            (barycentric(identity(K)), bary(3)),
            (edgewise(identity(K), 2), esd(3, 2)),
        ]:
            want = ()
            for k, coeff in enumerate(hK):
                want = add(want, scale(p_poly(F, 3, k), coeff))
            assert h_polynomial(T.total, 3) == want

    def test_range_errors(self):
        with pytest.raises(ValueError):
            p_poly(bary(3), 2, 3)
        with pytest.raises(ValueError):
            p_poly(bary(3), 4, 0)


class TestEllMk:
    def test_k_zero_is_h(self):
        assert ell_mk(bary(4), 4, 0) == p_poly(bary(4), 4, 0)

    def test_pinned_table_values(self):
        assert ell_mk(bary(3), 3, 3) == P("x+x^2")
        assert ell_mk(bary(4), 4, 2) == P("4x+9x^2+x^3")

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_barycentric_gives_restricted_fixed_point_count(self, n):
        for k in range(n + 1):
            assert ell_mk(bary(n), n, k) == d_nk(n, k)

    @pytest.mark.parametrize("F", ["bary", "esd"])
    def test_nonnegative_expansion(self, F):
        # the alternating definition equals a positive combination of
        # top-k values in lower sizes, hence the nonnegativity
        tri = bary(5) if F == "bary" else esd(4, 2)
        for m in range(tri.n + 1):
            for k in range(m + 1):
                want = ()
                for i in range(m - k + 1):
                    want = add(want, scale(ell_mk(tri, m - i, m - i),
                                           comb(m - k, i)))
                assert ell_mk(tri, m, k) == want

    @pytest.mark.parametrize("m", [0, 1, 2, 3, 4, 5])
    def test_top_value_is_local_h_of_barycentric(self, m):
        built = local_h(barycentric(trivial(range(1, m + 1))))
        assert ell_mk(bary(5), m, m) == built

    @pytest.mark.parametrize("m,r", [(1, 2), (2, 2), (3, 2), (3, 3), (4, 3)])
    def test_top_value_is_local_h_of_edgewise(self, m, r):
        built = local_h(edgewise(trivial(range(1, m + 1)), r))
        assert ell_mk(esd(4, r), m, m) == built

    def test_range_errors(self):
        with pytest.raises(ValueError):
            ell_mk(bary(3), 3, 4)
        with pytest.raises(ValueError):
            ell_mk(bary(3), 5, 0)


class TestEllMkj:
    def test_j_zero_specializes(self):
        for m in range(5):
            for k in range(m + 1):
                assert ell_mkj(bary(4), m, k, 0) == ell_mk(bary(4), m, k)

    def test_k_zero_specializes(self):
        for m in range(5):
            for j in range(m + 1):
                assert ell_mkj(bary(4), m, 0, j) == p_poly(bary(4), m, j)

    def test_pinned_value(self):
        assert ell_mkj(bary(3), 3, 1, 2) == P("x+3x^2") == d_nkj(3, 1, 2)

    def test_out_of_range_is_an_error(self):
        with pytest.raises(ValueError):
            ell_mkj(bary(4), 4, 2, 4)
        with pytest.raises(ValueError):
            ell_mkj(bary(4), 4, 1, 4)
        with pytest.raises(ValueError):
            ell_mkj(bary(4), 4, -1, 0)
        assert outcome(ell_mkj, f_triangle("sd", 2), 3, 0, 0) == (
            "ValueError", "need 0 <= m <= 2, got m=3", None)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_barycentric_matches_position_refined_count(self, n):
        for k in range(n + 1):
            for j in range(n - k + 1):
                assert ell_mkj(bary(n), n, k, j) == d_nkj(n, k, j)

    @pytest.mark.parametrize("F", ["bary", "esd2", "esd4"])
    def test_nonnegative(self, F):
        tri = {"bary": bary(6), "esd2": esd(6, 2), "esd4": esd(5, 4)}[F]
        for m in range(tri.n + 1):
            for k in range(m + 1):
                for j in range(m - k + 1):
                    assert all(c >= 0 for c in ell_mkj(tri, m, k, j))

    @pytest.mark.parametrize("F", ["bary", "esd"])
    def test_reversal_swaps_j(self, F):
        tri = bary(5) if F == "bary" else esd(5, 2)
        for m in range(tri.n + 1):
            for k in range(m + 1):
                for j in range(m - k + 1):
                    assert (reverse(ell_mkj(tri, m, k, j), m)
                            == ell_mkj(tri, m, k, m - k - j))

    def test_recurrence_in_j(self):
        tri = esd(5, 3)
        for m in range(1, 6):
            for k in range(m + 1):
                for j in range(1, m - k + 1):
                    want = add(ell_mkj(tri, m, k, j - 1),
                               mul(P("-1+x"), ell_mkj(tri, m - 1, k, j - 1)))
                    assert ell_mkj(tri, m, k, j) == want

    def test_recurrence_in_k(self):
        tri = bary(5)
        for m in range(1, 6):
            for j in range(m + 1):
                for k in range(1, m - j + 1):
                    want = sub(ell_mkj(tri, m, k - 1, j),
                               ell_mkj(tri, m - 1, k - 1, j))
                    assert ell_mkj(tri, m, k, j) == want


class TestEdgewiseSections:
    """Closed forms of the three families for r-fold dilation counts."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("r", [1, 2, 3, 4, 5, 6])
    def test_p_is_section_of_shifted_power(self, n, r):
        ones = (1,) * r
        for k in range(n + 1):
            want = veronese(shift(power(ones, n), k), r, 0)
            assert p_poly(esd(n, r), n, k) == want

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("r", [1, 2, 3, 4, 6])
    def test_ell_families_are_sections(self, n, r):
        ones = (1,) * r
        positive = shift((1,) * (r - 1), 1) if r > 1 else ()
        for k in range(n + 1):
            base = mul(power(ones, n - k), power(positive, k))
            assert ell_mk(esd(n, r), n, k) == veronese(base, r, 0)
            for j in range(n - k + 1):
                want = veronese(shift(base, j), r, 0)
                assert ell_mkj(esd(n, r), n, k, j) == want

    def test_h_row_is_word_ascent_count(self):
        for n in range(1, 5):
            for r in range(1, 5):
                assert p_poly(esd(n, r), n, 0) == E_nr(n, r)


class TestViaUniform:
    def test_trivial_coefficients(self):
        c = c_coefficients(trivial((1, 2, 3, 4)))
        assert local_h_via_uniform(bary(4), c) == ell_mk(bary(4), 4, 4)

    def test_second_barycentric_of_triangle(self):
        got = local_h_via_uniform(bary(3), c_coefficients(sd3()))
        assert got == local_h(barycentric(sd3())) == P("13x+13x^2")

    def test_edgewise_of_barycentric(self):
        G = sd3()
        direct = local_h(compose(edgewise(identity(G.total), 2), G))
        assert local_h_via_uniform(esd(3, 2), c_coefficients(G)) == direct

    def test_counterexample_polynomial_via_expansion(self):
        c = c_coefficients(full_stellar(6))
        got = local_h_via_uniform(esd(6, 2), c)
        assert got == P("7x+42x^2+63x^3+42x^4+7x^5")

    @pytest.mark.parametrize("seed", [1, 6])
    def test_random_base_agreement(self, seed):
        G = random_triangulation((1, 2, 3, 4), 3, seed=seed)
        c = c_coefficients(G)
        assert local_h_via_uniform(bary(4), c) == local_h(barycentric(G))
        direct = local_h(compose(edgewise(identity(G.total), 2), G))
        assert local_h_via_uniform(esd(4, 2), c) == direct

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            local_h_via_uniform(bary(3), c_coefficients(trivial((1, 2, 3, 4))))


class TestSecondSd:
    def test_degenerate_sizes(self):
        assert second_sd_local_h(0) == (1,)
        assert second_sd_local_h(1) == ()
        assert outcome(second_sd_local_h, -1) == ("ValueError", "n must be nonnegative", None)

    def test_small_values(self):
        assert second_sd_local_h(2) == P("3x")
        assert second_sd_local_h(3) == P("13x+13x^2")
        assert second_sd_local_h(4) == P("75x+303x^2+75x^3")

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_agrees_with_direct_computation(self, n):
        assert second_sd_local_h(n) == local_h(iterated_sd(range(1, n + 1), 2))

    @pytest.mark.parametrize("n", [5, 6, 7])
    def test_symmetric_and_nonnegative(self, n):
        ell = second_sd_local_h(n)
        assert ell == reverse(ell, n)
        assert all(c >= 0 for c in ell)

    def test_counting_keeps_no_face_set(self):
        # The face table counts one size at a time; no set of every face
        # of the 576-facet total is built or kept.
        T = iterated_sd(range(1, 5), 2)
        assert local_h(T) == P("75x+303x^2+75x^3")
        assert T.total._face_set is None
        assert h_polynomial(T.total) == h_from_local(T)
        assert T.total._face_set is None


# Stanley's definitions read literally, one rebuilt restriction per base
# face: the slow, independent routes the face-table sums are checked on.

def restriction_local_h(T):
    verts = T.base.vertices
    if T.base != full_simplex(verts):
        raise ValueError("the base complex must be a full simplex")
    n = len(verts)
    acc = ()
    for size in range(n + 1):
        for f in combinations(verts, size):
            h = h_polynomial(restriction(T, f).total, size)
            acc = add(acc, h if (n - size) % 2 == 0 else neg(h))
    return acc


def restriction_c_coefficients(G):
    verts = G.base.vertices
    if G.base != full_simplex(verts):
        raise ValueError("the base complex must be a full simplex")
    n = len(verts)
    rows = []
    for k in range(n + 1):
        row = [0] * (n - k + 1)
        for f in combinations(verts, n - k):
            for j, coeff in enumerate(restriction_local_h(restriction(G, f))):
                row[j] += coeff
        rows.append(tuple(row))
    return CoefficientMatrix(n, tuple(rows))


class TestFaceTableRoutes:
    @settings(max_examples=60, deadline=None)
    @given(perturbed(refined_stellar()))
    def test_agrees_with_restriction_sums(self, T):
        assert outcome(local_h, T) == outcome(restriction_local_h, T)
        assert outcome(c_coefficients, T) == outcome(restriction_c_coefficients, T)

    @pytest.mark.parametrize("T", [
        edgewise(full_stellar(6), 2),
        trivial(()),
        Triangulation(full_simplex(()), from_facets([]), {}),
        identity(from_facets([(1, 2), (2, 3)])),
    ], ids=["esd-counterexample", "trivial-empty", "void-0", "non-simplex"])
    def test_fixed_cases(self, T):
        assert outcome(local_h, T) == outcome(restriction_local_h, T)
        assert outcome(c_coefficients, T) == outcome(restriction_c_coefficients, T)

    def test_oversized_face_error_matches(self):
        T = barycentric(trivial((1, 2, 3)))
        wrong = dict(T.vertex_carrier)
        wrong[max(wrong)] = (1, 2)
        broken = Triangulation(T.base, T.total, wrong)
        expected = ("ValueError", "complex of dimension 2 needs n >= 3", None)
        assert outcome(restriction_local_h, broken) == expected
        assert outcome(local_h, broken) == expected
        assert outcome(c_coefficients, broken) == expected


def _traced_peak(fn, *args) -> int:
    """Peak bytes that tracemalloc sees while ``fn(*args)`` runs."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestFaceTablePeakMemory:
    def test_local_h_peaks_near_one_face_set(self):
        # The walked faces and the projection they come from are freed
        # before any set of all k-faces is built (1.08 here); keeping each
        # size's walked set alive raised the ratio to 1.23.
        S = iterated_sd(range(1, 6), 2)
        assert S.total.vertices  # memoized before either measurement
        largest = max(_traced_peak(S.total.faces_of_size, k)
                      for k in range(S.total.dimension() + 2))
        T = Triangulation(S.base, S.total, S.vertex_carrier)  # a cold table
        assert _traced_peak(local_h, T) <= 1.12 * largest


class TestRoundTripStaysIndependent:
    @pytest.mark.parametrize("n", [0, 2, 4])
    def test_h_from_local_builds_every_restriction(self, monkeypatch, n):
        built = []

        def counting(T, F):
            built.append(F)
            return restriction(T, F)

        monkeypatch.setattr(triangulate, "restriction", counting)
        h_from_local(random_triangulation(tuple(range(1, n + 1)), 3, seed=7))
        assert len(built) == 2 ** n

    # _structural's round trip sums local h over the restrictions that
    # validate_triangulation built, so a fault is planted there.
    def test_structural_sees_a_dropped_face(self, monkeypatch):
        # The restriction to the whole triangle loses the barycenter, its
        # carrier and every face through it; no other restriction changes.
        # What is left is the boundary cycle, which validation rejects.
        T = barycentric(trivial((1, 2, 3)))
        center = max(T.total.vertices)

        def dropping(T, F):
            R = restriction(T, F)
            if center not in R.total.vertices:
                return R
            facets = [tuple(v for v in h if v != center) for h in R.total.facets]
            carriers = {v: c for v, c in R.vertex_carrier.items() if v != center}
            return Triangulation(R.base, from_facets(facets), carriers)

        problems = []
        assert verify._structural(T, 3, problems) == P("x+x^2")
        assert problems == []
        monkeypatch.setattr(triangulate, "restriction", dropping)
        verify._structural(T, 3, problems)
        assert problems == [
            "structure: restriction to (1, 2, 3) is not a triangulation of it"]

    def test_structural_sees_a_wrong_restriction(self, monkeypatch):
        # Starring an interior edge of the top restriction keeps it a pure
        # triangulation of the triangle, so it passes validation, but its
        # local h is no longer T's; only the round trip can notice.
        T = barycentric(trivial((1, 2, 3)))
        center = max(T.total.vertices)

        def starring(T, F):
            R = restriction(T, F)
            if center not in R.total.vertices:
                return R
            return stellar(R, (1, center))

        monkeypatch.setattr(triangulate, "restriction", starring)
        assert local_h(starring(T, (1, 2, 3))) != local_h(T)
        problems = []
        assert verify._structural(T, 3, problems) == P("x+x^2")
        assert problems == ["restriction sum does not give back the h-polynomial"]
