"""Triangulations with carriers: constructions and their invariants."""

import itertools
import json
import math

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import outcome, perturbed, refined_stellar
from subdiv import triangulate as triangulate_mod
from subdiv.complexes import (
    SchemaError,
    SimplicialComplex,
    complex_to_json,
    from_facets,
    full_simplex,
    h_polynomial,
)
from subdiv.poly import parse_poly
from subdiv.triangulate import (
    FACETS_CAP,
    FTriangle,
    NotUniformError,
    Triangulation,
    _refined_facets,
    barycentric,
    carrier,
    check_refinement,
    check_simplex,
    compose,
    edgewise,
    f_triangle,
    f_triangle_of,
    face_table,
    identity,
    iterated_sd,
    parse_kind,
    random_triangulation,
    reference,
    refine,
    restriction,
    stellar,
    triangulation_from_json,
    triangulation_to_json,
    trivial,
    validate_triangulation,
)

P = parse_poly


def sd3() -> Triangulation:
    return barycentric(trivial((1, 2, 3)))


def find_vertex(T: Triangulation, want) -> int:
    matches = [v for v, c in T.vertex_carrier.items() if c == tuple(want)]
    assert len(matches) == 1, f"carrier {want} matched {matches}"
    return matches[0]


class TestTrivial:
    def test_total_is_base(self):
        T = trivial((1, 2, 3))
        assert T.total == T.base == full_simplex((1, 2, 3))
        assert T.vertex_carrier == {1: (1,), 2: (2,), 3: (3,)}

    def test_empty_vertex_set(self):
        T = trivial(())
        assert T.total.f_vector() == (1,)

    def test_identity_of_arbitrary_complex(self):
        K = from_facets([(1, 3, 4), (3, 4, 5), (2, 4, 5)])
        T = identity(K)
        assert T.total == T.base == K
        validate_triangulation(T)


class TestCarrier:
    def test_base_vertex(self):
        T = sd3()
        v = find_vertex(T, (2,))
        assert carrier(T, (v,)) == (2,)

    def test_chain_face(self):
        T = sd3()
        chain = (find_vertex(T, (1,)), find_vertex(T, (1, 2)), find_vertex(T, (1, 2, 3)))
        assert tuple(sorted(chain)) in T.total
        assert carrier(T, chain) == (1, 2, 3)

    def test_edgewise_midpoint(self):
        T = edgewise(trivial((1, 2)), 2)
        assert find_vertex(T, (1, 2)) is not None

    def test_empty_face(self):
        assert carrier(sd3(), ()) == ()

    def test_rejects_non_face(self):
        with pytest.raises(ValueError):
            carrier(sd3(), (1, 2, 3, 4, 5, 6, 7))


class TestRestriction:
    def test_edge_of_sd(self):
        R = restriction(sd3(), (1, 2))
        assert R.base == full_simplex((1, 2))
        assert R.total.f_vector() == (1, 3, 2)
        validate_triangulation(R)

    def test_empty_face(self):
        R = restriction(sd3(), ())
        assert R.total.f_vector() == (1,)
        assert h_polynomial(R.total, 0) == (1,)

    def test_trivial_restricts_to_trivial(self):
        T = trivial((1, 2, 3, 4))
        assert restriction(T, (2, 4)) == trivial((2, 4))

    def test_rejects_non_base_face(self):
        with pytest.raises(ValueError):
            restriction(sd3(), (1, 9))

    def test_composition_of_restrictions(self):
        T = sd3()
        assert restriction(restriction(T, (1, 2)), (2,)) == restriction(T, (2,))

    def test_to_the_empty_face_keeps_the_empty_face(self):
        R = restriction(sd3(), ())
        assert R.total.facets == ((),)
        assert R.base.facets == ((),)
        assert R.vertex_carrier == {}

    def test_base_vertex_whose_vertex_was_dropped(self):
        # No vertex is kept, yet the total has facets: the empty complex.
        T = sd3()
        carriers = dict(T.vertex_carrier)
        del carriers[find_vertex(T, (2,))]
        R = restriction(Triangulation(T.base, T.total, carriers), (2,))
        assert R.total.facets == ((),)
        assert R.vertex_carrier == {}

    def test_void_total_stays_void(self):
        T = Triangulation(full_simplex((1, 2)), from_facets([]), {})
        for F in [(), (1,), (1, 2)]:
            assert restriction(T, F).total.is_void


class TestTopFaceReuse:
    """The restriction to a face carrying every total vertex is ``T.total``
    itself; any vertex left out forces the projection."""

    @pytest.mark.parametrize("T", [
        barycentric(trivial((1, 2, 3, 4))),
        edgewise(stellar(trivial((1, 2, 3)), (1, 2, 3)), 3),
    ], ids=["sd", "esd"])
    def test_whole_simplex_reuses_the_total(self, T):
        R = restriction(T, T.base.vertices)
        assert R.total is T.total
        assert R.vertex_carrier == T.vertex_carrier
        assert R.base == T.base

    def test_vertex_without_carrier_is_projected_away(self):
        T = sd3()
        center = find_vertex(T, (1, 2, 3))
        carriers = {v: c for v, c in T.vertex_carrier.items() if v != center}
        R = restriction(Triangulation(T.base, T.total, carriers), (1, 2, 3))
        assert R.total is not T.total
        assert R.total == from_facets(
            [tuple(v for v in h if v != center) for h in T.total.facets])
        assert center not in R.total.labels

    def test_carrier_outside_the_face_is_projected_away(self):
        T = sd3()
        center = find_vertex(T, (1, 2, 3))
        carriers = dict(T.vertex_carrier)
        carriers[center] = (9,)
        R = restriction(Triangulation(T.base, T.total, carriers), (1, 2, 3))
        assert R.total is not T.total
        assert center not in R.total.vertices

    def test_no_carriers_at_all(self):
        # Every carrier lies inside F vacuously, yet no vertex is kept.
        T = Triangulation(full_simplex((1, 2, 3)), full_simplex((1, 2, 3)), {})
        R = restriction(T, (1, 2, 3))
        assert R.total is not T.total
        assert R.total.facets == ((),)
        assert R.vertex_carrier == {}

    def test_extra_carrier_key_is_dropped(self):
        T = sd3()
        carriers = {**T.vertex_carrier, 99: (1,)}
        R = restriction(Triangulation(T.base, T.total, carriers), (1, 2, 3))
        assert R.total is T.total
        assert R.vertex_carrier == T.vertex_carrier


def loop_face_table(T: Triangulation) -> dict:
    """Oracle for :func:`face_table`: one pass over the faces of
    ``T.total``, each face's carrier mask ORed vertex by vertex."""
    bit = {v: 1 << i for i, v in enumerate(T.base.vertices)}
    vertex_mask = {v: sum(bit[u] for u in set(c))
                   for v, c in T.vertex_carrier.items() if all(u in bit for u in c)}
    table = {}
    for g in T.total.faces():
        if all(v in vertex_mask for v in g):
            mask = 0
            for v in g:
                mask |= vertex_mask[v]
            table[mask, len(g)] = table.get((mask, len(g)), 0) + 1
    return table


def _recarried(T: Triangulation, **edits) -> Triangulation:
    """``T`` with the carrier of its top-carried vertex edited: ``drop``
    removes it, ``to=c`` moves it to ``c``; ``none`` clears every carrier."""
    if edits.get("none"):
        return Triangulation(T.base, T.total, {})
    center = next(v for v, c in T.vertex_carrier.items() if c == T.base.vertices)
    carriers = dict(T.vertex_carrier)
    if edits.get("drop"):
        del carriers[center]
    else:
        carriers[center] = edits["to"]
    return Triangulation(T.base, T.total, carriers)


_SD4 = barycentric(trivial((1, 2, 3, 4)))
_ESD = edgewise(stellar(trivial((1, 2, 3)), (1, 2, 3)), 3)
_STELLAR = random_triangulation((1, 2, 3, 4), 4, seed=3)


class TestTopRestrictionIsT:
    """The restriction to the only base facet, keeping every vertex under
    exactly its carriers, is ``T`` itself; anything else builds anew."""

    @pytest.mark.parametrize("T", [_SD4, _ESD], ids=["sd", "esd"])
    def test_whole_simplex(self, T):
        assert restriction(T, T.base.vertices) is T
        assert restriction(T, list(reversed(T.base.vertices))) is T

    def test_through_validation(self):
        T = barycentric(trivial((1, 2, 3)))
        assert validate_triangulation(T)[(1, 2, 3)] is T

    def test_base_with_several_facets(self):
        inner = barycentric(trivial((1, 2, 3)))
        T = Triangulation(from_facets([(1, 2, 3), (3, 4)]), inner.total,
                          inner.vertex_carrier)
        R = restriction(T, (1, 2, 3))
        assert R is not T
        assert R.total is T.total
        assert R.base == full_simplex((1, 2, 3))
        assert R.vertex_carrier == T.vertex_carrier

    def test_extra_carrier_key(self):
        T = sd3()
        carriers = {**T.vertex_carrier, 99: (1,)}
        R = restriction(Triangulation(T.base, T.total, carriers), (1, 2, 3))
        assert R is not T
        assert R.total is T.total
        assert R.vertex_carrier == T.vertex_carrier

    @pytest.mark.parametrize("edits", [{"drop": True}, {"to": (9,)}],
                             ids=["no-carrier", "leaves-face"])
    def test_dropped_vertex(self, edits):
        T = _recarried(sd3(), **edits)
        R = restriction(T, (1, 2, 3))
        assert R is not T
        assert R.total is not T.total

    def test_a_proper_face(self):
        T = sd3()
        assert restriction(T, (1, 2)) is not T


class TestBarycentric:
    def test_edge(self):
        T = barycentric(trivial((1, 2)))
        assert T.total.f_vector() == (1, 3, 2)
        assert T.base == full_simplex((1, 2))

    def test_triangle_h(self):
        assert h_polynomial(sd3().total) == P("1+4x+x^2")

    def test_facet_count_formula(self):
        K = from_facets([(1, 3, 4), (3, 4, 5), (2, 4, 5)])
        T = barycentric(identity(K))
        assert len(T.total.facets) == sum(
            math.factorial(len(f)) for f in K.facets
        )

    def test_carriers_compose_through(self):
        # subdividing a subdivision carries back to the original base
        T = barycentric(sd3())
        assert T.base == full_simplex((1, 2, 3))
        validate_triangulation(T)

    def test_agrees_with_explicit_composition(self):
        G = stellar(trivial((1, 2, 3)), (1, 2, 3))
        assert compose(barycentric(identity(G.total)), G) == barycentric(G)

    def test_flagness(self):
        from subdiv.complexes import is_flag

        assert is_flag(sd3().total)
        assert is_flag(barycentric(trivial((1, 2, 3, 4))).total)


def permutation_barycentric(T: Triangulation) -> Triangulation:
    """Oracle for :func:`barycentric`: every prefix of every permutation
    of every facet, sorted and looked up as a face."""
    old_faces = [g for g in T.total.faces() if g]
    vertex_of = {g: i for i, g in enumerate(old_faces, start=1)}
    facets = [tuple(vertex_of[tuple(sorted(order[:k]))] for k in range(1, len(h) + 1))
              for h in T.total.facets for order in itertools.permutations(h)]
    labels = {i: "barycenter of {%s}" % ",".join(map(str, g))
              for g, i in vertex_of.items()}
    carriers = {vertex_of[g]: carrier(T, g) for g in old_faces}
    return Triangulation(T.base, from_facets(facets, labels), carriers)


class TestFlagPattern:
    """Prefix masks of one pattern per facet size, against sorting every
    prefix of every permutation."""

    @pytest.mark.parametrize("T", [
        sd3(),
        identity(from_facets([(1, 2, 3), (3, 4), (5,)])),
        edgewise(trivial((1, 2, 3)), 3),
        identity(from_facets([()])),
        identity(from_facets([])),
    ], ids=["sd3", "non-pure", "edgewise", "empty", "void"])
    def test_matches_permutations(self, T):
        assert _wire_bytes(barycentric(T)) == _wire_bytes(permutation_barycentric(T))

    @settings(max_examples=30, deadline=None)
    @given(refined_stellar())
    def test_matches_permutations_on_drawn(self, T):
        assert _wire_bytes(barycentric(T)) == _wire_bytes(permutation_barycentric(T))


class TestEdgewise:
    def test_bisected_edge(self):
        T = edgewise(trivial((1, 2)), 2)
        assert T.total.f_vector() == (1, 3, 2)

    def test_edge_in_three(self):
        T = edgewise(trivial((1, 2)), 3)
        assert T.total.f_vector() == (1, 4, 3)

    def test_triangle_h_matches_word_count(self):
        T = edgewise(trivial((1, 2, 3)), 2)
        assert h_polynomial(T.total) == P("1+3x")

    @pytest.mark.parametrize("n,r", [(2, 2), (2, 3), (3, 2), (3, 3), (4, 2)])
    def test_facet_count(self, n, r):
        T = edgewise(trivial(range(1, n + 1)), r)
        assert len(T.total.facets) == r ** (n - 1)
        validate_triangulation(T)

    def test_r_one_is_identity(self):
        T = edgewise(trivial((1, 2, 3)), 1)
        assert T.total.f_vector() == (1, 3, 3, 1)

    def test_applies_to_subdivided_complex(self):
        T = edgewise(stellar(trivial((1, 2, 3)), (1, 2, 3)), 2)
        assert T.base == full_simplex((1, 2, 3))
        assert len(T.total.facets) == 3 * 4
        validate_triangulation(T)


def chain_walk_edgewise(T: Triangulation, r: int) -> Triangulation:
    """Oracle for :func:`edgewise`: every facet walks its own chains,
    and the points are numbered in sorted order."""
    local_facets = []
    for h in T.total.facets:
        m = len(h)
        if m == 0:
            local_facets.append(())
            continue
        for chain in walk_chains(m, r):
            local_facets.append(tuple(tuple((h[i], w) for i, w in _local_point(t))
                                      for t in chain))
    points = sorted({p for f in local_facets for p in f})
    point_ids = {p: i for i, p in enumerate(points, start=1)}
    facets = [tuple(sorted(point_ids[p] for p in f)) for f in local_facets]
    labels = {i: " ".join(f"{v}^{c}" for v, c in p) for p, i in point_ids.items()}
    carriers = {point_ids[p]: carrier(T, [v for v, _ in p]) for p in point_ids}
    return Triangulation(T.base, from_facets(facets, labels), carriers)


def walk_chains(m: int, r: int):
    """Maximal chains of the r-fold dilation of an (m-1)-simplex, by
    depth-first search.

    A point is encoded by its partial-sum vector ``t`` with the last
    entry pinned to r.  Chains grow by bumping one free position at a
    time, legal while the vector stays nondecreasing.
    """
    for start in itertools.combinations_with_replacement(range(r + 1), m - 1):
        stack = [(start + (r,), frozenset(range(m - 1)), (start + (r,),))]
        while stack:
            t, free, chain = stack.pop()
            if not free:
                yield chain
                continue
            for j in free:
                if t[j] < t[j + 1]:
                    bumped = t[:j] + (t[j] + 1,) + t[j + 1:]
                    stack.append((bumped, free - {j}, chain + (bumped,)))


def _local_point(t) -> tuple:
    """The (position, weight) pairs of a partial-sum vector ``t``."""
    return tuple((i, t[i] - (t[i - 1] if i else 0))
                 for i in range(len(t)) if t[i] > (t[i - 1] if i else 0))


def _wire_bytes(T: Triangulation) -> tuple:
    """The JSON bytes, plus the insertion order of labels and carriers."""
    return (json.dumps(triangulation_to_json(T)),
            list(T.total.labels.items()), list(T.vertex_carrier.items()))


class TestEdgewisePattern:
    """One chain pattern per facet size, read off its words, against
    walking every facet's chains."""

    @pytest.mark.parametrize("m,r", itertools.product(range(1, 7), range(1, 7)))
    def test_chains_sorted_by_point(self, m, r):
        points, chains = triangulate_mod._edgewise_pattern(m, r)
        assert points == sorted(set(points))
        assert len(points) == math.comb(m + r - 1, m - 1)
        assert all(list(c) == sorted(c) for c in chains)
        assert len(chains) == len(set(chains)) == r ** (m - 1)
        index = {p: i for i, p in enumerate(points)}
        walked = {tuple(sorted(index[_local_point(t)] for t in chain))
                  for chain in walk_chains(m, r)}
        assert set(chains) == walked

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 5), st.integers(0, 3), st.integers(0, 10**6),
           st.integers(1, 4))
    def test_stellar_bases(self, n, steps, seed, r):
        G = random_triangulation(tuple(range(1, n + 1)), steps, seed=seed)
        assert _wire_bytes(edgewise(G, r)) == _wire_bytes(chain_walk_edgewise(G, r))

    def test_counterexample(self):
        G = stellar(trivial(range(1, 7)), range(1, 7))
        assert _wire_bytes(edgewise(G, 2)) == _wire_bytes(chain_walk_edgewise(G, 2))

    def test_mixed_facet_sizes(self):
        G = identity(from_facets([(1, 2, 3), (3, 4), (5,)]))
        assert _wire_bytes(edgewise(G, 3)) == _wire_bytes(chain_walk_edgewise(G, 3))

    @pytest.mark.slow
    @pytest.mark.parametrize("r", [5, 6])
    def test_heavy_shape(self, r):
        # The heaviest thm-esd cases: n = 4 after 6 stellar steps.
        G = random_triangulation((1, 2, 3, 4), 6, seed=6893396)
        T = edgewise(G, r)
        assert _wire_bytes(T) == _wire_bytes(chain_walk_edgewise(G, r))
        assert len(T.total.facets) == len(G.total.facets) * r ** 3
        assert face_table(T) == loop_face_table(T)
        assert (_restriction_parts(triangulate_mod._restrictions(T))
                == _restriction_parts({f: restriction(T, f) for f in T.base.faces()}))


class TestStellar:
    def test_cone_over_boundary(self):
        T = stellar(trivial((1, 2, 3)), (1, 2, 3))
        assert len(T.total.facets) == 3
        assert h_polynomial(T.total) == P("1+x+x^2")
        validate_triangulation(T)

    def test_vertex_cannot_be_starred(self):
        with pytest.raises(ValueError, match="at least two"):
            stellar(trivial((1, 2, 3)), (2,))

    def test_edge_bisection(self):
        T = stellar(trivial((1, 2)), (1, 2))
        assert T.total.f_vector() == (1, 3, 2)

    def test_interior_edge_split(self):
        # splitting one edge of the triangle leaves the rest alone
        T = stellar(trivial((1, 2, 3)), (1, 2))
        assert T.total.f_vector() == (1, 4, 5, 2)
        validate_triangulation(T)

    def test_rejects_missing_face(self):
        with pytest.raises(ValueError):
            stellar(trivial((1, 2)), (1, 3))

    def test_rejects_empty_face(self):
        with pytest.raises(ValueError):
            stellar(trivial((1, 2)), ())

    def test_new_vertex_carrier(self):
        T = stellar(trivial((1, 2, 3)), (2, 3))
        fresh = [v for v in T.total.vertices if v not in (1, 2, 3)]
        assert len(fresh) == 1
        assert T.vertex_carrier[fresh[0]] == (2, 3)


class TestCompose:
    def test_base_total_mismatch(self):
        with pytest.raises(ValueError):
            compose(sd3(), sd3())

    def test_identity_neutral(self):
        T = sd3()
        assert compose(T, trivial((1, 2, 3))) == T
        assert compose(identity(T.total), T) == T

    def test_iterated_sd_facets(self):
        assert len(iterated_sd((1, 2, 3), 2).total.facets) == 36

    def test_iterated_sd_edge(self):
        T = iterated_sd((1, 2), 2)
        assert T.total.f_vector() == (1, 5, 4)
        assert T.base == full_simplex((1, 2))

    @pytest.mark.parametrize("vertices", [(), (1,)])
    def test_iterated_sd_of_a_point_takes_one_step(self, monkeypatch, vertices):
        # sd of a point or of the empty simplex is itself, so a huge k
        # builds what k = 1 builds, in one step.
        once = iterated_sd(vertices, 1)
        steps = []

        def counted(T):
            steps.append(T)
            assert len(steps) == 1, "a second step on a point"
            return barycentric(T)

        monkeypatch.setattr(triangulate_mod, "barycentric", counted)
        T = iterated_sd(vertices, 10**9)
        assert triangulation_to_json(T) == triangulation_to_json(once)
        assert T.total.labels == once.total.labels
        assert T.vertex_carrier == once.vertex_carrier


class TestRandom:
    def test_zero_steps(self):
        assert random_triangulation((1, 2, 3), 0, seed=7) == trivial((1, 2, 3))

    def test_step_cap(self):
        assert len(random_triangulation((1, 2), 64, seed=7).total.facets) == 65
        with pytest.raises(ValueError, match=r"^random refinement is limited "
                                             r"to 64 steps$"):
            random_triangulation((1, 2), 65, seed=7)

    def test_reproducible(self):
        a = random_triangulation((1, 2, 3, 4), 5, seed=123)
        b = random_triangulation((1, 2, 3, 4), 5, seed=123)
        assert a == b

    def test_seed_matters(self):
        a = random_triangulation((1, 2, 3, 4), 4, seed=1)
        b = random_triangulation((1, 2, 3, 4), 4, seed=2)
        assert a != b

    @pytest.mark.parametrize("seed", [0, 1, 17])
    def test_growth_and_validity(self, seed):
        prev = 1
        for steps in range(4):
            T = random_triangulation((1, 2, 3), steps, seed=seed)
            validate_triangulation(T)
            assert len(T.total.facets) >= prev
            prev = len(T.total.facets)


class TestFTriangle:
    def test_trivial_is_binomial(self):
        F = f_triangle("esd:1", 4)  # esd:1 refines nothing
        for j in range(5):
            for i in range(j + 1):
                assert F.rows[j][i] == math.comb(j, i)

    def test_barycentric_row(self):
        F = f_triangle("sd", 3)
        assert (F.rows[3][1], F.rows[3][2], F.rows[3][3]) == (7, 12, 6)
        assert F.rows[2][1] == 3 and F.rows[2][2] == 2

    def test_edgewise_rows(self):
        F = f_triangle("esd:3", 3)
        assert F.rows[2][1] == 4 and F.rows[2][2] == 3
        assert F.rows[3][3] == 9

    def test_of_barycentric_matches(self):
        assert f_triangle_of(sd3()) == f_triangle("sd", 3)

    def test_of_edgewise_matches(self):
        T = edgewise(trivial((1, 2, 3, 4)), 2)
        assert f_triangle_of(T) == f_triangle("esd:2", 4)

    def test_stellar_apex_is_uniform(self):
        # one top face, identical edges: vacuously uniform per dimension
        F = f_triangle_of(stellar(trivial((1, 2, 3)), (1, 2, 3)))
        assert F.rows[3][1] == 4 and F.rows[3][3] == 3

    def test_not_uniform_witness(self):
        T = stellar(trivial((1, 2, 3)), (1, 2))
        with pytest.raises(NotUniformError) as err:
            f_triangle_of(T)
        a, b = err.value.witness
        assert len(a) == len(b) == 2

    def test_invariants_enforced(self):
        with pytest.raises(ValueError):
            FTriangle(1, ((1,), (2, 1)))  # f(0,1) must be 1
        with pytest.raises(ValueError):
            FTriangle(1, ((1,), (1, 0)))  # f(1,1) must be >= 1

    def test_restriction_keeps_triangle(self):
        T = edgewise(trivial((1, 2, 3, 4)), 3)
        R = restriction(T, (1, 3, 4))
        assert f_triangle_of(R) == f_triangle("esd:3", 3)

    def test_old_kind_names_are_gone(self):
        for kind in ("barycentric", "trivial"):
            with pytest.raises(ValueError, match=f"unknown subdivision kind '{kind}'"):
                f_triangle(kind, 3)


def built_f_triangle(kind, n):
    """The oracle for ``f_triangle``: count the faces of the refined
    simplex, or of the unrefined one for ``trivial``."""
    base = trivial(range(1, n + 1))
    return f_triangle_of(base if kind == "trivial" else refine(base, kind))


def read_f_triangle(kind, n):
    """``f_triangle`` for the oracle's kind; esd:1 is the unrefined simplex."""
    return f_triangle("esd:1" if kind == "trivial" else kind, n)


class TestFTriangleAgainstBuilt:
    """``f_triangle`` reads each row off an h-polynomial; the face counts
    of the built subdivision are its oracle, and those of the unrefined
    simplex are a second oracle for esd:1."""

    @pytest.mark.parametrize("kind, n", [
        *((kind, n) for kind in ("trivial", "sd", "esd:1", "esd:2", "esd:3",
                                 "esd:4") for n in range(7)),
        ("sd", 7),
        # The largest esd:R that ftriangle accepts at n = 2 and n = 3.
        pytest.param("esd:40320", 2, marks=pytest.mark.slow),
        pytest.param("esd:200", 3, marks=pytest.mark.slow),
    ])
    def test_agrees_with_built(self, kind, n):
        assert read_f_triangle(kind, n) == built_f_triangle(kind, n)

    @pytest.mark.parametrize("kind", ["trivial", "sd", "esd:3"])
    def test_builds_nothing(self, monkeypatch, kind):
        want = built_f_triangle(kind, 5)

        def refuse(*args, **kwargs):
            raise AssertionError("f_triangle built a subdivision")

        for name in ("trivial", "barycentric", "edgewise", "refine", "f_triangle_of"):
            monkeypatch.setattr(triangulate_mod, name, refuse)
        assert read_f_triangle(kind, 5) == want


class TestReference:
    """``reference`` builds nothing; h of the built refined simplex is
    its oracle."""

    @pytest.mark.parametrize("kind", ["sd", "esd:1", "esd:2", "esd:3"])
    @pytest.mark.parametrize("n", range(1, 6))
    def test_is_h_of_the_refined_simplex(self, kind, n):
        T = refine(trivial(range(1, n + 1)), kind)
        assert reference(kind, n) == h_polynomial(T.total, n)

    @pytest.mark.parametrize("kind", ["sd", "esd:1", "esd:5"])
    def test_is_one_at_n_zero(self, kind):
        assert reference(kind, 0) == (1,)

    @pytest.mark.parametrize("kind", ["trivial", "esd:0", "foo"])
    def test_reads_kinds_like_refine(self, kind):
        with pytest.raises(ValueError) as want:
            parse_kind(kind)
        with pytest.raises(ValueError) as got:
            reference(kind, 3)
        assert str(got.value) == str(want.value)


class TestKinds:
    @pytest.mark.parametrize("kind, r", [
        ("sd", None), ("esd:1", 1), ("esd:2", 2), ("esd:03", 3), ("esd:12", 12),
    ])
    def test_accepted(self, kind, r):
        assert parse_kind(kind) == r

    @pytest.mark.parametrize("kind, message", [
        ("esd:x", "bad edgewise parameter in 'esd:x'"),
        ("esd:", "bad edgewise parameter in 'esd:'"),
        ("esd:2.5", "bad edgewise parameter in 'esd:2.5'"),
        ("esd:0", "edgewise parameter must be at least 1"),
        ("esd:-2", "edgewise parameter must be at least 1"),
        ("fold", "unknown subdivision kind 'fold' (use sd or esd:R)"),
        ("trivial", "unknown subdivision kind 'trivial' (use sd or esd:R)"),
        ("barycentric", "unknown subdivision kind 'barycentric' (use sd or esd:R)"),
        ("esd", "unknown subdivision kind 'esd' (use sd or esd:R)"),
        ("SD", "unknown subdivision kind 'SD' (use sd or esd:R)"),
    ])
    def test_rejected(self, kind, message):
        with pytest.raises(ValueError) as err:
            parse_kind(kind)
        assert str(err.value) == message

    def test_refine_dispatches(self):
        T = trivial((1, 2, 3))
        assert refine(T, "sd") == barycentric(T)
        assert refine(T, "esd:3") == edgewise(T, 3)
        with pytest.raises(ValueError, match="unknown subdivision kind"):
            refine(T, "trivial")


class TestRefinementGuard:
    """``check_refinement`` trusts ``_refined_facets``; the facets that
    ``refine`` builds are its oracle."""

    KINDS = ("sd", "esd:1", "esd:2", "esd:3", "esd:4")

    class Reached(Exception):
        pass

    @pytest.fixture
    def unbuilt(self, monkeypatch):
        def reached(*args, **kwargs):
            raise self.Reached

        for name in ("barycentric", "edgewise"):
            monkeypatch.setattr(triangulate_mod, name, reached)

    def assert_counts(self, T):
        for kind in self.KINDS:
            built = len(refine(T, kind).total.facets)
            assert _refined_facets(T, parse_kind(kind)) == built, kind

    @settings(max_examples=25, deadline=None)
    @given(n=st.integers(1, 5), steps=st.integers(0, 3), seed=st.integers(0, 10**6))
    def test_counts_drawn_bases(self, n, steps, seed):
        self.assert_counts(random_triangulation(range(1, n + 1), steps, seed=seed))

    @pytest.mark.parametrize("T", [
        identity(from_facets([(1, 2, 3), (3, 4), (5,)])),
        identity(from_facets([()])),
        identity(from_facets([])),
    ], ids=["non-pure", "empty", "void"])
    def test_counts_fixed_bases(self, T):
        self.assert_counts(T)

    @pytest.mark.parametrize("kind, n, count", [
        ("esd:" + "9" * 4000, 3, (FACETS_CAP + 1) ** 2),
        ("sd", 9, math.factorial(9)),
        ("sd", 40, math.factorial(9)),
    ], ids=["esd-huge-r", "sd-9", "sd-40"])
    def test_clamped_counts_pass_the_cap_unbuilt(self, unbuilt, kind, n, count):
        T = trivial(range(1, n + 1))
        assert _refined_facets(T, parse_kind(kind)) == count > FACETS_CAP
        with pytest.raises(ValueError) as err:
            refine(T, kind)
        assert str(err.value) == f"{kind} would build more than 40320 facets"

    def test_names_the_parsed_kind(self):
        T = trivial(range(1, 7))
        assert check_refinement(T, "esd:03") == 3
        with pytest.raises(ValueError) as err:
            check_refinement(T, "esd:09")
        assert str(err.value) == "esd:9 would build more than 40320 facets"

    def test_exactly_the_cap_reaches_the_builder(self, unbuilt):
        assert check_refinement(trivial(range(1, 9)), "sd") is None
        with pytest.raises(self.Reached):
            refine(trivial(range(1, 9)), "sd")

    @pytest.mark.parametrize("n, k", [(9, 1), (6, 2), (2, 16), (3, 10**100)])
    def test_iterated_sd_refused_before_the_first_step(self, unbuilt, n, k):
        with pytest.raises(ValueError) as err:
            iterated_sd(range(1, n + 1), k)
        assert str(err.value) == f"sd^{k} would build more than 40320 facets"

    @pytest.mark.parametrize("n, k", [(8, 1), (2, 15), (1, 10**100)])
    def test_iterated_sd_at_the_cap_reaches_the_builder(self, unbuilt, n, k):
        with pytest.raises(self.Reached):
            iterated_sd(range(1, n + 1), k)


class TestSimplexGuard:
    """``check_simplex`` counts a simplex past the clamp of
    ``_refined_facets`` as one at the clamp; asking ``check_refinement``
    about the whole simplex is its oracle."""

    @staticmethod
    def verdict(check, *args):
        try:
            return check(*args)
        except ValueError as err:
            return str(err)

    @pytest.mark.parametrize("kind", ["sd", "esd:1", "esd:2", "esd:3", "esd:4",
                                      "esd:40321"])
    def test_agrees_with_the_whole_simplex(self, kind):
        for n in range(41):
            want = self.verdict(check_refinement, trivial(range(1, n + 1)), kind)
            if not isinstance(want, str):
                want = f"a simplex on {n} vertices is past the limit of 8" if n > 8 else None
            assert self.verdict(check_simplex, kind, n) == want, n

    @pytest.mark.parametrize("kind, message", [
        ("sd", "sd would build more than 40320 facets"),
        ("esd:2", "esd:2 would build more than 40320 facets"),
        ("esd:1", f"a simplex on {10**18} vertices is past the limit of 8"),
    ])
    def test_huge_simplex_is_not_made(self, monkeypatch, kind, message):
        real = triangulate_mod.trivial

        def small(vertices):
            assert len(vertices) <= 17, "the guard made the whole simplex"
            return real(vertices)

        monkeypatch.setattr(triangulate_mod, "trivial", small)
        with pytest.raises(ValueError) as err:
            check_simplex(kind, 10**18)
        assert str(err.value) == message

    def test_parses_first(self):
        with pytest.raises(ValueError) as err:
            check_simplex("trivial", 10**18)
        assert str(err.value) == ("unknown subdivision kind 'trivial' "
                                  "(use sd or esd:R)")


class TestValidationAndJson:
    def test_round_trip(self):
        T = sd3()
        again = triangulation_from_json(triangulation_to_json(T))
        assert again == T

    def test_json_shape(self):
        T = trivial((1, 2))
        out = triangulation_to_json(T)
        assert out["base"] == complex_to_json(T.base)
        assert out["carrier"] == {"1": [1], "2": [2]}

    def test_rejects_bad_carrier(self):
        out = triangulation_to_json(trivial((1, 2)))
        out["carrier"]["2"] = [9]
        with pytest.raises(Exception) as err:
            triangulation_from_json(out)
        assert "/carrier/2" in str(err.value)

    def test_validate_catches_carrier_gap(self):
        T = trivial((1, 2))
        broken = Triangulation(T.base, T.total, {1: (1,), 2: (1,)})
        with pytest.raises(ValueError):
            validate_triangulation(broken)


def _carrier_edit(edit):
    """The wire form of sd of the edge {1,2} (vertices 1, 2 and the
    midpoint 3), with ``edit`` applied to its carrier object."""
    out = triangulation_to_json(barycentric(trivial((1, 2))))
    edit(out["carrier"])
    return out


def _replace_carrier(value):
    def edit(carriers):
        carriers.clear()
        carriers.update(value)
    return edit


class TestJsonRejections:
    """Every loader rejection, with its JSON pointer and message."""

    @pytest.mark.parametrize("edit, path, message", [
        (lambda c: c.update({"x": [1]}),
         "/carrier/x", "key must be an integer vertex id"),
        (lambda c: c.update({"9": [1]}),
         "/carrier/9", "9 is not a vertex of the total complex"),
        (lambda c: c.update({"2": 2}),
         "/carrier/2", "carrier must be a list of integers"),
        (lambda c: c.update({"2": [True]}),
         "/carrier/2", "carrier must be a list of integers"),
        (lambda c: c.update({"3": [1, 2.0]}),
         "/carrier/3", "carrier must be a list of integers"),
        (lambda c: c.update({"3": []}),
         "/carrier/3", "() is not a nonempty face of the base"),
        (lambda c: c.update({"3": [1, 9]}),
         "/carrier/3", "(1, 9) is not a nonempty face of the base"),
        (lambda c: c.pop("3"),
         "/carrier", "missing carriers for vertices [3]"),
        (lambda c: c.clear(),
         "/carrier", "missing carriers for vertices [1, 2, 3]"),
        # the first offender in key order is reported
        (_replace_carrier({"1": [1], "x": [1], "9": [1]}),
         "/carrier/x", "key must be an integer vertex id"),
        (_replace_carrier({"1": [1], "9": [1], "x": [1]}),
         "/carrier/9", "9 is not a vertex of the total complex"),
        (_replace_carrier({"2": [9], "1": "a"}),
         "/carrier/2", "(9,) is not a nonempty face of the base"),
        (_replace_carrier({"1": [1], "2": []}),
         "/carrier/2", "() is not a nonempty face of the base"),
        # a key names a vertex only as str(v), never in another spelling
        (_replace_carrier({"1": [1], "2": [2], " 2": [1]}),
         "/carrier/ 2", "key must be an integer vertex id"),
        (lambda c: c.update({"+3": [1]}),
         "/carrier/+3", "key must be an integer vertex id"),
        (lambda c: c.update({"03": [1]}),
         "/carrier/03", "key must be an integer vertex id"),
        (lambda c: c.update({"3_0": [1]}),
         "/carrier/3_0", "key must be an integer vertex id"),
    ], ids=["key-not-int", "key-not-vertex", "not-a-list", "bool",
            "float", "empty", "not-base-face", "one-missing", "all-missing",
            "first-bad-key", "first-unknown-vertex", "first-bad-face",
            "bad-face-before-missing", "key-space", "key-plus",
            "key-zero-padded", "key-underscore"])
    def test_carrier_errors(self, edit, path, message):
        with pytest.raises(SchemaError) as err:
            triangulation_from_json(_carrier_edit(edit))
        assert (err.value.path, err.value.message) == (path, message)

    @pytest.mark.parametrize("obj, path, message", [
        ([], "", "expected an object"),
        ({"total": {}, "carrier": {}}, "/base", "missing required key"),
        ({"base": {}, "carrier": {}}, "/total", "missing required key"),
        ({"base": {}, "total": {}}, "/carrier", "missing required key"),
        ({"base": {"vertices": [1]}, "total": {}, "carrier": {}},
         "/base/facets", "missing required key"),
        ({"base": {"vertices": [1], "facets": [[1]]},
          "total": {"vertices": [1], "facets": [[1, "a"]]}, "carrier": {}},
         "/total/facets/0/1", "expected an integer, got 'a'"),
        ({"base": {"vertices": [1], "facets": [[1]]},
          "total": {"vertices": [1], "facets": [[1]]}, "carrier": []},
         "/carrier", "expected an object"),
    ], ids=["not-object", "no-base", "no-total", "no-carrier",
            "nested-base", "nested-total", "carrier-not-object"])
    def test_shape_errors(self, obj, path, message):
        with pytest.raises(SchemaError) as err:
            triangulation_from_json(obj)
        assert (err.value.path, err.value.message) == (path, message)

    def test_canonical_keys_load(self):
        K = from_facets([(-12, 0, 7, 10)], labels={-12: "a", 0: "b"})
        T = stellar(identity(K), (-12, 10))
        back = triangulation_from_json(json.loads(json.dumps(triangulation_to_json(T))))
        assert back == T and back.total.labels == T.total.labels
        assert back.vertex_carrier == {-12: (-12,), 0: (0,), 7: (7,), 10: (10,),
                                       11: (-12, 10)}

    def test_int_subclass_entries_load(self):
        # Not exact ints, so the one-pass type test fails and the
        # entry-by-entry check decides; it accepts them, as before.
        class Id(int):
            pass

        obj = _carrier_edit(lambda c: c.update({"3": [Id(1), 2]}))
        obj["total"]["facets"] = [[Id(1), 3], [2, 3]]
        assert triangulation_from_json(obj) == barycentric(trivial((1, 2)))


def _with_carriers(T: Triangulation, carriers) -> Triangulation:
    return Triangulation(T.base, T.total, carriers)


def _sd_edge_carriers(**edits) -> Triangulation:
    """sd of the edge {1,2} (midpoint 3) with carriers edited by
    ``v3=...``, ``v1=...`` keyword arguments."""
    T = barycentric(trivial((1, 2)))
    carriers = dict(T.vertex_carrier)
    for key, value in edits.items():
        carriers[int(key[1:])] = value
    return _with_carriers(T, carriers)


class TestValidateRejections:
    """Every ``validate_triangulation`` rejection, and which comes first."""

    @pytest.mark.parametrize("T, message", [
        (_with_carriers(trivial((1, 2)), {1: (1,)}),
         "vertex_carrier keys must be exactly the total's vertices"),
        (_with_carriers(trivial((1, 2)), {1: (1,), 2: (2,), 3: (1,)}),
         "vertex_carrier keys must be exactly the total's vertices"),
        (_sd_edge_carriers(v3=(1, 9)),
         "carrier of 3 is not a nonempty base face: (1, 9)"),
        (_sd_edge_carriers(v3=(2, 1)),
         "carrier of 3 is not a nonempty base face: (2, 1)"),
        (_sd_edge_carriers(v3=()),
         "carrier of 3 is not a nonempty base face: ()"),
        (_sd_edge_carriers(v3=(1,)),
         "base vertices and singleton carriers do not match up"),
        (_with_carriers(trivial((1, 2)), {1: (1,), 2: (1,)}),
         "base vertices and singleton carriers do not match up"),
        (Triangulation(from_facets([(1, 2), (2, 3)]), from_facets([(1, 3), (2,)]),
                       {1: (1,), 2: (2,), 3: (3,)}),
         "face (1, 3) is not carried by any base face"),
        (Triangulation(full_simplex(()), from_facets([]), {}),
         "restriction to () is not a triangulation of it"),
        (Triangulation(full_simplex((1, 2, 3)), from_facets([(1, 2, 3), (3, 4)]),
                       {1: (1,), 2: (2,), 3: (3,), 4: (2, 3)}),
         "restriction to (1, 2, 3) is not a triangulation of it"),
        (Triangulation(full_simplex((1, 2, 3)),
                       from_facets([(1, 2), (1, 3), (2, 3)]),
                       {1: (1,), 2: (2,), 3: (3,)}),
         "restriction to (1, 2, 3) is not a triangulation of it"),
        (Triangulation(full_simplex((1, 2)), from_facets([(1,), (2,)]),
                       {1: (1,), 2: (2,)}),
         "restriction to (1, 2) is not a triangulation of it"),
        # the first offender is reported
        (_with_carriers(trivial((1, 2)), {1: (9,)}),
         "vertex_carrier keys must be exactly the total's vertices"),
        (_with_carriers(trivial((1, 2)), {1: (8,), 2: (9,)}),
         "carrier of 1 is not a nonempty base face: (8,)"),
        (_with_carriers(trivial((1, 2)), {2: (9,), 1: (8,)}),
         "carrier of 2 is not a nonempty base face: (9,)"),
        (_with_carriers(trivial((1, 2)), {1: (1,), 2: (9,)}),
         "carrier of 2 is not a nonempty base face: (9,)"),
        (Triangulation(from_facets([(1, 2), (2, 3)]), from_facets([(1, 3), (2,)]),
                       {1: (1,), 2: (1,), 3: (3,)}),
         "base vertices and singleton carriers do not match up"),
        (Triangulation(from_facets([(1, 2), (2, 3), (4,)]),
                       from_facets([(1, 3), (2, 4), (4,)]),
                       {1: (1,), 2: (2,), 3: (3,), 4: (4,)}),
         "face (1, 3) is not carried by any base face"),
        (Triangulation(full_simplex((1, 2, 3)), from_facets([(1, 2), (1, 3)]),
                       {1: (1,), 2: (2,), 3: (3,)}),
         "restriction to (2, 3) is not a triangulation of it"),
    ], ids=["key-missing", "key-extra", "not-base-face", "unsorted", "empty",
            "singleton-extra", "singleton-missing", "uncarried-face", "void",
            "non-pure", "wrong-dimension", "too-thin-edge",
            "keys-before-carriers", "first-bad-carrier", "first-in-dict-order",
            "carrier-before-singletons", "singletons-before-faces",
            "first-uncarried-face", "first-bad-restriction"])
    def test_message(self, T, message):
        with pytest.raises(ValueError) as err:
            validate_triangulation(T)
        assert type(err.value) is ValueError
        assert str(err.value) == message


class TestFirstUncarriedFace:
    def test_smallest_not_first_listed(self):
        # Three faces are uncarried; the face set lists (2, 4) before the
        # smallest, (1, 4), which is the one reported.
        T = Triangulation(from_facets([(1, 2), (2, 3), (3, 4)]),
                          from_facets([(1, 2, 4), (3,)]),
                          {1: (1,), 2: (2,), 3: (3,), 4: (4,)})
        carried = set(T.base.faces())
        uncarried = [g for g in T.total.face_set() if g not in carried]
        assert sorted(uncarried) == [(1, 2, 4), (1, 4), (2, 4)]
        assert uncarried[0] != (1, 4)
        with pytest.raises(ValueError) as err:
            validate_triangulation(T)
        assert str(err.value) == "face (1, 4) is not carried by any base face"
        assert outcome(validate_triangulation, T) == outcome(union_validate, T)


def union_validate(T: Triangulation):
    """Oracle for :func:`validate_triangulation`: the same checks in the
    same order, with each face's carrier taken as the sorted union of
    its vertices' carriers and looked up among the base faces."""
    if set(T.vertex_carrier) != set(T.total.vertices):
        raise ValueError("vertex_carrier keys must be exactly the total's vertices")
    for v, c in T.vertex_carrier.items():
        if c != tuple(sorted(set(c))) or not c or c not in T.base:
            raise ValueError(f"carrier of {v} is not a nonempty base face: {c}")
    singles = sorted(c[0] for c in T.vertex_carrier.values() if len(c) == 1)
    if tuple(singles) != T.base.vertices:
        raise ValueError("base vertices and singleton carriers do not match up")
    for g in T.total.faces():
        spanned = set()
        for v in g:
            spanned.update(T.vertex_carrier[v])
        if tuple(sorted(spanned)) not in T.base:
            raise ValueError(f"face {g} is not carried by any base face")
    restrictions = {}
    for f in T.base.faces():
        R = restriction(T, f)
        sub = R.total
        if sub.is_void or not sub.is_pure() or sub.dimension() != len(f) - 1:
            raise ValueError(f"restriction to {f} is not a triangulation of it")
        restrictions[f] = R
    return restrictions


@st.composite
def non_simplex_bases(draw):
    """Triangulations of random complexes that are mostly not simplices:
    the identity, a stellar subdivision of it, or its sd.  Half the time
    a vertex with a carrier of two or more vertices is moved to another
    such base face, which keeps the singleton carriers and so reaches
    the carried check."""
    facets = draw(st.lists(st.lists(st.integers(1, 6), min_size=1, max_size=4),
                           max_size=5))
    T = identity(from_facets(facets))
    big = [g for g in T.total.faces() if len(g) >= 2]
    if big and draw(st.booleans()):
        T = stellar(T, draw(st.sampled_from(big)))
    if draw(st.booleans()):
        T = barycentric(T)
    inner = [v for v, c in T.vertex_carrier.items() if len(c) >= 2]
    if inner and draw(st.booleans()):
        carriers = dict(T.vertex_carrier)
        carriers[draw(st.sampled_from(inner))] = draw(
            st.sampled_from([f for f in T.base.faces() if len(f) >= 2]))
        T = Triangulation(T.base, T.total, carriers)
    return T


class TestFaceTable:
    """The memoized table against the per-face loop (the oracle)."""

    @pytest.mark.parametrize("T", [
        _SD4, _ESD, _STELLAR, trivial(()),
        _recarried(_SD4, drop=True),
        _recarried(_ESD, to=(9,)),
        _recarried(_STELLAR, to=(1, 9)),
        _recarried(_SD4, none=True),
        Triangulation(full_simplex((1, 2)), from_facets([]), {}),
        # No vertex has the full mask: the union of the base is no face.
        barycentric(identity(from_facets([(1, 2), (2, 3), (1, 3), (3, 4)]))),
    ], ids=["sd", "esd", "stellar", "empty", "no-carrier", "leaves-base",
            "partly-leaves-base", "no-carriers", "void-total", "non-simplex-base"])
    def test_matches_loop(self, T):
        T = Triangulation(T.base, T.total, T.vertex_carrier)  # a cold table
        assert face_table(T) == loop_face_table(T)

    @settings(max_examples=60, deadline=None)
    @given(perturbed(st.one_of(refined_stellar(), non_simplex_bases())))
    def test_matches_loop_on_drawn(self, T):
        assert face_table(T) == loop_face_table(T)

    def test_face_through_interior_and_uncarried_vertex(self):
        edge, center = find_vertex(_SD4, (1, 2)), find_vertex(_SD4, (1, 2, 3, 4))
        carriers = dict(_SD4.vertex_carrier)
        del carriers[edge]
        T = Triangulation(_SD4.base, _SD4.total, carriers)
        assert any(center in g and edge in g for g in T.total.facets)
        assert face_table(T) == loop_face_table(T)

    def test_extra_key_with_the_full_carrier(self):
        # f_0 under the full mask counts total vertices, not carrier keys.
        carriers = {**_SD4.vertex_carrier, 99: (1, 2, 3, 4)}
        T = Triangulation(_SD4.base, _SD4.total, carriers)
        assert face_table(T) == loop_face_table(T)
        assert face_table(T)[0b1111, 1] == 1

    def test_full_mask_without_an_interior_vertex(self):
        # esd:4 of a tetrahedron has one interior vertex, and faces
        # joining {1,2}- and {3,4}-carried vertices also have the full
        # mask: both counts go under one key.
        T = edgewise(trivial((1, 2, 3, 4)), 4)

        def full_without_interior(g):
            carriers = [set(T.vertex_carrier[v]) for v in g]
            return all(len(c) < 4 for c in carriers) and len(set().union(*carriers)) == 4

        assert any(map(full_without_interior, T.total.face_set()))
        assert face_table(T) == loop_face_table(T)

    def test_second_call_lists_no_faces(self, monkeypatch):
        T = barycentric(trivial((1, 2, 3)))
        want = loop_face_table(T)
        first = face_table(T)

        def refuse(*args):
            raise AssertionError("faces listed again")

        monkeypatch.setattr(SimplicialComplex, "face_set", refuse)
        monkeypatch.setattr(SimplicialComplex, "faces_of_size", refuse)
        assert face_table(T) is first
        assert face_table(T) == want

    def test_each_triangulation_has_its_own(self):
        T = sd3()
        U = _recarried(T, drop=True)
        assert face_table(U) != face_table(T)
        assert face_table(T) == loop_face_table(T)


class TestCarriedCheckOnComplexes:
    """The carrier-mask check against the set-union oracle, over bases
    where some unions of carriers are not base faces."""

    @settings(max_examples=200, deadline=None)
    @given(perturbed(non_simplex_bases()))
    def test_agrees_with_set_union(self, T):
        assert outcome(validate_triangulation, T) == outcome(union_validate, T)


class TestTrustedBuilders:
    """Builders skip from_facets' checks; their output must pass them."""

    @settings(max_examples=30, deadline=None)
    @given(refined_stellar(), st.data())
    def test_canonical_and_labelled_inside(self, T, data):
        F = data.draw(st.sampled_from(list(T.base.faces())))
        for K in (T.total, restriction(T, F).total, restriction(T, F).base):
            again = from_facets(K.facets, K.labels)
            assert K.facets == again.facets
            assert K.labels == again.labels
            assert all(list(f) == sorted(set(f)) for f in K.facets)

    @pytest.mark.parametrize("T", [
        edgewise(trivial((1, 2, 3)), 2),
    ], ids=["default-order"])
    def test_edgewise(self, T):
        again = from_facets(T.total.facets, T.total.labels)
        assert (T.total.facets, T.total.labels) == (again.facets, again.labels)


def _restriction_parts(restrictions: dict) -> list:
    return [(f, R.base.facets, R.total.facets, list(R.total.labels.items()),
             list(R.vertex_carrier.items())) for f, R in restrictions.items()]


class TestValidateReturnsRestrictions:
    """The top-down restrictions against ``restriction(T, f)`` built from
    ``T`` for every base face, in canonical order (the oracle)."""

    @settings(max_examples=60, deadline=None)
    @given(perturbed(refined_stellar()))
    def test_matches_restriction(self, T):
        fast = outcome(validate_triangulation, T)
        slow = outcome(union_validate, T)
        if fast[0] != "value" or slow[0] != "value":
            assert fast == slow
            return
        assert list(fast[1]) == list(T.base.faces())
        assert _restriction_parts(fast[1]) == _restriction_parts(slow[1])

    @settings(max_examples=100, deadline=None)
    @given(perturbed(st.one_of(refined_stellar(), non_simplex_bases())))
    def test_top_down_on_any_base(self, T):
        direct = {f: restriction(T, f) for f in T.base.faces()}
        assert (_restriction_parts(triangulate_mod._restrictions(T))
                == _restriction_parts(direct))


class TestLinearLoad:
    """Loading scans the total's facets a fixed number of times."""

    @staticmethod
    def facet_scans(monkeypatch, T) -> int:
        scans = []

        class CountingFacets(tuple):
            def __iter__(self):
                scans.append(1)
                return super().__iter__()

        real = triangulate_mod._nested_complex

        def counting(obj, key):
            K = real(obj, key)
            if key == "total":
                K.facets = CountingFacets(K.facets)
            return K

        monkeypatch.setattr(triangulate_mod, "_nested_complex", counting)
        assert triangulation_from_json(triangulation_to_json(T)) == T
        return len(scans)

    def test_scans_do_not_grow_with_vertices(self, monkeypatch):
        small = trivial((1, 2, 3))
        large = iterated_sd((1, 2, 3), 3)  # 121 vertices
        assert len(large.total.vertices) > 30 * len(small.total.vertices)
        assert (self.facet_scans(monkeypatch, large)
                == self.facet_scans(monkeypatch, small))


@st.composite
def stellar_runs(draw):
    n = draw(st.integers(2, 4))
    seed = draw(st.integers(0, 10**6))
    steps = draw(st.integers(0, 3))
    return random_triangulation(tuple(range(1, n + 1)), steps, seed=seed)


class TestStructuralProperties:
    @settings(max_examples=25, deadline=None)
    @given(stellar_runs())
    def test_carrier_monotone(self, T):
        faces = list(T.total.faces())
        for G in faces[: 40]:
            cG = carrier(T, G)
            for v in T.total.vertices:
                bigger = tuple(sorted(set(G) | {v}))
                if bigger in T.total:
                    assert set(cG) <= set(carrier(T, bigger))

    @settings(max_examples=15, deadline=None)
    @given(stellar_runs())
    def test_restriction_tower(self, T):
        base_faces = [f for f in T.base.faces() if len(f) >= 1]
        for F in base_faces:
            R = restriction(T, F)
            validate_triangulation(R)
            for sub in [f for f in R.base.faces() if len(f) < len(F)][:10]:
                assert restriction(R, sub) == restriction(T, sub)

    @settings(max_examples=10, deadline=None)
    @given(stellar_runs())
    def test_barycentric_flag_and_valid(self, T):
        from subdiv.complexes import is_flag

        S = barycentric(T)
        validate_triangulation(S)
        assert is_flag(S.total)


def nested_facets(K) -> list:
    """Pairs of facets of ``K``, at two positions, with the first inside
    the second, by comparing every pair: duplicates and dominated
    facets both show up."""
    return [(f, g) for i, f in enumerate(K.facets) for j, g in enumerate(K.facets)
            if i != j and set(f) <= set(g)]


class TestBuildersGiveMaximalFacets:
    """barycentric, edgewise and stellar pass their facets to the
    constructor unfiltered, so each must build distinct facets, none
    inside another."""

    @settings(max_examples=20, deadline=None)
    @given(stellar_runs())
    @example(identity(from_facets([(1, 2, 3), (3, 4), (5,)])))
    @example(identity(from_facets([])))  # void
    @example(identity(from_facets([()])))  # empty
    @example(trivial((1,)))
    def test_no_nested_facets(self, G):
        built = [barycentric(G)] + [edgewise(G, r) for r in range(1, 5)]
        built += [stellar(G, g) for g in G.total.faces() if len(g) >= 2]
        for T in built:
            assert nested_facets(T.total) == []


def restriction_f_triangle_of(T):
    """Row j read off a rebuilt restriction to each j-vertex base face."""
    if T.base.is_void:
        raise ValueError("the base complex must not be void")
    if not T.base.is_pure():
        raise ValueError("the base complex must be pure")
    n = T.base.dimension() + 1
    rows = []
    for j in range(n + 1):
        reference = None
        ref_face = ()
        for f in T.base.faces():
            if len(f) != j:
                continue
            fv = restriction(T, f).total.f_vector()
            fv = fv + (0,) * (j + 1 - len(fv))
            if reference is None:
                reference, ref_face = fv, f
            elif fv != reference:
                raise NotUniformError(ref_face, f, (reference, fv))
        rows.append(reference)
    return FTriangle(n, tuple(rows))


class TestFTriangleOfFaceTable:
    @settings(max_examples=60, deadline=None)
    @given(perturbed(st.one_of(refined_stellar(), stellar_runs())))
    def test_agrees_with_restriction_route(self, T):
        assert outcome(f_triangle_of, T) == outcome(restriction_f_triangle_of, T)

    @pytest.mark.parametrize("T", [
        edgewise(stellar(trivial(range(1, 7)), range(1, 7)), 2),
        stellar(trivial((1, 2, 3)), (1, 2)),
        trivial(()),
        Triangulation(full_simplex(()), from_facets([]), {}),
        Triangulation(full_simplex((1, 2, 3)), from_facets([]), {}),
        identity(from_facets([(1, 2), (3,)])),
        identity(from_facets([])),
    ], ids=["esd-counterexample", "non-uniform", "trivial-empty", "void-0",
            "void-3", "non-pure", "void-base"])
    def test_fixed_cases(self, T):
        assert outcome(f_triangle_of, T) == outcome(restriction_f_triangle_of, T)

    def test_non_uniform_witness_and_message_match(self):
        T = stellar(trivial((1, 2, 3)), (1, 2))
        with pytest.raises(NotUniformError) as fast:
            f_triangle_of(T)
        with pytest.raises(NotUniformError) as slow:
            restriction_f_triangle_of(T)
        assert fast.value.witness == slow.value.witness == ((1, 2), (1, 3))
        assert str(fast.value) == str(slow.value)
