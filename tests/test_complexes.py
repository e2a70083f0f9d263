"""Simplicial complexes: construction, faces, f/h-vectors, flagness."""

import itertools
import json

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import eval_at
from subdiv import complexes as complexes_mod
from subdiv.complexes import (
    INPUT_FACET_CAP,
    SchemaError,
    SimplicialComplex,
    _maximal,
    complex_from_json,
    complex_to_json,
    f_vector_from_h,
    face,
    from_facets,
    full_simplex,
    h_polynomial,
    is_flag,
)
from subdiv.poly import parse_poly

P = parse_poly


def sd_triangle() -> SimplicialComplex:
    """Order complex of the nonempty subsets of {1,2,3}, built by hand.

    Subset ids: 1,2,3 = vertices, 4 = {1,2}, 5 = {1,3}, 6 = {2,3},
    7 = {1,2,3}.  Facets are the maximal chains vertex < edge < top.
    """
    return from_facets(
        [(1, 4, 7), (2, 4, 7), (1, 5, 7), (3, 5, 7), (2, 6, 7), (3, 6, 7)]
    )


def figure_complex() -> SimplicialComplex:
    # three triangles glued along a path: 5 vertices, 7 edges
    return from_facets([(1, 3, 4), (3, 4, 5), (2, 4, 5)])


class TestFaceHelper:
    def test_sorts_and_dedupes(self):
        assert face([3, 1, 2, 1]) == (1, 2, 3)

    def test_empty(self):
        assert face([]) == ()

    def test_rejects_non_integers(self):
        with pytest.raises(TypeError):
            face(["a"])


class TestConstruction:
    def test_duplicate_facets_merge(self):
        K = from_facets([(1, 2), (2, 3), (2, 1)])
        assert K.facets == ((1, 2), (2, 3))

    def test_dominated_facet_dropped(self):
        K = from_facets([(1, 2, 3), (1, 2)])
        assert K.facets == ((1, 2, 3),)

    def test_void_versus_empty(self):
        void = from_facets([])
        empty = from_facets([()])
        assert void.is_void and not empty.is_void
        assert void.f_vector() == ()
        assert empty.f_vector() == (1,)
        assert list(empty.faces()) == [()]
        assert list(void.faces()) == []

    def test_canonical_facet_order(self):
        K = from_facets([(2, 3), (1, 2), (4,)])
        assert K.facets == ((4,), (1, 2), (2, 3))

    def test_vertices(self):
        assert figure_complex().vertices == (1, 2, 3, 4, 5)

    def test_equality_ignores_input_order(self):
        a = from_facets([(1, 2), (2, 3)])
        b = from_facets([(2, 3), (1, 2), (2,)])
        assert a == b
        assert hash(a) == hash(b)


@st.composite
def sorted_facets_with_labels(draw):
    """Sorted int facets, with repeats and dominated facets mixed in,
    and labels on some of their vertices."""
    facets = draw(st.lists(
        st.frozensets(st.integers(-3, 8), max_size=4).map(lambda s: tuple(sorted(s))),
        max_size=8))
    if facets and draw(st.booleans()):
        # repeat a facet, and add a face of one
        big = draw(st.sampled_from(facets))
        facets += [big, big[: draw(st.integers(0, len(big)))]]
    facets = draw(st.permutations(facets))
    verts = sorted({v for f in facets for v in f})
    named = draw(st.lists(st.sampled_from(verts), unique=True)) if verts else []
    return facets, {v: f"v{v}" for v in named}


class TestTrustedConstructor:
    @given(sorted_facets_with_labels())
    @example(([], {}))  # the void complex
    @example(([()], {}))  # the empty complex
    @example(([(), (), (1,), (1, 2), (1,), (2,)], {2: "b"}))
    def test_matches_from_facets(self, drawn):
        facets, labels = drawn
        fast = SimplicialComplex(_maximal(facets), dict(labels))
        slow = from_facets(facets, labels)
        assert fast.facets == slow.facets
        assert fast.labels == slow.labels
        assert list(fast.faces()) == list(slow.faces())
        assert fast.vertices == slow.vertices

    def test_from_facets_still_checks(self):
        with pytest.raises(TypeError, match="vertex ids must be integers"):
            from_facets([(1, "a")])
        with pytest.raises(ValueError, match="labels reference vertices outside"):
            from_facets([(1, 2)], labels={3: "c"})
        labels = {1: "a"}
        K = from_facets([(1, 2)], labels)
        labels[2] = "b"
        assert K.labels == {1: "a"}


def quadratic_filter(facets) -> tuple:
    """Oracle for the domination filter :func:`_maximal`:
    each candidate, largest first, against every kept larger facet."""
    candidates = sorted(set(facets), key=len, reverse=True)
    kept = []
    dominators = []
    promoted = 0
    for f in candidates:
        while promoted < len(kept) and len(kept[promoted]) > len(f):
            dominators.append(set(kept[promoted]))
            promoted += 1
        fs = set(f)
        if not any(fs <= g for g in dominators):
            kept.append(f)
    kept.sort(key=lambda g: (len(g), g))
    return tuple(kept)


@st.composite
def nested_facet_lists(draw):
    """Sorted facets of mixed sizes, with repeats, the empty face and
    subsets of other drawn facets mixed in, in any order."""
    tops = draw(st.lists(st.sets(st.integers(1, 8), max_size=6), max_size=8))
    facets = [tuple(sorted(f)) for f in tops]
    for f in list(facets):
        if f and draw(st.booleans()):
            sub = draw(st.sets(st.sampled_from(f), max_size=len(f)))
            facets.append(tuple(sorted(sub)))
    if draw(st.booleans()):
        facets.append(())
    if facets and draw(st.booleans()):
        facets.append(draw(st.sampled_from(facets)))
    return draw(st.permutations(facets))


class TestDominationFilter:
    """The kept facets against the quadratic scan (the oracle)."""

    @settings(max_examples=300, deadline=None)
    @given(nested_facet_lists())
    @example([])
    @example([()])
    @example([(), ()])
    @example([(), (1,)])
    @example([(1, 2), (3,), (), (2,), (1, 2)])
    @example([(1, 2, 3), (1, 2), (2, 4), (4,), (1, 3, 4), (3, 4)])
    def test_matches_quadratic_scan(self, facets):
        assert SimplicialComplex(_maximal(facets), {}).facets == quadratic_filter(facets)


class TestCanonicalOrder:
    """The constructor orders distinct, maximal facets given in any order."""

    @given(nested_facet_lists().map(quadratic_filter).flatmap(st.permutations))
    @example([])
    @example([()])
    @example([(3, 4), (1, 4), (5,), (1, 2, 3)])
    def test_any_permutation(self, facets):
        K = SimplicialComplex(facets, {})
        assert K.facets == tuple(sorted(facets, key=lambda g: (len(g), g)))
        assert K == from_facets(facets)


class TestFaces:
    def test_simplex_counts(self):
        K = full_simplex((1, 2, 3))
        assert K.f_vector() == (1, 3, 3, 1)
        assert len(list(K.faces())) == 8

    def test_figure_f_vector(self):
        assert figure_complex().f_vector() == (1, 5, 7, 3)

    def test_sd_f_vector(self):
        assert sd_triangle().f_vector() == (1, 7, 12, 6)

    def test_contains(self):
        K = figure_complex()
        assert (3, 4) in K
        assert () in K
        assert (1, 5) not in K

    def test_face_count_matches_f_vector(self):
        for K in (figure_complex(), sd_triangle(), full_simplex(range(1, 5))):
            assert len(list(K.faces())) == sum(K.f_vector())

    @given(
        st.lists(
            st.lists(st.integers(1, 8), min_size=1, max_size=4),
            min_size=1,
            max_size=6,
        )
    )
    def test_closed_under_subsets(self, raw):
        K = from_facets(raw)
        fs = set(K.faces())
        for G in fs:
            for v in G:
                assert tuple(x for x in G if x != v) in fs


def sorted_faces(K: SimplicialComplex) -> list:
    """Oracle for ``faces()``: every subset of every facet, sorted by key."""
    seen = {sub for f in K.facets for k in range(len(f) + 1)
            for sub in itertools.combinations(f, k)}
    return sorted(seen, key=lambda g: (len(g), g))


class TestFaceOrderAgainstSort:
    """``faces()`` sorts the unordered face set size by size."""

    @given(st.lists(st.lists(st.integers(-3, 8), max_size=5), max_size=6))
    @example([])
    @example([[]])
    def test_canonical_order(self, raw):
        K = from_facets(raw)
        assert list(K.faces()) == sorted_faces(K)
        assert K.face_set() == set(K.faces())
        assert all(g in K for g in K.face_set())

    def test_set_alone_leaves_the_order_unbuilt(self):
        K = full_simplex(range(1, 6))
        assert len(K.face_set()) == 32
        assert K.f_vector() == (1, 5, 10, 10, 5, 1)
        assert K._faces is None
        assert list(K.faces()) == sorted_faces(K)


def set_f_vector(K: SimplicialComplex) -> tuple:
    """Oracle for ``f_vector``: faces of the memoized set, counted by size."""
    if K.is_void:
        return ()
    counts = [0] * (K.dimension() + 2)
    for g in K.face_set():
        counts[len(g)] += 1
    return tuple(counts)


def stellar_and_sd2_complexes():
    from subdiv.triangulate import iterated_sd, random_triangulation

    return [random_triangulation(range(1, 6), 6, seed=4).total,
            iterated_sd(range(1, 5), 2).total]


class TestFacesOfSize:
    """Faces counted one size at a time, against the whole face set."""

    def check(self, K):
        whole = K.face_set()
        for k in range(K.dimension() + 3):
            assert K.faces_of_size(k) == {g for g in whole if len(g) == k}
        assert K.f_vector() == set_f_vector(K)
        assert K.f_vector() == tuple(len(K.faces_of_size(k))
                                     for k in range(K.dimension() + 2))

    @given(st.lists(st.lists(st.integers(-3, 8), max_size=5), max_size=6))
    @example([])  # void
    @example([[]])  # empty
    @example([[1, 2, 3], [3, 4], [5]])  # non-pure
    def test_drawn(self, raw):
        self.check(from_facets(raw))

    @pytest.mark.parametrize("K", stellar_and_sd2_complexes(),
                             ids=["random-stellar", "sd2"])
    def test_built(self, K):
        self.check(K)

    @pytest.mark.parametrize("K, sizes", [
        (from_facets([]), []),
        (from_facets([()]), []),
        (from_facets([(1,), (2,)]), []),
        (from_facets([(1, 2), (3,)]), []),
        (from_facets([(1, 2, 3), (3, 4), (5,)]), [2]),
        (full_simplex(range(1, 6)), [2, 3, 4]),
    ], ids=["void", "empty", "points", "edge-point", "non-pure", "simplex"])
    def test_sets_only_between_a_vertex_and_a_facet(self, monkeypatch, K, sizes):
        built = []
        faces_of_size = SimplicialComplex.faces_of_size

        def recording(self, k):
            built.append(k)
            return faces_of_size(self, k)

        monkeypatch.setattr(SimplicialComplex, "faces_of_size", recording)
        fv = K.f_vector()
        assert built == sizes
        monkeypatch.undo()
        assert fv == set_f_vector(K)

    def test_counting_keeps_no_face_set(self):
        K = full_simplex(range(1, 6))
        assert K.f_vector() == (1, 5, 10, 10, 5, 1)
        assert h_polynomial(K) == (1,)
        assert K._face_set is None and K._faces is None
        assert K.faces_of_size(2) is not K.faces_of_size(2)


class TestVertices:
    @given(
        st.lists(
            st.lists(st.integers(1, 8), max_size=4),
            max_size=6,
        )
    )
    @example([])  # the void complex
    @example([[]])  # the empty complex
    def test_memo_matches_facets(self, raw):
        K = from_facets(raw)
        assert K.vertices == tuple(sorted({v for f in K.facets for v in f}))
        assert K.vertices is K.vertices


class TestDimensionPurity:
    def test_dimension(self):
        assert full_simplex((1, 2, 3)).dimension() == 2
        assert from_facets([()]).dimension() == -1
        assert from_facets([]).dimension() == -2

    def test_pure(self):
        assert figure_complex().is_pure()
        assert not from_facets([(1, 2), (3,)]).is_pure()
        assert from_facets([]).is_pure() and from_facets([()]).is_pure()

    @given(st.lists(st.lists(st.integers(-3, 8), max_size=5), max_size=6))
    @example([])  # void
    @example([[]])  # empty
    @example([[1, 2, 3], [3, 4], [5]])  # non-pure
    @example([[5], [1, 2], [3, 4, 6]])  # non-pure, largest last drawn
    def test_read_off_the_ends_against_a_scan(self, raw):
        K = from_facets(raw)
        sizes = [len(f) for f in K.facets]
        assert K.dimension() == (max(sizes) - 1 if sizes else -2)
        assert K.is_pure() == (len(set(sizes)) <= 1)


class TestHPolynomial:
    @pytest.mark.parametrize("n", range(1, 6))
    def test_simplex_is_one(self, n):
        K = full_simplex(range(1, n + 1))
        assert h_polynomial(K, n) == (1,)

    def test_defaults_to_dimension(self):
        assert h_polynomial(sd_triangle()) == P("1+4x+x^2")

    def test_figure(self):
        assert h_polynomial(figure_complex()) == P("1+2x")

    def test_empty_complex(self):
        assert h_polynomial(from_facets([()])) == (1,)

    def test_ambient_degree_too_small(self):
        with pytest.raises(ValueError):
            h_polynomial(full_simplex((1, 2, 3)), 2)

    def test_at_one_counts_facets(self):
        for K in (figure_complex(), sd_triangle()):
            h = h_polynomial(K)
            assert eval_at(h, 1) == len(K.facets)

    @pytest.mark.parametrize("size", [2, 3, 4])
    @given(data=st.data())
    def test_f_vector_round_trip(self, size, data):
        pool = list(itertools.combinations(range(1, 8), size))
        raw = data.draw(st.lists(st.sampled_from(pool), min_size=1, max_size=8))
        K = from_facets(raw)
        n = K.dimension() + 1
        h = h_polynomial(K, n)
        fv = K.f_vector() + (0,) * (n + 1 - len(K.f_vector()))
        assert f_vector_from_h(h, n) == fv
        assert eval_at(h, 1) == len(K.facets)


class TestFlag:
    def test_hollow_triangle(self):
        assert not is_flag(from_facets([(1, 2), (2, 3), (1, 3)]))

    def test_full_simplex(self):
        assert is_flag(full_simplex((1, 2, 3, 4)))

    def test_barycentric_complex(self):
        assert is_flag(sd_triangle())

    def test_two_hollow_triangles(self):
        K = from_facets([(1, 2), (2, 3), (1, 3), (3, 4), (4, 5), (3, 5)])
        assert not is_flag(K)

    def test_void_and_empty(self):
        assert is_flag(from_facets([]))
        assert is_flag(from_facets([()]))


def _maximal_cliques(vertices, adj):
    out = []

    def bron_kerbosch(r, p, x):
        if not p and not x:
            out.append(r)
            return
        pivot = max(p | x, key=lambda u: len(adj[u] & p))
        for v in list(p - adj[pivot]):
            bron_kerbosch(r | {v}, p & adj[v], x & adj[v])
            p.remove(v)
            x.add(v)

    bron_kerbosch(frozenset(), set(vertices), set())
    return out


def clique_search_is_flag(K: SimplicialComplex) -> bool:
    """Oracle: every maximal clique of the 1-skeleton is a face,
    found by a Bron-Kerbosch search with pivoting."""
    verts = K.vertices
    if not verts:
        return True
    adj = {v: set() for v in verts}
    for f in K.facets:
        for a, b in itertools.combinations(f, 2):
            adj[a].add(b)
            adj[b].add(a)
    for clique in _maximal_cliques(verts, adj):
        if len(clique) >= 3 and tuple(sorted(clique)) not in K:
            return False
    return True


@st.composite
def flag_candidates(draw):
    """Random facet lists, simplex boundaries glued to them, and refined
    triangulations, so that both flag and non-flag complexes come up."""
    from subdiv.triangulate import barycentric, edgewise, random_triangulation

    shape = draw(st.sampled_from(("facets", "boundary", "stellar", "sd", "esd")))
    if shape == "facets":
        facets = draw(st.lists(st.lists(st.integers(1, 7), max_size=4), max_size=8))
        return from_facets(facets)
    if shape == "boundary":
        n = draw(st.integers(2, 6))
        facets = list(itertools.combinations(range(1, n + 1), n - 1))
        extra = draw(st.lists(st.lists(st.integers(1, 8), max_size=3), max_size=3))
        return from_facets(facets + extra)
    n = draw(st.integers(1, 4))
    G = random_triangulation(tuple(range(1, n + 1)), draw(st.integers(0, 4)),
                             seed=draw(st.integers(0, 10**6)))
    if shape == "sd":
        G = barycentric(G)
    elif shape == "esd":
        G = edgewise(G, draw(st.integers(2, 3)))
    return G.total


class TestFlagByCliqueClosure:
    @settings(max_examples=200, deadline=None)
    @given(flag_candidates())
    @example(from_facets([]))
    @example(from_facets([()]))
    @example(from_facets([(1,), (2,), (3,)]))
    @example(from_facets([(1, 2), (2, 3), (1, 3)]))
    @example(from_facets([(1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4)]))
    @example(from_facets([(1, 2, 3), (1, 4), (2, 4), (3, 4)]))
    def test_agrees_with_clique_search(self, K):
        assert is_flag(K) == clique_search_is_flag(K)


class TestJson:
    def test_round_trip(self):
        K = figure_complex()
        assert complex_from_json(complex_to_json(K)) == K

    def test_labels_survive(self):
        K = from_facets([(1, 2)], labels={1: "left", 2: "right"})
        out = complex_to_json(K)
        assert out["labels"] == {"1": "left", "2": "right"}
        assert complex_from_json(out).labels[2] == "right"

    def test_void_and_empty(self):
        assert complex_to_json(from_facets([])) == {"vertices": [], "facets": []}
        back = complex_from_json({"vertices": [], "facets": [[]]})
        assert back.f_vector() == (1,)

    def test_rejects_bad_shapes(self):
        with pytest.raises(SchemaError) as err:
            complex_from_json({"vertices": [1], "facets": [[1], "x"]})
        assert err.value.path == "/facets/1"
        with pytest.raises(SchemaError) as err:
            complex_from_json({"vertices": [1, 2], "facets": [[1, 2.5]]})
        assert err.value.path == "/facets/0/1"
        with pytest.raises(SchemaError) as err:
            complex_from_json([1, 2])
        assert err.value.path == ""

    def test_rejects_vertex_mismatch(self):
        with pytest.raises(SchemaError) as err:
            complex_from_json({"vertices": [1, 2, 3], "facets": [[1, 2]]})
        assert err.value.path == "/vertices"

    def test_rejects_unknown_facet_vertex(self):
        with pytest.raises(SchemaError) as err:
            complex_from_json({"vertices": [1], "facets": [[1, 9]]})
        assert err.value.path == "/facets/0"


class TestJsonRejections:
    """Every ``complex_from_json`` rejection, with its path and message."""

    @pytest.mark.parametrize("obj, path, message", [
        ([1, 2], "", "expected an object"),
        ({"vertices": [1]}, "/facets", "missing required key"),
        ({"facets": [[1]]}, "/vertices", "missing required key"),
        ({"vertices": 1, "facets": [[1]]}, "/vertices", "expected a list"),
        ({"vertices": [1, "a"], "facets": [[1]]},
         "/vertices/1", "expected an integer, got 'a'"),
        ({"vertices": [True], "facets": [[1]]},
         "/vertices/0", "expected an integer, got True"),
        ({"vertices": [1], "facets": {"0": [1]}}, "/facets", "expected a list"),
        ({"vertices": [1], "facets": [[1], "x"]},
         "/facets/1", "expected a list of vertex ids"),
        ({"vertices": [1, 2], "facets": [[1, 2.5]]},
         "/facets/0/1", "expected an integer, got 2.5"),
        ({"vertices": [1, 2], "facets": [[1, False, "a"]]},
         "/facets/0/1", "expected an integer, got False"),
        ({"vertices": [1], "facets": [[1, 9]]},
         "/facets/0", "facet uses undeclared vertices"),
        ({"vertices": [1, 9], "facets": [[1], [9, 9, "a"]]},
         "/facets/1/2", "expected an integer, got 'a'"),
        ({"vertices": [1, 2, 3], "facets": [[1, 2]]},
         "/vertices", "vertices [3] appear in no facet"),
        ({"vertices": [1, 2], "facets": [[2, 1]], "labels": []},
         "/labels", "expected an object"),
        ({"vertices": [1, 2], "facets": [[2, 1]], "labels": {"x": "a"}},
         "/labels/x", "key is not a vertex id"),
        ({"vertices": [1, 2], "facets": [[2, 1]], "labels": {"9": "a"}},
         "/labels/9", "label for unknown vertex"),
        ({"vertices": [1, 2], "facets": [[2, 1]], "labels": {"1": 5}},
         "/labels/1", "label must be a string"),
        # a key names a vertex only as str(v), never in another spelling
        ({"vertices": [1, 2], "facets": [[2, 1]], "labels": {"2": "a", " 2": "b"}},
         "/labels/ 2", "key is not a vertex id"),
        ({"vertices": [1, 2], "facets": [[2, 1]], "labels": {"+2": "a"}},
         "/labels/+2", "key is not a vertex id"),
        ({"vertices": [1, 2], "facets": [[2, 1]], "labels": {"02": "a"}},
         "/labels/02", "key is not a vertex id"),
        ({"vertices": [1, 10], "facets": [[1, 10]], "labels": {"1_0": "a"}},
         "/labels/1_0", "key is not a vertex id"),
        ({"vertices": [0, 1], "facets": [[0, 1]], "labels": {"-0": "a"}},
         "/labels/-0", "key is not a vertex id"),
    ], ids=["not-object", "no-facets", "no-vertices", "vertices-not-list",
            "vertex-not-int", "vertex-bool", "facets-not-list",
            "facet-not-list", "entry-float", "first-bad-entry",
            "undeclared", "type-before-membership", "unused-vertex",
            "labels-not-object", "label-key", "label-unknown", "label-value",
            "label-key-space", "label-key-plus", "label-key-zero-padded",
            "label-key-underscore", "label-key-minus-zero"])
    def test_schema_errors(self, obj, path, message):
        with pytest.raises(SchemaError) as err:
            complex_from_json(obj)
        assert (err.value.path, err.value.message) == (path, message)

    def test_unsorted_and_repeated_entries(self):
        K = complex_from_json({"vertices": [40, 1, 9, 9],
                               "facets": [[40, 9, 9], [9, 1], [1], [9, 40]],
                               "labels": {"40": "c"}})
        assert K == from_facets([(9, 40), (1, 9)])
        assert K.facets == ((1, 9), (9, 40))
        assert K.labels == {40: "c"}

    def test_canonical_keys_load(self):
        K = from_facets([(-12, 0, 7, 10)],
                        labels={-12: "a", 0: "b", 7: "c", 10: "d"})
        back = complex_from_json(json.loads(json.dumps(complex_to_json(K))))
        assert back == K and back.labels == K.labels


class TestInputFacetCap:
    """``complex_from_json`` refuses a facet past 12 vertices itself, after
    the schema checks and before the domination filter."""

    @staticmethod
    def spanning(n: int, extra=()) -> dict:
        return {"vertices": list(range(1, n + 1)),
                "facets": [list(range(1, n + 1)), *extra]}

    def test_thirteen_vertices_refused(self, monkeypatch):
        def filtered(*args):
            raise AssertionError("domination filter ran before the size check")

        monkeypatch.setattr(complexes_mod, "_maximal", filtered)
        with pytest.raises(ValueError) as err:
            complex_from_json(self.spanning(13, extra=[[1, 2], [3]]))
        assert type(err.value) is ValueError
        assert str(err.value) == "input has a facet on 13 vertices; the limit is 12"

    def test_largest_facet_is_named(self):
        obj = self.spanning(13, extra=[list(range(20, 38))])
        obj["vertices"] += list(range(20, 38))
        with pytest.raises(ValueError) as err:
            complex_from_json(obj)
        assert str(err.value) == "input has a facet on 18 vertices; the limit is 12"

    def test_repeated_entries_count_once(self):
        obj = self.spanning(12)
        obj["facets"][0] += [1, 2]
        assert complex_from_json(obj) == full_simplex(range(1, INPUT_FACET_CAP + 1))

    def test_schema_errors_come_first(self):
        obj = self.spanning(13, extra=[[1, "a"]])
        with pytest.raises(SchemaError) as err:
            complex_from_json(obj)
        assert (err.value.path, err.value.message) == (
            "/facets/1/1", "expected an integer, got 'a'")
