"""Triangulations of simplicial complexes with carrier bookkeeping.

A triangulation here is a refinement ``total`` of a ``base`` complex
together with a map sending each vertex of ``total`` to the smallest
base face containing it.  Carriers are what make restriction to a base
face meaningful, and they compose when subdivisions are stacked.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property, reduce
from itertools import (
    accumulate,
    chain,
    combinations,
    compress,
    filterfalse,
    permutations,
    product,
    repeat,
)
from math import factorial
from operator import or_

from .complexes import (
    Face,
    SchemaError,
    SimplicialComplex,
    _all_ints,
    _faces_of_size,
    _maximal,
    _vertex_key,
    complex_from_json,
    complex_to_json,
    f_vector_from_h,
    face,
    full_simplex,
)
from .perm import E_nr, eulerian
from .poly import Poly

# Facets of sd of the 8-vertex simplex; no sd or esd:R build may make more.
FACETS_CAP = factorial(8)
# Vertices of the largest simplex for tables and check_simplex.
# Past it, esd:2 verify cases within FACETS_CAP ran past 40 s (9 vertices).
TABLES_N_CAP = 8
# Stellar steps of one random refinement; each step lists every face.
STEPS_CAP = 64


@dataclass(frozen=True)
class Triangulation:
    """A geometric subdivision: ``total`` refines ``base``.

    ``vertex_carrier`` maps each vertex of ``total`` to the base face
    it sits inside.  The constructor checks that the keys are exactly
    the vertices of ``total``, naming the first extra key in dict order
    or else the missing ones, then in dict order that each carrier is
    a nonempty base face of ints, then that each base vertex is the
    carrier of exactly one vertex; :func:`validate_triangulation`
    checks the face rules.  Like the faces of a complex, the
    :func:`face_table` is computed on first use and kept with the
    instance, so none of the three fields may change afterwards.
    """

    base: SimplicialComplex
    total: SimplicialComplex
    vertex_carrier: dict[int, Face]

    def __post_init__(self):
        vertices = set(self.total.vertices)
        if self.vertex_carrier.keys() != vertices:
            for v in self.vertex_carrier:
                if v not in vertices:
                    raise ValueError(f"carrier key {v!r} is not a vertex of the total complex")
            missing = [v for v in self.total.vertices if v not in self.vertex_carrier]
            raise ValueError(f"missing carriers for vertices {missing}")
        # Not ``c in self.base``, which lists the 2^n faces of an n-simplex.
        star: dict[int, list[set[int]]] = {}
        for h in map(set, self.base.facets):
            for u in h:
                star.setdefault(u, []).append(h)
        cs = self.vertex_carrier.values()
        # Repeats skip the test only over exact ints, as (True, 2) == (1, 2).
        exact = {tuple}.issuperset(map(type, cs)) and {int}.issuperset(map(type, chain(*cs)))
        faces: set[Face] = set()  # the carriers found to be base faces
        for v, c in self.vertex_carrier.items():
            if exact and c in faces:
                continue
            if (type(c) is not tuple or not c or not _all_ints(c)
                    or list(c) != sorted(set(c))
                    or not any(map(set(c).issubset, star.get(c[0], ())))):
                raise ValueError(f"carrier of {v} is not a nonempty base face: {c}")
            faces.add(c)
        if sorted(c[0] for c in cs if len(c) == 1) != list(self.base.vertices):
            raise ValueError("base vertices and singleton carriers do not match up")

    @cached_property
    def _face_table(self) -> dict[tuple[int, int], int]:
        return _tabulate_faces(self)


def carrier(T: Triangulation, G) -> Face:
    """Smallest base face containing the face ``G`` of ``T.total``."""
    g = face(G)
    if g not in T.total:
        raise ValueError(f"{g} is not a face of the triangulation")
    out: set[int] = set()
    for v in g:
        out.update(T.vertex_carrier[v])
    return tuple(sorted(out))


def trivial(vertices) -> Triangulation:
    """The simplex on ``vertices``, subdivided by doing nothing."""
    return identity(full_simplex(vertices))


def identity(K: SimplicialComplex) -> Triangulation:
    """View a complex as the trivial subdivision of itself."""
    return Triangulation(K, K, {v: (v,) for v in K.vertices})


def restriction(T: Triangulation, F) -> Triangulation:
    """The induced triangulation of the base face ``F``.

    When every vertex of ``T.total`` has a carrier inside ``F``, so
    does the vertex each base vertex carries: the base is the simplex
    ``F``, and the restriction is ``T`` itself, face table included.
    Otherwise each facet is cut down to the kept vertices with C-level
    set operations (:func:`_project`) and filtered by :func:`_maximal`;
    when no facet keeps a vertex, the restriction is the empty complex.
    """
    f = face(F)
    if f not in T.base:
        raise ValueError(f"{f} is not a face of the base complex")
    inside = set(f)
    keep = set(compress(T.vertex_carrier, map(inside.issuperset, T.vertex_carrier.values())))
    if keep.issuperset(T.total.vertices):
        return T
    # A void total has no vertices and returned above.
    facets = _project(T.total.facets, keep) or {()}
    labels = {v: s for v, s in T.total.labels.items() if v in keep}
    total = SimplicialComplex(_maximal(facets), labels)
    carriers = {v: T.vertex_carrier[v] for v in total.vertices}
    return Triangulation(SimplicialComplex([f], {}), total, carriers)


def _project(facets, keep: set) -> set[Face]:
    """The facets cut down to the vertices in ``keep``, as distinct
    sorted tuples; a facet that keeps none is left out.  Every facet
    takes a C-level ``isdisjoint`` test, and only those meeting ``keep``
    an ``intersection``."""
    meeting = filterfalse(keep.isdisjoint, facets)
    return set(map(tuple, map(sorted, map(keep.intersection, meeting))))


def _restrictions(T: Triangulation) -> dict[Face, Triangulation]:
    """The restriction to every base face, keyed in canonical order.

    Built top-down: a base facet's restriction comes from ``T``, and
    every other face's from an already built restriction to a base face
    with one more vertex, which is the same triangulation (a restriction
    of a restriction) with fewer facets to project.
    """
    order = list(T.base.faces())
    built: dict[Face, Triangulation] = {}
    for f in reversed(order):  # every face after all faces one larger
        if f not in built:  # no larger base face: f is a facet
            built[f] = restriction(T, f)
        R = built[f]
        for i in range(len(f)):
            g = f[:i] + f[i + 1:]
            if g not in built:
                built[g] = restriction(R, g)
    return {f: built[f] for f in order}


def _flag_pattern(m: int):
    """Bit masks of the flags of an m-vertex facet, bit i for position i.

    Returns the masks of the nonempty subsets in the order
    ``combinations`` lists them, size by size, and for each ordering of
    the m positions, in ``permutations`` order, its prefix masks.
    """
    subsets = [sum(1 << i for i in c)
               for k in range(1, m + 1) for c in combinations(range(m), k)]
    prefixes = [tuple(accumulate((1 << i for i in order), or_))
                for order in permutations(range(m))]
    return subsets, prefixes


def barycentric(T: Triangulation) -> Triangulation:
    """Barycentric subdivision of ``T.total``, still over ``T.base``.

    One fresh vertex per nonempty face, numbered in the canonical face
    order, so equal inputs give identical outputs.  Facets are the
    flags of faces inside each facet of ``T.total``: each facet's
    subsets are numbered once and every flag of an m-vertex facet reads
    its vertices off the prefix masks of :func:`_flag_pattern`.  The
    facets are maximal: each is a complete flag ending in one facet h,
    which a flag of h' would hold only if h' <= h, and distinct
    orderings give distinct flags (the empty complex gives ``[()]``).
    """
    old_faces = [g for g in T.total.faces() if g]
    vertex_of = {g: i for i, g in enumerate(old_faces, start=1)}
    patterns: dict[int, tuple] = {}
    facets = []
    for h in T.total.facets:
        m = len(h)
        if m not in patterns:
            patterns[m] = _flag_pattern(m)
        subsets, prefixes = patterns[m]
        subfaces = chain.from_iterable(map(combinations, repeat(h), range(1, m + 1)))
        ids = dict(zip(subsets, map(vertex_of.__getitem__, subfaces)))
        facets.extend(tuple(map(ids.__getitem__, p)) for p in prefixes)
    labels = {i: "barycenter of {%s}" % ",".join(map(str, g))
              for g, i in vertex_of.items()}
    carriers = {vertex_of[g]: carrier(T, g) for g in old_faces}
    return Triangulation(T.base, SimplicialComplex(facets, labels), carriers)


def _edgewise_pattern(m: int, r: int):
    """Local points and chains of an m-vertex facet under esd:r.

    A point is a tuple of (position, weight) pairs with positive
    weights, or its partial sums t, nondecreasing with t[m-1] = r.  A
    chain starts at some t with t[m-2] < r and bumps each of t[0..m-2]
    once, staying nondecreasing, so the last entry of a run of equal
    entries goes first.  The chains are thus indexed by the r^(m-1)
    words w in {0..r-1}^(m-1) (Edelsbrunner and Grayson): w's chain
    starts at sorted(w) and bumps the stable sort rank of position j,
    for j = m-2 down to 0.  The points are listed in sorted order and
    the chains in word order, each a sorted tuple of point indices.
    """
    walks = []
    for w in product(range(r), repeat=m - 1):
        ranked = sorted(range(m - 1), key=w.__getitem__)
        rank = sorted(range(m - 1), key=ranked.__getitem__)
        t = [*sorted(w), r]
        walk = [_weights(t)]
        for k in reversed(rank):
            t[k] += 1
            walk.append(_weights(t))
        walks.append(walk)
    points = sorted(set(chain.from_iterable(walks)))
    index = {p: i for i, p in enumerate(points)}
    return points, [tuple(sorted(map(index.__getitem__, walk))) for walk in walks]


def _weights(t) -> tuple[tuple[int, int], ...]:
    """The (position, weight) pairs of the partial sums ``t``."""
    return tuple((i, b - a) for i, (a, b) in enumerate(zip([0, *t], t)) if b > a)


def edgewise(T: Triangulation, r: int) -> Triangulation:
    """The r-fold edgewise subdivision of ``T.total`` over ``T.base``.

    Vertices are the integer weightings of total vertices summing to r,
    supported on a face, numbered in sorted order.  Partial sums run
    over each facet's vertices in increasing id order.  An m-vertex
    facet splits into r^(m-1) facets, one per word in {0..r-1}^(m-1),
    read off once per call for each facet size (:func:`_edgewise_pattern`).
    Naming a facet's local points, (i, w) -> (h[i], w), keeps their
    order, so a sorted chain maps onto a facet as a sorted tuple of ids.
    The facets are maximal: a chain's points span its facet h, so their
    supports cover h and chains of two facets cannot nest, and one
    facet's chains are distinct sets of m points (m = 0 gives ``[()]``).
    """
    if r < 1:
        raise ValueError("r must be a positive integer")

    patterns: dict[int, tuple] = {0: ([], [()])}
    # Per facet: its points named by total vertex, and its size's chains.
    named_chains = []
    for h in T.total.facets:
        m = len(h)
        if m not in patterns:
            patterns[m] = _edgewise_pattern(m, r)
        points, chains = patterns[m]
        named_chains.append(([tuple((h[i], w) for i, w in p) for p in points], chains))

    named_points = set(chain.from_iterable(named for named, _ in named_chains))
    point_ids = {p: i for i, p in enumerate(sorted(named_points), start=1)}

    facets = []
    for named, chains in named_chains:
        ids = list(map(point_ids.__getitem__, named))
        facets.extend(tuple(map(ids.__getitem__, c)) for c in chains)
    labels = {i: " ".join(f"{v}^{c}" for v, c in p) for p, i in point_ids.items()}
    supports = {p: tuple(v for v, _ in p) for p in point_ids}
    carrier_of = {g: carrier(T, g) for g in set(supports.values())}
    carriers = {point_ids[p]: carrier_of[g] for p, g in supports.items()}
    return Triangulation(T.base, SimplicialComplex(facets, labels), carriers)


class UnknownKindError(ValueError):
    """A kind string that names neither ``sd`` nor ``esd:R``."""


def parse_kind(kind: str) -> int | None:
    """None for ``sd`` (barycentric), R for ``esd:R`` (R-fold edgewise)."""
    if kind == "sd":
        return None
    if kind.startswith("esd:"):
        try:
            r = int(kind[len("esd:"):])
        except ValueError:
            raise ValueError(f"bad edgewise parameter in {kind!r}") from None
        if r < 1:
            raise ValueError("edgewise parameter must be at least 1")
        return r
    raise UnknownKindError(f"unknown subdivision kind {kind!r} (use sd or esd:R)")


def reference(kind: str, n: int) -> Poly:
    """h-polynomial of the simplex on n vertices refined by ``sd`` or
    ``esd:R``: the Eulerian polynomial A_n or ``E_nr(n, R)``, and 1 at
    n = 0.  The local theorems say it interlaces the local h of that
    refinement of any triangulation of the simplex."""
    r = parse_kind(kind)
    if r is None:
        return eulerian(n)
    return E_nr(n, r) if n else (1,)


def check_refinement(T: Triangulation, kind: str) -> int | None:
    """Parse ``kind`` and refuse it if refining ``T.total`` by it would
    build more than ``FACETS_CAP`` facets; nothing is built.  Returns
    what :func:`parse_kind` gives."""
    r = parse_kind(kind)
    if _refined_facets(T, r) > FACETS_CAP:
        name = "sd" if r is None else f"esd:{r}"
        raise ValueError(f"{name} would build more than {FACETS_CAP} facets")
    return r


def check_simplex(kind: str, n: int) -> None:
    """Parse ``kind`` and refuse it on the n-vertex simplex past
    ``FACETS_CAP`` refined facets (:func:`check_refinement`, asked about
    a simplex cut to the size where its count clamps), then past
    ``TABLES_N_CAP`` vertices, which esd:1 reaches within the facet cap."""
    check_refinement(trivial(range(1, min(n, FACETS_CAP.bit_length() + 1) + 1)), kind)
    if n > TABLES_N_CAP:
        raise ValueError(f"a simplex on {n} vertices is "
                         f"past the limit of {TABLES_N_CAP}")


def refine(T: Triangulation, kind: str) -> Triangulation:
    """Refine ``T.total`` by ``sd`` or ``esd:R``, still over ``T.base``;
    :func:`check_refinement` refuses it first past ``FACETS_CAP``."""
    r = check_refinement(T, kind)
    return barycentric(T) if r is None else edgewise(T, r)


def _refined_facets(T: Triangulation, r: int | None) -> int:
    """Facets that refining ``T.total`` by sd (r None) or esd:r builds.

    An m-vertex facet becomes m! facets under sd and r^(m-1) under
    esd:r.  m and r are clamped where a term already exceeds
    ``FACETS_CAP``, so the sum is exact up to the cap and stays cheap
    past it.
    """
    if r is None:  # 9! > FACETS_CAP
        return sum(factorial(min(len(h), 9)) for h in T.total.facets)
    r = min(r, FACETS_CAP + 1)
    top = FACETS_CAP.bit_length()  # 2^top > FACETS_CAP
    return sum(r ** min(max(len(h) - 1, 0), top) for h in T.total.facets)


def stellar(T: Triangulation, G) -> Triangulation:
    """Star the face ``G``: cone a fresh vertex over its link.  The
    facets are maximal: each new (h - d) | {fresh} holds the fresh
    vertex, which no kept facet does, and two new ones are equal or
    nested only if two facets of ``T.total`` were."""
    g = face(G)
    if len(g) < 2:
        raise ValueError("starring needs a face with at least two vertices")
    if g not in T.total:
        raise ValueError(f"{g} is not a face of the triangulation")
    fresh = max(T.total.vertices) + 1
    inside = set(g)
    facets: list[Face] = []
    for h in T.total.facets:
        if inside <= set(h):
            for drop in g:
                facets.append(tuple(sorted((set(h) - {drop}) | {fresh})))
        else:
            facets.append(h)
    labels = dict(T.total.labels)
    labels[fresh] = "apex of {%s}" % ",".join(map(str, g))
    carriers = dict(T.vertex_carrier)
    carriers[fresh] = carrier(T, g)
    return Triangulation(T.base, SimplicialComplex(facets, labels), carriers)


def compose(outer: Triangulation, inner: Triangulation) -> Triangulation:
    """Stack subdivisions: ``outer`` must triangulate ``inner.total``."""
    if outer.base != inner.total:
        raise ValueError("outer's base must equal inner's total")
    carriers = {v: carrier(inner, c) for v, c in outer.vertex_carrier.items()}
    return Triangulation(inner.base, outer.total, carriers)


def iterated_sd(vertices, k: int) -> Triangulation:
    """k-fold barycentric subdivision of the simplex on ``vertices``.

    Each step multiplies the facets by n!, so (n!)^k past ``FACETS_CAP``
    is refused before the first step.  k is clamped where 2^k already
    passes the cap, as in :func:`_refined_facets`, so a huge k is cheap;
    on at most one vertex sd changes nothing after its first step.
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    T = trivial(vertices)
    if _refined_facets(T, None) ** min(k, FACETS_CAP.bit_length()) > FACETS_CAP:
        raise ValueError(f"sd^{k} would build more than {FACETS_CAP} facets")
    for _ in range(k if len(T.base.vertices) > 1 else min(k, 1)):
        T = barycentric(T)
    return T


def random_triangulation(vertices, steps: int, seed: int) -> Triangulation:
    """Random stellar subdivisions of a simplex, reproducible by seed.

    Each step lists the faces with at least two vertices in canonical
    order and stars the one picked by ``Random(seed).randrange``.  More
    than ``STEPS_CAP`` steps are refused before the first one.
    """
    if steps > STEPS_CAP:
        raise ValueError(f"random refinement is limited to {STEPS_CAP} steps")
    rng = random.Random(seed)
    T = trivial(vertices)
    for _ in range(steps):
        eligible = [g for g in T.total.faces() if len(g) >= 2]
        if not eligible:
            break
        T = stellar(T, eligible[rng.randrange(len(eligible))])
    return T


def _carrier_masks(T: Triangulation, carriers: dict) -> dict:
    """Bit mask of each base face in ``carriers``, bit i for ``T.base.vertices[i]``."""
    bit = {v: 1 << i for i, v in enumerate(T.base.vertices)}
    return {key: sum(bit[u] for u in c) for key, c in carriers.items()}


def face_table(T: Triangulation) -> dict[tuple[int, int], int]:
    """Faces of ``T.total`` counted by (carrier mask, face size).

    A face's mask ORs its vertices' :func:`_carrier_masks`.  It lies in
    the restriction to a base face F exactly when its mask is inside
    F's, so one table answers every restriction's face counts at once.
    Only the faces without an interior vertex are walked one by one;
    those through one all have the full mask and are counted per size
    by subtraction (:func:`_tabulate_faces`).  The table is built once
    per ``T`` and shared by every caller, who must only read it.
    """
    return T._face_table


def _tabulate_faces(T: Triangulation) -> dict[tuple[int, int], int]:
    """:func:`face_table`, walking in Python only the faces without an
    interior vertex, one whose carrier mask is the whole base.

    A face through an interior vertex has the full mask, so those faces
    are counted by subtraction, size by size: all faces minus the
    walked ones.  A walked face can have the full mask too (an edge
    between two vertices whose carriers together cover the base), so
    the difference is added to its count.  The walked faces are freed
    before any set of all k-faces is built, and only one face set is
    alive at a time.
    """
    vertex_mask = _carrier_masks(T, T.vertex_carrier)
    full = (1 << len(T.base.vertices)) - 1
    inner = {v for v, mask in vertex_mask.items() if mask == full}
    facets = T.total.facets
    top = T.total.dimension() + 1
    table = {} if T.total.is_void else {(0, 0): 1}
    outer = _project(facets, vertex_mask.keys() - inner) if inner else facets
    walked = _add_faces(table, outer, vertex_mask, top)
    if not inner:
        return table
    del outer
    for k in range(1, top + 1):
        if k == 1:
            count = len(T.total.vertices)
        elif k == top:  # every top-sized face is a facet
            count = len(facets) - bisect_left(facets, k, key=len)
        else:
            count = len(_faces_of_size(facets, k))
        if count > walked[k]:
            table[full, k] = table.get((full, k), 0) + count - walked[k]
    return table


def _add_faces(table: dict, facets, vertex_mask: dict, top: int) -> list[int]:
    """Count the faces of ``facets`` with 1..top vertices into ``table``
    by (carrier mask, size); returns how many faces of each size there
    were.  Every vertex must have a mask."""
    walked = [0] * (top + 1)
    for k in range(1, top + 1):
        faces = _faces_of_size(facets, k)
        walked[k] = len(faces)
        for g in faces:
            mask = 0
            for v in g:
                mask |= vertex_mask[v]
            key = (mask, k)
            table[key] = table.get(key, 0) + 1
    return walked


def _restriction_f_vectors(T: Triangulation, table):
    """Each base face, in canonical order, with the f-vector of its
    restriction read off ``table = face_table(T)``; the vector runs past
    the face's size when the restriction has a face too big for it."""
    for f, fm in _carrier_masks(T, {f: f for f in T.base.faces()}).items():
        counts = [0] * (len(f) + 1)
        for (mask, size), count in table.items():
            if mask | fm == fm:
                counts.extend([0] * (size + 1 - len(counts)))
                counts[size] += count
        yield f, tuple(counts)


def _refuse_oversize(T: Triangulation) -> None:
    """Raise the error ``h_polynomial`` gives for the first restriction,
    in canonical order, with a face too big for its base face, as
    Stanley's sum over restrictions would."""
    table = face_table(T)
    if any(size > mask.bit_count() for mask, size in table):
        for f, fv in _restriction_f_vectors(T, table):
            top = len(fv) - 1
            if top > len(f):
                raise ValueError(f"complex of dimension {top - 1} needs n >= {top}")


class NotUniformError(ValueError):
    """Restriction face counts depend on more than dimension.

    ``witness`` holds two equal-sized base faces whose restrictions
    have different f-vectors.
    """

    def __init__(self, first: Face, second: Face, vectors):
        self.witness = (first, second)
        super().__init__(
            f"restrictions to {first} and {second} differ: "
            f"{vectors[0]} vs {vectors[1]}")


@dataclass(frozen=True)
class FTriangle:
    """Face counts of a uniform triangulation, one row per dimension.

    ``rows[j][i]`` counts the i-vertex faces in the subdivision of a
    j-vertex base face; row j has entries for i = 0..j.
    """

    n: int
    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if len(self.rows) != self.n + 1:
            raise ValueError(f"expected {self.n + 1} rows, got {len(self.rows)}")
        for j, row in enumerate(self.rows):
            if len(row) != j + 1:
                raise ValueError(f"row {j} must have {j + 1} entries")
            if row[0] != 1:
                raise ValueError(f"f(0,{j}) must be 1, got {row[0]}")
            if row[j] < 1:
                raise ValueError(f"f({j},{j}) must be positive, got {row[j]}")
            if j >= 1 and row[1] < j:
                raise ValueError(f"f(1,{j}) must be at least {j}, got {row[1]}")


def f_triangle_of(T: Triangulation) -> FTriangle:
    """Face-count triangle of ``T``; raises NotUniformError if mixed.

    The base must be pure and not void, and no restriction may have a
    face too big for its base face.  Row j is the f-vector of the
    restriction to any j-vertex base face, read off :func:`face_table`
    after checking that they all agree.
    """
    _refuse_oversize(T)
    if T.base.is_void:
        raise ValueError("the base complex must not be void")
    if not T.base.is_pure():
        raise ValueError("the base complex must be pure")
    n = T.base.dimension() + 1
    rows: list[tuple[int, ...]] = []
    ref_faces: list[Face] = []
    for f, fv in _restriction_f_vectors(T, face_table(T)):
        if len(f) == len(rows):
            rows.append(fv)
            ref_faces.append(f)
        elif fv != rows[len(f)]:
            raise NotUniformError(ref_faces[len(f)], f, (rows[len(f)], fv))
    return FTriangle(n, tuple(rows))


def f_triangle(kind: str, n: int) -> FTriangle:
    """Face-count triangle of the n-simplex refined by sd or esd:R.

    Nothing is built: row j is the f-vector of the refined simplex on j
    vertices, read off its h-polynomial, :func:`reference`: the Eulerian
    polynomial for sd (Brenti-Welker) and ``E_nr(j, R)`` for esd:R
    (Athanasiadis); esd:1 is the unrefined simplex.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    return FTriangle(n, tuple(f_vector_from_h(reference(kind, j), j)
                              for j in range(n + 1)))


def validate_triangulation(T: Triangulation) -> dict[Face, Triangulation]:
    """Check the rules the constructor leaves open; raises ValueError on the first hit.

    The last rule builds the restriction to every base face, top-down
    (:func:`_restrictions`), and checks in canonical order that each is
    a pure triangulation of that face's dimension.  Those restrictions
    are returned, keyed by base face in canonical order, so a caller
    that needs them does not build them again.
    """
    carried = set(_carrier_masks(T, {f: f for f in T.base.faces()}).values())
    if not carried.issuperset(mask for mask, _ in face_table(T)):
        vertex_mask = _carrier_masks(T, T.vertex_carrier)
        bad = [g for g in T.total.face_set()
               if reduce(or_, map(vertex_mask.__getitem__, g), 0) not in carried]
        g = min(bad, key=lambda g: (len(g), g))
        raise ValueError(f"face {g} is not carried by any base face")
    restrictions = _restrictions(T)
    for f, R in restrictions.items():
        sub = R.total
        if not sub.is_pure() or sub.dimension() != len(f) - 1:
            raise ValueError(f"restriction to {f} is not a triangulation of it")
    return restrictions


def triangulation_to_json(T: Triangulation) -> dict:
    """Plain-dict form: base, total, and stringified carrier map."""
    return {
        "base": complex_to_json(T.base),
        "total": complex_to_json(T.total),
        "carrier": {str(v): list(c) for v, c in sorted(T.vertex_carrier.items())},
    }


def _nested_complex(obj, key: str) -> SimplicialComplex:
    try:
        return complex_from_json(obj[key])
    except SchemaError as err:
        raise SchemaError(f"/{key}{err.path}", err.message) from None


def triangulation_from_json(obj) -> Triangulation:
    """Read either input form: the wire form of a triangulation, or a
    bare complex, which is lifted to its :func:`identity`.

    The loader checks only the wire format and reports it at JSON
    pointer paths; the :class:`Triangulation` constructor checks the
    carrier map.  :func:`complex_from_json` refuses a facet past
    ``INPUT_FACET_CAP`` vertices, ``base`` before ``total`` is read.
    """
    if not isinstance(obj, dict):
        raise SchemaError("", "expected an object")
    if "facets" in obj and "carrier" not in obj:
        return identity(complex_from_json(obj))
    for key in ("base", "total", "carrier"):
        if key not in obj:
            raise SchemaError(f"/{key}", "missing required key")
    base = _nested_complex(obj, "base")
    total = _nested_complex(obj, "total")
    raw = obj["carrier"]
    if not isinstance(raw, dict):
        raise SchemaError("/carrier", "expected an object")
    carriers: dict[int, Face] = {}
    for k, val in raw.items():
        v = _vertex_key(k)
        if v is None:
            raise SchemaError(f"/carrier/{k}", "key must be an integer vertex id")
        if not isinstance(val, list) or not _all_ints(val):
            raise SchemaError(f"/carrier/{k}", "carrier must be a list of integers")
        carriers[v] = face(val)
    return Triangulation(base, total, carriers)
