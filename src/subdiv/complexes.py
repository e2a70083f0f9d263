"""Finite abstract simplicial complexes over integer vertex ids.

A complex is stored by its inclusion-maximal faces; the vertex tuple,
the face set and the ordered face list are computed lazily and
memoized.  Two degenerate complexes are kept distinct on purpose: the
void complex (no faces at all) and the empty complex whose only face is
the empty set.  The latter carries h-polynomial 1 and shows up as the
restriction of a subdivision to the empty base face, so the distinction
is load-bearing.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import chain, combinations, repeat

from .poly import Poly, binom, normalize

Face = tuple[int, ...]


def face(vertices) -> Face:
    """Sorted, deduplicated face from any iterable of vertex ids."""
    vs = set()
    for v in vertices:
        if isinstance(v, bool) or not isinstance(v, int):
            raise TypeError(f"vertex ids must be integers, got {v!r}")
        vs.add(v)
    return tuple(sorted(vs))


def _faces_of_size(facets, k: int) -> set[Face]:
    """The k-vertex subsets of sorted facets, as one set."""
    return set(chain.from_iterable(map(combinations, facets, repeat(k))))


class SchemaError(ValueError):
    """Invalid JSON input; ``path`` is a JSON pointer to the offender."""

    def __init__(self, path: str, message: str):
        self.path = path
        self.message = message
        super().__init__(f"{path or '<root>'}: {message}")


class SimplicialComplex:
    """Immutable complex determined by its facets.

    The constructor puts the facets in canonical order and checks
    nothing else: they must be distinct, inclusion-maximal sorted int
    tuples, with labels naming only their vertices.  :func:`from_facets`
    checks any input and drops duplicate and dominated facets.
    Labels are provenance strings for display only and do not take part
    in equality.  ``vertices``, the unordered ``face_set()`` and the
    canonically ordered ``faces()`` are computed on first use and
    memoized, which is safe because the facets never change.
    """

    __slots__ = ("facets", "labels", "_vertices", "_faces", "_face_set")

    def __init__(self, facets, labels: dict[int, str]):
        self.facets: tuple[Face, ...] = tuple(sorted(sorted(facets), key=len))
        self.labels = labels
        self._vertices: tuple[int, ...] | None = None
        self._faces: tuple[Face, ...] | None = None
        self._face_set: frozenset[Face] | None = None

    @property
    def is_void(self) -> bool:
        return not self.facets

    @property
    def vertices(self) -> tuple[int, ...]:
        if self._vertices is None:
            self._vertices = tuple(sorted({v for f in self.facets for v in f}))
        return self._vertices

    def dimension(self) -> int:
        """Largest facet size minus one; -1 for empty, -2 for void.
        The facets are in canonical order, so the last is a largest."""
        if self.is_void:
            return -2
        return len(self.facets[-1]) - 1

    def is_pure(self) -> bool:
        """All facets of one size: the first and last, in canonical order."""
        return self.is_void or len(self.facets[0]) == len(self.facets[-1])

    def face_set(self) -> frozenset[Face]:
        """All faces, unordered: enough for lookups."""
        if self._face_set is None:
            self._face_set = frozenset(chain.from_iterable(
                combinations(f, k) for f in self.facets for k in range(len(f) + 1)))
        return self._face_set

    def faces_of_size(self, k: int) -> set[Face]:
        """The k-vertex faces, unordered, built afresh on every call so
        that counting keeps no face set alive."""
        return _faces_of_size(self.facets, k)

    def faces(self):
        """All faces in canonical order: by size, then lexicographic."""
        if self._faces is None:
            by_size = [[] for _ in range(self.dimension() + 2)]
            for g in self.face_set():
                by_size[len(g)].append(g)
            self._faces = tuple(g for group in by_size for g in sorted(group))
        return iter(self._faces)

    def __contains__(self, item) -> bool:
        return tuple(item) in self.face_set()

    def f_vector(self) -> tuple[int, ...]:
        """(f_{-1}, f_0, ..., f_{dim}); the void complex gives ().

        Only the sizes strictly between one vertex and a facet of top
        size build a face set (:meth:`faces_of_size`): f_{-1} is 1, f_0
        counts ``vertices``, and every top-sized face is a facet, all of
        which sit at the end of the canonical order.
        """
        if self.is_void:
            return ()
        top = len(self.facets[-1])
        if top < 2:
            return (1,) if top == 0 else (1, len(self.vertices))
        inner = [len(self.faces_of_size(k)) for k in range(2, top)]
        f_top = len(self.facets) - bisect_left(self.facets, top, key=len)
        return (1, len(self.vertices), *inner, f_top)

    def __eq__(self, other):
        return isinstance(other, SimplicialComplex) and self.facets == other.facets

    def __hash__(self):
        return hash(self.facets)

    def __repr__(self):
        if self.is_void:
            return "SimplicialComplex(void)"
        return f"SimplicialComplex({len(self.facets)} facets, dim {self.dimension()})"


def from_facets(facets, labels: dict[int, str] | None = None) -> SimplicialComplex:
    """Build a complex, dropping duplicate and dominated facets."""
    K = SimplicialComplex(_maximal(map(face, facets)), dict(labels) if labels else {})
    if K.labels and not set(K.labels) <= set(K.vertices):
        raise ValueError("labels reference vertices outside the complex")
    return K


def _maximal(facets) -> list[Face]:
    """Distinct, inclusion-maximal ones of the sorted int tuples ``facets``,
    each checked against the kept larger ones through its rarest vertex."""
    candidates = sorted(set(facets), key=len, reverse=True)
    kept: list[Face] = []
    # vertex -> kept facets through it strictly larger than the current one
    larger: dict[int, list[set]] = {}
    promoted = 0
    for f in candidates:
        while promoted < len(kept) and len(kept[promoted]) > len(f):
            gs = set(kept[promoted])
            for v in gs:
                larger.setdefault(v, []).append(gs)
            promoted += 1
        if promoted:  # some kept facet is larger than f
            if not f:
                continue
            rarest = min((larger.get(v, ()) for v in f), key=len)
            if any(map(set(f).issubset, rarest)):
                continue
        kept.append(f)
    return kept


def full_simplex(vertices) -> SimplicialComplex:
    """The complex of all subsets of the given vertex set."""
    return SimplicialComplex([face(vertices)], {})


def h_polynomial(K: SimplicialComplex, n: int | None = None) -> Poly:
    """h-polynomial of ``K`` at ambient degree ``n``.

    Computes sum_i f_{i-1} x^i (1-x)^{n-i} with n defaulting to
    dim(K)+1.  An explicit larger n embeds a low-dimensional complex in
    an ambient formula; n below dim+1 is an error.  The void complex
    has h = 0, the empty complex h = 1.
    """
    if K.is_void:
        return ()
    if n is None:
        n = K.dimension() + 1
    if K.dimension() > n - 1:
        raise ValueError(f"complex of dimension {K.dimension()} needs n >= {K.dimension() + 1}")
    return h_from_f_vector(K.f_vector(), n)


def h_from_f_vector(fv, n: int) -> Poly:
    """sum_i fv[i] x^i (1-x)^{n-i}: the h-polynomial of face counts.

    ``fv[i]`` counts the i-vertex faces; entries past index n must be
    absent.  Shared by :func:`h_polynomial` and the rows of a face
    triangle.
    """
    coeffs = [0] * (n + 1)
    for i, count in enumerate(fv):
        if count:
            for t in range(i, n + 1):
                coeffs[t] += (-1) ** (t - i) * binom(n - i, t - i) * count
    return normalize(coeffs)


def f_vector_from_h(h: Poly, n: int) -> tuple[int, ...]:
    """Invert :func:`h_polynomial`: recover (f_{-1}, ..., f_{n-1})."""
    h = normalize(h)
    out = []
    for i in range(n + 1):
        out.append(sum(binom(n - j, i - j) * h[j] for j in range(min(i, len(h) - 1) + 1)))
    return tuple(out)


def is_flag(K: SimplicialComplex) -> bool:
    """True when every minimal nonface has exactly two vertices.

    Equivalently, every clique of the 1-skeleton is a face; by induction
    on its size, every face g of two or more vertices spans a face with
    each vertex adjacent to all of g.
    """
    adj = {v: set() for v in K.vertices}
    for f in K.facets:
        for a, b in combinations(f, 2):
            adj[a].add(b)
            adj[b].add(a)
    return all(tuple(sorted(g + (v,))) in K
               for g in K.faces() if len(g) >= 2
               for v in set.intersection(*(adj[u] for u in g)))


def complex_to_json(K: SimplicialComplex) -> dict:
    out = {"vertices": list(K.vertices), "facets": [list(f) for f in K.facets]}
    if K.labels:
        out["labels"] = {str(v): K.labels[v] for v in sorted(K.labels)}
    return out


def _all_ints(values) -> bool:
    """True when every entry is an int and none is a bool.  Exact ints,
    all that JSON gives, are checked in one C-level pass."""
    return ({int}.issuperset(map(type, values))
            or all(isinstance(v, int) and not isinstance(v, bool) for v in values))


def _expect_ints(values, path: str) -> None:
    """Raise at the first entry of ``values`` that is not an int."""
    if _all_ints(values):
        return
    for i, v in enumerate(values):
        if isinstance(v, bool) or not isinstance(v, int):
            raise SchemaError(f"{path}/{i}", f"expected an integer, got {v!r}")


def _vertex_key(key) -> int | None:
    """The vertex id that a JSON object key spells, or None unless the
    key is its canonical form ``str(v)``, the form the package writes,
    so that two spellings can never name one vertex."""
    try:
        v = int(key)
    except (TypeError, ValueError):
        return None
    return v if str(v) == key else None


def complex_from_json(obj) -> SimplicialComplex:
    """Parse ``{"vertices": [int], "facets": [[int]]}`` with validation.

    Errors carry JSON-pointer paths.  The declared vertex list must
    equal the union of the facets: isolated vertices belong in facets
    of size one.
    """
    if not isinstance(obj, dict):
        raise SchemaError("", "expected an object")
    if "facets" not in obj:
        raise SchemaError("/facets", "missing required key")
    if "vertices" not in obj:
        raise SchemaError("/vertices", "missing required key")
    raw_vertices = obj["vertices"]
    if not isinstance(raw_vertices, list):
        raise SchemaError("/vertices", "expected a list")
    _expect_ints(raw_vertices, "/vertices")
    declared = set(raw_vertices)
    raw_facets = obj["facets"]
    if not isinstance(raw_facets, list):
        raise SchemaError("/facets", "expected a list")
    facets = []
    for i, raw in enumerate(raw_facets):
        if not isinstance(raw, list):
            raise SchemaError(f"/facets/{i}", "expected a list of vertex ids")
        _expect_ints(raw, f"/facets/{i}")
        f = set(raw)
        if not f <= declared:
            raise SchemaError(f"/facets/{i}", "facet uses undeclared vertices")
        facets.append(tuple(sorted(f)))
    used = set(chain.from_iterable(facets))
    if used != declared:
        missing = sorted(declared - used)
        raise SchemaError("/vertices", f"vertices {missing} appear in no facet")
    labels = {}
    if "labels" in obj:
        raw_labels = obj["labels"]
        if not isinstance(raw_labels, dict):
            raise SchemaError("/labels", "expected an object")
        for key, val in raw_labels.items():
            v = _vertex_key(key)
            if v is None:
                raise SchemaError(f"/labels/{key}", "key is not a vertex id")
            if v not in declared:
                raise SchemaError(f"/labels/{key}", "label for unknown vertex")
            if not isinstance(val, str):
                raise SchemaError(f"/labels/{key}", "label must be a string")
            labels[v] = val
    # Every entry is an int and every label names a used vertex, which
    # is all that from_facets would check again.
    return SimplicialComplex(_maximal(facets), labels)
