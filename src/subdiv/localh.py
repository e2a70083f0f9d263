"""Local h-polynomials and their expansion over uniform subdivisions.

Stanley defines the local h-polynomial of a triangulation of the
(n-1)-simplex on V as the alternating sum
sum_{F <= V} (-1)^{n-|F|} h(restriction to F).  Swapping the sum over
base faces F with the sum over faces G of the triangulation gives

    ell = sum_G x^|G| (-x)^(n-c(G)) (1-x)^(c(G)-|G|),

where c(G) is the size of the carrier of G, so the faces counted by
carrier and size (:func:`face_table`) are enough; faces through an
interior vertex are counted there per size, not one by one.  For a
subdivision built uniformly (same face counts over every base face of a
given size, recorded in an FTriangle) that polynomial decomposes into a
fixed family ell_mkj with nonnegative integer weights read off the inner
triangulation alone.
"""

from __future__ import annotations

from dataclasses import dataclass

from .complexes import h_from_f_vector
from .perm import d_nkj, derangement_counts
from .poly import Poly, add, binom, mul, power, scale, shift
from .triangulate import (
    FTriangle,
    Triangulation,
    _refuse_oversize,
    face_table,
    validate_triangulation,
)


def _require_simplex_base(T: Triangulation) -> tuple[int, ...]:
    verts = T.base.vertices
    if T.base.facets != (verts,):
        raise ValueError("the base complex must be a full simplex")
    return verts


def _graded_faces(T: Triangulation) -> tuple[int, list[list[int]]]:
    """Base size n and, for each carrier size c, the face counts by size
    of the faces whose carrier has c vertices.

    A restriction with a face too big for its base face is refused
    first, by :func:`_refuse_oversize`.
    """
    verts = _require_simplex_base(T)
    _refuse_oversize(T)
    graded = [[0] * (c + 1) for c in range(len(verts) + 1)]
    for (mask, size), count in face_table(T).items():
        graded[mask.bit_count()][size] += count
    return len(verts), graded


def _local_h_sum(graded, n: int, m: int) -> Poly:
    """Sum of the local h-polynomials of the restrictions to all m-subsets.

    A face with carrier size c <= m lies in C(n-c, m-c) of them and
    contributes x^i (-x)^(m-c) (1-x)^(c-i) to each, i its size; summed
    over carrier size c, that is (-x)^(m-c) times an h-polynomial.
    """
    return add(*(scale(shift(h_from_f_vector(graded[c], c), m - c),
                       (-1) ** (m - c) * binom(n - c, m - c))
                 for c in range(m + 1)))


def local_h(T: Triangulation) -> Poly:
    """Local h-polynomial, summed over faces by carrier and size.

    Equals Stanley's alternating sum over base faces F of the
    h-polynomials of the restrictions to F (see the module docstring).
    """
    n, graded = _graded_faces(T)
    return _local_h_sum(graded, n, n)


def h_from_local(T: Triangulation) -> Poly:
    """Sum of local h-polynomials of all restrictions.

    Inverts :func:`local_h`; the result equals the h-polynomial of
    ``T.total`` for a sound triangulation.  The restrictions summed over
    are the built complexes that :func:`validate_triangulation` checks
    and returns, so a triangulation it rejects raises its message here.
    Summed over ``T``'s face table alone the result would be h(T.total)
    by algebra, and a round trip against it would prove nothing.
    """
    _require_simplex_base(T)
    return add(*map(local_h, validate_triangulation(T).values()))


@dataclass(frozen=True)
class CoefficientMatrix:
    """Weights c_{k,j}, k + j <= n, of the uniform decomposition.

    ``rows[k]`` holds the values for j = 0..n-k.
    """

    n: int
    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if len(self.rows) != self.n + 1:
            raise ValueError(f"expected {self.n + 1} rows, got {len(self.rows)}")
        for k, row in enumerate(self.rows):
            if len(row) != self.n - k + 1:
                raise ValueError(f"row {k} must have {self.n - k + 1} entries")

    def entries(self) -> tuple[tuple[int, int, int], ...]:
        """Nonzero (k, j, value) triples in row-major order."""
        return tuple((k, j, v) for k, row in enumerate(self.rows)
                     for j, v in enumerate(row) if v)


def c_coefficients(G: Triangulation) -> CoefficientMatrix:
    """Decomposition weights of a triangulation of a simplex.

    c_{k,j} adds up the x^j coefficients of the local h-polynomials of
    the restrictions of ``G`` to all (n-k)-subsets of the base.
    """
    n, graded = _graded_faces(G)
    rows = []
    for k in range(n + 1):
        ell = _local_h_sum(graded, n, n - k)
        rows.append(tuple(ell) + (0,) * (n - k + 1 - len(ell)))
    return CoefficientMatrix(n, tuple(rows))


def p_poly(F: FTriangle, m: int, k: int) -> Poly:
    """Binomial transform of the h-polynomials of sizes m-k..m."""
    if not (0 <= k <= m <= F.n):
        raise ValueError(f"need 0 <= k <= m <= {F.n}, got k={k}, m={m}")
    return add(*(scale(mul(power((-1, 1), i), h_from_f_vector(F.rows[m - i], m - i)),
                       binom(k, i))
                 for i in range(k + 1)))


def ell_mk(F: FTriangle, m: int, k: int) -> Poly:
    """Alternating version of :func:`p_poly` with the sign on the
    binomial instead of a power of x - 1; interpolates from the h-row
    at k = 0 down to the local h-polynomial at k = m."""
    if not (0 <= k <= m <= F.n):
        raise ValueError(f"need 0 <= k <= m <= {F.n}, got k={k}, m={m}")
    return add(*(scale(h_from_f_vector(F.rows[m - i], m - i), (-1) ** i * binom(k, i))
                 for i in range(k + 1)))


def ell_mkj(F: FTriangle, m: int, k: int, j: int) -> Poly:
    """The two-parameter refinement; defined only for k + j <= m.

    Outside that range the defining sum still evaluates but stops
    satisfying the identities that make it useful, so it is an error.
    """
    if not (0 <= m <= F.n):
        raise ValueError(f"need 0 <= m <= {F.n}, got m={m}")
    if k < 0 or j < 0 or k + j > m:
        raise ValueError(f"need k, j >= 0 with k + j <= m, got k={k}, j={j}, m={m}")
    return add(*(scale(p_poly(F, m - i, j), (-1) ** i * binom(k, i))
                 for i in range(k + 1)))


def local_h_via_uniform(F: FTriangle, c: CoefficientMatrix) -> Poly:
    """Local h-polynomial of a uniform refinement, from weights alone.

    Combines ``ell_mkj(F, n, k, j)`` with the weights of the inner
    triangulation; equals ``local_h`` of the composed subdivision.
    """
    if c.n > F.n:
        raise ValueError(f"matrix size {c.n} exceeds triangle size {F.n}")
    return add(*(scale(ell_mkj(F, c.n, k, j), value) for k, j, value in c.entries()))


def second_sd_local_h(n: int) -> Poly:
    """Local h-polynomial of the twice barycentrically subdivided
    (n-1)-simplex, assembled from permutation statistics.

    Fixed-point-free permutations of the complementary set weight the
    position-refined d-polynomials; equals the direct computation on
    the built subdivision.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    return add(*(scale(d_nkj(n, k, j), binom(n, k) * count)
                 for k in range(n + 1)
                 for j, count in enumerate(derangement_counts(n - k))
                 if count))
