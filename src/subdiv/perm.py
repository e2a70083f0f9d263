"""Permutation statistics and their enumerating polynomials.

Permutations are tuples in one-line notation over [n], 1-indexed: w[i-1]
is the image of i.

The polynomial families enumerate nothing: each is an entry of one table
of d_nkj, built from size n-1 by the row recurrences.  They keep the S_10
bound of the enumerations that once computed them, so that which
arguments are answered and which refused stays stable.  ``MAX_ENUM_N``
bounds the real enumerations over S_n, which ``_check_enum`` guards (10!
is a few seconds of work; everything downstream needs n <= 8).
"""

from __future__ import annotations

from functools import lru_cache
from itertools import accumulate

from .poly import Poly, add, shift, veronese

MAX_ENUM_N = 10
# E_nr(n, r) costs about n^2 (r - 1) additions; 2,000,000 of them take
# 0.9-1.3 s on a 2-vCPU machine with Python 3.11, over n = 2..1414.
E_NR_BUDGET = 2_000_000

Perm = tuple[int, ...]


def _check_perm(w: Perm) -> None:
    if sorted(w) != list(range(1, len(w) + 1)):
        raise ValueError(f"not a permutation of 1..{len(w)}: {w!r}")


def _check_enum(n: int) -> None:
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n > MAX_ENUM_N:
        raise ValueError(f"enumeration over S_{n} exceeds the desk-scale bound {MAX_ENUM_N}")


def ascents(w: Perm) -> int:
    return sum(1 for i in range(len(w) - 1) if w[i] < w[i + 1])


def fixed_points(w: Perm) -> frozenset[int]:
    return frozenset(i for i, v in enumerate(w, start=1) if v == i)


def _split_sum(rows: tuple[Poly, ...], j: int) -> Poly:
    """x * (rows[0] + ... + rows[j-1]) + rows[j] + ... + rows[-1]."""
    return add(shift(add(*rows[:j]), 1), *rows[j:])


@lru_cache(maxsize=None)
def _d_table(n: int) -> tuple[tuple[Poly, ...], ...]:
    """Row k is (d_nkj(n, k, j) for j = 0..n), built from size n-1 by
    the row recurrences, starting from d_000 = 1."""
    if n == 0:
        return (((1,),),)
    prev = _d_table(n - 1)
    table = [tuple(_split_sum(prev[k], j) if j <= n - k
                   else add(_split_sum(prev[k], j), prev[k][j - 1])
                   for j in range(n + 1))
             for k in range(n)]
    rows = prev[n - 1]
    table.append((add(*rows[1:]),)
                 + tuple(_split_sum(rows, j) for j in range(1, n + 1)))
    return tuple(table)


def eulerian(n: int) -> Poly:
    """The descent enumerator over S_n, with the empty product giving 1.

    It is d_n00: :func:`foata` followed by reversal sends excedances to
    descents.
    """
    _check_enum(n)
    return _d_table(n)[0][0]


def p_nk(n: int, k: int) -> Poly:
    """Descent enumerator over permutations of [n+1] with first value k+1,
    which is ``d_nkj(n, 0, k)``."""
    if not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= n, got k={k}, n={n}")
    _check_enum(n + 1)
    return _d_table(n)[0][k]


def d_nk(n: int, k: int) -> Poly:
    """Excedance enumerator over w in S_n with all fixed points in [n-k]."""
    if not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= n, got k={k}, n={n}")
    _check_enum(n)
    return _d_table(n)[k][0]


def d_nkj(n: int, k: int, j: int) -> Poly:
    """Excedance enumerator over w in S_{n+1} with fixed points in
    [n+1-k] and value 1 in position j+1.

    Indices outside 0 <= k, j <= n are rejected; no convention is defined
    out there and silent extension would break the identities that hold
    in range.
    """
    if not (0 <= k <= n and 0 <= j <= n):
        raise ValueError(f"need 0 <= k, j <= n, got n={n}, k={k}, j={j}")
    _check_enum(n + 1)
    return _d_table(n)[k][j]


def foata(w: Perm) -> Perm:
    """The fundamental transformation: write each cycle with its smallest
    element first, sort cycles by decreasing smallest element, erase the
    parentheses."""
    _check_perm(w)
    n = len(w)
    seen = [False] * (n + 1)
    cycles: list[list[int]] = []
    for start in range(1, n + 1):
        # First unvisited element of a cycle is its minimum.
        if seen[start]:
            continue
        cyc = [start]
        seen[start] = True
        v = w[start - 1]
        while v != start:
            cyc.append(v)
            seen[v] = True
            v = w[v - 1]
        cycles.append(cyc)
    cycles.sort(key=lambda c: -c[0])
    return tuple(v for cyc in cycles for v in cyc)


def bad_points(w: Perm) -> frozenset[int]:
    """Values w(j) where j is a left-to-right minimum position and either
    j is the last position or w(j) > w(j+1).

    The source definition garbles one index (it tests i where only j is
    in scope); this is the j reading, the one under which the fixed-point
    property of the fundamental transformation holds for all n <= 8.
    """
    _check_perm(w)
    n = len(w)
    out = set()
    cur_min = n + 1
    for idx in range(n):
        if w[idx] < cur_min:
            cur_min = w[idx]
            if idx == n - 1 or w[idx] > w[idx + 1]:
                out.add(w[idx])
    return frozenset(out)


def derangement_counts(n: int) -> tuple[int, ...]:
    """Number of fixed-point-free permutations of [n] by excedance count.

    Returns (D_{n,0}, ..., D_{n,n-1}) for n >= 1 and (1,) for n = 0.
    """
    _check_enum(n)
    counts = _d_table(n)[n][0]
    # S_1 has no derangements; for n >= 2 the top count D_{n,n-1} is 1.
    return counts + (0,) * (n - len(counts))


def E_nr(n: int, r: int) -> Poly:
    """h-polynomial of the r-fold edgewise subdivision of the simplex on
    n vertices, computed as a Veronese section of ``(1+x+...+x^(r-1))^n``.

    It equals the ascent enumerator of the words {0..n-1} -> {0..r-1}
    with first letter 0.  Each factor 1+x+...+x^(r-1) turns a coefficient
    list into its sums over windows of r, read off prefix sums, so the
    power costs O(n^2 r) rather than the O(n^2 r^2) of repeated ``mul``;
    arguments with ``n^2 (r - 1)`` past ``E_NR_BUDGET`` are refused.

    ``f_triangle`` reads the esd:R face counts off these polynomials;
    verify's edgewise suites build their triangles instead, so that the
    formulas they test are not compared with themselves.
    """
    if n < 1 or r < 1:
        raise ValueError("need n >= 1 and r >= 1")
    if n * n * (r - 1) > E_NR_BUDGET:
        raise ValueError(f"E_nr({n}, {r}) exceeds the budget n^2 (r - 1) "
                         f"<= {E_NR_BUDGET}")
    coeffs = [1]
    for _ in range(n):
        prefix = list(accumulate(coeffs, initial=0))
        m = len(coeffs)
        coeffs = [prefix[min(i + 1, m)] - prefix[max(i + 1 - r, 0)]
                  for i in range(m + r - 1)]
    return veronese(coeffs, r, 0)
