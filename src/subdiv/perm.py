"""Permutation statistics and their enumerating polynomials.

Permutations are tuples in one-line notation over [n], 1-indexed: w[i-1]
is the image of i. Enumerations over S_n are capped at n <= 10 (10! is a
few seconds of work; everything downstream needs n <= 8).
"""

from __future__ import annotations

from functools import lru_cache
from itertools import permutations

from .poly import Poly, normalize, power, veronese

MAX_ENUM_N = 10

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


def _counts_to_poly(counts: dict[int, int]) -> Poly:
    if not counts:
        return ()
    top = max(counts)
    return normalize(counts.get(i, 0) for i in range(top + 1))


@lru_cache(maxsize=None)
def _sweep(m: int) -> dict[tuple[int, int, int], int]:
    """One pass over S_m keyed by (max fixed point, position of value 1, exc).

    max fixed point is 0 for fixed-point-free permutations, so the
    constraint Fix(w) within [t] reads as maxfix <= t.
    """
    _check_enum(m)
    if m == 0:
        # The empty permutation: no fixed points, no value 1, no excedances.
        return {(0, 0, 0): 1}
    acc: dict[tuple[int, int, int], int] = {}
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


def _exc_poly(m: int, keep) -> Poly:
    """Excedance enumerator over the w in S_m whose max fixed point and
    position of value 1 pass ``keep(maxfix, pos)``."""
    counts: dict[int, int] = {}
    for (maxfix, pos, exc), cnt in _sweep(m).items():
        if keep(maxfix, pos):
            counts[exc] = counts.get(exc, 0) + cnt
    return _counts_to_poly(counts)


def eulerian(n: int) -> Poly:
    """The descent enumerator over S_n, with the empty product giving 1.

    Read off the sweep as the excedance enumerator: :func:`foata`
    followed by reversal sends excedances to descents.
    """
    return _exc_poly(n, lambda maxfix, pos: True)


def p_nk(n: int, k: int) -> Poly:
    """Descent enumerator over permutations of [n+1] with first value k+1.

    This is ``d_nkj(n, 0, k)``, but the n! tails after k+1 are n+1 times
    fewer permutations than the sweep of S_{n+1} it would read.
    """
    if not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= n, got k={k}, n={n}")
    _check_enum(n + 1)
    counts: dict[int, int] = {}
    rest = [v for v in range(1, n + 2) if v != k + 1]
    for tail in permutations(rest):
        w = (k + 1,) + tail
        d = sum(1 for i in range(n) if w[i] > w[i + 1])
        counts[d] = counts.get(d, 0) + 1
    return _counts_to_poly(counts)


def d_nk(n: int, k: int) -> Poly:
    """Excedance enumerator over w in S_n with all fixed points in [n-k]."""
    if not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= n, got k={k}, n={n}")
    return _exc_poly(n, lambda maxfix, pos: maxfix <= n - k)


def d_nkj(n: int, k: int, j: int) -> Poly:
    """Excedance enumerator over w in S_{n+1} with fixed points in
    [n+1-k] and value 1 in position j+1.

    Indices outside 0 <= k, j <= n are rejected; no convention is defined
    out there and silent extension would break the identities that hold
    in range.
    """
    if not (0 <= k <= n and 0 <= j <= n):
        raise ValueError(f"need 0 <= k, j <= n, got n={n}, k={k}, j={j}")
    return _exc_poly(n + 1, lambda maxfix, pos: pos == j + 1 and maxfix <= n + 1 - k)


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
    counts = _exc_poly(n, lambda maxfix, pos: maxfix == 0)
    # S_1 has no derangements; for n >= 2 the top count D_{n,n-1} is 1.
    return counts + (0,) * (n - len(counts))


def E_nr(n: int, r: int) -> Poly:
    """h-polynomial of the r-fold edgewise subdivision of the simplex on
    n vertices, computed as a Veronese section of ``(1+x+...+x^(r-1))^n``.

    It equals the ascent enumerator of the words {0..n-1} -> {0..r-1}
    with first letter 0.
    """
    if n < 1 or r < 1:
        raise ValueError("need n >= 1 and r >= 1")
    return veronese(power((1,) * r, n), r, 0)
