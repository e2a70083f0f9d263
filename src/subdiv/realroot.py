"""Exact certificates for real-rootedness and interlacing.

A polynomial's rational coefficients are cleared once, where it enters;
signed remainder sequences (sign-correct pseudo-remainders, stripped of
content), exact division and root deflation then run in integers.  So do
sign counts: at a rational point ``p/q`` with ``q > 0`` the sign of
``f(p/q)`` is that of the integer ``q^d * f(p/q)``, taken by Horner in
ints.  ``Fraction`` is left only in interval endpoints, bisection
midpoints and root bounds.  The signed remainder sequence is the only
gcd routine: its last entry is the gcd of its two inputs up to a
constant.  Yes/no answers are certified by one sign count at +-infinity
each, which reads only leading coefficients and degrees: ``f`` is
real-rooted when the Sturm count of distinct real roots reaches
``deg f - deg gcd(f, f')``, and ``f`` interlaces ``g`` when the Cauchy
index of ``f/g`` reaches ``deg g - deg gcd(f, g)`` (the
Hermite-Kakeya-Obreschkoff criterion).  Root isolation serves
``isolate_roots``, whose intervals the CLI prints with ``--explain``
as evidence.  It bisects the squarefree part
``f / gcd(f, f')`` once, only down to isolating intervals, and reads
each multiplicity off the Sturm chains of ``f``, of ``gcd(f, f')``, and
so on.  The ends of an open interval are non-roots of ``f``; a root is
printed exactly when an integer probe or a bisection midpoint finds it.
No floating point is involved, so a ``True`` answer is a proof, not an
estimate.

Interlacing follows the weak-alternation convention: ``f`` interlaces
``g`` when both are real-rooted, ``deg g - 1 <= deg f <= deg g``, and
their roots alternate ``... <= alpha_2 <= beta_2 <= alpha_1 <= beta_1``
(alphas are roots of ``f``, betas of ``g``, listed in decreasing order
with multiplicity).  The zero polynomial interlaces and is interlaced by
every real-rooted polynomial, and nonzero constants interlace every
polynomial of degree at most one.  Every public function strips
trailing zero coefficients first, so ``(1, 1, 0)`` is ``1 + x``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .poly import Poly, degree, derivative, normalize

_SCAN_LIMIT = 64  # integer root candidates probed before bisection


def _strip(f) -> Poly:
    """Divide integer coefficients by their positive content."""
    content = math.gcd(*f)
    return tuple(c // content for c in f)


def _int_primitive(f: Poly) -> Poly:
    """Clear denominators and strip content, keeping the sign."""
    scale = math.lcm(*(c.denominator for c in f))
    return _strip([c.numerator * (scale // c.denominator) for c in f])


def _pos_primitive(f: Poly) -> Poly:
    g = _int_primitive(f)
    return tuple(-c for c in g) if g and g[-1] < 0 else g


def _pseudo_remainder(a: Poly, b: Poly) -> list[int]:
    """A positive multiple of the remainder of ``a`` by ``b``, in integers.

    Each step scales by a divisor of ``|lc b|`` rather than by ``lc b``,
    so the factor is positive and every sign of the remainder is kept.
    """
    r = list(a)
    lead, db = b[-1], len(b) - 1
    while len(r) > db:
        c = r.pop()
        if c:
            g = math.gcd(c, lead)
            s, t = abs(lead) // g, (c if lead > 0 else -c) // g
            if s != 1:
                r = [s * x for x in r]
            k = len(r) - db
            for i in range(db):
                r[k + i] -= t * b[i]
    while r and r[-1] == 0:
        r.pop()
    return r


def _exact_quotient(f: Poly, g: Poly) -> Poly:
    """``f / g`` for an integer ``f`` and a primitive integer ``g``.

    By Gauss's lemma the quotient of an exact division has integer
    coefficients; a nonzero remainder raises ``ArithmeticError``.
    """
    r = list(f)
    lead, dg = g[-1], len(g) - 1
    q = [0] * max(0, len(r) - dg)
    while len(r) > dg:
        c, rest = divmod(r.pop(), lead)
        if rest:
            raise ArithmeticError("division was expected to be exact")
        k = len(r) - dg
        q[k] = c
        for i in range(dg):
            r[k + i] -= c * g[i]
    if any(r):
        raise ArithmeticError("division was expected to be exact")
    return tuple(q)


def _remainder_sequence(a: Poly, b: Poly) -> tuple[Poly, ...]:
    """Signed remainder sequence ``a, b, -rem(a, b), ...``.

    Every entry is content-stripped by a positive factor, which keeps
    all sign counts intact.
    """
    chain = [_int_primitive(a)]
    b = _int_primitive(b)
    while b:
        chain.append(b)
        b = _strip([-c for c in _pseudo_remainder(chain[-2], b)])
    return tuple(chain)


@lru_cache(maxsize=8192)
def sturm_chain(f: Poly) -> tuple[Poly, ...]:
    """Signed remainder chain of ``f``, content-stripped at each step."""
    f = normalize(f)
    return _remainder_sequence(f, derivative(f))


def _variations(values) -> int:
    """Sign changes in a sequence of numbers, zeros skipped."""
    signs = [v > 0 for v in values if v]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def _index_at_infinity(chain) -> int:
    """``Var(-oo) - Var(+oo)`` of a signed remainder sequence.

    For the sequence of ``(a, b)`` this is the Cauchy index of ``b/a``
    over the whole real line; for a Sturm chain it is the number of
    distinct real roots.  Only leading coefficients and degrees are read;
    no entry is zero, since callers return early on zero input and a
    remainder sequence stops before zero.
    """
    at_neg_inf = (-p[-1] if degree(p) % 2 else p[-1] for p in chain)
    return _variations(at_neg_inf) - _variations(p[-1] for p in chain)


def _scaled_value(f: Poly, x) -> int:
    """``q^d * f(p/q)`` for an integer ``f`` of degree ``d`` at ``x = p/q``.

    ``x`` is a ``Fraction`` or an int (``q = 1``), so ``q > 0`` and the
    value is an integer with the sign of ``f(x)``, zero exactly when
    ``f(x)`` is.  Horner runs in ints with one running power of ``q``.
    """
    p, q = x.numerator, x.denominator
    acc, qk = 0, 1
    for c in reversed(f):
        acc = acc * p + c * qk
        qk *= q
    return acc


def _count_roots(chain, a, b, cache) -> int:
    """Distinct roots of ``chain[0]`` in the open interval ``(a, b)``.

    Both endpoints must be non-roots of ``chain[0]``.
    """
    for x in (a, b):
        if x not in cache:
            cache[x] = _variations(_scaled_value(p, x) for p in chain)
    return cache[a] - cache[b]


def cauchy_bound(f: Poly) -> Fraction:
    """Strict bound: every root of ``f`` has absolute value below it."""
    f = normalize(f)
    if degree(f) < 1:
        return Fraction(1)
    return 1 + Fraction(max(abs(c) for c in f[:-1])) / abs(f[-1])


def _split(p: Poly, chain, a, b, t, cache) -> tuple:
    """The half of ``(a, b)`` split at ``t`` that isolates the root of
    ``p`` there, or ``(t, t)`` when ``t`` is that root."""
    if _scaled_value(p, t) == 0:
        return t, t
    if _count_roots(chain, a, t, cache) == 1:
        return a, t
    return t, b


def _isolate_squarefree(p: Poly):
    """Isolate the real roots of a squarefree primitive polynomial.

    Returns ``(intervals, exacts)`` where ``exacts`` are rational roots
    found on the way and ``intervals`` are open intervals with one root
    of ``p`` each, holding no root in ``exacts`` and with endpoints that
    are non-roots of ``p``.  Some real roots may go undetected only if
    ``p`` has nonreal roots; callers compare counts against the degree
    to certify real-rootedness.
    """
    exacts: list[Fraction] = []
    if p and p[0] == 0:
        exacts.append(Fraction(0))
        p = tuple(p[1:])
    bound = cauchy_bound(p)
    limit = min(int(bound), _SCAN_LIMIT)
    for c in range(1, limit + 1):
        for s in (c, -c):
            # an integer root divides the constant term, nonzero by now
            if degree(p) >= 1 and p[0] % c == 0 and _scaled_value(p, s) == 0:
                exacts.append(Fraction(s))
                p = _exact_quotient(p, (-s, 1))

    while True:
        if degree(p) == 1:
            exacts.append(Fraction(-p[0], p[1]))
            p = (p[1],)
        if degree(p) < 1:
            return [], sorted(exacts)
        chain = sturm_chain(p)
        bound = cauchy_bound(p)
        cache: dict = {}
        total = _count_roots(chain, -bound, bound, cache)
        stack = [(-bound, bound, total)]
        out: list[tuple[Fraction, Fraction]] = []
        hit = None
        while stack:
            a, b, cnt = stack.pop()
            if cnt == 0:
                continue
            if cnt == 1:
                out.append((a, b))
                continue
            m = (a + b) / 2
            if _scaled_value(p, m) == 0:
                hit = m
                break
            left = _count_roots(chain, a, m, cache)
            stack.append((a, m, left))
            stack.append((m, b, cnt - left))
        if hit is None:
            break
        exacts.append(hit)
        p = _exact_quotient(p, (-hit.numerator, hit.denominator))

    # Shrink intervals until neither interior nor endpoints meet a
    # previously extracted root; downstream Sturm counts of arbitrary
    # divisors of the original polynomial need root-free endpoints.
    avoid = set(exacts)
    cleaned = []
    for a, b in out:
        while a != b and (a in avoid or b in avoid
                          or any(a < c < b for c in avoid)):
            t = (a + b) / 2
            while t in avoid:
                t = (a + t) / 2
            a, b = _split(p, chain, a, b, t, cache)
        if a == b:
            exacts.append(a)
        else:
            cleaned.append((a, b))
    return sorted(cleaned), sorted(exacts)


@dataclass(frozen=True)
class RootIsolation:
    """Disjoint intervals, one per distinct real root, with multiplicity.

    Entries are ``(lo, hi, mult)`` in increasing order.  An open
    interval ``lo < hi`` holds one root and ends at non-roots of the
    polynomial; a rational root that an integer probe or a bisection
    midpoint found exactly appears degenerate, ``lo == hi``.
    """

    intervals: tuple[tuple[Fraction, Fraction, int], ...]

    def pretty(self) -> str:
        if not self.intervals:
            return "no real roots"
        parts = []
        for lo, hi, m in self.intervals:
            body = f"{lo}" if lo == hi else f"({lo}, {hi})"
            parts.append(body if m == 1 else f"{body} x{m}")
        return ", ".join(parts)


def is_real_rooted(f: Poly) -> bool:
    """True when every complex root of ``f`` is real.

    The Sturm chain of ``f`` counts its distinct real roots even when
    ``f`` has repeated roots, and its last entry is ``gcd(f, f')``, so
    ``f`` has ``deg f - deg gcd(f, f')`` distinct roots in all.  The
    zero polynomial and constants count as real-rooted.
    """
    f = normalize(f)
    if not f:
        return True
    chain = sturm_chain(f)
    return _index_at_infinity(chain) == degree(f) - degree(chain[-1])


def isolate_roots(f: Poly) -> RootIsolation:
    """Certified isolation of all roots of a real-rooted polynomial.

    The ends of every open interval are non-roots of ``f``, and a root
    is exact when an integer probe or a bisection midpoint finds it.
    Raises ``ValueError`` for the zero polynomial and for polynomials
    with nonreal roots.
    """
    f = normalize(f)
    if not f:
        raise ValueError("cannot isolate roots of the zero polynomial")
    if degree(f) == 0:
        return RootIsolation(())

    # Each chain's last entry is the gcd of its head and the head's
    # derivative, so a root of f of multiplicity m is a root of the
    # first m heads.  The ends of p's intervals are non-roots of p,
    # hence of every head, and each interval holds one root.
    chains = [sturm_chain(f)]
    while degree(chains[-1][-1]) > 0:
        chains.append(sturm_chain(chains[-1][-1]))
    p = _pos_primitive(_exact_quotient(chains[0][0], chains[0][-1]))
    intervals, exacts = _isolate_squarefree(p)
    if len(intervals) + len(exacts) != degree(p):
        raise ValueError("polynomial has nonreal roots")
    entries = [(c, c, 1 + sum(_scaled_value(ch[0], c) == 0 for ch in chains[1:]))
               for c in exacts]
    entries += [(a, b, 1 + sum(_count_roots(ch, a, b, {}) for ch in chains[1:]))
                for a, b in intervals]
    return RootIsolation(tuple(sorted(entries)))


def interlace_reason(f: Poly, g: Poly) -> tuple[bool, str]:
    """Whether ``f`` interlaces ``g``, and the reason for that verdict."""
    f, g = normalize(f), normalize(g)
    if not f or not g:
        other = f or g
        if not other:
            return True, "both polynomials are zero"
        if is_real_rooted(other):
            return True, "zero polynomial convention"
        return False, "the nonzero polynomial is not real-rooted"
    if not is_real_rooted(f):
        return False, "first polynomial is not real-rooted"
    if not is_real_rooted(g):
        return False, "second polynomial is not real-rooted"
    df, dg = degree(f), degree(g)
    if not (dg - 1 <= df <= dg):
        return False, f"degree {df} outside window [{dg - 1}, {dg}]"
    if dg < 1:
        return True, "no roots to compare"
    # Hermite-Kakeya-Obreschkoff: with h = gcd(f, g), f interlaces g
    # exactly when the Cauchy index of f/g over the real line reaches
    # its maximum, deg g - deg h.  The sequence of (g, f) is h times
    # that of (g/h, f/h) and ends in h, and a common factor does not
    # change the sign counts at +-infinity.  The index changes sign
    # with either leading coefficient, so both are made positive.
    chain = _remainder_sequence(_pos_primitive(g), _pos_primitive(f))
    if _index_at_infinity(chain) != dg - degree(chain[-1]):
        return False, "root alternation fails"
    return True, "roots weakly alternate"


def interlaces(f: Poly, g: Poly) -> bool:
    """True when ``f`` interlaces ``g`` (``f`` below, ``g`` above)."""
    return interlace_reason(f, g)[0]


def is_interlacing_sequence(fs) -> bool:
    """True when ``f_i`` interlaces ``f_j`` for every ``i < j``.

    Sequences may contain zero polynomials; each nonzero entry must be
    real-rooted.
    """
    polys = [normalize(f) for f in fs]
    for p in polys:
        if p and not is_real_rooted(p):
            return False
    return all(
        interlaces(polys[i], polys[j])
        for i in range(len(polys))
        for j in range(i + 1, len(polys))
    )
