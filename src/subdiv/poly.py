"""Dense exact polynomials over the integers and rationals.

A polynomial is a plain tuple of coefficients, index i holding the
coefficient of x^i, with trailing zeros stripped; the zero polynomial is
the empty tuple. Coefficients are Python ints (arbitrary precision) or
fractions.Fraction where rational scalars enter. All operations are pure
and never touch floating point.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import comb
from typing import Iterable, Sequence, Union

Coeff = Union[int, Fraction]
Poly = tuple[Coeff, ...]

ZERO: Poly = ()
ONE: Poly = (1,)


class PolyParseError(ValueError):
    """Raised when a polynomial string does not parse."""


class NotSymmetricError(ValueError):
    """Raised by gamma_vector when the input is not symmetric about n/2."""


def normalize(coeffs: Iterable[Coeff]) -> Poly:
    """Strip trailing zeros; () is the zero polynomial."""
    out = list(coeffs)
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def degree(f: Sequence[Coeff]) -> int:
    """Degree of f, with -1 for the zero polynomial."""
    return len(f) - 1


def add(*fs: Sequence[Coeff]) -> Poly:
    """Sum of any number of polynomials; ``add()`` is zero."""
    out: list[Coeff] = [0] * max(map(len, fs), default=0)
    for f in fs:
        for i, c in enumerate(f):
            out[i] += c
    return normalize(out)


def neg(f: Sequence[Coeff]) -> Poly:
    return tuple(-c for c in f)


def sub(f: Sequence[Coeff], g: Sequence[Coeff]) -> Poly:
    return add(f, neg(g))


def mul(f: Sequence[Coeff], g: Sequence[Coeff]) -> Poly:
    if not f or not g:
        return ZERO
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a == 0:
            continue
        for j, b in enumerate(g):
            out[i + j] += a * b
    return normalize(out)


def scale(f: Sequence[Coeff], c: Coeff) -> Poly:
    return normalize(c * a for a in f)


def shift(f: Sequence[Coeff], m: int) -> Poly:
    """Multiply by x^m."""
    if m < 0:
        raise ValueError("shift exponent must be nonnegative")
    if not f:
        return ZERO
    return (0,) * m + tuple(f)


def power(f: Sequence[Coeff], k: int) -> Poly:
    if k < 0:
        raise ValueError("negative power")
    out: Poly = ONE
    for _ in range(k):
        out = mul(out, f)
    return out


def derivative(f: Sequence[Coeff]) -> Poly:
    return normalize(i * f[i] for i in range(1, len(f)))


def reverse(f: Sequence[Coeff], n: int) -> Poly:
    """x^n * f(1/x) for deg(f) <= n; sends the zero polynomial to itself."""
    f = normalize(f)
    if not f:
        return ZERO
    if degree(f) > n:
        raise ValueError(f"reverse needs deg(f) <= n, got deg {degree(f)} > {n}")
    padded = tuple(f) + (0,) * (n + 1 - len(f))
    return normalize(reversed(padded))


def veronese(f: Sequence[Coeff], r: int, i: int) -> Poly:
    """The i-th Veronese r-section: keep coefficients of x^(i+r*t)."""
    if not 0 <= i < r:
        raise ValueError(f"section index must satisfy 0 <= i < r, got i={i}, r={r}")
    return normalize(f[i::r])


def is_symmetric(f: Sequence[Coeff], n: int) -> bool:
    """True iff the coefficient of x^i equals that of x^(n-i) for all i."""
    f = normalize(f)
    if degree(f) > n:
        raise ValueError(f"deg(f)={degree(f)} exceeds ambient n={n}")
    padded = tuple(f) + (0,) * (n + 1 - len(f))
    return padded == padded[::-1]


def gamma_vector(f: Sequence[Coeff], n: int) -> tuple[Coeff, ...]:
    """Coordinates of f in the basis x^i (1+x)^(n-2i), i = 0..floor(n/2).

    The change of basis is unitriangular, so the expansion is computed by
    downward elimination and is exact. Raises NotSymmetricError when f is
    not symmetric with center n/2 (the basis only spans such polynomials).
    """
    if not is_symmetric(f, n):
        raise NotSymmetricError(f"not symmetric with center {n}/2")
    rem = normalize(f)
    gammas = []
    for i in range(n // 2 + 1):
        g = rem[i] if i < len(rem) else 0
        gammas.append(g)
        if g != 0:
            rem = sub(rem, shift(scale(power((1, 1), n - 2 * i), g), i))
    if rem != ZERO:
        raise NotSymmetricError("gamma elimination left a nonzero remainder")
    return tuple(gammas)


_TERM = re.compile(r"([+-]?)(\d+)?(?:\*?(x)(?:\^(\d+))?)?$")

# The largest exponent parse_poly accepts, so that a coefficient list
# stays small.  `interlace --explain` on prod(x+k, k<64) against
# prod(2x+2k-1, k<=64) takes about 5 s (2 vCPU Xeon, Python 3.11), and
# at degree 72 it takes 17 s.
MAX_EXPONENT = 64


def parse_poly(text: str) -> Poly:
    """Parse `2x+8x^2+x^3` or the spelled-out `2*x + 8*x^2 + x^3` form.

    An exponent past ``MAX_EXPONENT`` is refused before any coefficient
    list is built.
    """
    s = text.replace(" ", "").replace("**", "^")
    if not s:
        raise PolyParseError("empty polynomial string")
    coeffs: dict[int, int] = {}
    terms = re.split(r"(?=[+-])", s)
    for term in terms:
        if term == "":
            continue
        if term in ("+", "-"):
            raise PolyParseError(f"dangling sign in {text!r}")
        m = _TERM.fullmatch(term)
        if not m or (m.group(2) is None and m.group(3) is None):
            raise PolyParseError(f"bad term {term!r} in {text!r}")
        sign = -1 if m.group(1) == "-" else 1
        coeff = int(m.group(2)) if m.group(2) is not None else 1
        if m.group(3) is None:
            exp = 0
        elif m.group(4) is None:
            exp = 1
        else:
            exp = int(m.group(4))
            if exp > MAX_EXPONENT:
                raise PolyParseError(f"exponent {exp} in {text!r} is past "
                                     f"the limit of {MAX_EXPONENT}")
        coeffs[exp] = coeffs.get(exp, 0) + sign * coeff
    top = max(coeffs)
    return normalize(coeffs.get(i, 0) for i in range(top + 1))


def format_poly(f: Sequence[Coeff]) -> str:
    """Canonical compact text form: `2x+8x^2+x^3`, `0` for zero."""
    f = normalize(f)
    if not f:
        return "0"
    parts = []
    for i, c in enumerate(f):
        if c == 0:
            continue
        mag = abs(c)
        if i == 0:
            body = str(mag)
        else:
            xs = "x" if i == 1 else f"x^{i}"
            body = xs if mag == 1 else f"{mag}{xs}"
        if not parts:
            parts.append(("-" if c < 0 else "") + body)
        else:
            parts.append(("-" if c < 0 else "+") + body)
    return "".join(parts)


def poly_to_json(f: Sequence[Coeff]) -> list[str]:
    """JSON form: the coefficient array as decimal strings."""
    return [str(c) for c in normalize(f)]


def binom(n: int, k: int) -> int:
    """Binomial coefficient, zero outside 0 <= k <= n."""
    if k < 0 or k > n:
        return 0
    return comb(n, k)
