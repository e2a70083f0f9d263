"""Exact real-rootedness and interlacing certificates.

Ground truth in the randomized corpus comes from construction (products
of linear factors are real-rooted; a planted conjugate pair is not), so
the checks are exact rather than numerically informed.
"""

import hashlib
import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import eval_at
from subdiv import realroot
from subdiv.perm import E_nr, d_nkj, eulerian
from subdiv.poly import (
    add,
    degree,
    derivative,
    mul,
    normalize,
    parse_poly,
    power,
    reverse,
    shift,
    sub,
    veronese,
)
from subdiv.realroot import (
    _count_roots,
    _exact_quotient,
    _interlace_core,
    _isolate_squarefree,
    _remainder_sequence,
    _scaled_value,
    cauchy_bound,
    interlace_report,
    interlaces,
    is_interlacing_sequence,
    is_real_rooted,
    isolate_roots,
    sturm_chain,
)

P = parse_poly
COUNTEREXAMPLE = P("7x+42x^2+63x^3+42x^4+7x^5")


class TestSquarefree:
    def test_repeated_root_removed(self):
        assert _oracle_squarefree(P("1+2x+x^2")) == (1, 1)

    def test_already_squarefree(self):
        assert _oracle_squarefree(P("1+4x+x^2")) == (1, 4, 1)

    def test_monomial(self):
        assert _oracle_squarefree((0, 0, 0, 1)) == (0, 1)

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            _oracle_squarefree(())

    def test_sign_normalization(self):
        assert _oracle_squarefree((-1, -2, -1)) == (1, 1)


class TestRealRooted:
    def test_eulerian(self):
        assert is_real_rooted(P("1+4x+x^2"))

    def test_counterexample_fails(self):
        assert not is_real_rooted(COUNTEREXAMPLE)

    def test_zero_and_constants(self):
        assert is_real_rooted(())
        assert is_real_rooted((5,))

    def test_complex_pair(self):
        assert not is_real_rooted((1, 0, 1))

    def test_repeated_roots_ok(self):
        assert is_real_rooted(power((1, 1), 4))

    def test_corpus(self):
        # 200 products of linear factors, 200 with a planted conjugate
        # pair; construction is the oracle.
        rng = random.Random(20260816)
        for _ in range(200):
            f = (rng.randint(1, 4),)
            for _ in range(rng.randint(1, 8)):
                f = mul(f, (rng.randint(-9, 9), rng.randint(1, 3)))
            assert is_real_rooted(f), f
        for _ in range(200):
            b = rng.randint(-6, 6)
            c = rng.randint(1 + b * b // 4, 9 + b * b // 4)
            g = (c, b, 1)  # discriminant b^2 - 4c < 0
            assert b * b - 4 * c < 0
            for _ in range(rng.randint(0, 6)):
                g = mul(g, (rng.randint(-9, 9), rng.randint(1, 3)))
            assert not is_real_rooted(g), g


def _exact_roots(iso):
    return tuple(lo for lo, hi, _ in iso.intervals if lo == hi)


class TestIsolation:
    def test_exact_roots(self):
        iso = isolate_roots(P("x+x^2"))
        assert set(_exact_roots(iso)) == {Fraction(-1), Fraction(0)}
        assert [m for _, _, m in iso.intervals] == [1, 1]

    def test_multiplicity(self):
        iso = isolate_roots(power((1, 1), 3))
        assert list(iso.intervals) == [(Fraction(-1), Fraction(-1), 3)]

    def test_irrational_pair(self):
        f = P("1+4x+x^2")  # roots -2-sqrt(3), -2+sqrt(3)
        iso = isolate_roots(f)
        assert len(iso.intervals) == 2
        assert _exact_roots(iso) == ()
        for lo, hi, mult in iso.intervals:
            assert mult == 1
            assert lo < hi
            # sign change certifies a root inside
            assert eval_at(f, lo) * eval_at(f, hi) < 0
        (l0, h0, _), (l1, h1, _) = iso.intervals
        assert h0 <= l1

    def test_disjoint_and_sorted_across_multiplicities(self):
        # (x^2-2) (1+x)^2: roots -sqrt2, -1, sqrt2 with mults 1,2,1
        f = mul((-2, 0, 1), power((1, 1), 2))
        iso = isolate_roots(f)
        assert [m for _, _, m in iso.intervals] == [1, 2, 1]
        for (a, b, _), (c, d, _) in zip(iso.intervals, iso.intervals[1:]):
            assert b <= c

    def test_rejects_nonreal(self):
        with pytest.raises(ValueError):
            isolate_roots((1, 0, 1))

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            isolate_roots(())

    def test_cleanup_keeps_intervals_off_extracted_roots(self):
        # The integer scan extracts -11 and 19; the cleanup loop then moves
        # endpoints off them, so bisection's (-11, 0) prints as
        # (-10675/1024, 0).  `interlace --explain` shows these strings.
        f = (13366386, 243067, -1904656, 299061, 2774, -2528, 96)
        assert isolate_roots(f).pretty() == (
            "-11, (-10675/1024, 0), (0, 10675/2048), "
            "(10675/2048, 32025/4096), (32025/4096, 10675/1024), 19"
        )


class TestSturm:
    def test_chain_head(self):
        chain = sturm_chain((0, -1, 0, 1))  # x^3 - x
        assert chain[0] == (0, -1, 0, 1)
        assert len(chain) >= 3


class TestInterlaces:
    def test_shared_root(self):
        assert interlaces((1, 1), (0, 1, 1))

    def test_eulerian_straddles(self):
        assert interlaces(P("1+4x+x^2"), P("2x+2x^2"))

    def test_counterexample_not_interlaced(self):
        assert not interlaces(P("1+4x+x^2"), COUNTEREXAMPLE)

    def test_shifted_eulerian(self):
        assert interlaces(P("1+4x+x^2"), P("x+4x^2+x^3"))

    def test_zero_conventions(self):
        assert interlaces((), P("1+4x+x^2"))
        assert interlaces(P("1+4x+x^2"), ())
        assert interlaces((), ())
        assert not interlaces((), (1, 0, 1))

    def test_constant_conventions(self):
        assert interlaces((1,), (2, 1))
        assert interlaces((3,), (7,))
        assert not interlaces((1,), (1, 2, 1))  # degree gap too wide

    def test_degree_window(self):
        assert not interlaces(P("1+2x+x^2"), (1, 1))

    def test_order_matters(self):
        assert interlaces(P("3x+x^2"), P("x+3x^2"))
        assert not interlaces(P("x+3x^2"), P("3x+x^2"))

    def test_equal_polynomials(self):
        f = P("1+4x+x^2")
        assert interlaces(f, f)

    def test_repeated_common_roots(self):
        f = power((1, 1), 2)
        assert interlaces(f, f)
        assert interlaces(f, mul(f, (2, 1)))

    def test_report_reason(self):
        rep = interlace_report(P("1+4x+x^2"), COUNTEREXAMPLE)
        assert not rep.ok
        assert "real" in rep.reason

    def test_report_ok_has_isolations(self):
        rep = interlace_report((1, 1), (0, 1, 1))
        assert rep.ok
        assert rep.g_isolation is not None and len(rep.g_isolation.intervals) == 2


class TestSequences:
    def test_table_row(self):
        fs = [P("3x+x^2"), P("2x+2x^2"), P("x+3x^2"), P("x+4x^2+x^3")]
        assert is_interlacing_sequence(fs)

    def test_constant_then_linear(self):
        assert is_interlacing_sequence([(1,), (1, 1)])

    def test_swapped_pair_fails(self):
        assert not is_interlacing_sequence([P("x+3x^2"), P("3x+x^2")])

    @pytest.mark.parametrize("n", range(1, 6))
    def test_consecutive_plus_extremes_shortcut_consistent(self, n):
        # When consecutive pairs interlace, the pairwise definition holds
        # too on these families; guards the sequence checker against
        # accidental strengthening.
        for k in range(n + 1):
            fs = [d_nkj(n, k, j) for j in range(n + 1)]
            consecutive = all(interlaces(a, b) for a, b in zip(fs, fs[1:]))
            if consecutive and interlaces(fs[0], fs[-1]):
                assert is_interlacing_sequence(fs)


class TestClosureProperties:
    @pytest.mark.parametrize("n", range(2, 5))
    def test_reversal_is_antitone(self, n):
        for k in range(n + 1):
            for j in range(n - k):
                f, g = d_nkj(n, k, j), d_nkj(n, k, j + 1)
                if interlaces(f, g):
                    assert interlaces(reverse(g, n + 1), reverse(f, n + 1))

    @pytest.mark.parametrize("n", range(2, 6))
    def test_sum_closure(self, n):
        for k in range(n - 1):
            f1, f2, g = d_nkj(n, k, 0), d_nkj(n, k, 1), d_nkj(n, k, 2)
            assert interlaces(f1, g) and interlaces(f2, g)
            assert interlaces(add(f1, f2), g)

    @pytest.mark.parametrize("n", range(2, 7))
    def test_staircase_matrix_preserves_interlacing(self, n):
        # g_0 = f_2+...+f_n and g_i = x*(f_1+...+f_i) + (f_{i+1}+...+f_n);
        # the step that lifts the maximal-k family one level up.
        def total(ps):
            acc = ()
            for p in ps:
                acc = add(acc, p)
            return acc

        fs = [d_nkj(n - 1, n - 1, i) for i in range(n)]
        assert is_interlacing_sequence(fs)
        gs = [total(fs[1:])]
        gs += [add(shift(total(fs[:i]), 1), total(fs[i:])) for i in range(1, n + 1)]
        assert is_interlacing_sequence(gs)
        assert gs == [d_nkj(n, n, j) for j in range(n + 1)]


class TestSectionSequences:
    @pytest.mark.parametrize("r", range(2, 6))
    @pytest.mark.parametrize("n", range(1, 5))
    def test_shifted_section_fan(self, r, n):
        f = power((1,) * r, n)
        for m in range(4):
            xs = shift(f, m)
            seq = [veronese(xs, r, (r - j) % r) for j in range(1, r + 1)]
            assert is_interlacing_sequence(seq)

    @pytest.mark.parametrize("r", range(2, 6))
    @pytest.mark.parametrize("n", range(1, 5))
    def test_truncated_multiplier_fan(self, r, n):
        f = power((1,) * r, n)
        for t in range(r):
            g = mul((1,) * (t + 1), f)
            seq = [veronese(g, r, (r - j) % r) for j in range(1, r + 1)]
            assert is_interlacing_sequence(seq)

    @pytest.mark.parametrize("n", range(1, 6))
    def test_word_ascent_polynomials_real_rooted(self, n):
        for r in range(1, 6):
            assert is_real_rooted(E_nr(n, r))

    @pytest.mark.parametrize("n", range(1, 6))
    def test_word_polynomial_interlaces_own_reversal(self, n):
        # holds for r >= n, where the strictly increasing word exists
        for r in range(n, 7):
            e = E_nr(n, r)
            assert interlaces(e, reverse(e, n))


# Oracle: the slot route that certified interlacing before the Cauchy
# index did.  It isolates every distinct root of f*g, counts each
# polynomial's multiplicity per root slot and walks the alternation.
# Its gcds come from a Euclid of its own over Fraction, never from the
# tail of a remainder sequence in the code under test.


def _oracle_divmod(f, g):
    q = [Fraction(0)] * max(0, len(f) - len(g) + 1)
    r = [Fraction(c) for c in f]
    while r and len(r) >= len(g):
        k = len(r) - len(g)
        q[k] = r[-1] / g[-1]
        for i, c in enumerate(g):
            r[k + i] -= q[k] * c
        r.pop()
        r = list(normalize(r))
    return normalize(q), tuple(r)


def _oracle_gcd(f, g):
    """Monic gcd of ``f`` and ``g`` by Euclid; () when both are zero."""
    a, b = normalize(f), normalize(g)
    while b:
        a, b = b, _oracle_divmod(a, b)[1]
    return tuple(Fraction(c) / a[-1] for c in a) if a else ()


def _oracle_primitive(f):
    """Integer multiple of ``f`` with content 1 and positive lead."""
    fr = [Fraction(c) for c in f]
    scale = math.lcm(*(c.denominator for c in fr))
    ints = [int(c * scale) for c in fr]
    content = math.gcd(*ints) * (1 if ints[-1] > 0 else -1)
    return tuple(c // content for c in ints)


def _oracle_squarefree(f):
    """``f / gcd(f, f')``: the distinct roots of ``f``, each simple."""
    f = normalize(f)
    if not f:
        raise ValueError("the zero polynomial has no squarefree part")
    q, r = _oracle_divmod(f, _oracle_gcd(f, derivative(f)))
    assert not r
    return _oracle_primitive(q)


def _oracle_real_rooted(f):
    f = normalize(f)
    if not f or degree(f) == 0:
        return True
    sf = _oracle_squarefree(f)
    bound = cauchy_bound(sf)
    return _count_roots(sturm_chain(sf), -bound, bound, {}) == degree(sf)


def _oracle_slots(sf):
    ivs, exs = _isolate_squarefree(sf)
    slots = [(c, c) for c in exs] + [(a, b) for a, b in ivs]
    slots.sort(key=lambda s: (s[0] + s[1]) / 2)
    return slots


def _oracle_multiplicities(f, slots):
    # A root of multiplicity m divides f, gcd(f, f'), ... exactly m times.
    # A slot holds one distinct root of f*g and no root at an interval
    # endpoint, so a squarefree divisor has it there exactly when it
    # vanishes at a point slot or changes sign across an interval.
    counts = [0] * len(slots)
    p = normalize(f)
    while degree(p) > 0:
        sf = _oracle_squarefree(p)
        for idx, (a, b) in enumerate(slots):
            if (eval_at(sf, a) == 0 if a == b
                    else eval_at(sf, a) * eval_at(sf, b) < 0):
                counts[idx] += 1
        p = _oracle_gcd(p, derivative(p))
    return counts


def _oracle_interlace(f, g):
    f, g = normalize(f), normalize(g)
    if not f or not g:
        other = f or g
        if not other:
            return True, "both polynomials are zero"
        if _oracle_real_rooted(other):
            return True, "zero polynomial convention"
        return False, "the nonzero polynomial is not real-rooted"
    if not _oracle_real_rooted(f):
        return False, "first polynomial is not real-rooted"
    if not _oracle_real_rooted(g):
        return False, "second polynomial is not real-rooted"
    df, dg = degree(f), degree(g)
    if not (dg - 1 <= df <= dg):
        return False, f"degree {df} outside window [{dg - 1}, {dg}]"
    sf = _oracle_squarefree(mul(f, g))
    if degree(sf) < 1:
        return True, "no roots to compare"
    slots = _oracle_slots(sf)
    mf = _oracle_multiplicities(f, slots)
    mg = _oracle_multiplicities(g, slots)
    assert sum(mf) == df and sum(mg) == dg
    alphas = [i for i in reversed(range(len(slots))) for _ in range(mf[i])]
    betas = [i for i in reversed(range(len(slots))) for _ in range(mg[i])]
    for i, beta in enumerate(betas):
        if i < len(alphas) and alphas[i] > beta:
            return False, "root alternation fails"
        if i + 1 < len(betas) and betas[i + 1] > alphas[i]:
            return False, "root alternation fails"
    return True, "roots weakly alternate"


GRID = sorted({Fraction(k, d) for d in (1, 2, 3) for k in range(-6, 7)})


def _from_roots(lead, roots, quadratics):
    f = (lead,)
    for c in roots:
        f = mul(f, (-c.numerator, c.denominator))
    for _ in range(quadratics):
        f = mul(f, (1, 0, 1))
    return f


@st.composite
def _poly_pairs(draw):
    """(f, g) from grid roots: shared and repeated roots, x^2+1 factors,
    either sign, zero and constant polynomials, degree gaps -2..+1."""
    root = st.sampled_from(GRID)
    common = draw(st.lists(root, max_size=3))
    g_own = sorted(draw(st.lists(root, max_size=5)))
    gap = draw(st.sampled_from((-2, -1, 0, 1)))
    if draw(st.booleans()) and g_own:
        # roots of f placed in the closed gaps of g, so many pairs
        # interlace or fail only at one end
        f_own = [draw(st.sampled_from([c for c in GRID if a <= c <= b]))
                 for a, b in zip(g_own, g_own[1:])]
        if gap >= 0:
            f_own.append(draw(st.sampled_from([c for c in GRID if c <= g_own[0]])))
        if gap > 0:
            f_own.append(draw(root))
    else:
        size = max(0, len(g_own) + gap)
        f_own = draw(st.lists(root, min_size=size, max_size=size))
    lead = st.sampled_from((-3, -2, -1, 1, 2, 3))
    quads = st.sampled_from((0, 0, 0, 1))
    f = _from_roots(draw(lead), common + f_own, draw(quads))
    g = _from_roots(draw(lead), common + g_own, draw(quads))
    zero = draw(st.sampled_from((None,) * 8 + ("f", "g", "both")))
    if zero in ("f", "both"):
        f = ()
    if zero in ("g", "both"):
        g = ()
    return f, g


def _outcome(fn, *args):
    try:
        return ("value", fn(*args))
    except ValueError as err:
        return ("ValueError", str(err))


class TestTrailingZeros:
    """A coefficient tuple padded with zeros is the same polynomial."""

    @settings(max_examples=150, deadline=None)
    @given(_poly_pairs(), st.integers(1, 3))
    def test_padding_changes_nothing(self, pair, zeros):
        f, g = pair
        pad = (0,) * zeros
        for p in (f, g, mul(f, g)):
            for fn in (isolate_roots, sturm_chain, cauchy_bound, is_real_rooted):
                assert _outcome(fn, p + pad) == _outcome(fn, p), (fn.__name__, p)
        assert interlace_report(f + pad, g + pad) == interlace_report(f, g)

    def test_reported_cases(self):
        assert isolate_roots((1, 1, 0)) == isolate_roots((1, 1))
        assert sturm_chain((0,)) == sturm_chain(()) == ((),)
        with pytest.raises(ValueError, match="zero polynomial"):
            isolate_roots((0, 0))


class TestAgainstSlotOracle:
    @settings(max_examples=400, deadline=None)
    @given(_poly_pairs())
    def test_random_pairs(self, pair):
        f, g = pair
        for p in (f, g, mul(f, g)):
            assert is_real_rooted(p) == _oracle_real_rooted(p), p
        assert _interlace_core(f, g) == _oracle_interlace(f, g)
        assert _interlace_core(g, f) == _oracle_interlace(g, f)

    @pytest.mark.parametrize("n", range(1, 5))
    def test_dnkj_family(self, n):
        fs = [eulerian(n)] + [d_nkj(n, k, j)
                              for k in range(n + 1) for j in range(n + 1)]
        for f in fs:
            assert is_real_rooted(f) == _oracle_real_rooted(f)
        for f in fs:
            for g in fs:
                assert _interlace_core(f, g) == _oracle_interlace(f, g)


def _oracle_strip(f):
    """Integer multiple of ``f`` with content 1 and the sign of ``f``."""
    p = _oracle_primitive(f)
    return p if (p[-1] > 0) == (f[-1] > 0) else tuple(-c for c in p)


def _oracle_remainder_sequence(a, b):
    """The signed remainder sequence by ``Fraction`` long division."""
    a, b = normalize(a), normalize(b)
    chain = [_oracle_strip(a)] if a else [()]
    while b:
        chain.append(_oracle_strip(b))
        b = normalize(-c for c in _oracle_divmod(chain[-2], chain[-1])[1])
    return tuple(chain)


def _oracle_exact(f, g):
    q, r = _oracle_divmod(f, g)
    assert not r
    return q


def _oracle_yun(f):
    """Yun's algorithm over ``Fraction`` with the oracle's own gcd."""
    f = normalize(f)
    if degree(f) == 0:
        return []
    g = _oracle_gcd(f, derivative(f))
    b = _oracle_exact(f, g)
    d = sub(_oracle_exact(derivative(f), g), derivative(b))
    out, i = [], 1
    while degree(b) > 0:
        a = _oracle_gcd(b, d)
        if degree(a) > 0:
            out.append((_oracle_primitive(a), i))
        b, d = _oracle_exact(b, a), _oracle_exact(d, a)
        d = sub(d, derivative(b))
        i += 1
    return out


@st.composite
def _rational_polys(draw):
    """Polynomials of ``_poly_pairs``, some rescaled to ``Fraction``
    coefficients (monic, or times a negative fraction)."""
    f = draw(_poly_pairs())[draw(st.sampled_from((0, 1)))]
    how = draw(st.sampled_from(("int", "monic", "scaled")))
    if f and how == "monic":
        f = tuple(Fraction(c) / f[-1] for c in f)
    elif how == "scaled":
        f = tuple(c * Fraction(-2, 3) for c in f)
    return f


def _oracle_deflate(p, c):
    """``p / (x - c)`` by Horner's rule over ``Fraction``, then stripped."""
    acc, out = Fraction(0), []
    for coeff in reversed(p):
        acc = acc * c + coeff
        out.append(acc)
    assert out[-1] == 0
    return _oracle_strip(tuple(reversed(out[:-1])))


def _check_against_fraction(f, g):
    assert sturm_chain(f) == _oracle_remainder_sequence(f, derivative(f))
    if f and g:
        assert _remainder_sequence(f, g) == _oracle_remainder_sequence(f, g)


class TestIntegerDivisionAgainstFraction:
    """The integer chain and deflation against a ``Fraction`` route."""

    @settings(max_examples=300, deadline=None)
    @given(_rational_polys(), _rational_polys())
    def test_entry_by_entry(self, f, g):
        _check_against_fraction(f, g)

    def test_fraction_negative_lead_and_repeated_roots(self):
        cubed = power((Fraction(-1, 3), 1), 3)
        f = mul(cubed, (1, 0, -2))
        for f, g in [(f, cubed), ((3, -1, -1, -1, 2), (-1, 1, 3, -1, -2)),
                     (tuple(Fraction(c, 4) for c in (8, 4, -1)), (1, Fraction(-5, 2)))]:
            _check_against_fraction(f, g)
            _check_against_fraction(g, f)

    def test_families(self):
        for f in [eulerian(n) for n in range(1, 8)] + [
                E_nr(n, r) for n in range(1, 6) for r in range(1, 6)]:
            _check_against_fraction(f, reverse(f, degree(f) + 1))

    @settings(max_examples=200, deadline=None)
    @given(_poly_pairs(), st.sampled_from(GRID))
    def test_deflation(self, pair, c):
        linear = (-c.numerator, c.denominator)
        p = _oracle_strip(mul(pair[0] or (1,), linear))
        assert _exact_quotient(p, linear) == _oracle_deflate(p, c)

    def test_exact_quotient(self):
        assert _exact_quotient(mul((3, -2, 5), (-1, 3)), (-1, 3)) == (3, -2, 5)
        assert _exact_quotient((), (2, 1)) == ()
        # (1, 3) by (1, 2): the lead leaves a remainder that the rest
        # of the division would hide
        for f, g in [((1, 0, 1), (1, 1)), ((0, 0, 3), (1, 2)), ((1, 3), (1, 2)),
                     ((1, 0, 2), (0, 1)), ((5,), (1, 1))]:
            with pytest.raises(ArithmeticError):
                _exact_quotient(f, g)


def _proportional(p, q):
    """True when ``p`` is a nonzero scalar multiple of ``q``."""
    return bool(p) and len(p) == len(q) and all(
        a * q[-1] == b * p[-1] for a, b in zip(p, q))


class TestChainTailGcd:
    @settings(max_examples=300, deadline=None)
    @given(_poly_pairs())
    def test_tails(self, pair):
        f, g = pair
        if f:
            assert _proportional(sturm_chain(f)[-1], _oracle_gcd(f, derivative(f)))
        if f and g:
            assert _proportional(_remainder_sequence(f, g)[-1], _oracle_gcd(f, g))


def _sign(v):
    return (v > 0) - (v < 0)


def _oracle_variations(chain, x):
    """Sign changes of the chain at ``x``, each entry through ``eval_at``."""
    signs = [_sign(eval_at(p, Fraction(x))) for p in chain]
    signs = [s for s in signs if s]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


@st.composite
def _int_polys(draw):
    """Integer polynomials of degree 0..12 and zero, with either sign of
    the lead and, often, a zero constant term."""
    f = draw(st.lists(st.integers(-10**6, 10**6), max_size=13))
    if f and draw(st.booleans()):
        f[0] = 0
    return normalize(f)


# 0, integers, and p/q in lowest terms with q up to 2^40
_POINTS = st.one_of(
    st.just(0),
    st.integers(-10**6, 10**6),
    st.builds(Fraction, st.integers(-2**44, 2**44), st.integers(1, 2**40)),
)


class TestScaledValueAgainstEvalAt:
    """The integer sign kernel against ``eval_at`` over ``Fraction``."""

    @settings(max_examples=500, deadline=None)
    @given(_int_polys(), _POINTS)
    def test_drawn_points(self, f, x):
        value = _scaled_value(f, x)
        oracle = eval_at(f, Fraction(x))
        assert _sign(value) == _sign(oracle)
        assert value == oracle * Fraction(x).denominator ** max(degree(f), 0)

    def test_reported_cases(self):
        for f in [(), (5,), (-5,), (0, 1), (0, 0, -3), (2, -3, 1), (-1, 0, 4)]:
            for x in [0, 1, -1, 2, Fraction(1, 2), Fraction(-1, 2),
                      Fraction(3, 2**40), Fraction(-(2**40) - 1, 2**40)]:
                assert _sign(_scaled_value(f, x)) == _sign(eval_at(f, Fraction(x)))
        assert _scaled_value((2, -3, 1), Fraction(1, 2)) == 3  # 4 * f(1/2)
        assert _scaled_value((-1, 0, 4), Fraction(-1, 2)) == 0

    def test_points_isolation_visits(self, monkeypatch):
        seen = []

        def record(f, x):
            seen.append((f, x))
            return _scaled_value(f, x)

        monkeypatch.setattr(realroot, "_scaled_value", record)
        polys = [p for pair in _pin_corpus() for p in pair]
        polys += [eulerian(n) for n in range(1, 9)]
        polys += [d_nkj(n, k, j) for n in range(1, 6)
                  for k in range(n + 1) for j in range(n + 1)]
        polys = [p for p in polys if p and is_real_rooted(p)]
        isolations = [isolate_roots(p).intervals for p in polys]
        monkeypatch.undo()
        assert any(isinstance(x, int) for _, x in seen)
        assert any(isinstance(x, Fraction) and x.denominator > 2 for _, x in seen)
        for f, x in seen:
            assert _sign(_scaled_value(f, x)) == _sign(eval_at(f, Fraction(x))), (f, x)
        # each polynomial at its Cauchy bounds and interval midpoints
        for p, intervals in zip(polys, isolations):
            bound = cauchy_bound(p)
            for x in [bound, -bound] + [(lo + hi) / 2 for lo, hi, _ in intervals]:
                assert _sign(_scaled_value(p, x)) == _sign(eval_at(p, x)), (p, x)

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(_int_polys(), _poly_pairs().map(lambda pair: pair[0])),
           _POINTS, _POINTS)
    def test_count_roots(self, f, a, b):
        assume(degree(f) >= 1)
        a, b = sorted((Fraction(a), Fraction(b)))
        chain = sturm_chain(f)
        assume(a < b and eval_at(chain[0], a) and eval_at(chain[0], b))
        assert _count_roots(chain, a, b, {}) == (
            _oracle_variations(chain, a) - _oracle_variations(chain, b))

    def test_count_roots_grid_products(self):
        # distinct grid roots strictly inside (a, b), counted by Sturm;
        # an odd numerator over 12 is never a grid root
        rng = random.Random(20261019)
        off_grid = [Fraction(2 * k + 1, 12) for k in range(-42, 42)]
        for _ in range(200):
            roots = [rng.choice(GRID) for _ in range(rng.randint(1, 8))]
            f = _from_roots(rng.choice((-2, -1, 1, 3)), roots, rng.randint(0, 1))
            a, b = sorted(rng.sample(off_grid, 2))
            chain = sturm_chain(f)
            count = _count_roots(chain, a, b, {})
            assert count == (_oracle_variations(chain, a)
                             - _oracle_variations(chain, b))
            assert count == len({r for r in roots if a < r < b})


def _pin_corpus():
    """Pairs from grid roots with shared and repeated roots, x^2+1
    factors, negative leads, and zero and constant polynomials."""
    rng = random.Random(20261018)
    pairs = []
    for _ in range(300):
        common = [rng.choice(GRID) for _ in range(rng.randint(0, 2))]
        g_own = sorted(rng.choice(GRID) for _ in range(rng.randint(0, 4)))
        if rng.random() < 0.5:
            # roots of f in the closed gaps of g, as in _poly_pairs
            f_own = [rng.choice([c for c in GRID if a <= c <= b])
                     for a, b in zip(g_own, g_own[1:])]
            f_own += [rng.choice(GRID) for _ in range(rng.randint(0, 1))]
        else:
            size = max(0, len(g_own) + rng.choice((-2, -1, 0, 0, 1)))
            f_own = [rng.choice(GRID) for _ in range(size)]
        for own in (f_own, g_own):
            if own and rng.random() < 0.3:
                own.append(rng.choice(own))
        f, g = (_from_roots(rng.choice((-3, -2, -1, 1, 2, 3)), common + own,
                            int(rng.random() < 0.1))
                for own in (f_own, g_own))
        zero = rng.randrange(20)
        pairs.append((() if zero in (0, 2) else f, () if zero in (1, 2) else g))
    return pairs


class TestPinnedOutput:
    def test_corpus_covers_the_cases(self):
        pairs = _pin_corpus()
        polys = [p for pair in pairs for p in pair]
        assert any(not p for p in polys)
        assert any(degree(p) == 0 for p in polys)
        assert any(p and p[-1] < 0 for p in polys)
        assert any(p and not is_real_rooted(p) for p in polys)
        assert any(any(m > 1 for _, m in _oracle_yun(p))
                   for p in polys if degree(p) > 0)
        assert any(degree(_oracle_gcd(f, g)) > 0
                   for f, g in pairs if f and g)

    def test_answers_and_reasons_digest(self):
        # Sign counts at +-infinity decide these; no interval is read.
        lines = [repr((rep.ok, rep.reason))
                 for rep in (interlace_report(f, g) for f, g in _pin_corpus())]
        digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
        assert digest == (
            "953cd65a911927e2be1efdde2f60b844da0fadce0078448507dea3ea6b64fe31")

    def test_reports_and_decompositions_digest(self):
        # Decompositions come from the oracle, so only printed intervals
        # and answers can move this pin.
        def pretty(iso):
            return iso.pretty() if iso else None

        lines = []
        for f, g in _pin_corpus():
            rep = interlace_report(f, g)
            lines.append(repr((
                rep.ok, rep.reason, pretty(rep.f_isolation), pretty(rep.g_isolation),
                [_oracle_yun(p) if p else None for p in (f, g)],
            )))
        digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
        assert digest == (
            "1b0f761b2f614bef5c4c63d22b90a552ad64ce2fed2ff592778629f34cb68f00")

    def test_squarefree_isolation_digest(self):
        # Squarefree input reaches only _isolate_squarefree's bisection.
        polys = _squarefree_corpus()
        assert len(polys) == 494
        lines = [isolate_roots(p).pretty() for p in polys]
        digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
        assert digest == (
            "2fb637a14b4cd25975292ca69d473cf7f3eb9db48e4c362b563739f8c510bafb")


def _squarefree_corpus():
    """The nonzero real-rooted squarefree members of the pin corpus, the
    Eulerian polynomials, the ``d_nkj`` for n <= 6 and the ``E_nr`` for
    n, r <= 6, in that order."""
    polys = [p for pair in _pin_corpus() for p in pair]
    polys += [eulerian(n) for n in range(1, 11)]
    polys += [d_nkj(n, k, j) for n in range(7)
              for k in range(n + 1) for j in range(n + 1)]
    polys += [E_nr(n, r) for n in range(1, 7) for r in range(1, 7)]
    return [p for p in polys
            if p and is_real_rooted(p) and degree(sturm_chain(p)[-1]) == 0]


def _repeated_corpus():
    """Real-rooted products of two to four pieces, each raised to a power
    of 1 to 3: linear ``b x + a`` (rational roots) and quadratics with a
    positive non-square discriminant (conjugate irrational roots).  Most
    have roots of several multiplicities, and some have rational roots
    that bisection finds and deflates."""
    rng = random.Random(20261020)
    polys = []
    for _ in range(500):
        f = (rng.choice((-3, -1, 1, 2)),)
        for _ in range(rng.randint(2, 4)):
            if rng.random() < 0.5:
                piece = (rng.randint(-6, 6), rng.randint(1, 4))
            else:
                while True:
                    a, b, c = rng.randint(1, 3), rng.randint(-5, 5), rng.randint(-6, 6)
                    disc = b * b - 4 * a * c
                    if disc > 0 and math.isqrt(disc) ** 2 != disc:
                        break
                piece = (c, b, a)
            f = mul(f, power(piece, rng.choice((1, 1, 2, 2, 3))))
        polys.append(f)
    return polys


class TestRepeatedRoots:
    def test_corpus_covers_the_cases(self):
        isolations = [(f, isolate_roots(f)) for f in _repeated_corpus()]
        assert sum(len(_oracle_yun(f)) > 1 for f, _ in isolations) > 300
        entries = [e for _, iso in isolations for e in iso.intervals]
        assert any(lo == hi and m > 1 for lo, hi, m in entries)
        assert any(lo < hi and m > 1 for lo, hi, m in entries)

    def test_isolation_digest(self):
        lines = [isolate_roots(f).pretty() for f in _repeated_corpus()]
        digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
        assert digest == (
            "d10df64fdea111a9f80e3da95bb297b829eb1321115fbba58d8f11eb9dcd7781")

    def test_endpoints_and_multiplicities(self):
        # Every open interval ends at non-roots of f, entries are
        # disjoint, and the oracle's factor of an entry's multiplicity
        # vanishes at it or changes sign across it.
        for f in _repeated_corpus():
            iso = isolate_roots(f)
            factors = {m: p for p, m in _oracle_yun(f)}
            for lo, hi, m in iso.intervals:
                if lo == hi:
                    assert eval_at(factors[m], lo) == 0, (f, lo)
                    continue
                assert eval_at(f, lo) != 0 and eval_at(f, hi) != 0, (f, lo, hi)
                assert eval_at(factors[m], lo) * eval_at(factors[m], hi) < 0, (f, lo, hi)
            for (a, b, _), (c, d, _) in zip(iso.intervals, iso.intervals[1:]):
                assert b < c or a < b == c < d, (f, b, c)
            assert sum(m for *_, m in iso.intervals) == degree(f)

    @settings(max_examples=300, deadline=None)
    @given(_poly_pairs())
    def test_drawn_pairs_against_oracle(self, pair):
        # Slots are isolate_roots' own entries; the oracle counts each
        # one through f, gcd(f, f'), ... over Fraction.
        for f in pair:
            if not f or not _oracle_real_rooted(f):
                continue
            entries = isolate_roots(f).intervals
            slots = [(lo, hi) for lo, hi, _ in entries]
            mults = [m for *_, m in entries]
            assert mults == _oracle_multiplicities(f, slots), f
            assert sum(mults) == degree(f), f
            sf = _oracle_squarefree(f)
            for lo, hi in slots:
                if lo < hi:
                    assert eval_at(f, lo) != 0 and eval_at(f, hi) != 0, (f, lo, hi)
                    assert eval_at(sf, lo) * eval_at(sf, hi) < 0, (f, lo, hi)
