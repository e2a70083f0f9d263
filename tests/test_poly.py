"""Exact polynomial arithmetic and the transform zoo.

Expected values below were computed by hand (coefficient convolutions,
Veronese sections picked off expanded products) before the module was
written, so they act as independent oracles rather than snapshots.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import eval_at, polys
from subdiv.poly import (
    MAX_EXPONENT,
    NotSymmetricError,
    PolyParseError,
    add,
    binom,
    degree,
    derivative,
    format_poly,
    gamma_vector,
    is_symmetric,
    mul,
    normalize,
    parse_poly,
    poly_to_json,
    power,
    reverse,
    shift,
    veronese,
)


def veronese_shift_identity_holds(f, r: int, i: int, j: int) -> bool:
    """Check S^r_i(x^j f) against its section-shuffle expansion.

    The expansion moves the x^j factor into the section index: the result
    is S^r_{i-j}(f) when i >= j and x * S^r_{r-j+i}(f) otherwise.
    """
    lhs = veronese(shift(f, j), r, i)
    if i >= j:
        rhs = veronese(f, r, i - j)
    else:
        rhs = shift(veronese(f, r, r - j + i), 1)
    return lhs == rhs


class TestArithmetic:
    def test_add(self):
        assert add((1, 1), (0, 1)) == (1, 2)

    def test_mul_binomial(self):
        assert mul((1, 1), (1, 1)) == (1, 2, 1)

    def test_shift(self):
        assert shift((0, 3, 1), 1) == (0, 0, 3, 1)

    @pytest.mark.parametrize("fn, message", [
        (shift, "shift exponent must be nonnegative"),
        (power, "negative power"),
    ], ids=["shift", "power"])
    def test_negative_exponent(self, fn, message):
        with pytest.raises(ValueError) as err:
            fn((1, 1), -1)
        assert str(err.value) == message

    def test_binom_outside_the_range(self):
        assert binom(3, 4) == binom(3, -1) == 0

    def test_zero_is_empty_tuple(self):
        assert add((2, 1), (-2, -1)) == ()
        assert mul((1, 1), ()) == ()

    def test_degree(self):
        assert degree(()) == -1
        assert degree((5,)) == 0
        assert degree((0, 0, 7)) == 2

    def test_normalize_trims_trailing_zeros(self):
        assert normalize([1, 2, 0, 0]) == (1, 2)
        assert normalize([0, 0]) == ()

    @given(polys(), polys())
    def test_mul_commutative(self, f, g):
        assert mul(f, g) == mul(g, f)

    @given(polys(max_len=5), polys(max_len=5), polys(max_len=5))
    def test_mul_associative(self, f, g, h):
        assert mul(mul(f, g), h) == mul(f, mul(g, h))

    def test_exactness_beyond_machine_words(self):
        big = 10**30
        f = (big, big)
        assert mul(f, f) == (big * big, 2 * big * big, big * big)


_COEFFS = st.one_of(
    st.integers(-9, 9),
    st.fractions(min_value=-9, max_value=9, max_denominator=6),
)
_QPOLYS = st.lists(_COEFFS, max_size=6).map(normalize)


def _dict_sum(fs):
    """Coefficient-by-coefficient sum, keyed by exponent."""
    total = {}
    for f in fs:
        for i, c in enumerate(f):
            total[i] = total.get(i, 0) + c
    return total


@st.composite
def _summands(draw):
    """0 to 5 polynomials; sometimes the last one cancels every
    coefficient of the sum from a drawn degree up."""
    fs = draw(st.lists(_QPOLYS, max_size=5))
    if len(fs) < 5 and draw(st.booleans()):
        total = _dict_sum(fs)
        cut = draw(st.integers(0, 6))
        low = draw(st.lists(_COEFFS, min_size=cut, max_size=cut))
        top = max(total, default=-1)
        fs.append(normalize(low + [-total.get(i, 0) for i in range(cut, top + 1)]))
    return fs


class TestNaryAdd:
    def test_empty_sum_is_zero(self):
        assert add() == ()

    @given(_summands())
    def test_matches_coefficientwise_sum(self, fs):
        total = _dict_sum(fs)
        nonzero = [i for i, c in total.items() if c != 0]
        want = tuple(total[i] for i in range(max(nonzero) + 1)) if nonzero else ()
        assert add(*fs) == want


class TestReverse:
    def test_symmetric_fixed_point(self):
        assert reverse((1, 4, 1), 2) == (1, 4, 1)

    def test_monomial_flip(self):
        assert reverse((0, 1), 1) == (1,)

    def test_table_pair(self):
        # I_3 maps 3x+x^2 to x+3x^2.
        assert reverse((0, 3, 1), 3) == (0, 1, 3)

    def test_degree_guard(self):
        with pytest.raises(ValueError):
            reverse((1, 1, 1), 1)

    def test_zero(self):
        assert reverse((), 5) == ()

    @given(polys(), st.integers(min_value=0, max_value=6))
    def test_involution(self, f, extra):
        n = degree(f) + extra if f else extra
        assert reverse(reverse(f, n), n) == f


class TestVeronese:
    def test_even_section(self):
        assert veronese((1, 2, 1), 2, 0) == (1, 1)

    def test_odd_section(self):
        assert veronese((1, 2, 1), 2, 1) == (2,)

    def test_identity_section(self):
        f = (3, 0, 5, 1)
        assert veronese(f, 1, 0) == f

    def test_section_index_guard(self):
        with pytest.raises(ValueError):
            veronese((1, 1), 2, 2)

    @given(polys(max_len=12), st.integers(min_value=1, max_value=5))
    def test_reassembly(self, f, r):
        # f(x) equals sum_i x^i * S^r_i(f)(x^r).
        total = ()
        for i in range(r):
            sec = veronese(f, r, i)
            spread = tuple(
                sec[t // r] if t % r == 0 else 0 for t in range(r * len(sec))
            )
            total = add(total, shift(normalize(spread), i))
        assert total == f

    def test_shift_identity_examples(self):
        assert veronese_shift_identity_holds((1, 2, 1), 2, 0, 1)
        assert veronese_shift_identity_holds((1,), 3, 2, 2)
        assert veronese_shift_identity_holds(mul((1, 1, 1), (1, 1, 1)), 3, 1, 2)

    @given(
        polys(max_len=61),
        st.integers(min_value=1, max_value=6),
        st.data(),
    )
    @settings(max_examples=200)
    def test_shift_identity_randomized(self, f, r, data):
        i = data.draw(st.integers(min_value=0, max_value=r - 1))
        j = data.draw(st.integers(min_value=0, max_value=r - 1))
        assert veronese_shift_identity_holds(f, r, i, j)


class TestSymmetryGamma:
    def test_gamma_pinned(self):
        # x+7x^2+x^3 = x(1+x)^2 + 5x^2 around center 2.
        assert gamma_vector((0, 1, 7, 1), 4) == (0, 1, 5)

    def test_symmetric_example(self):
        assert is_symmetric((0, 7, 42, 63, 42, 7), 6)

    def test_not_symmetric(self):
        assert not is_symmetric((1, 2), 2)
        with pytest.raises(NotSymmetricError):
            gamma_vector((1, 2), 2)

    def test_gamma_of_power_of_one_plus_x(self):
        assert gamma_vector(power((1, 1), 4), 4) == (1, 0, 0)

    @given(
        st.lists(st.integers(min_value=-5, max_value=5), min_size=1, max_size=4),
        st.integers(min_value=0, max_value=3),
    )
    def test_gamma_roundtrip(self, gammas, pad):
        # Build f from a gamma vector, re-extract it.
        n = 2 * (len(gammas) - 1) + pad
        f = ()
        for i, g in enumerate(gammas):
            f = add(f, shift(tuple(g * c for c in power((1, 1), n - 2 * i)), i))
        f = normalize(f)
        got = gamma_vector(f, n)
        want = tuple(gammas) + (0,) * (n // 2 + 1 - len(gammas))
        assert got == want


class TestEval:
    def test_coefficient_sum(self):
        assert eval_at((1, 4, 1), 1) == 6

    def test_at_zero(self):
        assert eval_at((0, 1, 1), 0) == 0

    def test_factorial_sum(self):
        assert eval_at((1, 11, 11, 1), 1) == 24

    def test_rational_point(self):
        assert eval_at((1, 0, 1), Fraction(1, 2)) == Fraction(5, 4)


class TestTextFormat:
    @pytest.mark.parametrize(
        "coeffs, text",
        [
            ((), "0"),
            ((1,), "1"),
            ((0, 1), "x"),
            ((0, 2, 8, 1), "2x+8x^2+x^3"),
            ((0, 1, 1), "x+x^2"),
            ((0, 0, 3, 1), "3x^2+x^3"),
            ((1, -2, 1), "1-2x+x^2"),
            ((-1, 0, 2), "-1+2x^2"),
        ],
    )
    def test_format(self, coeffs, text):
        assert format_poly(coeffs) == text

    @pytest.mark.parametrize(
        "text, coeffs",
        [
            ("0", ()),
            ("1 + 4*x + x^2", (1, 4, 1)),
            ("1+4x+x^2", (1, 4, 1)),
            ("7x+42x^2+63x^3+42x^4+7x^5", (0, 7, 42, 63, 42, 7)),
            ("x", (0, 1)),
            ("-x + 1", (1, -1)),
            ("2*x^3", (0, 0, 0, 2)),
            ("x**2 + x", (0, 1, 1)),
        ],
    )
    def test_parse(self, text, coeffs):
        assert parse_poly(text) == coeffs

    @pytest.mark.parametrize("bad", ["", "x^", "2y", "1++2", "^3", "x^-1"])
    def test_parse_rejects(self, bad):
        with pytest.raises(PolyParseError):
            parse_poly(bad)

    def test_exponent_cap(self):
        assert MAX_EXPONENT == 64
        assert parse_poly("x^64") == (0,) * 64 + (1,)
        assert parse_poly("1+x^064") == (1,) + (0,) * 63 + (1,)
        for text, exp in [("x^65", 65), ("1+0x^65", 65),
                          ("x^1000000000", 1000000000)]:
            with pytest.raises(PolyParseError,
                               match=f"^exponent {exp} in '.*' is past the limit of 64$"):
                parse_poly(text)

    @given(polys(min_coeff=-99, max_coeff=99, max_len=10))
    def test_roundtrip(self, f):
        assert parse_poly(format_poly(f)) == f


class TestJson:
    def test_to_json_decimal_strings(self):
        assert poly_to_json((0, 7, 42)) == ["0", "7", "42"]

    @given(polys(min_coeff=-50, max_coeff=50))
    def test_roundtrip(self, f):
        assert tuple(int(c) for c in poly_to_json(f)) == f


def test_derivative():
    assert derivative((1, 4, 1)) == (4, 2)
    assert derivative((7,)) == ()
    assert derivative(()) == ()
