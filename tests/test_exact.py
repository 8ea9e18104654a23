import math
import time
from fractions import Fraction

import pytest

from cqgkhint.exact import ExactArithmeticError, as_fraction, rational_inverse
from cqgkhint.radical import Radical, sqrt_exact


def test_as_fraction_float_is_exact_binary():
    assert as_fraction(0.5) == Fraction(1, 2)
    assert as_fraction(3.5) == Fraction(7, 2)
    assert as_fraction("3.5") == Fraction(7, 2)
    assert as_fraction("7/2") == Fraction(7, 2)


@pytest.mark.parametrize("text", ["inf", "-inf", "nan"])
def test_as_fraction_refuses_non_finite_floats(text):
    # a float infinity used to leak OverflowError, and an mpf infinity came back as 0
    import mpmath

    for x in (float(text), mpmath.mpf(text)):
        with pytest.raises(ValueError, match="non-finite"):
            as_fraction(x)
    # a finite mpf beyond the range of a double is still taken exactly
    assert as_fraction(mpmath.mpf(2) ** 2000) == 2**2000


def test_sqrt_collapses_on_square():
    r = sqrt_exact(Fraction(9, 4))
    assert r.is_rational and r.as_fraction() == Fraction(3, 2)


def test_sqrt_product_cancellation():
    a = sqrt_exact(Fraction(3, 7))
    b = sqrt_exact(Fraction(7, 3))
    assert (a * b).as_fraction() == 1


def test_cross_base_equality_via_prime_factoring():
    # sqrt(2) * sqrt(3) must equal sqrt(6)
    assert sqrt_exact(2) * sqrt_exact(3) == sqrt_exact(6)
    assert sqrt_exact(8) == 2 * sqrt_exact(2)


def test_pow_and_division_roundtrip():
    x = Radical.from_rational(Fraction(5, 3)) ** Fraction(1, 4)
    y = x**4
    assert y.is_rational and y.as_fraction() == Fraction(5, 3)
    assert (x / x).as_fraction() == 1


def test_addition_same_monomial_only():
    a = 2 * sqrt_exact(5)
    b = 3 * sqrt_exact(5)
    assert (a + b) == 5 * sqrt_exact(5)
    with pytest.raises(ExactArithmeticError):
        _ = sqrt_exact(5) + sqrt_exact(3)


def test_abs_squared_is_rational_for_half_integer_exponents():
    x = sqrt_exact(Fraction(7, 2))
    assert x.abs_squared().as_fraction() == Fraction(7, 2)


def test_to_mpf_matches_float():
    x = 3 * sqrt_exact(2)
    assert abs(float(x) - 3 * 2**0.5) < 1e-12


def test_rational_inverse_small():
    m = [[Fraction(2), Fraction(-1)], [Fraction(-1), Fraction(2)]]
    inv = rational_inverse(m)
    assert inv == [
        [Fraction(2, 3), Fraction(1, 3)],
        [Fraction(1, 3), Fraction(2, 3)],
    ]


def test_rational_inverse_singular_rejected():
    with pytest.raises(ExactArithmeticError):
        rational_inverse([[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]])


from hypothesis import given, settings
from hypothesis import strategies as st

positive_fractions = st.fractions(min_value=Fraction(1, 40), max_value=40, max_denominator=40)
small_exponents = st.fractions(min_value=-2, max_value=2, max_denominator=6)


@settings(max_examples=80, deadline=None)
@given(a=positive_fractions, b=positive_fractions, c=positive_fractions,
       e=small_exponents, f=small_exponents)
def test_radical_algebra_laws(a, b, c, e, f):
    ra = Radical.from_rational(a) ** e
    rb = Radical.from_rational(b) ** f
    rc = Radical.from_rational(c)
    # associativity and commutativity of multiplication
    assert (ra * rb) * rc == ra * (rb * rc)
    assert ra * rb == rb * ra
    # power laws on a common base
    assert (ra * ra) == Radical.from_rational(a) ** (2 * e)
    if e != 0:
        assert (ra ** Fraction(1) / ra).as_fraction() == 1


@settings(max_examples=60, deadline=None)
@given(a=positive_fractions, e=small_exponents, k=st.integers(-3, 3))
def test_radical_pow_tower(a, e, k):
    base = Radical.from_rational(a) ** e
    assert base**k == Radical.from_rational(a) ** (e * k)


@settings(max_examples=60, deadline=None)
@given(a=positive_fractions, b=positive_fractions)
def test_radical_sqrt_multiplicativity(a, b):
    assert sqrt_exact(a) * sqrt_exact(b) == sqrt_exact(a * b)
    assert (sqrt_exact(a) * sqrt_exact(a)).as_fraction() == a


# -- one-root form: equality is exact for every base, however large ----------

P, Q = 3001, 3011  # primes above any trial-division bound of small primes


def test_product_of_large_prime_roots_equals_root_of_product():
    assert sqrt_exact(P) * sqrt_exact(Q) == sqrt_exact(P * Q)


def test_root_of_large_square_is_rational():
    r = sqrt_exact((P * Q) ** 2)
    assert r.is_rational and r.as_fraction() == P * Q


def test_sum_of_equal_values_built_by_different_routes():
    assert sqrt_exact(P) * sqrt_exact(Q) + sqrt_exact(P * Q) == 2 * sqrt_exact(P * Q)


def test_hash_is_consistent_with_equality():
    assert hash(sqrt_exact(4)) == hash(2) and sqrt_exact(4) == 2
    assert hash(sqrt_exact(Fraction(9, 4))) == hash(Fraction(3, 2))
    a = sqrt_exact(P) * sqrt_exact(Q)
    b = sqrt_exact(P * Q)
    c = Radical.from_rational(P * Q) ** Fraction(3, 2) / (P * Q)
    assert a == b == c and hash(a) == hash(b) == hash(c)
    assert hash(sqrt_exact(8)) == hash(2 * sqrt_exact(2))
    assert len({sqrt_exact(2) * sqrt_exact(3), sqrt_exact(6), 2 * sqrt_exact(Fraction(3, 2))}) == 1


def test_large_exponent_denominator_is_fast():
    # the index is factored up to its square root; the base is never factored
    start = time.perf_counter()
    x = Radical.from_rational(2) ** Fraction(1, 10007)
    assert not x.is_rational and x.index == 10007
    assert x**10007 == 2
    assert abs(float(x) - 2 ** (1 / 10007)) < 1e-15
    assert time.perf_counter() - start < 1.0


def test_least_index_and_sign():
    x = Radical.from_rational(64) ** Fraction(1, 6)  # 64^(1/6) = 2
    assert x.is_rational and x == 2
    y = Radical.from_rational(4) ** Fraction(1, 6)  # 4^(1/6) = 2^(1/3)
    assert y.index == 3 and y == Radical.from_rational(2) ** Fraction(1, 3)
    assert -sqrt_exact(2) != sqrt_exact(2)
    assert (-sqrt_exact(2)) ** 2 == 2 and (-sqrt_exact(2)) ** 3 == -2 * sqrt_exact(2)
    with pytest.raises(ExactArithmeticError):
        _ = sqrt_exact(2) + Radical.from_rational(2) ** Fraction(1, 3)


large_primes = st.sampled_from([3001, 3011, 3019, 4099, 7919, 10007, 65537, 1_000_003])


@settings(max_examples=60, deadline=None)
@given(
    a=st.lists(large_primes, min_size=1, max_size=3),
    b=st.lists(large_primes, min_size=1, max_size=3),
    k=st.integers(1, 3),
)
def test_radical_products_of_large_primes(a, b, k):
    m = math.prod(a)
    n = math.prod(b)
    lhs = sqrt_exact(m) * sqrt_exact(n)
    rhs = sqrt_exact(m * n)
    assert lhs == rhs and hash(lhs) == hash(rhs)
    assert (lhs + rhs) == 2 * rhs
    cube = Radical.from_rational(m) ** Fraction(k, 3) * Radical.from_rational(n) ** Fraction(k, 3)
    assert cube == Radical.from_rational(m * n) ** Fraction(k, 3)
    assert cube**3 == (m * n) ** k
    assert sqrt_exact(m * m * n).is_rational == (math.isqrt(n) ** 2 == n)
