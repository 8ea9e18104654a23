"""Exact radical monomials: numbers ``r * prod(b_i ** e_i)``.

The modular-automorphism layer needs numbers of the form ``r * prod(b_i ** e_i)``
with rational ``r``, positive rational bases ``b_i`` and rational exponents
``e_i`` (for instance ``sqrt(Q_jj)`` when a character is smoothed).  Products,
powers and magnitude-squares of such numbers never leave this class, and all
the identity checks in :mod:`cqgkhint.schur` collapse back to plain rationals
by exponent cancellation, so equality tests stay exact.
"""

from __future__ import annotations

from fractions import Fraction
from numbers import Rational
from typing import Iterable

from .exact import ExactArithmeticError, as_fraction

__all__ = ["Radical", "sqrt_exact"]


_SMALL_PRIMES: list[int] = []
_SIEVE_BOUND = 0


def _primes_up_to(n: int) -> list[int]:
    global _SMALL_PRIMES, _SIEVE_BOUND
    if _SIEVE_BOUND >= n:
        return _SMALL_PRIMES
    sieve = bytearray(b"\x01") * (n + 1)
    sieve[:2] = b"\x00\x00"
    for p in range(2, int(n**0.5) + 1):
        if sieve[p]:
            sieve[p * p :: p] = b"\x00" * len(sieve[p * p :: p])
    _SMALL_PRIMES = [i for i, v in enumerate(sieve) if v]
    _SIEVE_BOUND = n
    return _SMALL_PRIMES


_FACTOR_LIMIT = 3000
_FACTOR_CACHE: dict[int, tuple[tuple[tuple[int, int], ...], int]] = {}


def _factor_int(n: int) -> tuple[tuple[tuple[int, int], ...], int]:
    """Trial-divide ``n > 0``; return (prime powers, unfactored remainder).

    Memoised by value: radical normalisation refactors the same bases over
    and over in the identity checks.
    """
    cached = _FACTOR_CACHE.get(n)
    if cached is not None:
        return cached
    original = n
    powers: dict[int, int] = {}
    for p in _primes_up_to(_FACTOR_LIMIT):
        if p * p > n:
            break
        while n % p == 0:
            powers[p] = powers.get(p, 0) + 1
            n //= p
    if n > 1 and n <= _FACTOR_LIMIT * _FACTOR_LIMIT:
        # remaining cofactor below the square of the trial bound is prime
        powers[n] = powers.get(n, 0) + 1
        n = 1
    result = (tuple(sorted(powers.items())), n)
    if len(_FACTOR_CACHE) < 200_000:
        _FACTOR_CACHE[original] = result
    return result


def _split_base(base) -> tuple[tuple[tuple[object, int], ...]]:
    """Canonical multiplicative splitting of a positive rational base.

    Returns ``((factor, multiplicity), ...)`` where factors are prime ints
    plus at most two opaque leftovers (as Fractions) that resisted factoring.
    """
    base = as_fraction(base)
    if base <= 0:
        raise ExactArithmeticError(f"radical base must be positive, got {base}")
    parts: list[tuple[object, int]] = []
    powers_n, rest_n = _factor_int(base.numerator)
    powers_d, rest_d = _factor_int(base.denominator)
    parts.extend(powers_n)
    parts.extend((p, -k) for p, k in powers_d)
    if rest_n != 1 or rest_d != 1:
        parts.append((Fraction(rest_n, rest_d), 1))
    return tuple(parts)


_SPLIT_CACHE: dict[object, tuple] = {}


def _split_base_cached(base):
    key = base
    hit = _SPLIT_CACHE.get(key)
    if hit is None:
        hit = _split_base(base)
        if len(_SPLIT_CACHE) < 100_000:
            _SPLIT_CACHE[key] = hit
    return hit


def _base_sort_key(base):
    if isinstance(base, int):
        return (0, base, 1)
    return (1, base.numerator, base.denominator)


class Radical:
    """Exact positive-real monomial ``coef * prod(base ** exp)``.

    ``coef`` is a rational (zero only for the zero element); every stored
    base is a prime integer or an opaque positive rational that resisted
    factoring, and every exponent is a rational in ``(0, 1)`` after
    normalisation.  With exponents constrained to proper fractions the
    representation is unique (logs of distinct primes are linearly
    independent over the rationals), so ``==`` is a genuine equality test on
    values (conservative only across distinct opaque leftovers).
    """

    __slots__ = ("coef", "radical")

    def __init__(self, coef, radical: Iterable[tuple[object, Fraction]] = ()):
        coef = as_fraction(coef)
        if coef == 0:
            self.coef = Fraction(0)
            self.radical = ()
            return
        merged: dict[object, Fraction] = {}
        for base, exp in radical:
            if exp == 0 or base == 1:
                continue
            if isinstance(base, int):
                # int bases are primes by construction; keep them as-is
                merged[base] = merged.get(base, 0) + exp
            else:
                for factor, mult in _split_base_cached(base):
                    merged[factor] = merged.get(factor, 0) + mult * exp
        parts: list[tuple[object, Fraction]] = []
        for base, exp in merged.items():
            exp = as_fraction(exp)
            whole, frac = divmod(exp, 1)
            if whole:
                coef *= Fraction(base) ** int(whole)
            if frac:
                parts.append((base, frac))
        parts.sort(key=lambda item: _base_sort_key(item[0]))
        self.coef: Fraction = coef
        self.radical: tuple[tuple[object, Fraction], ...] = tuple(parts)

    # -- constructors -------------------------------------------------

    @classmethod
    def from_rational(cls, x) -> "Radical":
        return cls(as_fraction(x))

    # -- predicates / conversions --------------------------------------

    @property
    def is_rational(self) -> bool:
        return not self.radical

    def as_fraction(self) -> Fraction:
        if self.radical:
            raise ExactArithmeticError(f"{self!r} is irrational")
        return self.coef

    def to_mpf(self) -> mpmath.mpf:
        import mpmath

        val = mpmath.mpf(self.coef.numerator) / self.coef.denominator
        for base, exp in self.radical:
            if isinstance(base, int):
                b = mpmath.mpf(base)
            else:
                b = mpmath.mpf(base.numerator) / base.denominator
            e = mpmath.mpf(exp.numerator) / exp.denominator
            val *= mpmath.power(b, e)
        return val

    def __float__(self) -> float:
        return float(self.to_mpf())

    # -- arithmetic -----------------------------------------------------

    @staticmethod
    def _coerce(other) -> "Radical":
        if isinstance(other, Radical):
            return other
        return Radical(as_fraction(other))

    def __mul__(self, other) -> "Radical":
        other = self._coerce(other)
        if self.coef == 0 or other.coef == 0:
            return Radical(0)
        return Radical(self.coef * other.coef, list(self.radical) + list(other.radical))

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Radical":
        return self * self._coerce(other) ** -1

    def __rtruediv__(self, other) -> "Radical":
        return self._coerce(other) * self**-1

    def __pow__(self, exponent) -> "Radical":
        exponent = as_fraction(exponent)
        if self.coef == 0:
            if exponent <= 0:
                raise ZeroDivisionError("0 cannot be raised to a nonpositive power")
            return Radical(0)
        if self.coef < 0 and exponent.denominator != 1:
            raise ExactArithmeticError("fractional power of a negative value")
        parts = [(base, exp * exponent) for base, exp in self.radical]
        if exponent.denominator == 1:
            return Radical(self.coef ** int(exponent), parts)
        # move the coefficient into the radical part
        parts.append((self.coef, exponent))
        return Radical(1, parts)

    def __add__(self, other) -> "Radical":
        other = self._coerce(other)
        if self.coef == 0:
            return other
        if other.coef == 0:
            return self
        if self.radical != other.radical:
            raise ExactArithmeticError(
                "cannot add radicals with different monomial parts exactly"
            )
        return Radical(self.coef + other.coef, self.radical)

    __radd__ = __add__

    def __sub__(self, other) -> "Radical":
        other = self._coerce(other)
        return self + Radical(-other.coef, other.radical)

    def __rsub__(self, other) -> "Radical":
        return self._coerce(other) - self

    def __neg__(self) -> "Radical":
        return Radical(-self.coef, self.radical)

    def abs_squared(self) -> "Radical":
        """``|x|^2`` (values here are real, so this is just the square)."""
        return self * self

    # -- comparison ------------------------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, (Rational, int)):
            return self.is_rational and self.coef == other
        if not isinstance(other, Radical):
            return NotImplemented
        return self.coef == other.coef and self.radical == other.radical

    def __hash__(self):
        if self.is_rational:
            return hash(self.coef)
        return hash((self.coef, self.radical))

    def __repr__(self) -> str:
        if self.is_rational:
            return f"Radical({self.coef})"
        rad = "*".join(f"({b})^({e})" for b, e in self.radical)
        return f"Radical({self.coef}*{rad})"


def sqrt_exact(x) -> Radical:
    """Exact square root of a positive rational as a :class:`Radical`."""
    return Radical.from_rational(x) ** Fraction(1, 2)
