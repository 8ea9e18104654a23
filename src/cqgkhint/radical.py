"""Exact one-root radicals: real numbers ``coef * base ** (1/index)``.

The modular-automorphism layer needs numbers such as ``sqrt(Q_jj)`` or
``(Q_ss Q_tt)^s`` for rational ``s``: real numbers ``v`` with some power
``v^n`` rational.  Products, quotients, rational powers and magnitude-squares
of such numbers never leave this class, and the identity checks of
:mod:`cqgkhint.schur` compare them exactly.

A nonzero value is stored as ``coef * base ** (1/index)`` with a rational
``coef``, a positive rational ``base`` and ``index`` the least ``n >= 1`` with
``v^n`` rational.

*The least index is canonical.*  The ``n >= 1`` with ``v^n`` rational are the
positive multiples of the least one, ``n_0``: if ``v^a`` and ``v^b`` are
rational, so is ``v^gcd(a, b) = v^(xa + yb)`` (``v != 0``).  So ``n_0`` depends
on the value alone, and so does the rational ``v^n_0 = coef^n_0 * base``.
Since ``v`` is the real ``n_0``-th root of ``v^n_0`` of its sign, the triple
``(index, sign, coef^index * base)`` identifies the value: ``==`` and
``hash`` compare it, and equality is exact for every input.

*Reducing the index.*  Any ``c * B^(1/N)`` has ``v^N`` rational, so ``n_0``
divides ``N``.  If ``n_0 < n`` for a multiple ``n`` of ``n_0``, some prime
``r`` divides ``n / n_0``, and then ``v^(n/r) = c^(n/r) B^(1/r)`` is rational:
``B`` is a perfect ``r``-th power.  So the pass that lowers ``n`` by ``r``,
taking ``B`` to its ``r``-th root, while ``B`` is a perfect ``r``-th power, for
each prime ``r | N``, ends at ``n_0`` as long as each prime it has finished
with stays finished.  It does: a base that is not an ``r``-th power never
becomes one by taking roots, because ``b^s`` is an ``r``-th power whenever
``b`` is.  No base is ever factored; only the index is, by trial division up
to its square root.
"""

from __future__ import annotations

import math
from fractions import Fraction
from numbers import Rational

from .exact import ExactArithmeticError, as_fraction

__all__ = ["Radical", "sqrt_exact"]


def _prime_factors(n: int) -> list[int]:
    """The distinct primes dividing ``n >= 1``, by trial division up to ``sqrt(n)``."""
    primes = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            primes.append(p)
            while n % p == 0:
                n //= p
        p += 1
    if n > 1:
        primes.append(n)
    return primes


def _int_root(n: int, r: int) -> int | None:
    """The integer ``r``-th root of ``n >= 1``, or ``None`` if there is none."""
    if r == 2:
        x = math.isqrt(n)
    elif n.bit_length() <= r:  # 1 <= n < 2^r: only 1 is an r-th power here
        x = 1
    else:
        # integer Newton from above: x_{k+1} = ((r-1) x_k + n // x_k^(r-1)) // r
        x = 1 << -(-n.bit_length() // r)
        while True:
            y = ((r - 1) * x + n // x ** (r - 1)) // r
            if y >= x:
                break
            x = y
    return x if x**r == n else None


def _fraction_root(x: Fraction, r: int) -> Fraction | None:
    """The positive rational ``r``-th root of ``x > 0``, or ``None``."""
    num = _int_root(x.numerator, r)
    if num is None:
        return None
    den = _int_root(x.denominator, r)
    return None if den is None else Fraction(num, den)


def _make(coef: Fraction, base: Fraction, index: int) -> "Radical":
    """A radical from a form already known to be reduced."""
    out = object.__new__(Radical)
    out.coef, out.base, out.index = coef, base, index
    return out


_ONE = Fraction(1)


class Radical:
    """Exact real number ``coef * base ** (1/index)``.

    ``coef`` is rational (zero only for the zero element), ``base`` a positive
    rational and ``index`` the least ``n`` with ``value^n`` rational (see the
    module docstring); a rational value has ``index == 1`` and ``base == 1``.
    """

    __slots__ = ("coef", "base", "index")

    def __init__(self, coef, base=1, index: int = 1):
        coef, base = as_fraction(coef), as_fraction(base)
        if index < 1:
            raise ValueError(f"radical index must be >= 1, got {index}")
        if base <= 0:
            raise ExactArithmeticError(f"radical base must be positive, got {base}")
        if coef == 0 or base == 1:
            index = 1
        else:
            for r in _prime_factors(index):
                while index % r == 0:
                    root = _fraction_root(base, r)
                    if root is None:
                        break
                    base, index = root, index // r
        if index == 1:
            coef, base = coef * base, _ONE
        self.coef: Fraction = coef
        self.base: Fraction = base
        self.index: int = index

    # -- constructors -------------------------------------------------

    @classmethod
    def from_rational(cls, x) -> "Radical":
        return cls(x)

    # -- predicates / conversions --------------------------------------

    @property
    def is_rational(self) -> bool:
        return self.index == 1

    def as_fraction(self) -> Fraction:
        if self.index != 1:
            raise ExactArithmeticError(f"{self!r} is irrational")
        return self.coef

    def to_mpf(self) -> mpmath.mpf:
        import mpmath

        val = mpmath.mpf(self.coef.numerator) / self.coef.denominator
        if self.index == 1:
            return val
        base = mpmath.mpf(self.base.numerator) / self.base.denominator
        return val * mpmath.root(base, self.index)

    def __float__(self) -> float:
        if self.index == 1:
            return float(self.coef)
        log_base = math.log(self.base.numerator) - math.log(self.base.denominator)
        return float(self.coef) * math.exp(log_base / self.index)

    # -- arithmetic -----------------------------------------------------

    @staticmethod
    def _coerce(other) -> "Radical":
        if isinstance(other, Radical):
            return other
        return Radical(other)

    def __mul__(self, other) -> "Radical":
        other = self._coerce(other)
        if self.coef == 0 or other.coef == 0:
            return Radical(0)
        coef = self.coef * other.coef
        # a rational factor keeps the other's base and index
        if self.index == 1:
            return _make(coef, other.base, other.index)
        if other.index == 1:
            return _make(coef, self.base, self.index)
        index = math.lcm(self.index, other.index)
        base = self.base ** (index // self.index) * other.base ** (index // other.index)
        return Radical(coef, base, index)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Radical":
        return self * self._coerce(other) ** -1

    def __rtruediv__(self, other) -> "Radical":
        return self._coerce(other) * self**-1

    def __pow__(self, exponent) -> "Radical":
        exponent = as_fraction(exponent)
        p, q = exponent.numerator, exponent.denominator
        if self.coef == 0:
            if exponent <= 0:
                raise ZeroDivisionError("0 cannot be raised to a nonpositive power")
            return Radical(0)
        if q == 1:
            return Radical(self.coef**p, self.base**p, self.index)
        if self.coef < 0:
            raise ExactArithmeticError("fractional power of a negative value")
        # (c B^(1/D))^(p/q) = (c^(pD) B^p)^(1/(qD))
        return Radical(1, self.coef ** (p * self.index) * self.base**p, q * self.index)

    def __add__(self, other) -> "Radical":
        other = self._coerce(other)
        if self.coef == 0:
            return other
        if other.coef == 0:
            return self
        if self.index == other.index:
            if self.base == other.base:
                ratio = _ONE
            else:
                # rationally proportional exactly when base'/base is an index-th power
                ratio = _fraction_root(other.base / self.base, self.index)
            if ratio is not None:
                coef = self.coef + other.coef * ratio
                return _make(coef, self.base, self.index) if coef else Radical(0)
        raise ExactArithmeticError(f"cannot add {self!r} and {other!r} exactly")

    __radd__ = __add__

    def __sub__(self, other) -> "Radical":
        return self + -self._coerce(other)

    def __rsub__(self, other) -> "Radical":
        return self._coerce(other) - self

    def __neg__(self) -> "Radical":
        return _make(-self.coef, self.base, self.index)

    def abs_squared(self) -> "Radical":
        """``|x|^2`` (values here are real, so this is just the square)."""
        return self * self

    # -- comparison ------------------------------------------------------

    def _key(self) -> tuple:
        """``(index, sign, value^index)``, which identifies the value."""
        return (self.index, self.coef > 0, self.coef**self.index * self.base)

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if isinstance(other, Radical):
            if self.index != other.index:
                return False
            if self.base is other.base or self.base == other.base:
                return self.coef == other.coef
            return self._key() == other._key()
        if isinstance(other, Rational):
            return self.index == 1 and self.coef == other
        return NotImplemented

    def __hash__(self):
        if self.index == 1:
            return hash(self.coef)
        return hash(self._key())

    def __repr__(self) -> str:
        if self.index == 1:
            return f"Radical({self.coef})"
        return f"Radical({self.coef}*({self.base})^(1/{self.index}))"


def sqrt_exact(x) -> Radical:
    """Exact square root of a positive rational as a :class:`Radical`."""
    return Radical.from_rational(x) ** Fraction(1, 2)
