"""Exact arithmetic helpers: rational coercion and small rational linear algebra.

Every command of the command-line tool loads this module, so it holds only
what they share: :func:`as_fraction`, :func:`rational_inverse` (for the
root-system Gram matrix), the working-precision default and the exceptions
the tool reports, which the high-precision :mod:`cqgkhint.khintchine`
re-exports.  It never imports mpmath.  The one-root radicals
``coef * base^(1/index)`` of the modular-automorphism layer live in
:mod:`cqgkhint.radical`, which no command loads.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from numbers import Rational

__all__ = [
    "DEFAULT_PRECISION_BITS",
    "ExactArithmeticError",
    "HorizonError",
    "KacDivergenceError",
    "as_fraction",
    "rational_inverse",
]


DEFAULT_PRECISION_BITS = 192


class ExactArithmeticError(ArithmeticError):
    """Raised when an operation cannot be carried out in exact arithmetic."""


class KacDivergenceError(ArithmeticError):
    code = "kac-divergent"


class HorizonError(ValueError):
    code = "bad-horizon"


def as_fraction(x) -> Fraction:
    """Coerce ``x`` to an exact :class:`Fraction`.

    Floats are taken at their exact binary value (``0.5 -> 1/2``,
    ``3.5 -> 7/2``); strings accept ``"num/den"`` and decimal literals.  A
    float or mpf that is infinite or NaN raises :class:`ValueError`.
    """
    if isinstance(x, Fraction):
        return x
    if isinstance(x, Rational):
        return Fraction(x)
    mpmath = sys.modules.get("mpmath")  # an mpf cannot exist before mpmath is loaded
    is_mpf = mpmath is not None and isinstance(x, mpmath.mpf)
    if (is_mpf or isinstance(x, float)) and x - x != 0:  # inf - inf and nan - nan are nan
        raise ValueError(f"cannot interpret the non-finite {x!r} as an exact rational")
    if isinstance(x, (float, str)):
        return Fraction(x)
    if is_mpf:
        num, den = mpmath.libmp.to_rational(x._mpf_)
        return Fraction(int(num), int(den))
    raise TypeError(f"cannot interpret {x!r} as an exact rational")


def rational_inverse(matrix: list[list[Fraction]]) -> list[list[Fraction]]:
    """Invert a small square matrix over the rationals by Gauss-Jordan."""
    n = len(matrix)
    aug = [
        [Fraction(matrix[i][j]) for j in range(n)]
        + [Fraction(1) if i == j else Fraction(0) for j in range(n)]
        for i in range(n)
    ]
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if pivot is None:
            raise ExactArithmeticError("matrix is singular")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv_p = 1 / aug[col][col]
        aug[col] = [v * inv_p for v in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                factor = aug[r][col]
                aug[r] = [a - factor * b for a, b in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]
