"""Dimension polynomials of Chebyshev type and certified growth envelopes.

Two families drive every graded dimension count in this package:

* ``f_k`` — Chebyshev polynomials of the second kind in the "trace"
  variable, ``f_0 = 1``, ``f_1 = t``, ``f_{k+1} = t f_k - f_{k-1}``.  For
  ``t > 2`` they obey the closed form
  ``f_k(t) = (u^{k+1} - u^{-(k+1)}) / (u - u^{-1})`` with
  ``u = (t + sqrt(t^2-4))/2``, and ``f_k(2) = k + 1``.
* ``g_k`` — the degree-``k`` relatives with ``g_k(x) = f_{2k}(sqrt(x))`` for
  ``x > 4`` and ``g_k(4) = 2k + 1``.  They satisfy their own three-term
  recursion ``g_{k+1} = (x - 2) g_k - g_{k-1}`` (a consequence of the
  ``f`` recursion applied twice), which is what we evaluate: it is exact for
  rational ``x`` and needs no square root.

Exact inputs (ints, Fractions) take the exact recursion path; floats are
evaluated in mpmath working precision, never in hardware doubles, because
``u^{k+1}`` overflows doubles long before the interesting range of ``k``.
The envelopes returned by :func:`envelope` are computed with mpmath interval
arithmetic, so their bounds are certified enclosures, not estimates.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction
from numbers import Rational

import mpmath
from mpmath import iv, mp

__all__ = [
    "ChebEnvelope",
    "OutsideDomainError",
    "chebyshev_f",
    "chebyshev_f_closed",
    "chebyshev_g",
    "envelope",
    "f_growth_base",
    "g_growth_base",
    "limit_value",
]


class OutsideDomainError(ValueError):
    code = "outside-domain"


@contextmanager
def interval_precision():
    """Run mpmath interval arithmetic at the current ``mp.prec``.

    ``iv.prec`` is global to mpmath; it is restored on exit, so a caller's
    interval precision is never changed by this package.
    """
    saved = iv.prec
    iv.prec = mp.prec
    try:
        yield
    finally:
        iv.prec = saved


def _is_exact(t) -> bool:
    return isinstance(t, (int, Rational)) and not isinstance(t, bool)


def _check_k(k: int) -> int:
    if int(k) != k or k < 0:
        raise OutsideDomainError(f"index must be a nonnegative integer, got {k}")
    return int(k)


def chebyshev_f(k: int, t):
    """``f_k(t)`` for ``t >= 2`` by the three-term recursion.

    Exact :class:`Fraction` for rational ``t``, mpmath float otherwise.
    """
    k = _check_k(k)
    exact = _is_exact(t)
    t_val = Fraction(t) if exact else mp.mpf(t)
    if t_val < 2:
        raise OutsideDomainError(f"f_k is only used for t >= 2, got {t}")
    prev, cur = (Fraction(1), t_val) if exact else (mp.mpf(1), t_val)
    if k == 0:
        return prev
    for _ in range(k - 1):
        prev, cur = cur, t_val * cur - prev
    return cur


def chebyshev_f_closed(k: int, t) -> mpmath.mpf:
    """Closed form ``(u^{k+1} - u^{-(k+1)})/(u - u^{-1})``, ``t > 2`` only.

    Numeric (mpmath) evaluation; serves as the independent cross-check of
    :func:`chebyshev_f` away from the degenerate point ``t = 2``.
    """
    k = _check_k(k)
    t = mp.mpf(t)
    if t <= 2:
        raise OutsideDomainError(f"closed form requires t > 2, got {t}")
    u = f_growth_base(t)
    return (u ** (k + 1) - u ** (-(k + 1))) / (u - 1 / u)


def chebyshev_g(k: int, x):
    """``g_k(x)`` for ``x >= 4``: ``g_0 = 1``, ``g_1 = x - 1``,
    ``g_{k+1} = (x - 2) g_k - g_{k-1}``.

    At the degenerate point ``x = 4`` the recursion yields ``2k + 1``
    directly.  Exact for rational ``x``.
    """
    k = _check_k(k)
    exact = _is_exact(x)
    x_val = Fraction(x) if exact else mp.mpf(x)
    if x_val < 4:
        raise OutsideDomainError(f"g_k is only used for x >= 4, got {x}")
    prev = Fraction(1) if exact else mp.mpf(1)
    cur = x_val - 1
    if k == 0:
        return prev
    for _ in range(k - 1):
        prev, cur = cur, (x_val - 2) * cur - prev
    return cur


def f_growth_base(t) -> mpmath.mpf:
    """``u = (t + sqrt(t^2 - 4))/2``, the growth base of ``f_k(t)``; ``t >= 2``."""
    t = mp.mpf(t)
    if t < 2:
        raise OutsideDomainError(f"growth base requires t >= 2, got {t}")
    return (t + mp.sqrt(t * t - 4)) / 2


def g_growth_base(x) -> mpmath.mpf:
    """``(x - 2 + sqrt(x(x-4)))/2``, the growth base of ``g_k(x)``; ``x >= 4``.

    Equals the square of ``f_growth_base(sqrt(x))`` and degenerates to 1 at
    ``x = 4`` (polynomial growth there).
    """
    x = mp.mpf(x)
    if x < 4:
        raise OutsideDomainError(f"growth base requires x >= 4, got {x}")
    return (x - 2 + mp.sqrt(x * (x - 4))) / 2


def iv_growth_base(t, t2):
    """Interval ``u = (t + sqrt(t^2 - 4))/2`` for a trace interval ``t >= 2``.

    ``t2`` is the interval ``t^2``, passed in so that a trace known through its
    square (``t = sqrt(x)``) is not squared back.  At ``t = 2`` the result is
    exactly ``[1, 1]``.
    """
    return (t + iv.sqrt(t2 - 4)) / 2


def limit_value(t) -> mpmath.mpf:
    """Limit of ``f_k(t) u^{-(k+1)}`` as ``k -> oo``: ``1/sqrt(t^2 - 4)``."""
    t = mp.mpf(t)
    if t <= 2:
        raise OutsideDomainError(f"limit value requires t > 2, got {t}")
    return 1 / mp.sqrt(t * t - 4)


@dataclass(frozen=True)
class ChebEnvelope:
    """Certified two-sided bracket ``lower <= f_k(t) <= upper`` for ``t > 2``."""

    lower: mpmath.mpf
    upper: mpmath.mpf
    base_u: mpmath.mpf


def _iv_from(t):
    if _is_exact(t):
        frac = Fraction(t)
        return iv.mpf(frac.numerator) / iv.mpf(frac.denominator)
    return iv.mpf(mp.mpf(t))


def envelope(k: int, t) -> ChebEnvelope:
    """Interval-arithmetic envelope of ``f_k(t)`` from the closed form.

    With ``u v = 1`` the closed form gives, for ``t > 2``::

        u^{k+1} (1 - u^{-2(k+1)}) / (u - u^{-1})  =  f_k(t)  <=  u^{k+1} / (u - u^{-1})

    and both ends are evaluated with outward rounding, so the returned bracket
    provably contains the exact value.  The relative width decays like
    ``u^{-2(k+1)}``.
    """
    k = _check_k(k)
    with interval_precision():
        t_iv = _iv_from(t)
        if not (t_iv > 2):
            raise OutsideDomainError(f"envelope requires t > 2 strictly, got {t}")
        u = iv_growth_base(t_iv, t_iv * t_iv)
        denom = u - 1 / u
        top = u ** (k + 1) / denom
        bottom = top * (1 - u ** (-2 * (k + 1)))
        lower = mp.mpf(bottom.a)
        upper = mp.mpf(top.b)
    if _is_exact(t):
        frac = Fraction(t)
        t_mid = mp.mpf(frac.numerator) / frac.denominator
    else:
        t_mid = mp.mpf(t)
    return ChebEnvelope(lower=lower, upper=upper, base_u=f_growth_base(t_mid))
