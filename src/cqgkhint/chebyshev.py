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
The envelopes returned by :func:`envelope` are computed in outward-rounded
interval arithmetic, so their bounds are certified enclosures, not estimates.

mpmath is imported by the functions that compute in it, when they run, never
with this module, and the exact recursions do not load it.  No command of the
command-line tool imports this module: the models run their own integer
recursions, and :mod:`cqgkhint.khintchine` its own interval growth bases.
"""

from __future__ import annotations

from fractions import Fraction
from numbers import Rational
from typing import TYPE_CHECKING

from .record import Record

if TYPE_CHECKING:
    import mpmath

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
    if _is_exact(t):
        prev, t_val = Fraction(1), Fraction(t)
    else:
        from mpmath import mp

        prev, t_val = mp.mpf(1), mp.mpf(t)
    if t_val < 2:
        raise OutsideDomainError(f"f_k is only used for t >= 2, got {t}")
    cur = t_val
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
    from mpmath import mp

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
    if _is_exact(x):
        prev, x_val = Fraction(1), Fraction(x)
    else:
        from mpmath import mp

        prev, x_val = mp.mpf(1), mp.mpf(x)
    if x_val < 4:
        raise OutsideDomainError(f"g_k is only used for x >= 4, got {x}")
    cur = x_val - 1
    if k == 0:
        return prev
    for _ in range(k - 1):
        prev, cur = cur, (x_val - 2) * cur - prev
    return cur


def f_growth_base(t) -> mpmath.mpf:
    """``u = (t + sqrt(t^2 - 4))/2``, the growth base of ``f_k(t)``; ``t >= 2``."""
    from mpmath import mp

    t = mp.mpf(t)
    if t < 2:
        raise OutsideDomainError(f"growth base requires t >= 2, got {t}")
    return (t + mp.sqrt(t * t - 4)) / 2


def g_growth_base(x) -> mpmath.mpf:
    """``(x - 2 + sqrt(x(x-4)))/2``, the growth base of ``g_k(x)``; ``x >= 4``.

    Equals the square of ``f_growth_base(sqrt(x))`` and degenerates to 1 at
    ``x = 4`` (polynomial growth there).
    """
    from mpmath import mp

    x = mp.mpf(x)
    if x < 4:
        raise OutsideDomainError(f"growth base requires x >= 4, got {x}")
    return (x - 2 + mp.sqrt(x * (x - 4))) / 2


def limit_value(t) -> mpmath.mpf:
    """Limit of ``f_k(t) u^{-(k+1)}`` as ``k -> oo``: ``1/sqrt(t^2 - 4)``."""
    from mpmath import mp

    t = mp.mpf(t)
    if t <= 2:
        raise OutsideDomainError(f"limit value requires t > 2, got {t}")
    return 1 / mp.sqrt(t * t - 4)


class ChebEnvelope(Record):
    """Certified two-sided bracket ``lower <= f_k(t) <= upper`` for ``t > 2``."""

    lower: mpmath.mpf
    upper: mpmath.mpf
    base_u: mpmath.mpf


def envelope(k: int, t) -> ChebEnvelope:
    """Interval-arithmetic envelope of ``f_k(t)`` from the closed form.

    With ``u v = 1`` the closed form gives, for ``t > 2``::

        u^{k+1} (1 - u^{-2(k+1)}) / (u - u^{-1})  =  f_k(t)  <=  u^{k+1} / (u - u^{-1})

    and both ends are evaluated with outward rounding, so the returned bracket
    provably contains the exact value.  The relative width decays like
    ``u^{-2(k+1)}``.  The intervals are those of mpmath's ``iv`` context at
    ``iv.prec = mp.prec`` (see :class:`~cqgkhint._libmp.Intervals`), with
    ``u = (t + sqrt(t^2 - 4))/2``; mpmath's own ``iv.prec`` is not touched.
    """
    from mpmath import mp

    from ._libmp import Intervals, libmp

    k = _check_k(k)
    iv = Intervals(mp.prec)
    if _is_exact(t):
        t_iv = iv.rational(Fraction(t))
    else:
        t_iv = (mp.mpf(t)._mpf_,) * 2
    if not libmp.mpi_gt(t_iv, iv.integer(2)):
        raise OutsideDomainError(f"envelope requires t > 2 strictly, got {t}")
    one = iv.integer(1)
    u = iv.div(iv.add(t_iv, iv.sqrt(iv.sub(iv.mul(t_iv, t_iv), iv.integer(4)))), iv.integer(2))
    top = iv.div(iv.pow(u, k + 1), iv.sub(u, iv.div(one, u)))
    bottom = iv.mul(top, iv.sub(one, iv.pow(u, -2 * (k + 1))))
    lower, upper = mp.make_mpf(bottom[0]), mp.make_mpf(top[1])
    if _is_exact(t):
        frac = Fraction(t)
        t_mid = mp.mpf(frac.numerator) / frac.denominator
    else:
        t_mid = mp.mpf(t)
    return ChebEnvelope(lower=lower, upper=upper, base_u=f_growth_base(t_mid))
