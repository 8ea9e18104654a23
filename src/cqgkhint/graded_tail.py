"""Certified Euler-Maclaurin tail of the graded families ``oplus`` and ``aut``.

This module is the only tail of a non-Kac graded ``K_p``: it decides the
cutoff, encloses the tail beyond it, and bounds the tail beyond any length.
A geometric bound on the summand certifies a cutoff ``L`` only once
``rho^L`` itself is below ``tol``, so near the Kac point, where
``rho -> 1``, it needs thousands of levels.  This module encloses the tail
beyond ``L`` by the closed-form asymptotics of the summand instead, so that
the cutoff depends on ``u^(-2L)``, whatever ``rho`` is.

The summand.  Level ``k`` of a non-Kac graded model has ``m = s k + 1`` and
``(n, d) = (f_(m-1)(t_n), f_(m-1)(t_d))`` with ``f_j(t) = (u^(j+1) -
u^-(j+1)) / (u - 1/u)`` and growth bases ``1 <= u_n < u_d``.  With
``e = 2/p <= 1`` its term ``m^(2 - 4/p) (n/d)^e`` is exactly::

    T_m = C m^a rho^m G_m,   rho = (u_n/u_d)^e,
    u_n > 1:  a = 2 - 2e,  C = ((u_d - 1/u_d) / (u_n - 1/u_n))^e,
              G_m = ((1 - u_n^(-2m)) / (1 - u_d^(-2m)))^e,
    u_n = 1:  a = 2 - e,   C = (u_d - 1/u_d)^e,  G_m = (1 - u_d^(-2m))^(-e)

(when ``u_n = 1``, ``n = m``).  In both cases ``0 <= a < 2``.

The bounds on ``G``.  Let ``m >= M``, ``u`` be ``u_n`` (or ``u_d`` when
``u_n = 1``), ``x = u^(-2M) < 1`` and ``delta = e x / (1 - x)``.  For
``u_n > 1``: ``1 - u_n^(-2m) <= 1 - u_d^(-2m)`` gives ``G_m <= 1``, and
``G_m >= (1 - x)^e = (1 + y)^(-e)`` with ``y = x / (1 - x)``; as
``t -> (1 + t)^(-e)`` is convex, it lies above its tangent ``1 - e t`` at 0,
so ``G_m >= 1 - delta``.  For ``u_n = 1``: ``G_m >= 1``, and
``G_m <= (1 + y)^e <= 1 + e y = 1 + delta`` since ``t -> (1 + t)^e`` is
concave for ``e <= 1``.  So ``G`` lies in ``[1 - delta, 1]`` or
``[1, 1 + delta]`` for every ``m >= M``, and ``delta`` falls with ``M``.

The tail.  Beyond length ``L`` the indices are ``m = M + s i``, ``i >= 0``,
``M = s (L + 1) + 1``, and all terms are positive, so the tail lies in
``C [G_lo, G_hi] S`` with::

    S = sum_(i >= 0) (M + s i)^a rho^(M + s i) = rho^M s^a sum_(i >= 0) f(i),
    f(t) = (v + t)^a e^(-c t),  v = M/s,  c = -s log rho = s c1,  c1 = -log rho.

Euler-Maclaurin (Olver, *Asymptotics and Special Functions*, ch. 8, 1.3;
DLMF 2.10.1) with ``K`` corrections, on ``[0, infinity)`` where ``f`` and
all its derivatives vanish at infinity, gives::

    sum_(i >= 0) f(i) = int_0^inf f + f(0)/2 - sum_(k=1..K) B_2k/(2k)! f^(2k-1)(0) + R_K,
    |R_K| <= |B_2K|/(2K)! int_0^inf |f^(2K)| = 2 zeta(2K) (2 pi)^(-2K) int_0^inf |f^(2K)|,

as ``|B_2K(t - floor t)| <= |B_2K|``.  The four parts, with ``x = c v =
M c1`` and ``rho^M = e^(-x)``, so that ``rho^M s^a v^a = e^(-x) M^a``:

* the integral, ``rho^M s^a int_0^inf f = c1^(-a-1) Gamma(a+1, x) / s``
  (DLMF 8.2.2).  ``Gamma(a+1, x) = Gamma(a+1) - gamma(a+1, x)``, with
  ``Gamma(a+1)`` from Stirling's series (:func:`_gamma`) and (DLMF 8.7.1)
  ``gamma(a+1, x) = x^(a+1) e^(-x) sum_(n >= 0) x^n / ((a+1)(a+2)...(a+1+n))``.
  The series' terms ``t_n`` are positive and ``t_(n+1) / t_n = x / (a+2+n)``
  decreases in ``n``; once it is at most 1/2, the terms after ``t_n`` sum to
  at most ``t_n``.  That is the series' remainder (:func:`_gamma_series`).
* ``f(0)/2``: ``e^(-x) M^a / 2``.
* the corrections.  ``f(t)/v^a = (1 + t/v)^a e^(-ct)`` has Taylor
  coefficients ``phi_n = sum_(j <= n) binom(a, j) v^-j (-c)^(n-j) / (n-j)!``
  and ``B_2k/(2k)! f^(2k-1)(0) = v^a (B_2k / 2k) phi_(2k-1)``.  As ``a`` and
  ``v`` are rational, ``Q(c) = sum_k (B_2k / 2k) phi_(2k-1)`` is one
  polynomial in ``c`` with exact rational coefficients
  (:func:`_correction_polynomial`, with ``B_2k`` from the tangent numbers),
  evaluated by Horner in intervals: the corrections are ``-e^(-x) M^a Q(c)``.
* the remainder.  By Leibniz, ``f^(n) = sum_j binom(n, j) (a)_j (v+t)^(a-j)
  (-c)^(n-j) e^(-ct)`` with ``(a)_j`` the falling factorial, and
  ``int_0^inf e^(-ct) (v+t)^b dt`` is at most ``v^b / c`` for ``b <= 0``
  and at most ``v^b (1/c + b/(v c^2) + b (b-1)^+ / (v^2 c^3))`` for
  ``0 < b < 2``, from ``(1 + r)^b <= 1 + b r + b (b-1)^+ r^2 / 2`` for
  ``r >= 0``.  So ``int |f^(n)| / v^a <= (1/c) sum_j T_j (1 + eps_j)``
  with ``T_j = n!/(n-j)! |binom(a, j)| v^-j c^(n-j)`` and ``eps_j`` the two
  extra terms when ``b = a - j > 0``; with ``zeta(2K) <= 1 + 3 * 2^(-2K)``,
  :func:`_remainder_bound` rounds all of it upward.

The cutoff.  ``C S <= C sum_(m >= 1) m^a rho^m <= B``, with
``B = C (Gamma(a+1) c1^(-a-1) + (a / (e c1))^a)``: a sum of a unimodal
function over ``m >= 1`` is at most its integral over ``[0, infinity)``
plus its maximum, taken at ``m = a / c1``.  The spread of ``G`` adds at
most ``delta B`` to the width, so ``2 delta B <= tol`` leaves at least half
of ``tol`` to the Euler-Maclaurin part; it is monotone in ``L``.  A cutoff
also needs a ``K <= K_MAX`` whose remainder fits in a quarter of ``tol``
(:meth:`GradedTail.corrections`): when the summand decays fast, ``c >= 2
pi``, that takes a level or two beyond the one where ``2 delta B`` passes.

The bound.  :meth:`GradedTail.tail_bound` is a plain upper bound on the tail,
for any ``L``, from the same constants: see its docstring.

Only :class:`cqgkhint.khintchine._GradedPlan` loads this module, for the
``K_p`` or a tail bound of a non-Kac graded model.  It runs on mpmath's
``libmp`` alone, and imports no mpmath module.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from ._libmp import Intervals, libmp

__all__ = ["GradedTail", "graded_tail"]

round_floor, round_ceiling = libmp.round_floor, libmp.round_ceiling
mpf_div, mpf_mul = libmp.mpf_div, libmp.mpf_mul

# the most Euler-Maclaurin corrections tried: beyond, the remainder of a c
# near 2 pi shrinks too slowly, and the cutoff moves to a longer length
K_MAX = 48
# guard bits of the enclosure over the caller's precision and the size of B
GUARD_BITS = 24
# bits of the remainder bound, which only needs to be an upper bound
REMAINDER_BITS = 64

@lru_cache(maxsize=None)
def _tangent_numbers(K: int) -> tuple[int, ...]:
    """The tangent numbers ``T_0 = 0, T_1, ..., T_K``, with
    ``tan t = sum T_k t^(2k-1) / (2k-1)!`` (Brent and Harvey's recurrence)."""
    T = [0, 1] + [0] * (K - 1)
    for k in range(2, K + 1):
        T[k] = (k - 1) * T[k - 1]
    for k in range(2, K + 1):
        for j in range(k, K + 1):
            T[j] = (j - k) * T[j - 1] + (j - k + 2) * T[j]
    return tuple(T)


def _correction_polynomial(K: int, a: Fraction, M: int, s: int) -> tuple[list[int], int]:
    """``(W, D)`` with ``Q(c) = sum_i W[i] c^i / D`` exactly (see the module docstring).

    ``B_2k / 2k = (-1)^(k-1) T_k / (4^k (4^k - 1))``.  With ``J = 2K - 1``,
    ``binom(a, j) v^-j = N_j / (J! (P M)^J)`` for ``a = A/P`` and ``v = M/s``,
    where ``N_j = (A)(A - P)...(A - (j-1)P) s^j (P M)^(J-j) J!/j!``; the
    coefficient of ``(-c)^i / i!`` is the sum of ``(B_2k / 2k) binom(a, j)
    v^-j`` over ``2k - 1 = i + j``.  Everything is put over one integer
    denominator.
    """
    J = 2 * K - 1
    A, P = a.numerator, a.denominator
    PM = P * M
    fact = [1] * (J + 1)
    for i in range(1, J + 1):
        fact[i] = fact[i - 1] * i
    betas, falling = [], 1
    for j in range(J + 1):
        betas.append(falling * s**j * PM ** (J - j) * (fact[J] // fact[j]))
        falling *= A - j * P
    T = _tangent_numbers(K)
    dens = [4**k * (4**k - 1) for k in range(1, K + 1)]
    lcm = math.lcm(*dens)
    bern = [(-1) ** (k - 1) * T[k] * (lcm // dens[k - 1]) for k in range(1, K + 1)]
    W = []
    for i in range(J + 1):
        z = sum(bern[k - 1] * betas[2 * k - 1 - i] for k in range((i + 2) // 2, K + 1))
        # (-c)^i / i! over the common J!: (-1)^i J!/i!
        W.append((-1) ** i * z * (fact[J] // fact[i]))
    return W, fact[J] * fact[J] * PM**J * lcm


def _log_float_remainder(K: int, a: float, log_c: float, log_vc: float) -> float:
    """``log`` of :func:`_remainder_bound` in doubles, to choose ``K``.

    Summed in logs, as ``c^n`` and ``(v c)^-j`` leave the range of a double
    when ``c`` is tiny.
    """
    n = 2 * K
    y = math.exp(-log_vc)
    logs, log_term = [], n * log_c
    for j in range(n + 1):
        b = a - j
        logs.append(log_term + (math.log1p(b * y + b * max(b - 1, 0) * y * y) if b > 0 else 0))
        ratio = (n - j) * abs(b) / (j + 1)
        if not ratio:
            break
        log_term += math.log(ratio) - log_vc
    top = max(logs)
    log_total = top + math.log(sum(math.exp(x - top) for x in logs))
    return math.log(2 + 6 * 0.25**K) - n * math.log(2 * math.pi) + log_total - log_c


def _fixed(x: tuple, bits: int, rnd) -> int:
    """``x 2^bits`` for a raw mpf ``x >= 0``, rounded to an integer by ``rnd``."""
    _, man, exp, _ = x
    shift = exp + bits
    if shift >= 0:
        return man << shift
    return man >> -shift if rnd == round_floor else -((-man) >> -shift)


def _remainder_bound(K: int, a: Fraction, M: int, s: int, c: tuple, prec: int) -> tuple:
    """An upper bound on ``|R_K| / v^a`` (see the module docstring), as a raw mpf.

    The bound is ``2 zeta(2K) (2 pi)^(-2K) c^(n-1) P(y)`` with ``n = 2K``,
    ``y = 1/(v c)`` and ``P(y) = sum_j T_j (1 + eps_j) / c^n``, a polynomial
    in ``y`` with nonnegative rational coefficients.  Its coefficients are
    exact integers over one denominator, and it is evaluated by Horner in
    fixed point with every step rounded up, at ``y`` rounded up; the powers
    of ``c`` take the upper end of ``c``, and ``y`` the lower one.
    """
    n = 2 * K
    A, P = a.numerator, a.denominator
    # coefficient j of P over n! P^(n+2): (n!/(n-j)!) |A (A-P) ... (A-(j-1)P)| (n!/j!) P^(n+2-j),
    # and eps_j moves b_j = (A - jP)/P and b_j (b_j - 1) of it to y^(j+1) and y^(j+2)
    h = [0] * (n + 3)
    fact = math.factorial(n)
    g = fact * P ** (n + 2)  # j = 0
    for j in range(n + 1):
        h[j] += g
        b = A - j * P
        if b > 0:
            h[j + 1] += g * b // P
            if b > P:
                h[j + 2] += g * b * (b - P) // (P * P)
        # g_(j+1) = g_j (n - j) |b| / ((j + 1) P)
        g = g * (n - j) * abs(b) // ((j + 1) * P)
        if not g:
            break
    up = round_ceiling
    vc = mpf_mul(libmp.from_int(M), c[0], prec, round_floor)
    y = _fixed(mpf_div(libmp.from_int(s), vc, prec, up), prec, up)
    acc = 0
    for coefficient in reversed(h):
        acc = -((-acc * y) >> prec) + coefficient
    poly = libmp.from_rational(acc, fact * P ** (n + 2), prec, up)
    # 2 zeta(2K) <= 2 (1 + 3 4^-K), over (2 pi)^(2K) with pi rounded down
    zeta2 = libmp.from_rational(2 * (4**K + 3), 4**K, prec, up)
    two_pi = libmp.mpf_shift(libmp.mpf_pi(prec, round_floor), 1)
    scale = mpf_div(zeta2, libmp.mpf_pow_int(two_pi, n, prec, round_floor), prec, up)
    bound = mpf_mul(mpf_mul(scale, libmp.mpf_pow_int(c[1], n, prec, up), prec, up), poly, prec, up)
    return mpf_div(bound, c[0], prec, up)


def _gamma_series(x: tuple, a1: Fraction, prec: int) -> tuple:
    """``sum_(n >= 0) x^n / (a1 (a1+1) ... (a1+n))`` for ``x > 0``, ``a1 >= 1``, enclosed.

    The sum increases with ``x``, so it lies between its values at the ends
    of ``x``, which are summed in fixed point with ``prec + 16`` fractional
    bits, each term rounded down at the lower end and up at the upper one.
    Terms are added until the ratio ``x / (a1 + n + 1)`` of the next term is
    at most 1/2 and the last term is below ``2^-prec`` of the sum; the rest
    is then at most that last term, which the upper end adds once more.
    """
    A, P = a1.numerator, a1.denominator
    bits = prec + 16
    x_lo, x_hi = _fixed(x[0], bits, round_floor), _fixed(x[1], bits, round_ceiling)
    # the ratio x / (a1 + n + 1) <= 1/2 once n + 1 >= 2 x, as a1 >= 1
    n_half = -((-2 * x_hi) >> bits)
    lo, hi = (P << bits) // A, -((-P << bits) // A)
    total_lo, total_hi, n = lo, hi, 0
    while True:
        n += 1
        den = (A + n * P) << bits
        lo = lo * x_lo * P // den
        hi = -((-hi * x_hi * P) // den)
        total_lo += lo
        total_hi += hi
        if n + 1 >= n_half and hi <= total_lo >> prec:
            return (
                libmp.from_man_exp(total_lo, -bits, prec, round_floor),
                libmp.from_man_exp(total_hi + hi, -bits, prec, round_ceiling),
            )


def _horner(W, D: int, c: tuple, prec: int) -> tuple:
    """``sum_i W[i] c^i / D`` for an interval ``c > 0``, enclosed.

    Horner in fixed point with ``prec`` fractional bits, on the interval of
    the running value: times ``c > 0`` its lower end takes the lower end of
    ``c`` when it is nonnegative and the upper end otherwise, rounded down,
    and its upper end the reverse, rounded up.
    """
    bits = prec
    c_lo, c_hi = _fixed(c[0], bits, round_floor), _fixed(c[1], bits, round_ceiling)
    lo = hi = W[-1] << bits
    for w in reversed(W[:-1]):
        lo = (lo * (c_lo if lo >= 0 else c_hi)) >> bits
        hi = -((-hi * (c_hi if hi >= 0 else c_lo)) >> bits)
        lo += w << bits
        hi += w << bits
    D <<= bits
    return (
        libmp.from_rational(lo, D, prec, round_floor),
        libmp.from_rational(hi, D, prec, round_ceiling),
    )


@lru_cache(maxsize=None)
def _stirling_series(m: int) -> tuple[tuple[int, ...], int, int, int]:
    """``(W, D, t, d)``: ``sum_(k=1..m) B_2k / (2k (2k-1)) u^(k-1) = sum_i W[i] u^i / D``,
    and ``|B_(2m+2)| / ((2m+2)(2m+1)) = t / d``.

    ``B_2k / (2k (2k-1)) = (-1)^(k-1) T_k / (4^k (4^k - 1) (2k - 1))``.
    """
    T = _tangent_numbers(m + 1)
    dens = [4**k * (4**k - 1) * (2 * k - 1) for k in range(1, m + 2)]
    D = math.lcm(*dens[:m])
    W = tuple((-1) ** (k - 1) * T[k] * (D // dens[k - 1]) for k in range(1, m + 1))
    return W, D, T[m + 1], dens[m]


def _gamma(iv: Intervals, a1: Fraction) -> tuple:
    """``Gamma(a1)`` for a rational ``a1 >= 1``, enclosed, by Stirling's series.

    With ``z = a1 + N``, ``Gamma(a1) = Gamma(z) / (a1 (a1+1) ... (a1+N-1))``,
    the product exact, and for real ``z > 0`` (DLMF 5.11.1, 5.11.10)::

        log Gamma(z) = (z - 1/2) log z - z + log(2 pi)/2
                       + sum_(k=1..m) B_2k / (2k (2k-1) z^(2k-1)) + R_m,

    with ``|R_m|`` at most the first omitted term, which is enclosed too.
    ``m`` grows with the precision and ``N`` is chosen, in doubles, to put
    that term below ``2^-prec``.  The series is ``w`` times a polynomial in
    ``u = w^2``, ``w = 1/z``, summed by :func:`_horner`.  (mpmath's own
    ``Gamma`` would first tabulate its Taylor coefficients at this precision,
    which takes longer than all of this.)
    """
    prec = iv.prec
    A, P = a1.numerator, a1.denominator
    m = prec // 16 + 4
    # |B_(2m+2)| / (2m+2)! ~ 2 (2 pi)^-(2m+2): the omitted term is near (2m+2)! / (2 pi z)^(2m+2)
    log2_z = (math.lgamma(2 * m + 3) / math.log(2) + prec + 8) / (2 * m + 2)
    N = math.ceil(2**log2_z / (2 * math.pi)) + 1
    W, D, t, d = _stirling_series(m)
    Z = A + N * P  # z = Z / P
    w = iv.rational(Fraction(P, Z))
    omitted = iv.div(iv.mul(iv.integer(t), iv.pow(w, 2 * m + 1)), iv.integer(d))[1]
    z = iv.rational(Fraction(Z, P))
    pi = libmp.mpf_pi(prec, round_floor), libmp.mpf_pi(prec, round_ceiling)
    log_gamma = iv.sub(iv.mul(iv.sub(z, iv.rational(Fraction(1, 2))), iv.log(z)), z)
    log_gamma = iv.add(log_gamma, iv.div(iv.log(iv.mul(iv.integer(2), pi)), iv.integer(2)))
    log_gamma = iv.add(log_gamma, iv.mul(w, _horner(W, D, iv.mul(w, w), prec)))
    log_gamma = iv.add(log_gamma, (libmp.mpf_neg(omitted), omitted))
    rising = math.prod(A + i * P for i in range(N))
    return iv.div(iv.mul(iv.exp(log_gamma), iv.integer(P**N)), iv.integer(rising))


class GradedTail:
    """The tail of one non-Kac graded model at one ``p``, beyond a length ``L``.

    Made by :func:`graded_tail`.  :meth:`log_width_bound` and
    :meth:`width_bound` are the cutoff's monotone bound ``2 delta B`` on the
    width, in doubles to aim and in intervals to decide, together with
    :meth:`corrections`; :meth:`enclosure` is the Euler-Maclaurin enclosure
    of the tail (see the module docstring), and :meth:`tail_bound` a
    monotone upper bound on it.
    """

    def __init__(self, bases, unit: bool, s: int, p: Fraction, prec: int, floats: tuple):
        self.s, self.prec, self.unit = s, prec, unit
        self.e = Fraction(2) / p
        self.a = 2 - self.e if unit else 2 - 2 * self.e
        self.c1, self.log_C, self.log_B, self.rate = floats
        # the enclosure's precision: prec bits of the width, above the size of B
        self.wp = prec + GUARD_BITS + max(0, math.ceil(self.log_B / math.log(2)))
        iv = self.iv = Intervals(self.wp)
        u_n, u_d = bases(iv)
        self.u = u_d if unit else u_n
        spread = _spread(iv, u_d) if unit else iv.div(_spread(iv, u_d), _spread(iv, u_n))
        self.c1_iv = iv.mul(iv.rational(self.e), iv.log(iv.div(u_d, u_n)))
        self.C = iv.pow(spread, self.e)
        a = self.a
        self.gamma = _gamma(iv, a + 1)
        peak = iv.integer(1)
        if a:
            # (a / (e c1))^a
            log_peak = iv.sub(iv.log(iv.div(iv.rational(a), self.c1_iv)), iv.integer(1))
            peak = iv.exp(iv.mul(log_peak, iv.rational(a)))
        self.c1_power = iv.pow(self.c1_iv, -(a + 1))
        self.B = iv.mul(self.C, iv.add(iv.mul(self.gamma, self.c1_power), peak))

    def _first_m(self, L: int) -> int:
        """``M = s (L + 1) + 1``, the first ``m`` beyond length ``L``."""
        return self.s * (L + 1) + 1

    def _delta(self, M: int) -> tuple:
        """``delta = e x / (1 - x)``, ``x = u^(-2M)``, in intervals."""
        iv = self.iv
        x = iv.pow(self.u, -2 * M)
        return iv.mul(iv.rational(self.e), iv.div(x, iv.sub(iv.integer(1), x)))

    def log_width_bound(self, L: int) -> float:
        """``log(2 delta B)`` in doubles: it aims the cutoff and decides none."""
        M = self._first_m(L)
        log_x = -self.rate * M
        return math.log(2 * self.e) + self.log_B + log_x - math.log1p(-math.exp(log_x))

    def width_bound(self, L: int) -> tuple:
        """The upper end of ``2 delta B``, certified, as a raw mpf."""
        iv = self.iv
        return iv.mul(iv.integer(2), self._delta(self._first_m(L)), self.B)[1]

    def tail_bound(self, L: int) -> tuple:
        """An upper bound on the tail beyond ``L``, nonincreasing in ``L``.

        A raw mpf at the caller's precision, rounded up.  With ``M = s (L + 1)
        + 1``, ``G_hi = 1`` when ``u_n > 1`` or ``1 + delta(M)`` when ``u_n = 1``
        (so ``G_m <= G_hi`` for ``m >= M``; see the module docstring) and
        ``y = s (c1 - a/M)``, it is the upper end of ``G_hi B``, or of
        ``G_hi min(B, C M^a e^(-c1 M) / (1 - e^(-y)))`` when ``1 - e^(-y) > 0``
        is certain.

        Proof.  For ``m >= M``, ``T_m <= C G_hi m^a e^(-c1 m)`` and, as
        ``1 + r <= e^r``, ``(m/M)^a <= e^(a (m - M)/M)``: the term at
        ``m = M + s i`` is at most ``C G_hi M^a e^(-c1 M) e^(-y i)``, a
        geometric series for ``y > 0``.  The terms being positive, they also
        sum to at most ``G_hi C sum_(m >= 1) m^a rho^m <= G_hi B``.  Monotone:
        ``G_hi`` falls as ``M`` grows; once ``y > 0`` it grows with ``M``, and
        ``M^a e^(-c1 M)`` falls, its log having derivative ``a/M - c1 =
        -y/s``.  Below that ``M`` the bound is ``G_hi B``, no smaller than the
        minimum beyond.
        """
        iv, M = self.iv, self._first_m(L)
        one = iv.integer(1)
        G_hi = iv.add(one, self._delta(M)) if self.unit else one
        bound = self.B
        y = iv.mul(iv.integer(self.s), iv.sub(self.c1_iv, iv.div(iv.rational(self.a), iv.integer(M))))
        gap = iv.sub(one, iv.exp(libmp.mpi_neg(y)))
        if libmp.mpf_gt(gap[0], libmp.fzero):
            decay = iv.exp(libmp.mpi_neg(iv.mul(iv.integer(M), self.c1_iv)))
            series = iv.div(iv.mul(self.C, iv.pow(iv.integer(M), self.a), decay), gap)
            if libmp.mpf_lt(series[1], bound[1]):
                bound = series
        return libmp.mpf_pos(iv.mul(G_hi, bound)[1], self.prec, round_ceiling)

    def corrections(self, L: int, budget: float) -> int | None:
        """The fewest corrections whose remainder beyond ``L``, in doubles, puts
        at most ``budget / 4`` on the width; None when ``K_MAX`` do not.

        The room for the remainder grows by about ``c1`` per level once
        ``M c1 > a``, and its estimate falls, so a length that fits stays
        fitting.  When ``c = s c1 >= 2 pi`` more corrections do not shrink
        the remainder, and only a longer cutoff makes room for it.
        """
        M = self._first_m(L)
        a, s, c1 = float(self.a), self.s, self.c1
        log_c = math.log(s * c1)
        log_vc = math.log(M * c1)
        # the width from the remainder is 2 C e^(-x) M^a |R_K / v^a|
        log_room = math.log(budget) - math.log(8) - self.log_C + M * c1 - a * math.log(M)
        for K in range(1, K_MAX + 1):
            if _log_float_remainder(K, a, log_c, log_vc) <= log_room:
                return K
        return None

    def enclosure(self, L: int, budget: float) -> tuple[tuple, tuple] | None:
        """``(lower, width)``: the tail beyond ``L`` lies in ``[lower, lower + width]``.

        Raw mpfs at the caller's precision, ``lower`` rounded down and
        ``width`` up.  The number of corrections ``K`` is the fewest that
        put at most ``budget / 4`` on the width by the double estimate of
        the remainder; None when no ``K <= K_MAX`` does.
        """
        K = self.corrections(L, budget)
        if K is None:
            return None
        iv, a, s, M = self.iv, self.a, self.s, self._first_m(L)
        c1 = self.c1_iv
        x = iv.mul(iv.integer(M), c1)
        c = iv.mul(iv.integer(s), c1)
        e_x = iv.exp(libmp.mpi_neg(x))
        # Gamma(a+1, x) = Gamma(a+1) - x^(a+1) e^(-x) * series
        x_power = iv.pow(x, a + 1)
        lower_gamma = iv.mul(x_power, e_x, _gamma_series(x, a + 1, self.wp))
        integral = iv.div(iv.mul(self.c1_power, iv.sub(self.gamma, lower_gamma)), iv.integer(s))
        # f(0)/2 - corrections + remainder, times e^(-x) M^a
        q = _horner(*_correction_polynomial(K, a, M, s), c, self.wp)
        r = _remainder_bound(K, a, M, s, c, REMAINDER_BITS)
        edge = iv.sub(iv.rational(Fraction(1, 2)), q)
        edge = iv.add(edge, (libmp.mpf_neg(r), r))
        edge = iv.mul(edge, e_x, iv.pow(iv.integer(M), a))
        S = iv.add(integral, edge)
        one, delta = iv.integer(1), self._delta(M)
        G = (one[0], iv.add(one, delta)[1]) if self.unit else (iv.sub(one, delta)[0], one[1])
        lo, hi = iv.mul(self.C, G, S)
        prec = self.prec
        lower = libmp.mpf_pos(lo, prec, round_floor)
        return lower, libmp.mpf_sub(hi, lower, prec, round_ceiling)


def _spread(iv: Intervals, u: tuple) -> tuple:
    """``u - 1/u``."""
    return iv.sub(u, iv.div(iv.integer(1), u))


def graded_tail(bases, s: int, p: Fraction, prec: int) -> GradedTail | None:
    """The asymptotic tail of a non-Kac graded model at ``p``, or None.

    ``bases(iv)`` gives the interval growth bases ``(u_n, u_d)`` in the
    :class:`~cqgkhint._libmp.Intervals` ``iv``.  The doubles that aim the
    cutoff are the midpoints of ``log u_n``, ``log u_d``, ``log(u_n - 1/u_n)``
    (0 when ``unit``, ``u_n = 1``) and ``log(u_d - 1/u_d)`` at ``prec`` bits.
    None when they cannot aim a cutoff: ``c1 = e log(u_d/u_n)`` underflows,
    as at ``p = 10^400``, or ``B`` overflows.
    """
    iv = Intervals(prec)
    u_n, u_d = bases(iv)
    one = iv.integer(1)
    unit = u_n == one
    log_u_n, log_u_d, log_spread_n, log_spread_d = (
        libmp.to_float(libmp.mpi_mid(iv.log(x), prec))
        for x in (u_n, u_d, one if unit else _spread(iv, u_n), _spread(iv, u_d))
    )
    e = 2 / p
    a = float(2 - e if unit else 2 - 2 * e)
    e = float(e)
    c1 = e * (log_u_d - log_u_n)
    if not 0 < c1 < math.inf:
        return None
    log_C = e * (log_spread_d - log_spread_n)
    # log B = log C + log(Gamma(a+1) c1^(-a-1) + (a / (e c1))^a)
    t1 = math.lgamma(a + 1) - (a + 1) * math.log(c1)
    t2 = a * (math.log(a) - 1 - math.log(c1)) if a else 0.0
    log_B = log_C + max(t1, t2) + math.log1p(math.exp(-abs(t1 - t2)))
    rate = 2 * (log_u_d if unit else log_u_n)
    if not (math.isfinite(log_B) and rate > 0):
        return None
    return GradedTail(bases, unit, s, p, prec, (c1, log_C, log_B, rate))
