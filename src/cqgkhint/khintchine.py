"""Certified evaluation of the character Khintchine constant ``K_p``.

For a model with irreducibles graded by a length, the squared constant is the
series::

    K_p^2 = sum_over_irreducibles  chi_sup^(2 - 4/p) * (n/d)^(2/p)

summed here by ascending length.  The evaluator returns a *certified
interval*: an exact-ordered partial sum (high-precision mpmath arithmetic at a
fixed precision, so results are bit-stable) plus a rigorous bound on the
dropped tail, computed with interval arithmetic from growth envelopes.

Every summand is read from one table of terms ``s^2 r^(2/p)`` (``s`` an
integer, ``r`` an exact rational), each formed as ``s^2 exp((2/p) log r)``
from one logarithm per term and precision, shared by every ``p``, and rounded
once, within one unit in the last place (see :func:`_log_ratio`).  A graded
level is one term; a Drinfeld-Jimbo summand is a ratio of products of the
terms ``psi(m)`` (see :meth:`KpEvaluator._ratio`).
The tails:

* free orthogonal / quantum automorphism families: one Chebyshev envelope.
  Level ``k`` is ``(f_j(t_n), f_j(t_d))`` with ``j = s k`` and
  ``chi_sup = j + 1``: ``s = 1`` at the traces ``N`` and ``Nq`` for
  ``oplus``, ``s = 2`` at ``sqrt(dimB)`` and ``sqrt(d1 + 1)`` for ``aut``.
  The closed form of ``f_j`` bounds ``n/d <= C (u_n/u_d)^(j+1)`` (times
  ``j + 1`` when ``t_n = 2``) with explicit ``C`` and growth bases ``u``; the
  tail is a dominated geometric series in ``j``.
* Drinfeld-Jimbo deformations: ``n_mu`` is bounded by an explicit polynomial
  ``prod (1 + C_a k)`` in the length, ``d_mu >= t_max^{-k}`` by the
  modular-matrix sup-norm identity, and the number of dominant weights of
  length ``k`` is the exact binomial count; the dominated series is again
  summed in closed form once its term ratio drops below 1.

The cutoff, the first length whose certified tail is ``<= tol``, is aimed in
doubles and decided in intervals: the same tail formula evaluated in logs, in
double precision, proposes it, and the certified tail is then evaluated at the
proposal and one length below it (walking on when the proposal misses).  The
doubles only choose where to look; the reported cutoff and tail are the
interval ones.

Kac-type models are reported divergent with a certified witness (every level
contributes a term >= 1), never via timeout.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import partial, reduce
from operator import add, lshift, mul

import mpmath
from mpmath import iv, mp
from mpmath.libmp import (
    from_int,
    from_man_exp,
    from_rational,
    mpf_div,
    mpf_exp,
    mpf_log,
    mpf_mul,
    round_nearest,
)

from .chebyshev import interval_precision, iv_growth_base
from .exact import DEFAULT_PRECISION_BITS, HorizonError, KacDivergenceError, as_fraction
from .models import (
    DrinfeldJimboModel,
    FreeOrthogonalModel,
    QuantumGroupModel,
    _check_length,
    construct_model,
)
from .record import Record

__all__ = [
    "KacDivergenceError",
    "PValueError",
    "RValueError",
    "HorizonError",
    "KpNotConvergedError",
    "KpReport",
    "DecayReport",
    "ConstantsReport",
    "KpEvaluator",
    "kp_constant",
    "certified_tail",
    "decay_rate",
    "norm_equivalence_constants",
    "constants_from_kp",
    "DEFAULT_PRECISION_BITS",
]

class PValueError(ValueError):
    code = "p-out-of-range"


class RValueError(ValueError):
    code = "bad-r"


class KpNotConvergedError(ArithmeticError):
    code = "kp-not-converged"


class KpReport(Record):
    """Certified summary of a ``K_p`` evaluation.

    ``verdict`` is one of ``"converged"``, ``"divergent"``, ``"inconclusive"``.
    For a converged report ``K_p^2`` lies in
    ``[partial_sum, partial_sum + tail_bound]`` and ``kp_interval`` is the
    square-root interval.  A divergent report carries the certified lower
    bound on infinitely many terms instead.
    """

    model_spec: str
    p: Fraction
    terms_summed: int
    partial_sum: mpmath.mpf
    tail_bound: mpmath.mpf | None
    verdict: str
    kp2_interval: tuple[mpmath.mpf, mpmath.mpf] | None
    kp_interval: tuple[mpmath.mpf, mpmath.mpf] | None
    term_lower_bound: float | None
    precision_bits: int

    @property
    def converged(self) -> bool:
        return self.verdict == "converged"


class DecayReport(Record):
    """Decay data for ``n/d`` along the length grading.

    ``theoretical_base`` is the closed-form ratio of growth bases (1 for Kac
    models); ``empirical_base`` is ``(n/d)^{1/k}`` at the horizon (worst label
    on the level for rank > 1); ``constant_envelope`` is an explicit ``C``
    with ``n/d <= C * base^k`` checked for every ``k <= horizon``.
    ``polynomial_factor`` flags families where the ratio carries a polynomial
    factor on top of the geometric decay.
    """

    model_spec: str
    theoretical_base: mpmath.mpf
    empirical_base: mpmath.mpf
    constant_envelope: mpmath.mpf
    horizon: int
    polynomial_factor: bool


class ConstantsReport(Record):
    """Norm-equivalence constants derived from a converged ``K_p``.

    The exponents are exact rationals: ``p/(p-2)`` (L2 against L1),
    ``(2p-2)/(p-2)`` (Lp against L1) and ``2p(r-1)/(r(p-2))`` (Lr against L1);
    the constants are powers of the conservative upper end of the ``K_p``
    interval.
    """

    model_spec: str
    p: Fraction
    r: Fraction
    exp_c_2_1: Fraction
    exp_c_p_1: Fraction
    exp_c_r_1: Fraction
    c_2_1: mpmath.mpf
    c_p_1: mpmath.mpf
    c_r_1: mpmath.mpf
    kp_upper: mpmath.mpf
    precision_bits: int


def _mpf_from_fraction(x: Fraction) -> mpmath.mpf:
    return mp.mpf(x.numerator) / x.denominator


def _log_fraction(x: Fraction) -> float:
    """``log x`` in doubles for a positive rational whose terms may overflow a double."""
    return math.log(x.numerator) - math.log(x.denominator)


def _iv_from_fraction(x: Fraction):
    return iv.mpf(x.numerator) / iv.mpf(x.denominator)


def _iv_pow(x, e: Fraction):
    """``x ** e`` for a positive interval and rational exponent."""
    if e.denominator == 1:
        return x ** int(e)
    return iv.exp(iv.log(x) * _iv_from_fraction(e))


def _log_ratio(x: int, y: int, prec: int) -> tuple[int, tuple]:
    """``(wp, log(x/y))`` for positive integers ``x, y``, raw mpf at ``wp`` bits.

    This is the one kernel of every ``K_p`` summand ``s^2 (x/y)^(2/p)``,
    which is formed as ``s^2 exp((2/p) L)`` with ``L = log(x/y)`` (see
    :meth:`KpEvaluator._terms`).  Write ``b = bitlen(x) - bitlen(y)``; then
    ``m = |b| + 1`` exceeds ``|log2(x/y)|``, so ``|L| < m``.  At ``wp`` bits,
    ``x/y`` (within ``1.5 * 2^-wp`` relative), ``L``, ``2/p <= 1`` and
    ``(2/p) L`` are each rounded once, which puts ``(2/p) L`` within
    ``4 (1 + |L|) 2^-wp < 2^(3 + bitlen(m) - wp)`` of its exact value.  So
    ``wp = prec + bitlen(m) + 8`` keeps it within ``2^-(prec + 5)``; with the
    ``exp`` rounded to ``prec + 8`` bits, ``s^2 exp((2/p) L)`` is known to a
    relative ``2^-(prec + 4)`` before its one rounding to ``prec`` bits, so
    it lands within one unit in the last place.  The guard is at least 32
    bits, so every ratio with ``m < 2^24`` shares one ``wp`` (and one rounded
    ``2/p``) per precision.
    """
    b = x.bit_length() - y.bit_length()
    wp = prec + max((abs(b) + 1).bit_length() + 8, 32)
    # floor(x 2^shift / y) has wp + 2 or wp + 3 bits and is rounded once to wp bits
    shift = wp + 2 - b
    quotient = (x << shift) // y if shift >= 0 else (x >> -shift) // y
    return wp, mpf_log(from_man_exp(quotient, -shift, wp, round_nearest), wp, round_nearest)


def _graded_bases(model) -> tuple:
    """Interval growth bases ``(u_n, u_d)`` of a graded model's level data.

    Level ``k`` is ``(f_j(t_n), f_j(t_d))`` with ``j = chi_slope * k``: the
    traces are ``N`` and ``Nq`` for ``oplus:N:Nq``, and ``sqrt(dimB)`` and
    ``sqrt(d1 + 1)`` for ``aut:dimB:d1``.
    """
    if isinstance(model, FreeOrthogonalModel):
        t_n, t_d = iv.mpf(model.N), _iv_from_fraction(model.Nq)
        traces = (t_n, t_n * t_n), (t_d, t_d * t_d)
    else:
        x_n, x_d = iv.mpf(model.dimB), _iv_from_fraction(model.d1 + 1)
        traces = (iv.sqrt(x_n), x_n), (iv.sqrt(x_d), x_d)
    return tuple(iv_growth_base(t, t2) for t, t2 in traces)


def _check_precision(precision_bits: int):
    if precision_bits < 64:
        raise ValueError("precision_bits must be at least 64")


def _check_p(p, minimum=2) -> Fraction:
    p = as_fraction(p)
    if p < minimum:
        raise PValueError(f"p >= {minimum} is required, got {p}")
    return p


def _first_passing(passes, guess: int, top: int) -> int | None:
    """Smallest ``L`` in ``0..top`` with ``passes(L)``, for ``passes`` monotone in ``L``.

    ``passes`` must be false up to some length and true from there on.  The
    search probes ``guess``, then gallops away from it in steps 1, 2, 4, ...
    until the answer is bracketed, and bisects the bracket: a right guess
    costs two probes (``guess`` and ``guess - 1``; one at 0), a guess ``m``
    off about ``2 log2 m`` more.  From ``guess = 0`` the probes are
    ``0, 1, 3, 7, ...``.  None, after a failing probe at ``top``, when no
    ``L <= top`` passes.
    """
    guess = min(max(guess, 0), top)
    if passes(guess):
        passing, step = guess, 1
        while True:  # gallop down
            if passing == 0:
                return 0
            L = max(passing - step, 0)
            if not passes(L):
                failing = L
                break
            passing, step = L, 2 * step
    else:
        failing, step = guess, 1
        while True:  # gallop up
            if failing == top:
                return None
            L = min(failing + step, top)
            if passes(L):
                passing = L
                break
            failing, step = L, 2 * step
    while passing - failing > 1:
        mid = (failing + passing) // 2
        if passes(mid):
            passing = mid
        else:
            failing = mid
    return passing


class KpEvaluator:
    """Certified summation over one model's level data.

    The exact ``(n, d, chi_sup)`` triples are a view of the model's memoised
    ``level_data``; the evaluator keeps no copy of them, only floating values
    derived from them: ``log r`` of every term ``s^2 r^(2/p)`` per precision
    (see :meth:`_ratio`), and one table of terms per ``(p, precision)`` (see
    :meth:`_terms`), which both families read (see :meth:`level_term_sum`).
    The tails keep ``tau = t_max^(2/p)`` (Drinfeld-Jimbo), or the growth
    bases per precision and the decay factor ``rho = (u_n/u_d)^(2/p)`` per
    precision and ``p`` (graded).  The summation order is fixed (ascending
    length, then label order), so reports are bit-identical from run to run.
    The summation cutoff is aimed by the tail formula in doubles and decided
    by the certified tail (see :meth:`_cutoff`), which relies on that tail
    being monotone nonincreasing in the length; the doubles keep the log
    growth bases (graded) or ``log t_max`` and ``C_a`` (Drinfeld-Jimbo).
    """

    def __init__(self, model: QuantumGroupModel, precision_bits: int = DEFAULT_PRECISION_BITS):
        _check_precision(precision_bits)
        self.model = construct_model(model)
        self.precision_bits = int(precision_bits)
        # summands: (wp, log r_i, s_i^2) per precision, raw terms per (p, precision)
        self._logs: dict[int, list[tuple[int, tuple, tuple]]] = {}
        self._tables: dict[tuple[int, int, int], tuple[list[int], list[int], dict]] = {}
        # graded tail: growth bases per precision and (rho, rho^s) per (2/p, precision)
        self._bases: dict[int, tuple] = {}
        self._rho: dict[tuple[Fraction, int], tuple] = {}
        # Drinfeld-Jimbo tail: t_max and C_a (see _dj_tail), tau per (2/p, precision)
        if isinstance(self.model, DrinfeldJimboModel):
            rs = self.model.root_system
            self._dj_constants = t_max, cs = self.model.q ** min(rs.two_rho_pairing), tuple(
                map(Fraction, map(max, rs.root_weight_pairing), self.model.rho_pairing)
            )
            # the aim's doubles (see _dj_log_tail): log t_max and C_a
            self._dj_floats = _log_fraction(t_max), tuple(map(float, cs))
        self._tau: dict[tuple[Fraction, int], tuple] = {}
        # the aim's graded logs (see _graded_log_tail), once per evaluator
        self._graded_floats: tuple | None = None

    # -- exact level data --------------------------------------------------

    def level_entries(self, k: int) -> list[tuple[int, Fraction, int]]:
        """Exact ``(n, d, chi_sup)`` for every label of length ``k``."""
        return [(data.n, data.d, data.chi_sup) for data in self.model.level_data(k)]

    # -- floating accumulation ----------------------------------------------

    def _ratio(self, i: int) -> tuple[int, int, int]:
        """Exact ``(x, y, s)`` with table entry ``i`` equal to ``s^2 (x/y)^(2/p)``.

        Graded: level ``i``, ``s = chi`` and ``x/y = n / (d chi^2)``.  Drinfeld-Jimbo:
        ``psi(m) = m^(2-2/p) (q^-m - q^m)^(-2/p)`` at ``m = i``, so ``s = m`` and,
        with ``q = a/b``, ``x/y = (ab)^m / (m (b^2m - a^2m))``.
        """
        if isinstance(self.model, DrinfeldJimboModel):
            if i == 0:
                return 1, 1, 0  # psi(0) is never read; its entry is 0
            a, b = self.model.q.numerator, self.model.q.denominator
            return (a * b) ** i, i * (b ** (2 * i) - a ** (2 * i)), i
        ((n, d, chi),) = self.level_entries(i)  # a graded level holds one label
        return n * d.denominator, d.numerator * chi * chi, chi

    def _terms(self, p: Fraction, top: int) -> tuple[list[int], list[int]]:
        """Raw mantissas and exponents of the table entries ``0..top`` at ``mp.prec``.

        Entry ``i`` is ``s^2 exp((2/p) log(x/y))`` for ``(x, y, s) = _ratio(i)``,
        rounded once (the budget is in :func:`_log_ratio`).  The logarithms are
        shared by every ``p``, and ``2/p`` is rounded once per ``(p, wp)``.
        """
        prec = mp.prec
        table = self._tables.get(key := (p.numerator, p.denominator, prec))
        if table is None:
            table = self._tables[key] = [], [], {}
        mans, exps, exponents = table
        if len(mans) <= top:
            logs = self._logs.setdefault(prec, [])
            for i in range(len(logs), top + 1):
                x, y, s = self._ratio(i)
                logs.append((*_log_ratio(x, y, prec), from_int(s * s)))
            for wp, log_r, s2 in logs[len(mans) : top + 1]:
                e2 = exponents.get(wp)
                if e2 is None:
                    e2 = from_rational(2 * p.denominator, p.numerator, wp, round_nearest)
                    exponents[wp] = e2
                power = mpf_exp(mpf_mul(e2, log_r, wp, round_nearest), prec + 8, round_nearest)
                _, man, exp, _ = mpf_mul(s2, power, prec, round_nearest)
                mans.append(man)
                exps.append(exp)
        return mans, exps

    def _table_top(self, k: int) -> int:
        """Index of the last table entry read by the summands of length ``k``."""
        model = self.model
        if not isinstance(model, DrinfeldJimboModel):
            return k
        # pairings grow with mu: the level's largest is max_beta h_beta + k max_i (omega_i, beta)
        pairing = model.root_system.root_weight_pairing
        return max(h + k * max(w) for w, h in zip(pairing, model.rho_pairing))

    def level_term_sum(self, k: int, p: Fraction) -> mpmath.mpf:
        """Sum of ``chi^(2-4/p) (n/d)^(2/p)`` over the level, at working precision.

        A graded level holds one label, and its summand is table entry ``k``
        of :meth:`_terms`.  For Drinfeld-Jimbo models ``chi = n`` and the Weyl
        product formulas factor over positive roots, so the summand is
        ``prod_beta psi(m_beta) / prod_beta psi(h_beta)`` with
        ``m_beta = (mu + rho, beta)``, ``h_beta = (rho, beta)`` and ``psi``
        the table entries.  The numerators are multiplied and summed over the
        level exactly, as integer mantissas, and the quotient of that sum by
        the exact denominator is rounded once.  On a block of
        :meth:`DrinfeldJimboModel.level_blocks` a root reads one strided slice
        of the table, or one entry (a factor of the whole block) at step 0.
        """
        if isinstance(self.model, DrinfeldJimboModel):
            return self._dj_term_sum(k, p)
        mans, exps = self._terms(p, k)
        man = mans[k]
        return mp.make_mpf((0, man, exps[k], man.bit_length()))

    def _dj_term_sum(self, k: int, p: Fraction) -> mpmath.mpf:
        model = self.model
        rho = model.rho_pairing
        mans, exps = self._terms(p, self._table_top(k))
        # per block: step-0 roots give one constant factor, the others' products are
        # summed exactly over the block's least exponent; no stop m + n s is negative,
        # as the last pairing m + (n-1) s is at least h_b >= (omega_{r-1}, b) >= -s
        parts = []
        for n, starts in model.level_blocks(k):
            const_man, const_exp, man_cols, exp_cols = 1, 0, [], []
            for m, s in zip(starts, model.block_steps):
                if s:
                    cut = slice(m, m + n * s, s)
                    man_cols.append(mans[cut])
                    exp_cols.append(exps[cut])
                else:
                    const_man *= mans[m]
                    const_exp += exps[m]
            es = list(reduce(partial(map, add), exp_cols))
            eb = min(es)
            block = sum(map(lshift, reduce(partial(map, mul), man_cols), map(eb.__rsub__, es)))
            parts.append((const_man * block, const_exp + eb))
        e0 = min(e for _, e in parts)
        total = from_man_exp(sum(block << (e - e0) for block, e in parts), e0)
        denom = from_man_exp(math.prod(mans[h] for h in rho), sum(exps[h] for h in rho))
        return mp.make_mpf(mpf_div(total, denom, mp.prec, round_nearest))

    # -- certified tails ------------------------------------------------------

    def tail_bound(self, L: int, p: Fraction) -> mpmath.mpf | None:
        """Upper bound on the sum of all terms of length > L, or None.

        Returns a certified (interval-arithmetic) bound once the dominating
        series has term ratio < 1 at length L+1; None means the ratio test is
        not yet conclusive at this cutoff.
        """
        if self.model.is_kac():
            raise KacDivergenceError(
                "Kac-type model: terms do not vanish, no finite tail bound exists"
            )
        e1 = Fraction(2) - Fraction(4) / p
        e2 = Fraction(2) / p
        model = self.model
        with interval_precision():
            if isinstance(model, DrinfeldJimboModel):
                return self._dj_tail(L, e1, e2)
            return self._graded_tail(L, e1, e2)

    @staticmethod
    def _geometric(first, ratio) -> mpmath.mpf | None:
        if not (ratio < 1):  # interval comparison: certain only if ratio.b < 1
            return None
        return mp.mpf((first / (1 - ratio)).b)

    def _growth_bases(self) -> tuple:
        """Interval ``(u_n, u_d)`` of :func:`_graded_bases` at ``iv.prec``, cached."""
        bases = self._bases.get(iv.prec)
        if bases is None:
            bases = self._bases[iv.prec] = _graded_bases(self.model)
        return bases

    def _graded_tail(self, L: int, e1: Fraction, e2: Fraction):
        # level k is (f_j(t_n), f_j(t_d)) with j = s k and chi = j + 1; for j >= j0,
        # n <= u_n^(j+1) / (u_n - 1/u_n), or n = j + 1 when u_n = 1, and
        # d >= u_d^(j+1) (1 - u_d^(-2(j0+1))) / (u_d - 1/u_d)
        s = self.model.chi_slope
        prec = iv.prec
        u_n, u_d = self._growth_bases()
        rhos = self._rho.get(key := (e2, prec))
        if rhos is None:
            rho = _iv_pow(u_n / u_d, e2)
            rhos = self._rho[key] = rho, rho**s
        rho, rho_s = rhos
        j0 = s * (L + 1)
        slack = 1 - u_d ** (-2 * (j0 + 1))
        a, spread_n = (e1 + e2, 1) if u_n == 1 else (e1, u_n - 1 / u_n)
        c = (u_d - 1 / u_d) / (spread_n * slack)
        first = _iv_pow(iv.mpf(j0 + 1), a) * _iv_pow(c, e2) * rho ** (j0 + 1)
        ratio = _iv_pow(iv.mpf(j0 + s + 1) / (j0 + 1), a) * rho_s
        return self._geometric(first, ratio)

    def _dj_tail(self, L: int, e1: Fraction, e2: Fraction):
        # t_max = q^(min_i (omega_i, 2 rho)); d_mu >= t_max^(-|mu|)
        # n_mu <= prod_over_roots (1 + C_a k) with C_a = max_i (omega_i, a)/(rho, a)
        t_max, cs = self._dj_constants
        rank = self.model.rank
        tau = self._tau.get(key := (e2, iv.prec))
        if tau is None:
            tau = self._tau[key] = _iv_pow(_iv_from_fraction(t_max), e2)
        sigma = e1 + e2  # = 2 - 2/p

        def poly(k: int) -> Fraction:
            val = Fraction(1)
            for c in cs:
                val *= 1 + c * k
            return val

        def count(k: int) -> int:
            return math.comb(k + rank - 1, rank - 1)

        k0 = L + 1
        first = (
            iv.mpf(count(k0))
            * _iv_pow(_iv_from_fraction(poly(k0)), sigma)
            * tau**k0
        )
        ratio = (
            iv.mpf(count(k0 + 1))
            / count(k0)
            * _iv_pow(_iv_from_fraction(poly(k0 + 1) / poly(k0)), sigma)
            * tau
        )
        return self._geometric(first, ratio)

    # -- the cutoff aim, in doubles -------------------------------------------

    def _log_tail(self, L: int, p: Fraction) -> float | None:
        """``log`` of the :meth:`tail_bound` formula in doubles, or None.

        The same dominating series as the certified tail, evaluated in logs
        (the Drinfeld-Jimbo polynomial of ``E8`` overflows a double) and
        without rounding control: it only aims the cutoff search and never
        decides one.  None when the double term ratio is ``>= 1``.
        """
        e1, e2 = float(2 - 4 / p), float(2 / p)
        if isinstance(self.model, DrinfeldJimboModel):
            return self._dj_log_tail(L, e1, e2)
        return self._graded_log_tail(L, e1, e2)

    def _graded_log_tail(self, L: int, e1: float, e2: float) -> float | None:
        # _graded_tail in logs: a log(j0+1) + e2 log c + (j0+1) log rho - log(1 - ratio)
        if self._graded_floats is None:
            with interval_precision():
                u_n, u_d = self._growth_bases()
                unit = u_n == 1
                self._graded_floats = unit, *(
                    float(iv.log(x).mid)
                    for x in (u_n, u_d, 1 if unit else u_n - 1 / u_n, u_d - 1 / u_d)
                )
        unit, log_u_n, log_u_d, log_spread_n, log_spread_d = self._graded_floats
        s = self.model.chi_slope
        j0 = s * (L + 1)
        a = e1 + e2 if unit else e1
        log_rho = e2 * (log_u_n - log_u_d)
        ratio = math.exp(a * math.log1p(s / (j0 + 1)) + s * log_rho)
        if ratio >= 1:
            return None
        log_c = log_spread_d - log_spread_n - math.log1p(-math.exp(-2 * (j0 + 1) * log_u_d))
        return a * math.log(j0 + 1) + e2 * log_c + (j0 + 1) * log_rho - math.log1p(-ratio)

    def _dj_log_tail(self, L: int, e1: float, e2: float) -> float | None:
        # _dj_tail in logs: log count(k0) + sigma log poly(k0) + k0 log tau - log(1 - ratio)
        log_t_max, cs = self._dj_floats
        rank = self.model.rank
        sigma = e1 + e2
        k0 = L + 1
        ratio = math.exp(
            math.log1p((rank - 1) / (k0 + 1))
            + sigma * sum(math.log1p(c / (1 + c * k0)) for c in cs)
            + e2 * log_t_max
        )
        if ratio >= 1:
            return None
        return (
            math.log(math.comb(k0 + rank - 1, rank - 1))
            + sigma * sum(math.log1p(c * k0) for c in cs)
            + k0 * e2 * log_t_max
            - math.log1p(-ratio)
        )

    def _aim_cutoff(self, p: Fraction, tol: float, max_length: int) -> int:
        """Proposed cutoff: the first ``L`` whose double log-tail is ``<= log tol``.

        Found by galloping from 0 and bisecting over :meth:`_log_tail`;
        ``max_length`` when no ``L <= max_length`` passes.
        """
        log_tol = math.log(tol)

        def passes(L: int) -> bool:
            log_tail = self._log_tail(L, p)
            return log_tail is not None and log_tail <= log_tol

        aim = _first_passing(passes, 0, max_length)
        return max_length if aim is None else aim

    # -- the evaluator --------------------------------------------------------

    def _cutoff(
        self, p: Fraction, tol: float, max_length: int
    ) -> tuple[str, int, mpmath.mpf | None]:
        """``(verdict, L, tail)``: the summation cutoff and its certified tail.

        Doubles aim, intervals decide.  :meth:`_aim_cutoff` proposes ``L``
        from the double log-tails; the certified :meth:`tail_bound` is then
        evaluated at the proposal and, when that passes, one below it.  A
        proposal that fails is walked up, and one whose predecessor passes
        is walked down, by galloping and bisecting (see
        :func:`_first_passing`).  The certified tail is monotone
        nonincreasing in ``L`` (see :func:`certified_tail`), so the result is
        the smallest ``L <= max_length`` with a certified tail ``<= tol``,
        the one a level-by-level scan would find, with verdict
        ``"converged"``; a right aim costs two certified tails.  When no
        ``L <= max_length`` certifies, it is ``("inconclusive", max_length,
        tail_bound(max_length))``, that tail being None or above ``tol``.
        """
        tails = {}

        def certified(L: int) -> bool:
            tail = tails[L] = self.tail_bound(L, p)
            return tail is not None and tail <= tol

        L = _first_passing(certified, self._aim_cutoff(p, tol, max_length), max_length)
        if L is None:
            return "inconclusive", max_length, tails[max_length]
        return "converged", L, tails[L]

    def kp_constant(
        self,
        p,
        tol: float = 1e-10,
        max_length: int = 4000,
    ) -> KpReport:
        """Certified ``K_p`` with a dropped tail of at most ``tol``.

        The cutoff ``L`` is the first length whose certified tail is
        ``<= tol``, aimed in doubles and decided in intervals by
        :meth:`_cutoff` (which depends on the tail being monotone in ``L``).
        With ``L`` known, the table of terms is filled once, and levels
        ``0..L`` are then summed in order.  When no ``L <= max_length``
        certifies, the verdict is ``inconclusive`` with levels
        ``0..max_length`` summed.  A Kac-type model is ``divergent``, with
        levels ``0..min(max_length, 8)`` summed as the witness.  A ``tol``
        that is not positive and finite, or is below ``2^-precision_bits``,
        or a ``max_length`` that is not a positive integer, raises
        :class:`ValueError`.
        """
        p = _check_p(p)
        if not 0 < tol < math.inf:
            raise ValueError(f"tol must be positive and finite, got {tol}")
        if tol < 2.0**-self.precision_bits:
            raise ValueError(f"tol {tol!r} is below the working precision 2^-{self.precision_bits}")
        if int(max_length) != max_length or max_length < 1:
            raise ValueError(f"max_length must be a positive integer, got {max_length}")
        max_length = int(max_length)
        with mp.workprec(self.precision_bits):
            if self.model.is_kac():
                # n = d for every label, so each level contributes
                # chi^(2-4/p) * 1 >= 1; infinitely many terms are >= 1
                verdict, last, tail = "divergent", min(max_length, 8), None
            else:
                verdict, last, tail = self._cutoff(p, tol, max_length)
            self._terms(p, self._table_top(last))
            partial = mp.mpf(0)
            for L in range(0, last + 1):
                partial += self.level_term_sum(L, p)
            kp2 = (partial, partial + tail) if verdict == "converged" else None
            return KpReport(
                model_spec=self.model.spec_string(),
                p=p,
                terms_summed=last,
                partial_sum=partial,
                tail_bound=tail,
                verdict=verdict,
                kp2_interval=kp2,
                kp_interval=None if kp2 is None else (mp.sqrt(kp2[0]), mp.sqrt(kp2[1])),
                term_lower_bound=1.0 if verdict == "divergent" else None,
                precision_bits=self.precision_bits,
            )


def kp_constant(
    model,
    p,
    tol: float = 1e-10,
    max_length: int = 4000,
    precision_bits: int = DEFAULT_PRECISION_BITS,
) -> KpReport:
    """Certified ``K_p`` evaluation; see :class:`KpEvaluator`.

    The summation cutoff is aimed in doubles and decided by the certified
    tail, which relies on that tail being monotone nonincreasing in the
    length (see :func:`certified_tail`).
    """
    return KpEvaluator(construct_model(model), precision_bits).kp_constant(
        p, tol=tol, max_length=max_length
    )


def certified_tail(
    model,
    p,
    L: int,
    precision_bits: int = DEFAULT_PRECISION_BITS,
) -> mpmath.mpf:
    """A number T with ``sum of terms of length > L <= T``.

    Monotone nonincreasing in ``L`` (infinite while the ratio test is not yet
    conclusive); the cutoff search of :meth:`KpEvaluator.kp_constant` depends
    on this.  Raises :class:`KacDivergenceError` for Kac models, and
    :class:`ValueError` when ``L`` is not a nonnegative integer.
    """
    L = _check_length(L)
    p = _check_p(p)
    ev = KpEvaluator(construct_model(model), precision_bits)
    with mp.workprec(ev.precision_bits):
        bound = ev.tail_bound(L, p)
        return mp.inf if bound is None else bound


def decay_rate(
    model,
    horizon: int = 50,
    precision_bits: int = DEFAULT_PRECISION_BITS,
) -> DecayReport:
    """Theoretical and empirical decay base of ``n/d`` along the grading."""
    if horizon < 1:
        raise HorizonError("horizon must be >= 1")
    _check_precision(precision_bits)
    model = construct_model(model)
    with mp.workprec(precision_bits), interval_precision():
        if model.is_kac():
            theo_iv, polynomial = iv.mpf(1), False
            theoretical = mp.mpf(1)
        elif isinstance(model, DrinfeldJimboModel):
            t_max = model.q ** min(model.root_system.two_rho_pairing)
            theo_iv, polynomial = _iv_from_fraction(t_max), True
            theoretical = _mpf_from_fraction(t_max)
        else:
            u_n, u_d = _graded_bases(model)
            theo_iv, polynomial = (u_n / u_d) ** model.chi_slope, u_n == 1
            theoretical = mp.mpf(theo_iv.mid)

        worst = max(
            mp.mpf(data.n) * data.d.denominator / data.d.numerator
            for data in model.level_data(horizon)
        )
        empirical = mp.power(worst, mp.mpf(1) / horizon)

        # explicit constant C with n/d <= C * base^k, checked on every level
        envelope = mp.mpf(0)
        for k in range(0, horizon + 1):
            base_k = theo_iv**k
            for data in model.level_data(k):
                ratio = iv.mpf(data.n) * iv.mpf(data.d.denominator) / iv.mpf(data.d.numerator)
                envelope = max(envelope, mp.mpf((ratio / base_k).b))
        return DecayReport(
            model_spec=model.spec_string(),
            theoretical_base=theoretical,
            empirical_base=empirical,
            constant_envelope=envelope,
            horizon=horizon,
            polynomial_factor=polynomial,
        )


def _is_dyadic_power(p: Fraction) -> bool:
    if p.denominator != 1:
        return False
    n = p.numerator
    return n >= 4 and (n & (n - 1)) == 0


def _check_constants_args(p, r) -> tuple[Fraction, Fraction]:
    p = _check_p(_check_p(p), minimum=4)
    if not _is_dyadic_power(p):
        raise PValueError(f"p must be a power of 2 with p >= 4, got {p}")
    r = as_fraction(r)
    if r < 1:
        raise RValueError(f"r >= 1 is required, got {r}")
    return p, r


def norm_equivalence_constants(
    model,
    p,
    r,
    tol: float = 1e-10,
    max_length: int = 4000,
    precision_bits: int = DEFAULT_PRECISION_BITS,
) -> ConstantsReport:
    """Explicit constants for the L2/Lp/Lr-against-L1 norm equivalences.

    Exponents are exact rationals; the numeric constants use the upper end of
    the certified ``K_p`` interval (conservative).  Requires ``p`` to be a
    dyadic power >= 4 and ``r >= 1``; raises :class:`KpNotConvergedError` when
    the underlying ``K_p`` evaluation is divergent or inconclusive.
    """
    p, r = _check_constants_args(p, r)
    report = kp_constant(model, p, tol=tol, max_length=max_length, precision_bits=precision_bits)
    return constants_from_kp(report, r)


def constants_from_kp(report: KpReport, r) -> ConstantsReport:
    """The constants of :func:`norm_equivalence_constants` from a finished ``K_p`` report."""
    p, r = _check_constants_args(report.p, r)
    if not report.converged:
        raise KpNotConvergedError(
            f"K_p is {report.verdict} for {report.model_spec}; "
            "norm-equivalence constants are undefined"
        )
    exp21 = p / (p - 2)
    exp_p1 = (2 * p - 2) / (p - 2)
    exp_r1 = 2 * p * (r - 1) / (r * (p - 2))
    with mp.workprec(report.precision_bits):
        upper = report.kp_interval[1]
        return ConstantsReport(
            model_spec=report.model_spec,
            p=p,
            r=r,
            exp_c_2_1=exp21,
            exp_c_p_1=exp_p1,
            exp_c_r_1=exp_r1,
            c_2_1=mp.power(upper, _mpf_from_fraction(exp21)),
            c_p_1=mp.power(upper, _mpf_from_fraction(exp_p1)),
            c_r_1=mp.power(upper, _mpf_from_fraction(exp_r1)),
            kp_upper=upper,
            precision_bits=report.precision_bits,
        )
