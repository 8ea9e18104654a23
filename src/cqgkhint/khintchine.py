"""Certified evaluation of the character Khintchine constant ``K_p``.

For a model with irreducibles graded by a length, the squared constant is the
series::

    K_p^2 = sum_over_irreducibles  chi_sup^(2 - 4/p) * (n/d)^(2/p)

summed here by ascending length.  The evaluator returns a *certified
interval*: an exact-ordered partial sum at a fixed precision (so results are
bit-stable) plus a rigorous enclosure of the dropped tail, computed with
interval arithmetic: for ``djq`` from growth envelopes, by a geometric
series (:class:`_GeometricTail`), and for ``oplus`` and ``aut`` from the
closed-form asymptotics of the summand (:mod:`cqgkhint.graded_tail`), one
tail object per family and ``p``.  What a family knows, its table of terms,
its level sums, its tail at each ``p`` and its decay base, is one summation
plan (:class:`_GradedPlan` for ``oplus`` and ``aut``,
:class:`_DrinfeldJimboPlan` for ``djq``), and :class:`KpEvaluator` runs
every plan.  Kac-type models are reported divergent with a certified
witness (every level contributes a term >= 1), never via timeout.

The ``K_p`` path, the decay rates and the norm-equivalence constants run on
mpmath's ``libmp`` alone (see :mod:`cqgkhint._libmp`), at the caller's
``precision_bits``: each sum, square root and power is the ``mpf_*`` call
with ``round_nearest`` that the ``mp`` context makes, and each tail and
envelope the ``mpi_*`` calls of the ``iv`` context, so this module imports no
mpmath module, when it is loaded or when it runs.  Their results are
:class:`~cqgkhint._libmp.MpfValue`, which mpmath reads exactly.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from fractions import Fraction
from functools import partial, reduce
from itertools import count, islice
from numbers import Real
from operator import add, lshift, mul

from ._libmp import Intervals, MpfValue, libmp, n_over_d
from .exact import DEFAULT_PRECISION_BITS, HorizonError, KacDivergenceError, as_fraction
from .models import (
    DrinfeldJimboModel,
    QuantumGroupModel,
    _check_horizon,
    _check_length,
    construct_model,
)
from .record import Record

from_int, from_man_exp, from_rational = libmp.from_int, libmp.from_man_exp, libmp.from_rational
mpf_div, mpf_exp, mpf_log, mpf_mul = libmp.mpf_div, libmp.mpf_exp, libmp.mpf_log, libmp.mpf_mul
round_nearest = libmp.round_nearest

__all__ = [
    "KacDivergenceError",
    "PValueError",
    "RValueError",
    "HorizonError",
    "KpNotConvergedError",
    "TolBelowRoundingError",
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


class TolBelowRoundingError(ValueError):
    code = "tol-below-rounding"


class KpReport(Record):
    """Certified summary of a ``K_p`` evaluation.

    ``verdict`` is one of ``"converged"``, ``"divergent"``, ``"inconclusive"``.
    ``partial_sum`` is the sum of levels ``0..terms_summed``, and the terms
    beyond lie in ``[lower, lower + tail_bound]``: ``tail_bound`` is the
    width of that enclosure.  For a converged report ``K_p^2`` lies in
    ``kp2_interval = [partial_sum + lower, partial_sum + lower + tail_bound]``
    and ``kp_interval`` is the square-root interval.  ``lower`` is 0 on the
    geometric tail of ``djq``; on the Euler-Maclaurin tail of ``oplus`` and
    ``aut`` it is the enclosure's lower end, and the ends of both intervals
    are rounded outward.  An inconclusive report carries its family's
    certified tail bound at ``max_length`` (:meth:`KpEvaluator.tail_bound`,
    or None), a divergent one the certified lower bound on infinitely many
    terms instead.
    """

    model_spec: str
    p: Fraction
    terms_summed: int
    partial_sum: MpfValue
    tail_bound: MpfValue | None
    verdict: str
    kp2_interval: tuple[MpfValue, MpfValue] | None
    kp_interval: tuple[MpfValue, MpfValue] | None
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
    theoretical_base: MpfValue
    empirical_base: MpfValue
    constant_envelope: MpfValue
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
    c_2_1: MpfValue
    c_p_1: MpfValue
    c_r_1: MpfValue
    kp_upper: MpfValue
    precision_bits: int


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


def _check_precision(precision_bits) -> int:
    if not isinstance(precision_bits, Real) or precision_bits % 1 or precision_bits < 64:
        raise ValueError(f"precision_bits must be an integer >= 64, got {precision_bits!r}")
    return int(precision_bits)


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


class _GradedPlan:
    """Summation plan of the graded families ``oplus:N:Nq`` and ``aut:dimB:d1``.

    Level ``k`` holds one label, ``(n, d) = (f_j(t_n), f_j(t_d))`` with
    ``j = s k`` and ``chi_sup = j + 1``: ``s = 1`` at the traces ``N`` and
    ``Nq`` for ``oplus``, ``s = 2`` at ``sqrt(dimB)`` and ``sqrt(d1 + 1)`` for
    ``aut``, which the model gives as ``traces(iv)``.  Its summand is table
    entry ``k``, ``s^2 r^(2/p)`` with ``s = chi`` and ``r = n / (d chi^2)``.

    Its tail at ``p`` (:meth:`tail`) is the Euler-Maclaurin one of
    :mod:`cqgkhint.graded_tail`, built from the growth bases ``u = (t +
    sqrt(t^2 - 4))/2``.  The decay base of ``n/d`` per level is
    ``(u_n/u_d)^s``, with a polynomial factor when ``u_n = 1``.
    """

    entries_per_label = 1

    def __init__(self, model, prec: int):
        self.model = model
        self.prec = prec
        self.iv = Intervals(prec)
        self.s = model.chi_slope

    def _bases(self, iv: Intervals | None = None) -> tuple:
        """Interval growth bases ``(u_n, u_d)``, in ``iv`` or at the plan's precision."""
        iv = iv or self.iv
        traces = self.model.traces(iv)
        # u = (t + sqrt(t^2 - 4))/2, from t^2 as the model gives it; exactly [1, 1] at t = 2
        four, two = iv.integer(4), iv.integer(2)
        return tuple(iv.div(iv.add(t, iv.sqrt(iv.sub(t2, four))), two) for t, t2 in traces)

    def ratios(self, start: int) -> Iterator[tuple[int, int, int]]:
        for i in count(start):
            data = self.model.irr_data(i)
            chi = data.chi_sup
            yield data.n * data.d.denominator, data.d.numerator * chi * chi, chi

    def table_top(self, k: int) -> int:
        return k

    def level_sum(self, k: int, mans: list[int], exps: list[int]) -> tuple:
        man = mans[k]
        return 0, man, exps[k], man.bit_length()

    def decay_base(self) -> tuple:
        iv = self.iv
        u_n, u_d = self._bases()
        base = iv.pow(iv.div(u_n, u_d), self.s)
        return base, libmp.mpi_mid(base, self.prec), u_n == iv.integer(1)

    def tail(self, p: Fraction):
        """The Euler-Maclaurin tail at ``p`` (see :mod:`cqgkhint.graded_tail`), or None
        when its doubles cannot aim a cutoff.  The model is not of Kac type."""
        from .graded_tail import graded_tail

        return graded_tail(self._bases, self.s, p, self.prec)


class _DrinfeldJimboPlan:
    """Summation plan of the Drinfeld-Jimbo deformations ``djq:<type><rank>:q``.

    The Weyl and q-Weyl product formulas factor over the positive roots and
    ``chi = n``, so the summand of ``mu`` is
    ``prod_beta psi(m_beta) / prod_beta psi(h_beta)``, with
    ``m_beta = (mu + rho, beta)``, ``h_beta = (rho, beta)`` and the table
    entries ``psi(m) = m^(2-2/p) (q^-m - q^m)^(-2/p)``: ``s = m`` and, with
    ``q = a/b``, ``r = (ab)^m / (m (b^2m - a^2m))``.

    Its tail at ``p`` (:meth:`tail`) is the geometric :class:`_GeometricTail`,
    from ``t_max = q^(min_i (omega_i, 2 rho))``, which is also the decay base
    of ``n/d`` per length, with a polynomial factor.
    """

    def __init__(self, model, prec: int):
        self.model = model
        self.prec = prec
        self.iv = Intervals(prec)
        rs = model.root_system
        self.t_max = model.q ** min(rs.two_rho_pairing)
        # a label's summand reads one table entry per positive root, over one per root
        self.entries_per_label = 2 * len(model.rho_pairing)

    def ratios(self, start: int) -> Iterator[tuple[int, int, int]]:
        """``(ab)^i`` and ``i (b^2i - a^2i)`` carried from ``i`` to ``i + 1`` as three powers."""
        a, b = self.model.q.numerator, self.model.q.denominator
        if start == 0:
            yield 1, 1, 0  # psi(0) is never read; its entry is 0
            start = 1
        ab, a2, b2 = a * b, a * a, b * b
        x, y_a, y_b = ab**start, a2**start, b2**start
        for i in count(start):
            yield x, i * (y_b - y_a), i
            x, y_a, y_b = x * ab, y_a * a2, y_b * b2

    def table_top(self, k: int) -> int:
        # pairings grow with mu: the level's largest is max_beta h_beta + k max_i (omega_i, beta)
        model = self.model
        pairing = model.root_system.root_weight_pairing
        return max(h + k * max(w) for w, h in zip(pairing, model.rho_pairing))

    def level_sum(self, k: int, mans: list[int], exps: list[int]) -> tuple:
        """The numerators, summed exactly as integer mantissas, over the exact
        denominator, rounded once.  On a block of :meth:`DrinfeldJimboModel.level_blocks`
        a root reads one strided table slice, or one entry at step 0."""
        model = self.model
        rho = model.rho_pairing
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
        return mpf_div(total, denom, self.prec, round_nearest)

    def tail(self, p: Fraction) -> _GeometricTail:
        return _GeometricTail(self.model, self.t_max, p, self.prec)

    def decay_base(self) -> tuple:
        t = self.t_max
        return self.iv.rational(t), n_over_d(t.numerator, Fraction(t.denominator), self.prec), True


class _GeometricTail:
    """The geometric tail of a ``djq`` model at one ``p``, beyond a length ``L``.

    At length ``k``, ``n_mu <= poly(k) = prod_beta (1 + C_beta k)`` with
    ``C_beta = max_i (omega_i, beta) / (rho, beta)``; ``d_mu >= t_max^(-k)``
    with ``t_max = q^(min_i (omega_i, 2 rho))``, by the modular-matrix
    sup-norm identity ``||Q_mu||_inf = prod t_i^(-mu_i)``; and the level
    holds ``C(k + r - 1, r - 1)`` dominant weights.  With ``sigma = 2 - 2/p``
    a summand ``n^(2-4/p) (n/d)^(2/p)`` is at most ``poly(k)^sigma tau^k``,
    ``tau = t_max^(2/p)``, so beyond length ``L`` the dominating series has
    first term ``C(k0 + r - 1, r - 1) poly(k0)^sigma tau^k0`` at ``k0 = L +
    1`` and term ratios that decrease in ``k`` from the one at ``k0``.  Once
    that ratio is certifiably below 1 the tail is at most ``first / (1 -
    ratio)``: in intervals for :meth:`tail_bound`, which is also
    :meth:`cutoff_bound`, deciding the cutoff, and the enclosure ``[0,
    tail]`` beyond it (:meth:`enclose`), and in doubles for
    :meth:`log_cutoff_bound`, which aims it.  ``2/p``, ``sigma`` and ``tau``,
    and the doubles of the aim, are computed once, when the tail is made.
    """

    def __init__(self, model: DrinfeldJimboModel, t_max: Fraction, p: Fraction, prec: int):
        self.rank = model.rank
        rs = model.root_system
        self.cs = tuple(map(Fraction, map(max, rs.root_weight_pairing), model.rho_pairing))
        iv = self.iv = Intervals(prec)
        e2 = Fraction(2) / p
        self.sigma, self.tau = 2 - e2, iv.pow(iv.rational(t_max), e2)
        # the aim's doubles (see log_cutoff_bound): log t_max, whose terms may overflow a
        # double, C_beta, 2/p and sigma
        log_t_max = math.log(t_max.numerator) - math.log(t_max.denominator)
        e2_float = float(e2)
        self._floats = log_t_max, tuple(map(float, self.cs)), e2_float, float(2 - 4 / p) + e2_float

    def _count_poly(self, k: int) -> tuple[int, Fraction]:
        """The number of labels of length ``k``, and ``poly(k)``."""
        rank = self.rank
        return math.comb(k + rank - 1, rank - 1), math.prod((1 + c * k for c in self.cs), start=1)

    def tail_bound(self, L: int) -> MpfValue | None:
        """The certified tail beyond ``L``, or None while the term ratio is not certainly < 1."""
        iv, sigma, tau = self.iv, self.sigma, self.tau
        (count, poly), (count_next, poly_next) = map(self._count_poly, (L + 1, L + 2))
        first = iv.mul(iv.integer(count), iv.pow(iv.rational(poly), sigma), iv.pow(tau, L + 1))
        ratio = iv.mul(
            iv.div(iv.integer(count_next), iv.integer(count)),
            iv.pow(iv.rational(poly_next / poly), sigma),
            tau,
        )
        if not libmp.mpf_lt(ratio[1], libmp.fone):
            return None
        _, upper = iv.div(first, iv.sub(iv.integer(1), ratio))
        return MpfValue(upper)

    def cutoff_bound(self, L: int, tol: float) -> MpfValue | None:
        """:meth:`tail_bound`, whatever ``tol``."""
        return self.tail_bound(L)

    def enclose(self, L: int, tol: float, bound: MpfValue) -> tuple:
        """``(0, bound, rounding)``: the tail beyond ``L`` is in ``[0, bound]``,
        its ends rounded to nearest."""
        return libmp.fzero, bound, (round_nearest, round_nearest)

    def log_cutoff_bound(self, L: int) -> float | None:
        """``log`` of the :meth:`tail_bound` formula in doubles, or None when the
        double term ratio is ``>= 1``.  In logs, as the polynomial of E8 overflows
        a double, and without rounding control: it aims the cutoff, never decides it."""
        log_t_max, cs, e2, sigma = self._floats
        rank = self.rank
        k0 = L + 1
        log_first = (
            math.log(math.comb(k0 + rank - 1, rank - 1))
            + sigma * sum(math.log1p(c * k0) for c in cs)
            + k0 * e2 * log_t_max
        )
        ratio = math.exp(
            math.log1p((rank - 1) / (k0 + 1))
            + sigma * sum(math.log1p(c / (1 + c * k0)) for c in cs)
            + e2 * log_t_max
        )
        if ratio >= 1:
            return None
        return log_first - math.log1p(-ratio)


def _summation_plan(model, prec: int):
    """The summation plan of ``model``'s family at ``prec`` bits."""
    if isinstance(model, DrinfeldJimboModel):
        return _DrinfeldJimboPlan(model, prec)
    return _GradedPlan(model, prec)


class KpEvaluator:
    """Certified summation of ``K_p^2`` over one model, by its family's plan.

    The plan (:class:`_GradedPlan` or :class:`_DrinfeldJimboPlan`) knows the
    family: ``ratios(start)``, the exact ``(x, y, s)`` of table terms
    ``start, start + 1, ...``, each ``s^2 (x/y)^(2/p)``; ``table_top(k)``,
    the last term level ``k`` reads; ``level_sum(k, mans, exps)``, the
    level's summand read from the table; ``entries_per_label``, the table
    entries one summand reads; ``decay_base()``; and ``tail(p)``, its tail at
    ``p``: a :class:`_GeometricTail` for ``djq``, a
    :class:`~cqgkhint.graded_tail.GradedTail` for ``oplus`` and ``aut``, or
    None when that cannot be aimed.  A tail has four methods:
    ``log_cutoff_bound(L)``, in doubles, aims the cutoff, ``cutoff_bound(L,
    tol)``, certified, decides it, ``enclose(L, tol, bound)`` encloses the
    tail beyond it, or declines, and ``tail_bound(L)`` bounds the tail beyond
    any length.  The evaluator owns what is the same for every family:

    * the table of terms per ``p`` (see :meth:`_terms`), built from one
      ``log(x/y)`` per term (see :func:`_log_ratio`) and shared by every
      ``p``, and the tail per ``p`` (see :meth:`_tail`);
    * the search for the cutoff (see :meth:`_cutoff`), which relies on the
      tail's ``cutoff_bound`` being monotone nonincreasing in the length;
    * the summation order (ascending length, then label order), which makes
      reports bit-identical from run to run, the check of ``tol`` against the
      rounding of the sum, and the report.

    Everything is computed at ``precision_bits``, whatever mpmath's ``mp.prec``
    and ``iv.prec`` are.  The exact ``(n, d, chi_sup)`` triples are a view of
    the model's memoised ``level_data``; the evaluator keeps no copy of them.
    """

    def __init__(self, model: QuantumGroupModel, precision_bits: int = DEFAULT_PRECISION_BITS):
        self.precision_bits = _check_precision(precision_bits)
        self.model = construct_model(model)
        self._plan = _summation_plan(self.model, self.precision_bits)
        # summands: (wp, log r_i, s_i^2) per term, raw terms per p, the plan's tail per p
        self._logs: list[tuple[int, tuple, tuple]] = []
        self._tables: dict[tuple[int, int], tuple[list[int], list[int], dict]] = {}
        self._tails: dict[Fraction, object] = {}

    # -- floating accumulation ----------------------------------------------

    def _terms(self, p: Fraction, top: int) -> tuple[list[int], list[int]]:
        """Raw mantissas and exponents of the table entries ``0..top``.

        Entry ``i`` is ``s^2 exp((2/p) log(x/y))`` for ``(x, y, s)`` the plan's
        ``ratios`` at ``i``, rounded once (the budget is in :func:`_log_ratio`).
        The logarithms are shared by every ``p``, and ``2/p`` is rounded once
        per ``(p, wp)``.
        """
        prec = self.precision_bits
        table = self._tables.get(key := (p.numerator, p.denominator))
        if table is None:
            table = self._tables[key] = [], [], {}
        mans, exps, exponents = table
        if len(mans) <= top:
            logs = self._logs
            if len(logs) <= top:
                ratios = islice(self._plan.ratios(len(logs)), top + 1 - len(logs))
                logs.extend((*_log_ratio(x, y, prec), from_int(s * s)) for x, y, s in ratios)
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

    def level_term_sum(self, k: int, p: Fraction) -> MpfValue:
        """Sum of ``chi^(2-4/p) (n/d)^(2/p)`` over the level, at ``precision_bits``,
        read by the plan from table entries ``0..table_top(k)``."""
        mans, exps = self._terms(p, self._plan.table_top(k))
        return MpfValue(self._plan.level_sum(k, mans, exps))

    # -- certified tails ------------------------------------------------------

    def _tail(self, p: Fraction):
        """The plan's tail at ``p``, made once per ``p``, or None."""
        if p not in self._tails:
            self._tails[p] = self._plan.tail(p)
        return self._tails[p]

    def tail_bound(self, L: int, p: Fraction) -> MpfValue | None:
        """The plan's certified upper bound on the sum of all terms of length > L, or None.

        None for ``djq`` while its geometric ratio test is not yet conclusive,
        and for ``oplus`` and ``aut`` when the tail cannot be aimed.
        """
        if self.model.is_kac():
            raise KacDivergenceError(
                "Kac-type model: terms do not vanish, no finite tail bound exists"
            )
        tail = self._tail(p)
        return None if tail is None else tail.tail_bound(L)

    # -- the cutoffs ------------------------------------------------------------

    def _cutoff(self, p: Fraction, tol: float, max_length: int) -> tuple:
        """``(L, enclosure)``: the summation cutoff and the tail beyond it.

        Doubles aim, intervals decide.  The proposal is the first ``L`` whose
        double ``log_cutoff_bound`` (None when infinite) is ``<= log tol``,
        found by :func:`_first_passing` from 0, or ``max_length`` when none
        is.  The tail's certified ``cutoff_bound`` is then evaluated at the
        proposal and, when that passes, one below it; a proposal that fails
        is walked up, and one whose predecessor passes is walked down, by
        galloping and bisecting.  The certified bound is monotone
        nonincreasing in ``L``, so ``L`` is the smallest length ``<=
        max_length`` whose bound is ``<= tol``, the one a level-by-level scan
        would find; a right aim costs two certified bounds.  The tail's
        ``enclose`` then gives ``enclosure = (lower, width, rounding)``: the
        tail beyond ``L`` is in ``[lower, lower + width]``, and ``rounding``
        rounds the ends of ``K_p^2``; None when it declines.  ``(None,
        None)`` when no ``L <= max_length`` certifies, or the model has no
        tail at ``p``.
        """
        tail, bounds = self._tail(p), {}
        if tail is None:
            return None, None

        def certified(L: int) -> bool:
            bound = bounds[L] = tail.cutoff_bound(L, tol)
            return bound is not None and bound <= tol

        log_tol = math.log(tol)
        aim = _first_passing(
            lambda L: (b := tail.log_cutoff_bound(L)) is not None and b <= log_tol, 0, max_length
        )
        L = _first_passing(certified, max_length if aim is None else aim, max_length)
        return L, None if L is None else tail.enclose(L, tol, bounds[L])

    def kp_constant(
        self,
        p,
        tol: float = 1e-10,
        max_length: int = 4000,
    ) -> KpReport:
        """Certified ``K_p`` with a dropped tail enclosed within ``tol``.

        A Kac-type model is ``divergent``, with levels ``0..min(max_length,
        8)`` summed as the witness.  Otherwise :meth:`_cutoff` sets the
        cutoff ``L`` and the enclosure of the tail by the family's tail: for
        ``oplus`` and ``aut`` the first length whose certified width bound is
        ``<= tol``, with one Euler-Maclaurin enclosure; for ``djq`` the first
        length whose certified geometric tail is ``<= tol``, with the
        enclosure ``[0, tail]``.  With ``L`` known, the table of terms is
        filled once, and levels ``0..L`` are then summed in order.  When no
        ``L <= max_length`` certifies, or the enclosure declines, the verdict
        is ``inconclusive`` with levels ``0..max_length`` summed and the
        report carries ``tail_bound(max_length)``.

        A ``tol`` that is not positive and finite, or is below
        ``2^-precision_bits``, or a ``max_length`` that is not a positive
        integer, raises :class:`ValueError`.  A ``tol`` below a proved bound
        on the rounding of the partial sum at a certified cutoff ``L`` raises
        :class:`TolBelowRoundingError`, also when the enclosure there
        declines: a report converged at any ``L' >= L`` would have a larger
        partial sum and length, and so a larger bound.  Such a refusal sums
        levels ``0..L`` only.
        """
        p = _check_p(p)
        if not 0 < tol < math.inf:
            raise ValueError(f"tol must be positive and finite, got {tol}")
        if tol < 2.0**-self.precision_bits:
            raise ValueError(f"tol {tol!r} is below the working precision 2^-{self.precision_bits}")
        if not isinstance(max_length, Real) or max_length % 1 or max_length < 1:
            raise ValueError(f"max_length must be a positive integer, got {max_length}")
        max_length = int(max_length)
        prec = self.precision_bits
        if self.model.is_kac():
            # n = d for every label, so each level contributes
            # chi^(2-4/p) * 1 >= 1; infinitely many terms are >= 1
            verdict, last, tail, cut = "divergent", min(max_length, 8), None, None
        else:
            cut, enclosure = self._cutoff(p, tol, max_length)
            if enclosure is None:
                verdict, last, tail = "inconclusive", max_length, self.tail_bound(max_length, p)
            else:
                verdict, last = "converged", cut
                lower, tail, rounding = enclosure
        self._terms(p, self._plan.table_top(last if cut is None else cut))
        partial = libmp.fzero
        for L in range(0, last + 1):
            partial = libmp.mpf_add(partial, self.level_term_sum(L, p)._mpf_, prec, round_nearest)
            if L == cut:
                # the rounding of the partial sum is at most (F + L + 2) 2^(1 - prec) partial,
                # F = entries_per_label: with u = 2^-prec, each table entry is within one ulp,
                # a relative 2u (see _log_ratio), so a summand, an exact product and quotient
                # of F entries, is within 2Fu before its level sum is rounded once (u), and
                # each running add is rounded once (u of at most partial); the (L + 2) u left
                # over covers the higher orders, as (F + L) u is far below 1
                scale = from_int(self._plan.entries_per_label + L + 2)
                error = libmp.mpf_shift(mpf_mul(scale, partial), 1 - prec)
                if libmp.mpf_lt(libmp.from_float(tol), error):
                    raise TolBelowRoundingError(
                        f"tol {tol!r} is below {libmp.to_str(error, 3)}, the bound on the "
                        f"rounding of the partial sum at {prec} bits; raise the precision"
                    )
                self._terms(p, self._plan.table_top(last))
        kp2 = kp = None
        if verdict == "converged":
            # [partial + lower, partial + lower + tail], rounded as the tail's enclosure says
            ends = lower, libmp.mpf_add(lower, tail._mpf_)  # exact
            kp2 = [libmp.mpf_add(partial, x, prec, rnd) for x, rnd in zip(ends, rounding)]
            kp = tuple(MpfValue(libmp.mpf_sqrt(x, prec, rnd)) for x, rnd in zip(kp2, rounding))
            kp2 = tuple(map(MpfValue, kp2))
        return KpReport(
            model_spec=self.model.spec_string(),
            p=p,
            terms_summed=last,
            partial_sum=MpfValue(partial),
            tail_bound=tail,
            verdict=verdict,
            kp2_interval=kp2,
            kp_interval=kp,
            term_lower_bound=1.0 if verdict == "divergent" else None,
            precision_bits=prec,
        )


def kp_constant(
    model,
    p,
    tol: float = 1e-10,
    max_length: int = 4000,
    precision_bits: int = DEFAULT_PRECISION_BITS,
) -> KpReport:
    """Certified ``K_p`` evaluation; see :class:`KpEvaluator`.

    The summation cutoff is aimed in doubles and decided by the family's
    certified cutoff bound, which relies on that bound being monotone
    nonincreasing in the length (see :meth:`KpEvaluator._cutoff`).
    """
    return KpEvaluator(construct_model(model), precision_bits).kp_constant(
        p, tol=tol, max_length=max_length
    )


def certified_tail(
    model,
    p,
    L: int,
    precision_bits: int = DEFAULT_PRECISION_BITS,
) -> MpfValue:
    """A number T with ``sum of terms of length > L <= T``, monotone nonincreasing in ``L``.

    For ``djq`` the geometric tail, infinite while its ratio test is not yet
    conclusive, whose monotony the ``djq`` cutoff search relies on; for
    ``oplus`` and ``aut`` :meth:`~cqgkhint.graded_tail.GradedTail.tail_bound`,
    finite (infinite at every ``L`` when the tail cannot be aimed, as at
    ``p = 10^400``).  Raises :class:`KacDivergenceError` for Kac models, and
    :class:`ValueError` when ``L`` is not a nonnegative integer.
    """
    L = _check_length(L)
    p = _check_p(p)
    bound = KpEvaluator(construct_model(model), precision_bits).tail_bound(L, p)
    return MpfValue(libmp.finf) if bound is None else bound


def decay_rate(
    model,
    horizon: int = 50,
    precision_bits: int = DEFAULT_PRECISION_BITS,
) -> DecayReport:
    """Theoretical and empirical decay base of ``n/d`` along the grading.

    Computed at ``precision_bits`` with the calls that mpmath's ``mp`` and
    ``iv`` contexts make at that precision: ``n/d`` is
    ``mp.mpf(n) * den / num`` (see :func:`~cqgkhint._libmp.n_over_d`), the
    empirical base ``mp.power(worst, mp.mpf(1) / horizon)``, and each label's
    envelope ratio the upper end of
    ``iv.mpf(n) * iv.mpf(den) / iv.mpf(num) / base**k``.
    """
    horizon = _check_horizon(horizon)
    prec = _check_precision(precision_bits)
    model = construct_model(model)
    iv = Intervals(prec)
    if model.is_kac():
        base, theoretical, polynomial = iv.integer(1), libmp.fone, False
    else:
        base, theoretical, polynomial = _summation_plan(model, prec).decay_base()

    worst = max(MpfValue(n_over_d(data.n, data.d, prec)) for data in model.level_data(horizon))
    root = mpf_div(libmp.fone, from_int(horizon), prec, round_nearest)
    empirical = libmp.mpf_pow(worst._mpf_, root, prec, round_nearest)

    # explicit constant C with n/d <= C * base^k, checked on every level
    envelope = libmp.fzero
    for k in range(0, horizon + 1):
        base_k = iv.pow(base, k)
        for data in model.level_data(k):
            n, den, num = map(iv.integer, (data.n, data.d.denominator, data.d.numerator))
            _, upper = iv.div(iv.div(iv.mul(n, den), num), base_k)
            if libmp.mpf_gt(upper, envelope):
                envelope = upper
    return DecayReport(
        model_spec=model.spec_string(),
        theoretical_base=MpfValue(theoretical),
        empirical_base=MpfValue(empirical),
        constant_envelope=MpfValue(envelope),
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
    prec = report.precision_bits
    upper = report.kp_interval[1]

    def power(e: Fraction) -> MpfValue:
        exponent = n_over_d(e.numerator, Fraction(e.denominator), prec)
        return MpfValue(libmp.mpf_pow(upper._mpf_, exponent, prec, round_nearest))

    return ConstantsReport(
        model_spec=report.model_spec,
        p=p,
        r=r,
        exp_c_2_1=exp21,
        exp_c_p_1=exp_p1,
        exp_c_r_1=exp_r1,
        c_2_1=power(exp21),
        c_p_1=power(exp_p1),
        c_r_1=power(exp_r1),
        kp_upper=upper,
        precision_bits=prec,
    )
