import math
import operator
from fractions import Fraction
from functools import partial
from itertools import islice
from typing import NamedTuple

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath import iv, mp
from mpmath.libmp import from_man_exp, mpf_div, round_nearest

from conftest import q_integer
from cqgkhint import graded_tail, khintchine
from cqgkhint._libmp import MpfValue
from cqgkhint.chebyshev import envelope
from cqgkhint.cli import main
from cqgkhint.khintchine import (
    KacDivergenceError,
    KpEvaluator,
    KpNotConvergedError,
    PValueError,
    TolBelowRoundingError,
    certified_tail,
    decay_rate,
    kp_constant,
    norm_equivalence_constants,
)
from cqgkhint.models import DrinfeldJimboModel, FreeOrthogonalModel, parse_model_spec
from cqgkhint.verify import verify_model

HALF = Fraction(1, 2)


def _mpf(fr: Fraction) -> mpmath.mpf:
    return mp.mpf(fr.numerator) / fr.denominator


# -- K2 against a from-scratch oracle ----------------------------------------------


def k2_squared_bracket_a1(q: Fraction, cutoff: int = 200) -> tuple[Fraction, Fraction]:
    """Exact rational bracket for ``sum_k (k+1)/[k+1]_q`` by brute force.

    Partial sum to ``cutoff`` plus the remainder bound from
    ``[k+1]_q >= q^{-k}``: remainder <= sum_{k>K} (k+1) q^k, summed in closed
    form ``x^{K+1} ((K+2) - (K+1) x) / (1-x)^2``.
    """
    partial = sum(
        (Fraction(k + 1) / q_integer(k + 1, q) for k in range(cutoff + 1)), Fraction(0)
    )
    x = q
    rem = x ** (cutoff + 1) * ((cutoff + 2) - (cutoff + 1) * x) / (1 - x) ** 2
    return partial, partial + rem


def test_k2_a1_matches_brute_force():
    report = kp_constant("djq:A1:1/2", 2, tol=1e-12, max_length=500)
    assert report.converged
    lo, hi = k2_squared_bracket_a1(HALF)
    assert abs(report.partial_sum - _mpf(lo)) < 1e-8
    assert float(report.partial_sum) == pytest.approx(3.3107, abs=5e-4)
    # the certified interval and the oracle bracket overlap
    assert report.partial_sum <= _mpf(hi) + 1e-20
    assert report.partial_sum + report.tail_bound >= _mpf(lo)


def test_k2_equals_sum_of_dimension_ratios():
    # at p = 2 the terms are exactly n/d
    ev = KpEvaluator(parse_model_spec("oplus:3:7/2"))
    report = ev.kp_constant(2, tol=1e-10)
    with mp.workprec(192):
        direct = mp.mpf(0)
        for k in range(report.terms_summed + 1):
            (data,) = ev.model.level_data(k)
            direct += mp.mpf(data.n) * data.d.denominator / data.d.numerator
        assert abs(report.partial_sum - direct) < 1e-25


def test_kp_oplus_brute_force_partial_sums():
    # independent recursion for n_k, d_k and a long direct partial sum
    report = kp_constant("oplus:3:3.5", 4, tol=1e-10, max_length=3000)
    assert report.converged
    with mp.workprec(250):
        n_prev, n_cur = 1, 3
        d_prev, d_cur = Fraction(1), Fraction(7, 2)
        total = mp.mpf(1)  # k = 0 term
        for k in range(1, 2500):
            term = mp.mpf(k + 1) * mp.sqrt(mp.mpf(n_cur) * d_cur.denominator / d_cur.numerator)
            total += term
            n_prev, n_cur = n_cur, 3 * n_cur - n_prev
            d_prev, d_cur = d_cur, Fraction(7, 2) * d_cur - d_prev
    assert report.kp2_interval[0] - 1e-12 <= total <= report.kp2_interval[1] + 1e-9


# -- verdicts ------------------------------------------------------------------------


@pytest.mark.parametrize("spec", ["oplus:3:3", "aut:4:3"])
@pytest.mark.parametrize("p", [2, 4, 16])
def test_kac_models_divergent(spec, p):
    report = kp_constant(spec, p)
    assert report.verdict == "divergent"
    assert report.term_lower_bound == 1.0
    assert report.kp_interval is None


def test_inconclusive_when_max_length_too_small():
    report = kp_constant("oplus:3:3.5", 16, tol=1e-10, max_length=10)
    assert report.verdict == "inconclusive"
    assert report.kp_interval is None


def test_p_below_two_rejected():
    with pytest.raises(PValueError):
        kp_constant("oplus:3:3.5", Fraction(3, 2))
    with pytest.raises(ValueError):
        kp_constant("oplus:3:3.5", 4, tol=0)


@pytest.mark.parametrize("tol", [math.inf, -math.inf, math.nan, 0, -1e-10])
def test_tol_not_positive_and_finite_rejected(tol):
    with pytest.raises(ValueError, match="positive and finite"):
        kp_constant("oplus:3:7/2", 4, tol=tol)


def test_tol_below_working_precision_rejected():
    with pytest.raises(ValueError, match="precision"):
        kp_constant("oplus:3:7/2", 4, tol=1e-300)
    with pytest.raises(ValueError, match="precision"):
        kp_constant("djq:A2:1/2", 4, tol=2.0**-65, precision_bits=64)
    # the boundary tol is accepted, not refused up front; 64 bits cannot round the
    # partial sum at the Euler-Maclaurin cutoff to it, so it is refused there
    with pytest.raises(TolBelowRoundingError):
        kp_constant("oplus:3:7/2", 4, tol=2.0**-64, precision_bits=64)


def test_tol_below_the_rounding_of_the_sum_refused():
    # at 64 bits the partial sum near 243.1 of djq:A2:1/2 has an ulp of 1.4e-17:
    # a certified tail below 1e-18 claims more than the sum holds
    with pytest.raises(TolBelowRoundingError, match="rounding") as raised:
        kp_constant("djq:A2:1/2", 4, tol=1e-18, precision_bits=64)
    assert isinstance(raised.value, ValueError)
    assert raised.value.code == "tol-below-rounding"
    # at the default precision the same tol converges
    assert kp_constant("djq:A2:1/2", 4, tol=1e-18).converged


@pytest.mark.parametrize("p", [float("inf"), float("-inf"), float("nan"), mpmath.mpf("inf")])
def test_kp_non_finite_p_rejected(p):
    with pytest.raises(ValueError, match="non-finite"):
        kp_constant("oplus:3:7/2", p)


@pytest.mark.parametrize("bits", [64.5, "100", 63, float("inf"), float("nan"), None])
def test_precision_bits_not_an_integer_from_64_rejected(bits):
    with pytest.raises(ValueError, match="precision_bits must be an integer >= 64"):
        KpEvaluator(parse_model_spec("oplus:3:7/2"), bits)
    with pytest.raises(ValueError, match="precision_bits must be an integer >= 64"):
        decay_rate("oplus:3:7/2", horizon=5, precision_bits=bits)


def test_precision_bits_integral_float_accepted():
    assert KpEvaluator(parse_model_spec("oplus:3:7/2"), 128.0).precision_bits == 128


@pytest.mark.parametrize("max_length", [2.5, 0, -3])
def test_kp_max_length_not_positive_integer_rejected(max_length):
    with pytest.raises(ValueError, match="max_length must be a positive integer"):
        kp_constant("oplus:3:7/2", 4, max_length=max_length)


@pytest.mark.parametrize("L", [2.5, -1])
def test_certified_tail_length_not_nonnegative_integer_rejected(L):
    with pytest.raises(ValueError, match="length must be a nonnegative integer"):
        certified_tail("oplus:3:7/2", 4, L)


@pytest.mark.parametrize("length", [float("inf"), float("nan")])
def test_non_finite_lengths_rejected(length):
    # ValueError, not the OverflowError of int(inf) or the message of int(nan)
    with pytest.raises(ValueError, match="max_length must be a positive integer"):
        kp_constant("oplus:3:7/2", 4, max_length=length)
    with pytest.raises(ValueError, match="length must be a nonnegative integer"):
        certified_tail("oplus:3:7/2", 4, length)
    with pytest.raises(ValueError, match="length must be a nonnegative integer"):
        decay_rate("oplus:3:7/2", horizon=length)


@pytest.mark.parametrize("run", [verify_model, decay_rate], ids=["verify", "decay"])
@pytest.mark.parametrize("horizon", [2.5, float("inf"), float("nan"), "3"])
def test_horizon_not_an_integer_rejected(run, horizon):
    # ValueError, not the TypeError of range(2.5) or of "3" < 1
    with pytest.raises(ValueError, match="length must be a nonnegative integer"):
        run("oplus:3:7/2", horizon=horizon)


@pytest.mark.parametrize("run", [verify_model, decay_rate], ids=["verify", "decay"])
def test_integral_float_horizon_accepted(run):
    assert run("oplus:3:7/2", horizon=2.0) == run("oplus:3:7/2", horizon=2)


# -- structural properties ------------------------------------------------------------


def test_kp_nondecreasing_in_p():
    ev = KpEvaluator(parse_model_spec("oplus:3:7/2"))
    values = []
    for p in (2, 4, 8, 16):
        rep = ev.kp_constant(p, tol=1e-10, max_length=3000)
        assert rep.converged
        values.append(rep.kp_interval)
    # intervals are tight; compare upper of smaller p with lower of larger p
    for (lo_a, hi_a), (lo_b, hi_b) in zip(values, values[1:]):
        assert hi_a <= hi_b and lo_a <= lo_b


def test_interval_nesting_in_max_length():
    ev = KpEvaluator(parse_model_spec("djq:A1:1/2"))
    loose = ev.kp_constant(4, tol=1e-6)
    tight = ev.kp_constant(4, tol=1e-12)
    assert loose.kp2_interval[0] <= tight.kp2_interval[0]
    assert tight.kp2_interval[1] <= loose.kp2_interval[1]


def test_certified_tail_monotone_and_small():
    t30 = certified_tail("djq:A1:1/2", 2, 30)
    assert t30 < 1e-6
    values = [certified_tail("djq:A1:1/2", 2, L) for L in (5, 10, 20, 30, 50)]
    assert all(a >= b for a, b in zip(values, values[1:]))


@pytest.mark.parametrize(
    "spec", ["oplus:3:7/2", "oplus:2:5/2", "aut:5:5", "aut:4:5", "djq:B2:3/4"]
)
def test_certified_tail_monotone_after_ratio_test(spec):
    # certified_tail's contract: once the djq ratio test passes, the tail stays
    # certified and never grows; the graded bound is finite and never grows
    ev = KpEvaluator(parse_model_spec(spec))
    for p in (Fraction(4), Fraction(16)):
        with mp.workprec(192):
            first = next(L for L in range(400) if ev.tail_bound(L, p) is not None)
            tails = [ev.tail_bound(L, p) for L in range(first, 300)]
        assert None not in tails
        assert all(a >= b for a, b in zip(tails, tails[1:]))


def test_certified_tail_kac_fails_loudly():
    with pytest.raises(KacDivergenceError):
        certified_tail("oplus:3:3", 4, 10)


@pytest.mark.parametrize("spec", ["oplus:3:7/2", "oplus:2:5/2", "aut:5:5", "aut:4:5"])
def test_tail_bound_covers_actual_remainder(spec):
    # the graded tail bound must dominate the actually-summed remainder, on each
    # branch (u_n > 1 and u_n = 1, index stride 1 and 2)
    ev = KpEvaluator(parse_model_spec(spec))
    p = Fraction(4)
    with mp.workprec(192):
        tail_at_40 = ev.tail_bound(40, p)
        actual = mp.mpf(0)
        for k in range(41, 600):
            actual += ev.level_term_sum(k, p)
        assert actual < tail_at_40


def test_su_q2_bridge_kp_intervals_overlap():
    dj = KpEvaluator(parse_model_spec("djq:A1:1/2"))
    op = KpEvaluator(FreeOrthogonalModel(2, Fraction(5, 2)))
    for p in (2, 4):
        a = dj.kp_constant(p, tol=1e-12, max_length=3000)
        b = op.kp_constant(p, tol=1e-12, max_length=3000)
        assert a.converged and b.converged
        lo = max(a.kp_interval[0], b.kp_interval[0])
        hi = min(a.kp_interval[1], b.kp_interval[1])
        assert lo <= hi + 1e-10


# -- monotone in p and in the deformation: a soundness oracle ------------------------
#
# K_p is nondecreasing in p, since a summand is chi^2 (n / (d chi^2))^(2/p) with
# n <= d and chi >= 1.  It is nondecreasing in q, since each factor of
# d_mu = prod_b sinh(m_b x) / sinh(h_b x), m_b >= h_b > 0, grows with
# x = -log q.  It is nonincreasing in Nq and in d1, since f_j(t) grows with
# t >= 2.  Reports at two ordered values come from
# different cutoffs and often different routes, so an upper end set too low
# shows as lower(K_smaller) > upper(K_larger), with no high-precision reference.
# The close pairs put the true gap below the widths of the reports.


class _Axis(NamedTuple):
    """A parameter ``x`` in ``[lo, hi)``: the ``p`` of ``spec`` when ``spec`` is a
    full spec, else its last field at ``p = 4``; ``grows`` when ``K_p`` does."""

    spec: str
    lo: Fraction
    hi: Fraction
    grows: bool

    def kp_interval(self, x: Fraction, tol: float) -> tuple:
        spec, p = (self.spec, x) if self.spec.count(":") == 2 else (f"{self.spec}:{x}", 4)
        report = kp_constant(spec, p, tol=tol)
        assert report.converged, report
        return report.kp_interval


# each range stays away from the Kac point: q = 1, Nq = 3 on oplus:3, d1 = 4 on aut:5
AXES = [
    _Axis("djq:A2:1/2", Fraction(2), Fraction(8), True),
    _Axis("oplus:3:7/2", Fraction(2), Fraction(8), True),
    _Axis("aut:5:5", Fraction(2), Fraction(8), True),
    _Axis("djq:A1", Fraction(1, 10), Fraction(9, 10), True),
    _Axis("djq:A2", Fraction(1, 10), Fraction(3, 4), True),
    _Axis("oplus:3", Fraction(31, 10), Fraction(10), False),
    _Axis("aut:5", Fraction(41, 10), Fraction(20), False),
]


@st.composite
def _ordered_values(draw) -> tuple:
    """An axis and two values ``a < b`` on it, ``b - a`` as small as 1e-27 of the range."""
    axis = draw(st.sampled_from(AXES))
    a = axis.lo + (axis.hi - axis.lo) * Fraction(draw(st.integers(0, 999)), 1000)
    closeness = Fraction(1, 10 ** draw(st.sampled_from([0, 6, 12, 18, 24])))
    b = a + (axis.hi - a) * closeness * Fraction(draw(st.integers(1, 1000)), 1000)
    return axis, a, b


# each side at its own tol, so the two reports have their own cutoffs
TOL_EXPONENTS = st.integers(4, 24)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(values=_ordered_values(), exponents=st.tuples(TOL_EXPONENTS, TOL_EXPONENTS))
@example(values=(AXES[3], Fraction(1, 2), Fraction(1, 2) + Fraction(1, 10**15)), exponents=(20, 6))
@example(values=(AXES[5], Fraction(31, 10), Fraction(31, 10) + Fraction(1, 10**15)), exponents=(6, 20))
def test_kp_monotone_in_p_and_the_deformation(values, exponents):
    axis, a, b = values
    smaller, larger = (a, b) if axis.grows else (b, a)
    (lower, _), (_, upper) = map(axis.kp_interval, (smaller, larger), (10.0**-e for e in exponents))
    assert lower <= upper


@settings(max_examples=40, deadline=None, derandomize=True)
@given(values=_ordered_values(), exponents=st.tuples(TOL_EXPONENTS, TOL_EXPONENTS))
def test_kp_intervals_at_two_tolerances_intersect(values, exponents):
    axis, x, _ = values
    (lo_a, hi_a), (lo_b, hi_b) = (axis.kp_interval(x, 10.0**-e) for e in exponents)
    assert lo_a <= hi_b and lo_b <= hi_a


def _scan_cutoffs(ev, p, tols, max_length):
    """Per tol, the first ``(L, bound)`` with the tail's certified ``cutoff_bound``
    ``<= tol`` for ``L <= max_length``, by a level-by-level scan, or None."""
    found, tail = {}, ev._tail(p)
    for L in range(max_length + 1):
        for tol in tols:
            if tol not in found:
                bound = tail.cutoff_bound(L, tol)
                if bound is not None and bound <= tol:
                    found[tol] = L, bound
        if len(found) == len(tols):
            break
    return {tol: found.get(tol) for tol in tols}


CUTOFF_TOLS = (1e3, 1e-5, 1e-10, 1e-20)
# the one cutoff search against a scan of each family's certified cutoff bound:
# the geometric tail for djq, the Euler-Maclaurin width bound for oplus and aut
CUTOFF_CASES = [
    ("oplus:2:5/2", (Fraction(5, 2), Fraction(4), Fraction(16)), 3000),
    ("oplus:3:7/2", (Fraction(5, 2), Fraction(4)), 3000),
    ("aut:4:5", (Fraction(5, 2), Fraction(4), Fraction(16)), 3000),
    ("aut:5:5", (Fraction(5, 2), Fraction(4)), 3000),
    ("djq:A2:1/2", (Fraction(5, 2), Fraction(4), Fraction(16)), 3000),
    ("djq:B2:3/4", (Fraction(3), Fraction(16)), 3000),
    ("djq:G2:1/2", (Fraction(5, 2), Fraction(6), Fraction(16)), 3000),
    ("djq:E8:1/2", (Fraction(4),), 3000),
    # the ratio test first passes at L = 763: inconclusive for every tol
    ("djq:A3:0.99", (Fraction(4),), 150),
]


def _check_cutoffs(ev, p, cap, scanned):
    def expected(tol, top):
        if scanned[tol] is not None and scanned[tol][0] <= top:
            L, bound = scanned[tol]
            return L, ev._tail(p).enclose(L, tol, bound)
        return None, None

    for tol, found in scanned.items():
        # the cap lands beyond the cutoff, exactly on it, or just before it
        caps = {cap} if found is None else {cap, max(found[0], 1), max(found[0] - 1, 1)}
        for top in caps:
            assert ev._cutoff(p, tol, top) == expected(tol, top), (tol, top)


@pytest.mark.parametrize("spec,ps,cap", CUTOFF_CASES, ids=[c[0] for c in CUTOFF_CASES])
def test_cutoff_search_matches_linear_scan(spec, ps, cap):
    ev = KpEvaluator(parse_model_spec(spec))
    for p in ps:
        _check_cutoffs(ev, p, cap, _scan_cutoffs(ev, p, CUTOFF_TOLS, cap))


@pytest.mark.parametrize(
    "spec,p",
    [
        ("oplus:3:7/2", Fraction(4)),
        ("aut:4:5", Fraction(16)),
        ("djq:A2:1/2", Fraction(4)),
        ("djq:G2:1/2", Fraction(5, 2)),
    ],
)
def test_cutoff_recovers_from_missed_aims(spec, p, monkeypatch):
    # an aim at 0 must be walked up, and one at the cap walked down, to the
    # cutoff the linear scan finds
    ev = KpEvaluator(parse_model_spec(spec))
    scanned = _scan_cutoffs(ev, p, CUTOFF_TOLS, 3000)
    for aim in (0, 3000):
        passes = lambda L, aim=aim: -math.inf if L >= aim else math.inf  # noqa: E731
        monkeypatch.setattr(ev._tail(p), "log_cutoff_bound", passes)
        _check_cutoffs(ev, p, 3000, scanned)


def test_cutoff_edge_cases_in_reports():
    # L* = 0 under a loose tol
    loose = kp_constant("aut:5:5", Fraction(5, 2), tol=1e3)
    assert loose.converged and loose.terms_summed == 0
    # no cutoff within max_length: inconclusive after summing every level
    ev = KpEvaluator(parse_model_spec("oplus:3:7/2"))
    calls = []
    tail_bound = ev.tail_bound

    def counted(L, p):
        calls.append(L)
        return tail_bound(L, p)

    ev.tail_bound = counted
    report = ev.kp_constant(4, tol=1e-10, max_length=10)
    assert report.verdict == "inconclusive"
    assert report.terms_summed == 10
    # the report's tail is the one at max_length, evaluated once
    assert calls == [10]
    with mp.workprec(ev.precision_bits):
        direct = mp.fsum(ev.level_term_sum(k, Fraction(4)) for k in range(11))
        assert abs(report.partial_sum - direct) < mpmath.mpf("1e-40") * direct
        assert report.tail_bound == tail_bound(10, Fraction(4))


FLOAT_TAIL_SPECS = [
    "oplus:3:7/2",
    "oplus:2:5/2",
    "aut:5:5",
    "aut:4:5",
    "djq:A2:1/2",
    "djq:B2:3/4",
    "djq:A3:0.99",
    "djq:E8:1/2",
]


@pytest.mark.parametrize("spec", FLOAT_TAIL_SPECS)
def test_double_log_tail_follows_certified_tail(spec):
    # the aim's double formula stands in for the interval one: the same
    # value wherever both are finite, and both finite from the same length
    # up to one level of rounding (the djq ratio test); at a loose tol every
    # graded length has its Euler-Maclaurin corrections
    ev, tol = KpEvaluator(parse_model_spec(spec)), 1e3
    for p in (Fraction(2), Fraction(5, 2), Fraction(4), Fraction(16)):
        tail = ev._tail(p)
        with mp.workprec(ev.precision_bits):
            first_double, first_certified = (
                next((L for L in range(1200) if bound(L) is not None), None)
                for bound in (tail.log_cutoff_bound, partial(tail.cutoff_bound, tol=tol))
            )
            assert (first_double is None) == (first_certified is None), p
            if first_certified is not None:
                assert abs(first_double - first_certified) <= 1, p
            grid = [*range(40), *range(40, 1200, 37)]
            if first_certified is not None:
                grid += [first_certified, first_certified + 1]
            for L in grid:
                log_bound, bound = tail.log_cutoff_bound(L), tail.cutoff_bound(L, tol)
                if log_bound is not None and bound is not None:
                    assert math.isclose(log_bound, float(mp.log(bound)), rel_tol=1e-9), (p, L)


@pytest.mark.parametrize(
    "spec,p,tol",
    [
        ("oplus:3:7/2", 4, 1e-30),
        ("oplus:2:5/2", 16, 1e-10),
        ("aut:5:5", 8, 1e-30),
        ("aut:4:5", 3, 1e-20),
        ("djq:B2:3/4", 4, 1e-10),
        ("djq:A2:1/2", 16, 1e-10),
        ("djq:G2:1/2", Fraction(5, 2), 1e3),
        # s c1 > 2 pi: the aim's length has no corrections, the next one does
        ("oplus:100:100000", 2, 1e-10),
    ],
)
def test_kp_constant_tail_call_budget(spec, p, tol):
    # the aim reads no certified bound; the decision reads at most two, and
    # the tail beyond the cutoff is enclosed once
    ev = KpEvaluator(parse_model_spec(spec))
    tail = ev._tail(Fraction(p))
    bounds, enclosures = (_record_lengths(tail, name) for name in ("cutoff_bound", "enclose"))
    report = ev.kp_constant(p, tol=tol)
    assert report.converged
    assert len(bounds) <= 2
    assert enclosures == [report.terms_summed]


def _record_lengths(tail, name: str) -> list[int]:
    """Wrap ``tail.name`` to record the length ``L`` of each call."""
    calls, method = [], getattr(tail, name)

    def recorded(L, *args):
        calls.append(L)
        return method(L, *args)

    setattr(tail, name, recorded)
    return calls


def test_interval_precision_is_restored():
    saved = iv.prec
    try:
        iv.prec = 53
        kp_constant("oplus:3:7/2", 4, tol=1e-10, precision_bits=320)
        assert iv.prec == 53
        certified_tail("djq:A2:1/2", 4, 40, precision_bits=128)
        assert iv.prec == 53
        decay_rate("aut:5:5", horizon=10, precision_bits=256)
        assert iv.prec == 53
        with mp.workprec(300):
            envelope(10, Fraction(7, 2))
        assert iv.prec == 53
    finally:
        iv.prec = saved


def _oracle_level_sum(ev, k, p):
    e1 = _mpf(2 - 4 / p)
    e2 = _mpf(2 / p)
    return mp.fsum(
        mp.power(x.n, e1) * mp.power(mp.mpf(x.n) * x.d.denominator / x.d.numerator, e2)
        for x in ev.model.level_data(k)
    )


@pytest.mark.parametrize(
    "spec",
    [
        "djq:A1:1/2", "djq:A2:1/2", "djq:B2:3/4", "djq:G2:1/2",
        "djq:A3:1/2", "djq:C3:3/4", "djq:D4:1/2",
    ],
)
def test_dj_table_sum_matches_exact_level_entries(spec):
    # the psi-table sum against the summand built from the exact (n, d, chi)
    ev = KpEvaluator(parse_model_spec(spec), 320)
    with mp.workprec(320):
        for p in (Fraction(3), Fraction(4), Fraction(6), Fraction(16)):
            for k in range(13):
                ref = _oracle_level_sum(ev, k, p)
                assert abs(ev.level_term_sum(k, p) - ref) < mpmath.mpf("1e-50") * ref


def test_dj_table_cache_keyed_by_p_and_precision():
    # the psi tables per p, and the geometric tail per p, are kept on the
    # evaluator, one evaluator per precision
    model = parse_model_spec("djq:B2:3/4")
    shared = {bits: KpEvaluator(model, bits) for bits in (128, 192)}
    for p, bits in ((4, 192), (6, 192), (4, 192), (4, 128), (6, 128), (4, 192)):
        fresh = KpEvaluator(model, bits)
        for k in range(20):
            got = shared[bits].level_term_sum(k, Fraction(p))
            assert got._mpf_ == fresh.level_term_sum(k, Fraction(p))._mpf_
        for L in (0, 30, 94, 200):
            got = shared[bits].tail_bound(L, Fraction(p))
            ref = KpEvaluator(model, bits).tail_bound(L, Fraction(p))
            assert (got is None) == (ref is None)
            assert got is None or got._mpf_ == ref._mpf_


@pytest.mark.parametrize("q", ["1/2", "3/4", "99/100"])
def test_dj_ratios_carried_match_from_scratch(q):
    # the psi-table ratios (ab)^i and i (b^2i - a^2i), carried as three powers
    # from any start, against the formula evaluated afresh at every i
    model = parse_model_spec(f"djq:A1:{q}")
    a, b = model.q.numerator, model.q.denominator
    plan = KpEvaluator(model)._plan
    for start, n in ((0, 300), (1, 5), (257, 40)):
        expected = [
            (1, 1, 0) if i == 0 else ((a * b) ** i, i * (b ** (2 * i) - a ** (2 * i)), i)
            for i in range(start, start + n)
        ]
        assert list(islice(plan.ratios(start), n)) == expected, start


@pytest.mark.parametrize("spec", ["oplus:3:7/2", "aut:5:5", "djq:A2:1/2"])
def test_one_tail_per_p(spec, capsys, monkeypatch):
    # a p repeated in a table, and a tail bound after a K_p, make no second tail
    made = []

    def counted(make):
        return lambda *args: made.append(args) or make(*args)

    monkeypatch.setattr(graded_tail, "graded_tail", counted(graded_tail.graded_tail))
    monkeypatch.setattr(khintchine, "_GeometricTail", counted(khintchine._GeometricTail))
    assert main(["table", "--model", spec, "--kind", "kp", "--p-list", "4,6,4,6"]) == 0
    capsys.readouterr()
    assert len(made) == 2
    del made[:]
    ev = KpEvaluator(parse_model_spec(spec))
    assert ev.kp_constant(4).converged
    for L in (0, 40, 200):
        ev.tail_bound(L, Fraction(4))
    assert len(made) == 1


def _row_by_row_level_sum(model, k: int, p: Fraction, bits: int) -> mpmath.mpf:
    """A level's psi-table sum at ``bits``, one label at a time, with each label's
    pairings ``(mu + rho, beta)`` taken from its coordinates; exact before one rounding."""
    rs = model.root_system
    pairs = list(zip(model.rho_pairing, rs.root_weight_pairing))
    rows = [
        tuple(h + sum(map(operator.mul, mu, w)) for h, w in pairs)
        for mu in model.enumerate_level(k)
    ]
    mans, exps = KpEvaluator(model, bits)._terms(p, max(map(max, rows)))
    row_exps = [sum(exps[m] for m in row) for row in rows]
    e0 = min(row_exps)
    total = sum(math.prod(mans[m] for m in row) << (e - e0) for row, e in zip(rows, row_exps))
    rho = model.rho_pairing
    denom = from_man_exp(math.prod(mans[h] for h in rho), sum(exps[h] for h in rho))
    return mp.make_mpf(mpf_div(from_man_exp(total, e0), denom, bits, round_nearest))


@pytest.mark.parametrize(
    "spec",
    [
        "djq:A1:1/2", "djq:A2:1/2", "djq:B2:3/4", "djq:G2:1/3",
        "djq:A3:1/2", "djq:C3:3/4", "djq:D4:1/2",
    ],
)
def test_dj_block_sum_bit_identical_to_row_by_row(spec):
    # the strided block kernel must give the row-by-row sum to the last bit
    model = parse_model_spec(spec)
    for bits in (128, 192):
        ev = KpEvaluator(model, bits)
        for p in (Fraction(3), Fraction(4), Fraction(13, 2)):
            for k in range(16):
                got = ev.level_term_sum(k, p)
                assert got._mpf_ == _row_by_row_level_sum(model, k, p, bits)._mpf_, (bits, p, k)


def test_dj_kp_sum_builds_no_label_rows(monkeypatch):
    def refuse(self, k):
        raise AssertionError("the K_p sum built per-label pairing rows")

    monkeypatch.setattr(DrinfeldJimboModel, "level_pairings", refuse)
    assert kp_constant("djq:A3:1/2", 4).converged


def _ulps(man: int, exp: int, bits: int, ref: mpmath.mpf) -> mpmath.mpf:
    """Distance of ``man 2^exp`` from ``ref`` in units in the last place at ``bits``."""
    return abs(mpmath.ldexp(man, exp) - ref) / mpmath.ldexp(1, exp + man.bit_length() - bits)


@pytest.mark.parametrize("q", ["1/2", "3/4", "3/5", "1/3"])
def test_psi_entries_correctly_rounded(q):
    # psi(m) = m^(2-2/p) (q^-m - q^m)^(-2/p) from the shared log kernel, against
    # two mp.power calls at 600 bits; exponents rounded to the working precision
    # (two mp.power calls at 192 bits) put entries up to 105 units off
    model = parse_model_spec(f"djq:A1:{q}")
    evaluators = {bits: KpEvaluator(model, bits) for bits in (128, 192)}
    for p in map(Fraction, (3, 4, 6, 8, 12, "13/2", 16)):
        tables = {bits: ev._terms(p, 300) for bits, ev in evaluators.items()}
        with mp.workprec(600):
            x, e2 = 1 / _mpf(Fraction(q)), _mpf(2 / p)
            for m in range(1, 301):
                ref = mp.power(m, 2 - e2) * mp.power(x**m - x**-m, -e2)
                for bits, (mans, exps) in tables.items():
                    assert _ulps(mans[m], exps[m], bits, ref) <= 1, (p, m, bits)


def test_kp_sum_calls_no_mp_power(monkeypatch):
    def refuse(*args):
        raise AssertionError("the K_p sum called mp.power")

    monkeypatch.setattr(mp, "power", refuse)
    assert kp_constant("djq:B2:3/4", 4).converged
    assert kp_constant("oplus:3:7/2", 4).converged


def test_su_q2_bridge_per_summand():
    # djq:A1:1/2 and oplus:2:5/2 are both SU_q(2) at q = 1/2 (Nq = q + 1/q): the two
    # families' level terms agree to rounding, not only their K_p intervals
    dj = KpEvaluator(parse_model_spec("djq:A1:1/2"))
    graded = KpEvaluator(parse_model_spec("oplus:2:5/2"))
    with mp.workprec(192):
        for p in map(Fraction, (3, 4, "13/2", 16)):
            for k in range(301):
                _, man, exp, _ = graded.level_term_sum(k, p)._mpf_
                assert _ulps(man, exp, 192, dj.level_term_sum(k, p)) <= 2, (p, k)


@pytest.mark.parametrize("q", ["1/2", "1/3", "2/3"])
def test_so_q3_bridge_per_summand(q):
    # aut:4:(q^2 + 1 + q^-2) is SO_q(3), djq:A1:q on its even labels (Soltan 2010):
    # both plans, through one driver, give the same level data and summands
    q = Fraction(q)
    dj = KpEvaluator(parse_model_spec(f"djq:A1:{q}"))
    aut = KpEvaluator(parse_model_spec(f"aut:4:{q * q + 1 + 1 / q**2}"))
    for k in range(60):
        assert [(x.n, x.d, x.chi_sup) for x in aut.model.level_data(k)] == [
            (x.n, x.d, x.chi_sup) for x in dj.model.level_data(2 * k)
        ], k
    ps = list(map(Fraction, (3, 4, "13/2", 16)))
    with mp.workprec(192):
        for p in ps:
            for k in range(151):
                _, man, exp, _ = aut.level_term_sum(k, p)._mpf_
                assert _ulps(man, exp, 192, dj.level_term_sum(2 * k, p)) <= 2, (p, k)
    # the even labels are a sub-sum of SU_q(2)'s
    for p in ps:
        sub, full = aut.kp_constant(p), dj.kp_constant(p)
        assert sub.converged and full.converged
        assert sub.kp2_interval[0] <= full.kp2_interval[1], p


GRADED_SPECS = ["oplus:3:7/2", "oplus:2:5/2", "aut:5:5", "aut:4:5"]


@pytest.mark.parametrize("spec", GRADED_SPECS)
def test_graded_term_matches_power_reference(spec):
    # the one-exp kernel at 192 bits against two mp.power calls at 400 bits:
    # within one unit in the last place, well inside 1e-54 (a kernel without
    # its guard bits misses one unit at k = 599, but not 1e-54)
    ev = KpEvaluator(parse_model_spec(spec))
    for k in (0, 1, 2, 40, 599):
        (data,) = ev.model.level_data(k)
        n, d, chi = data.n, data.d, data.chi_sup
        for p in map(Fraction, (2, "5/2", 3, 4, "13/2", 16)):
            with mp.workprec(192):
                got = ev.level_term_sum(k, p)
            with mp.workprec(400):
                ratio = mp.mpf(n) * d.denominator / d.numerator
                ref = mp.power(chi, _mpf(2 - 4 / p)) * mp.power(ratio, _mpf(2 / p))
                assert abs(got - ref) <= mpmath.ldexp(ref, -191)


@pytest.mark.parametrize("spec", GRADED_SPECS)
def test_graded_log_cache_keyed_by_p_and_precision(spec):
    model = parse_model_spec(spec)
    shared = {bits: KpEvaluator(model, bits) for bits in (128, 192)}
    for p, bits in ((6, 128), (3, 192), (6, 192), (4, 192), (4, 128), (6, 128)):
        fresh = KpEvaluator(model, bits)
        for k in range(60):
            got = shared[bits].level_term_sum(k, Fraction(p))
            assert got._mpf_ == fresh.level_term_sum(k, Fraction(p))._mpf_


@pytest.mark.parametrize("spec", GRADED_SPECS)
def test_graded_tail_constants_cache_bit_identical(spec):
    # the Euler-Maclaurin tails are kept on the evaluator per p, one per precision;
    # a tail bound from an evaluator that has summed other p must match a fresh one
    model = parse_model_spec(spec)
    used = {bits: KpEvaluator(model, bits) for bits in (128, 192)}
    for ev in used.values():
        for p in (3, 6):
            assert ev.kp_constant(p, tol=1e-20).converged
    for bits, p in ((192, Fraction(4)), (192, Fraction(6)), (128, Fraction(6))):
        for L in (0, 5, 40, 200):
            got = used[bits].tail_bound(L, p)
            ref = KpEvaluator(model, bits).tail_bound(L, p)
            assert (got is None) == (ref is None)
            assert got is None or got._mpf_ == ref._mpf_


def test_graded_extreme_p():
    # the kernel's cost must not grow with the numerator of p
    huge = kp_constant("oplus:3:7/2", 10**400)
    assert huge.verdict == "inconclusive" and huge.terms_summed == 4000
    # at p = 10^400 every summand rounds to chi^2 = (k + 1)^2
    assert huge.partial_sum == sum((k + 1) ** 2 for k in range(4001))
    near_two = kp_constant("oplus:3:7/2", Fraction(1000001, 500000), tol=1e-5)
    assert near_two.verdict == "converged" and near_two.terms_summed == 6


# -- decay rates ----------------------------------------------------------------------


def test_decay_free_orthogonal_example():
    report = decay_rate("oplus:3:3.5", horizon=50)
    expected = (3 + 5**0.5) / (3.5 + 8.25**0.5)
    assert float(report.theoretical_base) == pytest.approx(expected, rel=1e-12)
    assert float(report.theoretical_base) == pytest.approx(0.82169, abs=5e-6)
    assert abs(report.empirical_base / report.theoretical_base - 1) < 0.01
    assert not report.polynomial_factor


def test_decay_quantum_automorphism_consistent_base():
    # with level-1 data (n1, d1) = (4, 5) the polynomial arguments are 5 and 6,
    # so the decay base is ((5-2+sqrt(5))/2) / ((6-2+sqrt(12))/2)
    report = decay_rate("aut:5:5", horizon=50)
    lam_n = (3 + 5**0.5) / 2
    lam_d = (4 + 12**0.5) / 2
    assert float(report.theoretical_base) == pytest.approx(lam_n / lam_d, rel=1e-12)
    assert float(report.theoretical_base) == pytest.approx(0.701500, abs=5e-7)
    assert abs(report.empirical_base / report.theoretical_base - 1) < 0.01


def test_decay_kac_base_is_one():
    for spec in ("oplus:3:3", "aut:4:3"):
        report = decay_rate(spec, horizon=20)
        assert report.theoretical_base == 1
        assert report.empirical_base == 1
        assert report.constant_envelope >= 1


def test_decay_drinfeld_jimbo_base_max_t():
    report = decay_rate("djq:A1:1/2", horizon=50)
    assert float(report.theoretical_base) == pytest.approx(0.5, rel=1e-15)
    assert report.polynomial_factor
    # empirical approaches the base from above (polynomial factor)
    assert 1 < report.empirical_base / report.theoretical_base < 1.2


def test_decay_envelope_dominates_all_levels():
    report = decay_rate("aut:4:5", horizon=40)
    ev = KpEvaluator(parse_model_spec("aut:4:5"))
    for k in range(41):
        (data,) = ev.model.level_data(k)
        ratio = mp.mpf(data.n) * data.d.denominator / data.d.numerator
        bound = report.constant_envelope * mp.power(report.theoretical_base, k)
        assert ratio <= bound * (1 + mp.mpf(10) ** -30)


# -- norm-equivalence constants ----------------------------------------------------------


def test_constants_exact_exponents():
    report = norm_equivalence_constants("djq:A1:1/2", 4, 3)
    assert report.exp_c_2_1 == Fraction(2)
    assert report.exp_c_p_1 == Fraction(3)
    assert report.exp_c_r_1 == Fraction(8, 3)


def test_constants_r_one_is_trivial():
    report = norm_equivalence_constants("djq:A1:1/2", 4, 1)
    assert report.exp_c_r_1 == 0
    assert report.c_r_1 == 1


def test_constants_monotone_in_r():
    ev_values = []
    for r in (1, Fraction(3, 2), 2, 3, 5, 10):
        rep = norm_equivalence_constants("djq:A1:1/2", 4, r)
        ev_values.append(rep.c_r_1)
    assert all(a <= b for a, b in zip(ev_values, ev_values[1:]))


def test_constants_p8_exponents():
    report = norm_equivalence_constants("oplus:3:3.5", 8, 2)
    assert report.exp_c_2_1 == Fraction(8, 6)
    assert report.exp_c_p_1 == Fraction(14, 6)
    assert report.exp_c_r_1 == Fraction(2 * 8 * 1, 2 * 6)


def test_constants_reject_bad_p_and_propagate_divergence():
    with pytest.raises(PValueError):
        norm_equivalence_constants("djq:A1:1/2", 6, 2)
    with pytest.raises(PValueError):
        norm_equivalence_constants("djq:A1:1/2", 2, 2)
    with pytest.raises(KpNotConvergedError):
        norm_equivalence_constants("oplus:3:3", 4, 2)


# -- level data sanity ------------------------------------------------------------------


def test_polynomial_character_sums_drinfeld_jimbo():
    # sum of chi_sup^2 = sum n^2 per level grows polynomially:
    # exactly (k+1)^2 for A1; log-log slope stabilises for A2
    ev1 = KpEvaluator(parse_model_spec("djq:A1:1/2"))
    for k in (1, 5, 20, 50):
        total = sum(x.n * x.n for x in ev1.model.level_data(k))
        assert total == (k + 1) ** 2
    ev2 = KpEvaluator(parse_model_spec("djq:A2:1/2"))

    def level_sum(k):
        return sum(x.n * x.n for x in ev2.model.level_data(k))

    import math

    slopes = [
        math.log(level_sum(2 * k) / level_sum(k)) / math.log(2) for k in (50, 100, 200)
    ]
    assert abs(slopes[-1] - slopes[-2]) < 0.1
    # sum over the level of (cubic)^2 with ~k labels: degree 7 for A2
    assert abs(slopes[-1] - 7) < 0.2


def test_dj_tail_bound_covers_actual_remainder():
    ev = KpEvaluator(parse_model_spec("djq:A2:1/2"))
    p = Fraction(4)
    with mp.workprec(192):
        tail_at_40 = ev.tail_bound(40, p)
        actual = mp.mpf(0)
        for k in range(41, 260):
            actual += ev.level_term_sum(k, p)
        assert actual < tail_at_40


@pytest.mark.parametrize(
    "spec", ["djq:B2:1/2", "djq:G2:1/2", "djq:A3:1/2", "djq:C3:3/4"]
)
def test_kp_converges_on_other_cartan_types(spec):
    rep = kp_constant(spec, 4, tol=1e-10, max_length=1500)
    assert rep.verdict == "converged"
    assert rep.tail_bound < 1e-10


# -- MpfValue: the raw-float result type ---------------------------------------------


@pytest.mark.parametrize("value", [0, 1, -3, 2.5, -0.75, 1e300, 2**70 + 2**18, -(2**-60)])
def test_mpf_value_int_bool_hash_repr_agree_with_python_and_mpmath(value):
    x = mpmath.mpf(value)
    v = MpfValue(x._mpf_)
    assert int(v) == int(x) == int(value)
    assert bool(v) is bool(x) is bool(value)
    assert hash(v) == hash(x) == hash(value)
    assert repr(v) == "MpfValue" + repr(x)[len("mpf") :]


def test_mpf_value_zero_is_falsy_and_infinity_hashes_like_the_float():
    assert not MpfValue(mpmath.libmp.fzero)
    assert MpfValue(mpmath.libmp.finf) and hash(MpfValue(mpmath.libmp.finf)) == hash(float("inf"))


def test_mpf_value_repr_reads_back_at_its_own_precision():
    raw = mpmath.libmp.from_rational(1, 3, 192, round_nearest)
    v = MpfValue(raw)
    assert hash(v) == hash(mpmath.mp.make_mpf(raw))
    digits = repr(v)[len("MpfValue('") : -len("')")]
    with mpmath.workprec(192):
        assert mpmath.mpf(digits)._mpf_ == raw
