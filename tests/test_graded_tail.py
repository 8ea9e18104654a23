"""The Euler-Maclaurin tail of the graded families against independent routes.

The pieces (Bernoulli numbers from tangent numbers, ``Gamma`` by Stirling,
the lower incomplete gamma series, the correction polynomial) are checked
against mpmath at a higher precision; the whole enclosure against remainders
summed level by level, on random small models of every branch.
"""

import math
from fractions import Fraction

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath import mp

from cqgkhint import graded_tail
from cqgkhint._libmp import Intervals, MpfValue, libmp
from cqgkhint.khintchine import KpEvaluator, kp_constant
from cqgkhint.models import parse_model_spec


def _mpf(raw) -> mpmath.mpf:
    return mp.make_mpf(raw)


def test_tangent_numbers_give_the_bernoulli_numbers():
    T = graded_tail._tangent_numbers(30)
    with mp.workprec(400):
        for k in range(1, 31):
            # B_2k / 2k = (-1)^(k-1) T_k / (4^k (4^k - 1))
            expected = mp.bernoulli(2 * k) / (2 * k)
            got = mp.mpf((-1) ** (k - 1) * T[k]) / (4**k * (4**k - 1))
            assert got == expected, k


@pytest.mark.parametrize("prec", [80, 232, 424])
@pytest.mark.parametrize("a1", ["1", "7/5", "5/3", "2", "27/13", "5/2", "299999/100000"])
def test_gamma_encloses_mpmath(prec, a1):
    a1 = Fraction(a1)
    lo, hi = graded_tail._gamma(Intervals(prec), a1)
    with mp.workprec(prec + 80):
        ref = mp.gamma(mp.mpf(a1.numerator) / a1.denominator)
        assert _mpf(lo) <= ref <= _mpf(hi)
        assert _mpf(hi) - _mpf(lo) < ref * mp.ldexp(1, 24 - prec)


@pytest.mark.parametrize("x", ["1/1000", "3/2", "17/2", "60"])
@pytest.mark.parametrize("a1", ["1", "7/5", "2", "27/13"])
def test_gamma_series_encloses_lower_incomplete_gamma(x, a1):
    x, a1, prec = Fraction(x), Fraction(a1), 200
    iv = Intervals(prec)
    x_iv = iv.rational(x)
    series = graded_tail._gamma_series(x_iv, a1, prec)
    lower = iv.mul(iv.pow(x_iv, a1), iv.exp(libmp.mpi_neg(x_iv)), series)
    with mp.workprec(prec + 80):
        xf, af = mp.mpf(x.numerator) / x.denominator, mp.mpf(a1.numerator) / a1.denominator
        ref = mp.gammainc(af, 0, xf)
        assert _mpf(lower[0]) <= ref <= _mpf(lower[1])
        assert _mpf(lower[1]) - _mpf(lower[0]) < ref * mp.ldexp(1, 16 - prec)


@pytest.mark.parametrize("a,M,s", [("0", 5, 1), ("1", 12, 1), ("2/3", 9, 2), ("14/13", 31, 2)])
def test_correction_polynomial_matches_taylor_coefficients(a, M, s):
    a, K = Fraction(a), 9
    W, D = graded_tail._correction_polynomial(K, a, M, s)
    with mp.workprec(300):
        c = mp.mpf(3) / 7
        v = mp.mpf(M) / s
        af = mp.mpf(a.numerator) / a.denominator

        def phi(n):
            # Taylor coefficient n of (1 + t/v)^a e^(-ct)
            return mp.fsum(
                mp.binomial(af, j) * v**-j * (-c) ** (n - j) / mp.factorial(n - j)
                for j in range(n + 1)
            )

        direct = mp.fsum(mp.bernoulli(2 * k) / (2 * k) * phi(2 * k - 1) for k in range(1, K + 1))
        poly = mp.fsum(w * c**i for i, w in enumerate(W)) / D
        assert abs(poly - direct) < mp.ldexp(1, -250)


# -- the enclosure against summed remainders ------------------------------------------

# oplus:2:* and aut:4:* have u_n = 1; the index stride is 1 for oplus, 2 for aut
STEPS = st.sampled_from([Fraction(step) for step in ("1/2", "2/3", "1", "3/2", "5/2")])
MODELS = st.one_of(
    st.builds(lambda N, step: f"oplus:{N}:{N + step}", st.sampled_from([2, 3, 4]), STEPS),
    st.builds(lambda dim, step: f"aut:{dim}:{dim - 1 + step}", st.sampled_from([4, 5, 6]), STEPS),
)
# a = 2 - 4/p (or 2 - 2/p when u_n = 1) is not an integer for most of these
P_GRID = st.sampled_from([Fraction(p) for p in ("2", "5/2", "3", "4", "13/3", "6")])


@settings(max_examples=30, deadline=None, derandomize=True)
@given(spec=MODELS, p=P_GRID, L=st.integers(0, 30), budget_exp=st.integers(-30, -2))
# the spread of G dominates the width: dropping its bound misses the sum
@example(spec="oplus:3:7/2", p=Fraction(4), L=8, budget_exp=-25)
@example(spec="oplus:2:5/2", p=Fraction(13, 3), L=8, budget_exp=-25)
# the Euler-Maclaurin remainder dominates it: dropping that misses the sum
@example(spec="oplus:3:7/2", p=Fraction(13, 3), L=30, budget_exp=-3)
@example(spec="aut:4:5", p=Fraction(5, 2), L=30, budget_exp=-3)
def test_enclosure_contains_summed_remainder(spec, p, L, budget_exp):
    ev = KpEvaluator(parse_model_spec(spec))
    tail = ev._plan.asymptotic_tail(p)
    assert tail is not None
    enclosure = tail.enclosure(L, 10.0**budget_exp)
    if enclosure is None:  # no K <= K_MAX fits the budget: declined, never wrong
        return
    far, far_tail = _far_cutoff(tail, L)
    with mp.workprec(400):
        lo = _mpf(enclosure[0])
        hi = lo + _mpf(enclosure[1])
        direct = mp.fsum(ev.level_term_sum(k, p) for k in range(L + 1, far + 1))
        # every level term is within one unit in the last place of 192 bits
        slack = direct * mp.ldexp(1, -188)
        assert lo <= direct + far_tail + slack
        assert direct - slack <= hi


def _far_cutoff(tail, L: int) -> tuple[int, mpmath.mpf]:
    """A length beyond ``L`` whose tail bound is below 1e-36, and that bound."""
    far = L + 1
    while _mpf(tail.tail_bound(far)) > 1e-36:
        far *= 2
    return far, _mpf(tail.tail_bound(far))


@settings(max_examples=30, deadline=None, derandomize=True)
@given(spec=MODELS, p=P_GRID, L=st.integers(0, 60))
# u_n > 1 and u_n = 1, index stride 1 and 2; at p = 2 a = 0 for u_n > 1
@example(spec="oplus:3:7/2", p=Fraction(4), L=0)
@example(spec="oplus:2:5/2", p=Fraction(13, 3), L=5)
@example(spec="aut:5:11/2", p=Fraction(2), L=20)
@example(spec="aut:4:5", p=Fraction(5, 2), L=40)
def test_tail_bound_covers_summed_remainder_and_falls(spec, p, L):
    ev = KpEvaluator(parse_model_spec(spec))
    tail = ev._plan.asymptotic_tail(p)
    assert tail is not None
    bounds = [tail.tail_bound(k) for k in range(L, L + 8)]
    # finite, and nonincreasing in L
    assert all(libmp.mpf_lt(b, libmp.finf) for b in bounds)
    assert all(libmp.mpf_ge(a, b) for a, b in zip(bounds, bounds[1:]))
    far, _ = _far_cutoff(tail, L)
    with mp.workprec(400):
        direct = mp.fsum(ev.level_term_sum(k, p) for k in range(L + 1, far + 1))
        # every level term is within one unit in the last place of 192 bits
        assert direct - direct * mp.ldexp(1, -188) <= _mpf(bounds[0])


# -- the route in kp_constant ------------------------------------------------------------


def _count_enclosures(monkeypatch) -> list:
    calls = []
    enclosure = graded_tail.GradedTail.enclosure

    def counted(self, L, budget):
        calls.append(L)
        return enclosure(self, L, budget)

    monkeypatch.setattr(graded_tail.GradedTail, "enclosure", counted)
    return calls


@pytest.mark.parametrize(
    "spec,tol",
    [("oplus:3:7/2", 1e-30), ("oplus:2:5/2", 1e-10), ("aut:5:5", 1e-30), ("aut:4:5", 1e-20)],
)
def test_one_enclosure_per_graded_kp(spec, tol, monkeypatch):
    calls = _count_enclosures(monkeypatch)
    ev = KpEvaluator(parse_model_spec(spec))
    for p in map(Fraction, ["5/2", "3", "4", "13/2", "8"]):
        del calls[:]
        report = ev.kp_constant(p, tol=tol)
        assert report.converged
        assert calls == [report.terms_summed]
        lo, hi = report.kp2_interval
        # [partial + lower, partial + lower + tail_bound], rounded outward
        assert report.partial_sum < lo and report.tail_bound <= tol
        with mp.workprec(400):
            width = _mpf(hi._mpf_) - _mpf(lo._mpf_)
            assert abs(width - _mpf(report.tail_bound._mpf_)) < lo * mp.ldexp(1, -180)


@pytest.mark.parametrize("spec", ["djq:A2:1/2", "oplus:3:3", "aut:4:3"])
def test_no_enclosure_for_drinfeld_jimbo_or_kac(spec, monkeypatch):
    calls = _count_enclosures(monkeypatch)
    kp_constant(spec, 4)
    assert calls == []


def test_inconclusive_when_the_asymptotic_tail_cannot_certify(monkeypatch):
    calls = _count_enclosures(monkeypatch)
    ev = KpEvaluator(parse_model_spec("oplus:3:7/2"), 64)
    # 64 bits cannot hold a tail lower end near 34 to 1e-19: the enclosure is
    # tried once and refused, and the report is inconclusive, with every level
    # summed and the tail bound at max_length
    report = ev.kp_constant(4, tol=1e-19, max_length=2000)
    assert len(calls) == 1
    assert (report.verdict, report.terms_summed) == ("inconclusive", 2000)
    assert report.tail_bound == ev.tail_bound(2000, Fraction(4))
    assert report.kp2_interval is None
    # below the asymptotic cutoff nothing is tried
    del calls[:]
    assert kp_constant("oplus:3:7/2", 4, max_length=12).verdict == "inconclusive"
    assert calls == []


@pytest.mark.parametrize("spec", ["oplus:100:100000", "aut:4:5000"])
def test_fast_decay_cutoff_waits_for_its_corrections(spec):
    # with s c1 > 2 pi more corrections do not shrink the Euler-Maclaurin
    # remainder: the cutoff is the first length from the one where 2 delta B
    # passes at which some K fits, and the report converges there
    ev = KpEvaluator(parse_model_spec(spec))
    p, tol = Fraction(2), 1e-10
    tail = ev._plan.asymptotic_tail(p)
    assert tail.s * tail.c1 > 2 * math.pi
    width_cut = next(L for L in range(100) if MpfValue(tail.width_bound(L)) <= tol)
    assert tail.corrections(width_cut, tol) is None
    cut = next(L for L in range(width_cut, 100) if tail.corrections(L, tol) is not None)
    report = ev.kp_constant(p, tol=tol)
    assert report.converged and report.terms_summed == cut
    far, far_tail = _far_cutoff(tail, cut)
    with mp.workprec(400):
        lo, hi = (_mpf(x._mpf_) for x in report.kp2_interval)
        direct = mp.fsum(ev.level_term_sum(k, p) for k in range(far + 1))
        slack = direct * mp.ldexp(1, -180)
        assert lo <= direct + far_tail + slack
        assert direct - slack <= hi


def test_corrections_take_a_subnormal_budget():
    # log(budget / 8) underflowed below about 4e-323; the room is now log(budget) - log(8)
    budget = 5e-324
    slow = KpEvaluator(parse_model_spec("oplus:3:7/2"))._plan.asymptotic_tail(Fraction(4))
    assert slow.corrections(0, budget) is None
    fast = KpEvaluator(parse_model_spec("oplus:100:100000"))._plan.asymptotic_tail(Fraction(2))
    assert fast.corrections(0, budget) is None
    assert fast.corrections(200, budget) is not None


def test_enclosure_width_is_monotone_bound():
    # the cutoff's bound 2 delta B falls with L, and the doubles follow the intervals
    tail = KpEvaluator(parse_model_spec("aut:5:5"))._plan.asymptotic_tail(Fraction(13, 2))
    bounds = [MpfValue(tail.width_bound(L)) for L in range(60)]
    assert all(a > b for a, b in zip(bounds, bounds[1:]))
    for L in (0, 10, 40):
        assert tail.log_width_bound(L) == pytest.approx(float(mpmath.log(bounds[L])), rel=1e-9)
