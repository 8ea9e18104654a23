import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cqgkhint import schur
from cqgkhint.radical import Radical, sqrt_exact
from cqgkhint.rootsys import QSpectrum, build_root_system

HALF = Fraction(1, 2)


def a1_spectrum(m=1, q=HALF):
    return build_root_system("A", 1).q_matrix_spectrum((m,), q)


# -- spectra ------------------------------------------------------------------


def test_symmetrize_spectrum_exact_normalisation():
    rng = random.Random(11)
    for _ in range(50):
        spec = schur.random_symmetric_spectrum(rng, rng.randint(1, 10))
        assert spec.is_trace_symmetric()


def test_symmetrize_identity_diagonal():
    spec = schur.symmetrize_spectrum([1, 1, 1])
    assert spec.entries == ((Fraction(1), 3),)


def test_non_symmetric_spectrum_rejected():
    bad = QSpectrum(((Fraction(2), 1), (Fraction(1), 1)))
    with pytest.raises(schur.SpectrumNotNormalizedError):
        schur.smoothed_character_norm_check(bad)
    with pytest.raises(schur.SpectrumNotNormalizedError):
        schur.modular_duality_check(bad)


# -- modular automorphism ---------------------------------------------------------


def test_sigma_zero_is_identity():
    spec = a1_spectrum()
    chi = schur.character_vector("a", spec)
    out = schur.apply_modular_automorphism(chi, 0)
    assert out.entries == {k: complex(v) for k, v in out.entries.items()}
    exact = schur.apply_modular_imaginary(chi, 0)
    assert exact.entries == chi.entries


def test_sigma_minus_i_multiplier_is_q_squared_product():
    # at z = -i the multiplier on u_st is Q_ss Q_tt
    spec = a1_spectrum()
    diag = spec.diagonal()
    vec = schur.CoefficientVector({"a": spec}, {("a", 0, 1): Fraction(1)})
    out = schur.apply_modular_imaginary(vec, 1)
    assert out.entries[("a", 0, 1)] == diag[0] * diag[1]


def test_sigma_quarter_on_character_gives_sqrt_multipliers():
    spec = a1_spectrum()
    chi = schur.character_vector("a", spec)
    out = schur.apply_modular_imaginary(chi, Fraction(1, 4))
    diag = spec.diagonal()
    for i, q_ii in enumerate(diag):
        assert out.entries[("a", i, i)] == sqrt_exact(q_ii)


@settings(max_examples=40, deadline=None)
@given(
    s=st.fractions(min_value=-2, max_value=2, max_denominator=8),
    w=st.fractions(min_value=-2, max_value=2, max_denominator=8),
)
def test_sigma_group_law_exact(s, w):
    rng = random.Random(5)
    spec = schur.random_symmetric_spectrum(rng, 4)
    vec = schur.CoefficientVector(
        {"a": spec},
        {("a", 0, 1): Fraction(2, 3), ("a", 1, 2): Fraction(-1, 2), ("a", 3, 3): Fraction(5)},
    )
    composed = schur.apply_modular_imaginary(schur.apply_modular_imaginary(vec, s), w)
    direct = schur.apply_modular_imaginary(vec, s + w)
    for key in direct.entries:
        lhs, rhs = composed.entries[key], direct.entries[key]
        lhs = lhs if isinstance(lhs, Radical) else Radical.from_rational(lhs)
        rhs = rhs if isinstance(rhs, Radical) else Radical.from_rational(rhs)
        assert lhs == rhs


def test_sigma_float_mode_matches_exact_mode():
    spec = a1_spectrum()
    chi = schur.character_vector("a", spec)
    exact = schur.apply_modular_imaginary(chi, Fraction(1, 4))
    floating = schur.apply_modular_automorphism(chi, -0.25j)
    for key in exact.entries:
        assert abs(complex(float(exact.entries[key])) - floating.entries[key]) < 1e-12


@pytest.mark.parametrize("s", [Fraction(1, 4), Fraction(-3, 2), Fraction(2)])
def test_sigma_imaginary_on_float_coefficients_matches_float_mode(s):
    spec = a1_spectrum(m=2)
    vec = schur.CoefficientVector(
        {"a": spec}, {("a", 0, 1): 0.5 - 2j, ("a", 2, 0): -1.25, ("a", 2, 2): 3j}
    )
    floating = schur.apply_modular_imaginary(vec, s).entries
    expected = schur.apply_modular_automorphism(vec, -1j * float(s)).entries
    assert floating.keys() == expected.keys()
    for key, value in expected.items():
        assert type(floating[key]) is complex
        assert abs(floating[key] - value) <= 1e-12 * abs(value)


# -- L2 norms -----------------------------------------------------------------------


def test_l2_norm_of_complex_coefficients_is_the_float_of_the_exact_value():
    rng = random.Random(13)
    spec = schur.random_symmetric_spectrum(rng, 5)
    exact = {("a", 0, 1): Fraction(3, 2), ("a", 4, 2): Fraction(-2, 7), ("a", 3, 3): Fraction(5)}
    # unit phases leave |c|^2 unchanged
    phases = (1j, (3 - 4j) / 5, -1.0)
    floating = {key: complex(c) * u for (key, c), u in zip(exact.items(), phases)}
    want = schur.l2_norm_squared(schur.CoefficientVector({"a": spec}, exact))
    got = schur.l2_norm_squared(schur.CoefficientVector({"a": spec}, floating))
    assert type(got) is float
    assert math.isclose(got, float(want), rel_tol=1e-12)


def test_character_is_unit_vector():
    assert schur.l2_norm_squared(schur.character_vector("a", a1_spectrum())) == 1
    rng = random.Random(3)
    for _ in range(20):
        spec = schur.random_symmetric_spectrum(rng, rng.randint(1, 8))
        sq = schur.l2_norm_squared(schur.character_vector("x", spec))
        assert sq == 1  # uses Tr(Q^{-1}) = Tr(Q) exactly


def test_empty_vector_has_zero_norm():
    vec = schur.CoefficientVector({"a": a1_spectrum()}, {})
    assert schur.l2_norm_squared(vec) == 0
    assert schur.l2_norm(vec) == 0


def test_adding_vectors_sums_the_coefficients_they_share():
    spectra = {1: a1_spectrum()}
    half = Radical(Fraction(1, 2))
    a = schur.CoefficientVector(
        spectra, {(1, 0, 0): Fraction(1, 4), (1, 0, 1): half, (1, 1, 1): sqrt_exact(2)}
    )
    b = schur.CoefficientVector(
        spectra, {(1, 0, 0): Fraction(3, 4), (1, 0, 1): Fraction(1, 2), (1, 1, 1): -sqrt_exact(2)}
    )
    total = (a + b).entries
    # exact sums stay exact; a rational one comes back as a Fraction, a zero one is dropped
    assert total == {(1, 0, 0): 1, (1, 0, 1): 1}
    assert all(type(value) is Fraction for value in total.values())
    c = schur.CoefficientVector(spectra, {(1, 0, 0): 1 + 2j, (1, 1, 0): 0.5})
    assert (a + c).entries == {
        (1, 0, 0): 1.25 + 2j,
        (1, 0, 1): Fraction(1, 2),
        (1, 1, 0): 0.5,
        (1, 1, 1): sqrt_exact(2),
    }


def test_parseval_additivity_disjoint_labels():
    rng = random.Random(9)
    s1 = schur.random_symmetric_spectrum(rng, 3)
    s2 = schur.random_symmetric_spectrum(rng, 5)
    v1 = schur.CoefficientVector({"a": s1}, {("a", 0, 1): Fraction(3, 2)})
    v2 = schur.CoefficientVector({"b": s2}, {("b", 2, 0): Fraction(2, 5)})
    merged = v1 + v2
    total = schur.l2_norm_squared(merged)
    parts = schur.l2_norm_squared(v1) + schur.l2_norm_squared(v2)
    lhs = total if isinstance(total, Radical) else Radical.from_rational(total)
    rhs = parts if isinstance(parts, Radical) else Radical.from_rational(parts)
    assert lhs == rhs


def test_norm_example_a1_smoothed_character():
    # || sigma_{-i/4}(chi) ||^2 = n/d = 2/(5/2) = 4/5 for the fundamental A1 label
    spec = a1_spectrum()
    smoothed = schur.apply_modular_imaginary(schur.character_vector("a", spec), Fraction(1, 4))
    assert schur.l2_norm_squared(smoothed) == Fraction(4, 5)


def test_missing_q_data_rejected():
    with pytest.raises(schur.MissingQDataError):
        schur.CoefficientVector({}, {("a", 0, 0): 1})


def test_index_out_of_range_rejected():
    with pytest.raises(ValueError):
        schur.CoefficientVector({"a": a1_spectrum()}, {("a", 0, 5): 1})


# -- smoothing base identity ------------------------------------------------------


def test_smoothing_check_a1_example():
    chk = schur.smoothed_character_norm_check(a1_spectrum())
    assert chk.equal and chk.lhs == Fraction(4, 5) == chk.rhs


def test_smoothing_check_kac_spectrum():
    spec = QSpectrum(((Fraction(1), 4),))
    chk = schur.smoothed_character_norm_check(spec)
    assert chk.equal and chk.lhs == 1


def test_smoothing_check_thousand_synthetic_spectra():
    rng = random.Random(20250810)
    for _ in range(1000):
        spec = schur.random_symmetric_spectrum(rng, rng.randint(1, 10))
        chk = schur.smoothed_character_norm_check(spec)
        assert chk.equal


# -- modular duality ---------------------------------------------------------------


def test_duality_rootsys_spectra():
    for lie_type, rank, max_len in [("A", 1, 4), ("A", 2, 4)]:
        rs = build_root_system(lie_type, rank)
        for total in range(max_len + 1):
            for mu in _compositions(total, rank):
                assert schur.modular_duality_check(rs.q_matrix_spectrum(mu, HALF))


def test_duality_synthetic_spectra():
    rng = random.Random(77)
    for _ in range(40):
        assert schur.modular_duality_check(schur.random_symmetric_spectrum(rng, rng.randint(1, 6)))


def _compositions(total, parts):
    if parts == 1:
        yield (total,)
        return
    for first in range(total, -1, -1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


# -- central series -----------------------------------------------------------------


def _random_series(rng, np_rng, dim=3, labels=4):
    spectra = {
        i: schur.random_symmetric_spectrum(rng, rng.randint(1, 5)) for i in range(labels)
    }
    terms = {
        i: np_rng.normal(size=(dim, dim)) + 1j * np_rng.normal(size=(dim, dim))
        for i in range(labels)
    }
    return schur.CentralSeries(dim, terms, spectra)


def test_series_norm_identity_random():
    rng = random.Random(4)
    np_rng = np.random.default_rng(4)
    for _ in range(25):
        series = _random_series(rng, np_rng)
        direct = schur.series_norm_squared_direct(series)
        expanded = schur.series_norm_squared_expanded(series)
        assert abs(direct - expanded) <= 1e-10 * max(1.0, direct)


def test_series_scalar_characters_orthonormal():
    # f = chi_0 + chi_1 with scalar coefficients: ||f||^2 = 2
    spectra = {0: QSpectrum(((Fraction(1), 1),)), 1: a1_spectrum()}
    terms = {0: np.array([[1.0]]), 1: np.array([[1.0]])}
    series = schur.CentralSeries(1, terms, spectra)
    chk = schur.l2_khintchine_check(series, k2=1.0)
    assert abs(chk.lhs - 2**0.5) < 1e-12
    assert abs(chk.rhs_bound - 2**0.5) < 1e-12
    assert chk.holds


def test_series_single_term_is_frobenius_norm():
    x = np.array([[1.0, 2.0], [0.5, -1.0]])
    series = schur.CentralSeries(2, {1: x}, {1: a1_spectrum()})
    chk = schur.l2_khintchine_check(series)
    assert abs(chk.lhs - np.linalg.norm(x)) < 1e-12
    assert chk.holds


def test_series_k2_bound_holds_random():
    rng = random.Random(8)
    np_rng = np.random.default_rng(8)
    for _ in range(20):
        series = _random_series(rng, np_rng, dim=rng.randint(1, 4), labels=rng.randint(1, 6))
        chk = schur.l2_khintchine_check(series)
        assert chk.holds and chk.k2_used >= 1.0


def test_series_shape_validation():
    with pytest.raises(ValueError):
        schur.CentralSeries(2, {0: np.eye(3)}, {0: a1_spectrum()})
    with pytest.raises(schur.MissingQDataError):
        schur.CentralSeries(2, {0: np.eye(2)}, {})
    for bad in ([[1.0, 2.0], [3.0]], [1.0, 2.0], 1.0):  # ragged, a 1-D row, a scalar
        with pytest.raises(ValueError):
            schur.CentralSeries(2, {0: bad}, {0: a1_spectrum()})


def test_central_series_runs_without_numpy():
    # numpy is a test dependency only: the Schur layer takes nested lists and tuples
    src = str(Path(__file__).resolve().parent.parent / "src")
    script = (
        "import sys\n"
        "sys.modules['numpy'] = None\n"
        "from fractions import Fraction\n"
        "from cqgkhint import schur\n"
        "from cqgkhint.rootsys import QSpectrum\n"
        "spectra = {0: QSpectrum(((Fraction(1), 2),)), 1: schur.symmetrize_spectrum([2, 1, 3])}\n"
        "terms = {0: [[3, 0], [0, 4j]], 1: ((1.0, 2.0), (0.5, -1.0))}\n"
        "series = schur.CentralSeries(2, terms, spectra)\n"
        "chk = schur.l2_khintchine_check(series)\n"
        "direct = schur.series_norm_squared_direct(series)\n"
        "expanded = schur.series_norm_squared_expanded(series)\n"
        "assert chk.holds and direct == 31.25, direct\n"
        "assert abs(expanded - direct) < 1e-12 and abs(schur.l2_norm(series) - 31.25**0.5) < 1e-12\n"
        "print(sorted(m for m, mod in sys.modules.items() if mod and m.split('.')[0] == 'numpy'))\n"
    )
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_l2_norm_accepts_series():
    x = np.array([[3.0, 0.0], [0.0, 4.0]])
    series = schur.CentralSeries(2, {1: x}, {1: a1_spectrum()})
    assert abs(schur.l2_norm(series) - 5.0) < 1e-12
    assert abs(schur.l2_norm_squared(series) - 25.0) < 1e-12


def test_quantum_dimension_dominates_with_equality_iff_trivial_spectrum():
    # trace-symmetric AM-GM: Tr(Q) >= n with equality iff Q is the identity
    rng = random.Random(42)
    for _ in range(50):
        spec = schur.random_symmetric_spectrum(rng, rng.randint(1, 8))
        d = spec.trace()
        identity = all(v == 1 for v, _ in spec.entries)
        if identity:
            assert d == spec.n
        else:
            assert float(d.to_mpf() if hasattr(d, "to_mpf") else d) > spec.n
    kac = QSpectrum(((Fraction(1), 5),))
    assert kac.trace() == kac.n
