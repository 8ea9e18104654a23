import itertools
from fractions import Fraction

import pytest

from conftest import euclidean_positive_root_coordinates
from cqgkhint.exact import rational_inverse
from cqgkhint.rootsys import (
    POSITIVE_ROOT_COUNTS,
    VALID_RANKS,
    DomainError,
    InvalidRootSystemError,
    NonDominantWeightError,
    build_root_system,
)

HALF = Fraction(1, 2)


# -- construction -------------------------------------------------------------


def test_a1_has_one_positive_root_and_rho_is_omega():
    rs = build_root_system("A", 1)
    assert len(rs.positive_roots) == 1
    assert rs.rho == (1,)


def test_root_system_repr_names_its_type():
    assert repr(build_root_system("G", 2)) == "RootSystem(G2)"
    assert repr(build_root_system("b", 3)) == "RootSystem(B3)"


def test_a2_positive_root_count_matches_euclidean_closure(a2_euclidean_positive_count):
    rs = build_root_system("A", 2)
    assert len(rs.positive_roots) == 3 == a2_euclidean_positive_count


def test_g2_positive_root_count_matches_euclidean_closure(g2_euclidean_positive_count):
    rs = build_root_system("G", 2)
    assert len(rs.positive_roots) == 6 == g2_euclidean_positive_count


def _vectors(*rows):
    return [tuple(Fraction(c) for c in row) for row in rows]


# simple roots in R^n, ordered as the Cartan matrices of rootsys (Bourbaki labels)
EUCLIDEAN_SIMPLE_ROOTS = {
    ("B", 3): _vectors((1, -1, 0), (0, 1, -1), (0, 0, 1)),
    ("C", 3): _vectors((1, -1, 0), (0, 1, -1), (0, 0, 2)),
    ("D", 4): _vectors((1, -1, 0, 0), (0, 1, -1, 0), (0, 0, 1, -1), (0, 0, 1, 1)),
    ("G", 2): _vectors((-2, 1, 1), (1, -1, 0)),
    ("F", 4): _vectors((0, 1, -1, 0), (0, 0, 1, -1), (0, 0, 0, 1), (HALF, -HALF, -HALF, -HALF)),
}


@pytest.mark.parametrize("lie_type,rank", list(EUCLIDEAN_SIMPLE_ROOTS))
def test_positive_roots_match_euclidean_closure(lie_type, rank):
    simple = EUCLIDEAN_SIMPLE_ROOTS[lie_type, rank]
    rs = build_root_system(lie_type, rank)

    def dot(a, b):
        return sum(x * y for x, y in zip(a, b))

    # the Euclidean basis has the Cartan matrix A[i][j] = 2 (a_i, a_j) / (a_j, a_j)
    assert [[2 * dot(a, b) / dot(b, b) for b in simple] for a in simple] == [
        list(row) for row in rs.cartan
    ]
    assert set(rs.positive_roots) == euclidean_positive_root_coordinates(simple)


# the 31 simple types of rank <= 8
SIMPLE_TYPES_UP_TO_RANK_8 = [(t, r) for t in "ABCDEFG" for r in range(1, 9) if VALID_RANKS[t](r)]


@pytest.mark.parametrize("lie_type,rank", SIMPLE_TYPES_UP_TO_RANK_8)
def test_stored_root_data_matches_its_definitions(lie_type, rank):
    rs = build_root_system(lie_type, rank)
    roots = rs.positive_roots
    assert rs.positive_root_weights == tuple(map(rs._omega_coords, roots))
    assert rs.rho_pairing == tuple(rs.root_pairing(rs.rho, i) for i in range(len(roots)))
    # (omega_i, 2 rho) = d_i times the sum of the i-th coefficients of the positive roots
    assert rs.two_rho_pairing == tuple(
        d * sum(root[i] for root in roots) for i, d in enumerate(rs.d)
    )


@pytest.mark.parametrize(
    "lie_type,rank",
    [("A", 3), ("B", 2), ("B", 3), ("C", 3), ("D", 4), ("E", 6), ("E", 7), ("E", 8), ("F", 4)],
)
def test_positive_root_counts_all_types(lie_type, rank):
    rs = build_root_system(lie_type, rank)
    assert len(rs.positive_roots) == POSITIVE_ROOT_COUNTS[lie_type](rank)


@pytest.mark.parametrize(
    "lie_type,rank", [("A", 0), ("B", 1), ("C", 2), ("D", 3), ("E", 5), ("F", 3), ("G", 3), ("H", 2)]
)
def test_invalid_type_rank_rejected(lie_type, rank):
    with pytest.raises(InvalidRootSystemError):
        build_root_system(lie_type, rank)


@pytest.mark.parametrize(
    "lie_type,rank", [("A", 1), ("A", 2), ("B", 2), ("C", 3), ("G", 2), ("F", 4)]
)
def test_fundamental_weight_pairing_and_rho(lie_type, rank):
    rs = build_root_system(lie_type, rank)
    # (omega_i, alpha_j) = delta_ij (alpha_j, alpha_j)/2
    for i in range(rank):
        e_i = tuple(1 if k == i else 0 for k in range(rank))
        for j in range(rank):
            alpha_j = rs._omega_coords(tuple(1 if k == j else 0 for k in range(rank)))
            expected = Fraction(rs.d[j]) if i == j else Fraction(0)
            assert rs.inner_product(e_i, alpha_j) == expected
    # rho = half the sum of positive roots
    total = [0] * rank
    for root in rs.positive_roots:
        coords = rs._omega_coords(root)
        total = [a + b for a, b in zip(total, coords)]
    assert tuple(Fraction(c, 2) for c in total) == tuple(Fraction(1) for _ in range(rank))


def test_short_root_normalisation():
    # in every type the shortest simple root has squared length 2
    for lie_type, rank in [("A", 2), ("B", 3), ("C", 3), ("G", 2), ("F", 4)]:
        rs = build_root_system(lie_type, rank)
        lengths = []
        for j in range(rank):
            alpha = rs._omega_coords(tuple(1 if k == j else 0 for k in range(rank)))
            lengths.append(rs.inner_product(alpha, alpha))
        assert min(lengths) == 2


# -- inner product -------------------------------------------------------------


def test_inner_product_examples():
    a1 = build_root_system("A", 1)
    alpha = a1._omega_coords((1,))
    assert a1.inner_product((1,), alpha) == 1  # (omega_1, alpha_1) = 1
    a2 = build_root_system("A", 2)
    two_rho = (2, 2)
    assert a2.inner_product((1, 0), two_rho) == 2
    assert a2.inner_product((1, 1), (0, 0)) == 0


def test_inner_product_symmetric_positive():
    rs = build_root_system("B", 2)
    v, w = (2, 1), (1, 3)
    assert rs.inner_product(v, w) == rs.inner_product(w, v)
    assert rs.inner_product(v, v) > 0


def test_inner_product_dimension_mismatch():
    rs = build_root_system("A", 2)
    with pytest.raises(ValueError):
        rs.inner_product((1,), (1, 0))


# -- Weyl dimension -------------------------------------------------------------


def test_weyl_dimension_a1_ladder():
    rs = build_root_system("A", 1)
    for m in range(8):
        assert rs.weyl_dimension((m,)) == m + 1


def test_weyl_dimension_a2_examples():
    rs = build_root_system("A", 2)
    assert rs.weyl_dimension((0, 0)) == 1
    assert rs.weyl_dimension((1, 0)) == 3
    assert rs.weyl_dimension((1, 1)) == 8
    # independent closed form for su(3): (a+1)(b+1)(a+b+2)/2
    for a in range(4):
        for b in range(4):
            assert rs.weyl_dimension((a, b)) == (a + 1) * (b + 1) * (a + b + 2) // 2


def test_weyl_dimension_g2_adjoint():
    rs = build_root_system("G", 2)
    dims = sorted(rs.weyl_dimension(mu) for mu in [(1, 0), (0, 1)])
    # fundamental irreps of G2 have dimensions 7 and 14
    assert dims == [7, 14]


def test_weyl_dimension_rejects_non_dominant():
    rs = build_root_system("A", 2)
    with pytest.raises(NonDominantWeightError):
        rs.weyl_dimension((-1, 2))


@pytest.mark.parametrize("mu", [(1.5, 0), (1.9, 0), (0.5, 0.5), (float("inf"), 0), ("1", 0)])
def test_non_integral_weights_refused_not_truncated(mu):
    rs = build_root_system("A", 2)
    assert not rs.is_dominant(mu)
    with pytest.raises(NonDominantWeightError):
        rs.weyl_dimension(mu)
    with pytest.raises(NonDominantWeightError):
        rs.weight_system(mu)
    with pytest.raises(NonDominantWeightError):
        rs.q_matrix_spectrum(mu, HALF)


def test_integral_floats_and_fractions_accepted():
    rs = build_root_system("A", 2)
    assert rs.weyl_dimension((1.0, Fraction(2))) == rs.weyl_dimension((1, 2)) == 15
    assert rs.weight_system([1.0, 0]) == rs.weight_system((1, 0))


# -- weight systems -------------------------------------------------------------


def test_sl2_weight_ladder():
    rs = build_root_system("A", 1)
    ws = rs.weight_system((2,))
    assert ws == {(2,): 1, (0,): 1, (-2,): 1}


def test_a2_adjoint_weights():
    rs = build_root_system("A", 2)
    ws = rs.weight_system((1, 1))
    assert ws[(0, 0)] == 2
    assert sum(ws.values()) == 8
    # the six nonzero weights are the roots, each with multiplicity 1
    nonzero = {w for w in ws if w != (0, 0)}
    assert len(nonzero) == 6 and all(ws[w] == 1 for w in nonzero)


def test_trivial_weight_system():
    rs = build_root_system("B", 2)
    assert rs.weight_system((0, 0)) == {(0, 0): 1}


@pytest.mark.parametrize(
    "lie_type,rank,max_len",
    [("A", 1, 5), ("A", 2, 4), ("B", 2, 3), ("G", 2, 2), ("A", 3, 3), ("C", 3, 2)],
)
def test_weight_multiplicities_sum_to_weyl_dimension(lie_type, rank, max_len):
    # Freudenthal recursion vs the Weyl product: two independent algorithms
    rs = build_root_system(lie_type, rank)
    for total in range(max_len + 1):
        for mu in _compositions(total, rank):
            ws = rs.weight_system(mu)
            assert sum(ws.values()) == rs.weyl_dimension(mu), mu


_INVARIANT_SAMPLES = [
    ("B", (1, 1)),
    ("G", (1, 1)),
    ("G", (0, 2)),
    ("A", (1, 0, 2)),
    ("C", (1, 1, 0)),
    ("F", (1, 0, 0, 0)),
    ("F", (0, 1, 0, 0)),
    ("F", (0, 0, 1, 0)),
    ("F", (0, 0, 0, 1)),
]


@pytest.mark.parametrize(
    "lie_type,mu",
    _INVARIANT_SAMPLES,
    ids=[f"{t}{len(mu)}:{','.join(map(str, mu))}" for t, mu in _INVARIANT_SAMPLES],
)
def test_weight_system_weyl_invariant_samples(lie_type, mu):
    rs = build_root_system(lie_type, len(mu))
    ws = rs.weight_system(mu)
    for w, mult in ws.items():
        for i in range(rs.rank):
            assert ws[rs.reflect(w, i)] == mult


def _dominant_weights_below(rs, mu):
    """Brute force: every dominant ``mu - sum c_i alpha_i`` with ``c`` in a box of ``Z>=0^r``.

    A dominant weight has nonnegative simple-root coordinates, so ``c_i`` is at
    most the ``i``-th simple-root coordinate of ``mu``, which is ``(mu A^{-1})_i``.
    """
    inverse = rational_inverse([[Fraction(a) for a in row] for row in rs.cartan])
    box = [
        range(int(sum(mu[i] * inverse[i][j] for i in range(rs.rank))) + 1)
        for j in range(rs.rank)
    ]
    found = set()
    for c in itertools.product(*box):
        nu = tuple(
            mu[j] - sum(c[i] * rs.cartan[i][j] for i in range(rs.rank)) for j in range(rs.rank)
        )
        if min(nu) >= 0:
            found.add(nu)
    return found


@pytest.mark.parametrize(
    "lie_type,rank,max_len",
    [
        ("A", 1, 4),
        ("A", 2, 3),
        ("A", 3, 2),
        ("A", 4, 2),
        ("B", 2, 3),
        ("B", 3, 2),
        ("C", 3, 2),
        ("D", 4, 2),
        ("G", 2, 3),
        ("F", 4, 1),
    ],
)
def test_dominant_weights_match_brute_force(lie_type, rank, max_len):
    # the dominant weights of V_mu are the dominant nu with mu - nu in Q+;
    # weight_system reaches them by positive-root steps, the brute force by a box
    rs = build_root_system(lie_type, rank)
    for total in range(max_len + 1):
        for mu in _compositions(total, rank):
            dominant = {nu for nu in rs.weight_system(mu) if min(nu) >= 0}
            assert dominant == _dominant_weights_below(rs, mu), mu


def test_weight_system_returns_copies():
    rs = build_root_system("B", 2)
    first = rs.weight_system((1, 1))
    expected = dict(first)
    first[(1, 1)] = 99
    first[(7, 7)] = 1
    del first[(-1, -1)]
    assert rs.weight_system((1, 1)) == expected


def _weight_histogram(rs, mu):
    """``(e, m)`` pairs, ``e`` descending: ``m`` weights of ``V_mu`` have ``(nu, 2 rho) = e``."""
    by_exponent = {}
    for nu, mult in rs.weight_system(mu).items():
        e = rs.two_rho_exponent(nu)
        by_exponent[e] = by_exponent.get(e, 0) + mult
    return tuple(sorted(by_exponent.items(), reverse=True))


# every dominant weight with |mu| <= 6 (E8: <= 1, the trivial and the 248-dim
# adjoint) and dimension <= 400, plus larger ones
_CHARACTER_CASES = [
    ("A", 1, 6, []),
    ("A", 2, 6, []),
    ("A", 3, 6, [(6, 6, 6)]),
    ("A", 4, 6, [(3, 3, 3, 3)]),
    ("A", 5, 6, []),
    ("B", 2, 6, []),
    ("B", 3, 6, []),
    ("B", 4, 6, []),
    ("C", 3, 6, [(4, 4, 4)]),
    ("C", 4, 6, []),
    ("D", 4, 6, [(2, 1, 1, 2)]),
    ("D", 5, 6, []),
    ("G", 2, 6, [(5, 5)]),
    ("F", 4, 6, [(1, 1, 0, 0)]),
    ("E", 6, 6, [(1, 0, 0, 0, 1, 0)]),
    ("E", 7, 6, []),
    ("E", 8, 1, []),
]


@pytest.mark.parametrize(
    "lie_type,rank,max_total,larger",
    _CHARACTER_CASES,
    ids=[f"{lie_type}{rank}" for lie_type, rank, _, _ in _CHARACTER_CASES],
)
def test_spectrum_exponents_match_weyl_character_at_two_rho(lie_type, rank, max_total, larger):
    # the modular spectrum's exponents come from the Weyl character at 2 rho,
    # prod_beta (x^{m_beta} - x^{-m_beta}) / (x^{h_beta} - x^{-h_beta}); the
    # Freudenthal weight system gives the same histogram by another route
    rs = build_root_system(lie_type, rank)
    mus = [
        mu
        for total in range(max_total + 1)
        for mu in _compositions(total, rank)
        if rs.weyl_dimension(mu) <= 400
    ]
    for mu in mus + larger:
        expected = _weight_histogram(rs, mu)
        assert rs.two_rho_histogram(mu) == expected, mu
        spec = rs.q_matrix_spectrum(mu, HALF)
        assert spec.entries == tuple((HALF ** -e, m) for e, m in expected), mu
        # the traces over one common denominator equal the term-by-term sums
        assert spec.trace() == sum((v * m for v, m in spec.entries), Fraction(0)), mu
        assert spec.inv_trace() == sum((m / v for v, m in spec.entries), Fraction(0)), mu


def _compositions(total, parts):
    if parts == 1:
        yield (total,)
        return
    for first in range(total, -1, -1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


# -- modular spectra -------------------------------------------------------------


def test_q_spectrum_a1_fundamental():
    rs = build_root_system("A", 1)
    spec = rs.q_matrix_spectrum((1,), HALF)
    assert spec.entries == ((Fraction(2), 1), (HALF, 1))


def test_q_spectrum_trivial():
    rs = build_root_system("A", 2)
    spec = rs.q_matrix_spectrum((0, 0), HALF)
    assert spec.entries == ((Fraction(1), 1),)


def test_q_spectrum_a1_ladder():
    rs = build_root_system("A", 1)
    for m in range(6):
        spec = rs.q_matrix_spectrum((m,), HALF)
        expected = sorted((HALF ** (-(m - 2 * j)) for j in range(m + 1)), reverse=True)
        flat = sorted(spec.diagonal(), reverse=True)
        assert flat == expected


def test_q_spectrum_trace_symmetry_exact():
    for lie_type, rank in [("A", 2), ("B", 2), ("G", 2)]:
        rs = build_root_system(lie_type, rank)
        for total in range(4):
            for mu in _compositions(total, rank):
                spec = rs.q_matrix_spectrum(mu, Fraction(3, 4))
                assert spec.is_trace_symmetric(), (lie_type, mu)


def test_q_spectrum_rejects_bad_q():
    rs = build_root_system("A", 1)
    for bad in (0, 1, Fraction(3, 2), -1):
        with pytest.raises(DomainError):
            rs.q_matrix_spectrum((1,), bad)


# -- quantum dimension -----------------------------------------------------------


def test_quantum_dimension_examples(request):
    rs = build_root_system("A", 1)
    from conftest import q_integer

    assert rs.quantum_dimension((2,), HALF) == Fraction(21, 4) == q_integer(3, HALF)
    assert rs.quantum_dimension((1,), HALF) == Fraction(5, 2) == q_integer(2, HALF)
    assert rs.quantum_dimension((0,), HALF) == 1


@pytest.mark.parametrize("q", [HALF, Fraction(3, 4)])
@pytest.mark.parametrize(
    "lie_type,rank,max_len",
    [("A", 1, 5), ("A", 2, 5), ("B", 2, 4), ("G", 2, 3), ("A", 3, 4), ("B", 3, 3), ("C", 3, 3)],
)
def test_quantum_dimension_dual_route_exact(lie_type, rank, max_len, q):
    rs = build_root_system(lie_type, rank)
    for total in range(max_len + 1):
        for mu in _compositions(total, rank):
            assert rs.quantum_dimension(mu, q) == rs.quantum_dimension_product(mu, q), mu


def test_quantum_dimension_dominates_classical():
    rs = build_root_system("A", 2)
    for mu in [(1, 0), (1, 1), (2, 1)]:
        d = rs.quantum_dimension(mu, HALF)
        n = rs.weyl_dimension(mu)
        assert d > n  # strict away from the trivial label for 0 < q < 1
    assert rs.quantum_dimension((0, 0), HALF) == rs.weyl_dimension((0, 0)) == 1


# -- t constants and sup norms -----------------------------------------------------


def test_t_constants_a1_a2():
    a1 = build_root_system("A", 1)
    assert a1.t_constants(HALF) == (HALF,)
    a2 = build_root_system("A", 2)
    assert a2.t_constants(HALF) == (Fraction(1, 4), Fraction(1, 4))


@pytest.mark.parametrize("lie_type,rank", [("A", 1), ("A", 2), ("B", 2), ("G", 2), ("F", 4)])
def test_t_constants_below_one(lie_type, rank):
    rs = build_root_system(lie_type, rank)
    for q in (HALF, Fraction(3, 4), Fraction(9, 10)):
        assert all(0 < t < 1 for t in rs.t_constants(q))


@pytest.mark.parametrize("q", [HALF, Fraction(3, 4)])
@pytest.mark.parametrize("lie_type,rank", [("A", 1), ("A", 2), ("B", 2), ("G", 2)])
def test_sup_norm_is_product_of_t_powers(lie_type, rank, q):
    rs = build_root_system(lie_type, rank)
    ts = rs.t_constants(q)
    for total in range(5):
        for mu in _compositions(total, rank):
            spec = rs.q_matrix_spectrum(mu, q)
            expected = Fraction(1)
            for t, m in zip(ts, mu):
                expected *= t ** (-m)
            assert spec.max_eigenvalue() == expected == rs.q_sup_norm(mu, q)


def test_quantum_dimension_exceeds_sup_norm_lower_bound():
    rs = build_root_system("B", 2)
    q = Fraction(3, 4)
    t_max = max(rs.t_constants(q))
    for total in range(5):
        for mu in _compositions(total, rs.rank):
            d = rs.quantum_dimension_product(mu, q)
            assert d >= t_max ** (-total)


from hypothesis import given, settings
from hypothesis import strategies as st


@settings(max_examples=30, deadline=None)
@given(
    mu=st.tuples(st.integers(0, 4), st.integers(0, 4)),
    q=st.fractions(min_value=Fraction(1, 10), max_value=Fraction(9, 10), max_denominator=12),
)
def test_property_spectrum_invariants_a2(mu, q):
    rs = build_root_system("A", 2)
    spec = rs.q_matrix_spectrum(mu, q)
    assert spec.is_trace_symmetric()
    assert spec.n == rs.weyl_dimension(mu)
    assert spec.max_eigenvalue() == rs.q_sup_norm(mu, q)
    assert rs.quantum_dimension(mu, q) == rs.quantum_dimension_product(mu, q)


@settings(max_examples=30, deadline=None)
@given(
    v=st.tuples(st.integers(-6, 6), st.integers(-6, 6)),
    w=st.tuples(st.integers(-6, 6), st.integers(-6, 6)),
    a=st.integers(-4, 4),
)
def test_property_inner_product_bilinear_b2(v, w, a):
    rs = build_root_system("B", 2)
    av = tuple(a * x for x in v)
    assert rs.inner_product(av, w) == a * rs.inner_product(v, w)
    s = tuple(x + y for x, y in zip(v, w))
    u = (1, 2)
    assert rs.inner_product(s, u) == rs.inner_product(v, u) + rs.inner_product(w, u)
    assert rs.inner_product(v, w) == rs.inner_product(w, v)
    if any(v):
        assert rs.inner_product(v, v) > 0


def test_b2_small_representations_textbook():
    # vector representation: 5 weights, all multiplicity 1, including zero
    rs = build_root_system("B", 2)
    vector = rs.weight_system((1, 0))
    assert sum(vector.values()) == 5
    assert set(vector.values()) == {1}
    assert vector[(0, 0)] == 1
    # spinor representation: 4 weights, all multiplicity 1, no zero weight
    spinor = rs.weight_system((0, 1))
    assert sum(spinor.values()) == 4
    assert set(spinor.values()) == {1}
    assert (0, 0) not in spinor


def test_g2_fundamental_representations_textbook():
    rs = build_root_system("G", 2)
    adjoint = rs.weight_system((1, 0))  # 14-dimensional
    assert sum(adjoint.values()) == 14
    assert adjoint[(0, 0)] == 2  # zero-weight multiplicity equals the rank
    assert len([w for w in adjoint if w != (0, 0)]) == 12  # the roots
    seven = rs.weight_system((0, 1))  # 7-dimensional
    assert sum(seven.values()) == 7
    assert seven[(0, 0)] == 1
    assert len([w for w in seven if w != (0, 0)]) == 6  # the short roots


@pytest.mark.parametrize(
    "lie_type,rank,expected",
    [
        ("A", 4, [5, 5, 10, 10]),
        ("B", 4, [9, 16, 36, 84]),
        ("C", 4, [8, 27, 42, 48]),
        ("D", 4, [8, 8, 8, 28]),
        ("G", 2, [7, 14]),
        ("F", 4, [26, 52, 273, 1274]),
        ("E", 6, [27, 27, 78, 351, 351, 2925]),
        ("E", 7, [56, 133, 912, 1539, 8645, 27664, 365750]),
    ],
)
def test_fundamental_dimensions_textbook(lie_type, rank, expected):
    rs = build_root_system(lie_type, rank)
    dims = sorted(
        rs.weyl_dimension(tuple(1 if j == i else 0 for j in range(rank)))
        for i in range(rank)
    )
    assert dims == expected


def test_e8_adjoint_is_smallest_fundamental():
    rs = build_root_system("E", 8)
    dims = sorted(
        rs.weyl_dimension(tuple(1 if j == i else 0 for j in range(8))) for i in range(8)
    )
    assert dims[0] == 248 and dims[1] == 3875
