import dataclasses
import random
from fractions import Fraction

import pytest

from conftest import q_integer
from cqgkhint.chebyshev import chebyshev_f, chebyshev_g
from cqgkhint.models import (
    DrinfeldJimboModel,
    FreeOrthogonalModel,
    InvalidModelError,
    QuantumAutomorphismModel,
    construct_model,
    parse_model_spec,
)

HALF = Fraction(1, 2)


# -- construction and validation ------------------------------------------------


def test_free_orthogonal_construction():
    model = FreeOrthogonalModel(3, Fraction(7, 2))
    assert not model.is_kac()
    kac = FreeOrthogonalModel(3, 3)
    assert kac.is_kac()


def test_quantum_automorphism_kac_boundary():
    # n1 = dimB - 1 = 3 is the Kac point; anything above is non-Kac
    assert QuantumAutomorphismModel(4, 3).is_kac()
    assert not QuantumAutomorphismModel(4, 4).is_kac()
    assert not QuantumAutomorphismModel(4, 5).is_kac()


def test_drinfeld_jimbo_never_kac():
    assert not DrinfeldJimboModel("A", 1, HALF).is_kac()


def test_rejections_name_the_constraint():
    with pytest.raises(InvalidModelError) as err:
        DrinfeldJimboModel("A", 1, Fraction(3, 2))
    assert err.value.code == "q-out-of-range"
    with pytest.raises(InvalidModelError) as err:
        FreeOrthogonalModel(3, Fraction(5, 2))
    assert err.value.code == "nq-below-n"
    with pytest.raises(InvalidModelError) as err:
        QuantumAutomorphismModel(4, Fraction(5, 2))
    assert err.value.code == "d1-below-minimum"
    with pytest.raises(InvalidModelError):
        FreeOrthogonalModel(1, 3)
    with pytest.raises(InvalidModelError):
        QuantumAutomorphismModel(3, 5)


# -- irreducible data --------------------------------------------------------------


def test_free_orthogonal_irr_data_example():
    model = FreeOrthogonalModel(3, Fraction(7, 2))
    data = model.irr_data(2)
    assert data.n == 8
    assert data.d == Fraction(45, 4)  # 11.25
    assert data.chi_sup == 3
    assert data.length == 2


def test_drinfeld_jimbo_irr_data_example():
    model = DrinfeldJimboModel("A", 1, HALF)
    data = model.irr_data((2,))
    assert data.n == 3
    assert data.d == Fraction(21, 4)
    assert data.chi_sup == 3
    assert data.length == 2


def test_trivial_label_everywhere():
    for model in (
        DrinfeldJimboModel("A", 2, HALF),
        FreeOrthogonalModel(3, Fraction(7, 2)),
        QuantumAutomorphismModel(5, 5),
    ):
        data = model.irr_data(model.trivial_label())
        assert (data.n, data.d, data.chi_sup, data.length) == (1, 1, 1, 0)


def test_quantum_automorphism_level_one_data():
    # level-1 data must be (dimB - 1, d1): that is what makes the Kac
    # condition d1 == dimB - 1 mean n == d at every level
    model = QuantumAutomorphismModel(5, Fraction(11, 2))
    data = model.irr_data(1)
    assert data.n == 4
    assert data.d == Fraction(11, 2)
    assert data.chi_sup == 3


def test_quantum_automorphism_so3_dims_at_dimb4():
    model = QuantumAutomorphismModel(4, 5)
    for k in range(6):
        assert model.irr_data(k).n == 2 * k + 1


def test_kac_models_have_equal_dims_all_levels():
    for model in (FreeOrthogonalModel(3, 3), QuantumAutomorphismModel(4, 3)):
        for k in range(10):
            for data in model.level_data(k):
                assert data.d == data.n


def test_d_dominates_n():
    for model in (
        DrinfeldJimboModel("A", 2, HALF),
        FreeOrthogonalModel(3, Fraction(7, 2)),
        QuantumAutomorphismModel(4, 5),
    ):
        for k in range(8):
            for data in model.level_data(k):
                assert data.d >= data.n
                if not model.is_kac() and k > 0:
                    assert data.d > data.n


@pytest.mark.parametrize("spec", ["djq:B2:3/4", "oplus:3:7/2", "aut:5:5"])
def test_model_repr_names_its_class_and_spec(spec):
    model = parse_model_spec(spec)
    assert repr(model) == f"{type(model).__name__}({spec!r})"


# -- level enumeration ---------------------------------------------------------------


def test_enumerate_level_drinfeld_jimbo_descending_lex():
    model = DrinfeldJimboModel("A", 2, HALF)
    assert model.enumerate_level(2) == [(2, 0), (1, 1), (0, 2)]
    assert model.enumerate_level(0) == [(0, 0)]


def test_enumerate_level_graded_families():
    assert FreeOrthogonalModel(3, Fraction(7, 2)).enumerate_level(5) == [5]
    assert QuantumAutomorphismModel(4, 5).enumerate_level(0) == [0]


def test_enumerate_level_count_rank3():
    model = DrinfeldJimboModel("A", 3, HALF)
    for k in range(6):
        labels = model.enumerate_level(k)
        assert len(labels) == (k + 1) * (k + 2) // 2
        assert labels == sorted(labels, reverse=True)


# -- dimension recursions cross family -------------------------------------------------


def test_free_orthogonal_fusion_recursion():
    model = FreeOrthogonalModel(3, Fraction(7, 2))
    n = [model.irr_data(k).n for k in range(42)]
    d = [model.irr_data(k).d for k in range(42)]
    for k in range(1, 41):
        assert n[k + 1] == 3 * n[k] - n[k - 1]
        assert d[k + 1] == Fraction(7, 2) * d[k] - d[k - 1]


def test_su_q2_bridge_dimensions():
    # DrinfeldJimbo(A,1,q) and FreeOrthogonal(2, q + 1/q) carry identical
    # dimension data at every level, exactly
    q = HALF
    dj = DrinfeldJimboModel("A", 1, q)
    oplus = FreeOrthogonalModel(2, q + 1 / q)
    for k in range(60):
        dj_data = dj.irr_data((k,))
        op_data = oplus.irr_data(k)
        assert dj_data.n == op_data.n == k + 1
        assert dj_data.d == op_data.d == q_integer(k + 1, q)


def test_chi_sup_values_per_family():
    dj = DrinfeldJimboModel("A", 2, HALF)
    for mu in [(1, 0), (1, 1), (2, 1)]:
        assert dj.irr_data(mu).chi_sup == dj.irr_data(mu).n
    oplus = FreeOrthogonalModel(3, Fraction(7, 2))
    aut = QuantumAutomorphismModel(5, 5)
    for k in range(6):
        assert oplus.irr_data(k).chi_sup == k + 1
        assert aut.irr_data(k).chi_sup == 2 * k + 1


# -- the cached level-data stream ------------------------------------------------------


def _graded_oracle(model, k):
    if isinstance(model, FreeOrthogonalModel):
        return chebyshev_f(k, model.N), chebyshev_f(k, model.Nq), k + 1
    return chebyshev_g(k, model.dimB), chebyshev_g(k, model.d1 + 1), 2 * k + 1


GRADED_SPECS = ["oplus:2:5/2", "oplus:3:7/2", "oplus:3:3", "aut:4:5", "aut:5:5", "aut:4:3"]


# with d1 = 19/6 and 37/6 the denominator b = 6 of the d recursion has two primes
@pytest.mark.parametrize("spec", [*GRADED_SPECS, "oplus:3:19/6", "aut:5:37/6"])
def test_graded_stream_matches_chebyshev_in_any_order(spec):
    model = parse_model_spec(spec)
    order = list(range(401))
    random.Random(spec).shuffle(order)
    for i, k in enumerate(order):
        if i % 2:
            (data,) = model.level_data(k)
        else:
            data = model.irr_data(k)
        n, d, chi = _graded_oracle(model, k)
        assert (data.label, data.n, data.d, data.chi_sup, data.length) == (k, n, d, chi, k)
        assert type(data.n) is int


@pytest.mark.parametrize("spec", ["djq:A2:1/2", "djq:B2:3/4", "djq:G2:1/3", "djq:C3:3/4"])
def test_dj_level_data_matches_weyl_products(spec):
    model = parse_model_spec(spec)
    rs = model.root_system
    order = list(range(9))
    random.Random(spec).shuffle(order)
    for k in order:
        level = model.level_data(k)
        assert [data.label for data in level] == model.enumerate_level(k)
        for data in level:
            mu = data.label
            n = rs.weyl_dimension(mu)
            d = rs.quantum_dimension_product(mu, model.q)
            assert (data.n, data.d, data.chi_sup, data.length) == (n, d, n, k)
            assert model.irr_data(list(mu)) == data


@pytest.mark.parametrize(
    "spec",
    [
        "djq:A1:1/2", "djq:A2:1/2", "djq:B2:3/4", "djq:G2:1/3",
        "djq:A3:1/2", "djq:C3:3/4", "djq:A4:1/2", "djq:D4:1/2",
    ],
)
def test_dj_level_pairings_match_direct_root_pairings(spec):
    # the rows read off the blocks against (mu + rho, beta) from the invariant
    # form, with the longest level requested first and the trivial one last
    model = parse_model_spec(spec)
    rs = model.root_system
    roots = [rs._omega_coords(beta) for beta in rs.positive_roots]
    middle = list(range(1, 12))
    random.Random(spec).shuffle(middle)
    for k in [12, *middle, 0]:
        rows = list(model.level_pairings(k))
        expected = [
            tuple(rs.inner_product([c + 1 for c in mu], beta) for beta in roots)
            for mu in model.enumerate_level(k)
        ]
        assert list(rows) == expected
        assert all(type(m) is int for row in rows for m in row)


@pytest.mark.parametrize("spec", ["oplus:3:7/2", "aut:5:5"])
def test_graded_stream_work_is_linear(spec):
    model = parse_model_spec(spec)
    steps = 0
    step = model._step

    def counted():
        nonlocal steps
        steps += 1
        step()

    model._step = counted
    forward = [model.level_data(k) for k in range(601)]
    backward = [model.level_data(k) for k in range(600, -1, -1)]
    assert backward[::-1] == forward
    assert [model.irr_data(k) for k in range(600, -1, -1)] == [level[0] for level in backward]
    assert steps <= 600


@pytest.mark.parametrize("length", [float("inf"), float("nan")])
@pytest.mark.parametrize("spec", ["djq:B2:3/4", "oplus:3:7/2", "aut:4:5"])
def test_non_finite_length_rejected(spec, length):
    model = parse_model_spec(spec)
    with pytest.raises(ValueError, match="length must be a nonnegative integer"):
        model.level_data(length)
    with pytest.raises(ValueError, match="length must be a nonnegative integer"):
        model.enumerate_level(length)


@pytest.mark.parametrize("spec", ["djq:B2:3/4", "oplus:3:7/2", "aut:4:5"])
def test_level_data_cannot_be_corrupted_by_callers(spec):
    fresh = parse_model_spec(spec)
    model = parse_model_spec(spec)
    expected = fresh.level_data(4)
    level = model.level_data(4)
    with pytest.raises(TypeError):
        level[0] = level[-1]
    with pytest.raises(AttributeError):
        level.append(level[0])
    with pytest.raises(dataclasses.FrozenInstanceError):
        level[0].n = 0
    assert model.level_data(4) == expected
    assert model.irr_data(model.enumerate_level(4)[0]) == expected[0]


# -- spec strings --------------------------------------------------------------------


def test_parse_model_spec_roundtrip():
    model = parse_model_spec("djq:A1:1/2")
    assert isinstance(model, DrinfeldJimboModel)
    assert model.q == HALF
    assert model.spec_string() == "djq:A1:1/2"

    model = parse_model_spec("oplus:3:3.5")
    assert isinstance(model, FreeOrthogonalModel)
    assert model.Nq == Fraction(7, 2)

    model = parse_model_spec("aut:4:5")
    assert isinstance(model, QuantumAutomorphismModel)
    assert model.d1 == 5


def test_parse_model_spec_rejects_garbage():
    for bad in ("djq:A1", "oplus:3", "aut:x:y", "frob:1:2", "djq:A0:1/2", "oplus:3:1/0"):
        with pytest.raises(InvalidModelError):
            parse_model_spec(bad)


def test_construct_model_passthrough():
    model = FreeOrthogonalModel(3, 3)
    assert construct_model(model) is model
    assert isinstance(construct_model("aut:4:3"), QuantumAutomorphismModel)
