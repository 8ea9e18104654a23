from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import catalan
from cqgkhint.chebyshev import chebyshev_f, chebyshev_g
from cqgkhint.fusion import tensor_decompose, tensor_with_generator, trivial_multiplicity


def test_generator_rules_verbatim():
    assert tensor_with_generator("su2", 3) == {2: 1, 4: 1}
    assert tensor_with_generator("so3", 1) == {0: 1, 1: 1, 2: 1}
    assert tensor_with_generator("su2", 0) == {1: 1}
    assert tensor_with_generator("so3", 0) == {1: 1}


def test_small_products():
    assert tensor_decompose("su2", 1, 1) == {0: 1, 2: 1}
    assert tensor_decompose("so3", 1, 1) == {0: 1, 1: 1, 2: 1}
    assert tensor_decompose("su2", 0, 7) == {7: 1}
    assert tensor_decompose("so3", 5, 0) == {5: 1}


def _su2_closed_form(k, l):
    return {j: 1 for j in range(abs(k - l), k + l + 1, 2)}


def _so3_closed_form(k, l):
    return {j: 1 for j in range(abs(k - l), k + l + 1)}


@pytest.mark.parametrize("rule,oracle", [("su2", _su2_closed_form), ("so3", _so3_closed_form)])
def test_closed_forms_verified_against_recursion(rule, oracle):
    pairs = [(k, l) for k in range(0, 41, 4) for l in range(0, 41, 5)]
    # deep enough that resolving l recursively would overflow the stack
    pairs += [(600, 600), (600, 37)]
    for k, l in pairs:
        assert tensor_decompose(rule, k, l) == oracle(k, l), (rule, k, l)


@settings(max_examples=60, deadline=None)
@given(
    rule=st.sampled_from(["su2", "so3"]),
    k=st.integers(0, 12),
    l=st.integers(0, 12),
    m=st.integers(0, 12),
)
def test_associativity(rule, k, l, m):
    left = {}
    for j, mult in tensor_decompose(rule, k, l).items():
        for i, mult2 in tensor_decompose(rule, j, m).items():
            left[i] = left.get(i, 0) + mult * mult2
    right = {}
    for j, mult in tensor_decompose(rule, l, m).items():
        for i, mult2 in tensor_decompose(rule, k, j).items():
            right[i] = right.get(i, 0) + mult * mult2
    assert left == right


@settings(max_examples=60, deadline=None)
@given(rule=st.sampled_from(["su2", "so3"]), k=st.integers(0, 20), l=st.integers(0, 20))
def test_commutativity(rule, k, l):
    assert tensor_decompose(rule, k, l) == tensor_decompose(rule, l, k)


def test_dimension_homomorphism_exact():
    # f_k(t) f_l(t) = sum mult_j f_j(t), and likewise for g, exactly
    su2_grid = [Fraction(2), Fraction(5, 2), Fraction(3), Fraction(7, 2), Fraction(23, 5)]
    so3_grid = [Fraction(4), Fraction(5), Fraction(9, 2), Fraction(13, 2)]
    for k in range(0, 41, 8):
        for l in range(0, 41, 7):
            parts_su2 = tensor_decompose("su2", k, l)
            for t in su2_grid:
                lhs = chebyshev_f(k, t) * chebyshev_f(l, t)
                rhs = sum(mult * chebyshev_f(j, t) for j, mult in parts_su2.items())
                assert lhs == rhs, ("su2", k, l, t)
            parts_so3 = tensor_decompose("so3", k, l)
            for x in so3_grid:
                lhs = chebyshev_g(k, x) * chebyshev_g(l, x)
                rhs = sum(mult * chebyshev_g(j, x) for j, mult in parts_so3.items())
                assert lhs == rhs, ("so3", k, l, x)


def test_trivial_multiplicity_catalan():
    # ballot-counting oracle: the trivial component of (1,)^(2m) counts
    # balanced walks, the m-th Catalan number
    for m in range(0, 9):
        assert trivial_multiplicity("su2", [1] * (2 * m)) == catalan(m)


def test_trivial_multiplicity_parity_obstruction():
    for m in range(0, 5):
        assert trivial_multiplicity("su2", [1] * (2 * m + 1)) == 0


def test_trivial_multiplicity_empty_product():
    assert trivial_multiplicity("su2", []) == 1
    assert trivial_multiplicity("so3", ()) == 1


def test_bad_inputs():
    with pytest.raises(ValueError):
        tensor_with_generator("so5", 1)
    with pytest.raises(ValueError):
        tensor_decompose("su2", -1, 2)
