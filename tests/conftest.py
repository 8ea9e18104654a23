"""Shared oracles: independent reference implementations used across tests.

Everything here is deliberately written from first principles (Euclidean root
models, brute-force q-integers, ballot counting) so the package is checked
against routes it does not itself use.
"""

from __future__ import annotations

from fractions import Fraction

import pytest


def q_integer(n: int, q: Fraction) -> Fraction:
    """Brute-force q-integer: ``q^{n-1} + q^{n-3} + ... + q^{-(n-1)}``."""
    return sum((q ** (n - 1 - 2 * j) for j in range(n)), Fraction(0))


def euclidean_positive_roots(simple_roots: list[tuple[Fraction, ...]]) -> set:
    """Reflection-closure brute force over an explicit Euclidean root basis.

    Generates the full root system from the simple roots by closing under the
    reflections ``s_b(v) = v - 2 (v,b)/(b,b) b`` and returns the roots that
    are nonnegative combinations of the simple ones.
    """
    dim = len(simple_roots[0])

    def dot(a, b):
        return sum(x * y for x, y in zip(a, b))

    def reflect(v, b):
        coef = Fraction(2) * dot(v, b) / dot(b, b)
        return tuple(v[i] - coef * b[i] for i in range(dim))

    roots = set(tuple(r) for r in simple_roots) | {
        tuple(-c for c in r) for r in simple_roots
    }
    changed = True
    while changed:
        changed = False
        for v in list(roots):
            for b in list(roots):
                w = reflect(v, b)
                if w not in roots:
                    roots.add(w)
                    changed = True
    # positive = expressible with nonnegative coefficients over the simple roots
    positive = set()
    for v in roots:
        coeffs = _solve_nonneg(simple_roots, v)
        if coeffs is not None:
            positive.add(v)
    return positive


def euclidean_positive_root_coordinates(simple_roots: list[tuple[Fraction, ...]]) -> set:
    """The roots of :func:`euclidean_positive_roots` in simple-root coordinates."""
    return {
        tuple(int(c) for c in _solve_nonneg(simple_roots, v))
        for v in euclidean_positive_roots(simple_roots)
    }


def _solve_nonneg(basis, target):
    """Solve ``sum c_i b_i = target`` by Gaussian elimination; require c >= 0."""
    rows = len(target)
    cols = len(basis)
    aug = [[Fraction(basis[j][i]) for j in range(cols)] + [Fraction(target[i])] for i in range(rows)]
    pivots = []
    r = 0
    for c in range(cols):
        pivot = next((i for i in range(r, rows) if aug[i][c] != 0), None)
        if pivot is None:
            continue
        aug[r], aug[pivot] = aug[pivot], aug[r]
        inv = 1 / aug[r][c]
        aug[r] = [v * inv for v in aug[r]]
        for i in range(rows):
            if i != r and aug[i][c] != 0:
                f = aug[i][c]
                aug[i] = [a - f * b for a, b in zip(aug[i], aug[r])]
        pivots.append(c)
        r += 1
    for i in range(r, rows):
        if aug[i][cols] != 0:
            return None
    coeffs = [Fraction(0)] * cols
    for row_idx, c in enumerate(pivots):
        coeffs[c] = aug[row_idx][cols]
    if any(v < 0 for v in coeffs):
        return None
    return coeffs


def catalan(m: int) -> int:
    from math import comb

    return comb(2 * m, m) // (m + 1)


@pytest.fixture(scope="session")
def a2_euclidean_positive_count() -> int:
    simple = [
        (Fraction(1), Fraction(-1), Fraction(0)),
        (Fraction(0), Fraction(1), Fraction(-1)),
    ]
    return len(euclidean_positive_roots(simple))


@pytest.fixture(scope="session")
def g2_euclidean_positive_count() -> int:
    # standard G2 model inside the A2 hyperplane of R^3
    simple = [
        (Fraction(1), Fraction(-1), Fraction(0)),
        (Fraction(-2), Fraction(1), Fraction(1)),
    ]
    return len(euclidean_positive_roots(simple))
