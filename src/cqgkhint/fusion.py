"""Fusion rings of the two nonnegative-integer-graded families.

Labels are nonnegative integers.  The generator rules are

* ``su2``:  ``k (x) 1 = (k-1) (+) (k+1)``  (free orthogonal side), and
* ``so3``:  ``k (x) 1 = (k-1) (+) (k) (+) (k+1)``  (quantum automorphism side),

with ``0 (x) 1 = 1`` in both.  General products are *derived* from the
generator rule alone, by applying ``l = (l-1)(x)1 - (l-2) [- (l-1)]``
upward from ``l = 0``; the textbook closed forms (Clebsch-Gordan ladders) are
used only as independent oracles in the tests.  Multiplicities are exact
integers.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, Mapping

__all__ = [
    "RULES",
    "tensor_with_generator",
    "tensor_decompose",
    "trivial_multiplicity",
]

RULES = ("su2", "so3")


def _check_rule(rule: str) -> str:
    if rule not in RULES:
        raise ValueError(f"unknown fusion rule {rule!r}, expected one of {RULES}")
    return rule


def _check_label(k: int) -> int:
    if int(k) != k or k < 0:
        raise ValueError(f"fusion labels are nonnegative integers, got {k}")
    return int(k)


def tensor_with_generator(rule: str, k: int) -> dict[int, int]:
    """Decomposition of ``k (x) 1`` as a multiset ``{label: multiplicity}``."""
    _check_rule(rule)
    k = _check_label(k)
    if k == 0:
        return {1: 1}
    if rule == "su2":
        return {k - 1: 1, k + 1: 1}
    return {k - 1: 1, k: 1, k + 1: 1}


def _mul_into(acc: dict[int, int], parts: Mapping[int, int], factor: int) -> None:
    for label, mult in parts.items():
        acc[label] = acc.get(label, 0) + factor * mult


@lru_cache(maxsize=None)
def _decompose(rule: str, k: int, l: int) -> tuple[tuple[int, int], ...]:
    if l > k:
        k, l = l, k
    # k (x) j for j = step - 1 and step - 2, built upward from k (x) 0 = k
    prev: dict[int, int] = {}
    cur = {k: 1}
    for step in range(1, l + 1):
        acc: dict[int, int] = {}
        for label, mult in cur.items():
            _mul_into(acc, tensor_with_generator(rule, label), mult)
        if step >= 2:
            _mul_into(acc, prev, -1)
            if rule == "so3":
                _mul_into(acc, cur, -1)
        cleaned = {label: mult for label, mult in acc.items() if mult != 0}
        if any(m < 0 for m in cleaned.values()):
            raise ArithmeticError(f"fusion multiplicities of {k} (x) {step} went negative")
        prev, cur = cur, cleaned
    return tuple(sorted(cur.items()))


def tensor_decompose(rule: str, k: int, l: int) -> dict[int, int]:
    """Full decomposition of ``k (x) l`` derived from the generator rule."""
    _check_rule(rule)
    return dict(_decompose(rule, _check_label(k), _check_label(l)))


def trivial_multiplicity(rule: str, labels: Iterable[int]) -> int:
    """Multiplicity of the trivial label 0 in an iterated tensor product."""
    _check_rule(rule)
    current: dict[int, int] = {0: 1}
    for raw in labels:
        nxt: dict[int, int] = {}
        k = _check_label(raw)
        for label, mult in current.items():
            _mul_into(nxt, tensor_decompose(rule, label, k), mult)
        current = nxt
    return current.get(0, 0)
