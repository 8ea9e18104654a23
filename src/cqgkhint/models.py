"""The three model families and their graded irreducible data.

Every model exposes the same per-irreducible record (:class:`IrrData`):
classical dimension ``n``, quantum dimension ``d``, the sup norm of the
character, and the length of the label.  Parameters are normalised to exact
rationals on construction, so ``n`` and ``d`` are exact for every label.

Level data is a cached stream owned by the model: each length is computed
once, the graded families extending one running recursion by a step per new
length.  Callers receive immutable data (tuples of frozen records), so they
cannot corrupt the cache.  Drinfeld-Jimbo models also own the integer root
pairings ``(mu + rho, beta)`` of every label, as blocks of arithmetic
progressions (``level_blocks``) that the ``K_p`` sum of
:mod:`cqgkhint.khintchine` reads directly; the level data reads rows expanded
from them (``level_pairings``), and no rows are kept.  Only they load
:mod:`cqgkhint.rootsys`, when one is constructed.

Family conventions
------------------
* ``DrinfeldJimboModel(lie_type, rank, q)`` — labels are dominant weights;
  ``n`` is the Weyl dimension, ``d`` the quantum dimension, and the character
  sup norm equals ``n`` (coamenability of the deformation; recorded as an
  assumption, not derived here).
* ``FreeOrthogonalModel(N, Nq)`` — labels are nonnegative integers with
  ``n_k = f_k(N)`` and ``d_k = f_k(Nq)``; Kac exactly when ``Nq == N``.
* ``QuantumAutomorphismModel(dimB, d1)`` — labels are nonnegative integers
  with ``n_k = g_k(dimB)`` and ``d_k = g_k(d1 + 1)``.  The parameter ``d1``
  is the quantum dimension of the level-1 irreducible, so the level-1 data is
  ``(n_1, d_1) = (dimB - 1, d1)`` and the model is Kac exactly when
  ``d1 == dimB - 1``.  (The polynomial arguments are the points where
  ``g_1`` takes the level-1 dimensions: ``g_1(dimB) = dimB - 1`` and
  ``g_1(d1 + 1) = d1``.)
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from itertools import chain, repeat
from numbers import Rational, Real
from operator import add
from typing import TYPE_CHECKING, Iterator

from .exact import HorizonError, as_fraction
from .record import Record

if TYPE_CHECKING:
    from .rootsys import RootSystem

__all__ = [
    "InvalidModelError",
    "IrrData",
    "QuantumGroupModel",
    "DrinfeldJimboModel",
    "FreeOrthogonalModel",
    "QuantumAutomorphismModel",
    "parse_model_spec",
    "construct_model",
]


class InvalidModelError(ValueError):
    def __init__(self, message: str, code: str = "bad-model"):
        super().__init__(message)
        self.code = code


class IrrData(Record):
    """Data of one irreducible: dimensions, character sup norm, length."""

    label: object
    n: int
    d: Fraction
    chi_sup: int
    length: int


class QuantumGroupModel:
    """Common surface of the three families; its observable data is immutable."""

    family: str

    def is_kac(self) -> bool:
        raise NotImplementedError

    def irr_data(self, label) -> IrrData:
        raise NotImplementedError

    def enumerate_level(self, k: int) -> list:
        """All labels of length ``k``, in a fixed deterministic order."""
        raise NotImplementedError

    def trivial_label(self):
        raise NotImplementedError

    def spec_string(self) -> str:
        raise NotImplementedError

    def level_data(self, k: int) -> tuple[IrrData, ...]:
        return tuple(map(self.irr_data, self.enumerate_level(k)))

    def __repr__(self):
        return f"{type(self).__name__}({self.spec_string()!r})"


def _check_length(k: int) -> int:
    if not isinstance(k, Real) or k % 1 or k < 0:  # an infinity or NaN leaves k % 1 as NaN
        raise ValueError(f"length must be a nonnegative integer, got {k}")
    return int(k)


def _check_horizon(horizon: int) -> int:
    """A horizon of ``verify`` or ``decay``: a length of at least 1."""
    if isinstance(horizon, Real) and horizon < 1:
        raise HorizonError("horizon must be >= 1")
    return _check_length(horizon)


class DrinfeldJimboModel(QuantumGroupModel):
    """Drinfeld-Jimbo deformation ``G_q`` of a simple compact Lie group.

    The model owns the one source of root pairings: ``rho_pairing`` holds
    ``h_beta = (rho, beta)``, and :meth:`level_blocks` gives
    ``m_beta = (mu + rho, beta)`` over a level as arithmetic progressions with
    steps ``block_steps``.  :meth:`level_data` forms the Weyl and q-Weyl
    products from the rows of :meth:`level_pairings`.
    """

    family = "drinfeld-jimbo"

    def __init__(self, lie_type: str, rank: int, q):
        from .rootsys import InvalidRootSystemError, build_root_system

        try:
            self.root_system: RootSystem = build_root_system(lie_type, rank)
        except InvalidRootSystemError as exc:
            raise InvalidModelError(str(exc), code=exc.code) from exc
        q = as_fraction(q)
        if not (0 < q < 1):
            raise InvalidModelError(
                f"deformation parameter must satisfy 0 < q < 1, got {q}",
                code="q-out-of-range",
            )
        self.lie_type = self.root_system.lie_type
        self.rank = self.root_system.rank
        self.q = q
        rs = self.root_system
        # h_b = (rho, b) per positive root, and column i of the pairing matrix: (omega_i, b)
        self.rho_pairing: tuple[int, ...] = tuple(
            rs.root_pairing(rs.rho, i) for i in range(len(rs.positive_roots))
        )
        self._columns = tuple(zip(*rs.root_weight_pairing))
        # step of m_b along a block: (omega_r, b) - (omega_{r-1}, b), with omega_0 = 0
        self.block_steps = tuple(w[-1] - (0, *w)[-2] for w in rs.root_weight_pairing)
        self._rho_prod = math.prod(self.rho_pairing)
        self._rho_sum = sum(self.rho_pairing)
        self._q_factors: list[int] = []
        self._q_denom = math.prod(map(self._q_factor, self.rho_pairing))
        self._levels: dict[int, tuple[IrrData, ...]] = {}

    def is_kac(self) -> bool:
        # a genuine deformation (0 < q < 1) is never of Kac type
        return False

    def _q_factor(self, m: int) -> int:
        """``a^2m - b^2m`` for ``q = a/b``: ``q^m - q^-m`` times ``(ab)^m``, tabulated."""
        table = self._q_factors
        if m >= len(table):
            a, b = self.q.numerator, self.q.denominator
            table.extend(a ** (2 * j) - b ** (2 * j) for j in range(len(table), m + 1))
        return table[m]

    def level_blocks(self, k: int) -> Iterator[tuple[int, tuple[int, ...]]]:
        """The labels of length ``k`` as blocks ``(count, starts)``, in the order of
        :meth:`enumerate_level`.

        A block fixes ``(mu_1, ..., mu_{r-2})`` and runs over the ``count`` labels
        ``(..., t - i, i)``, ``i = 0..t``; on it ``m_b = (mu + rho, b)`` is
        ``starts[b] + i * block_steps[b]``.  Rank 1 has one one-label block.
        """
        k = _check_length(k)
        if self.rank == 1:
            (column,) = self._columns
            return iter([(1, tuple(map(add, self.rho_pairing, map(k.__mul__, column))))])
        return self._blocks(0, k, self.rho_pairing)

    def _blocks(self, j: int, t: int, acc: tuple[int, ...]):
        """Blocks below ``acc = rho_pairing + sum_{i < j} mu_i column_i`` with ``t`` left."""
        column = self._columns[j]
        if j == self.rank - 2:
            yield t + 1, tuple(map(add, acc, map(t.__mul__, column)))
            return
        for c in range(t, -1, -1):
            yield from self._blocks(j + 1, t - c, tuple(map(add, acc, map(c.__mul__, column))))

    def level_pairings(self, k: int) -> Iterator[tuple[int, ...]]:
        """``m_b = (mu + rho, b)`` over the positive roots ``b``, one row per label of
        :meth:`enumerate_level`, in the same order; expanded from
        :meth:`level_blocks` as they are read, and not kept."""
        steps = self.block_steps
        return chain.from_iterable(
            zip(*(range(m, m + n * s, s) if s else repeat(m, n) for m, s in zip(starts, steps)))
            for n, starts in self.level_blocks(k)
        )

    def _irr(self, mu: tuple[int, ...], ms: tuple[int, ...]) -> IrrData:
        """Weyl and q-Weyl products over ``m_b = (mu + rho, b)``, ``h_b = (rho, b)``;
        ``d`` is put over the shared denominator ``(ab)^(sum m_b - sum h_b)`` and reduced once.
        """
        n, rem = divmod(math.prod(ms), self._rho_prod)
        if rem:
            raise ArithmeticError(f"Weyl dimension of {mu} is not an integer")
        ab = self.q.numerator * self.q.denominator
        d = Fraction(
            math.prod(map(self._q_factor, ms)),
            self._q_denom * ab ** (sum(ms) - self._rho_sum),
        )
        return IrrData(mu, n, d, n, sum(mu))  # label, n, d, chi_sup, length

    def irr_data(self, label) -> IrrData:
        mu = self.root_system._check_dominant(label)
        k = sum(mu)
        return self.level_data(k)[self.enumerate_level(k).index(mu)]

    def level_data(self, k: int) -> tuple[IrrData, ...]:
        level = self._levels.get(k)
        if level is None:
            level = self._levels[k] = tuple(
                map(self._irr, self.enumerate_level(k), self.level_pairings(k))
            )
        return level

    def enumerate_level(self, k: int) -> list[tuple[int, ...]]:
        k = _check_length(k)
        return list(_compositions_desc(k, self.rank))

    def trivial_label(self):
        return (0,) * self.rank

    def spec_string(self) -> str:
        return f"djq:{self.lie_type}{self.rank}:{self.q}"


def _compositions_desc(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    """Compositions of ``total`` into ``parts`` slots, descending lex order."""
    if parts == 1:
        yield (total,)
        return
    for first in range(total, -1, -1):
        for rest in _compositions_desc(total - first, parts - 1):
            yield (first,) + rest


class _Coprime:
    """A numerator and denominator already in lowest terms, as a ``numbers.Rational``.

    ``Fraction(x)`` of a ``Rational`` takes its numerator and denominator as
    they are, so a :class:`~fractions.Fraction` is made from it without the
    gcd that ``Fraction(n, d)`` takes.
    """

    __slots__ = ("numerator", "denominator")

    def __init__(self, numerator: int, denominator: int):
        self.numerator = numerator
        self.denominator = denominator


Rational.register(_Coprime)


class _GradedModel(QuantumGroupModel):
    """One label per length, with ``n`` and ``d`` obeying ``x_{k+1} = c x_k - x_{k-1}``.

    The records form one stream that is extended by one recursion step per
    new length and never rerun, so any sequence of requests up to length
    ``K`` costs ``K - 1`` steps in total.  ``chi_sup = chi_slope * k + 1``.
    The steps run in integers: with ``c_d = a/b`` in lowest terms,
    ``d_k = D_k / b^k`` where ``D_{k+1} = a D_k - b^2 D_{k-1}``, and each
    record's ``d`` is ``D_k / b^k`` as it stands, with no gcd: it is in
    lowest terms, as ``D_0 = 1`` and ``D_1 = d1.numerator`` is ``a`` modulo
    ``b`` (``d1 - c_d`` is an integer), so ``D_k = a^k`` modulo ``b`` for
    every ``k``, which is prime to ``b``.

    ``chi_slope`` is also the index stride: level ``k`` is ``(f_j(t_n),
    f_j(t_d))`` with ``j = chi_slope * k``, Chebyshev polynomials at the two
    traces (see :mod:`cqgkhint.chebyshev`), and ``chi_sup = f_j(2)``.
    ``traces(iv)`` gives both traces as interval pairs ``(t, t^2)`` in the
    :class:`~cqgkhint._libmp.Intervals` ``iv``, a trace known through its
    square not squared back.
    """

    chi_slope: int

    def _start_stream(self, c_n: int, c_d: Fraction, n1: int, d1: Fraction):
        """``d1 - c_d`` is an integer, so ``d1`` has ``c_d``'s denominator ``b``."""
        a, b = c_d.numerator, c_d.denominator
        self._coefficients = (c_n, a, b, b * b)
        # (n_k, D_k) at the last two lengths, and b^k at the last
        self._last_two = (1, 1), (n1, d1.numerator)
        self._power = b
        self._stream = [self._record(0, 1, Fraction(1)), self._record(1, n1, d1)]

    def _record(self, k: int, n: int, d: Fraction) -> IrrData:
        return IrrData(k, n, d, self.chi_slope * k + 1, k)  # label, n, d, chi_sup, length

    def _step(self):
        (n_prev, d_prev), (n_cur, d_cur) = self._last_two
        c_n, a, b, b2 = self._coefficients
        n, d = c_n * n_cur - n_prev, a * d_cur - b2 * d_prev
        self._last_two = (n_cur, d_cur), (n, d)
        self._power *= b
        d = Fraction(_Coprime(d, self._power))
        self._stream.append(self._record(len(self._stream), n, d))

    def irr_data(self, label) -> IrrData:
        k = _check_length(label)
        while len(self._stream) <= k:
            self._step()
        return self._stream[k]

    def enumerate_level(self, k: int) -> list[int]:
        return [_check_length(k)]

    def trivial_label(self):
        return 0


class FreeOrthogonalModel(_GradedModel):
    family = "free-orthogonal"
    chi_slope = 1

    def __init__(self, N: int, Nq):
        if int(N) != N or N < 2:
            raise InvalidModelError(
                f"N must be an integer >= 2, got {N}", code="bad-n"
            )
        Nq = as_fraction(Nq)
        if Nq < N:
            raise InvalidModelError(
                f"Nq >= N is required (Nq = N is the Kac case); got Nq={Nq} < N={N}",
                code="nq-below-n",
            )
        self.N = int(N)
        self.Nq = Nq
        # f_{k+1}(t) = t f_k(t) - f_{k-1}(t), f_1(t) = t
        self._start_stream(self.N, Nq, self.N, Nq)

    def is_kac(self) -> bool:
        return self.Nq == self.N

    def traces(self, iv) -> tuple:
        """``(t, t^2)`` at the traces ``N`` and ``Nq``."""
        t_n, t_d = iv.integer(self.N), iv.rational(self.Nq)
        return (t_n, iv.mul(t_n, t_n)), (t_d, iv.mul(t_d, t_d))

    def spec_string(self) -> str:
        return f"oplus:{self.N}:{self.Nq}"


class QuantumAutomorphismModel(_GradedModel):
    family = "quantum-automorphism"
    chi_slope = 2

    def __init__(self, dimB: int, d1):
        if int(dimB) != dimB or dimB < 4:
            raise InvalidModelError(
                f"dimB must be an integer >= 4, got {dimB}", code="bad-dimb"
            )
        d1 = as_fraction(d1)
        self.dimB = int(dimB)
        self.n1 = self.dimB - 1
        if d1 < self.n1:
            raise InvalidModelError(
                f"d1 >= dimB - 1 is required (d1 = dimB - 1 is the Kac case); "
                f"got d1={d1} < {self.n1}",
                code="d1-below-minimum",
            )
        self.d1 = d1
        # g_{k+1}(x) = (x - 2) g_k(x) - g_{k-1}(x), g_1(x) = x - 1, at x = dimB and d1 + 1
        self._start_stream(self.dimB - 2, d1 - 1, self.n1, d1)

    def is_kac(self) -> bool:
        return self.d1 == self.n1

    def traces(self, iv) -> tuple:
        """``(t, t^2)`` at the traces ``sqrt(dimB)`` and ``sqrt(d1 + 1)``, from ``t^2``."""
        x_n, x_d = iv.integer(self.dimB), iv.rational(self.d1 + 1)
        return (iv.sqrt(x_n), x_n), (iv.sqrt(x_d), x_d)

    def spec_string(self) -> str:
        return f"aut:{self.dimB}:{self.d1}"


_DJQ_RE = re.compile(r"^djq:([A-Ga-g])(\d+):(.+)$")
_OPLUS_RE = re.compile(r"^oplus:(\d+):(.+)$")
_AUT_RE = re.compile(r"^aut:(\d+):(.+)$")


def _parse_number(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise InvalidModelError(
            f"cannot parse {text!r} as a decimal or num/den rational",
            code="bad-model-spec",
        ) from exc


def parse_model_spec(spec: str) -> QuantumGroupModel:
    """Parse ``djq:<type><rank>:<q>``, ``oplus:<N>:<Nq>`` or ``aut:<dimB>:<d1>``.

    Numeric fields accept decimal literals or ``num/den`` rationals.
    """
    spec = spec.strip()
    m = _DJQ_RE.match(spec)
    if m:
        return DrinfeldJimboModel(m.group(1).upper(), int(m.group(2)), _parse_number(m.group(3)))
    m = _OPLUS_RE.match(spec)
    if m:
        return FreeOrthogonalModel(int(m.group(1)), _parse_number(m.group(2)))
    m = _AUT_RE.match(spec)
    if m:
        return QuantumAutomorphismModel(int(m.group(1)), _parse_number(m.group(2)))
    raise InvalidModelError(
        f"malformed model spec {spec!r}; expected djq:<type><rank>:<q>, "
        "oplus:<N>:<Nq> or aut:<dimB>:<d1>",
        code="bad-model-spec",
    )


def construct_model(spec) -> QuantumGroupModel:
    """Build a model from a spec string, or pass a model through unchanged."""
    if isinstance(spec, QuantumGroupModel):
        return spec
    if isinstance(spec, str):
        return parse_model_spec(spec)
    raise InvalidModelError(f"cannot construct a model from {spec!r}")
