"""Root systems, weight multiplicities and modular-matrix spectra.

Everything here is exact: weights live in the fundamental-weight basis as
integer tuples, the invariant bilinear form is normalised so that *short roots
have squared length 2*, and all quantities attached to a rational deformation
parameter ``q`` come out as exact :class:`fractions.Fraction` values.

The normalisation matters: the exponents ``(omega_i, 2 rho)`` driving the
modular-matrix eigenvalues scale with the form.  The short-root convention is
recorded in every report emitted by the CLI.

:class:`RootSystem` finds the positive roots by reflecting the simple roots
upward, and stores each root's weight coordinates and its pairings with
``rho`` and the fundamental weights, which the Weyl products read.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from operator import neg, sub
from typing import Sequence

from .exact import as_fraction, rational_inverse
from .record import Record

__all__ = [
    "InvalidRootSystemError",
    "NonDominantWeightError",
    "DomainError",
    "QSpectrum",
    "RootSystem",
    "build_root_system",
    "POSITIVE_ROOT_COUNTS",
]

Weight = tuple[int, ...]

VALID_RANKS = {
    "A": lambda r: r >= 1,
    "B": lambda r: r >= 2,
    "C": lambda r: r >= 3,
    "D": lambda r: r >= 4,
    "E": lambda r: r in (6, 7, 8),
    "F": lambda r: r == 4,
    "G": lambda r: r == 2,
}

POSITIVE_ROOT_COUNTS = {
    "A": lambda r: r * (r + 1) // 2,
    "B": lambda r: r * r,
    "C": lambda r: r * r,
    "D": lambda r: r * (r - 1),
    "E": lambda r: {6: 36, 7: 63, 8: 120}[r],
    "F": lambda r: 24,
    "G": lambda r: 6,
}


class InvalidRootSystemError(ValueError):
    code = "bad-type-rank"


class NonDominantWeightError(ValueError):
    code = "non-dominant-weight"


class DomainError(ValueError):
    code = "q-out-of-range"


def _cartan_matrix(lie_type: str, rank: int) -> list[list[int]]:
    """Cartan matrix with the convention ``A[i][j] = 2(a_i, a_j)/(a_j, a_j)``."""
    A = [[2 if i == j else 0 for j in range(rank)] for i in range(rank)]

    def chain(i, j):
        A[i][j] = -1
        A[j][i] = -1

    if lie_type == "A":
        for i in range(rank - 1):
            chain(i, i + 1)
    elif lie_type == "B":
        # last simple root is the short one
        for i in range(rank - 2):
            chain(i, i + 1)
        A[rank - 2][rank - 1] = -2
        A[rank - 1][rank - 2] = -1
    elif lie_type == "C":
        # last simple root is the long one
        for i in range(rank - 2):
            chain(i, i + 1)
        A[rank - 2][rank - 1] = -1
        A[rank - 1][rank - 2] = -2
    elif lie_type == "D":
        for i in range(rank - 2):
            chain(i, i + 1)
        chain(rank - 3, rank - 1)
    elif lie_type == "E":
        for i in range(rank - 2):
            chain(i, i + 1)
        chain(2, rank - 1)
    elif lie_type == "F":
        chain(0, 1)
        chain(2, 3)
        A[1][2] = -2
        A[2][1] = -1
    elif lie_type == "G":
        A[0][1] = -3
        A[1][0] = -1
    return A


def _symmetrizers(A: Sequence[Sequence[int]]) -> tuple[Fraction, ...]:
    """Solve ``d_j A[i][j] = d_i A[j][i]`` over the Dynkin graph, short roots -> 1."""
    rank = len(A)
    d: list[Fraction | None] = [None] * rank
    d[0] = Fraction(1)
    stack = [0]
    while stack:
        i = stack.pop()
        for j in range(rank):
            if i != j and A[i][j] != 0 and d[j] is None:
                # symmetry of (a_i, a_j) = d_j A[i][j] forces d_j A[i][j] = d_i A[j][i]
                d[j] = d[i] * A[j][i] / A[i][j]
                stack.append(j)
    if any(v is None for v in d):
        raise InvalidRootSystemError("disconnected Dynkin diagram")
    lo = min(d)
    return tuple(v / lo for v in d)


class QSpectrum(Record):
    """Eigenvalues with multiplicities of a modular matrix, largest first.

    Satisfies the normalisation ``Tr(Q) = Tr(Q^{-1})`` whenever it comes from
    an actual modular matrix; :meth:`is_trace_symmetric` checks it exactly.
    """

    entries: tuple[tuple[object, int], ...]

    def __post_init__(self):
        if not self.entries:
            raise ValueError("a spectrum needs at least one eigenvalue")
        for value, mult in self.entries:
            if mult <= 0:
                raise ValueError("multiplicities must be positive")

    @property
    def n(self) -> int:
        """Total size (classical dimension)."""
        return sum(m for _, m in self.entries)

    def trace(self):
        return _weighted_sum(self.entries, invert=False)

    def inv_trace(self):
        return _weighted_sum(self.entries, invert=True)

    def is_trace_symmetric(self) -> bool:
        return self.trace() == self.inv_trace()

    def diagonal(self) -> tuple:
        """Fixed-order diagonal of Q: each eigenvalue repeated by multiplicity."""
        out = []
        for v, m in self.entries:
            out.extend([v] * m)
        return tuple(out)

    def max_eigenvalue(self):
        return self.entries[0][0]


def _weighted_sum(entries, invert: bool):
    """``sum m v`` (``sum m / v`` when ``invert``) over ``(v, m)`` pairs.

    Rational values are summed as integers over one common denominator and
    reduced once, instead of once per term; other values (radicals) add up
    one by one.
    """
    if all(isinstance(v, Fraction) for v, _ in entries):
        terms = [
            (m, v.denominator, v.numerator) if invert else (m, v.numerator, v.denominator)
            for v, m in entries
        ]
        den = math.lcm(*(d for _, _, d in terms))
        return Fraction(sum(m * n * (den // d) for m, n, d in terms), den)
    terms = (m / v if invert else v * m for v, m in entries)
    return sum(terms, start=Fraction(0) * entries[0][0])


def _times_sine(coeffs: list[int], m: int) -> list[int]:
    """``coeffs`` times ``x^m - x^-m``, both as coefficients of ``x^-t .. x^t``."""
    pad = [0] * (2 * m)
    return list(map(sub, pad + coeffs, coeffs + pad))


def _divide_by_sine(coeffs: list[int], h: int) -> list[int]:
    """The exact quotient of ``coeffs`` by ``x^h - x^-h``.

    A quotient ``c`` of ``p`` has ``p[j] = c[j - 2h] - c[j]``, so ``c`` is, on
    each residue class of the index mod ``2h``, the running sum of ``-p``; the
    division is exact when the running sums vanish past the quotient's length.
    """
    step = 2 * h
    out = [0] * len(coeffs)
    for r in range(min(step, len(coeffs))):
        out[r::step] = accumulate(map(neg, coeffs[r::step]))
    if any(out[len(coeffs) - step :]):
        raise ArithmeticError(f"x^{h} - x^-{h} does not divide the Weyl numerator")
    return out[: len(coeffs) - step]


class RootSystem:
    """Root and weight data of a simple Lie type, all rational and exact.

    Construct through :func:`build_root_system`, which validates the
    (type, rank) pair and caches instances.  All methods are pure and keep no
    per-weight state, so concurrent use is safe.
    """

    def __init__(self, lie_type: str, rank: int):
        if lie_type not in VALID_RANKS or not VALID_RANKS[lie_type](rank):
            raise InvalidRootSystemError(
                f"({lie_type}, {rank}) is not a valid simple type: expected "
                "A_r (r>=1), B_r (r>=2), C_r (r>=3), D_r (r>=4), E_6..E_8, F_4, G_2"
            )
        self.lie_type = lie_type
        self.rank = rank
        self.cartan = tuple(tuple(row) for row in _cartan_matrix(lie_type, rank))
        self.d = _symmetrizers(self.cartan)
        if any(v.denominator != 1 for v in self.d):
            raise InvalidRootSystemError("non-integral symmetrizers")
        self.d = tuple(int(v) for v in self.d)

        # positive roots, in simple-root coordinates and in weight coordinates
        self._generate_positive_roots()

        # Gram matrix of the fundamental weights: G = D * (A^T)^{-1}
        at_inv = rational_inverse(
            [[Fraction(self.cartan[j][i]) for j in range(rank)] for i in range(rank)]
        )
        self.fundamental_weight_gram = tuple(
            tuple(Fraction(self.d[i]) * at_inv[i][j] for j in range(rank))
            for i in range(rank)
        )
        self.rho: Weight = (1,) * rank

    # -- root generation -------------------------------------------------

    def _omega_coords(self, root: Sequence[int]) -> Weight:
        return tuple(
            sum(root[i] * self.cartan[i][j] for i in range(self.rank))
            for j in range(self.rank)
        )

    def _generate_positive_roots(self):
        """Positive roots by closing the simple roots upward under simple reflections.

        A root ``beta`` has weight coordinates ``w_j = <beta, alpha_j^v>``.  Where
        ``c = w_i < 0``, ``s_i beta = beta - c alpha_i`` is a positive root of
        larger height, with weight coordinates ``w - c A[i]``.
        Every positive root ``beta`` above height 1 is such an image: as
        ``(beta, beta) > 0`` and ``beta >= 0``, some ``<beta, alpha_i^v> > 0``,
        and ``s_i`` permutes the positive roots other than ``alpha_i``
        (Humphreys, *Introduction to Lie Algebras and Representation Theory*,
        §10.2, Lemmas A and B), so ``gamma = s_i beta`` is a positive root of
        lower height with ``<gamma, alpha_i^v> < 0``.  By induction on the
        height the closure finds every positive root; it needs no connected
        diagram.
        """
        rank = self.rank
        simple = (tuple(int(i == j) for j in range(rank)) for i in range(rank))
        queue = list(zip(simple, self.cartan))
        weights = dict(queue)
        for beta, w in queue:  # the loop also reaches the roots appended to the queue
            for i, c in enumerate(w):
                if c < 0:
                    up = tuple(b - c * (j == i) for j, b in enumerate(beta))
                    if up not in weights:
                        weights[up] = tuple(a - c * b for a, b in zip(w, self.cartan[i]))
                        queue.append((up, weights[up]))
        ordered = sorted(weights, key=lambda r: (sum(r), r))
        self.positive_roots: tuple[tuple[int, ...], ...] = tuple(ordered)
        self.positive_root_weights: tuple[Weight, ...] = tuple(map(weights.get, ordered))
        # pairing vectors: (v, beta) = sum_i v_i * w_beta[i] for v in weight coords
        self.root_weight_pairing = tuple(
            tuple(root[i] * self.d[i] for i in range(rank)) for root in ordered
        )
        expected = POSITIVE_ROOT_COUNTS[self.lie_type](self.rank)
        if len(ordered) != expected:
            raise InvalidRootSystemError(
                f"generated {len(ordered)} positive roots, expected {expected}"
            )
        # (rho, beta) = the row sums, (omega_i, 2 rho) = the column sums
        self.rho_pairing = tuple(map(sum, self.root_weight_pairing))
        self.two_rho_pairing = tuple(map(sum, zip(*self.root_weight_pairing)))

    # -- bilinear form ----------------------------------------------------

    def inner_product(self, v: Sequence, w: Sequence) -> Fraction:
        """Invariant form on the weight space, short roots of squared length 2."""
        if len(v) != self.rank or len(w) != self.rank:
            raise ValueError(f"expected vectors of length {self.rank}")
        G = self.fundamental_weight_gram
        total = Fraction(0)
        for i in range(self.rank):
            vi = as_fraction(v[i])
            if vi == 0:
                continue
            total += vi * sum(G[i][j] * as_fraction(w[j]) for j in range(self.rank))
        return total

    def root_pairing(self, v: Sequence[int], root_index: int) -> int:
        """``(v, beta)`` for a positive root, exact integer for integral v."""
        w = self.root_weight_pairing[root_index]
        return sum(int(v[i]) * w[i] for i in range(self.rank))

    # -- dominance and Weyl action ----------------------------------------

    def is_dominant(self, mu: Sequence[int]) -> bool:
        try:
            self._check_dominant(mu)
        except NonDominantWeightError:
            return False
        return True

    def _check_dominant(self, mu: Sequence[int]) -> Weight:
        """``mu`` as a tuple of ints; a non-integral entry is refused, not truncated."""
        mu = tuple(mu)
        try:
            weight = tuple(int(c) for c in mu)
        except (TypeError, ValueError, OverflowError):
            weight = None
        if weight != mu or len(mu) != self.rank or min(mu) < 0:
            raise NonDominantWeightError(f"{mu} is not a dominant weight")
        return weight

    def reflect(self, weight: Sequence[int], i: int) -> Weight:
        """Simple reflection ``s_i`` in weight coordinates."""
        c = weight[i]
        return tuple(weight[j] - c * self.cartan[i][j] for j in range(self.rank))

    def dominant_conjugate(self, weight: Sequence[int]) -> Weight:
        w = tuple(int(x) for x in weight)
        while True:
            for i in range(self.rank):
                if w[i] < 0:
                    w = self.reflect(w, i)
                    break
            else:
                return w

    # -- dimensions and weight systems --------------------------------------

    def _shifted_pairing(self, mu: Sequence[int]) -> list[int]:
        """``(mu + rho, beta)`` for each positive root ``beta``, ``mu`` dominant."""
        shifted = tuple(c + 1 for c in self._check_dominant(mu))
        return [self.root_pairing(shifted, idx) for idx in range(len(self.positive_roots))]

    def weyl_dimension(self, mu: Sequence[int]) -> int:
        """Classical dimension ``prod (mu+rho, beta) / (rho, beta)``."""
        dim, rem = divmod(math.prod(self._shifted_pairing(mu)), math.prod(self.rho_pairing))
        if rem:
            raise ArithmeticError(f"Weyl dimension of {tuple(mu)} is not an integer")
        return dim

    def weight_system(self, mu: Sequence[int]) -> dict[Weight, int]:
        """Full weight multiplicity map of the irreducible module ``mu``.

        Only the dominant weights are computed; the rest follow by Weyl
        symmetry.  Three steps:

        1. The dominant weights of ``V_mu`` are the dominant ``nu`` with
           ``mu - nu`` in the positive root cone ``Q+`` (Humphreys,
           *Introduction to Lie Algebras and Representation Theory*, §13.4
           Lemma B and §21.3), and two comparable dominant weights are joined
           by a chain of dominant weights whose steps are positive roots
           (Stembridge, *The partial order of dominant weights*, Adv. Math.
           136, 1998, §2).  So closing ``{mu}`` under ``nu -> nu - beta``,
           ``beta > 0``, keeping the dominant results, finds all of them,
           each with the simple-root coordinates ``c`` of ``mu - nu``.
        2. Freudenthal's formula on the dominant weights in order of the
           height ``sum c_i`` (Moody & Patera, *Fast recursion formula for
           weight multiplicities*, Bull. AMS 6, 1982): ``m(nu + k beta)`` is
           the multiplicity of its dominant conjugate, which lies strictly
           above ``nu`` and so is already known, and a string stops at its
           first 0 since strings have no gaps.  The denominator
           ``(mu + nu + 2 rho, mu - nu) = sum_i c_i d_i (mu_i + nu_i + 2)``
           is an integer.
        3. Each dominant ``lambda`` gives its multiplicity to its Weyl orbit,
           walked down from ``lambda`` by ``s_i`` wherever ``w_i > 0``.
        """
        mu = self._check_dominant(mu)

        # 1. dominant weights, each with the simple-root coordinates of mu - nu
        roots = list(zip(self.positive_roots, self.positive_root_weights))
        coords = {mu: (0,) * self.rank}
        frontier = [mu]
        while frontier:
            below = []
            for nu in frontier:
                for root, beta in roots:
                    lam = tuple(a - b for a, b in zip(nu, beta))
                    if min(lam) >= 0 and lam not in coords:
                        coords[lam] = tuple(a + b for a, b in zip(coords[nu], root))
                        below.append(lam)
            frontier = below

        # 2. Freudenthal by height; mu is the only weight of height 0
        mults: dict[Weight, int] = {mu: 1}
        for nu in sorted(coords, key=lambda nu: sum(coords[nu]))[1:]:
            acc = 0
            for idx, (_, beta) in enumerate(roots):
                lam = tuple(a + b for a, b in zip(nu, beta))
                while m := mults.get(self.dominant_conjugate(lam), 0):
                    acc += m * self.root_pairing(lam, idx)
                    lam = tuple(a + b for a, b in zip(lam, beta))
            denom = sum(
                c * d * (a + b + 2) for c, d, a, b in zip(coords[nu], self.d, mu, nu)
            )
            value, rem = divmod(2 * acc, denom)
            if rem or value <= 0:
                message = f"Freudenthal gave the multiplicity {Fraction(2 * acc, denom)} at {nu}"
                raise ArithmeticError(message)
            mults[nu] = value

        # 3. orbits; s_i w = w - w_i alpha_i changes w_i and the entries linked to node i
        links = [[(j, -a) for j, a in enumerate(row) if a < 0] for row in self.cartan]
        system: dict[Weight, int] = {}
        for lam, m in mults.items():
            system[lam] = m
            orbit = [lam]
            while orbit:
                w = orbit.pop()
                for i, wi in enumerate(w):
                    if wi > 0:
                        v = list(w)
                        v[i] = -wi
                        for j, a in links[i]:
                            v[j] += a * wi
                        v = tuple(v)
                        if v not in system:
                            system[v] = m
                            orbit.append(v)
        return system

    # -- modular matrix data -------------------------------------------------

    @staticmethod
    def _check_q(q) -> Fraction:
        q = as_fraction(q)
        if not (0 < q < 1):
            raise DomainError(f"deformation parameter must satisfy 0 < q < 1, got {q}")
        return q

    def two_rho_exponent(self, weight: Sequence[int]) -> int:
        """``(weight, 2 rho)`` as an exact integer."""
        return sum(int(weight[i]) * self.two_rho_pairing[i] for i in range(self.rank))

    def two_rho_histogram(self, mu: Sequence[int]) -> tuple[tuple[int, int], ...]:
        """Pairs ``(e, m)``, ``e`` descending: ``V_mu`` has ``m`` weights ``nu``
        (with multiplicity) with ``(nu, 2 rho) = e``.

        The histogram is the coefficient list of the Weyl character at ``2 rho``
        (Humphreys, *Introduction to Lie Algebras and Representation Theory*,
        §24.3, without the limit ``q -> 1``)::

            sum_nu x^{(nu, 2 rho)} = prod_b (x^{m_b} - x^{-m_b}) / (x^{h_b} - x^{-h_b})

        over the positive roots ``b``, with ``m_b = (mu + rho, b)`` and
        ``h_b = (rho, b)``.  It is computed on integer coefficient lists: every
        numerator factor is multiplied in first, then the denominator factors
        are divided out exactly.  The order matters, since one factor
        ``(x^m - x^-m) / (x^h - x^-h)`` is a polynomial only when ``h``
        divides ``m``.  :meth:`weight_system` gives the same histogram by
        Freudenthal's formula, an independent route kept as the oracle.
        """
        coeffs = [1]
        for m in self._shifted_pairing(mu):
            coeffs = _times_sine(coeffs, m)
        for h in self.rho_pairing:
            coeffs = _divide_by_sine(coeffs, h)
        top = len(coeffs) // 2
        return tuple((top - j, c) for j, c in enumerate(reversed(coeffs)) if c)

    def q_matrix_spectrum(self, mu: Sequence[int], q) -> QSpectrum:
        """Spectrum of the modular matrix: eigenvalue ``q^{-(nu, 2 rho)}`` per weight,
        from :meth:`two_rho_histogram`."""
        mu = self._check_dominant(mu)
        q = self._check_q(q)
        return QSpectrum(tuple((q ** (-e), m) for e, m in self.two_rho_histogram(mu)))

    def quantum_dimension(self, mu: Sequence[int], q) -> Fraction:
        """Quantum dimension as the trace of the modular matrix."""
        return self.q_matrix_spectrum(mu, q).trace()

    def quantum_dimension_product(self, mu: Sequence[int], q) -> Fraction:
        """Quantum dimension by the q-deformed Weyl product.

        ``prod (q^{(mu+rho,b)} - q^{-(mu+rho,b)}) / (q^{(rho,b)} - q^{-(rho,b)})``
        over positive roots b, in rationals; :meth:`quantum_dimension` evaluates
        the same quotient as a Laurent polynomial at ``q^-1``.
        """
        shifted = self._shifted_pairing(mu)
        q = self._check_q(q)
        result = Fraction(1)
        for m, h in zip(shifted, self.rho_pairing):
            result *= (q**m - q**-m) / (q**h - q**-h)
        return result

    def t_constants(self, q) -> tuple[Fraction, ...]:
        """``t_i = q^{(omega_i, 2 rho)}``; every entry lies in (0, 1)."""
        q = self._check_q(q)
        return tuple(q**e for e in self.two_rho_pairing)

    def q_sup_norm(self, mu: Sequence[int], q) -> Fraction:
        """Largest modular eigenvalue ``prod t_i^{-mu_i}``."""
        mu = self._check_dominant(mu)
        q = self._check_q(q)
        return q ** (-self.two_rho_exponent(mu))

    def __repr__(self):
        return f"RootSystem({self.lie_type}{self.rank})"


@lru_cache(maxsize=None)
def build_root_system(lie_type: str, rank: int) -> RootSystem:
    """Validated, cached root-system data for a simple type."""
    return RootSystem(str(lie_type).upper(), int(rank))
