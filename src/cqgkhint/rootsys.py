"""Root systems, weight multiplicities and modular-matrix spectra.

Everything here is exact: weights live in the fundamental-weight basis as
integer tuples, the invariant bilinear form is normalised so that *short roots
have squared length 2*, and all quantities attached to a rational deformation
parameter ``q`` come out as exact :class:`fractions.Fraction` values.

The normalisation matters: the exponents ``(omega_i, 2 rho)`` driving the
modular-matrix eigenvalues scale with the form.  The short-root convention is
recorded in every report emitted by the CLI.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

from .exact import as_fraction, rational_inverse

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


@dataclass(frozen=True)
class QSpectrum:
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
        return sum((v * m for v, m in self.entries), start=Fraction(0) * self.entries[0][0])

    def inv_trace(self):
        return sum((m / v for v, m in self.entries), start=Fraction(0) * self.entries[0][0])

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


class RootSystem:
    """Root and weight data of a simple Lie type, all rational and exact.

    Construct through :func:`build_root_system`, which validates the
    (type, rank) pair and caches instances so the memoised weight systems are
    shared.  All methods are pure; the caches are only ever extended with
    values that are a function of the key, so concurrent use is safe.
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

        # (omega_i, 2 rho) = d_i * (sum of the i-th coefficients of all positive roots)
        self.two_rho_pairing = tuple(
            self.d[i] * sum(root[i] for root in self.positive_roots)
            for i in range(rank)
        )

        self._weight_system_cache: dict[Weight, dict[Weight, int]] = {}

    # -- root generation -------------------------------------------------

    def _omega_coords(self, root: Sequence[int]) -> Weight:
        return tuple(
            sum(root[i] * self.cartan[i][j] for i in range(self.rank))
            for j in range(self.rank)
        )

    def _generate_positive_roots(self):
        rank = self.rank
        simple = [tuple(1 if j == i else 0 for j in range(rank)) for i in range(rank)]
        roots = set(simple)
        frontier = list(simple)
        while frontier:
            new = []
            for beta in frontier:
                m = self._omega_coords(beta)
                for i in range(rank):
                    # alpha_i-string through beta: p - q = <beta, alpha_i v> = m[i]
                    p = 0
                    gamma = list(beta)
                    while True:
                        gamma[i] -= 1
                        t = tuple(gamma)
                        if t in roots or tuple(-x for x in t) in roots:
                            p += 1
                        else:
                            break
                    if p - m[i] > 0:
                        up = list(beta)
                        up[i] += 1
                        t = tuple(up)
                        if t not in roots:
                            roots.add(t)
                            new.append(t)
            frontier = new
        ordered = sorted(roots, key=lambda r: (sum(r), r))
        self.positive_roots: tuple[tuple[int, ...], ...] = tuple(ordered)
        # pairing vectors: (v, beta) = sum_i v_i * w_beta[i] for v in weight coords
        self.root_weight_pairing = tuple(
            tuple(root[i] * self.d[i] for i in range(rank)) for root in ordered
        )
        expected = POSITIVE_ROOT_COUNTS[self.lie_type](self.rank)
        if len(ordered) != expected:
            raise InvalidRootSystemError(
                f"generated {len(ordered)} positive roots, expected {expected}"
            )

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
        return len(mu) == self.rank and all(int(c) >= 0 for c in mu)

    def _check_dominant(self, mu: Sequence[int]) -> Weight:
        mu = tuple(int(c) for c in mu)
        if not self.is_dominant(mu):
            raise NonDominantWeightError(f"{mu} is not a dominant weight")
        return mu

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

    def weyl_dimension(self, mu: Sequence[int]) -> int:
        """Classical dimension ``prod (mu+rho, beta) / (rho, beta)``."""
        mu = self._check_dominant(mu)
        shifted = tuple(c + 1 for c in mu)
        num = 1
        den = 1
        for idx in range(len(self.positive_roots)):
            num *= self.root_pairing(shifted, idx)
            den *= self.root_pairing(self.rho, idx)
        dim, rem = divmod(num, den)
        if rem:
            raise ArithmeticError(f"Weyl dimension of {mu} is not an integer")
        return dim

    def weight_system(self, mu: Sequence[int]) -> dict[Weight, int]:
        """Full weight multiplicity map of the irreducible module ``mu``.

        The weights are found level by level from ``mu``, subtracting simple
        roots.  By the alpha-string property of a finite-dimensional module,
        ``w - alpha_i`` is a weight exactly when ``p + w_i >= 1``, where ``p``
        counts the weights ``w + alpha_i, w + 2 alpha_i, ...``; those lie on
        earlier levels, so they are all known when ``w`` is expanded.  The
        level of ``nu`` is the height of ``mu - nu``, which orders the
        dominant weights for the Freudenthal recursion.  The rest of the
        system is filled in through dominant conjugates (weights are
        Weyl-invariant with their multiplicities).
        """
        mu = self._check_dominant(mu)
        cached = self._weight_system_cache.get(mu)
        if cached is not None:
            return dict(cached)

        weights = {mu}
        dominants = []
        level = [mu]
        while level:
            dominants.extend(w for w in level if all(c >= 0 for c in w))
            below = []
            for w in level:
                # row i of the Cartan matrix is alpha_i in weight coordinates
                for i, alpha in enumerate(self.cartan):
                    down = tuple(a - b for a, b in zip(w, alpha))
                    if down in weights:
                        continue
                    p = 0
                    up = tuple(a + b for a, b in zip(w, alpha))
                    while up in weights:
                        p += 1
                        up = tuple(a + b for a, b in zip(up, alpha))
                    if p + w[i] >= 1:
                        weights.add(down)
                        below.append(down)
            level = below

        mults: dict[Weight, int] = {mu: 1}
        two_rho = tuple(2 for _ in range(self.rank))
        roots_omega = [self._omega_coords(root) for root in self.positive_roots]
        for nu in dominants[1:]:
            acc = 0
            for idx, beta_omega in enumerate(roots_omega):
                k = 1
                while True:
                    lam = tuple(nu[i] + k * beta_omega[i] for i in range(self.rank))
                    if lam not in weights:
                        break
                    m = mults.get(self.dominant_conjugate(lam), 0)
                    if m == 0:
                        break
                    acc += m * self.root_pairing(lam, idx)
                    k += 1
            upper = tuple(mu[i] + nu[i] + two_rho[i] for i in range(self.rank))
            diff = tuple(mu[i] - nu[i] for i in range(self.rank))
            denom = self.inner_product(upper, diff)
            value = 2 * acc / denom
            if value.denominator != 1 or value <= 0:
                raise ArithmeticError(f"Freudenthal gave the multiplicity {value} at {nu}")
            mults[nu] = int(value)

        system = {w: mults[self.dominant_conjugate(w)] for w in weights}
        self._weight_system_cache[mu] = dict(system)
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

    def q_matrix_spectrum(self, mu: Sequence[int], q) -> QSpectrum:
        """Spectrum of the modular matrix: eigenvalue ``q^{-(nu, 2 rho)}`` per weight."""
        mu = self._check_dominant(mu)
        q = self._check_q(q)
        by_exponent: dict[int, int] = {}
        for nu, mult in self.weight_system(mu).items():
            e = self.two_rho_exponent(nu)
            by_exponent[e] = by_exponent.get(e, 0) + mult
        entries = tuple(
            (q ** (-e), m) for e, m in sorted(by_exponent.items(), reverse=True)
        )
        return QSpectrum(entries)

    def quantum_dimension(self, mu: Sequence[int], q) -> Fraction:
        """Quantum dimension as the trace of the modular matrix."""
        spectrum = self.q_matrix_spectrum(mu, q)
        return sum(v * m for v, m in spectrum.entries)

    def quantum_dimension_product(self, mu: Sequence[int], q) -> Fraction:
        """Quantum dimension by the q-deformed Weyl product.

        ``prod (q^{(mu+rho,b)} - q^{-(mu+rho,b)}) / (q^{(rho,b)} - q^{-(rho,b)})``
        over positive roots b.  Independent of :meth:`quantum_dimension`; the
        two routes are cross-checked in the test suite.
        """
        mu = self._check_dominant(mu)
        q = self._check_q(q)
        shifted = tuple(c + 1 for c in mu)
        result = Fraction(1)
        for idx in range(len(self.positive_roots)):
            m = self.root_pairing(shifted, idx)
            h = self.root_pairing(self.rho, idx)
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
