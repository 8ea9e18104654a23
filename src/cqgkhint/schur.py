"""Exact Schur-orthogonality layer over the matrix-coefficient basis.

The Haar-state computations used here reduce to the two orthogonality
relations for matrix coefficients ``u_ij`` of an irreducible with (diagonal)
modular matrix ``Q`` and quantum dimension ``d = Tr(Q) = Tr(Q^{-1})``::

    h(u_ij^* u_st) = delta_is delta_jt Q_ii^{-1} / d        (left relation)
    h(u_ij u_st^*) = delta_is delta_jt Q_jj / d             (right relation)

and to the modular automorphism ``sigma_z(u_st) = Q_ss^{iz} Q_tt^{iz} u_st``.
For purely imaginary ``z = -i s`` with rational ``s`` the multipliers are
exact radicals (:class:`~cqgkhint.radical.Radical`), so every identity checked
below — the smoothed-character norm, modular duality, the squared-norm
identity for central series — is verified in exact arithmetic whenever the
input data is exact.  General complex ``z`` is supported in float mode.
"""

from __future__ import annotations

import cmath
from fractions import Fraction
from numbers import Rational
from typing import Mapping, Sequence

from .exact import as_fraction
from .radical import Radical
from .record import Record
from .rootsys import QSpectrum

__all__ = [
    "MissingQDataError",
    "SpectrumNotNormalizedError",
    "CoefficientVector",
    "CentralSeries",
    "character_vector",
    "symmetrize_spectrum",
    "random_symmetric_spectrum",
    "apply_modular_imaginary",
    "apply_modular_automorphism",
    "l2_norm_squared",
    "l2_norm",
    "smoothed_character_norm_check",
    "modular_duality_check",
    "l2_khintchine_check",
    "series_norm_squared_direct",
    "series_norm_squared_expanded",
]


class MissingQDataError(KeyError):
    code = "missing-q-data"


class SpectrumNotNormalizedError(ValueError):
    code = "spectrum-not-normalized"


def _require_trace_symmetric(spectrum: QSpectrum) -> QSpectrum:
    if not spectrum.is_trace_symmetric():
        raise SpectrumNotNormalizedError(
            "spectrum violates Tr(Q) = Tr(Q^{-1}); normalise it first "
            "(see symmetrize_spectrum)"
        )
    return spectrum


def symmetrize_spectrum(values: Sequence) -> QSpectrum:
    """Rescale a positive diagonal to the unique trace-symmetric normalisation.

    Given positive rationals ``a_j`` this returns the spectrum of ``s Q_0``
    with ``s = sqrt(Tr(Q_0^{-1}) / Tr(Q_0))``, the unique positive scale at
    which ``Tr = Tr^{-1}`` holds; the scaled entries are exact radicals in the
    single surd ``sqrt(m)``, ``m = (sum 1/a) / (sum a)``.
    """
    fracs = [as_fraction(v) for v in values]
    if not fracs or any(v <= 0 for v in fracs):
        raise ValueError("need a nonempty list of positive values")
    m = sum(1 / v for v in fracs) / sum(fracs)
    scale = Radical.from_rational(m) ** Fraction(1, 2)
    scaled = [scale * v for v in fracs]
    counts: dict = {}
    for v in scaled:
        if v.is_rational:
            v = v.as_fraction()
        counts[v] = counts.get(v, 0) + 1
    entries = tuple(sorted(counts.items(), key=lambda kv: float(kv[0]), reverse=True))
    return QSpectrum(entries)


def random_symmetric_spectrum(rng, size: int, max_part: int = 20) -> QSpectrum:
    """Draw a random positive diagonal and trace-symmetrise it (exactly)."""
    values = [
        Fraction(rng.randint(1, max_part), rng.randint(1, max_part))
        for _ in range(size)
    ]
    return symmetrize_spectrum(values)


class CoefficientVector:
    """Finitely supported coefficients over the matrix-coefficient basis.

    ``entries`` maps ``(label, i, j)`` (0-based indices into the diagonal of
    ``Q_label``) to a coefficient, which may be an exact rational / radical or
    a complex float.  ``spectra`` supplies the modular data per label.
    """

    def __init__(self, spectra: Mapping, entries: Mapping):
        self.spectra = dict(spectra)
        self.entries = {}
        for (label, i, j), value in entries.items():
            spec = self.spectra.get(label)
            if spec is None:
                raise MissingQDataError(f"no modular data for label {label!r}")
            n = spec.n
            if not (0 <= i < n and 0 <= j < n):
                raise ValueError(
                    f"index ({i}, {j}) outside 0..{n - 1} for label {label!r}"
                )
            if value != 0:
                self.entries[(label, i, j)] = _canonical_value(value)

    def copy_with(self, entries) -> "CoefficientVector":
        return CoefficientVector(self.spectra, entries)

    def __add__(self, other: "CoefficientVector") -> "CoefficientVector":
        spectra = dict(self.spectra)
        for label, spec in other.spectra.items():
            if label in spectra and spectra[label] is not spec and spectra[label] != spec:
                raise ValueError(f"conflicting modular data for label {label!r}")
            spectra[label] = spec
        merged = dict(self.entries)
        for key, value in other.entries.items():
            if key in merged:
                merged[key] = _add_values(merged[key], value)
            else:
                merged[key] = value
        return CoefficientVector(spectra, merged)


def _canonical_value(value):
    if isinstance(value, (int, Rational)) and not isinstance(value, bool):
        return Fraction(value)
    return value


def _add_values(a, b):
    if isinstance(a, (Fraction, Radical)) and isinstance(b, (Fraction, Radical)):
        return _simplify(a + b)
    return complex(a) + complex(b)


def _simplify(value):
    """A rational :class:`Radical` as its :class:`Fraction`; anything else as is."""
    return value.as_fraction() if isinstance(value, Radical) and value.is_rational else value


def character_vector(label, spectrum: QSpectrum, coefficient=1) -> CoefficientVector:
    """The character ``sum_i u_ii`` of one irreducible, scaled by a coefficient."""
    n = spectrum.n
    entries = {(label, i, i): coefficient for i in range(n)}
    return CoefficientVector({label: spectrum}, entries)


def _exact_q(value):
    return value if isinstance(value, Radical) else Radical.from_rational(value)


def apply_modular_imaginary(vec: CoefficientVector, s) -> CoefficientVector:
    """Apply ``sigma_z`` at ``z = -i s`` with rational ``s``, exactly.

    The basis coefficient at ``u_st`` picks up the positive factor
    ``(Q_ss Q_tt)^s``; exact coefficients stay exact radicals.
    """
    s = as_fraction(s)
    diagonals = {label: spec.diagonal() for label, spec in vec.spectra.items()}
    out = {}
    for (label, i, j), value in vec.entries.items():
        diag = diagonals[label]
        multiplier = _exact_q(diag[i]) ** s * _exact_q(diag[j]) ** s
        if isinstance(value, (Fraction, Radical)):
            new = _simplify(multiplier * value)
        else:
            new = complex(value) * float(multiplier)
        out[(label, i, j)] = new
    return vec.copy_with(out)


def apply_modular_automorphism(vec: CoefficientVector, z: complex) -> CoefficientVector:
    """Apply ``sigma_z`` for arbitrary complex ``z`` (float mode).

    The multiplier is ``(Q_ss Q_tt)^{i z}``; for purely imaginary ``z = -i s``
    this is the positive real ``(Q_ss Q_tt)^s`` and agrees with
    :func:`apply_modular_imaginary`.
    """
    z = complex(z)
    if z == 0:
        return vec.copy_with(dict(vec.entries))
    diagonals = {label: spec.diagonal() for label, spec in vec.spectra.items()}
    out = {}
    for (label, i, j), value in vec.entries.items():
        diag = diagonals[label]
        base = float(_exact_q(diag[i]) * _exact_q(diag[j]))
        multiplier = cmath.exp(1j * z * cmath.log(base))
        out[(label, i, j)] = complex(value) * multiplier
    return vec.copy_with(out)


def l2_norm_squared(vec):
    """``||v||_2^2 = sum |c_ij|^2 Q_ii^{-1} / d`` from the left Schur relation.

    Exact (Fraction or Radical) when every coefficient is exact; float
    otherwise.  A :class:`CentralSeries` is accepted as well, in which case
    the squared norm is ``sum_a tr(x_a^* x_a)`` by character orthonormality.
    """
    if isinstance(vec, CentralSeries):
        return series_norm_squared_direct(vec)
    diagonals = {label: spec.diagonal() for label, spec in vec.spectra.items()}
    traces = {label: _exact_q(spec.trace()) for label, spec in vec.spectra.items()}
    exact = all(isinstance(v, (Fraction, Radical)) for v in vec.entries.values())
    if exact:
        total = Radical(0)
        for (label, i, j), value in vec.entries.items():
            diag = diagonals[label]
            term = (
                _exact_q(value).abs_squared()
                * (_exact_q(diag[i]) ** -1)
                / traces[label]
            )
            total = total + term
        return _simplify(total)
    total_f = 0.0
    for (label, i, j), value in vec.entries.items():
        diag = diagonals[label]
        c = complex(value)
        total_f += (c.conjugate() * c).real * float(_exact_q(diag[i]) ** -1) / float(
            traces[label]
        )
    return total_f


def l2_norm(vec):
    """``||v||_2``; exact radical for exact data, float otherwise."""
    sq = l2_norm_squared(vec)
    if isinstance(sq, (Fraction, Radical)):
        return _exact_q(sq) ** Fraction(1, 2)
    return sq**0.5


class SmoothingCheck(Record):
    lhs: object
    rhs: object
    equal: bool


def smoothed_character_norm_check(spectrum: QSpectrum) -> SmoothingCheck:
    """Exact check of ``||sigma_{-i/4}(chi)||_2^2 = n / d``.

    The smoothing at ``z = -i/4`` turns ``chi = sum u_jj`` into
    ``sum Q_jj^{1/2} u_jj``; its squared norm collapses, entry by entry, to
    ``sum_j Q_jj Q_jj^{-1} / d``, which is ``n / d`` for any admissible
    (trace-symmetric) spectrum — synthetic spectra included.
    """
    _require_trace_symmetric(spectrum)
    chi = character_vector("chi", spectrum)
    smoothed = apply_modular_imaginary(chi, Fraction(1, 4))
    lhs = l2_norm_squared(smoothed)
    rhs = _simplify(spectrum.n / _exact_q(spectrum.trace()))
    return SmoothingCheck(lhs=lhs, rhs=rhs, equal=lhs == rhs)


def modular_duality_check(spectrum: QSpectrum) -> bool:
    """Verify ``h(f g) = h(g sigma_{-i}(f))`` on all matrix-coefficient pairs.

    With ``f = u_ij`` and ``g = (u_st)^*`` the left side is the right Schur
    relation and the right side expands through the ``sigma_{-i}`` multiplier
    ``Q_ii Q_jj`` and the left Schur relation; both reduce to
    ``delta_is delta_jt Q_jj / d``.  Only the pairs with ``(s, t) = (i, j)``
    carry data; every other quadruple compares zero with zero, so the exact
    comparison runs over the ``n^2`` pairs ``(i, j)`` alone.
    """
    _require_trace_symmetric(spectrum)
    diag = spectrum.diagonal()
    d = _exact_q(spectrum.trace())
    n = spectrum.n
    for i in range(n):
        for j in range(n):
            sigma_factor = _exact_q(diag[i]) * _exact_q(diag[j])
            # h(u_ij (u_ij)^*) by the right relation, h((u_ij)^* sigma_{-i}(u_ij)) by the left
            lhs = _exact_q(diag[j]) / d
            rhs = sigma_factor * (_exact_q(diag[i]) ** -1) / d
            if lhs != rhs:
                return False
    return True


class CentralSeries:
    """Finite central series ``sum_a x_a (x) chi_a`` with matrix coefficients.

    Each coefficient ``x_a`` is kept as a ``dim x dim`` tuple of rows of
    ``complex``, read from any nested sequence (numpy arrays included).
    """

    def __init__(self, dim: int, terms: Mapping, spectra: Mapping):
        self.dim = int(dim)
        self.spectra = dict(spectra)
        self.terms = {}
        for label, matrix in terms.items():
            if label not in self.spectra:
                raise MissingQDataError(f"no modular data for label {label!r}")
            try:
                rows = tuple(tuple(complex(v) for v in row) for row in matrix)
            except TypeError:
                rows = None
            if rows is None or len(rows) != self.dim or any(len(r) != self.dim for r in rows):
                raise ValueError(
                    f"coefficient for {label!r} is not a ({self.dim}, {self.dim}) matrix"
                )
            self.terms[label] = rows


def _frobenius_squared(x) -> float:
    """``tr(x^* x) = sum_ij |x_ij|^2``."""
    return sum(v.real * v.real + v.imag * v.imag for row in x for v in row)


def series_norm_squared_direct(series: CentralSeries) -> float:
    """Shortcut ``sum_a tr(x_a^* x_a)`` using orthonormality of characters."""
    return float(sum(_frobenius_squared(x) for x in series.terms.values()))


def series_norm_squared_expanded(series: CentralSeries) -> float:
    """Independent expansion of ``||f||^2`` through the left Schur relation.

    Expands ``(tr (x) h)(f^* f)`` over the matrix entries of each character:
    ``h((u_ii)^* u_jj) = delta_ij Q_ii^{-1}/d``, so only the ``n`` diagonal
    pairs contribute, each with its ``Q_ii^{-1}/d`` weight kept explicit
    (cross-label terms vanish by orthogonality of inequivalent irreducibles).
    Equality with :func:`series_norm_squared_direct` uses
    ``Tr(Q^{-1}) = Tr(Q) = d``.
    """
    total = 0.0
    for label, x in series.terms.items():
        spec = series.spectra[label]
        d = float(_exact_q(spec.trace()))
        coeff = _frobenius_squared(x)
        for q_ii in spec.diagonal():
            total += coeff * float(_exact_q(q_ii) ** -1) / d
    return total


class L2KhintchineCheck(Record):
    lhs: float
    rhs_bound: float
    holds: bool
    lhs_sq_expanded: float
    lhs_sq_direct: float
    k2_used: float


def l2_khintchine_check(series: CentralSeries, k2: float | None = None) -> L2KhintchineCheck:
    """The operator-coefficient inequality at exponent 2, plus its exact core.

    At exponent 2 the square-function norm ``||(sum x^* x)^{1/2}||_{S^2}``
    equals ``(sum tr(x^* x))^{1/2}`` on the nose, so the inequality holds with
    any constant >= 1; the substantive check is the norm identity
    ``||f||^2 = sum_a tr(x_a^* x_a)`` computed through the Schur expansion.

    If ``k2`` is not given, the partial constant
    ``sqrt(1 + sum_a n_a/d_a)`` over the series' own labels (plus the trivial
    representation) is used; it is >= 1 for any admissible data.
    """
    lhs_sq_exp = series_norm_squared_expanded(series)
    lhs_sq_dir = series_norm_squared_direct(series)
    lhs = lhs_sq_exp**0.5
    square_function = lhs_sq_dir**0.5  # tr(sum_a x_a^* x_a)^{1/2}
    if k2 is None:
        k2 = (
            1.0
            + sum(
                spec.n / float(_exact_q(spec.trace()))
                for spec in (series.spectra[label] for label in series.terms)
            )
        ) ** 0.5
    rhs = float(k2) * square_function
    return L2KhintchineCheck(
        lhs=lhs,
        rhs_bound=rhs,
        holds=lhs <= rhs * (1 + 1e-12) + 1e-12,
        lhs_sq_expanded=lhs_sq_exp,
        lhs_sq_direct=lhs_sq_dir,
        k2_used=float(k2),
    )
