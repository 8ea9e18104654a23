"""Per-model invariant suite behind the ``verify`` CLI command.

Each check is exact (rational arithmetic) unless noted; the report is a flat
pass/fail list with deterministic detail strings, so two runs over the same
model produce identical bytes.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .fusion import tensor_decompose, tensor_with_generator
from .models import (
    DrinfeldJimboModel,
    FreeOrthogonalModel,
    QuantumGroupModel,
    construct_model,
)
from .rootsys import POSITIVE_ROOT_COUNTS

__all__ = ["VerifyCheck", "VerifyReport", "verify_model"]


@dataclass(frozen=True)
class VerifyCheck:
    name: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class VerifyReport:
    model_spec: str
    horizon: int
    checks: tuple[VerifyCheck, ...]
    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)


def _check(name, passed, detail) -> VerifyCheck:
    return VerifyCheck(name=name, passed=bool(passed), detail=detail)


def _drinfeld_jimbo_checks(model: DrinfeldJimboModel, horizon: int) -> list[VerifyCheck]:
    rs = model.root_system
    out = []

    expected = POSITIVE_ROOT_COUNTS[rs.lie_type](rs.rank)
    out.append(
        _check(
            "positive-root-count",
            len(rs.positive_roots) == expected,
            f"{len(rs.positive_roots)} positive roots, expected {expected}",
        )
    )

    ok = True
    for i in range(rs.rank):
        ei = tuple(1 if k == i else 0 for k in range(rs.rank))
        for j in range(rs.rank):
            alpha_j = rs._omega_coords(tuple(1 if k == j else 0 for k in range(rs.rank)))
            want = Fraction(rs.d[j]) if i == j else Fraction(0)
            ok = ok and rs.inner_product(ei, alpha_j) == want
    out.append(
        _check(
            "fundamental-weight-pairing",
            ok,
            "(omega_i, alpha_j) = delta_ij (alpha_j, alpha_j)/2 exactly",
        )
    )

    half_sum = [Fraction(0)] * rs.rank
    for root in rs.positive_roots:
        coords = rs._omega_coords(root)
        for i in range(rs.rank):
            half_sum[i] += Fraction(coords[i], 2)
    out.append(
        _check(
            "rho-half-sum",
            tuple(half_sum) == tuple(Fraction(1) for _ in range(rs.rank)),
            "rho equals half the sum of positive roots",
        )
    )

    q = model.q
    ts = rs.t_constants(q)
    out.append(
        _check("t-constants-below-one", all(t < 1 for t in ts), f"t = {tuple(map(str, ts))}")
    )

    grid_ok = True
    trace_ok = True
    sup_ok = True
    tested = 0
    for k in range(0, min(horizon, 4) + 1):
        for mu in model.enumerate_level(k):
            spec = rs.q_matrix_spectrum(mu, q)
            trace_ok = trace_ok and spec.is_trace_symmetric()
            dim_spec = rs.quantum_dimension(mu, q)
            dim_prod = rs.quantum_dimension_product(mu, q)
            grid_ok = grid_ok and dim_spec == dim_prod
            sup_ok = sup_ok and spec.max_eigenvalue() == rs.q_sup_norm(mu, q)
            tested += 1
    out.append(
        _check("spectrum-trace-symmetric", trace_ok, f"Tr(Q) = Tr(Q^-1) on {tested} weights")
    )
    out.append(
        _check(
            "qdim-dual-route",
            grid_ok,
            f"spectral trace equals q-Weyl product on {tested} weights",
        )
    )
    out.append(
        _check(
            "sup-norm-product-identity",
            sup_ok,
            f"max Q-eigenvalue equals prod t_i^(-mu_i) on {tested} weights",
        )
    )
    return out


def _graded_checks(model: QuantumGroupModel, horizon: int) -> list[VerifyCheck]:
    rule = "su2" if isinstance(model, FreeOrthogonalModel) else "so3"
    out = []

    rec_ok = True
    for k in range(1, horizon):
        parts = tensor_with_generator(rule, k)
        for attr in ("n", "d"):
            lhs = getattr(model.irr_data(k), attr) * getattr(model.irr_data(1), attr)
            rhs = sum(
                mult * getattr(model.irr_data(j), attr) for j, mult in parts.items()
            )
            rec_ok = rec_ok and lhs == rhs
    out.append(
        _check(
            "dimension-recursion",
            rec_ok,
            f"generator fusion rule is a dimension identity up to length {horizon}",
        )
    )

    hom_ok = True
    for k in range(0, min(horizon, 8)):
        for l in range(0, k + 1):
            parts = tensor_decompose(rule, k, l)
            for attr in ("n", "d"):
                lhs = getattr(model.irr_data(k), attr) * getattr(model.irr_data(l), attr)
                rhs = sum(mult * getattr(model.irr_data(j), attr) for j, mult in parts.items())
                hom_ok = hom_ok and lhs == rhs
    out.append(
        _check(
            "fusion-dimension-homomorphism",
            hom_ok,
            "dim(k (x) l) matches the fusion decomposition exactly",
        )
    )
    return out


def verify_model(model, horizon: int = 12) -> VerifyReport:
    """Run the invariant suite for one model; all checks are deterministic."""
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    model = construct_model(model)
    checks: list[VerifyCheck] = []

    levels_twice = [
        (model.enumerate_level(k), model.enumerate_level(k)) for k in range(horizon + 1)
    ]
    checks.append(
        _check(
            "level-order-deterministic",
            all(a == b for a, b in levels_twice),
            "enumerate_level returns a fixed order",
        )
    )

    if isinstance(model, DrinfeldJimboModel):
        checks.extend(_drinfeld_jimbo_checks(model, horizon))
    else:
        checks.extend(_graded_checks(model, horizon))

    dom_ok = True
    equal_everywhere = True
    for k in range(horizon + 1):
        for data in model.level_data(k):
            dom_ok = dom_ok and data.d >= data.n
            equal_everywhere = equal_everywhere and data.d == data.n
    checks.append(
        _check(
            "quantum-dominates-classical",
            dom_ok,
            f"d >= n on all labels of length <= {horizon}",
        )
    )
    checks.append(
        _check(
            "kac-flag",
            model.is_kac() == equal_everywhere,
            f"is_kac = {model.is_kac()} matches d == n on the horizon",
        )
    )

    if not model.is_kac():
        ratios = []
        for k in range(max(1, horizon - 5), horizon + 1):
            worst = max(Fraction(data.n) / data.d for data in model.level_data(k))
            ratios.append(worst)
        decreasing = all(a > b for a, b in zip(ratios, ratios[1:]))
        checks.append(
            _check(
                "ratio-strictly-decreasing",
                decreasing,
                f"max n/d per level decreases on lengths {max(1, horizon - 5)}..{horizon}",
            )
        )

    return VerifyReport(
        model_spec=model.spec_string(),
        horizon=horizon,
        checks=tuple(checks),
    )
