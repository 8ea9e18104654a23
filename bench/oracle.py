"""Output checks for every benchmark command.

A check returns ``None`` when the output is right and a one-line reason when
it is not.  ``K_p`` results must enclose a reference value computed once at
a tighter ``tol`` and a higher precision (``make_reference.py``); exact
reports must match a stored digest of everything except the ``schema``
field, so a schema bump alone does not count as a wrong answer.
"""

from __future__ import annotations

import hashlib
import json
from decimal import Decimal, localcontext
from fractions import Fraction
from pathlib import Path

REFERENCE_PATH = Path(__file__).with_name("reference.json")
DEFAULT_TOL = "1e-10"


def load_reference(path: Path = REFERENCE_PATH) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def kp_key(model: str, p, tol: str) -> str:
    return f"{model} p={Fraction(p)} tol={float(tol)!r}"


def report_digest(report: dict) -> str:
    body = {k: v for k, v in report.items() if k != "schema"}
    return hashlib.sha256(json.dumps(body, sort_keys=True).encode()).hexdigest()


def option(args, flag, default=None):
    """The value after ``flag`` in a command's arguments, or ``default``."""
    return args[args.index(flag) + 1] if flag in args else default


def _encloses(ref: dict, key: str, lo: str, hi: str, tol: str) -> str | None:
    if key not in ref["kp"]:
        return f"no reference for {key}"
    value = Decimal(ref["kp"][key])
    lo, hi = Decimal(lo), Decimal(hi)
    if not lo <= value <= hi:
        return f"K_p interval [{lo:.12e}, {hi:.12e}] misses the reference {value:.12e} ({key})"
    if hi * hi - lo * lo > Decimal(tol) * Decimal("1.000001"):
        return f"K_p^2 interval wider than tol ({key})"
    return None


def check(cmd, exit_code: int, stdout: bytes, ref: dict) -> str | None:
    if exit_code != 0:
        return f"exit code {exit_code}, expected 0"
    try:
        report = json.loads(stdout)
    except ValueError:
        return "output is not a JSON report"
    with localcontext() as ctx:
        ctx.prec = 120
        try:
            return _CHECKS[cmd.check](cmd, report, ref)
        except (KeyError, TypeError, ValueError, ArithmeticError) as exc:
            return f"report lacks a field or has a malformed one: {exc!r}"


def _check_kp(cmd, report, ref):
    tol = option(cmd.args, "--tol", DEFAULT_TOL)
    if report.get("verdict") != "converged":
        return f"verdict {report.get('verdict')!r}, expected 'converged'"
    if Decimal(report["tail_bound"]) > Decimal(tol):
        return f"tail bound {report['tail_bound']} exceeds tol {tol}"
    lo, hi = report["kp_interval"]
    return _encloses(ref, kp_key(report["model"], report["p"], tol), lo, hi, tol)


def _check_kp_table(cmd, report, ref):
    tol = option(cmd.args, "--tol", DEFAULT_TOL)
    wanted = [str(Fraction(p)) for p in option(cmd.args, "--p-list").split(",")]
    rows = report.get("rows", [])
    if [row["p"] for row in rows] != wanted:
        return f"rows for p={[row['p'] for row in rows]}, expected {wanted}"
    for row in rows:
        if row["verdict"] != "converged":
            return f"p={row['p']}: verdict {row['verdict']!r}, expected 'converged'"
        bad = _encloses(ref, kp_key(report["model"], row["p"], tol), row["kp_lower"], row["kp_upper"], tol)
        if bad:
            return bad
    return None


def _check_constants(cmd, report, ref):
    key = kp_key(report["model"], report["p"], DEFAULT_TOL)
    if key not in ref["kp"]:
        return f"no reference for {key}"
    value, upper = Decimal(ref["kp"][key]), Decimal(report["kp_upper"])
    if not value <= upper or upper * upper - value * value > Decimal(DEFAULT_TOL) * Decimal("1.000001"):
        return f"kp_upper {upper:.12e} is not a tol-tight bound over the reference {value:.12e}"
    return None


def _check_divergent(cmd, report, ref):
    if report.get("verdict") != "divergent":
        return f"verdict {report.get('verdict')!r}, expected 'divergent'"
    return None


def _check_digest(cmd, report, ref):
    expected = ref["digest"].get(cmd.text)
    if expected is None:
        return f"no reference digest for {cmd.text!r}"
    if report_digest(report) != expected:
        return "report differs from the reference digest"
    return None


def _check_verify(cmd, report, ref):
    if report.get("all_passed") is not True:
        failed = [c["name"] for c in report.get("checks", []) if not c["passed"]]
        return f"verify failed: {failed}"
    return None


def _check_fusion(cmd, report, ref):
    if report.get("decomposition") != [[0, 1], [2, 1]]:
        return f"su2 1x1 decomposed as {report.get('decomposition')}, expected [[0, 1], [2, 1]]"
    return None


_CHECKS = {
    "kp": _check_kp,
    "kp-table": _check_kp_table,
    "constants": _check_constants,
    "divergent": _check_divergent,
    "digest": _check_digest,
    "verify": _check_verify,
    "fusion": _check_fusion,
}
