"""Command-line frontend: deterministic JSON/CSV reports.

Commands::

    dims       per-level table of (length, label, n, d, chi_sup)
    spectrum   modular-matrix spectrum of one Drinfeld-Jimbo label
    fusion     tensor decomposition in the su2/so3 fusion rings
    kp         certified K_p evaluation (exit 3 when inconclusive)
    decay      decay base of n/d along the grading
    constants  norm-equivalence constants from a converged K_p
    verify     per-model invariant suite (nonzero exit on failure)
    table      plot-ready CSV/JSON tables: (k, n/d) ratios or (p, K_p)

Model specs: ``djq:<type><rank>:<q>``, ``oplus:<N>:<Nq>``, ``aut:<dimB>:<d1>``;
numbers accept decimals or ``num/den`` rationals.  All reports embed the model
spec, the bilinear-form normalisation note and the working precision, and are
byte-identical across runs and worker counts for a fixed configuration.
A JSON config file (``--config``) may supply defaults; explicit flags win.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from fractions import Fraction

import mpmath
from mpmath import mp

from .chebyshev import OutsideDomainError
from .exact import ExactArithmeticError
from .fusion import RULES, tensor_decompose
from .khintchine import (
    DEFAULT_PRECISION_BITS,
    KacDivergenceError,
    KpEvaluator,
    PValueError,
    constants_from_kp,
    decay_rate,
)
from .models import DrinfeldJimboModel, InvalidModelError, parse_model_spec
from .rootsys import DomainError, InvalidRootSystemError, NonDominantWeightError
from .verify import verify_model

__all__ = ["main"]

SCHEMA = "cqgkhint/v1"
NORMALIZATION_NOTE = "short roots have squared length 2"

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_VALIDATION = 2
EXIT_INCONCLUSIVE = 3


class _CliError(Exception):
    def __init__(self, message: str, code: str = "invalid-input", exit_code: int = EXIT_VALIDATION):
        super().__init__(message)
        self.code = code
        self.exit_code = exit_code


def _digits(precision_bits: int) -> int:
    return max(17, int(precision_bits * 0.3010299956639812) - 2)


def _fmt(value, digits: int):
    """Deterministic JSON-ready rendering of the numeric types used here."""
    if value is None:
        return None
    if isinstance(value, bool):
        return value
    if isinstance(value, int):
        return value
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, mpmath.mpf):
        if mpmath.isinf(value):
            return "inf"
        return mpmath.nstr(value, digits, strip_zeros=True)
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, tuple):
        return [_fmt(v, digits) for v in value]
    return str(value)


def _label_str(label) -> str:
    if isinstance(label, tuple):
        return ",".join(str(c) for c in label)
    return str(label)


def _report(command: str, model_spec, precision_bits: int, payload: dict) -> dict:
    out = {
        "schema": SCHEMA,
        "command": command,
        "model": model_spec,
        "normalization": NORMALIZATION_NOTE,
        "precision_bits": precision_bits,
    }
    out.update(payload)
    return out


def _emit(report: dict, rows: tuple[list[str], list[list]] | None, fmt: str, path) -> int:
    """Serialise the report; returns the number of bytes written."""
    if fmt == "json":
        data = (json.dumps(report, indent=2) + "\n").encode()
    else:
        if rows is None:
            raise _CliError("this command has no CSV table; use --format json", "no-csv-form")
        buf = io.StringIO()
        for key in ("schema", "command", "model", "normalization", "precision_bits"):
            buf.write(f"# {key}: {report[key]}\n")
        writer = csv.writer(buf, quoting=csv.QUOTE_MINIMAL, lineterminator="\n")
        header, body = rows
        writer.writerow(header)
        for row in body:
            writer.writerow(row)
        data = buf.getvalue().encode()
    if path:
        with open(path, "wb") as fh:
            fh.write(data)
    else:
        sys.stdout.write(data.decode())
    return len(data)


def _require_model(args) -> object:
    if not getattr(args, "model", None):
        raise _CliError("--model is required for this command", "missing-model")
    return parse_model_spec(args.model)


def _parse_mu(text: str, rank: int) -> tuple[int, ...]:
    try:
        mu = tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise _CliError(f"cannot parse weight {text!r}", "bad-weight") from exc
    if len(mu) != rank:
        raise _CliError(f"weight {text!r} has {len(mu)} parts, expected {rank}", "bad-weight")
    return mu


# -- command handlers --------------------------------------------------------


def _cmd_dims(args):
    model = _require_model(args)
    digits = _digits(args.precision_bits)
    rows = []
    payload_rows = []
    for k in range(args.max_length + 1):
        for data in model.level_data(k):
            label = _label_str(data.label)
            rows.append([k, label, data.n, str(data.d), data.chi_sup])
            payload_rows.append(
                {
                    "length": k,
                    "label": label,
                    "n": data.n,
                    "d": _fmt(data.d, digits),
                    "chi_sup": data.chi_sup,
                }
            )
    payload = {"max_length": args.max_length, "rows": payload_rows}
    report = _report("dims", model.spec_string(), args.precision_bits, payload)
    return report, (["length", "label", "n", "d", "chi_sup"], rows), EXIT_OK


def _cmd_spectrum(args):
    model = _require_model(args)
    if not isinstance(model, DrinfeldJimboModel):
        raise _CliError(
            "modular spectra are only exposed for djq models (the dimension data "
            "of the graded families does not determine them)",
            "spectrum-unsupported-family",
        )
    if not args.mu:
        raise _CliError("--mu is required for spectrum", "missing-weight")
    mu = _parse_mu(args.mu, model.rank)
    digits = _digits(args.precision_bits)
    rs = model.root_system
    spectrum = rs.q_matrix_spectrum(mu, model.q)
    payload = {
        "mu": _label_str(mu),
        "n": spectrum.n,
        "d": _fmt(rs.quantum_dimension(mu, model.q), digits),
        "sup_norm": _fmt(rs.q_sup_norm(mu, model.q), digits),
        "trace_symmetric": spectrum.is_trace_symmetric(),
        "entries": [[_fmt(v, digits), m] for v, m in spectrum.entries],
    }
    report = _report("spectrum", model.spec_string(), args.precision_bits, payload)
    rows = [[_fmt(v, digits), m] for v, m in spectrum.entries]
    return report, (["eigenvalue", "multiplicity"], rows), EXIT_OK


def _cmd_fusion(args):
    if args.rule not in RULES:
        raise _CliError(f"--rule must be one of {RULES}", "bad-fusion-rule")
    if args.k is None or args.l is None:
        raise _CliError("--k and --l are required for fusion", "missing-fusion-labels")
    decomposition = tensor_decompose(args.rule, args.k, args.l)
    items = sorted(decomposition.items())
    payload = {
        "rule": args.rule,
        "k": args.k,
        "l": args.l,
        "decomposition": [[label, mult] for label, mult in items],
    }
    model_spec = args.model if args.model else None
    report = _report("fusion", model_spec, args.precision_bits, payload)
    return report, (["label", "multiplicity"], [[l, m] for l, m in items]), EXIT_OK


def _cmd_kp(args):
    model = _require_model(args)
    digits = _digits(args.precision_bits)
    evaluator = KpEvaluator(model, args.precision_bits)
    report = evaluator.kp_constant(
        args.p, tol=args.tol, max_length=args.max_length, workers=args.workers
    )
    payload = {
        "p": _fmt(report.p, digits),
        "tol": repr(args.tol),
        "max_length": args.max_length,
        "terms_summed": report.terms_summed,
        "partial_sum": _fmt(report.partial_sum, digits),
        "tail_bound": _fmt(report.tail_bound, digits),
        "verdict": report.verdict,
        "kp2_interval": _fmt(report.kp2_interval, digits),
        "kp_interval": _fmt(report.kp_interval, digits),
        "term_lower_bound": _fmt(report.term_lower_bound, digits),
    }
    out = _report("kp", report.model_spec, args.precision_bits, payload)
    rows = (
        ["p", "terms_summed", "partial_sum", "tail_bound", "verdict", "kp_lower", "kp_upper"],
        [
            [
                _fmt(report.p, digits),
                report.terms_summed,
                _fmt(report.partial_sum, digits),
                _fmt(report.tail_bound, digits),
                report.verdict,
                _fmt(report.kp_interval[0], digits) if report.kp_interval else "",
                _fmt(report.kp_interval[1], digits) if report.kp_interval else "",
            ]
        ],
    )
    exit_code = EXIT_INCONCLUSIVE if report.verdict == "inconclusive" else EXIT_OK
    return out, rows, exit_code


def _cmd_decay(args):
    model = _require_model(args)
    digits = _digits(args.precision_bits)
    report = decay_rate(model, horizon=args.horizon, precision_bits=args.precision_bits)
    payload = {
        "horizon": report.horizon,
        "theoretical_base": _fmt(report.theoretical_base, digits),
        "empirical_base": _fmt(report.empirical_base, digits),
        "constant_envelope": _fmt(report.constant_envelope, digits),
        "polynomial_factor": report.polynomial_factor,
    }
    out = _report("decay", report.model_spec, args.precision_bits, payload)
    rows = (
        ["horizon", "theoretical_base", "empirical_base", "constant_envelope", "polynomial_factor"],
        [
            [
                report.horizon,
                _fmt(report.theoretical_base, digits),
                _fmt(report.empirical_base, digits),
                _fmt(report.constant_envelope, digits),
                report.polynomial_factor,
            ]
        ],
    )
    return out, rows, EXIT_OK


def _cmd_constants(args):
    model = _require_model(args)
    digits = _digits(args.precision_bits)
    evaluator = KpEvaluator(model, args.precision_bits)
    kp_report = evaluator.kp_constant(args.p, tol=args.tol, max_length=args.max_length)
    if kp_report.verdict == "divergent":
        raise _CliError(
            f"K_p diverges for {kp_report.model_spec} (Kac type); "
            "norm-equivalence constants are undefined",
            "kac-divergent",
        )
    if kp_report.verdict == "inconclusive":
        raise _CliError(
            f"K_p evaluation inconclusive at max_length={args.max_length}",
            "kp-inconclusive",
            exit_code=EXIT_INCONCLUSIVE,
        )
    report = constants_from_kp(kp_report, args.r)
    payload = {
        "p": _fmt(report.p, digits),
        "r": _fmt(report.r, digits),
        "exponents": {
            "c_2_1": _fmt(report.exp_c_2_1, digits),
            "c_p_1": _fmt(report.exp_c_p_1, digits),
            "c_r_1": _fmt(report.exp_c_r_1, digits),
        },
        "constants": {
            "c_2_1": _fmt(report.c_2_1, digits),
            "c_p_1": _fmt(report.c_p_1, digits),
            "c_r_1": _fmt(report.c_r_1, digits),
        },
        "kp_upper": _fmt(report.kp_upper, digits),
    }
    out = _report("constants", report.model_spec, args.precision_bits, payload)
    rows = (
        ["p", "r", "exp_c_2_1", "exp_c_p_1", "exp_c_r_1", "c_2_1", "c_p_1", "c_r_1"],
        [
            [
                _fmt(report.p, digits),
                _fmt(report.r, digits),
                str(report.exp_c_2_1),
                str(report.exp_c_p_1),
                str(report.exp_c_r_1),
                _fmt(report.c_2_1, digits),
                _fmt(report.c_p_1, digits),
                _fmt(report.c_r_1, digits),
            ]
        ],
    )
    return out, rows, EXIT_OK


def _cmd_verify(args):
    model = _require_model(args)
    report = verify_model(model, horizon=args.horizon)
    payload = {
        "horizon": report.horizon,
        "all_passed": report.all_passed,
        "checks": [
            {"name": c.name, "passed": c.passed, "detail": c.detail} for c in report.checks
        ],
    }
    out = _report("verify", report.model_spec, args.precision_bits, payload)
    rows = (
        ["check", "passed", "detail"],
        [[c.name, c.passed, c.detail] for c in report.checks],
    )
    return out, rows, EXIT_OK if report.all_passed else EXIT_VERIFY_FAILED


def _cmd_table(args):
    model = _require_model(args)
    digits = _digits(args.precision_bits)
    if args.kind == "ratios":
        rows = []
        payload_rows = []
        for k in range(args.max_length + 1):
            for data in model.level_data(k):
                ratio = mp.mpf(data.n) * data.d.denominator / data.d.numerator
                label = _label_str(data.label)
                rows.append([k, label, _fmt(ratio, digits)])
                payload_rows.append(
                    {"length": k, "label": label, "n_over_d": _fmt(ratio, digits)}
                )
        payload = {"kind": "ratios", "max_length": args.max_length, "rows": payload_rows}
        out = _report("table", model.spec_string(), args.precision_bits, payload)
        return out, (["length", "label", "n_over_d"], rows), EXIT_OK
    if args.kind == "kp":
        try:
            p_values = [Fraction(part) for part in args.p_list.split(",")]
        except (ValueError, ZeroDivisionError) as exc:
            raise _CliError(f"cannot parse --p-list {args.p_list!r}", "bad-p-list") from exc
        evaluator = KpEvaluator(model, args.precision_bits)
        rows = []
        payload_rows = []
        worst_exit = EXIT_OK
        for p in p_values:
            rep = evaluator.kp_constant(
                p, tol=args.tol, max_length=args.max_length, workers=args.workers
            )
            lo = _fmt(rep.kp_interval[0], digits) if rep.kp_interval else ""
            hi = _fmt(rep.kp_interval[1], digits) if rep.kp_interval else ""
            rows.append([_fmt(p, digits), lo, hi, rep.verdict])
            payload_rows.append(
                {"p": _fmt(p, digits), "kp_lower": lo, "kp_upper": hi, "verdict": rep.verdict}
            )
            if rep.verdict == "inconclusive":
                worst_exit = EXIT_INCONCLUSIVE
        payload = {"kind": "kp", "rows": payload_rows}
        out = _report("table", model.spec_string(), args.precision_bits, payload)
        return out, (["p", "kp_lower", "kp_upper", "verdict"], rows), worst_exit
    raise _CliError(f"unknown table kind {args.kind!r}", "bad-table-kind")


_HANDLERS = {
    "dims": _cmd_dims,
    "spectrum": _cmd_spectrum,
    "fusion": _cmd_fusion,
    "kp": _cmd_kp,
    "decay": _cmd_decay,
    "constants": _cmd_constants,
    "verify": _cmd_verify,
    "table": _cmd_table,
}

_CONFIG_KEYS = (
    "model",
    "p",
    "r",
    "tol",
    "max_length",
    "format",
    "output",
    "precision_bits",
    "workers",
    "horizon",
    "mu",
    "rule",
    "k",
    "l",
    "kind",
    "p_list",
)

_DEFAULTS = {
    "p": Fraction(4),
    "r": Fraction(2),
    "tol": 1e-10,
    "max_length": 2000,
    "format": "json",
    "output": None,
    "precision_bits": DEFAULT_PRECISION_BITS,
    "workers": 1,
    "horizon": 12,
    "kind": "ratios",
    "p_list": "2,4,8,16",
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cqgkhint",
        description="Representation data and certified Khintchine constants "
        "for non-Kac compact quantum groups.",
    )
    sub = parser.add_subparsers(dest="command")
    for name, help_text in [
        ("dims", "per-level dimension table"),
        ("spectrum", "modular-matrix spectrum of one djq label"),
        ("fusion", "tensor decomposition in the su2/so3 fusion rings"),
        ("kp", "certified K_p evaluation"),
        ("decay", "decay base of n/d"),
        ("constants", "norm-equivalence constants"),
        ("verify", "per-model invariant suite"),
        ("table", "plot-ready tables"),
    ]:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--model", help="djq:<type><rank>:<q> | oplus:<N>:<Nq> | aut:<dimB>:<d1>")
        p.add_argument("--format", choices=["json", "csv"], default=None)
        p.add_argument("--output", default=None, help="write the report to this path")
        p.add_argument("--precision-bits", dest="precision_bits", type=int, default=None)
        p.add_argument("--config", default=None, help="JSON file with default options")
        p.add_argument(
            "--workers", type=int, default=None, help="accepted and ignored; summation is serial"
        )
        if name in ("dims", "table", "kp", "constants"):
            p.add_argument("--max-length", dest="max_length", type=int, default=None)
        if name in ("kp", "constants", "table"):
            p.add_argument("--p", type=Fraction, default=None)
            p.add_argument("--tol", type=float, default=None)
        if name == "constants":
            p.add_argument("--r", type=Fraction, default=None)
        if name == "spectrum":
            p.add_argument("--mu", default=None, help="comma-separated dominant weight")
        if name == "fusion":
            p.add_argument("--rule", choices=list(RULES), default=None)
            p.add_argument("--k", type=int, default=None)
            p.add_argument("--l", type=int, default=None)
        if name in ("decay", "verify"):
            p.add_argument("--horizon", type=int, default=None)
        if name == "table":
            p.add_argument("--kind", choices=["ratios", "kp"], default=None)
            p.add_argument("--p-list", dest="p_list", default=None)
    return parser


def _apply_config(args):
    config = {}
    if getattr(args, "config", None):
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                config = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise _CliError(f"cannot read config {args.config!r}: {exc}", "bad-config") from exc
        unknown = set(config) - set(_CONFIG_KEYS)
        if unknown:
            raise _CliError(f"unknown config keys: {sorted(unknown)}", "bad-config")
    for key in _CONFIG_KEYS:
        if not hasattr(args, key):
            continue
        if getattr(args, key) is None and key in config:
            value = config[key]
            if key in ("p", "r") and value is not None:
                value = Fraction(str(value))
            setattr(args, key, value)
    for key, value in _DEFAULTS.items():
        if hasattr(args, key) and getattr(args, key) is None:
            setattr(args, key, value)
    if getattr(args, "precision_bits", 64) < 64:
        raise _CliError("precision_bits must be at least 64", "bad-precision")
    if hasattr(args, "tol") and not args.tol > 0:
        raise _CliError("tol must be positive", "bad-tolerance")
    if hasattr(args, "tol") and args.tol < 2.0**-args.precision_bits:
        message = f"tol is below 2^-{args.precision_bits}; raise --precision-bits"
        raise _CliError(message, "tol-below-precision")
    if hasattr(args, "max_length") and args.max_length < 1:
        raise _CliError("max_length must be >= 1", "bad-max-length")
    if getattr(args, "workers", 1) < 1:
        raise _CliError("workers must be >= 1", "bad-workers")
    return args


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if not args.command:
        parser.print_help()
        return EXIT_OK
    try:
        args = _apply_config(args)
        handler = _HANDLERS[args.command]
        report, rows, exit_code = handler(args)
        _emit(report, rows, args.format, args.output)
        return exit_code
    except _CliError as exc:
        sys.stderr.write(f"error[{exc.code}]: {exc}\n")
        return exc.exit_code
    except (
        InvalidModelError,
        InvalidRootSystemError,
        NonDominantWeightError,
        DomainError,
        PValueError,
        OutsideDomainError,
        KacDivergenceError,
        ExactArithmeticError,
    ) as exc:
        code = getattr(exc, "code", "invalid-input")
        sys.stderr.write(f"error[{code}]: {exc}\n")
        return EXIT_VALIDATION
    except ValueError as exc:
        sys.stderr.write(f"error[invalid-input]: {exc}\n")
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
