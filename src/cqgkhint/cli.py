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

Each handler formats its values once and returns them as a JSON payload plus
one ``(header, rows)`` table.  The CSV form writes that table; list-valued
payload fields are its rows zipped with the header (``verify`` names the
``check`` column ``name`` in JSON).  A JSON config file (``--config``) may
supply defaults under the flag name of any subcommand; explicit flags win.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import sys
from fractions import Fraction

import mpmath
from mpmath import mp

from .exact import ExactArithmeticError
from .fusion import RULES, tensor_decompose
from .khintchine import (
    DEFAULT_PRECISION_BITS,
    KacDivergenceError,
    KpEvaluator,
    constants_from_kp,
    decay_rate,
)
from .models import DrinfeldJimboModel, parse_model_spec
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


def _rational(text: str) -> Fraction:
    """``Fraction(text)``, refusing a zero denominator like any malformed number."""
    try:
        return Fraction(text)
    except ZeroDivisionError as exc:
        raise ValueError(f"zero denominator in {text!r}") from exc


_rational.__name__ = "Fraction"  # argparse names the type in "invalid Fraction value"


def _fmt(value, digits: int):
    """Deterministic JSON-ready rendering of the numeric types used here."""
    if value is None or isinstance(value, int):  # bool is an int
        return value
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


def _records(header: list[str], rows: list[list]) -> list[dict]:
    return [dict(zip(header, row)) for row in rows]


def _emit(report: dict, table: tuple[list[str], list[list]], fmt: str, path) -> int:
    """Serialise the report; returns the number of bytes written."""
    if fmt == "json":
        data = (json.dumps(report, indent=2) + "\n").encode()
    else:
        buf = io.StringIO()
        for key in ("schema", "command", "model", "normalization", "precision_bits"):
            buf.write(f"# {key}: {report[key]}\n")
        writer = csv.writer(buf, quoting=csv.QUOTE_MINIMAL, lineterminator="\n")
        header, rows = table
        writer.writerow(header)
        writer.writerows(rows)
        data = buf.getvalue().encode()
    if path:
        try:
            with open(path, "wb") as fh:
                fh.write(data)
        except OSError as exc:
            raise _CliError(f"cannot write the report to {path!r}: {exc}", "bad-output") from exc
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
#
# Each takes the parsed arguments and the value formatter and returns
# ``(model_spec, payload, (header, rows), exit_code)``.


def _levels(args, header: list[str], cells):
    """One row ``[length, label, *cells(data)]`` per label of lengths ``0..max_length``."""
    model = _require_model(args)
    rows = [
        [k, _label_str(data.label), *cells(data)]
        for k in range(args.max_length + 1)
        for data in model.level_data(k)
    ]
    payload = {"max_length": args.max_length, "rows": _records(header, rows)}
    return model.spec_string(), payload, (header, rows), EXIT_OK


def _cmd_dims(args, fmt):
    header = ["length", "label", "n", "d", "chi_sup"]
    return _levels(args, header, lambda data: [data.n, fmt(data.d), data.chi_sup])


def _cmd_spectrum(args, fmt):
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
    rs = model.root_system
    spectrum = rs.q_matrix_spectrum(mu, model.q)
    entries = [[fmt(v), m] for v, m in spectrum.entries]
    payload = {
        "mu": _label_str(mu),
        "n": spectrum.n,
        "d": fmt(rs.quantum_dimension(mu, model.q)),
        "sup_norm": fmt(rs.q_sup_norm(mu, model.q)),
        "trace_symmetric": spectrum.is_trace_symmetric(),
        "entries": entries,
    }
    return model.spec_string(), payload, (["eigenvalue", "multiplicity"], entries), EXIT_OK


def _cmd_fusion(args, fmt):
    if args.rule not in RULES:
        raise _CliError(f"--rule must be one of {RULES}", "bad-fusion-rule")
    if args.k is None or args.l is None:
        raise _CliError("--k and --l are required for fusion", "missing-fusion-labels")
    items = sorted(tensor_decompose(args.rule, args.k, args.l).items())
    decomposition = [[label, mult] for label, mult in items]
    payload = {"rule": args.rule, "k": args.k, "l": args.l, "decomposition": decomposition}
    return args.model or None, payload, (["label", "multiplicity"], decomposition), EXIT_OK


def _cmd_kp(args, fmt):
    model = _require_model(args)
    report = KpEvaluator(model, args.precision_bits).kp_constant(
        args.p, tol=args.tol, max_length=args.max_length
    )
    payload = {
        "p": fmt(report.p),
        "tol": repr(args.tol),
        "max_length": args.max_length,
        "terms_summed": report.terms_summed,
        "partial_sum": fmt(report.partial_sum),
        "tail_bound": fmt(report.tail_bound),
        "verdict": report.verdict,
        "kp2_interval": fmt(report.kp2_interval),
        "kp_interval": fmt(report.kp_interval),
        "term_lower_bound": fmt(report.term_lower_bound),
    }
    header = ["p", "terms_summed", "partial_sum", "tail_bound", "verdict", "kp_lower", "kp_upper"]
    row = [payload[key] for key in header[:5]] + (payload["kp_interval"] or ["", ""])
    exit_code = EXIT_INCONCLUSIVE if report.verdict == "inconclusive" else EXIT_OK
    return model.spec_string(), payload, (header, [row]), exit_code


def _cmd_decay(args, fmt):
    model = _require_model(args)
    report = decay_rate(model, horizon=args.horizon, precision_bits=args.precision_bits)
    payload = {
        "horizon": report.horizon,
        "theoretical_base": fmt(report.theoretical_base),
        "empirical_base": fmt(report.empirical_base),
        "constant_envelope": fmt(report.constant_envelope),
        "polynomial_factor": report.polynomial_factor,
    }
    return model.spec_string(), payload, (list(payload), [list(payload.values())]), EXIT_OK


def _cmd_constants(args, fmt):
    model = _require_model(args)
    kp_report = KpEvaluator(model, args.precision_bits).kp_constant(
        args.p, tol=args.tol, max_length=args.max_length
    )
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
    exponents = {
        "c_2_1": fmt(report.exp_c_2_1),
        "c_p_1": fmt(report.exp_c_p_1),
        "c_r_1": fmt(report.exp_c_r_1),
    }
    constants = {
        "c_2_1": fmt(report.c_2_1),
        "c_p_1": fmt(report.c_p_1),
        "c_r_1": fmt(report.c_r_1),
    }
    payload = {
        "p": fmt(report.p),
        "r": fmt(report.r),
        "exponents": exponents,
        "constants": constants,
        "kp_upper": fmt(report.kp_upper),
    }
    header = ["p", "r", *(f"exp_{key}" for key in exponents), *constants]
    row = [payload["p"], payload["r"], *exponents.values(), *constants.values()]
    return model.spec_string(), payload, (header, [row]), EXIT_OK


def _cmd_verify(args, fmt):
    model = _require_model(args)
    report = verify_model(model, horizon=args.horizon)
    rows = [[c.name, c.passed, c.detail] for c in report.checks]
    payload = {
        "horizon": report.horizon,
        "all_passed": report.all_passed,
        "checks": _records(["name", "passed", "detail"], rows),
    }
    exit_code = EXIT_OK if report.all_passed else EXIT_VERIFY_FAILED
    return model.spec_string(), payload, (["check", "passed", "detail"], rows), exit_code


def _cmd_table(args, fmt):
    if args.kind == "ratios":
        header = ["length", "label", "n_over_d"]
        spec, payload, table, exit_code = _levels(
            args, header, lambda data: [fmt(mp.mpf(data.n) * data.d.denominator / data.d.numerator)]
        )
        return spec, {"kind": "ratios", **payload}, table, exit_code
    model = _require_model(args)
    try:
        p_values = [_rational(part) for part in args.p_list.split(",")]
    except ValueError as exc:
        raise _CliError(f"cannot parse --p-list {args.p_list!r}", "bad-p-list") from exc
    evaluator = KpEvaluator(model, args.precision_bits)
    rows = []
    for p in p_values:
        rep = evaluator.kp_constant(p, tol=args.tol, max_length=args.max_length)
        rows.append([fmt(p), *(fmt(rep.kp_interval) or ["", ""]), rep.verdict])
    header = ["p", "kp_lower", "kp_upper", "verdict"]
    exit_code = EXIT_INCONCLUSIVE if any(row[-1] == "inconclusive" for row in rows) else EXIT_OK
    payload = {"kind": "kp", "rows": _records(header, rows)}
    return model.spec_string(), payload, (header, rows), exit_code


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
        if name in ("kp", "constants"):
            p.add_argument("--p", type=_rational, default=None)
        if name in ("kp", "constants", "table"):
            p.add_argument("--tol", type=float, default=None)
        if name == "constants":
            p.add_argument("--r", type=_rational, default=None)
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


def _config_value(action: argparse.Action, value):
    """A config value read as its flag would read ``str(value)`` on the command line."""
    key = action.dest
    try:
        value = action.type(str(value)) if action.type else str(value)
    except ValueError as exc:
        raise _CliError(f"config key {key!r}: cannot read {value!r}", "bad-config") from exc
    if action.choices is not None and value not in action.choices:
        message = f"config key {key!r}: {value!r} is not one of {list(action.choices)}"
        raise _CliError(message, "bad-config")
    return value


def _apply_config(args, parser: argparse.ArgumentParser):
    (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    flags = {action.dest: action for action in commands.choices[args.command]._actions}
    config = {}
    if args.config:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                config = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise _CliError(f"cannot read config {args.config!r}: {exc}", "bad-config") from exc
        if not isinstance(config, dict):
            raise _CliError(f"config {args.config!r} is not a JSON object", "bad-config")
        known = {a.dest for command in commands.choices.values() for a in command._actions}
        unknown = set(config) - (known - {"help", "config"})
        if unknown:
            raise _CliError(f"unknown config keys: {sorted(unknown)}", "bad-config")
    for key, action in flags.items():
        if config.get(key) is not None and getattr(args, key) is None:
            setattr(args, key, _config_value(action, config[key]))
    for key, value in _DEFAULTS.items():
        if hasattr(args, key) and getattr(args, key) is None:
            setattr(args, key, value)
    if args.precision_bits < 64:
        raise _CliError("precision_bits must be at least 64", "bad-precision")
    if hasattr(args, "tol") and not args.tol > 0:
        raise _CliError("tol must be positive", "bad-tolerance")
    if hasattr(args, "tol") and args.tol < 2.0**-args.precision_bits:
        message = f"tol is below 2^-{args.precision_bits}; raise --precision-bits"
        raise _CliError(message, "tol-below-precision")
    if hasattr(args, "max_length") and args.max_length < 1:
        raise _CliError("max_length must be >= 1", "bad-max-length")
    if args.workers < 1:
        raise _CliError("workers must be >= 1", "bad-workers")
    return args


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if not args.command:
        parser.print_help()
        return EXIT_OK
    try:
        args = _apply_config(args, parser)
        digits = max(17, int(args.precision_bits * 0.3010299956639812) - 2)
        fmt = functools.partial(_fmt, digits=digits)
        model_spec, payload, table, exit_code = _HANDLERS[args.command](args, fmt)
        report = {
            "schema": SCHEMA,
            "command": args.command,
            "model": model_spec,
            "normalization": NORMALIZATION_NOTE,
            "precision_bits": args.precision_bits,
            **payload,
        }
        _emit(report, table, args.format, args.output)
        return exit_code
    except _CliError as exc:
        sys.stderr.write(f"error[{exc.code}]: {exc}\n")
        return exc.exit_code
    except (ValueError, KacDivergenceError, ExactArithmeticError) as exc:
        sys.stderr.write(f"error[{getattr(exc, 'code', 'invalid-input')}]: {exc}\n")
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
