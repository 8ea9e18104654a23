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
``check`` column ``name`` in JSON).

Each command is defined once, in ``_COMMANDS`` (help and handler), and each
option once, in ``_OPTIONS`` (argparse keywords, default and the commands
that take it); the parser, the config file and the defaults all read these
two tables.  A JSON config file (``--config``) may supply any option under
its ``_OPTIONS`` name (the flag with ``_`` for ``-``), read as its flag
reads ``str(value)``; explicit flags win over it, and it over the defaults.

Each handler imports what it runs, and no command imports an mpmath module.
Only the commands that read ``--model`` load :mod:`cqgkhint.models`, so
``fusion`` loads neither it nor :mod:`cqgkhint.record`.
``fusion``, ``dims``, ``spectrum`` and ``verify`` are exact and load no
high-precision code; only ``fusion`` and ``verify`` load
:mod:`cqgkhint.fusion` and :mod:`cqgkhint.verify`, and only Drinfeld-Jimbo
models load :mod:`cqgkhint.rootsys`.  ``kp``, ``constants``, ``decay`` and
``table --kind kp`` import :mod:`cqgkhint.khintchine`, which runs on mpmath's
``libmp`` alone (see :mod:`cqgkhint._libmp`); ``table --kind ratios`` loads
that ``libmp`` and nothing of ``khintchine``.  The CSV writer is loaded only
for ``--format csv``.
"""

from __future__ import annotations

import argparse
import functools
import gc
import io
import json
import sys
from fractions import Fraction

from .exact import DEFAULT_PRECISION_BITS, ExactArithmeticError, KacDivergenceError

__all__ = ["main", "run"]

SCHEMA = "cqgkhint/v2"
NORMALIZATION_NOTE = "short roots have squared length 2"
# cqgkhint.fusion.RULES, for the parser's choices without loading fusion
FUSION_RULES = ("su2", "so3")

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
    raw = getattr(value, "_mpf_", None)  # an mpf or an MpfValue, printed as mpmath.nstr does
    if raw is not None:
        from ._libmp import libmp  # loaded already by whatever made the value

        if raw in (libmp.finf, libmp.fninf):
            return "inf"
        return libmp.to_str(raw, digits, strip_zeros=True)
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
        import csv

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
    from .models import parse_model_spec

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
    from .models import DrinfeldJimboModel

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
        "d": fmt(spectrum.trace()),
        "sup_norm": fmt(rs.q_sup_norm(mu, model.q)),
        "trace_symmetric": spectrum.is_trace_symmetric(),
        "entries": entries,
    }
    return model.spec_string(), payload, (["eigenvalue", "multiplicity"], entries), EXIT_OK


def _cmd_fusion(args, fmt):
    from .fusion import RULES, tensor_decompose

    if args.rule not in RULES:
        raise _CliError(f"--rule must be one of {RULES}", "bad-fusion-rule")
    if args.k is None or args.l is None:
        raise _CliError("--k and --l are required for fusion", "missing-fusion-labels")
    items = sorted(tensor_decompose(args.rule, args.k, args.l).items())
    decomposition = [[label, mult] for label, mult in items]
    payload = {"rule": args.rule, "k": args.k, "l": args.l, "decomposition": decomposition}
    return args.model or None, payload, (["label", "multiplicity"], decomposition), EXIT_OK


def _cmd_kp(args, fmt):
    from .khintchine import KpEvaluator

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
    from .khintchine import decay_rate

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
    from .khintchine import KpEvaluator, _check_constants_args, constants_from_kp

    model = _require_model(args)
    # refuse a bad (p, r) before the K_p sum, as constants_from_kp would after it
    _check_constants_args(args.p, args.r)
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
    from .verify import verify_model

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
        from ._libmp import MpfValue, n_over_d

        # n/d is rounded to 53 bits, mpmath's default precision, which this table
        # has always used, not to --precision-bits; the digits it prints past the
        # 17th are noise, and rounding at --precision-bits would change its reports
        header = ["length", "label", "n_over_d"]
        spec, payload, table, exit_code = _levels(
            args, header, lambda data: [fmt(MpfValue(n_over_d(data.n, data.d, 53)))]
        )
        return spec, {"kind": "ratios", **payload}, table, exit_code
    model = _require_model(args)
    try:
        p_values = [_rational(part) for part in args.p_list.split(",")]
    except ValueError as exc:
        raise _CliError(f"cannot parse --p-list {args.p_list!r}", "bad-p-list") from exc
    from .khintchine import KpEvaluator

    evaluator = KpEvaluator(model, args.precision_bits)
    rows = []
    for p in p_values:
        rep = evaluator.kp_constant(p, tol=args.tol, max_length=args.max_length)
        rows.append([fmt(p), *(fmt(rep.kp_interval) or ["", ""]), rep.verdict])
    header = ["p", "kp_lower", "kp_upper", "verdict"]
    exit_code = EXIT_INCONCLUSIVE if any(row[-1] == "inconclusive" for row in rows) else EXIT_OK
    payload = {"kind": "kp", "rows": _records(header, rows)}
    return model.spec_string(), payload, (header, rows), exit_code


# name -> (help, handler), in the order ``cqgkhint --help`` lists them
_COMMANDS = {
    "dims": ("per-level dimension table", _cmd_dims),
    "spectrum": ("modular-matrix spectrum of one djq label", _cmd_spectrum),
    "fusion": ("tensor decomposition in the su2/so3 fusion rings", _cmd_fusion),
    "kp": ("certified K_p evaluation", _cmd_kp),
    "decay": ("decay base of n/d", _cmd_decay),
    "constants": ("norm-equivalence constants", _cmd_constants),
    "verify": ("per-model invariant suite", _cmd_verify),
    "table": ("plot-ready tables", _cmd_table),
}

# dest -> (argparse kwargs, default, commands or None for all), in the order
# each ``--help`` lists them; the flag is ``--dest`` with ``-`` for ``_``, and
# the dest is the option's config key
_OPTIONS = {
    "model": ({"help": "djq:<type><rank>:<q> | oplus:<N>:<Nq> | aut:<dimB>:<d1>"}, None, None),
    "format": ({"choices": ["json", "csv"]}, "json", None),
    "output": ({"help": "write the report to this path"}, None, None),
    "precision_bits": ({"type": int}, DEFAULT_PRECISION_BITS, None),
    "config": ({"help": "JSON file with default options"}, None, None),
    "workers": ({"type": int, "help": "accepted and ignored; summation is serial"}, 1, None),
    "max_length": ({"type": int}, 2000, ("dims", "table", "kp", "constants")),
    "p": ({"type": _rational}, Fraction(4), ("kp", "constants")),
    "tol": ({"type": float}, 1e-10, ("kp", "constants", "table")),
    "r": ({"type": _rational}, Fraction(2), ("constants",)),
    "mu": ({"help": "comma-separated dominant weight"}, None, ("spectrum",)),
    "rule": ({"choices": list(FUSION_RULES)}, None, ("fusion",)),
    "k": ({"type": int}, None, ("fusion",)),
    "l": ({"type": int}, None, ("fusion",)),
    "horizon": ({"type": int}, 12, ("decay", "verify")),
    "kind": ({"choices": ["ratios", "kp"]}, "ratios", ("table",)),
    "p_list": ({}, "2,4,8,16", ("table",)),
}


def _options_of(command: str) -> list[tuple[str, tuple]]:
    """The ``(dest, row)`` pairs of :data:`_OPTIONS` that ``command`` takes, in order."""
    return [(dest, row) for dest, row in _OPTIONS.items() if row[2] is None or command in row[2]]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cqgkhint",
        description="Representation data and certified Khintchine constants "
        "for non-Kac compact quantum groups.",
    )
    sub = parser.add_subparsers(dest="command")
    for name, (help_text, _) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for dest, (kwargs, _, _) in _options_of(name):
            # None until _apply_config, where a flag given wins over config and default
            p.add_argument("--" + dest.replace("_", "-"), default=None, **kwargs)
    return parser


def _config_value(key: str, kwargs: dict, value):
    """A config value read as its flag would read ``str(value)`` on the command line."""
    try:
        value = kwargs.get("type", str)(str(value))
    except ValueError as exc:
        raise _CliError(f"config key {key!r}: cannot read {value!r}", "bad-config") from exc
    choices = kwargs.get("choices")
    if choices is not None and value not in choices:
        message = f"config key {key!r}: {value!r} is not one of {list(choices)}"
        raise _CliError(message, "bad-config")
    return value


def _apply_config(args):
    config = {}
    if args.config:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                config = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise _CliError(f"cannot read config {args.config!r}: {exc}", "bad-config") from exc
        if not isinstance(config, dict):
            raise _CliError(f"config {args.config!r} is not a JSON object", "bad-config")
        unknown = set(config) - (set(_OPTIONS) - {"config"})
        if unknown:
            raise _CliError(f"unknown config keys: {sorted(unknown)}", "bad-config")
    for key, (kwargs, default, _) in _options_of(args.command):
        if config.get(key) is not None and getattr(args, key) is None:
            setattr(args, key, _config_value(key, kwargs, config[key]))
        if getattr(args, key) is None:
            setattr(args, key, default)
    if args.precision_bits < 64:
        raise _CliError("precision_bits must be at least 64", "bad-precision")
    if hasattr(args, "tol") and not 0 < args.tol < float("inf"):
        raise _CliError("tol must be positive and finite", "bad-tolerance")
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
        args = _apply_config(args)
        digits = max(17, int(args.precision_bits * 0.3010299956639812) - 2)
        fmt = functools.partial(_fmt, digits=digits)
        model_spec, payload, table, exit_code = _COMMANDS[args.command][1](args, fmt)
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


def run() -> None:
    """Entry point of a one-shot CLI process: :func:`main` without the cyclic collector.

    The collector is switched off for the run and every live object is moved
    to the permanent generation (``gc.freeze``) before ``sys.exit``, so the
    full collections that ``Py_FinalizeEx`` runs at exit, even with the
    collector off, no longer scan the heap.  It is safe because a command
    creates no reference cycles of its own: the only cyclic garbage of a
    process is the argparse parser and, for a JSON report, the closures of the
    one JSON encoder, a fixed number of objects whatever the input, which
    ``tests/test_cli.py`` checks for every subcommand on a small and a large
    input.  Finalization still runs, so ``atexit`` handlers run and stdout and
    stderr are flushed; that is why this freezes instead of leaving by
    ``os._exit``, which would save little more.  :func:`main` itself leaves the
    collector alone, for library callers and in-process tests.
    """
    gc.disable()
    try:
        code = main()
    finally:
        gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
