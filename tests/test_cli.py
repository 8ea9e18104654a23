import contextlib
import csv
import gc
import io
import json
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from cqgkhint.cli import main

BENCH = Path(__file__).resolve().parent.parent / "bench"
SRC = Path(__file__).resolve().parent.parent / "src"

def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_cli_to_file(tmp_path, name, *argv):
    path = tmp_path / name
    code = main(list(argv) + ["--output", str(path)])
    return code, path.read_bytes()


def _fresh_python(*args: str, text: bool = True) -> subprocess.CompletedProcess:
    """``python *args`` in a fresh interpreter with the package sources importable."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=text,
        env={**os.environ, "PYTHONPATH": path},
        timeout=120,
    )


# -- dims -----------------------------------------------------------------------


def test_dims_table_example(capsys):
    code, out, err = run_cli(
        capsys, "dims", "--model", "djq:A1:1/2", "--max-length", "3"
    )
    assert code == 0
    report = json.loads(out)
    assert report["schema"] == "cqgkhint/v2"
    assert report["model"] == "djq:A1:1/2"
    assert report["normalization"] == "short roots have squared length 2"
    rows = [(r["length"], r["n"], r["d"], r["chi_sup"]) for r in report["rows"]]
    assert rows == [(0, 1, "1", 1), (1, 2, "5/2", 2), (2, 3, "21/4", 3), (3, 4, "85/8", 4)]


def test_dims_csv_header(capsys):
    code, out, err = run_cli(
        capsys, "dims", "--model", "oplus:3:3.5", "--max-length", "2", "--format", "csv"
    )
    assert code == 0
    lines = [line for line in out.splitlines() if not line.startswith("#")]
    assert lines[0] == "length,label,n,d,chi_sup"
    assert lines[1] == "0,0,1,1,1"
    assert lines[3] == "2,2,8,45/4,3"


# -- spectrum / fusion ------------------------------------------------------------


def test_spectrum_command(capsys):
    code, out, err = run_cli(
        capsys, "spectrum", "--model", "djq:A1:1/2", "--mu", "1"
    )
    assert code == 0
    report = json.loads(out)
    assert report["entries"] == [["2", 1], ["1/2", 1]]
    assert report["trace_symmetric"] is True
    assert report["d"] == "5/2"


def test_spectrum_rejected_for_graded_families(capsys):
    code, out, err = run_cli(capsys, "spectrum", "--model", "oplus:3:3.5", "--mu", "1")
    assert code == 2
    assert "spectrum-unsupported-family" in err


def test_fusion_command(capsys):
    code, out, err = run_cli(capsys, "fusion", "--rule", "so3", "--k", "1", "--l", "1")
    assert code == 0
    report = json.loads(out)
    assert report["decomposition"] == [[0, 1], [1, 1], [2, 1]]


def test_fusion_rule_choices_are_the_fusion_rules():
    # the parser names the rules itself, so that commands other than fusion
    # do not load cqgkhint.fusion
    from cqgkhint.cli import FUSION_RULES
    from cqgkhint.fusion import RULES

    assert FUSION_RULES == RULES


# -- kp -----------------------------------------------------------------------------


def test_kp_json_fields(capsys):
    code, out, err = run_cli(
        capsys, "kp", "--model", "oplus:3:3.5", "--p", "4", "--tol", "1e-10"
    )
    assert code == 0
    report = json.loads(out)
    for field in ("p", "terms_summed", "partial_sum", "tail_bound", "verdict"):
        assert field in report
    assert report["verdict"] == "converged"
    assert float(report["tail_bound"]) < 1e-10


def test_kp_divergent_is_success(capsys):
    code, out, err = run_cli(capsys, "kp", "--model", "oplus:3:3", "--p", "4")
    assert code == 0
    report = json.loads(out)
    assert report["verdict"] == "divergent"
    assert report["term_lower_bound"] == "1.0"


def test_kp_inconclusive_exit_code(capsys):
    code, out, err = run_cli(
        capsys, "kp", "--model", "oplus:3:3.5", "--p", "16", "--max-length", "10"
    )
    assert code == 3
    report = json.loads(out)
    assert report["verdict"] == "inconclusive"


@pytest.mark.parametrize("model", ["oplus:3:3.01", "aut:5:4.01", "oplus:3:3.001"])
def test_kp_near_kac_converges_in_few_levels(capsys, model):
    # rho = (u_n/u_d)^(1/2) is within 0.003 of 1, so a geometric tail needs
    # 17,461 levels or more; the asymptotic tail needs a few dozen whatever rho
    # is.  The bound on the levels is a bound on work, not a wall-clock gate.
    code, out, err = run_cli(capsys, "kp", "--model", model, "--p", "4")
    assert code == 0
    report = json.loads(out)
    assert report["verdict"] == "converged"
    assert report["terms_summed"] <= 100


@pytest.mark.parametrize(
    "argv",
    [
        ["kp", "--model", "oplus:3:7/2"],
        ["constants", "--model", "oplus:3:7/2"],
        ["table", "--model", "oplus:3:7/2", "--kind", "kp"],
    ],
    ids=["kp", "constants", "table"],
)
@pytest.mark.parametrize("tol", ["inf", "-inf", "nan", "0", "-1e-10"])
def test_tol_not_positive_and_finite_refused(capsys, argv, tol):
    code, out, err = run_cli(capsys, *argv, f"--tol={tol}")
    assert code == 2
    assert out == ""
    assert "error[bad-tolerance]" in err


def test_kp_tol_below_precision_refused(capsys):
    code, out, err = run_cli(capsys, "kp", "--model", "oplus:3:7/2", "--tol", "1e-300")
    assert code == 2
    assert out == ""
    assert "error[tol-below-precision]" in err


def test_tol_below_rounding_of_the_sum_refused(capsys):
    # converged at L = 95 by its tail, but the partial sum near 243.1 has an ulp
    # of 1.4e-17 at 64 bits
    argv = ["kp", "--model", "djq:A2:1/2", "--p", "4", "--precision-bits", "64", "--tol", "1e-18"]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "error[tol-below-rounding]" in err


# -- decay / constants -----------------------------------------------------------------


def test_decay_command(capsys):
    code, out, err = run_cli(capsys, "decay", "--model", "oplus:3:3.5", "--horizon", "30")
    assert code == 0
    report = json.loads(out)
    assert float(report["theoretical_base"]) == pytest.approx(0.8216944, abs=1e-6)


def test_constants_command(capsys):
    code, out, err = run_cli(
        capsys, "constants", "--model", "djq:A1:1/2", "--p", "4", "--r", "3"
    )
    assert code == 0
    report = json.loads(out)
    assert report["exponents"] == {"c_2_1": "2", "c_p_1": "3", "c_r_1": "8/3"}


def test_constants_evaluates_kp_once(capsys, monkeypatch):
    from cqgkhint.khintchine import KpEvaluator

    calls = []
    original = KpEvaluator.kp_constant

    def counting(self, *args, **kwargs):
        calls.append(args)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(KpEvaluator, "kp_constant", counting)
    code, out, err = run_cli(
        capsys, "constants", "--model", "djq:A1:1/2", "--p", "4", "--r", "3"
    )
    assert code == 0
    assert len(calls) == 1


def test_constants_kac_rejected(capsys):
    code, out, err = run_cli(capsys, "constants", "--model", "aut:4:3", "--p", "4", "--r", "2")
    assert code == 2
    assert "kac-divergent" in err


@pytest.mark.parametrize(
    "argv, err",
    [
        (["--p", "6"], "error[p-out-of-range]: p must be a power of 2 with p >= 4, got 6\n"),
        (["--p", "3"], "error[p-out-of-range]: p >= 4 is required, got 3\n"),
        (["--r", "1/2"], "error[bad-r]: r >= 1 is required, got 1/2\n"),
    ],
)
def test_constants_checks_p_and_r_before_summing(capsys, monkeypatch, argv, err):
    # a refused (p, r) must not cost a K_p sum first (16 s for djq:A4:1/2 at p = 6)
    from cqgkhint.khintchine import KpEvaluator

    def refuse(self, *args, **kwargs):
        raise AssertionError("K_p was summed before p and r were checked")

    monkeypatch.setattr(KpEvaluator, "kp_constant", refuse)
    assert run_cli(capsys, "constants", "--model", "djq:A4:1/2", *argv) == (2, "", err)


@pytest.mark.parametrize("p", ["1", "2", "3", "6"])
def test_constants_library_and_cli_refuse_p_alike(capsys, p):
    from cqgkhint.khintchine import PValueError, norm_equivalence_constants

    with pytest.raises(PValueError) as refused:
        norm_equivalence_constants("djq:A1:1/2", Fraction(p), 2)
    expected = f"error[p-out-of-range]: {refused.value}\n"
    assert run_cli(capsys, "constants", "--model", "djq:A1:1/2", "--p", p) == (2, "", expected)


@pytest.mark.parametrize(
    "argv, code",
    [
        (["decay", "--model", "oplus:3:7/2", "--horizon", "0"], "bad-horizon"),
        (["fusion", "--rule", "su2", "--k", "-1", "--l", "1"], "bad-fusion-label"),
        (["constants", "--model", "djq:A1:1/2", "--r", "-2"], "bad-r"),
    ],
)
def test_refusals_carry_their_own_codes(capsys, argv, code):
    exit_code, out, err = run_cli(capsys, *argv)
    assert (exit_code, out) == (2, "")
    assert err.startswith(f"error[{code}]: ")


# -- verify ------------------------------------------------------------------------------


@pytest.mark.parametrize("spec", ["djq:A1:1/2", "djq:B2:3/4", "oplus:3:3.5", "aut:4:5", "oplus:3:3"])
def test_verify_passes(capsys, spec):
    code, out, err = run_cli(capsys, "verify", "--model", spec)
    assert code == 0
    report = json.loads(out)
    assert report["all_passed"] is True


@pytest.mark.parametrize(
    "spec, horizon", [("djq:A2:1/2", "0"), ("oplus:3:7/2", "-5"), ("aut:5:5", "0")]
)
def test_verify_horizon_below_one_refused(capsys, spec, horizon):
    # a horizon below 1 examines only the trivial label, where n = d for every model
    code, out, err = run_cli(capsys, "verify", "--model", spec, "--horizon", horizon)
    assert (code, out) == (2, "")
    assert err == "error[bad-horizon]: horizon must be >= 1\n"


# -- table -------------------------------------------------------------------------------


def test_table_ratios(capsys):
    code, out, err = run_cli(
        capsys, "table", "--model", "aut:4:5", "--kind", "ratios", "--max-length", "4",
        "--format", "csv",
    )
    assert code == 0
    lines = [line for line in out.splitlines() if not line.startswith("#")]
    assert lines[0] == "length,label,n_over_d"
    assert len(lines) == 6


def test_table_kp(capsys):
    code, out, err = run_cli(
        capsys, "table", "--model", "djq:A1:1/2", "--kind", "kp", "--p-list", "2,4",
    )
    assert code == 0
    report = json.loads(out)
    assert [row["p"] for row in report["rows"]] == ["2", "4"]
    assert all(row["verdict"] == "converged" for row in report["rows"])


# -- validation and diagnostics -------------------------------------------------------------


def test_malformed_spec_diagnostic(capsys):
    code, out, err = run_cli(capsys, "kp", "--model", "qq:1:2", "--p", "4")
    assert code == 2
    assert "bad-model-spec" in err


def test_missing_model_diagnostic(capsys):
    code, out, err = run_cli(capsys, "dims", "--max-length", "3")
    assert code == 2
    assert "missing-model" in err


def test_invalid_parameter_diagnostics(capsys):
    code, out, err = run_cli(capsys, "kp", "--model", "djq:A1:3/2", "--p", "4")
    assert code == 2 and "q-out-of-range" in err
    code, out, err = run_cli(capsys, "kp", "--model", "oplus:3:2.5", "--p", "4")
    assert code == 2 and "nq-below-n" in err
    code, out, err = run_cli(capsys, "kp", "--model", "aut:4:2", "--p", "4")
    assert code == 2 and "d1-below-minimum" in err
    code, out, err = run_cli(capsys, "kp", "--model", "oplus:3:3.5", "--p", "1")
    assert code == 2 and "p-out-of-range" in err


def test_rational_literals_accepted(capsys):
    code, out, err = run_cli(capsys, "dims", "--model", "oplus:3:7/2", "--max-length", "1")
    assert code == 0
    assert json.loads(out)["model"] == "oplus:3:7/2"


@pytest.mark.parametrize(
    "argv",
    [
        ["kp", "--model", "oplus:3:4", "--p", "1/0"],
        ["constants", "--model", "oplus:3:4", "--r", "1/0"],
    ],
)
def test_zero_denominator_flag_is_a_usage_error(capsys, argv):
    # a zero denominator reads like any malformed number: exit 2, no traceback
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "invalid Fraction value: '1/0'" in capsys.readouterr().err


# -- config file -----------------------------------------------------------------------------


def test_config_supplies_defaults_flags_override(tmp_path, capsys):
    config = tmp_path / "conf.json"
    config.write_text(json.dumps({"model": "oplus:3:3.5", "p": 4, "max_length": 8}))
    code, out, err = run_cli(capsys, "kp", "--config", str(config))
    assert code == 3  # max_length 8 is inconclusive at p=4 (the cutoff is 13)
    code, out, err = run_cli(capsys, "kp", "--config", str(config), "--max-length", "2000")
    assert code == 0  # the flag overrides the config value


def test_config_unknown_key_rejected(tmp_path, capsys):
    config = tmp_path / "conf.json"
    config.write_text(json.dumps({"modle": "oplus:3:3.5"}))
    code, out, err = run_cli(capsys, "kp", "--config", str(config), "--model", "oplus:3:3.5")
    assert code == 2
    assert "bad-config" in err


@pytest.mark.parametrize(
    "config,flags,expected_code,expected_err",
    [
        ({"tol": "1e-10"}, ["--tol", "1e-10"], 0, ""),
        ({"max_length": "8"}, ["--max-length", "8"], 3, ""),
        ({"model": 5}, None, 2, "error[bad-model-spec]: malformed model spec '5'"),
        (5, None, 2, "error[bad-config]"),
        ({"format": "xml"}, None, 2, "error[bad-config]: config key 'format'"),
        ({"precision_bits": 128.5}, None, 2, "error[bad-config]: config key 'precision_bits'"),
        ({"p": "1/0"}, None, 2, "error[bad-config]: config key 'p': cannot read '1/0'"),
    ],
)
def test_config_values_read_like_their_flags(
    tmp_path, capsys, config, flags, expected_code, expected_err
):
    # a value is read by its flag's own type and choices, or refused naming the key
    path = tmp_path / "conf.json"
    path.write_text(json.dumps(config))
    model = [] if isinstance(config, dict) and "model" in config else ["--model", "oplus:3:3.5"]
    code, out, err = run_cli(capsys, "kp", "--config", str(path), *model)
    assert code == expected_code
    assert err.startswith(expected_err)
    if flags is not None:
        assert (code, out) == run_cli(capsys, "kp", *flags, *model)[:2]


# -- one definition per command and per option --------------------------------------------------

# the option strings each subcommand's --help lists, in order
_COMMON = [
    "-h", "--help", "--model", "--format", "--output", "--precision-bits", "--config", "--workers"
]
_HELP_OPTIONS = {
    "dims": [*_COMMON, "--max-length"],
    "spectrum": [*_COMMON, "--mu"],
    "fusion": [*_COMMON, "--rule", "--k", "--l"],
    "kp": [*_COMMON, "--max-length", "--p", "--tol"],
    "decay": [*_COMMON, "--horizon"],
    "constants": [*_COMMON, "--max-length", "--p", "--tol", "--r"],
    "verify": [*_COMMON, "--horizon"],
    "table": [*_COMMON, "--max-length", "--tol", "--kind", "--p-list"],
}


def _help_text(capsys, *argv) -> str:
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--help"])
    assert exc.value.code == 0
    return capsys.readouterr().out


def test_help_lists_the_commands_in_order(capsys):
    usage = _help_text(capsys).split("\n\n")[0]
    assert re.search(r"\{([\w,]+)\}", usage).group(1).split(",") == list(_HELP_OPTIONS)


@pytest.mark.parametrize("command", _HELP_OPTIONS)
def test_help_lists_each_commands_options_in_order(capsys, command):
    # an option line starts with its flags ("  -h, --help", "  --model MODEL"); read them
    # off those lines, so that where argparse wraps the usage and the help does not matter
    lines = _help_text(capsys, command).splitlines()
    found = [
        flag
        for line in lines
        if re.match(r"\s+-", line)
        for flag in re.findall(r"(?:^\s+|, )(-[\w-]+)", line)
    ]
    assert found == _HELP_OPTIONS[command]


# a cheap run of each command; an option under test replaces its entry here
_BASE = {
    "dims": {"model": "oplus:3:3.5", "max_length": "3"},
    "spectrum": {"model": "djq:A2:1/2", "mu": "1,1"},
    "fusion": {"rule": "so3", "k": "3", "l": "2"},
    "kp": {"model": "oplus:3:3.5"},
    "decay": {"model": "oplus:3:3.5", "horizon": "6"},
    "constants": {"model": "oplus:3:3.5", "r": "3"},
    "verify": {"model": "oplus:3:3.5", "horizon": "3"},
    "table": {"model": "oplus:3:3.5", "kind": "kp", "p_list": "3"},
}
# a value of each option that changes the report of every base run that takes it
_VALUES = {
    "model": "djq:B2:1/2",
    "format": "csv",
    "output": "report.out",
    "precision_bits": "128",
    "workers": "2",  # accepted and ignored
    "max_length": "9",
    "p": "5",
    "tol": "1e-8",
    "r": "5/2",
    "mu": "2,1",
    "rule": "su2",
    "k": "4",
    "l": "1",
    "horizon": "5",
    "kind": "ratios",
    "p_list": "3,6",
}


def _takes(command: str, option: str) -> bool:
    return "--" + option.replace("_", "-") in _HELP_OPTIONS[command]


def _run_with(capsys, command: str, flags: dict, config: dict | None = None):
    """Exit code, stdout, stderr and ``--output`` bytes of ``command`` run in the
    current directory with ``flags`` given as flags and ``config`` as its config file."""
    argv = [command]
    for option, value in flags.items():
        argv += ["--" + option.replace("_", "-"), value]
    if config is not None:
        Path("conf.json").write_text(json.dumps(config))
        argv += ["--config", "conf.json"]
    code, out, err = run_cli(capsys, *argv)
    output = Path(_VALUES["output"])
    written = output.read_bytes() if output.exists() else None
    output.unlink(missing_ok=True)
    return code, out, err, written


@pytest.mark.parametrize(
    "command,option",
    [(c, o) for c in _BASE for o in _VALUES if _takes(c, o)],
)
def test_flag_and_config_key_give_the_same_report(tmp_path, monkeypatch, capsys, command, option):
    monkeypatch.chdir(tmp_path)
    base = {key: value for key, value in _BASE[command].items() if key != option}
    by_flag = _run_with(capsys, command, {**base, option: _VALUES[option]})
    assert by_flag == _run_with(capsys, command, base, {option: _VALUES[option]})
    assert option == "workers" or by_flag != _run_with(capsys, command, _BASE[command])


@pytest.mark.parametrize(
    "command,option",
    [(c, o) for c in _BASE for o in _VALUES if not _takes(c, o)],
)
def test_config_key_of_an_option_the_command_lacks_is_ignored(
    tmp_path, monkeypatch, capsys, command, option
):
    monkeypatch.chdir(tmp_path)
    expected = _run_with(capsys, command, _BASE[command])
    assert _run_with(capsys, command, _BASE[command], {option: _VALUES[option]}) == expected


@pytest.mark.parametrize(
    "command,option,shown",
    [(command, "precision_bits", 192) for command in _BASE]
    + [
        ("dims", "max_length", 2000),
        ("kp", "max_length", 2000),
        ("decay", "horizon", 12),
        ("verify", "horizon", 12),
        ("kp", "tol", "1e-10"),
        ("kp", "p", "4"),
        ("constants", "p", "4"),
        ("constants", "r", "2"),
        ("table", "kind", "ratios"),
    ],
)
def test_default_shows_in_the_report(tmp_path, monkeypatch, capsys, command, option, shown):
    monkeypatch.chdir(tmp_path)
    base = {key: value for key, value in _BASE[command].items() if key != option}
    code, out, err, _ = _run_with(capsys, command, base)
    assert (code, err) == (0, "")
    assert json.loads(out)[option] == shown  # a JSON report: the default format


@pytest.mark.parametrize("key", ["config", "help", "command"])
def test_config_keys_that_name_no_option_refused(tmp_path, monkeypatch, capsys, key):
    monkeypatch.chdir(tmp_path)
    code, out, err, _ = _run_with(capsys, "kp", _BASE["kp"], {key: "x"})
    assert (code, out) == (2, "")
    assert err == f"error[bad-config]: unknown config keys: ['{key}']\n"


# -- one table for JSON and CSV -----------------------------------------------------------------

_ENVELOPE = ("schema", "command", "model", "normalization", "precision_bits")


def _csv_view(report):
    """The ``(header, rows)`` the CSV form must carry, read off the JSON report."""
    body = {key: value for key, value in report.items() if key not in _ENVELOPE}
    command = report["command"]
    if command in ("dims", "table"):
        header = list(body["rows"][0])
        assert all(list(record) == header for record in body["rows"])
        return header, [list(record.values()) for record in body["rows"]]
    if command == "verify":
        assert all(list(check) == ["name", "passed", "detail"] for check in body["checks"])
        return ["check", "passed", "detail"], [list(check.values()) for check in body["checks"]]
    if command == "spectrum":
        return ["eigenvalue", "multiplicity"], body["entries"]
    if command == "fusion":
        return ["label", "multiplicity"], body["decomposition"]
    if command == "kp":
        keys = ["p", "terms_summed", "partial_sum", "tail_bound", "verdict"]
        row = [body[key] for key in keys] + (body["kp_interval"] or ["", ""])
        return keys + ["kp_lower", "kp_upper"], [row]
    if command == "constants":
        exponents, constants = body["exponents"], body["constants"]
        header = ["p", "r", *(f"exp_{key}" for key in exponents), *constants]
        return header, [[body["p"], body["r"], *exponents.values(), *constants.values()]]
    assert command == "decay"
    return list(body), [list(body.values())]


@pytest.mark.parametrize(
    "argv",
    [
        ["dims", "--model", "oplus:3:7/2", "--max-length", "3"],
        ["dims", "--model", "djq:A2:1/2", "--max-length", "2"],
        ["spectrum", "--model", "djq:A2:1/2", "--mu", "1,1"],
        ["fusion", "--rule", "so3", "--k", "2", "--l", "3"],
        ["kp", "--model", "oplus:3:7/2", "--p", "4"],
        ["kp", "--model", "oplus:3:3"],
        ["kp", "--model", "oplus:3:7/2", "--p", "16", "--max-length", "10"],
        ["decay", "--model", "oplus:3:7/2", "--horizon", "20"],
        ["constants", "--model", "djq:A1:1/2", "--p", "4", "--r", "3"],
        ["verify", "--model", "djq:A1:1/2"],
        ["table", "--model", "aut:5:5", "--kind", "ratios", "--max-length", "3"],
        ["table", "--model", "djq:A1:1/2", "--kind", "kp", "--p-list", "2,4"],
    ],
    ids=" ".join,
)
def test_csv_rows_carry_the_json_values(capsys, argv):
    json_code, out, _ = run_cli(capsys, *argv)
    csv_code, csv_out, _ = run_cli(capsys, *argv, "--format", "csv")
    assert json_code == csv_code and json_code in (0, 3)
    report = json.loads(out)
    lines = csv_out.splitlines()
    preamble = [f"# {key}: {report[key]}" for key in _ENVELOPE]
    assert lines[: len(_ENVELOPE)] == preamble
    header, *rows = csv.reader(lines[len(_ENVELOPE) :])
    want_header, want_rows = _csv_view(report)
    assert header == want_header
    assert rows == [["" if value is None else str(value) for value in row] for row in want_rows]


def test_data_reports_match_bench_reference_digests(capsys, monkeypatch):
    # the exact reports of the benchmark's data-reports workload, every seed
    monkeypatch.syspath_prepend(str(BENCH))
    import oracle
    import workloads

    ref = oracle.load_reference()
    commands = [cmd for cmd in workloads.every_command("data-reports") if cmd.check == "digest"]
    assert len(commands) == 11
    for cmd in sorted(commands, key=lambda cmd: cmd.text):
        code, out, err = run_cli(capsys, *cmd.args)
        assert oracle.check(cmd, code, out.encode(), ref) is None, (cmd.text, err)


def test_kp_reports_enclose_bench_references(capsys, monkeypatch):
    # the benchmark's K_p commands: every distinct dj-kp command, and the seed-0
    # dj-sweep and graded-kp commands (other seeds reorder or redraw their p-lists);
    # a summation kernel that misses a reference K_p fails here, not in a bench run
    monkeypatch.syspath_prepend(str(BENCH))
    import oracle
    import workloads

    ref = oracle.load_reference()
    commands = workloads.every_command("dj-kp")
    assert len(commands) == 10
    commands |= {*workloads.commands("dj-sweep", 0), *workloads.commands("graded-kp", 0)}
    for cmd in sorted(commands, key=lambda cmd: cmd.text):
        code, out, err = run_cli(capsys, *cmd.args)
        assert oracle.check(cmd, code, out.encode(), ref) is None, (cmd.text, err)


# -- determinism ------------------------------------------------------------------------------


@pytest.mark.parametrize("target", ["missing/report.json", "."])
def test_output_that_cannot_be_written_is_refused(tmp_path, capsys, target):
    # a missing directory and a directory: neither may end in a traceback or
    # in exit 1, which means a failed verify
    path = tmp_path / target
    code, out, err = run_cli(capsys, "dims", "--model", "oplus:3:7/2", "--output", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("error[bad-output]: cannot write the report to ")
    assert not (tmp_path / "missing").exists()


def test_kp_reports_byte_identical_across_runs_and_workers(tmp_path):
    base = ["kp", "--model", "djq:A2:1/2", "--p", "4", "--tol", "1e-10"]
    _, run1 = run_cli_to_file(tmp_path, "a.json", *base, "--workers", "1")
    _, run2 = run_cli_to_file(tmp_path, "b.json", *base, "--workers", "1")
    _, run4 = run_cli_to_file(tmp_path, "c.json", *base, "--workers", "4")
    assert run1 == run2 == run4


def test_verify_reports_byte_identical(tmp_path):
    base = ["verify", "--model", "djq:A1:1/2"]
    _, run1 = run_cli_to_file(tmp_path, "a.json", *base, "--workers", "1")
    _, run2 = run_cli_to_file(tmp_path, "b.json", *base, "--workers", "3")
    assert run1 == run2


def test_console_entry_point(tmp_path, capsys):
    proc = _fresh_python("-m", "cqgkhint.cli", "fusion", "--rule", "su2", "--k", "1", "--l", "1")
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["decomposition"] == [[0, 1], [2, 1]]
    # the one-shot process writes the same bytes and exit code as main() in process
    codes = []
    for argv in (
        ["kp", "--model", "djq:A2:1/2", "--p", "4"],
        ["table", "--model", "oplus:3:7/2", "--kind", "kp", "--p-list", "3,4", "--format", "csv"],
        ["kp", "--model", "djq:A2:1/2", "--p", "4", "--precision-bits", "64", "--tol", "1e-18"],
        ["kp", "--model", "oplus:3:7/2", "--p", "4", "--max-length", "10"],
    ):
        proc = _fresh_python("-m", "cqgkhint.cli", *argv, text=False)
        code, out, err = run_cli(capsys, *argv)
        assert (proc.returncode, proc.stdout, proc.stderr.decode()) == (code, out.encode(), err)
        codes.append((code, err.split("]")[0]))
    assert codes == [(0, ""), (0, ""), (2, "error[tol-below-rounding"), (3, "")]
    argv = ["dims", "--model", "aut:5:5"]
    proc = _fresh_python("-m", "cqgkhint.cli", *argv, "--output", str(tmp_path / "a.json"))
    code, in_process = run_cli_to_file(tmp_path, "b.json", *argv)
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, "", "")
    assert (tmp_path / "a.json").read_bytes() == in_process


# -- the collector in one-shot processes and in library calls ---------------------

_GC_STATE = "(gc.isenabled(), gc.get_freeze_count() > 0)"


def test_run_exits_with_the_collector_off_and_the_heap_frozen():
    # atexit handlers still run under run(), and the exit code is main()'s
    script = (
        "import atexit, gc, sys\n"
        f"atexit.register(lambda: print({_GC_STATE}))\n"
        f"print({_GC_STATE})\n"
        "sys.argv = ['cqgkhint', 'kp', '--model', 'oplus:3:7/2', '--p', '4', '--max-length', '10']\n"
        "from cqgkhint.cli import run\n"
        "run()\n"
    )
    proc = _fresh_python("-c", script)
    assert proc.returncode == 3, proc.stderr
    first, *report, last = proc.stdout.splitlines()
    assert (first, json.loads("".join(report))["verdict"], last) == (
        "(True, False)", "inconclusive", "(False, True)"
    )


def test_importing_the_cli_leaves_the_collector_alone():
    script = f"import gc\nbefore = {_GC_STATE}\nimport cqgkhint.cli\nprint(before == {_GC_STATE})\n"
    proc = _fresh_python("-c", script)
    assert proc.stdout.strip() == "True", proc.stderr


def _main_quietly(argv: list[str]) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main(argv)


@pytest.mark.parametrize(
    "argv, code",
    [
        (["fusion", "--rule", "su2", "--k", "1", "--l", "1"], 0),
        (["kp", "--model", "djq:A2:1/2", "--p", "4", "--precision-bits", "64", "--tol", "1e-18"], 2),
        (["kp", "--model", "oplus:3:7/2", "--p", "4", "--max-length", "10"], 3),
    ],
)
def test_main_leaves_the_collector_alone(argv, code):
    before = (gc.isenabled(), gc.get_freeze_count())
    assert _main_quietly(argv) == code
    assert (gc.isenabled(), gc.get_freeze_count()) == before


# run() is safe without the collector because a command leaves a fixed amount
# of cyclic garbage, whatever its input: the argparse parser, and the closures
# of the one JSON encoder when the report is JSON.  A cycle made per level,
# label or p would make the large input of a pair leave more than the small.
@pytest.mark.parametrize(
    "small, large",
    [
        (["kp", "--model", "djq:A1:1/2", "--p", "4"], ["kp", "--model", "djq:A3:1/2", "--p", "4"]),
        (["kp", "--model", "oplus:3:7/2", "--p", "4"], ["kp", "--model", "aut:6:7", "--p", "8", "--tol", "1e-30"]),
        (["kp", "--model", "oplus:3:3", "--p", "4"], ["kp", "--model", "aut:4:4", "--p", "6"]),
        (
            ["table", "--model", "oplus:3:7/2", "--kind", "kp", "--p-list", "4"],
            ["table", "--model", "djq:A2:1/2", "--kind", "kp", "--p-list", "3,4,6,8,12"],
        ),
        (
            ["table", "--model", "oplus:3:7/2", "--kind", "ratios", "--max-length", "5"],
            ["table", "--model", "aut:5:5", "--kind", "ratios", "--max-length", "600"],
        ),
        (["dims", "--model", "djq:A1:1/2", "--max-length", "3"], ["dims", "--model", "djq:A2:1/2", "--max-length", "60"]),
        (["spectrum", "--model", "djq:A2:1/2", "--mu", "1,0"], ["spectrum", "--model", "djq:A3:1/2", "--mu", "6,6,6"]),
        (["verify", "--model", "oplus:3:7/2", "--horizon", "2"], ["verify", "--model", "djq:C3:3/4"]),
        (["decay", "--model", "aut:5:5", "--horizon", "5"], ["decay", "--model", "djq:B2:3/4", "--horizon", "40"]),
        (
            ["constants", "--model", "djq:A1:1/2", "--p", "4", "--r", "3"],
            ["constants", "--model", "djq:B2:3/4", "--p", "4", "--r", "3"],
        ),
        (["fusion", "--rule", "su2", "--k", "1", "--l", "1"], ["fusion", "--rule", "so3", "--k", "40", "--l", "30"]),
        (
            ["kp", "--model", "djq:A1:1/2", "--p", "4", "--precision-bits", "64", "--tol", "1e-18"],
            ["kp", "--model", "djq:A2:1/2", "--p", "4", "--precision-bits", "64", "--tol", "1e-18"],
        ),
        (
            ["kp", "--model", "oplus:3:7/2", "--p", "4", "--max-length", "3"],
            ["kp", "--model", "oplus:3:7/2", "--p", "4", "--max-length", "10"],
        ),
    ],
)
def test_cyclic_garbage_of_a_command_does_not_grow_with_its_input(small, large):
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        _main_quietly(small)  # warm-up: first-use imports and caches
        gc.collect()
        found = []
        for argv in (small, large):
            _main_quietly(argv)
            found.append(gc.collect())
    finally:
        if enabled:
            gc.enable()
    assert found[0] == found[1], found


def test_spectrum_rank_two_weight(capsys):
    code, out, err = run_cli(capsys, "spectrum", "--model", "djq:A2:1/2", "--mu", "1,1")
    assert code == 0
    report = json.loads(out)
    assert report["n"] == 8
    assert report["mu"] == "1,1"
    code, out, err = run_cli(capsys, "spectrum", "--model", "djq:A2:1/2", "--mu", "1")
    assert code == 2 and "bad-weight" in err


def test_constants_csv_row(capsys):
    code, out, err = run_cli(
        capsys, "constants", "--model", "djq:A1:1/2", "--p", "4", "--r", "3",
        "--format", "csv",
    )
    assert code == 0
    lines = [line for line in out.splitlines() if not line.startswith("#")]
    assert lines[0] == "p,r,exp_c_2_1,exp_c_p_1,exp_c_r_1,c_2_1,c_p_1,c_r_1"
    assert lines[1].split(",")[2:5] == ["2", "3", "8/3"]


def test_kp_csv_divergent_row(capsys):
    code, out, err = run_cli(
        capsys, "kp", "--model", "aut:4:3", "--p", "4", "--format", "csv"
    )
    assert code == 0
    lines = [line for line in out.splitlines() if not line.startswith("#")]
    assert lines[0].startswith("p,terms_summed,partial_sum,tail_bound,verdict")
    assert ",divergent,," in lines[1]


def test_cli_commands_do_not_import_numpy():
    # numpy is loaded only when schur.CentralSeries is built; no CLI command needs it
    script = (
        "import contextlib, io, sys\n"
        "from cqgkhint.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert main(['kp', '--model', 'djq:A2:1/2', '--p', '4']) == 0\n"
        "    assert main(['dims', '--model', 'aut:5:5', '--max-length', '20']) == 0\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'numpy'))\n"
    )
    proc = _fresh_python("-c", script)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


# Modules the command itself loads, beyond those of the interpreter's start-up:
# no command loads mpmath, chebyshev, radical, schur or dataclasses/inspect;
# exact commands load neither the private copy of mpmath's libmp nor
# khintchine; only the commands given --model load models (fusion loads
# neither models nor record); only fusion and verify load fusion or verify;
# only Drinfeld-Jimbo models load rootsys; and only the K_p of a non-Kac
# graded model loads graded_tail.
_LOADED_BY_COMMAND = (
    "import json, runpy, sys\n"
    "before = set(sys.modules)\n"
    "sys.argv = ['cqgkhint', *sys.argv[1:]]\n"
    "try:\n"
    "    runpy.run_module('cqgkhint.cli', run_name='__main__', alter_sys=True)\n"
    "except SystemExit as exc:\n"
    "    print(json.dumps([exc.code, sorted(set(sys.modules) - before)]), file=sys.stderr)\n"
)
_ANY = {
    "mpmath",
    "cqgkhint.chebyshev",
    "cqgkhint.radical",
    "cqgkhint.schur",
    "dataclasses",
    "inspect",
}
_ASYMPTOTIC = {"cqgkhint.graded_tail"}
_NUMERIC = {"cqgkhint._libmp", "cqgkhint.khintchine"} | _ASYMPTOTIC
_REPORT = {"cqgkhint.fusion", "cqgkhint.verify"}
_ROOTSYS = {"cqgkhint.rootsys"}
_MODEL = {"cqgkhint.models", "cqgkhint.record"}
_EXACT = _ANY | _NUMERIC | _REPORT
_K_P = _ANY | _REPORT


@pytest.mark.parametrize(
    "argv, unused",
    [
        (
            ["fusion", "--rule", "su2", "--k", "1", "--l", "1"],
            _ANY | _NUMERIC | _ROOTSYS | _MODEL | {"cqgkhint.verify"},
        ),
        (["dims", "--model", "djq:A2:1/2", "--max-length", "3"], _EXACT),
        (["spectrum", "--model", "djq:A2:1/2", "--mu", "1,1"], _EXACT),
        (["verify", "--model", "oplus:3:7/2", "--horizon", "4"], _ANY | _NUMERIC | _ROOTSYS),
        (["verify", "--model", "djq:B2:3/4", "--horizon", "2"], _ANY | _NUMERIC),
        (["kp", "--model", "oplus:3:7/2", "--p", "4"], _K_P | _ROOTSYS),
        (["kp", "--model", "djq:B2:3/4", "--p", "4"], _K_P | _ASYMPTOTIC),
        (["kp", "--model", "oplus:3:3", "--p", "4"], _K_P | _ROOTSYS | _ASYMPTOTIC),
        (["table", "--model", "aut:5:5", "--kind", "kp", "--p-list", "3,4"], _K_P | _ROOTSYS),
        (["constants", "--model", "djq:A2:1/2", "--p", "4", "--r", "3"], _K_P | _ASYMPTOTIC),
        (["decay", "--model", "aut:5:5", "--horizon", "5"], _K_P | _ROOTSYS | _ASYMPTOTIC),
        (
            ["table", "--model", "aut:5:5", "--kind", "ratios", "--max-length", "5"],
            _ANY | _REPORT | _ROOTSYS | _ASYMPTOTIC | {"cqgkhint.khintchine"},
        ),
        (["dims", "--model", "aut:5:5", "--max-length", "3"], _EXACT | _ROOTSYS),
        (["decay", "--model", "djq:B2:3/4", "--horizon", "5"], _K_P | _ASYMPTOTIC),
    ],
)
def test_cli_commands_load_only_what_they_run(argv, unused):
    loaded = _loaded_by(argv)
    assert ("cqgkhint.models" in loaded) == ("--model" in argv)
    # a name in unused stands for itself and every submodule under it
    found = [m for m in loaded if any(m == u or m.startswith(f"{u}.") for u in unused)]
    assert not found, found


@pytest.mark.parametrize(
    "argv",
    [
        ["kp", "--model", "oplus:3:7/2", "--p", "4"],
        ["table", "--model", "aut:5:5", "--kind", "kp", "--p-list", "3,4"],
    ],
)
def test_graded_kp_loads_the_asymptotic_tail(argv):
    # the commands above that leave out mpmath, dataclasses and inspect do load it
    assert "cqgkhint.graded_tail" in _loaded_by(argv)


def _loaded_by(argv: list[str]) -> list[str]:
    """The modules a fresh CLI process loads for ``argv``, once it exits 0."""
    proc = _fresh_python("-c", _LOADED_BY_COMMAND, *argv)
    code, loaded = json.loads(proc.stderr.splitlines()[-1])
    assert code == 0, proc.stderr
    return loaded
