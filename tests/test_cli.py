import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from cqgkhint.cli import main

BENCH = Path(__file__).resolve().parent.parent / "bench"

def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_cli_to_file(tmp_path, name, *argv):
    path = tmp_path / name
    code = main(list(argv) + ["--output", str(path)])
    return code, path.read_bytes()


# -- dims -----------------------------------------------------------------------


def test_dims_table_example(capsys):
    code, out, err = run_cli(
        capsys, "dims", "--model", "djq:A1:1/2", "--max-length", "3"
    )
    assert code == 0
    report = json.loads(out)
    assert report["schema"] == "cqgkhint/v1"
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


def test_kp_tol_below_precision_refused(capsys):
    code, out, err = run_cli(capsys, "kp", "--model", "oplus:3:7/2", "--tol", "1e-300")
    assert code == 2
    assert out == ""
    assert "error[tol-below-precision]" in err


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
    assert err == "error[invalid-input]: horizon must be >= 1\n"


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
    config.write_text(json.dumps({"model": "oplus:3:3.5", "p": 4, "max_length": 40}))
    code, out, err = run_cli(capsys, "kp", "--config", str(config))
    assert code == 3  # max_length 40 is inconclusive at p=4
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
        ({"max_length": "50"}, ["--max-length", "50"], 3, ""),
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


def test_console_entry_point():
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "cqgkhint.cli", "fusion", "--rule", "su2", "--k", "1", "--l", "1"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["decomposition"] == [[0, 1], [2, 1]]


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
    src = str(Path(__file__).resolve().parent.parent / "src")
    script = (
        "import contextlib, io, sys\n"
        "from cqgkhint.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert main(['kp', '--model', 'djq:A2:1/2', '--p', '4']) == 0\n"
        "    assert main(['dims', '--model', 'aut:5:5', '--max-length', '20']) == 0\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'numpy'))\n"
    )
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
