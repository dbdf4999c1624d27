import io
import json
import os
import subprocess
import sys
import time

import pytest

from qcapelli import cli
from qcapelli.cli import (
    EXIT_CONFIG,
    EXIT_FAIL,
    EXIT_INTERNAL,
    EXIT_PASS,
    EXIT_RESOURCE,
    main,
)


def run(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


def test_verify_fixed_point():
    code, text = run(["verify", "--rmatrix", "dj", "--N", "2",
                      "--identity", "th", "--k", "2", "--q", "3/5"])
    assert code == EXIT_PASS
    assert text.startswith("PASS  th  dj(2)")


def test_wrong_alpha_fails():
    code, text = run(["verify", "--identity", "th", "--alpha", "1"])
    assert code == EXIT_FAIL
    assert "FAIL" in text
    assert "residual entries" in text


def test_shift_scan_control_passes():
    code, text = run(["verify", "--identity", "shift-scan", "--k", "2"])
    assert code == EXIT_PASS


def test_structured_record_fields():
    code, text = run(["verify", "--identity", "th", "--k", "2",
                      "--format", "structured"])
    assert code == EXIT_PASS
    record = json.loads(text.strip())
    for field in ("identity", "params", "rmatrix", "q_points", "outcome",
                  "residual_sample", "timings_ms", "backend"):
        assert field in record
    assert record["outcome"] == "pass"
    assert record["q_points"] == ["symbolic"]
    assert record["details"]["projector_rank"] == 1


# each identity with only the flags it reads
FLAGS_READ = {
    "cap-as": ["--k", "2"],
    "cap-s": ["--k", "2"],
    "cap1": [],
    "mre": [],
    "re-ideal": [],
    "consum": ["--k", "2"],
    "h-copy": ["--p", "1"],
    "classical": [],
}


@pytest.mark.parametrize("ident", list(FLAGS_READ))
def test_each_identity_passes(ident):
    code, text = run(["verify", "--identity", ident] + FLAGS_READ[ident])
    assert code == EXIT_PASS, text


@pytest.mark.parametrize("argv", [
    ["verify", "--identity", "mre", "--k", "9", "--p", "7"],
    ["verify", "--identity", "cap1", "--k", "5"],
    ["verify", "--identity", "th", "--p", "5"],
    ["verify", "--identity", "classical", "--q", "3/5"],
    ["verify", "--identity", "classical", "--rmatrix", "flip"],
    ["suite", "smoke"],
    ["verify", "--identity", "shift-scan", "--alpha", "1"],
])
def test_flag_the_identity_does_not_read_is_config_error(argv):
    code, text = run(argv)
    assert code == EXIT_CONFIG, text
    assert text.startswith("configuration error"), text


def test_closed_output_is_not_a_verdict():
    class Closed:
        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

    for argv in (["verify", "--identity", "th", "--alpha", "1"],
                 ["verify", "--identity", "mre", "--k", "9"]):
        assert main(argv, out=Closed()) == EXIT_INTERNAL


@pytest.mark.parametrize("unbuffered", [False, True])
def test_closed_stdout_exits_quietly(unbuffered):
    """A reader gone before the verdict: exit 4 and no traceback, whether
    the verdict is written at once or only at the flush."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(
        os.path.dirname(cli.__file__)))
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "qcapelli.cli", "verify", "--identity",
             "mre"], stdout=write_end, stderr=subprocess.PIPE, env=env,
            timeout=120)
    finally:
        os.close(write_end)
    assert proc.returncode == EXIT_INTERNAL, proc.stderr
    assert proc.stderr == b""


def test_exchange_general_positions():
    code, _ = run(["verify", "--identity", "exchange-general",
                   "--p", "2", "--k", "3"])
    assert code == EXIT_PASS
    code, text = run(["verify", "--identity", "exchange-general",
                      "--p", "2", "--k", "2"])
    assert code == EXIT_CONFIG
    assert "configuration error" in text


def test_validate_catalog():
    code, text = run(["validate", "--rmatrix", "dj", "--N", "3",
                      "--q", "3/5"])
    assert code == EXIT_PASS
    assert "rank=3" in text


def test_validate_file_roundtrip(tmp_path):
    good = tmp_path / "good.rmx"
    good.write_text(json.dumps({
        "N": 2, "q": "symbolic", "entries": [
            {"i": 1, "j": 1, "k": 1, "l": 1, "value": "q"},
            {"i": 2, "j": 2, "k": 2, "l": 2, "value": "q"},
            {"i": 1, "j": 2, "k": 2, "l": 1, "value": "1"},
            {"i": 2, "j": 1, "k": 1, "l": 2, "value": "1"},
            {"i": 1, "j": 2, "k": 1, "l": 2, "value": "q - q^(-1)"},
        ]}))
    code, text = run(["validate", "--rmatrix", "file:%s" % good])
    assert code == EXIT_PASS
    assert "skew-invertible" in text


def test_validate_names_failing_check(tmp_path):
    bad = tmp_path / "bad.rmx"
    bad.write_text(json.dumps({
        "N": 2, "q": "symbolic", "entries": [
            {"i": 1, "j": 1, "k": 1, "l": 1, "value": "q"},
            {"i": 2, "j": 2, "k": 2, "l": 2, "value": "q"},
            {"i": 1, "j": 2, "k": 2, "l": 1, "value": "1"},
            {"i": 2, "j": 1, "k": 1, "l": 2, "value": "7"},
        ]}))
    code, text = run(["validate", "--rmatrix", "file:%s" % bad])
    assert code == EXIT_FAIL
    assert "hecke" in text


def test_validate_missing_file():
    code, text = run(["validate", "--rmatrix", "file:/nonexistent.rmx"])
    assert code == EXIT_CONFIG


def test_verify_file_source(tmp_path):
    src = tmp_path / "dj2.rmx"
    src.write_text(json.dumps({
        "N": 2, "q": "3/5", "entries": [
            {"i": 1, "j": 1, "k": 1, "l": 1, "value": "q"},
            {"i": 2, "j": 2, "k": 2, "l": 2, "value": "q"},
            {"i": 1, "j": 2, "k": 2, "l": 1, "value": "1"},
            {"i": 2, "j": 1, "k": 1, "l": 2, "value": "1"},
            {"i": 1, "j": 2, "k": 1, "l": 2, "value": "q - q^(-1)"},
        ]}))
    code, text = run(["verify", "--rmatrix", "file:%s" % src,
                      "--identity", "th", "--k", "2"])
    assert code == EXIT_PASS


def test_unknown_suite():
    code, text = run(["suite", "nope"])
    assert code == EXIT_CONFIG
    assert "unknown suite" in text


def test_rule_cap_aborts(monkeypatch):
    monkeypatch.setenv("QCAPELLI_RULE_CAP", "3")
    code, text = run(["verify", "--identity", "th", "--k", "2"])
    assert code == EXIT_RESOURCE
    assert "resource cap" in text


def test_degree_cap_aborts(monkeypatch):
    monkeypatch.setenv("QCAPELLI_MAX_DEGREE", "1")
    code, text = run(["verify", "--identity", "th", "--k", "2"])
    assert code == EXIT_RESOURCE


@pytest.mark.parametrize("ident", ["th", "th-s", "cap-as", "cap-s",
                                   "shift-scan"])
@pytest.mark.parametrize("N", ["2", "1"])
def test_chain_longer_than_the_degree_cap_aborts_at_once(ident, N):
    # the default cap is 12; a 2^13-dimensional projector is never built
    t0 = time.perf_counter()
    code, text = run(["verify", "--identity", ident, "--N", N, "--k", "13"])
    assert code == EXIT_RESOURCE, text
    assert text.startswith("resource cap"), text
    assert time.perf_counter() - t0 < 5


@pytest.mark.parametrize("argv", [
    ["--identity", "consum", "--k", "4"],
    ["--identity", "h-copy", "--p", "3"],
    ["--identity", "exchange-general", "--p", "1", "--k", "4"],
])
def test_legs_beyond_the_degree_cap_abort(argv, monkeypatch):
    monkeypatch.setenv("QCAPELLI_MAX_DEGREE", "3")
    code, text = run(["verify"] + argv)
    assert code == EXIT_RESOURCE, text
    assert text.startswith("resource cap"), text


def test_rigor_honours_the_caps(monkeypatch):
    monkeypatch.setenv("QCAPELLI_MAX_DEGREE", "1")
    code, text = run(["verify", "--identity", "th", "--k", "2", "--rigor"])
    assert code == EXIT_RESOURCE
    monkeypatch.delenv("QCAPELLI_MAX_DEGREE")
    monkeypatch.setenv("QCAPELLI_RULE_CAP", "3")
    code, text = run(["verify", "--identity", "th", "--k", "2", "--rigor"])
    assert code == EXIT_RESOURCE
    assert "resource cap" in text


def test_unexpected_exception_is_an_internal_error(monkeypatch):
    def broken(ctx):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "verify_mre", broken)
    code, text = run(["verify", "--identity", "mre"])
    assert code == EXIT_INTERNAL
    assert text == "internal error: RuntimeError: boom\n"


def test_crash_in_a_suite_check_is_not_a_verdict(monkeypatch):
    from qcapelli import suites

    def broken(*args):
        raise TypeError("boom")

    monkeypatch.setattr(suites, "HeckeSymmetry", broken)
    code, text = run(["suite", "full"])
    assert code == EXIT_INTERNAL
    assert "internal error: TypeError: boom" in text


def _dj2_file(path, **changes):
    rec = {"N": 2, "q": "3/5", "entries": [
        {"i": 1, "j": 1, "k": 1, "l": 1, "value": "q"},
        {"i": 2, "j": 2, "k": 2, "l": 2, "value": "q"},
        {"i": 1, "j": 2, "k": 2, "l": 1, "value": "1"},
        {"i": 2, "j": 1, "k": 1, "l": 2, "value": "1"},
        {"i": 1, "j": 2, "k": 1, "l": 2, "value": "q - q^(-1)"},
    ]}
    rec.update(changes)
    path.write_text(json.dumps(rec))
    return "file:%s" % path


@pytest.mark.parametrize("command", ["verify", "validate"])
def test_malformed_symmetry_input_is_config_error(tmp_path, command):
    bad_index = [{"i": "1", "j": 1, "k": 1, "l": 1, "value": "q"}]
    zero_division = [{"i": 1, "j": 1, "k": 1, "l": 1, "value": "1/0"}]
    sources = [
        ["--rmatrix", _dj2_file(tmp_path / "q1.rmx", q="abc")],
        ["--rmatrix", _dj2_file(tmp_path / "q2.rmx", q="1/0")],
        ["--rmatrix", _dj2_file(tmp_path / "v.rmx", entries=zero_division)],
        ["--rmatrix", _dj2_file(tmp_path / "i.rmx", entries=bad_index)],
        ["--rmatrix", _dj2_file(tmp_path / "n.rmx", N=6)],
        ["--N", "-1"],
        ["--N", "0"],
        ["--N", "6"],
        ["--rmatrix", "flip", "--N", "6"],
    ]
    for source in sources:
        code, text = run([command] + source)
        assert code == EXIT_CONFIG, (source, text)
        assert text.startswith("configuration error"), (source, text)


@pytest.mark.parametrize("command", [["verify", "--identity", "mre"],
                                     ["validate"]])
def test_unreadable_rmatrix_file_is_config_error(tmp_path, command):
    latin1 = tmp_path / "latin1.rmx"
    latin1.write_bytes(b"\xff\xfe")
    for path in (tmp_path, latin1):
        code, text = run(command + ["--rmatrix", "file:%s" % path])
        assert code == EXIT_CONFIG, text
        assert text.startswith("configuration error"), text


@pytest.mark.parametrize("N", ["0", "-1", "6"])
def test_classical_rejects_dimensions_outside_the_alphabet(N):
    code, text = run(["verify", "--identity", "classical", "--N", N])
    assert code == EXIT_CONFIG, text
    assert text.startswith("configuration error")


def test_bad_q_is_config_error():
    code, text = run(["verify", "--identity", "th", "--q", "0"])
    assert code == EXIT_CONFIG
    code, text = run(["verify", "--identity", "th", "--q", "zebra"])
    assert code == EXIT_CONFIG


def test_bad_alpha_is_config_error():
    code, text = run(["verify", "--identity", "th", "--alpha", "q^^"])
    assert code == EXIT_CONFIG


@pytest.mark.parametrize("alpha, position", [("q^\u00b2", 2),
                                             ("\u0663", 0)])
def test_non_ascii_digit_in_alpha_is_config_error(alpha, position):
    code, text = run(["verify", "--identity", "th", "--alpha", alpha])
    assert code == EXIT_CONFIG, text
    assert text.startswith("configuration error"), text
    assert "(at position %d)" % position in text, text


@pytest.mark.parametrize("command", ["verify", "validate"])
def test_non_ascii_digit_in_rmatrix_entry_is_config_error(tmp_path, command):
    entries = [{"i": 1, "j": 1, "k": 1, "l": 1, "value": "q^\u00b2"}]
    source = _dj2_file(tmp_path / "sup.rmx", entries=entries)
    code, text = run([command, "--rmatrix", source])
    assert code == EXIT_CONFIG, text
    assert text.startswith("configuration error"), text
    assert "(at position 2)" in text, text


@pytest.mark.parametrize("argv", [
    ["--alpha", "1/0"],
    ["--alpha", "0^(-1)"],
    ["--q", "3/5", "--alpha", "q/(q-q)"],
])
def test_division_by_zero_in_alpha_is_config_error(argv):
    code, text = run(["verify", "--identity", "th"] + argv)
    assert code == EXIT_CONFIG, text
    assert text.startswith("configuration error"), text


def test_rigor_constraints(tmp_path):
    code, text = run(["verify", "--identity", "cap1", "--rigor"])
    assert code == EXIT_CONFIG
    code, text = run(["verify", "--identity", "th", "--rigor",
                      "--q", "3/5"])
    assert code == EXIT_CONFIG
    # symbolic q but no family to rebuild at the points
    for source in (["--rmatrix", "flip"],
                   ["--rmatrix", _dj2_file(tmp_path / "s.rmx",
                                           q="symbolic")]):
        code, text = run(["verify", "--identity", "th", "--rigor"] + source)
        assert code == EXIT_CONFIG, (source, text)
        assert text.startswith("configuration error"), (source, text)


@pytest.mark.parametrize("argv", [
    ["--identity", "th", "--k", "1", "--alpha", "7"],
    ["--identity", "th-s", "--k", "1", "--alpha", "7"],
    ["--identity", "shift-scan", "--k", "1", "--alpha", "7"],
    ["--identity", "cap-as", "--alpha", "5"],
    ["--identity", "mre", "--alpha", "5"],
    ["--identity", "classical", "--alpha", "5"],
    ["--identity", "th", "--rigor", "--alpha", "5"],
])
def test_alpha_that_would_be_ignored_is_config_error(argv):
    code, text = run(["verify"] + argv)
    assert code == EXIT_CONFIG, text
    assert text.startswith("configuration error"), text


@pytest.mark.parametrize("argv", [
    ["--identity", "h-copy", "--p", "0"],
    ["--identity", "h-copy", "--p", "-1"],
    ["--identity", "consum", "--k", "0"],
    ["--identity", "consum", "--k", "1"],
    ["--identity", "shift-scan", "--k", "0"],
    ["--identity", "shift-scan", "--k", "1"],
])
def test_out_of_range_parameters_are_config_errors(argv):
    code, text = run(["verify"] + argv)
    assert code == EXIT_CONFIG, text
    assert text.startswith("configuration error"), text


def test_rigor_points_cover_the_degree_bound():
    code, text = run(["verify", "--identity", "th", "--k", "2",
                      "--rigor", "--format", "structured"])
    assert code == EXIT_PASS
    record = json.loads(text.strip())
    assert record["details"]["points_checked"] >= 2
    assert len(record["q_points"]) == record["details"]["points_checked"]


def test_bad_flag_is_config_error():
    code, _ = run(["verify", "--no-such-flag"])
    assert code == EXIT_CONFIG


def test_structured_suite_stream():
    code, text = run(["suite", "full", "--format", "structured"])
    assert code == EXIT_PASS
    records = [json.loads(l) for l in text.splitlines()]
    crits = [r for r in records if "criterion" in r]
    assert len(crits) == 12
    assert all(r["outcome"] == "pass" for r in crits)
    idents = [r for r in records if "identity" in r]
    assert idents and all("timings_ms" in r for r in idents)
