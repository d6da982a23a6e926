import csv
import gc
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import diffspec
import diffspec.theorem as theorem
from diffspec.cli import EXIT_VERIFY_FAILED, main

GOLDEN = Path(__file__).parent / "golden"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


# -- exit codes -----------------------------------------------------------------

def test_exit_code_guard(capsys):
    code, _, err = run_cli(capsys, "spectrum", "--n", "7")
    assert code == 2
    assert "guard" in err
    code, _, err = run_cli(capsys, "spectrum", "--m", "25", "--d", "3")
    assert code == 2
    assert err == "error: m=25 exceeds the m <= 24 guard\n"


def test_exit_code_guard_env_lowered(capsys, monkeypatch):
    monkeypatch.setenv("DIFFSPEC_MAX_M", "8")
    code, _, _ = run_cli(capsys, "spectrum", "--n", "3")
    assert code == 2
    code, _, _ = run_cli(capsys, "spectrum", "--n", "2")
    assert code == 0


def test_env_guard_cannot_raise(capsys, monkeypatch):
    monkeypatch.setenv("DIFFSPEC_MAX_M", "100")
    code, _, _ = run_cli(capsys, "spectrum", "--n", "7")
    assert code == 2


def test_env_guard_must_be_an_integer(capsys, monkeypatch):
    monkeypatch.setenv("DIFFSPEC_MAX_M", "abc")
    code, _, err = run_cli(capsys, "spectrum", "--n", "1")
    assert code == 1
    assert err == "error: DIFFSPEC_MAX_M must be an integer, got 'abc'\n"


def test_exit_code_validation(capsys):
    assert run_cli(capsys, "spectrum")[0] == 1                      # no selector
    assert run_cli(capsys, "spectrum", "--n", "1", "--m", "4", "--d", "3")[0] == 1
    assert run_cli(capsys, "spectrum", "--m", "4")[0] == 1          # --m without --d
    assert run_cli(capsys, "spectrum", "--n", "2", "--d", "5")[0] == 1  # --d without --m
    assert run_cli(capsys, "verify", "--n", "2", "--d", "5")[0] == 1
    assert run_cli(capsys, "delta", "--n", "2", "--d", "5", "--a", "0x1", "--b", "0x3")[0] == 1
    assert run_cli(capsys, "field-info", "--n", "2", "--d", "5")[0] == 1
    assert run_cli(capsys, "spectrum", "--n", "0")[0] == 1
    assert run_cli(capsys, "spectrum", "--n", "2", "--method", "nope")[0] == 1
    assert run_cli(capsys, "spectrum", "--n", "2", "--format", "nope")[0] == 1
    assert run_cli(capsys, "delta", "--n", "1", "--a", "0x00", "--b", "0x01")[0] == 1
    assert run_cli(capsys, "delta", "--n", "1", "--a", "0x10", "--b", "0x01")[0] == 1
    assert run_cli(capsys, "spectrum", "--m", "4", "--d", "3", "--method", "closed-form")[0] == 1
    assert run_cli(capsys, "spectrum", "--n", "2", "--modulus", "0x11c")[0] == 1


@pytest.mark.parametrize("argv,err", [
    (("delta", "--n", "1", "--a", "0x0", "--b", "0x1"), "error: difference a must be nonzero\n"),
    (("delta", "--n", "1", "--a", "0x10", "--b", "0x1"), "error: 16 is not an element of GF(2^4)\n"),
    (("delta", "--n", "1", "--a", "0x1", "--b", "0x10"), "error: 16 is not an element of GF(2^4)\n"),
    (("spectrum", "--n", "0"), "error: --n must be a positive integer, got 0\n"),
    (("delta", "--n", "1", "--a", "-0x1", "--b", "0x1"), "error: -1 is not an element of GF(2^4)\n"),
    (("delta", "--n", "1", "--a=-0x1", "--b", "0x1"), "error: -1 is not an element of GF(2^4)\n"),
    (("delta", "--n", "1", "--a", "0x1", "--b", "-0x1"), "error: -1 is not an element of GF(2^4)\n"),
], ids=["a-zero", "a-outside-field", "b-outside-field", "n-zero",
        "a-negative", "a-negative-joined", "b-negative"])
def test_validation_message(capsys, argv, err):
    assert run_cli(capsys, *argv) == (1, "", err)


@pytest.mark.parametrize("argv,err", [
    (("delta", "--n", "1", "--a", "zz", "--b", "0x1"),
     "error: argument --a: expected a hex value, got 'zz'\n"),
    (("spectrum", "--n", "1", "--modulus", "0xg"),
     "error: argument --modulus: expected a hex value, got '0xg'\n"),
], ids=["a", "modulus"])
def test_bad_hex_value_names_the_flag(capsys, argv, err):
    assert run_cli(capsys, *argv) == (1, "", err)


@pytest.mark.parametrize("argv", [
    ("field-info", "--m", "4", "--d", "3", "--modulus=-0x13"),
    ("field-info", "--m", "4", "--d", "3", "--modulus", "-0x13"),
    ("verify", "--n", "1", "--modulus=-0x19"),
], ids=["field-info-equals", "field-info-space", "verify-equals"])
def test_negative_modulus_exits_validation(argv):
    # In a subprocess with a timeout: a modulus that never drops in degree
    # once made the irreducibility check loop forever.
    src = str(Path(diffspec.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-m", "diffspec.cli", *argv],
                          capture_output=True, text=True, timeout=60,
                          env={**os.environ, "PYTHONPATH": src})
    assert (done.returncode, done.stdout) == (1, "")
    value = argv[-1].rpartition("=")[2]
    assert done.stderr == f"error: modulus must be a non-negative integer, got {int(value, 16)}\n"


@pytest.mark.parametrize("command", [
    ("spectrum",), ("delta", "--a", "0x1", "--b", "0x1"), ("field-info",),
], ids=lambda command: command[0])
@pytest.mark.parametrize("m", ["3", "0", "-2"])
def test_m_below_the_minimum_degree_names_the_flag(capsys, command, m):
    argv = (command[0], "--m", m, "--d", "3") + command[1:]
    assert run_cli(capsys, *argv) == (1, "", f"error: --m must be an integer >= 4, got {m}\n")


def test_import_leaves_the_thread_pool_unloaded():
    # Fields below degree 22 never start a pool, so importing the CLI must
    # not pay for concurrent.futures (and the logging it imports).
    src = str(Path(diffspec.__file__).resolve().parents[1])
    probe = ("import sys, diffspec.cli; "
             "print([m for m in ('concurrent.futures', 'logging') if m in sys.modules])")
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src}, check=True, timeout=60).stdout
    assert out == "[]\n"


@pytest.mark.parametrize("product,err", [
    (0, "theorem violated: log basis exp[i*17], exp[i*17 + 1] (i < 4) is linearly dependent\n"),
    (1, "theorem violated: no primitive element found (broken arithmetic)\n"),
], ids=["zero", "one"])
def test_broken_arithmetic_exits_theorem(capsys, monkeypatch, product, err):
    # A multiply that returns a constant: no primitive element exists, or
    # every power of g past g^0 is zero, so the log table's basis is
    # dependent.  Either is a broken core, not bad input.
    from diffspec.gf2m import GF2m

    monkeypatch.setattr(GF2m, "_mul", lambda self, a, b: product)
    assert run_cli(capsys, "verify", "--n", "2") == (3, "", err)


LOG_FILL_CLAIMS = {
    "dependent-basis": (17, 0, "log basis exp[i*17], exp[i*17 + 1] (i < 4) is linearly dependent"),
    "power-outside-subfield": (4 * 17, 1, "a power of exp[17] left GF(2^4)"),
}


def plant_in_log_fill(monkeypatch, corrupt):
    """The n = 2 log fill reads a copy of exp that ``corrupt`` edited; exp
    itself stays intact, so only the log table can go wrong."""
    from diffspec.gf2m import GF2m

    real = GF2m._field_order_log

    def planted(self, exp):
        exp = exp.copy()
        corrupt(exp)
        return real(self, exp)

    monkeypatch.setattr(GF2m, "_field_order_log", planted)


@pytest.mark.parametrize("claim", sorted(LOG_FILL_CLAIMS))
def test_log_fill_claims_exit_theorem(capsys, monkeypatch, claim):
    # h = exp[17] replaced by 1, or h^4 by g: c = 17 and s = 4 at m = 8.
    index, source, message = LOG_FILL_CLAIMS[claim]

    def corrupt(exp):
        exp[index] = exp[source]

    plant_in_log_fill(monkeypatch, corrupt)
    assert run_cli(capsys, "verify", "--n", "2") == (3, "", f"theorem violated: {message}\n")


@pytest.mark.parametrize("j", range(17))
def test_flipped_entry_of_the_log_fill_input_fails_verify(capsys, monkeypatch, j):
    # Bit 0 of exp[j], j < c = 17, flipped where only the fill reads it.
    # exp[0] = 1 becomes 0, a dependent basis; any other flip passes every
    # claim and leaves a wrong log table that verify must catch.
    def corrupt(exp):
        exp[j] ^= 1

    plant_in_log_fill(monkeypatch, corrupt)
    code, out, err = run_cli(capsys, "verify", "--n", "2")
    if j == 0:
        message = LOG_FILL_CLAIMS["dependent-basis"][2]
        assert (code, out, err) == (3, "", f"theorem violated: {message}\n")
    else:
        assert code == EXIT_VERIFY_FAILED
        assert json.loads(out)["pass"] is False


def test_main_leaves_no_argparse_object_in_cycles(capsys):
    # The parser is built once per process, not left as cyclic garbage by
    # every call.
    def is_argparse(obj):
        return any(k.__module__ == "argparse" for k in type(obj).__mro__)

    main(["field-info", "--n", "1"])
    gc.collect()
    flags = gc.get_debug()
    gc.garbage.clear()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        for _ in range(2):
            main(["verify", "--n", "1"])
        gc.collect()
        leaked = sorted({type(obj).__name__ for obj in gc.garbage if is_argparse(obj)})
    finally:
        gc.set_debug(flags)
        gc.garbage.clear()
    capsys.readouterr()
    assert leaked == []


def test_exit_code_unwritable_output(capsys, tmp_path):
    missing = tmp_path / "no-such-dir"
    for flag in ("--out", "--log"):
        code, _, err = run_cli(capsys, "spectrum", "--n", "1", flag, str(missing / "f"))
        assert code == 4
        assert err.startswith("error: ")
        assert "no-such-dir" in err
    assert not missing.exists()


# -- spectrum --------------------------------------------------------------------

def test_spectrum_all_methods_agree(capsys):
    payload = run_json(capsys, "spectrum", "--n", "2", "--method", "all")
    assert payload["agree"] is True
    brute = payload["methods"]["brute"]["spectrum"]
    assert brute == {"0": 155, "2": 96, "12": 4, "16": 1}
    assert payload["methods"]["structured"]["spectrum"] == brute
    assert payload["methods"]["closed_form"]["spectrum"] == brute


def test_spectrum_all_disagrees_on_counts_moved_between_b(capsys, monkeypatch):
    # The tables keep the 0x11b field while the scalar arithmetic moves to
    # the isomorphic 0x11d one: the three spectra still agree, but the
    # brute and structured counts differ b by b, so the routes disagree.
    planted = theorem.TheoremParams(2)
    planted.field.log_tables()
    planted.field.modulus = 0x11D
    monkeypatch.setattr(theorem, "TheoremParams", lambda n, modulus=None: planted)
    code, out, _ = run_cli(capsys, "spectrum", "--n", "2", "--method", "all")
    assert code == EXIT_VERIFY_FAILED
    payload = json.loads(out)
    assert payload["agree"] is False
    spectra = [body["spectrum"] for body in payload["methods"].values()]
    assert spectra[0] == {"0": 155, "2": 96, "12": 4, "16": 1}
    assert all(s == spectra[0] for s in spectra)


SPECTRUM_ALL_RENDERINGS = {
    (1, "csv"): """method,multiplicity,count
brute,0,9
brute,2,6
brute,4,1
structured,0,9
structured,2,6
structured,4,1
closed_form,0,9
closed_form,2,6
closed_form,4,1
all,agree,True
""",
    (1, "table"): """m=4 d=13 poly=0x13
brute        w0=9  w2=6  w4=1
structured   w0=9  w2=6  w4=1
closed_form  w0=9  w2=6  w4=1
agree: True
""",
    (2, "csv"): """method,multiplicity,count
brute,0,155
brute,2,96
brute,12,4
brute,16,1
structured,0,155
structured,2,96
structured,12,4
structured,16,1
closed_form,0,155
closed_form,2,96
closed_form,12,4
closed_form,16,1
all,agree,True
""",
    (2, "table"): """m=8 d=83 poly=0x11b
brute        w0=155  w2=96  w12=4  w16=1
structured   w0=155  w2=96  w12=4  w16=1
closed_form  w0=155  w2=96  w12=4  w16=1
agree: True
""",
}


@pytest.mark.parametrize("n,fmt", sorted(SPECTRUM_ALL_RENDERINGS))
def test_spectrum_all_renderings_are_pinned(capsys, n, fmt):
    argv = ("spectrum", "--n", str(n), "--method", "all", "--format", fmt)
    assert run_cli(capsys, *argv) == (0, SPECTRUM_ALL_RENDERINGS[n, fmt], "")


def test_spectrum_all_disagrees_on_a_flipped_antilog_entry(capsys, monkeypatch):
    # The brute route reads the corrupted table, the structured route does not.
    planted = theorem.TheoremParams(2)
    exp, _ = planted.field.log_tables()
    exp[5] ^= 1
    monkeypatch.setattr(theorem, "TheoremParams", lambda n, modulus=None: planted)
    code, out, _ = run_cli(capsys, "spectrum", "--n", "2", "--method", "all")
    assert code == EXIT_VERIFY_FAILED
    assert json.loads(out)["agree"] is False


def test_spectrum_all_unsplit_pair_quadratic_exits_theorem(capsys, monkeypatch):
    from diffspec.gf2m import GF2m

    monkeypatch.setattr(GF2m, "solve_quadratic", lambda self, beta, gamma: ())
    code, out, err = run_cli(capsys, "spectrum", "--n", "2", "--method", "all")
    assert (code, out) == (3, "")
    assert err.startswith("theorem violated: ") and "does not split" in err


def test_spectrum_generic_instance(capsys):
    payload = run_json(capsys, "spectrum", "--m", "4", "--d", "3", "--method", "brute")
    assert payload["spectrum"] == {"0": 8, "2": 8}
    assert payload["uniformity"] == 2
    assert payload["poly"] == "0x13"


def test_spectrum_json_schema(capsys):
    payload = run_json(capsys, "spectrum", "--n", "1")
    assert set(payload) == {"m", "d", "poly", "spectrum", "uniformity", "method"}
    assert payload["spectrum"] == {"0": 9, "2": 6, "4": 1}


def test_spectrum_deterministic(capsys):
    _, out1, _ = run_cli(capsys, "spectrum", "--n", "2", "--method", "all")
    _, out2, _ = run_cli(capsys, "spectrum", "--n", "2", "--method", "all")
    assert out1 == out2


def test_spectrum_closed_form_method(capsys, make_params):
    entries = theorem.spectrum_closed_form(make_params(2)).entries
    payload = run_json(capsys, "spectrum", "--n", "2", "--method", "closed-form")
    assert payload["method"] == "closed-form"
    assert payload["spectrum"] == {str(i): c for i, c in entries.items()}
    assert payload["uniformity"] == max(entries) == 16
    code, out, _ = run_cli(capsys, "spectrum", "--n", "2", "--method", "closed-form",
                           "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows == [["multiplicity", "count"]] + [[str(i), str(c)] for i, c in entries.items()]


# -- verify -----------------------------------------------------------------------

def test_verify_passes(capsys):
    for n in ("1", "2"):
        payload = run_json(capsys, "verify", "--n", n)
        assert payload["pass"] is True
        assert payload["mismatches"] == []
        assert payload["conjecture"] == {
            "one_b_q2": True, "qn_values": True, "rest_le_2": True,
        }


def test_verify_alternate_modulus_same_spectrum(capsys):
    default = run_json(capsys, "verify", "--n", "2")
    alt = run_json(capsys, "verify", "--n", "2", "--modulus", "0x11d")
    assert alt["pass"] is True
    assert alt["brute"] == default["brute"]
    assert alt["poly"] == "0x11d"


def test_verify_csv_matches_json(capsys):
    payload = run_json(capsys, "verify", "--n", "2")
    code, out, _ = run_cli(capsys, "verify", "--n", "2", "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["kind", "key", "value"]
    got = {(r[0], r[1]): r[2] for r in rows[1:]}
    for i, c in payload["brute"].items():
        assert got[("brute", i)] == str(c)
    for i, c in payload["closed_form"].items():
        assert got[("closed_form", i)] == str(c)
    assert got[("result", "pass")] == "True"


@pytest.mark.parametrize("argv,golden", [
    (("verify", "--n", "1"), "verify_n1.json"),
    (("verify", "--n", "2"), "verify_n2.json"),
    (("verify", "--n", "3"), "verify_n3.json"),
    (("spectrum", "--m", "20", "--d", "7", "--method", "brute"), "spectrum_m20_d7_brute.json"),
    (("spectrum", "--n", "2", "--method", "all"), "spectrum_n2_all.json"),
    (("spectrum", "--n", "2", "--method", "structured"), "spectrum_n2_structured.json"),
    (("field-info", "--n", "2"), "field_info_n2.json"),
])
def test_output_byte_identical_to_golden(capsys, argv, golden):
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert out == (GOLDEN / golden).read_text()


# The smallest b of each dispatch branch at n = 2 over the default 0x11b.
DELTA_BRANCH_B = {
    "b0": 0x0, "b1": 0x1, "unit_circle": 0xC, "subfield": 0xD, "quadratic2": 0x2,
    "quadratic0.norm_gate": 0x8, "quadratic0.zero_trace": 0x6,
    "quadratic0.off_circle": 0xE,
}


@pytest.mark.parametrize("branch", sorted(DELTA_BRANCH_B))
def test_delta_output_byte_identical_to_golden_on_each_branch(capsys, make_params, branch):
    b = DELTA_BRANCH_B[branch]
    assert theorem.case_trace(make_params(2), b).branch == branch
    code, out, _ = run_cli(capsys, "delta", "--n", "2", "--a", "0x1", "--b", f"0x{b:x}")
    assert code == 0
    assert out == (GOLDEN / f"delta_n2_{branch}.json").read_text()


def test_verify_failure_has_its_own_exit_code(capsys, monkeypatch):
    # n = 2 tables with one corrupted antilog entry: the brute route then
    # disagrees with the structured one, and verify must say so.
    planted = theorem.TheoremParams(2)
    exp, _ = planted.field.log_tables()
    exp[5] ^= 1
    monkeypatch.setattr(theorem, "TheoremParams", lambda n, modulus=None: planted)
    code, out, _ = run_cli(capsys, "verify", "--n", "2")
    assert code == EXIT_VERIFY_FAILED == 5
    payload = json.loads(out)
    assert payload["pass"] is False
    assert payload["mismatches"]


def test_verify_requires_n(capsys):
    assert run_cli(capsys, "verify", "--m", "8", "--d", "83")[0] == 1
    code, _, err = run_cli(capsys, "verify", "--m", "8", "--d", "3")
    assert code == 1
    assert err == "error: verify needs the --n instance selector\n"


def test_verify_takes_no_method(capsys):
    assert run_cli(capsys, "verify", "--n", "1", "--method", "brute")[0] == 1


def test_structured_spectrum_calls_case_trace_once_per_b(capsys, case_trace_calls):
    run_json(capsys, "spectrum", "--n", "2", "--method", "structured")
    assert sorted(case_trace_calls) == list(range(256))


# -- delta -------------------------------------------------------------------------

def test_delta_structured_trace(capsys):
    payload = run_json(capsys, "delta", "--n", "2", "--a", "0x01", "--b", "0x01")
    assert payload["delta"] == 16
    assert payload["structured"]["case"] == "b=1"
    assert payload["structured"]["count"] == 16

    payload = run_json(capsys, "delta", "--n", "2", "--a", "0x01", "--b", "0x00")
    assert payload["delta"] == 0
    assert payload["structured"]["case"] == "b=0"


def test_delta_quadratic_case_exposes_audit_values(capsys):
    # 0x02 generates F_256 over 0x11b and is outside the quadratic subfield
    payload = run_json(capsys, "delta", "--n", "2", "--a", "0x01", "--b", "0x02")
    info = payload["structured"]
    assert info["case"] == "quadratic"
    assert {"A", "B", "C", "circle_roots"} <= set(info)
    assert info["count"] == payload["delta"]


def test_delta_csv_flattens_the_audit_values(capsys):
    # The structured dict flattens to one dotted row per key.
    code, out, _ = run_cli(capsys, "delta", "--n", "2", "--a", "0x1", "--b", "0x2",
                           "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["key", "value"]
    assert rows[7:] == [
        ["structured.count", "2"], ["structured.case", "quadratic"],
        ["structured.A", "0x1"], ["structured.B", "0xed"], ["structured.C", "0xec"],
        ["structured.circle_roots", "['0xc', '0xb0']"],
    ]


def test_delta_unsplit_pair_quadratic_exits_theorem(capsys, monkeypatch):
    from diffspec.gf2m import GF2m

    monkeypatch.setattr(GF2m, "solve_quadratic", lambda self, beta, gamma: ())
    code, _, err = run_cli(capsys, "delta", "--n", "2", "--a", "0x1", "--b", "0x2")
    assert code == 3
    assert "does not split" in err


def test_delta_normalization_identity(capsys):
    from diffspec.gf2m import GF2m

    fld = GF2m(4)
    b_scaled = fld.mul(0x5, fld.inv(fld.pow(0x2, 13)))
    lhs = run_json(capsys, "delta", "--n", "1", "--a", "0x02", "--b", "0x05")
    rhs = run_json(capsys, "delta", "--n", "1", "--a", "0x01", "--b", f"0x{b_scaled:x}")
    assert lhs["delta"] == rhs["delta"]


def test_delta_generic_instance_has_no_trace(capsys):
    payload = run_json(capsys, "delta", "--m", "8", "--d", "7", "--a", "0x01", "--b", "0x01")
    assert payload["structured"] is None


def test_delta_nonunit_difference_has_no_trace(capsys):
    payload = run_json(capsys, "delta", "--n", "1", "--a", "0x02", "--b", "0x01")
    assert payload["structured"] is None


# -- field-info ----------------------------------------------------------------------

def test_field_info_family_instance(capsys):
    payload = run_json(capsys, "field-info", "--n", "2")
    assert payload["m"] == 8
    assert payload["d"] == 83
    assert payload["gcd"] == 1
    assert payload["niho"] is True
    assert payload["congruence"] is True
    assert payload["mu_q_plus_1"] == 5
    assert payload["field"] == "m=8 poly=0x11b"


def test_field_info_generic_instance(capsys):
    payload = run_json(capsys, "field-info", "--m", "8", "--d", "7")
    assert payload["m"] == 8
    assert payload["d"] == 7
    assert payload["niho"] is None
    assert payload["congruence"] is None
    assert payload["mu_q_plus_1"] is None


def test_field_info_n1(capsys):
    payload = run_json(capsys, "field-info", "--n", "1")
    assert payload["d"] == 13 and payload["gcd"] == 1


# -- output plumbing -------------------------------------------------------------------

def test_out_file(capsys, tmp_path):
    target = tmp_path / "result.json"
    code, out, _ = run_cli(capsys, "spectrum", "--n", "1", "--out", str(target))
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["spectrum"] == {"0": 9, "2": 6, "4": 1}


def test_log_appends_reproducible_records(capsys, tmp_path):
    log = tmp_path / "runs.ndjson"
    run_cli(capsys, "spectrum", "--n", "1", "--log", str(log))
    run_cli(capsys, "spectrum", "--n", "1", "--log", str(log))
    lines = log.read_text().splitlines()
    assert len(lines) == 2
    records = [json.loads(line) for line in lines]
    for rec in records:
        assert {"timestamp", "duration_s", "config", "payload"} <= set(rec)
        assert rec["diagnostics"]["peak_rss_mb"] > 0
    assert records[0]["payload"] == records[1]["payload"]
    assert records[0]["config"] == records[1]["config"]


def test_log_config_names_a_method_only_where_one_applies(capsys, tmp_path):
    log = tmp_path / "runs.ndjson"
    runs = {
        ("spectrum", "--n", "1"): "brute",
        ("spectrum", "--n", "1", "--method", "structured"): "structured",
        ("verify", "--n", "1"): "all",
        ("delta", "--n", "1", "--a", "0x1", "--b", "0x3"): None,
        ("field-info", "--m", "8", "--d", "7"): None,
    }
    for argv in runs:
        assert run_cli(capsys, *argv, "--log", str(log))[0] == 0
    records = [json.loads(line) for line in log.read_text().splitlines()]
    for (argv, method), record in zip(runs.items(), records):
        config = record["config"]
        assert config["command"] == argv[0]
        assert config.get("method") == method, argv
        assert list(config)[:2] == (["command", "method"] if method else ["command", "format"])


def test_log_config_echoes_the_command_line(capsys, tmp_path):
    log = tmp_path / "runs.ndjson"
    runs = {
        ("spectrum", "--m", "8", "--d", "7", "--modulus", "0x11d", "--format", "csv"):
            {"command": "spectrum", "method": "brute", "format": "csv",
             "m": 8, "d": 7, "modulus": "0x11d"},
        ("spectrum", "--n", "2", "--method", "all", "--format", "table"):
            {"command": "spectrum", "method": "all", "format": "table", "n": 2},
        ("verify", "--n", "1", "--modulus", "0x19"):
            {"command": "verify", "method": "all", "format": "json", "n": 1, "modulus": "0x19"},
        ("delta", "--n", "1", "--a", "0x3", "--b", "0x5", "--format", "csv"):
            {"command": "delta", "format": "csv", "n": 1, "a": "0x3", "b": "0x5"},
        ("field-info", "--m", "8", "--d", "7"):
            {"command": "field-info", "format": "json", "m": 8, "d": 7},
    }
    for argv in runs:
        assert run_cli(capsys, *argv, "--log", str(log))[0] == 0
    records = [json.loads(line) for line in log.read_text().splitlines()]
    for config, record in zip(runs.values(), records):
        assert list(record["config"].items()) == list(config.items())


def test_verify_log_explains_the_run(capsys, tmp_path):
    log = tmp_path / "runs.ndjson"
    code, out, _ = run_cli(capsys, "verify", "--n", "2", "--log", str(log))
    assert code == 0
    assert out == (GOLDEN / "verify_n2.json").read_text()
    record = json.loads(log.read_text())
    assert list(record) == ["timestamp", "duration_s", "config", "payload", "diagnostics"]
    assert record["config"] == {"command": "verify", "method": "all", "format": "json", "n": 2}
    diag = record["diagnostics"]
    assert set(diag["phases_s"]) == {
        "field", "tables", "brute", "closed_form", "structured", "compare",
    }
    assert diag["branches"] == theorem.family_branches(2)
    assert diag["sweep_workers"] == 1   # m = 8 sweeps on the calling thread
    assert diag["peak_rss_mb"] > 0


def test_spectrum_csv_matches_json(capsys):
    payload = run_json(capsys, "spectrum", "--n", "2")
    code, out, _ = run_cli(capsys, "spectrum", "--n", "2", "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["multiplicity", "count"]
    assert {r[0]: r[1] for r in rows[1:]} == {
        k: str(v) for k, v in payload["spectrum"].items()
    }


def test_table_format_renders(capsys):
    code, out, _ = run_cli(capsys, "verify", "--n", "1", "--format", "table")
    assert code == 0
    assert "pass: True" in out
    code, out, _ = run_cli(capsys, "delta", "--n", "2", "--a", "0x01", "--b", "0x01",
                           "--format", "table")
    assert code == 0
    assert "case=b=1" in out
    code, out, _ = run_cli(capsys, "delta", "--n", "2", "--a", "0x1", "--b", "0x2",
                           "--format", "table")
    assert code == 0
    assert out.splitlines() == [
        "delta(a=0x1, b=0x2) = 2  [m=8 d=83]",
        "case=quadratic structured_count=2",
        "  A = 0x1",
        "  B = 0xed",
        "  C = 0xec",
        "  circle_roots = ['0xc', '0xb0']",
    ]
    code, out, _ = run_cli(capsys, "spectrum", "--n", "2", "--format", "table")
    assert code == 0
    assert out.splitlines() == [
        "m=8 d=83 poly=0x11b", "  w0 = 155", "  w2 = 96", "  w12 = 4", "  w16 = 1",
        "uniformity: 16",
    ]
    payload = run_json(capsys, "field-info", "--n", "2")
    code, out, _ = run_cli(capsys, "field-info", "--n", "2", "--format", "table")
    assert code == 0
    assert out.splitlines() == [f"{key}: {value}" for key, value in payload.items()]
    assert "mu_q_plus_1: 5" in out.splitlines()
