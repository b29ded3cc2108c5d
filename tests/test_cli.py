import hashlib
import importlib
import json

import pytest

import pblock as pb
from pblock.cli import main
from pblock.verify import CHECKS, run_checks


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# verify runner
# ---------------------------------------------------------------------------

def test_run_checks_all_pass_at_5():
    report = run_checks(5, [name for name in CHECKS if name != "oracle-equivalence"])
    assert report.all_passed
    assert [c.name for c in report.checks] == sorted(c.name for c in report.checks)
    payload = report.to_json_dict()
    assert payload["p"] == 5
    assert all(entry["status"] == "pass" for entry in payload["checks"])


def test_run_checks_unknown_name():
    with pytest.raises(ValueError):
        run_checks(5, ["nonsense"])


# ---------------------------------------------------------------------------
# inspect
# ---------------------------------------------------------------------------

def test_inspect_staircase_text(capsys):
    code, out, _ = run_cli(capsys, "inspect", "5,4,3,2,1", "--p", "5", "--provenance")
    assert code == 0
    assert "<5,3,1>" in out
    assert "loewy length       4" in out
    assert "mullineux image    7,5,2,1" in out
    assert "mullineux symbol   (8 5 2)\n                   (5 3 2)\n" in out
    assert "regular and restricted" in out


def test_inspect_core_example(capsys):
    code, out, _ = run_cli(capsys, "inspect", "6,4,2", "--p", "5")
    assert code == 0
    assert "5-core / weight    1,1 / 2" in out


def test_inspect_row_partition(capsys):
    code, out, _ = run_cli(capsys, "inspect", "15", "--p", "5")
    assert code == 0
    assert "loewy length       1" in out
    assert "quotient-test=True" in out


def test_inspect_json_roundtrips(capsys):
    code, out, _ = run_cli(capsys, "inspect", "5,4,3,2,1", "--p", "5", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["command"] == "inspect" and payload["p"] == 5
    record = payload["results"][0]
    assert pb.partition(record["partition"]) == (5, 4, 3, 2, 1)
    assert pb.partition(record["mullineux"]) == (7, 5, 2, 1)
    assert record["notation"] == "<5,3,1>"
    occupied = record["display"]["occupied"]
    assert pb.AbacusDisplay(5, 15, frozenset(occupied)).to_partition() == (5, 4, 3, 2, 1)


def test_inspect_strips_each_p_rim_once_for_the_symbol(capsys, monkeypatch):
    # Three rims: three strips for the symbol, and three re-strips as the image is rebuilt.
    module = importlib.import_module("pblock.mullineux")  # pblock.mullineux is also the function
    calls = []
    real = module.strip_p_rim
    monkeypatch.setattr(module, "strip_p_rim", lambda la, p: calls.append(la) or real(la, p))
    code, out, _ = run_cli(capsys, "inspect", "5,4,3,2,1", "--p", "5", "--json")
    assert code == 0
    record = json.loads(out)["results"][0]
    assert record["mullineux"] == [7, 5, 2, 1]
    assert record["mullineux_symbol"] == {"a": [8, 5, 2], "r": [5, 3, 2]}
    assert len(calls) == 6


def test_inspect_rejects_small_or_composite_p(capsys):
    for bad in ("3", "4"):
        with pytest.raises(SystemExit) as exc:
            main(["inspect", "5,4,3,2,1", "--p", bad])
        assert exc.value.code == 2
        assert "at least 5" in capsys.readouterr().err


@pytest.mark.parametrize("bad, reason", [("9", "p must be a prime at least 5, got 9"),
                                         ("2", "p must be a prime at least 5, got 2"),
                                         ("x", "invalid literal for int()")])
def test_prime_arg_reports_the_block_rule(capsys, bad, reason):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--p", bad])
    assert exc.value.code == 2
    assert f"argument --p: p={bad} rejected: {reason}" in capsys.readouterr().err


def test_inspect_rejects_garbage_partition(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["inspect", "2,oops", "--p", "5"])
    assert exc.value.code == 2


def test_one_message_per_shape_defect(capsys):
    # The CLI parser and the library share partition()'s rule and its wording.
    for text, bad in (("3,5", (3, 5)), ("2,-1", (2, -1)), ("3,0,1", (3, 0, 1))):
        with pytest.raises(ValueError) as library:
            pb.p_core(bad, 5)
        with pytest.raises(SystemExit):
            main(["inspect", text, "--p", "5"])
        assert capsys.readouterr().err.rstrip().endswith(f": {library.value}")
        assert str(library.value).startswith(f"{bad} is not a partition: ")


# ---------------------------------------------------------------------------
# enumerate
# ---------------------------------------------------------------------------

def test_enumerate_principal(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "principal", "--p", "5")
    assert code == 0
    assert "15 " in out and "1,1,1,1,1,1,1,1,1,1,1,1,1,1,1" in out
    assert "(65 partitions)" in out


@pytest.mark.parametrize("block, digest", [
    ("principal", "7dcae1f4b1756602f99d50f6ad19eea496bd312abbd1d2a82dcdff82a91da849"),
    ("B3", "71f92f8ecae72f67618293fd6cd94ad7b4e1d5bf04d2c515f40b00eaf5578143"),
])
def test_enumerate_json_is_byte_identical_to_the_recorded_output(capsys, block, digest):
    # sha256 of the whole --json output at p = 7, recorded before the bead-move enumerator.
    code, out, _ = run_cli(capsys, "enumerate", block, "--p", "7", "--json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_enumerate_jm_filter_on_b2(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "B2", "--p", "5", "--filter", "jm", "--json")
    assert code == 0
    payload = json.loads(out)
    notations = {record["notation"] for record in payload["results"]}
    assert notations == {"<2,2>", "<2>", "<1>", "<2,1>"}
    for record in payload["results"]:  # emitted partitions re-parse exactly
        la = pb.partition(record["partition"])
        assert pb.parse_partition(pb.format_partition(la)) == la
        assert pb.is_jm_fayers(la, 5)


def test_enumerate_loewy_filter(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "principal", "--p", "7",
                           "--filter", "loewy=2", "--json")
    assert code == 0
    payload = json.loads(out)
    assert len(payload["results"]) == 3 * 7 + 2


def test_enumerate_loewy_filter_needs_the_principal_block(capsys):
    # Loewy lengths are classified on the principal block only; elsewhere an
    # empty list would be a confident answer the classifier does not give.
    for block in ("B1", "B2"):
        code, out, err = run_cli(capsys, "enumerate", block, "--p", "5", "--filter", "loewy=2")
        assert code == 2 and out == ""
        assert "needs the principal block" in err


def test_enumerate_bad_block(capsys):
    code, _, err = run_cli(capsys, "enumerate", "B9", "--p", "5")
    assert code == 2
    assert "block spec" in err


@pytest.mark.parametrize("spec, reason", [
    ("B0", "runner 0 out of range for p=5: need 1 <= i <= p"),  # the library's block-index rule
    ("B6", "runner 6 out of range for p=5: need 1 <= i <= p"),
    ("B", "use 'principal' or 'B<i>'"),
])
def test_enumerate_block_spec_uses_the_block_index_rule(capsys, spec, reason):
    code, out, err = run_cli(capsys, "enumerate", spec, "--p", "5")
    assert (code, out) == (2, "")
    assert f"block spec {spec!r}: {reason}" in err


# ---------------------------------------------------------------------------
# verify command
# ---------------------------------------------------------------------------

def test_verify_single_theorem(capsys):
    code, out, _ = run_cli(capsys, "verify", "--p", "5", "--theorem", "xi-sets")
    assert code == 0
    assert "[PASS] xi-sets" in out
    assert "all checks passed" in out


def test_verify_json_schema(capsys):
    code, out, _ = run_cli(capsys, "verify", "--p", "5", "--theorem", "jm-classification",
                           "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["command"] == "verify" and payload["p"] == 5
    checks = payload["results"][0]["checks"]
    assert checks[0]["name"] == "jm-classification"
    assert checks[0]["status"] == "pass"


def test_verify_unknown_theorem(capsys):
    code, _, err = run_cli(capsys, "verify", "--p", "5", "--theorem", "zorn")
    assert code == 2
    assert "unknown theorem" in err


def test_verify_rejects_composite_p(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--p", "4"])
    assert exc.value.code == 2


def test_verify_default_prime_sweep(capsys):
    code, out, _ = run_cli(capsys, "verify", "--theorem", "xi-sets")
    assert code == 0
    assert "p = 5" in out and "p = 7" in out and "p = 11" in out and "p = 13" not in out


def test_verify_deep_adds_13(capsys):
    code, out, _ = run_cli(capsys, "verify", "--theorem", "xi-sets", "--deep")
    assert code == 0
    assert "p = 13" in out


def test_verify_failure_exit_code_and_counterexample(capsys, monkeypatch):
    from pblock.verify import CheckFailure

    def broken(p):
        raise CheckFailure("3,1", "synthetic failure")

    monkeypatch.setitem(CHECKS, "xi-sets", broken)
    code, out, _ = run_cli(capsys, "verify", "--p", "5", "--theorem", "xi-sets", "--json")
    assert code == 1
    payload = json.loads(out)
    entry = payload["results"][0]["checks"][0]
    assert entry["status"] == "fail"
    assert entry["counterexample"] == "3,1"
