import json
from fractions import Fraction

import pytest

from chainbell.cli import CSV_COLUMNS, main


def run_cli(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# attack

def test_attack_xor_json(capsys):
    code, out, _ = run_cli(capsys, "attack", "--function", "xor", "--n", "8",
                           "--n-settings", "2", "--eps", "1/8", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["distance"] == {"num": 1, "den": 8, "decimal": "0.125"}
    assert doc["passed"] is True
    assert doc["strategy"] == "partition"
    assert doc["pivotal_histogram"] == {"8": 256}


def test_attack_text_mentions_values(capsys):
    code, out, _ = run_cli(capsys, "attack", "--function", "hex:39")
    assert code == 0
    assert "distance from uniform: 1/8" in out
    assert "bound eps*2/(3n): 1/36" in out
    assert "theorem check: pass" in out


def test_attack_trivial_function(capsys):
    code, out, _ = run_cli(capsys, "attack", "--function", "and", "--n", "4")
    assert code == 0
    assert "strategy: trivial" in out


# ---------------------------------------------------------------------------
# verify

def test_verify_attack_part_time_ordered_exit_zero(capsys):
    code, out, _ = run_cli(capsys, "verify", "--system", "attack-z0",
                           "--function", "hex:39", "--n", "3",
                           "--check", "time-ordered")
    assert code == 0
    assert "pass" in out


def test_verify_json_ties_exit_code_to_passed(capsys):
    for check, subset in [("ab", None), ("subset", "1")]:
        args = ["verify", "--system", "attack-z1", "--function", "hex:39",
                "--n", "3", "--check", check, "--format", "json"]
        if subset:
            args += ["--subset", subset]
        code, out, _ = run_cli(capsys, *args)
        doc = json.loads(out)
        assert code == (0 if doc["report"]["passed"] else 1)
        for witness in doc["report"]["violations"]:
            assert witness["left"] != witness["right"]


def test_verify_unbiased_needs_n(capsys):
    code, _, err = run_cli(capsys, "verify", "--system", "unbiased")
    assert code == 2
    assert "--n" in err


def test_verify_infeasible_cap_exits_2(capsys):
    code, _, err = run_cli(capsys, "verify", "--system", "unbiased", "--n", "3",
                           "--eval-cap", "100")
    assert code == 2
    assert "infeasible" in err


# ---------------------------------------------------------------------------
# box

def test_box_biased_table_shows_shifted_row(capsys):
    code, out, _ = run_cli(capsys, "box", "--n-settings", "2", "--eps", "1/3",
                           "--sigma", "0")
    assert code == 0
    block = out.split("u=0 v=1")[1].splitlines()
    y0 = next(line for line in block if line.startswith(" y=0"))
    assert y0.split()[1:] == ["1/2", "0"]
    assert "bell value: 4/3" in out


def test_box_json_rationals_round_trip(capsys):
    code, out, _ = run_cli(capsys, "box", "--eps", "1/8", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert Fraction(doc["bell_value"]["num"], doc["bell_value"]["den"]) == Fraction(1, 2)
    assert float(doc["bell_value"]["decimal"]) == pytest.approx(0.5)
    cell = doc["squares"][0]["cells"][0][0]
    assert Fraction(cell["num"], cell["den"]) == Fraction(7, 16)
    allowed = {(s["u"], s["v"]) for s in doc["squares"] if s["allowed"]}
    assert allowed == {(0, 1), (2, 1), (2, 3), (0, 3)}


def test_box_quantum_mode(capsys):
    code, out, _ = run_cli(capsys, "box", "--mode", "quantum", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["bell_value"] == pytest.approx(0.5857864376269049, abs=1e-12)


def test_quantum_mode_rejects_explicit_eps(capsys):
    code, _, err = run_cli(capsys, "box", "--mode", "quantum", "--eps", "1/8")
    assert code == 2
    assert "quantum" in err


# ---------------------------------------------------------------------------
# scan

def test_scan_csv_schema_and_content(capsys, tmp_path):
    target = tmp_path / "rows.csv"
    code, out, _ = run_cli(capsys, "scan", "--family", "xor", "--n-from", "2",
                           "--n-to", "5", "--out", str(target))
    assert code == 0
    lines = target.read_text().splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert lines[1] == ("xor,2,2,1/8,partition,1/8,1/24,3,1/4,"
                        "0.176776695296637,5/8")
    assert len(lines) == 5


def test_scan_stdout_and_error_rows(capsys):
    code, out, err = run_cli(capsys, "scan", "--family", "hex:39",
                             "--n-from", "3", "--n-to", "4")
    assert code == 2  # second row cannot be built; scan still completes
    lines = out.splitlines()
    assert len(lines) == 3
    assert lines[2].split(",")[4] == "error"
    assert "n=4" in err


# ---------------------------------------------------------------------------
# determinism and usage

def test_identical_invocations_are_byte_identical(capsys):
    args = ("attack", "--function", "random:3", "--n", "6", "--format", "json")
    _, first, _ = run_cli(capsys, *args)
    _, second, _ = run_cli(capsys, *args)
    assert first == second


def test_scan_files_are_byte_identical(capsys, tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    run_cli(capsys, "scan", "--family", "majority", "--n-from", "3", "--n-to", "9",
            "--step", "2", "--out", str(a))
    run_cli(capsys, "scan", "--family", "majority", "--n-from", "3", "--n-to", "9",
            "--step", "2", "--out", str(b))
    assert a.read_bytes() == b.read_bytes()


def test_bad_function_spec_exits_2(capsys):
    code, _, err = run_cli(capsys, "attack", "--function", "bogus", "--n", "3")
    assert code == 2
    assert "function spec" in err


def test_bad_eps_exits_2(capsys):
    code, _, err = run_cli(capsys, "attack", "--function", "xor", "--n", "3",
                           "--eps", "0")
    assert code == 2
    assert "eps" in err


@pytest.mark.parametrize("eps", ["abc", "1/0"])
def test_unparsable_eps_exits_2(capsys, eps):
    code, _, err = run_cli(capsys, "box", "--eps", eps)
    assert code == 2
    assert f"eps must be a fraction like 1/8, got {eps!r}" in err


def test_verify_attack_part_needs_function(capsys):
    code, _, err = run_cli(capsys, "verify", "--system", "attack-z0", "--n", "3")
    assert code == 2
    assert "--function is required for system 'attack-z0'" in err


def test_verify_subset_check_needs_subset(capsys):
    code, _, err = run_cli(capsys, "verify", "--n", "2", "--check", "subset")
    assert code == 2
    assert "--subset is required" in err


def test_usage_error_exits_2(capsys):
    assert run_cli(capsys, "attack")[0] == 2  # missing --function
    assert run_cli(capsys, "nonsense")[0] == 2


def test_help_exits_zero(capsys):
    assert run_cli(capsys, "--help")[0] == 0
