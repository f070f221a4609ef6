import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import chainbell
from chainbell import analysis, cli, nonsignalling
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


def test_verify_infeasible_cap_exits_2(capsys, monkeypatch):
    monkeypatch.setattr(nonsignalling, "EVAL_CAP", 100)
    code, _, err = run_cli(capsys, "verify", "--system", "unbiased", "--n", "3")
    assert code == 2
    assert "infeasible" in err


def _unreachable(*args, **kwargs):
    raise AssertionError("built before the table size was checked")


@pytest.mark.parametrize("system", ["attack-z0", "attack-z1", "unbiased"])
def test_verify_refuses_by_table_size_before_building(capsys, monkeypatch, system):
    """The table size follows from --n and --n-settings alone, so an
    oversized table is refused before any truth table, tree, profile or
    box product is built."""
    for name in ("parse_function_spec", "build_attack_partition", "build_product_system"):
        monkeypatch.setattr(cli, name, _unreachable)
    code, out, err = run_cli(capsys, "verify", "--system", system, "--function", "xor",
                             "--n", "21", "--check", "ab")
    assert (code, out) == (2, "")
    assert err == ("infeasible: joint table needs 19342813113834066795298816 "
                   "evaluations, cap is 67108864\n")


_TABLE_ENTRIES = nonsignalling.table_entries


def _box_size_only(n, n_settings):
    """``table_entries`` for the n = 1 table, the box, alone."""
    if n != 1:
        raise AssertionError("table size computed before n was checked")
    return _TABLE_ENTRIES(n, n_settings)


@pytest.mark.parametrize("n", [5000, 10**12])
def test_verify_refuses_n_out_of_range_before_the_table_size(capsys, monkeypatch, n):
    """--n is checked against the builders' range 1..24 before (4 N^2)^n
    is computed: at n = 10^12 that integer alone would take gigabytes.
    The box's own size, the n = 1 table, is checked first."""
    monkeypatch.setattr(nonsignalling, "table_entries", _box_size_only)
    code, out, err = run_cli(capsys, "verify", "--n", str(n))
    assert (code, out, err) == (2, "", f"error: n must be in 1..24, got {n}\n")


def test_verify_takes_n_from_a_hex_spec_before_building(capsys, monkeypatch):
    """A hex spec fixes n from its digits: it is parsed, with its own
    errors, and the attack is refused before it is built."""
    monkeypatch.setattr(cli, "build_attack_partition", _unreachable)
    monkeypatch.setattr(nonsignalling, "EVAL_CAP", 1000)
    code, out, err = run_cli(capsys, "verify", "--system", "attack-z1",
                             "--function", "hex:6996")
    assert (code, out, err) == (
        2, "", "infeasible: joint table needs 65536 evaluations, cap is 1000\n")
    code, _, err = run_cli(capsys, "verify", "--system", "attack-z1",
                           "--function", "hex:39", "--n", "4")
    assert (code, err) == (2, "error: hex table encodes n=3, but n=4 was requested\n")


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


@pytest.mark.parametrize("command", [
    ("box",),
    ("attack", "--function", "xor", "--n", "3"),
    ("scan", "--family", "xor", "--n-from", "3", "--n-to", "3"),
], ids=["box", "attack", "scan"])
def test_n_settings_is_refused_by_the_size_guard(capsys, monkeypatch, command):
    """A box is the n = 1 joint table, 4 N^2 cells: every command that
    builds one refuses an oversized N through the one guard, before the
    box is built."""
    monkeypatch.setattr(nonsignalling, "EVAL_CAP", 100)
    code, out, err = run_cli(capsys, *command, "--n-settings", "6")
    assert (code, out, err) == (
        2, "", "infeasible: joint table needs 144 evaluations, cap is 100\n")
    assert run_cli(capsys, *command, "--n-settings", "5")[0] == 0


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


def test_scan_out_into_a_missing_directory_exits_2(capsys, monkeypatch, tmp_path):
    """A file that cannot be written is a usage error, not a failed check,
    and is refused before the scan computes any row."""
    def scan(*args):
        raise AssertionError("scan ran before --out was opened")

    monkeypatch.setattr(analysis, "scan", scan)
    target = tmp_path / "missing" / "out.csv"
    code, out, err = run_cli(capsys, "scan", "--family", "xor", "--n-from", "3",
                             "--n-to", "4", "--out", str(target))
    assert (code, out) == (2, "")
    assert err == f"error: cannot write --out {str(target)!r}: No such file or directory\n"
    assert not target.parent.exists()


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
    """An unknown family, and ``random:`` without its seed."""
    for spec in ("bogus", "random:"):
        code, _, err = run_cli(capsys, "attack", "--function", spec, "--n", "3")
        assert code == 2
        assert "function spec" in err


@pytest.mark.parametrize("spec", ["hex:-3", "hex:+39", "hex:0x39", "hex:3_99",
                                  "hex: 399", "hex:39 ", "hex:\u0663\u0669"])
def test_hex_spec_with_a_non_hex_character_exits_2(capsys, spec):
    code, out, err = run_cli(capsys, "attack", "--function", spec)
    assert (code, out) == (2, "")
    assert "not a hex truth table" in err


def test_bad_eps_exits_2(capsys):
    code, _, err = run_cli(capsys, "attack", "--function", "xor", "--n", "3",
                           "--eps", "0")
    assert code == 2
    assert "eps" in err


@pytest.mark.parametrize("eps", ["abc", "1/0", "\u0661/\u0668", "1_0/80", " 1/8 "])
def test_unparsable_eps_exits_2(capsys, eps):
    """Digits are ASCII only: no other scripts' digits, underscores or
    surrounding whitespace, as for ``--subset`` and ``hex:``."""
    code, _, err = run_cli(capsys, "box", "--eps", eps)
    assert code == 2
    assert f"eps must be a fraction like 1/8, got {eps!r}" in err


def test_decimal_eps_is_exact(capsys):
    code, out, _ = run_cli(capsys, "box", "--eps", "0.125", "--format", "json")
    assert code == 0
    assert json.loads(out)["eps"] == {"num": 1, "den": 8, "decimal": "0.125"}


def test_verify_attack_part_needs_function(capsys):
    code, _, err = run_cli(capsys, "verify", "--system", "attack-z0", "--n", "3")
    assert code == 2
    assert "--function is required for system 'attack-z0'" in err


def test_verify_subset_check_needs_subset(capsys):
    code, _, err = run_cli(capsys, "verify", "--n", "2", "--check", "subset")
    assert code == 2
    assert "--subset is required" in err


def test_verify_unbiased_refuses_function(capsys):
    code, out, err = run_cli(capsys, "verify", "--system", "unbiased",
                             "--function", "bogus", "--n", "1")
    assert (code, out, err) == (
        2, "", "error: --function is not used by the unbiased system\n")


def _flag_value(value):
    """A (flag, value) case is named by its value alone."""
    return value[1] if isinstance(value, tuple) else None


@pytest.mark.parametrize("check, flag, message", [
    ("ab", ("--subset", "1"), "--subset is used only by the subset check, not 'ab'"),
    ("time-ordered", ("--subset", "1"),
     "--subset is used only by the subset check, not 'time-ordered'"),
    ("ab", ("--side", "bob"), "--side is used only by the subset check, not 'ab'"),
    ("time-ordered", ("--side", "alice"),
     "--side is used only by the subset check, not 'time-ordered'"),
    *(("subset", ("--subset", subset),
       f"--subset must be comma-separated positions like 1,3, got {subset!r}")
      for subset in ["1,x", "+2", " 1", "\u0661", "1_0"]),
    ("subset", ("--subset", "1,1"), "--subset names position 1 more than once, got '1,1'"),
    ("subset", ("--subset", "2,1,02"),
     "--subset names position 2 more than once, got '2,1,02'"),
], ids=_flag_value)
def test_verify_refuses_subset_before_building(capsys, monkeypatch, check, flag, message):
    """--subset and --side are refused where the check does not use them,
    and --subset is parsed, as ASCII digits only and each position named
    once, where it is used, all before any system is built."""
    for name in ("parse_function_spec", "build_attack_partition", "build_product_system"):
        monkeypatch.setattr(cli, name, _unreachable)
    code, out, err = run_cli(capsys, "verify", "--system", "attack-z0", "--function", "xor",
                             "--n", "2", "--check", check, *flag)
    assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("flags, side", [((), "alice"), (("--side", "bob"), "bob")])
def test_verify_subset_check_takes_side_alice_by_default(capsys, monkeypatch, flags, side):
    seen = []
    check_subset = nonsignalling.check_subset

    def recording(system, which, subset):
        seen.append((which, subset))
        return check_subset(system, which, subset)

    monkeypatch.setattr(nonsignalling, "check_subset", recording)
    code, _, _ = run_cli(capsys, "verify", "--n", "2", "--check", "subset",
                         "--subset", "2", *flags)
    assert (code, seen) == (0, [(side, (2,))])


@pytest.mark.parametrize("bounds, message", [
    (("--n-from", "3", "--n-to", "2"), "--n-to (2) must be at least --n-from (3)"),
    (("--n-from", "2", "--n-to", "3", "--step", "0"), "--step must be at least 1, got 0"),
    (("--n-from", "2", "--n-to", "3", "--step", "-1"), "--step must be at least 1, got -1"),
    (("--n-from", "0", "--n-to", "3"), "n must be in 1..24, got 0"),
    (("--n-from", "2", "--n-to", "25"), "n must be in 1..24, got 25"),
])
def test_scan_refuses_an_empty_or_invalid_range(capsys, bounds, message):
    code, out, err = run_cli(capsys, "scan", "--family", "xor", *bounds)
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_usage_error_exits_2(capsys):
    assert run_cli(capsys, "attack")[0] == 2  # missing --function
    assert run_cli(capsys, "nonsense")[0] == 2


def test_help_exits_zero(capsys):
    assert run_cli(capsys, "--help")[0] == 0


@pytest.mark.parametrize("n, expected", [("3", 0), ("0", 2)])
def test_module_run_matches_main(capsys, n, expected):
    """``python -m chainbell.cli`` runs the same command as ``main``: the
    same stdout and exit code, with the package found where the tests
    import it from."""
    args = ["attack", "--function", "xor", "--n", n]
    code, out, _ = run_cli(capsys, *args)
    path = str(Path(chainbell.__file__).parent.parent)
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [path, os.environ.get("PYTHONPATH")]))}
    run = subprocess.run([sys.executable, "-m", "chainbell.cli", *args],
                         capture_output=True, text=True, env=env, timeout=60)
    assert (run.returncode, run.stdout) == (code, out)
    assert code == expected
