"""CLI output pinned byte for byte.

Each file under ``tests/golden/`` is the exact stdout of one command,
run through ``chainbell.cli.main``, which must also return the exit code
recorded next to the command.  All commands use rational mode:
quantum-mode digits depend on the platform's ``math.sin``.  Regenerate
a file only for an intended change of output, by writing the command's
stdout to it.
"""

from pathlib import Path

import pytest

from chainbell.cli import main

GOLDEN_DIR = Path(__file__).with_name("golden")

#: File name -> (command, exit code).
GOLDEN = {
    "attack_xor_n16.json": ("attack --function xor --n 16 --format json", 0),
    "attack_random3_n12.txt": ("attack --function random:3 --n 12", 0),
    "scan_majority_3_13.csv": ("scan --family majority --n-from 3 --n-to 13", 0),
    "verify_attack_z0_hex39_n3.json": (
        "verify --system attack-z0 --function hex:39 --n 3 --check time-ordered --format json",
        0),
    # fails with 10 witnesses: the attacked part is not fully non-signalling
    "verify_attack_z0_hex39_n3_subset1.json": (
        "verify --system attack-z0 --function hex:39 --n 3 --check subset --subset 1"
        " --format json", 1),
    "box_n3_eps1_5_sigma1.json": ("box --n-settings 3 --eps 1/5 --sigma 1 --format json", 0),
}


def test_every_golden_file_has_a_command():
    assert sorted(p.name for p in GOLDEN_DIR.iterdir()) == sorted(GOLDEN)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_cli_output_matches_golden_file(capsys, name):
    command, code = GOLDEN[name]
    assert main(command.split()) == code
    out = capsys.readouterr().out
    assert out.encode("utf-8") == (GOLDEN_DIR / name).read_bytes()
