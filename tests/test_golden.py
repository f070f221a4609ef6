"""CLI output pinned byte for byte.

Each file under ``tests/golden/`` is the exact stdout of one command,
run through ``chainbell.cli.main``.  All commands use rational mode:
quantum-mode digits depend on the platform's ``math.sin``.  Regenerate
a file only for an intended change of output, by writing the command's
stdout to it.
"""

from pathlib import Path

import pytest

from chainbell.cli import main

GOLDEN_DIR = Path(__file__).with_name("golden")

GOLDEN = {
    "attack_xor_n16.json": "attack --function xor --n 16 --format json",
    "attack_random3_n12.txt": "attack --function random:3 --n 12",
    "scan_majority_3_13.csv": "scan --family majority --n-from 3 --n-to 13",
    "verify_attack_z0_hex39_n3.json":
        "verify --system attack-z0 --function hex:39 --n 3 --check time-ordered --format json",
    "box_n3_eps1_5_sigma1.json": "box --n-settings 3 --eps 1/5 --sigma 1 --format json",
}


def test_every_golden_file_has_a_command():
    assert sorted(p.name for p in GOLDEN_DIR.iterdir()) == sorted(GOLDEN)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_cli_output_matches_golden_file(capsys, name):
    assert main(GOLDEN[name].split()) == 0
    out = capsys.readouterr().out
    assert out.encode("utf-8") == (GOLDEN_DIR / name).read_bytes()
