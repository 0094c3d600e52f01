"""The CSV bytes of every config in ``configs/`` against committed copies.

``tests/golden/<name>.csv`` is what ``phaseshift <command> --config
configs/<name>.json`` wrote when it was committed.  These bytes move only
together with a CHANGES.md entry that says which columns moved and why.
"""

import json
from pathlib import Path

import pytest

from phaseshift.cli import main

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = sorted((ROOT / "configs").glob("*.json"))


def test_every_config_has_a_golden_copy():
    assert CONFIGS
    golden = sorted(p.stem for p in (ROOT / "tests" / "golden").glob("*.csv"))
    assert golden == [p.stem for p in CONFIGS]


@pytest.mark.parametrize("config", CONFIGS, ids=lambda p: p.stem)
def test_config_output_is_byte_identical_to_golden(config, tmp_path):
    out = tmp_path / f"{config.stem}.csv"
    command = json.loads(config.read_text())["command"]
    assert main([command, "--config", str(config), "--out", str(out)]) == 0
    want = (ROOT / "tests" / "golden" / f"{config.stem}.csv").read_bytes()
    assert out.read_bytes() == want
