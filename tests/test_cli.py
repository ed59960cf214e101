"""The oon-sim command line: run, validate and bench."""

import pathlib

import pytest

from oonsim.cli import main

ROOT = pathlib.Path(__file__).resolve().parent.parent
SCENARIOS = ROOT / "scenarios"


def test_run_prints_golden_hash(capsys):
    assert main(["run", str(SCENARIOS / "golden.json")]) == 0
    want = (ROOT / "tests" / "data" / "golden_trace_hash.txt").read_text().strip()
    assert f"trace_sha256={want}" in capsys.readouterr().out.splitlines()


@pytest.mark.parametrize("name", ["golden.json", "fault.json"])
def test_validate_accepts_scenario(name):
    assert main(["validate", str(SCENARIOS / name)]) == 0


def test_bench_matches_oracle():
    # 16 cells over 6 relay nodes: cells outnumber nodes
    assert main(["bench", "--objects", "400", "--queries", "60",
                 "--irns", "6", "--seed", "3"]) == 0
