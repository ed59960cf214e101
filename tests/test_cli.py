"""The oon-sim command line: run and validate."""

import hashlib
import pathlib

import pytest

from oonsim.cli import main

ROOT = pathlib.Path(__file__).resolve().parent.parent
SCENARIOS = ROOT / "scenarios"
DATA = ROOT / "tests" / "data"


@pytest.mark.parametrize("name", ["golden.json", "fault.json"])
def test_run_prints_golden_hash(capsys, name):
    assert main(["run", str(SCENARIOS / name)]) == 0
    stem = name.removesuffix(".json")
    want = (DATA / f"{stem}_trace_hash.txt").read_text().strip()
    assert f"trace_sha256={want}" in capsys.readouterr().out.splitlines()


@pytest.mark.parametrize("name", ["golden.json", "fault.json"])
def test_validate_accepts_scenario(name):
    assert main(["validate", str(SCENARIOS / name)]) == 0


@pytest.mark.parametrize("name", ["golden.json", "fault.json"])
def test_trace_file_bytes_hash_to_the_printed_hash(capsys, tmp_path, name):
    trace_file = tmp_path / "trace.log"
    assert main(["run", str(SCENARIOS / name), "--trace", str(trace_file)]) == 0
    digest = hashlib.sha256(trace_file.read_bytes()).hexdigest()
    assert f"trace_sha256={digest}" in capsys.readouterr().out.splitlines()


@pytest.mark.parametrize("content, message", [
    ('{"classes": 3}', "classes: expected a list, got 3"),
    ('{"classes": [', "line 2 col 1: Expecting value"),
    (None, "No such file or directory"),
])
def test_bad_scenario_is_reported_on_stderr_with_exit_2(capsys, tmp_path, content, message):
    path = tmp_path / "scenario.json"
    if content is not None:
        path.write_text(content + "\n")
    assert main(["validate", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("oon-sim: error: ") and message in err
    assert "Traceback" not in err and err.count("\n") == 1
