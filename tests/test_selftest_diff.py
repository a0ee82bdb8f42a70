"""scripts/selftest_diff.py on report files and on cli_examples output directories."""

import json
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "selftest_diff.py"

REPORT = {"command": "bloch", "class": "1 * t * dt", "exit_code": 0, "timing_seconds": 0.5}


def _write(directory, reports):
    directory.mkdir()
    for name, report in reports.items():
        (directory / name).write_text(json.dumps(report))
    return directory


def _diff(a, b):
    proc = subprocess.run([sys.executable, str(SCRIPT), str(a), str(b)],
                          capture_output=True, text=True, timeout=30)
    return proc.returncode, proc.stdout, proc.stderr


def test_identical_files_and_directories_exit_zero(tmp_path):
    a = _write(tmp_path / "a", {"00-bloch.json": REPORT, "01-cohom.json": {"rows": []}})
    b = _write(tmp_path / "b", {"00-bloch.json": dict(REPORT, timing_seconds=9.0),
                                "01-cohom.json": {"rows": [], "timing_seconds": 1}})
    assert _diff(a / "00-bloch.json", b / "00-bloch.json")[0] == 0
    code, out, _ = _diff(a, b)
    assert code == 0 and "2 files identical" in out


def test_changed_class_names_file_and_path(tmp_path):
    a = _write(tmp_path / "a", {"00-bloch.json": REPORT})
    b = _write(tmp_path / "b", {"00-bloch.json": dict(REPORT, **{"class": "0"})})
    code, out, _ = _diff(a, b)
    assert code == 1 and "00-bloch.json: differ at $.class" in out


def test_missing_file_exits_one(tmp_path):
    a = _write(tmp_path / "a", {"00-bloch.json": REPORT, "01-bloch.json": REPORT})
    b = _write(tmp_path / "b", {"00-bloch.json": REPORT})
    code, out, _ = _diff(a, b)
    assert code == 1 and f"01-bloch.json: missing in {b}" in out
    code, out, _ = _diff(b, a)
    assert code == 1 and f"01-bloch.json: missing in {b}" in out


def test_unreadable_file_exits_two(tmp_path):
    a = _write(tmp_path / "a", {"00-bloch.json": REPORT})
    b = _write(tmp_path / "b", {"00-bloch.json": REPORT})
    (b / "00-bloch.json").write_text("{not json")
    code, out, err = _diff(a, b)
    assert code == 2 and not out and "error:" in err
