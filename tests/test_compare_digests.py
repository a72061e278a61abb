"""``.github/scripts/compare_digests.py``, which CI's "same digests and
counts as the base commit" step runs on two perfbench outputs."""

import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
SCRIPT = ROOT / ".github" / "scripts" / "compare_digests.py"

RUN = """\
[train seed=1] count windows = 1400
[train seed=1] digest input_csv_sha256 = 0a1b
[train seed=1] digest trained_params_sha256 = 2c3d
{"workload": "train", "correct": true, "failed": 0}
[verify seed=1] count comparisons = 24
[verify seed=1] digest gradcheck_rows_sha256 = 4e5f
"""


def compare(tmp_path, base: str, change: str):
    (tmp_path / "base.txt").write_text(base)
    (tmp_path / "change.txt").write_text(change)
    argv = [sys.executable, str(SCRIPT), "base.txt", "change.txt"]
    return subprocess.run(argv, cwd=tmp_path, capture_output=True, text=True)


def test_equal_digests_exit_0(tmp_path):
    result = compare(tmp_path, RUN, RUN)
    assert result.returncode == 0
    assert "3 base digests, 3 change digests, 0 differ" in result.stdout


def test_changed_value_exits_1_naming_workload_and_digest(tmp_path):
    result = compare(tmp_path, RUN, RUN.replace("= 2c3d", "= 2c3e"))
    assert result.returncode == 1
    assert "[train] trained_params_sha256: base 2c3d, change 2c3e" in result.stdout


@pytest.mark.parametrize("missing_from", ["base", "change"])
def test_digest_missing_from_one_run_exits_1(tmp_path, missing_from):
    short = RUN.replace("[verify seed=1] digest gradcheck_rows_sha256 = 4e5f\n", "")
    runs = (short, RUN) if missing_from == "base" else (RUN, short)
    result = compare(tmp_path, *runs)
    assert result.returncode == 1
    assert "[verify] gradcheck_rows_sha256" in result.stdout


@pytest.mark.parametrize("empty", ["base", "change", "both"])
def test_run_without_digest_lines_exits_1(tmp_path, empty):
    no_digests = "".join(l for l in RUN.splitlines(True) if "] digest " not in l)
    base = no_digests if empty in ("base", "both") else RUN
    change = no_digests if empty in ("change", "both") else RUN
    assert compare(tmp_path, base, change).returncode == 1


def test_runs_differing_only_in_counts_exit_1_naming_the_counts(tmp_path):
    change = RUN.replace("windows = 1400", "windows = 1401").replace(
        "comparisons = 24", "comparisons = 25"
    )
    result = compare(tmp_path, RUN, change)
    assert result.returncode == 1
    assert "3 base digests, 3 change digests, 0 differ" in result.stdout
    assert "2 base counts, 2 change counts, 2 differ" in result.stdout
    assert "[train] windows: base 1400, change 1401" in result.stdout
    assert "[verify] comparisons: base 24, change 25" in result.stdout

