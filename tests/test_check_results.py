"""``.github/scripts/check_results.py``, which CI runs on the untraced
perfbench runs of every Python and on the traced run."""

import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
SCRIPT = ROOT / ".github" / "scripts" / "check_results.py"

WORKLOADS = ("train", "forecast", "walk_forward", "verify")
RUN = "".join(
    f"[{w} seed=1] count windows = 14\n"
    f"[{w} seed=1] digest rows_sha256 = 0a1b\n"
    f'{{"workload": "{w}", "correct": true, "failed": 0}}\n'
    for w in WORKLOADS
)


def check(tmp_path, *runs: str):
    names = []
    for i, text in enumerate(runs):
        names.append(f"run{i}.txt")
        (tmp_path / names[-1]).write_text(text)
    argv = [sys.executable, str(SCRIPT), *names]
    return subprocess.run(argv, cwd=tmp_path, capture_output=True, text=True)


@pytest.mark.parametrize("copies", [1, 3])
def test_correct_runs_exit_0(tmp_path, copies):
    result = check(tmp_path, *[RUN] * copies)
    assert result.returncode == 0
    assert "run0.txt: 4 result lines, 0 bad" in result.stdout


@pytest.mark.parametrize(
    "old, new",
    [
        ('"verify", "correct": true', '"verify", "correct": false'),
        ('"train", "correct": true, "failed": 0', '"train", "correct": true, "failed": 2'),
        ('"forecast", "correct": true', '"forecast", "correct": "true"'),
    ],
    ids=["incorrect", "failed_operations", "correct_not_a_bool"],
)
def test_bad_result_line_exits_1(tmp_path, old, new):
    result = check(tmp_path, RUN.replace(old, new))
    assert result.returncode == 1
    assert "4 result lines, 1 bad" in result.stdout


@pytest.mark.parametrize("count", [3, 5])
def test_result_line_count_other_than_4_exits_1(tmp_path, count):
    lines = RUN.splitlines(True)
    last = '{"workload": "extra", "correct": true, "failed": 0}\n'
    text = "".join(lines[:-1]) if count == 3 else RUN + last
    result = check(tmp_path, text)
    assert result.returncode == 1
    assert f"{count} result lines, 0 bad" in result.stdout


@pytest.mark.parametrize(
    "old, new",
    [("windows = 14", "windows = 15"), ("= 0a1b", "= 0a1c")],
    ids=["count", "digest"],
)
def test_runs_differing_in_a_count_or_digest_exit_1(tmp_path, old, new):
    result = check(tmp_path, RUN, RUN, RUN.replace(old, new, 1))
    assert result.returncode == 1
    assert "run2.txt: 8 digest/count lines, 2 differ from run0.txt" in result.stdout


def test_runs_in_another_order_exit_1(tmp_path):
    lines = RUN.splitlines(True)
    swapped = "".join([lines[1], lines[0]] + lines[2:])
    assert check(tmp_path, RUN, swapped).returncode == 1


def test_several_runs_without_digest_or_count_lines_exit_1(tmp_path):
    results_only = "".join(l for l in RUN.splitlines(True) if l.startswith("{"))
    assert check(tmp_path, results_only).returncode == 0
    assert check(tmp_path, results_only, results_only).returncode == 1


def test_no_file_prints_usage(tmp_path):
    result = check(tmp_path)
    assert result.returncode == 1
    assert "check_results.py RUN.txt" in result.stderr
