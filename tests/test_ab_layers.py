"""``.github/scripts/ab_layers.py``, the in-process A/B of two source trees,
which CI runs against the base commit."""

import pathlib
import shutil
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
SCRIPT = ROOT / ".github" / "scripts" / "ab_layers.py"
LAYERS = (
    "synth_generate",
    "write_csv",
    "ingest_csv",
    "project_inputs+forward_steps",
    "trrl_gradients",
    "rtrl_gradients",
    "bptt_gradients",
    "finite_difference_gradients",
)


def copy_src(tmp_path, *edit: str) -> pathlib.Path:
    """A copy of the ``src`` tree; ``edit`` is (file, old, new), ``old``
    replaced by ``new`` in that file of the package."""
    src = tmp_path / "src"
    ignore = shutil.ignore_patterns("__pycache__")
    shutil.copytree(ROOT / "src" / "rnnp", src / "rnnp", ignore=ignore)
    if edit:
        file, old, new = edit
        path = src / "rnnp" / file
        text = path.read_text(encoding="utf-8")
        assert text.count(old) == 1
        path.write_text(text.replace(old, new), encoding="utf-8")
    return src


def ab(change_src: pathlib.Path):
    argv = [sys.executable, SCRIPT, ROOT / "src", change_src, "--rounds", "1"]
    return subprocess.run(argv, capture_output=True, text=True, timeout=300)


def test_a_tree_against_a_copy_of_itself_exits_0(tmp_path):
    result = ab(copy_src(tmp_path))
    assert result.returncode == 0, result.stdout + result.stderr
    rows = [line.split() for line in result.stdout.splitlines()[2:]]
    assert [(row[0], row[1]) for row in rows] == [(name, "same") for name in LAYERS]


def test_a_changed_generator_exits_1_naming_synth_generate(tmp_path):
    result = ab(copy_src(tmp_path, "synth.py", "BASE_LOG_MWH = 8.0", "BASE_LOG_MWH = 8.5"))
    assert result.returncode == 1
    assert result.stdout.splitlines()[-1].split()[:2] == ["synth_generate", "DIFFERS:"]


def test_reordered_kernel_sums_exit_1_naming_trrl_gradients(tmp_path):
    # Every generated row sum added in reverse: the first layer that runs
    # a tree kernel is trrl's.
    old = 'return " + ".join(["0.0", *terms])'
    new = 'return " + ".join(["0.0", *reversed(list(terms))])'
    result = ab(copy_src(tmp_path, "kernels.py", old, new))
    assert result.returncode == 1
    assert result.stdout.splitlines()[-1].split()[:2] == ["trrl_gradients", "DIFFERS:"]


def test_a_changed_signature_is_not_comparable(tmp_path):
    old = "def ingest_csv(path: str)"
    result = ab(copy_src(tmp_path, "series.py", old, "def ingest_csv(path: str, x=0)"))
    assert result.returncode == 1
    assert "ingest_csv                     not comparable: series.ingest_csv" in result.stdout
    assert "trrl_gradients                 same" in result.stdout
