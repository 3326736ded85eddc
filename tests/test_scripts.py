import pathlib
import subprocess
import sys

import pytest

SCRIPTS = pathlib.Path(__file__).resolve().parent.parent / "scripts"


def test_patch_convergence_runs(tmp_path):
    out = subprocess.run(
        [sys.executable, str(SCRIPTS / "patch_convergence.py"),
         "--loops", "3", "--svg-dir", str(tmp_path)],
        capture_output=True, text=True, check=True)
    assert "osmot minQ2" in out.stdout
    assert (tmp_path / "osmot" / "loop003.svg").exists()
    assert (tmp_path / "laplacian" / "loop003.svg").exists()


def test_indentation_demo_runs(tmp_path):
    out = subprocess.run(
        [sys.executable, str(SCRIPTS / "indentation_demo.py"),
         "--rounds", "3", "--out-dir", str(tmp_path)],
        capture_output=True, text=True, check=True)
    assert (tmp_path / "round03.svg").exists()
    assert "inverted" in out.stdout
    # no inversions within the scripted increments
    for line in out.stdout.splitlines()[1:]:
        assert line.split()[-1] == "0"


@pytest.mark.parametrize("script,out_option,option,value", [
    ("indentation_demo.py", "--out-dir", "--loops-per-round", "-1"),
    ("indentation_demo.py", "--out-dir", "--rounds", "-1"),
    ("patch_convergence.py", "--svg-dir", "--loops", "-2"),
    ("patch_convergence.py", "--svg-dir", "--loops", "1.5"),
])
def test_bad_counts_are_usage_errors(tmp_path, script, out_option, option,
                                     value):
    # a count is parsed as a non-negative integer, like osmot smooth
    # --max-loops: a usage message and exit 2, not a traceback
    out = subprocess.run(
        [sys.executable, str(SCRIPTS / script), option, value,
         out_option, str(tmp_path / "out")],
        capture_output=True, text=True)
    assert out.returncode == 2
    assert "usage:" in out.stderr
    assert f"expected a non-negative integer, got {value!r}" in out.stderr
    assert "Traceback" not in out.stderr
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("script,out_option,option,value,message", [
    ("indentation_demo.py", "--out-dir", "--increment", "nan",
     "expected a finite number, got 'nan'"),
    ("indentation_demo.py", "--out-dir", "--increment", "inf",
     "expected a finite number, got 'inf'"),
    ("patch_convergence.py", "--svg-dir", "--distortion", "1.5",
     "distortion must be in [0, 1)"),
    ("patch_convergence.py", "--svg-dir", "--distortion", "nan",
     "distortion must be in [0, 1)"),
], ids=["increment-nan", "increment-inf", "distortion-1.5", "distortion-nan"])
def test_bad_floats_are_usage_errors(tmp_path, script, out_option, option,
                                     value, message):
    # the die increment must be finite and the distortion in [0, 1), as
    # osmot gen takes it: a usage message and exit 2, not a traceback
    out = subprocess.run(
        [sys.executable, str(SCRIPTS / script), option, value,
         out_option, str(tmp_path / "out")],
        capture_output=True, text=True)
    assert out.returncode == 2
    assert "usage:" in out.stderr
    assert message in out.stderr
    assert "Traceback" not in out.stderr
    assert not any(tmp_path.iterdir())
