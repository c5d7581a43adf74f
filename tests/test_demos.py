"""Every demo prints exactly the output pinned in demos/expected/."""

import os
import pathlib
import subprocess
import sys

import pytest

import supportmonoids

DEMOS = pathlib.Path(__file__).resolve().parent.parent / "demos"
NAMES = sorted(p.stem for p in DEMOS.glob("*.py"))


def test_every_demo_has_pinned_output():
    assert NAMES and NAMES == sorted(p.stem for p in (DEMOS / "expected").glob("*.txt"))


@pytest.mark.parametrize("name", NAMES)
def test_demo_output_is_pinned(name):
    src = str(pathlib.Path(supportmonoids.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    proc = subprocess.run([sys.executable, str(DEMOS / f"{name}.py")],
                          capture_output=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout == (DEMOS / "expected" / f"{name}.txt").read_bytes()
