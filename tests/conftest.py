import json
import os
import pathlib
import subprocess
import sys
from types import SimpleNamespace

import pytest

sys.path.insert(0, str(pathlib.Path(__file__).parent))  # for oracles.py

FIXTURES = pathlib.Path(__file__).parent.parent / "fixtures"
SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


@pytest.fixture(scope="session")
def fixtures_dir():
    return FIXTURES


def load_fixture(name):
    with open(FIXTURES / f"{name}.json", "r", encoding="utf-8") as fh:
        return json.load(fh)


FIXTURE_NAMES = ("randclosure-s2", "randclosure-s3", "localbass-l1", "cusp", "wiegand-e1")


# Starts the probed child and reports on it.  Linux counts in a process's
# ru_maxrss the resident size it had before its exec, so a child forked from
# the test process itself would report at least the test process's size;
# this launcher is a fresh, small interpreter.
_LAUNCHER = """
import os, resource, subprocess, sys, time
limit, cpu = map(int, sys.argv[1:3])
argv = sys.argv[3:]
def cap():
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
    resource.setrlimit(resource.RLIMIT_CPU, (cpu, cpu))
start = time.perf_counter()
child = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                         stderr=subprocess.PIPE, preexec_fn=cap)
err = child.stderr.read()
_, status, usage = os.wait4(child.pid, 0)
child.returncode = os.waitstatus_to_exitcode(status)  # reaped: Popen must not wait
wall = time.perf_counter() - start
child.stderr.close()
sys.stderr.buffer.write(err)
print(child.returncode, wall, usage.ru_maxrss)
"""


def limit_probe(*args):
    """Run a fresh interpreter on this checkout's package with ``args``
    (``"-m", "supportmonoids.cli", ...`` for a CLI command, ``"-c", code``
    for a library call), with an RLIMIT_AS of 1 GiB, and an RLIMIT_CPU
    of 120 s against a hang, set in that child alone.

    Returns the child's exit status (minus the signal when one ended
    it), its stderr, its wall time in s and its peak RSS in MB, the
    ``ru_maxrss`` that ``os.wait4`` reports; its stdout is discarded.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    proc = subprocess.run([sys.executable, "-c", _LAUNCHER, str(1 << 30), "120",
                           sys.executable, *args],
                          env=env, capture_output=True, text=True, timeout=600)
    status, wall, maxrss_kb = proc.stdout.split()
    return SimpleNamespace(status=int(status), stderr=proc.stderr, wall_s=float(wall),
                           peak_mb=int(maxrss_kb) / 1024)
