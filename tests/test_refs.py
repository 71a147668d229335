"""Byte-identical output on the fast pinned commands of the benchmark.

qpbench/refs.json pins the exit code and the stdout sha256 of every
benchmark command.  The fast ones run here the way the benchmark runs them:
a fresh ``python -m qpcox.cli`` process with its own ``--cache-dir``, so an
output change fails the test suite and not only the benchmark.  The hash
seed alternates between 0 and 7 along the list, which shows output that
depends on set or dict order without running each command twice.

pyproject.toml claims Python 3.10 and later, so a few of them also run
under a python3.10 found on PATH, and are skipped where none runs.
"""

import functools
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
REFS = json.loads((ROOT / "qpbench" / "refs.json").read_text())

FAST = [
    "basis --type A2 --coset s1",
    "basis --type A2 --regular",
    "survey --type A2",
    "verify --type A2 --suite hecke",
    "wgraph --type A2 --regular",
    "survey --type D4",
    "survey --type F4",
    "basis --type A5 --class fpf",
    "verify --type B3 --suite all",
    "wgraph --type A4 --regular",
    "basis --type H3 --regular",
    "verify --type A4 --suite hecke",
    "basis --type E6 --coset s1,s2,s3,s4,s5",
    "survey --type B5 --theta id",
    "verify --type U3 --suite universal --cutoff 10",
]


OLDEST = [
    "survey --type A2",
    "basis --type A2 --regular",
    "wgraph --type A2 --regular",
    "verify --type B3 --suite all",
]


def run_pinned(python, tmp_path, command, hash_seed):
    """Run command in a fresh process of python and check it against its pin."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED=hash_seed)
    argv = [python, "-m", "qpcox.cli", *command.split(), "--cache-dir", str(tmp_path / "cache")]
    proc = subprocess.run(argv, cwd=tmp_path, env=env, capture_output=True, timeout=300)
    ref = REFS[command]
    assert proc.returncode == ref["rc"], proc.stderr.decode()
    assert hashlib.sha256(proc.stdout).hexdigest() == ref["sha256"]


@functools.lru_cache(maxsize=None)
def python310():
    """A python3.10 on PATH that runs and is 3.10, or None."""
    exe = shutil.which("python3.10")
    if exe is None:
        return None
    probe = subprocess.run([exe, "-c", "import sys; print(sys.version_info[:2])"], capture_output=True, timeout=60)
    return exe if probe.returncode == 0 and probe.stdout.strip() == b"(3, 10)" else None


@pytest.mark.parametrize("command, hash_seed", [(c, ("0", "7")[i % 2]) for i, c in enumerate(FAST)],
                         ids=FAST)
def test_pinned_output(tmp_path, command, hash_seed):
    run_pinned(sys.executable, tmp_path, command, hash_seed)


@pytest.mark.parametrize("command", OLDEST)
def test_pinned_output_on_python310(tmp_path, command):
    exe = python310()
    if exe is None:
        pytest.skip("no python3.10 on PATH runs")
    run_pinned(exe, tmp_path, command, "0")
