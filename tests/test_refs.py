"""Byte-identical output on the fast pinned commands of the benchmark.

qpbench/refs.json pins the exit code and the stdout sha256 of every
benchmark command.  The fast ones run here the way the benchmark runs them:
a fresh ``python -m qpcox.cli`` process with its own ``--cache-dir``, so an
output change fails the test suite and not only the benchmark.  The hash
seed alternates between 0 and 7 along the list, which shows output that
depends on set or dict order without running each command twice.
"""

import hashlib
import json
import os
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


@pytest.mark.parametrize("command, hash_seed", [(c, ("0", "7")[i % 2]) for i, c in enumerate(FAST)],
                         ids=FAST)
def test_pinned_output(tmp_path, command, hash_seed):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED=hash_seed)
    argv = [sys.executable, "-m", "qpcox.cli", *command.split(), "--cache-dir", str(tmp_path / "cache")]
    proc = subprocess.run(argv, cwd=tmp_path, env=env, capture_output=True, timeout=300)
    ref = REFS[command]
    assert proc.returncode == ref["rc"], proc.stderr.decode()
    assert hashlib.sha256(proc.stdout).hexdigest() == ref["sha256"]
