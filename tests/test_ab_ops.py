"""Smoke test of scripts/ab_ops.py: two copies of one tree, loaded under
distinct package names or run as child processes, give identical results
op for op, with the quartiles of the per-op time ratio; a cache prefix
that no child would write is refused."""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_ab_ops_compares_two_trees_op_for_op():
    src = str(ROOT / "src")
    r = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "ab_ops.py"), "--old", src,
         "--new", src, "--ops", "2"], capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    lines = r.stdout.splitlines()
    assert [line.split(":")[0] for line in lines] == [
        "sweep-t", "sweep-kn", "check-bilateral", "cli-oneshot"]
    assert all(line.endswith("of 2 ops, results identical")
               for line in lines), lines
    for line in lines:
        q1, q2, q3 = map(float, re.search(
            r"new/old per op (\S+) \[(\S+), (\S+)\]", line).group(2, 1, 3))
        assert 0.0 < q1 <= q2 <= q3, line


def test_ab_ops_refuses_a_cache_prefix_that_no_child_writes(tmp_path):
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
               PYTHONPYCACHEPREFIX=str(tmp_path))
    r = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "ab_ops.py"), "--old",
         str(ROOT / "src"), "--ops", "2"], capture_output=True, text=True,
        env=env)
    assert r.returncode == 2
    assert r.stdout == ""
    assert "PYTHONPYCACHEPREFIX with PYTHONDONTWRITEBYTECODE" in r.stderr
    assert "env -u PYTHONDONTWRITEBYTECODE PYTHONPYCACHEPREFIX=" in r.stderr
