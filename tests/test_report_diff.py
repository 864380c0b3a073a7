"""scripts/report_diff.py on two small hand-made sweep reports."""

import importlib.util
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_SPEC = importlib.util.spec_from_file_location(
    "report_diff", ROOT / "scripts" / "report_diff.py")
report_diff = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(report_diff)

Q = {"re": 0.5, "im": 0.0}


def _row(index, lhs, rhs, passed=True, note=""):
    return {"draw_index": index, "params": {"q": Q, "N": 0},
            "report": {"lhs": {"re": lhs, "im": 0.0},
                       "rhs": {"re": rhs, "im": 0.0}, "abs_err": 0.0,
                       "rel_err": 1e-13, "passed": passed, "note": note}}


def _report(results, max_rel_err=1e-13):
    return {"schema": "qsix-report/1", "identity": "udiff", "seed": 7,
            "constraints": {"pole_margin": 0.001}, "results": results,
            "summary": {"total": len(results), "max_rel_err": max_rel_err}}


def _up(x, steps):
    for _ in range(steps):
        x = math.nextafter(x, math.inf)
    return x


OLD = _report([
    _row(0, 1.0, 1.0),
    _row(1, 2.0, 2.0),
    _row(2, 3.0, 3.0),
    {"draw_index": 3, "params": {"q": Q, "N": 0},
     "error": {"type": "PoleError", "message": "factor 1 - q vanishes"}},
])
NEW = _report([
    _row(0, 1.0, 1.5, passed=False),
    _row(1, 7.0, 7.0),
    _row(2, _up(3.0, 2), 3.0, note="x"),
    _row(3, 4.0, 4.0),
], max_rel_err=_up(1e-13, 3))


def _run(tmp_path, capsys, old, new) -> tuple:
    paths = []
    for name, doc in (("old.json", old), ("new.json", new)):
        paths.append(tmp_path / name)
        paths[-1].write_text(json.dumps(doc))
    rc = report_diff.main([str(p) for p in paths])
    return rc, capsys.readouterr().out.splitlines()


def test_identical_reports(tmp_path, capsys):
    rc, lines = _run(tmp_path, capsys, OLD, json.loads(json.dumps(OLD)))
    assert rc == 0
    assert "verdict changes: 0" in lines
    assert lines[-1] == "reports are identical"
    fields = lines[lines.index("largest change per numeric field, in "
                               "ulps:") + 1:lines.index(
                                   "other fields changed: 0")]
    assert fields and all(line.split()[1] == "0" for line in fields)


def test_verdicts_moved_indices_and_ulps(tmp_path, capsys):
    rc, lines = _run(tmp_path, capsys, OLD, NEW)
    assert rc == 1
    at = lines.index
    assert lines[at("verdict changes: 2") + 1:at("verdict changes: 2") + 3] \
        == ["  draw 0: passed -> failed",
            "  draw 3: error PoleError -> passed"]
    assert lines[at("worst index moved: 1 rows (both sides past 1048576 "
                    "ulps)") + 1] == "  draw 1"
    by_field = {line.split()[0]: line.split()[1:] for line in lines
                if line.startswith(("  report.", "  summary."))}
    # draw 1's move, 2.0 -> 7.0, is the largest on both sides
    step = report_diff.ordinal(7.0) - report_diff.ordinal(2.0)
    assert by_field["report.lhs.re"] == [f"{step:g}", "(draw", "1)"]
    assert by_field["report.rhs.re"] == [f"{step:g}", "(draw", "1)"]
    assert by_field["summary.max_rel_err"] == ["3", "(summary)"]
    assert by_field["report.abs_err"] == ["0"]
    assert "other fields changed: 2" in lines
    assert "  report.note: in 1 draws" in lines
    assert "  report.passed: in 1 draws" in lines
    assert lines[-1] == "reports differ"


@pytest.mark.parametrize("new, code", [(OLD, 0), (NEW, 1)])
def test_a_reader_that_has_gone_gets_the_exit_code_and_no_traceback(
        tmp_path, new, code):
    paths = []
    for name, doc in (("old", OLD), ("new", new)):
        paths.append(tmp_path / f"{name}.json")
        paths[-1].write_text(json.dumps(doc))
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run(
            [sys.executable, str(ROOT / "scripts" / "report_diff.py"),
             *map(str, paths)], stdout=write, stderr=subprocess.PIPE)
    finally:
        os.close(write)
    assert (proc.returncode, proc.stderr) == (code, b"")


def test_ulps_count_doubles():
    ulps = report_diff.ulps
    assert ulps(1.0, math.nextafter(1.0, 2.0)) == 1
    assert ulps(-0.0, 0.0) == 0
    assert ulps(5e-324, -5e-324) == 2
    assert ulps(math.nan, math.nan) == 0
    assert ulps(1.0, math.inf) == math.inf
