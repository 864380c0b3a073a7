import csv
import io
import json
import math

import pytest

from qsix.errors import PoleError
from qsix.identities import ResidualReport
from qsix.report import (SCHEMA, build_sweep_report, render_sweep,
                         sweep_to_csv, sweep_to_json, to_jsonable)


def rep(passed=True, rel=1e-12, note=""):
    return ResidualReport(lhs=1.0 + 2.0j, rhs=1.0 + 2.0j, abs_err=0.0,
                          rel_err=rel, passed=passed, note=note)


def test_jsonable_complex_and_specials():
    assert to_jsonable(1.5 - 2.0j) == {"re": 1.5, "im": -2.0}
    assert to_jsonable(float("nan")) == "nan"
    assert to_jsonable(float("inf")) == "inf"
    assert to_jsonable(float("-inf")) == "-inf"
    assert to_jsonable(True) is True
    assert to_jsonable(None) is None
    assert to_jsonable((1, 2)) == [1, 2]
    assert to_jsonable({3: "x"}) == {"3": "x"}


def test_jsonable_complex_parts_follow_the_float_rule():
    z = complex(math.nan, -math.inf)
    assert to_jsonable(z) == {"re": "nan", "im": "-inf"}
    assert to_jsonable(complex(math.inf, -0.0)) == {"re": "inf", "im": -0.0}
    doc = rep().replace(lhs=z, abs_err=math.nan)
    text = json.dumps(to_jsonable(doc))
    assert "NaN" not in text and "Infinity" not in text


def test_jsonable_dataclass_recurses():
    doc = to_jsonable(rep())
    assert doc["lhs"] == {"re": 1.0, "im": 2.0}
    assert doc["passed"] is True


def test_summary_counts_and_max_rel():
    rows = [
        (2, {"p": 1}, rep(rel=float("nan"))),
        (0, {"p": 2}, rep(rel=3e-9)),
        (1, {"p": 3}, rep(passed=False, rel=float("inf"))),
        (3, {"p": 4}, PoleError("factor vanishes")),
    ]
    out = build_sweep_report("demo", 7, {}, rows)
    assert out.summary == {"total": 4, "passed": 2, "failed": 1,
                           "errored": 1, "max_rel_err": 3e-9}
    # rows come back ordered by draw index regardless of input order
    assert [e["draw_index"] for e in out.results] == [0, 1, 2, 3]
    assert out.results[3]["error"]["type"] == "PoleError"


def test_json_is_schema_tagged_and_deterministic():
    rows = [(0, {"a": 0.5 + 0.25j}, rep())]
    a = sweep_to_json(build_sweep_report("demo", 3, {}, rows))
    b = sweep_to_json(build_sweep_report("demo", 3, {}, rows))
    assert a == b
    doc = json.loads(a)
    assert doc["schema"] == SCHEMA
    assert a.endswith("\n")
    # keys sorted at every level
    assert list(doc) == sorted(doc)


def test_json_round_trips_nan_free():
    rows = [(0, {}, rep(rel=float("nan")))]
    doc = json.loads(sweep_to_json(build_sweep_report("demo", 1, {}, rows)))
    assert doc["results"][0]["report"]["rel_err"] == "nan"
    assert not math.isnan(doc["summary"]["max_rel_err"])


def test_csv_flattens_and_sorts_header():
    rows = [
        (0, {"q": 0.5}, rep(note="fine")),
        (1, {"q": 0.25}, PoleError("factor vanishes")),
    ]
    text = sweep_to_csv(build_sweep_report("demo", 1, {}, rows))
    lines = text.splitlines()
    header = lines[0].split(",")
    assert header == sorted(header)
    assert "draw_index" in header
    assert "report.lhs.re" in header
    assert "error.type" in header
    # union header: the errored row leaves report.* cells empty
    row1 = dict(zip(header, lines[2].split(",")))
    assert row1["report.lhs.re"] == ""
    assert row1["error.type"] == "PoleError"


def test_csv_joins_lists_with_semicolons():
    rows = [(0, {"xs": [1, 2, 3]}, rep())]
    text = sweep_to_csv(build_sweep_report("demo", 1, {}, rows))
    assert "1;2;3" in text


def _cells(prefix, value, into):
    """A report entry as the strings of its CSV cells."""
    if isinstance(value, dict):
        for k, v in value.items():
            _cells(f"{prefix}.{k}" if prefix else k, v, into)
    else:
        into[prefix] = (";".join(map(str, value)) if isinstance(value, list)
                        else "" if value is None else str(value))
    return into


def test_json_and_csv_round_trip_a_sweep():
    rows = [(0, {"a": 0.5 + 0.25j, "xs": [1, 2.5]}, rep(note="x, \"y\"")),
            (1, {"a": complex(math.inf, -0.0), "n": None},
             rep(passed=False, rel=float("nan")).replace(
                 lhs=complex(math.nan, 1.0))),
            (2, {"a": 1j}, PoleError("factor 1 - b*q^(2) vanishes"))]
    cons = {"caps": (0.25, 0.7), "margin": 1e-6}
    report = build_sweep_report("demo", 5, cons, rows)
    text = sweep_to_json(report)
    # the JSON is the document of the report converted as a whole, byte
    # for byte, and reads back to it
    whole = {"schema": SCHEMA, **to_jsonable(report)}
    assert text == json.dumps(whole, sort_keys=True, indent=2) + "\n"
    doc = json.loads(text)
    assert doc == whole
    assert doc["constraints"] == {"caps": [0.25, 0.7], "margin": 1e-6}
    assert doc["results"][1]["params"]["a"] == {"re": "inf", "im": -0.0}
    # each CSV row reads back to the cells of its JSON entry, the cells
    # it lacks empty
    back = list(csv.DictReader(io.StringIO(sweep_to_csv(report))))
    cells = [_cells("", entry, {}) for entry in doc["results"]]
    header = sorted({key for c in cells for key in c})
    assert [list(row) for row in back] == [header] * len(cells)
    assert back == [{key: c.get(key, "") for key in header} for c in cells]


def test_render_rejects_unknown_format():
    with pytest.raises(ValueError):
        render_sweep(build_sweep_report("demo", 1, {}, []), "yaml")
