"""Stable serialization of check results and sweep aggregates.

Reports are reproducible byte-for-byte: keys sorted, no timestamps or host
details, complex numbers as {"re": ..., "im": ...}. CSV flattens one draw
per row; list-valued fields join with ';'.
"""

from __future__ import annotations

import csv
import io
import json
import math

from ._record import Record, set_field

SCHEMA = "qsix-report/1"


def _real(x: float):
    """x, or its name "nan", "inf" or "-inf" where it is not finite."""
    return x if math.isfinite(x) else str(x)


def to_jsonable(x):
    """Recursive conversion to strict JSON-encodable structures: each
    non-finite float, complex parts too, becomes a string."""
    if isinstance(x, complex):
        return {"re": _real(x.real), "im": _real(x.imag)}
    if isinstance(x, Record):
        return {name: to_jsonable(getattr(x, name)) for name in x._fields}
    if isinstance(x, dict):
        return {str(k): to_jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [to_jsonable(v) for v in x]
    if isinstance(x, bool) or x is None:
        return x
    if isinstance(x, float):
        return _real(x)
    return x


class SweepReport(Record):
    """Aggregate of one randomized sweep.

    results hold one entry per draw, ordered by draw_index, each carrying
    the drawn params and either a residual report or a classified error.
    constraints, results and summary hold JSON-ready values, as
    `build_sweep_report` makes them; `sweep_to_json` dumps them as they
    stand.
    """

    identity: str
    seed: int
    constraints: dict
    results: list
    summary: dict

    def __init__(self, identity, seed, constraints, results, summary):
        set_field(self, "identity", identity)
        set_field(self, "seed", seed)
        set_field(self, "constraints", constraints)
        set_field(self, "results", results)
        set_field(self, "summary", summary)


def build_sweep_report(identity: str, seed: int, constraints,
                       rows) -> SweepReport:
    """rows: iterable of (draw_index, params, outcome) where outcome is a
    report record (anything with .passed) or an exception instance."""
    results = []
    passed = failed = errored = 0
    max_rel = 0.0
    for draw_index, params, outcome in sorted(rows, key=lambda r: r[0]):
        entry = {"draw_index": draw_index, "params": to_jsonable(params)}
        if isinstance(outcome, BaseException):
            entry["error"] = {"type": type(outcome).__name__,
                              "message": str(outcome)}
            errored += 1
        else:
            entry["report"] = to_jsonable(outcome)
            if outcome.passed:
                passed += 1
            else:
                failed += 1
            rel = getattr(outcome, "rel_err", None)
            if rel is None:
                rel = getattr(outcome, "limit_rel_err", 0.0)
            if rel == rel and rel != float("inf"):
                max_rel = max(max_rel, rel)
        results.append(entry)
    summary = {"total": len(results), "passed": passed, "failed": failed,
               "errored": errored, "max_rel_err": max_rel}
    return SweepReport(identity=identity, seed=seed,
                       constraints=to_jsonable(constraints),
                       results=results, summary=summary)


def sweep_to_json(report: SweepReport) -> str:
    """The report as schema-tagged JSON. Its fields are dumped as they
    stand: `build_sweep_report` has converted them with `to_jsonable`
    already."""
    doc = dict(zip(report._fields, report._values(report)), schema=SCHEMA)
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _flatten(prefix: str, value, into: dict) -> None:
    if isinstance(value, dict):
        for k in sorted(value):
            _flatten(f"{prefix}.{k}" if prefix else k, value[k], into)
    elif isinstance(value, list):
        into[prefix] = ";".join(str(v) for v in value)
    else:
        into[prefix] = value


def sweep_to_csv(report: SweepReport) -> str:
    rows = []
    for entry in report.results:
        flat: dict = {}
        _flatten("", entry, flat)
        rows.append(flat)
    header: list = []
    seen = set()
    for flat in rows:
        for key in flat:
            if key not in seen:
                seen.add(key)
                header.append(key)
    header.sort()
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=header, restval="",
                            lineterminator="\n")
    writer.writeheader()
    for flat in rows:
        writer.writerow(flat)
    return buf.getvalue()


def render_sweep(report: SweepReport, fmt: str) -> str:
    if fmt == "json":
        return sweep_to_json(report)
    if fmt == "csv":
        return sweep_to_csv(report)
    raise ValueError(f"unknown report format {fmt!r}")
