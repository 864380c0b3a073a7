"""Compare two `qsix sweep` JSON reports draw by draw.

    python3 scripts/report_diff.py old.json new.json

Draws are matched by draw_index. The script prints:

- each verdict change: a draw that passed, failed or raised (naming the
  error) in one report and not in the same way in the other;
- each row whose worst index moved. A udiff, vdiff or recurrence draw
  reports the worst check over its window of n or N, and the report does
  not say which index that was. When it moves, the row's two sides become
  those of another check, so both move far beyond rounding while the
  params stay the same. Such a row is flagged when its params are equal
  and its lhs and rhs have each moved by more than INDEX_ULPS ulps (in
  the real or the imaginary part). On an identity with one check per
  draw, the flag means that check's value changed;
- the largest change per numeric field, in ulps, with the draw where it
  sits. A field is a path such as `report.lhs.re` or `params.q.im`, and
  every float in the rows and the summary counts. Fields that are not
  floats, such as notes, ints and flags, are listed with the number of
  draws where they changed. A field counts where both rows have it; a
  row that raised in one report only shows as a verdict change.

The exit code is 0 when the two reports are equal field by field and 1
when they differ, also when the reader closes the pipe before the end of
the output (as `| head` does), which ends the output quietly.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import struct
import sys

#: ulps past which both sides of a row count as another check's:
#: rounding moves a side by a few ulps, a change by a factor of 2 by 2**52
INDEX_ULPS = 2 ** 20


def ordinal(x: float) -> int:
    """x's position among the doubles: adjacent doubles differ by 1, and
    -0.0 and 0.0 share 0."""
    bits = struct.unpack("<q", struct.pack("<d", x))[0]
    return bits if bits >= 0 else -(1 << 63) - bits


def ulps(a: float, b: float) -> float:
    """Doubles between a and b; inf when either is not finite and they
    differ."""
    if a == b or (a != a and b != b):
        return 0
    if not (math.isfinite(a) and math.isfinite(b)):
        return math.inf
    return abs(ordinal(a) - ordinal(b))


def flatten(value, prefix: str = "", into: dict | None = None) -> dict:
    """Leaves of a JSON value by dotted path; list items by position."""
    into = {} if into is None else into
    if isinstance(value, dict):
        for key, item in value.items():
            flatten(item, f"{prefix}.{key}" if prefix else key, into)
    elif isinstance(value, list):
        for i, item in enumerate(value):
            flatten(item, f"{prefix}.{i}" if prefix else str(i), into)
    else:
        into[prefix] = value
    return into


def verdict(row: dict) -> str:
    if "error" in row:
        return f"error {row['error']['type']}"
    return "passed" if row["report"]["passed"] else "failed"


def _side_moved(old: dict, new: dict, side: str) -> bool:
    """Whether the real or imaginary part of a report side moved by more
    than INDEX_ULPS ulps."""
    a, b = old["report"].get(side), new["report"].get(side)
    if not (isinstance(a, dict) and isinstance(b, dict)):
        return False
    for part in ("re", "im"):
        x, y = _float(a.get(part)), _float(b.get(part))
        if x is not None and y is not None and ulps(x, y) > INDEX_ULPS:
            return True
    return False


def _float(value):
    """A JSON leaf as a float: floats as they are, and the report's
    "nan"/"inf"/"-inf" strings as theirs; None for anything else."""
    if isinstance(value, float):
        return value
    if value in ("nan", "inf", "-inf"):
        return float(value)
    return None


def diff(old: dict, new: dict) -> tuple:
    """(lines to print, whether the reports differ)."""
    lines = []
    for key in ("schema", "identity", "seed", "constraints"):
        if old.get(key) != new.get(key):
            lines.append(f"{key}: {old.get(key)!r} -> {new.get(key)!r}")
    rows_old = {row["draw_index"]: row for row in old["results"]}
    rows_new = {row["draw_index"]: row for row in new["results"]}
    for index in sorted(rows_old.keys() ^ rows_new.keys()):
        lines.append(f"draw {index}: only in the "
                     f"{'old' if index in rows_old else 'new'} report")
    common = sorted(rows_old.keys() & rows_new.keys())

    changes = [f"draw {i}: {verdict(rows_old[i])} -> {verdict(rows_new[i])}"
               for i in common
               if verdict(rows_old[i]) != verdict(rows_new[i])]
    lines.append(f"verdict changes: {len(changes)}")
    lines += [f"  {line}" for line in changes]

    moved = [i for i in common
             if "report" in rows_old[i] and "report" in rows_new[i]
             and rows_old[i]["params"] == rows_new[i]["params"]
             and _side_moved(rows_old[i], rows_new[i], "lhs")
             and _side_moved(rows_old[i], rows_new[i], "rhs")]
    lines.append(f"worst index moved: {len(moved)} rows "
                 f"(both sides past {INDEX_ULPS} ulps)")
    lines += [f"  draw {i}" for i in moved]

    largest: dict = {}
    other: dict = {}
    pairs = [(f"draw {i}", flatten(rows_old[i]), flatten(rows_new[i]))
             for i in common]
    pairs.append(("summary", flatten(old.get("summary", {}), "summary"),
                  flatten(new.get("summary", {}), "summary")))
    for where, a, b in pairs:
        for path in sorted(a.keys() & b.keys() - {"draw_index"}):
            x, y = a[path], b[path]
            fx, fy = _float(x), _float(y)
            if fx is not None and fy is not None:
                step = ulps(fx, fy)
                if path not in largest or step > largest[path][0]:
                    largest[path] = (step, where)
            elif x != y or type(x) is not type(y):
                other[path] = other.get(path, 0) + 1
    lines.append("largest change per numeric field, in ulps:")
    width = max(map(len, largest), default=0)
    for path in sorted(largest):
        step, where = largest[path]
        lines.append(f"  {path:<{width}}  {step:g}"
                     + (f"  ({where})" if step else ""))
    lines.append(f"other fields changed: {len(other)}")
    lines += [f"  {path}: in {n} draws" for path, n in sorted(other.items())]
    differs = (old != new)
    lines.append("reports differ" if differs else "reports are identical")
    return lines, differs


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("old", type=argparse.FileType("r"))
    ap.add_argument("new", type=argparse.FileType("r"))
    args = ap.parse_args(argv)
    with args.old, args.new:
        old, new = json.load(args.old), json.load(args.new)
    lines, differs = diff(old, new)
    try:
        print("\n".join(lines), flush=True)
    except BrokenPipeError:
        # keep the flush at exit off the closed pipe
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return 1 if differs else 0


if __name__ == "__main__":
    sys.exit(main())
