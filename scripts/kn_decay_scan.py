"""Count kn-decay sweep draws that fail, over the benchmark's op seeds.

Each draw is one `sweep-kn` benchmark op: `cli.run_sweep("kn-decay", 1,
seed)` with seed = `op_seed("sweep-kn", s, i)` for run seeds s and op
indices i. A draw that does not pass is checked again with
`check_KN_decay` and printed with the parts of the pass rule it misses,
and whether it misses the unscaled magnitude bound final_magnitude < tol
that the rule used before it scaled with the limit.

Run from the checkout root, with the qsix to test on PYTHONPATH:

    PYTHONPATH=src python3 scripts/kn_decay_scan.py --seeds 1-8 \\
        --draws 10000 --workers 2

Output is deterministic: the counts, then one line per failing draw in
(s, i) order.
"""

from __future__ import annotations

import argparse
import multiprocessing
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

from workloads import op_seed  # noqa: E402

from qsix import (DEFAULT_RTOL, QSixError, check_KN_decay,  # noqa: E402
                  sample)
from qsix.cli import _SWEEPS, run_sweep  # noqa: E402


def _seed_range(text: str) -> range:
    lo, _, hi = text.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def _why(seed: int) -> str:
    """The parts of the pass rule that the draw at `seed` misses."""
    p = sample("trunc", _SWEEPS["kn-decay"][1], seed, 1)[0]
    try:
        rep = check_KN_decay(p)
    except QSixError as exc:  # the sweep recorded an errored draw
        return f"error {type(exc).__name__}: {exc}"
    tol = DEFAULT_RTOL["kn-decay"]
    final = rep.final_magnitude
    missed = [name for name, ok in (
        ("magnitude", final <= tol * max(1.0, abs(rep.limit))),
        ("unscaled-magnitude", final < tol),
        ("decreasing", rep.eventually_decreasing),
        ("limit", rep.limit_rel_err <= tol)) if not ok]
    return (f"misses {'+'.join(missed) or 'nothing here'}; "
            f"final_magnitude {final:.3e} "
            f"|limit| {abs(rep.limit):.3e} "
            f"limit_rel_err {rep.limit_rel_err:.3e}")


def _scan(job) -> list:
    """(s, i, seed, why) for each draw of run seed s that does not pass."""
    s, draws = job
    bad = []
    for i in range(draws):
        seed = op_seed("sweep-kn", s, i)
        summary = run_sweep("kn-decay", 1, seed).summary
        if summary["passed"] != 1:
            bad.append((s, i, seed, _why(seed)))
    return bad


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="1-8",
                    help="run seeds s, as LO-HI or one number")
    ap.add_argument("--draws", type=int, default=10000,
                    help="op indices i per run seed")
    ap.add_argument("--workers", type=int, default=1)
    args = ap.parse_args(argv)
    jobs = [(s, args.draws) for s in _seed_range(args.seeds)]
    with multiprocessing.get_context("spawn").Pool(args.workers) as pool:
        bad = [row for rows in pool.map(_scan, jobs, chunksize=1)
               for row in rows]
    total = len(jobs) * args.draws
    print(f"draws {total} passed {total - len(bad)} not_passed {len(bad)}")
    for s, i, seed, why in bad:
        print(f"s={s} i={i} seed={seed}: {why}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
