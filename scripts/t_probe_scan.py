"""Count what the sampled sweeps spend on drawing and checking.

For each sweep whose draws come from the sampler (every identity with a
sampler kind in `cli._SWEEPS`: udiff, vdiff, recurrence, kn-decay,
t-recursion, rogers, q-constancy, bailey-a, bailey-x, remark1) it runs
`cli.run_sweep(identity, draws, seed)` for every seed given and prints,
per identity:

- candidates: parameter sets drawn, accepted or not, and their number per
  accepted draw;
- walks: `series_side` kernel walks (one index direction of one sum)
  made by the whole sweep, any walk of the sampler included;
- check_walks: the walks made by the checks whose rows the report keeps;
- passed / failed / errored rows;
- a |q| histogram in bins of 0.05: per bin, the accepted draws and the
  candidates drawn there, so the share accepted by |q| can be read off.

The qsix under test is imported from `--src`, so the same scan can be run
on two source trees and compared. Run from the checkout root:

    python3 scripts/t_probe_scan.py --src src --seeds 7 --draws 20

Output is deterministic.
"""

from __future__ import annotations

import argparse
import sys
from collections import Counter
from pathlib import Path


def _seed_range(text: str) -> range:
    lo, _, hi = text.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def _scan(identity: str, seeds, draws: int) -> dict:
    from qsix import _backend, cli, errors, sampler

    ill = getattr(errors, "IllConditioned", ())
    counts = dict.fromkeys(("candidates", "walks", "check_walks", "passed",
                            "failed", "errored"), 0)
    drawn, accepted = Counter(), Counter()
    draw_once, series_side = sampler._draw_once, _backend.series_side
    kind, con, runner = cli._SWEEPS[identity]

    def counted_draw(*args):
        counts["candidates"] += 1
        p = draw_once(*args)
        drawn[_q_bin(abs(p.q))] += 1
        return p

    def counted_walk(*args):
        counts["walks"] += 1
        return series_side(*args)

    def counted_runner(*args, **kwargs):
        before = counts["walks"]
        try:
            return runner(*args, **kwargs)
        except ill:
            # a redrawn candidate: its walks are no kept check's
            before = counts["walks"]
            raise
        finally:
            counts["check_walks"] += counts["walks"] - before

    sampler._draw_once = counted_draw
    _backend.series_side = counted_walk
    cli._SWEEPS[identity] = (kind, con, counted_runner)
    try:
        for seed in seeds:
            rep = cli.run_sweep(identity, draws, seed)
            for key in ("passed", "failed", "errored"):
                counts[key] += rep.summary[key]
            for entry in rep.results:
                q = entry["params"]["q"]
                accepted[_q_bin(abs(complex(q["re"], q["im"])))] += 1
    finally:
        sampler._draw_once = draw_once
        _backend.series_side = series_side
        cli._SWEEPS[identity] = (kind, con, runner)
    counts["hist"] = {b: (accepted[b], drawn[b]) for b in sorted(drawn)}
    return counts


def _q_bin(aq: float) -> int:
    """Index of the |q| bin [0.05 k, 0.05 (k + 1)) holding aq."""
    return int(aq * 20.0)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", default="src",
                    help="source tree holding the qsix package")
    ap.add_argument("--seeds", default="7",
                    help="sweep seeds, as LO-HI or one number")
    ap.add_argument("--draws", type=int, default=20,
                    help="draws per sweep")
    ap.add_argument("--identity", action="append",
                    help="sampled sweep to scan (repeatable; default all)")
    args = ap.parse_args(argv)
    sys.path.insert(0, str(Path(args.src).resolve()))
    from qsix import cli

    sampled = [identity for identity, (kind, _, _) in cli._SWEEPS.items()
               if kind]
    unknown = set(args.identity or ()) - set(sampled)
    if unknown:
        ap.error(f"not a sampled sweep: {', '.join(sorted(unknown))}")
    seeds = _seed_range(args.seeds)
    total = len(seeds) * args.draws
    print(f"seeds {args.seeds} draws/sweep {args.draws} draws {total}")
    for identity in args.identity or sampled:
        c = _scan(identity, seeds, args.draws)
        per = c["candidates"] / total if total else 0.0
        print(f"{identity}: candidates {c['candidates']} "
              f"({per:.2f}/draw) walks {c['walks']} "
              f"check_walks {c['check_walks']} passed {c['passed']} "
              f"failed {c['failed']} errored {c['errored']}")
        for b, (acc, cand) in c["hist"].items():
            print(f"  |q| {b / 20:.2f}-{(b + 1) / 20:.2f}: accepted {acc} "
                  f"of {cand} candidates ({100.0 * acc / cand:.1f}%)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
