"""Reference SHA-256 digests of `qsix sweep --seed 7 --samples 50`.

    python3 perfbench/digests.py           # compare with reference_digests.json
    python3 perfbench/digests.py --write   # record them there

One digest per sweep identity, of the command's standard output, run with
the pure-Python kernels. They are labels, not gated metrics: a later change
that claims unchanged behaviour reproduces them, or names each digest it
changes and why. Exit code 1 when a digest differs from the recorded one.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from workloads import HERE, CliOneshot, run_child

REFERENCE = HERE / "reference_digests.json"
SEED = 7
SAMPLES = 50
IDENTITIES = ("abel", "bailey-a", "bailey-x", "kn-decay", "q-constancy",
              "recurrence", "remark1", "rogers", "t-recursion", "udiff",
              "vdiff", "weierstrass")


def sweep_digest(identity: str) -> str:
    rc, out, err, _ = run_child([sys.executable, "-c", CliOneshot.entry,
                                 "sweep", "--identity", identity,
                                 "--samples", str(SAMPLES),
                                 "--seed", str(SEED)])
    if rc != 0:
        raise RuntimeError(f"sweep {identity} exited {rc}: "
                           f"{err.decode()[-500:]}")
    return hashlib.sha256(out).hexdigest()


def load_reference() -> dict:
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--write", action="store_true",
                    help="record the digests instead of comparing")
    args = ap.parse_args(argv)
    digests = {identity: sweep_digest(identity) for identity in IDENTITIES}
    if args.write:
        doc = {"command": f"qsix sweep --identity <identity> --samples "
                          f"{SAMPLES} --seed {SEED}",
               "backend": "python",
               "digests": digests}
        with open(REFERENCE, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")
        return 0
    want = load_reference()["digests"]
    changed = [i for i in IDENTITIES if digests[i] != want.get(i)]
    for identity in IDENTITIES:
        mark = "changed" if identity in changed else "same"
        print(f"{identity:12s} {digests[identity]}  {mark}")
    return 1 if changed else 0


if __name__ == "__main__":
    sys.exit(main())
