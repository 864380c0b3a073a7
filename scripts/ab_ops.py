"""Time the benchmark's ops on two source trees, alternating.

Both trees are loaded into this one process under distinct package names
(qsix imports only relatively, so `qsix_old.series` reads
`qsix_old._backend`). Then op i of a workload runs on one tree and at
once on the other, the order flipping from op to op, so that a drift in
host speed over the run falls on both trees alike. The ops and their
inputs are those of `perfbench/workloads.py`, drawn from a state built
from each tree's modules, outside the op's time.

An in-process op (sweep-t, sweep-kn, check-bilateral) is timed with
`time.process_time`; its result is its success and the digest of its
output. A cli-oneshot op is one `qsix` child process per tree, started as
the benchmark starts it but with PYTHONPATH set to that tree; its time is
the child's CPU time (user plus system) read with `os.wait4`, and its
result the child's exit code and the digest of its stdout. The children
inherit this process's environment, so its bytecode settings decide
whether they compile qsix from source: with PYTHONDONTWRITEBYTECODE set
they do (a cold start). PYTHONPYCACHEPREFIX as well warms nothing, since
no cache is written under the prefix, and the children then compile the
standard library too; the script refuses that pair. For a warm run,
unset the first:

    env -u PYTHONDONTWRITEBYTECODE PYTHONPYCACHEPREFIX=../pycache \\
        python3 scripts/ab_ops.py --old ../parent/src --workload cli-oneshot

For each workload it prints the median op time on each tree, the median
and quartiles of the per-op time ratio new/old (a gain inside the noise
has quartiles on both sides of 1), on how many ops the new tree was
faster, and whether every op gave the same result on both trees. It is a
quick check while developing a change, not a replacement for
`perfbench/run.py`:

    python3 scripts/ab_ops.py --old ../parent/src --new src --ops 400
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import importlib.util
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

from workloads import WORKLOADS as BENCH  # noqa: E402

WORKLOADS = tuple(BENCH)


def load_tree(src: Path, name: str) -> dict:
    """The qsix package under `src`, imported as `name`, the modules that
    the workloads' ops read, and `src` itself, as a workload state."""
    pkg = src / "qsix"
    spec = importlib.util.spec_from_file_location(
        name, pkg / "__init__.py", submodule_search_locations=[str(pkg)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return {"src": src, "qsix": module,
            **{sub: importlib.import_module(f"{name}.{sub}")
               for sub in ("cli", "identities", "report")}}


def run_child(argv: list, env: dict) -> tuple:
    """(CPU time, (exit code, SHA-256 of stdout)) of argv run to completion;
    the child is reaped with wait4 to read its own resource usage."""
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE,
                            stderr=subprocess.DEVNULL, env=env)
    try:
        out = proc.stdout.read()
    finally:
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    return (usage.ru_utime + usage.ru_stime,
            (proc.returncode, hashlib.sha256(out).hexdigest()))


def make_op(workload: str, tree: dict, seed: int):
    """op(index) -> (CPU time, result) of op `index` of `workload` on
    `tree`."""
    bench = BENCH[workload]
    state = {"seed": seed, **tree}
    if bench.spawns:
        env = dict(os.environ, PYTHONPATH=str(tree["src"]))

        def child(index):
            return run_child([sys.executable, "-c", bench.entry,
                              *bench.inputs(state, index)], env)
        return child

    def op(index):
        bench.prepare(state, index)
        start = time.process_time()
        out = bench.op(state, index)
        return time.process_time() - start, out
    return op


def compare(workload: str, old: dict, new: dict, seed: int, ops: int):
    """(old op times, new op times, ops whose results differ)."""
    op_old = make_op(workload, old, seed)
    op_new = make_op(workload, new, seed)
    t_old, t_new, differ = [], [], 0
    for index in range(ops):
        if index % 2:
            b, out_new = op_new(index)
            a, out_old = op_old(index)
        else:
            a, out_old = op_old(index)
            b, out_new = op_new(index)
        t_old.append(a)
        t_new.append(b)
        differ += out_old != out_new
    return t_old, t_new, differ


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--old", type=Path, required=True,
                    help="src directory of the tree to compare against")
    ap.add_argument("--new", type=Path, default=ROOT / "src",
                    help="src directory of the changed tree (default: "
                         "this checkout's)")
    ap.add_argument("--workload", choices=(*WORKLOADS, "all"),
                    default="all")
    ap.add_argument("--ops", type=int, default=200,
                    help="ops per workload, at least 2 (default 200)")
    ap.add_argument("--seed", type=int, default=7)
    args = ap.parse_args(argv)
    if args.ops < 2:
        ap.error("--ops must be at least 2: the quartiles need two ops")
    if (os.environ.get("PYTHONDONTWRITEBYTECODE")
            and os.environ.get("PYTHONPYCACHEPREFIX")):
        ap.error("PYTHONPYCACHEPREFIX with PYTHONDONTWRITEBYTECODE set warms "
                 "nothing: the children write no cache and compile the "
                 "standard library on every op; for a warm run use "
                 "env -u PYTHONDONTWRITEBYTECODE PYTHONPYCACHEPREFIX=DIR "
                 "python3 scripts/ab_ops.py ...")
    old = load_tree(args.old.resolve(), "qsix_old")
    new = load_tree(args.new.resolve(), "qsix_new")
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    same = True
    for workload in names:
        t_old, t_new, differ = compare(workload, old, new, args.seed,
                                       args.ops)
        m_old = statistics.median(t_old) * 1e3
        m_new = statistics.median(t_new) * 1e3
        q1, q2, q3 = statistics.quantiles(
            [b / a for a, b in zip(t_old, t_new)])
        wins = sum(b < a for a, b in zip(t_old, t_new))
        print(f"{workload}: old {m_old:.3f} ms, new {m_new:.3f} ms "
              f"({m_old / m_new:.3f}x), new/old per op {q2:.3f} "
              f"[{q1:.3f}, {q3:.3f}], new faster on {wins} of {args.ops} "
              f"ops, results {'identical' if not differ else 'DIFFER'}"
              f"{f' on {differ} ops' if differ else ''}")
        same = same and not differ
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
