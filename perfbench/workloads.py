"""The qsix benchmark workloads.

Every workload is a closed loop: one client in one process, no threads,
the next op starting when the previous one has returned. An op is
addressed by its index, so op i of a seed is the same op whether it runs
in the timed loop, in the traced replay or in a test. All inputs come from
the workload seed; the program sees only the generated inputs.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
#: traces and other run output, inside the checkout
OUT_DIR = HERE.parent / ".perfbench"


@dataclass(frozen=True)
class OpResult:
    ok: bool
    digest: str
    #: peak resident set of the op's child process, KiB; 0 when in-process
    child_rss_kb: int = 0


def op_seed(workload: str, seed: int, index: int, stream: int = 0) -> int:
    """Seed of one sweep inside op `index`; distinct per stream, so two
    identities of one op never share draws."""
    return random.Random(f"{workload}:{seed}:{index}:{stream}").getrandbits(32)


def child_env() -> dict:
    """Environment of a qsix child process: this checkout's sources and
    the pure-Python kernels."""
    return dict(os.environ, PYTHONPATH=str(SRC), QSIX_BACKEND="python")


def run_child(argv: list) -> tuple:
    """Run argv to completion: (exit code, stdout, stderr, peak RSS KiB).

    The child is reaped with wait4 so that its own resource usage is read,
    not the maximum over every child this process has waited for."""
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, env=child_env())
    try:
        out = proc.stdout.read()
        err = proc.stderr.read()
    finally:
        proc.stdout.close()
        proc.stderr.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, out, err, usage.ru_maxrss


class SweepWorkload:
    """Each op runs `cli.run_sweep` once per (identity, draws) pair on
    fresh seeds and renders every report as JSON."""

    spawns = False

    def __init__(self, name, sweeps, tail_pct, trace_ops):
        self.name = name
        self.sweeps = sweeps
        self.tail_pct = tail_pct
        self.trace_ops = trace_ops

    def prepare(self, state: dict, index: int) -> None:
        """Nothing to draw: each op derives its sweep seeds."""

    def setup(self, seed: int) -> dict:
        return {"seed": seed,
                "cli": importlib.import_module("qsix.cli"),
                "report": importlib.import_module("qsix.report")}

    def inputs(self, state: dict, index: int) -> list:
        return [(identity, draws,
                 op_seed(self.name, state["seed"], index, stream))
                for stream, (identity, draws) in enumerate(self.sweeps)]

    def op(self, state: dict, index: int, tracer=None) -> OpResult:
        cli, report = state["cli"], state["report"]
        h = hashlib.sha256()
        ok = True
        for identity, draws, seed in self.inputs(state, index):
            rep = cli.run_sweep(identity, draws, seed)
            h.update(report.render_sweep(rep, "json").encode())
            s = rep.summary
            if s["total"] != draws or s["passed"] != draws:
                sys.stderr.write(f"{self.name} op {index}: sweep {identity} "
                                 f"seed {seed}: {s}\n")
                ok = False
        return OpResult(ok, h.hexdigest())


class BatchedInputs:
    """Inputs drawn in batches of `batch` slots, each batch from a seed of
    its own; an op uses slot `index // ops_per_slot`.

    Set-up draws batch 0. `prepare(state, index)` draws the batch of op
    `index` when it is not the one held, and the loops call it between
    ops, outside op times. So no two ops of a run share a drawn input, and
    since one batch is held at a time memory does not grow with the run."""

    batch = 1
    ops_per_slot = 1

    def draw(self, state: dict, seed: int) -> list:
        raise NotImplementedError

    def prepare(self, state: dict, index: int) -> None:
        number = index // self.ops_per_slot // self.batch
        if state.get("batch", (None,))[0] != number:
            seed = op_seed(self.name + ".inputs", state["seed"], number)
            state["batch"] = (number, self.draw(state, seed))

    def slot(self, state: dict, index: int):
        self.prepare(state, index)
        return state["batch"][1][index // self.ops_per_slot % self.batch]


class CheckBilateral(BatchedInputs):
    """Each op checks one `bailey_a` point against both closed products."""

    name = "check-bilateral"
    spawns = False
    batch = 1024
    tail_pct = 90.0
    trace_ops = 256

    def setup(self, seed: int) -> dict:
        state = {"seed": seed, "qsix": importlib.import_module("qsix"),
                 "identities": importlib.import_module("qsix.identities")}
        self.prepare(state, 0)
        return state

    def draw(self, state: dict, seed: int) -> list:
        qsix = state["qsix"]
        return qsix.sample("bailey_a", qsix.SampleConstraints(), seed,
                           self.batch)

    def inputs(self, state: dict, index: int):
        return self.slot(state, index)

    def op(self, state: dict, index: int, tracer=None) -> OpResult:
        ident = state["identities"]
        p = self.inputs(state, index)
        a = ident.check_bailey("a", p)
        b = ident.check_remark1_equivalence(p)
        digest = hashlib.sha256(repr((a, b)).encode()).hexdigest()
        return OpResult(a.passed and b.passed, digest)


def _flags(params, *names) -> list:
    """Complex flags as `--name=re,im`; the `=` keeps argparse from reading
    a negative real part as an option."""
    return [f"--{n}={getattr(params, n).real!r},{getattr(params, n).imag!r}"
            for n in names]


class CliOneshot(BatchedInputs):
    """Each op is one `qsix` process, as the console script starts it.
    Ops rotate through `eval t`, `check vdiff` and a small sweep; the
    three ops of a slot share its drawn points but use different ones."""

    name = "cli-oneshot"
    #: each op is a process of its own
    spawns = True
    batch = 16
    ops_per_slot = 3
    tail_pct = 80.0
    trace_ops = 15
    entry = "import sys; from qsix.cli import main; sys.exit(main())"

    def setup(self, seed: int) -> dict:
        state = {"seed": seed, "qsix": importlib.import_module("qsix")}
        state["rtol"] = state["qsix"].DEFAULT_RTOL["bailey-x"]
        self.prepare(state, 0)
        return state

    def draw(self, state: dict, seed: int) -> list:
        """(T point, its closed form, trunc point) per slot. Remark 1 maps
        bailey_a draws, which are cheap, onto valid T(X;C) points, so
        drawing does not pay for the t_params hump probe. Trunc points
        carry the cancellation cap of the program's own vdiff sweep."""
        qsix = state["qsix"]
        con = qsix.SampleConstraints()
        t_points = [qsix.map_remark1(p) for p in
                    qsix.sample("bailey_a", con, seed, self.batch)]
        trunc = qsix.sample("trunc", qsix.SampleConstraints(
            convergence_caps={"diff_amp_max": 300.0}), seed, self.batch)
        return [(t, qsix.bailey_closed_X(t).value, p)
                for t, p in zip(t_points, trunc)]

    def inputs(self, state: dict, index: int) -> list:
        kind = index % 3
        if kind == 0:
            t = self.slot(state, index)[0]
            return ["eval", "t", *_flags(t, "q", "X", "B", "C", "D", "E")]
        if kind == 1:
            p = self.slot(state, index)[2]
            return ["check", "vdiff",
                    *_flags(p, "q", "A", "B", "C", "D", "E"),
                    f"--n={(index // 3) % 11 - 5}"]
        return ["sweep", "--identity", "bailey-a", "--samples", "5",
                "--seed", str(op_seed(self.name, state["seed"], index))]

    def op(self, state: dict, index: int, tracer=None) -> OpResult:
        args = self.inputs(state, index)
        if tracer is None:
            rc, out, err, rss = run_child([sys.executable, "-c", self.entry,
                                           *args])
        else:
            OUT_DIR.mkdir(exist_ok=True)
            spans_path = OUT_DIR / "cli-child-spans.json"
            rc, out, err, rss = run_child([sys.executable,
                                           str(HERE / "cli_child.py"),
                                           str(spans_path), *args])
            with open(spans_path, encoding="utf-8") as fh:
                child = json.load(fh)
            os.remove(spans_path)
            tracer.merge(child["spans"], child["counts"])
        ok = rc == 0 and self._output_ok(state, index, out.decode())
        if not ok:
            sys.stderr.write(f"cli-oneshot op {index} failed: exit {rc}: "
                             f"{err.decode()[-500:]}\n")
        return OpResult(ok, hashlib.sha256(out).hexdigest(), rss)

    def _output_ok(self, state: dict, index: int, text: str) -> bool:
        kind = index % 3
        if kind == 0:
            value = complex(text.splitlines()[0])
            want = self.slot(state, index)[1]
            scale = max(abs(value), abs(want))
            return abs(value - want) <= state["rtol"] * scale
        if kind == 1:
            return "passed: true" in text.splitlines()
        s = json.loads(text)["summary"]
        return s["total"] == 5 and s["passed"] == 5


WORKLOADS = {
    "sweep-t": SweepWorkload("sweep-t", (("bailey-x", 3), ("q-constancy", 3)),
                             tail_pct=80.0, trace_ops=40),
    # not the `recurrence` sweep: its check misses rtol 1e-9 on about one
    # trunc draw in 4000, so a timed run of it fails an op or not by how
    # far it gets (see test_recurrence_defect_reproduces)
    "sweep-kn": SweepWorkload("sweep-kn", (("kn-decay", 1),),
                              tail_pct=80.0, trace_ops=40),
    "check-bilateral": CheckBilateral(),
    "cli-oneshot": CliOneshot(),
}
