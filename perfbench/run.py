"""The qsix benchmark: one workload per run, end to end or traced.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed 7 --seconds 25

Run from the root of a checkout; the program is imported from `src/` with
the pure-Python kernels (QSIX_BACKEND=python), so the figures do not
depend on whether the host can build the compiled twin.

With --trace 0 the run reports the end-to-end metrics of BENCHMARK.json.
Set-up is timed in fresh processes, each starting the interpreter,
importing qsix and generating the workload's inputs; the median of
SETUP_PROBES such processes is `setup_s`. Ops then run in a closed loop for
--seconds, each op timed and its outputs checked.

The speed of a shared host drifts by tens of percent over seconds to
minutes. So a calibration is sampled between ops, and each op's latency
is rescaled by the calibration's reference time over the median of the
samples nearest to it: op times read as on a host where the calibration
takes its reference time. The calibration runs in a process of its own
(calibrate.py), started before qsix is imported, and is CPU time, so
neither the program's state nor other work on the CPU reaches it.
In-process workloads use a fixed loop of complex arithmetic and numpy
scalar calls (LOOP_CAL). Workloads made of processes, and `setup_s`, use
a bare interpreter's start and exit (PROCESS_CAL), which tracks process
start-up far better than a loop does. Throughput, median and tail come
from the rescaled times; the measured ones are printed beside them. The
run, its child processes and the calibration process stay on one CPU.

With --trace 1 the same timed loop runs, then its first `trace_ops` ops
run again with every qsix layer wrapped (see tracing.py), and the run
reports the per-layer metrics. Those ops are fixed by the seed, so every
count is exact for a seed. A traced op whose output digest differs from
the untraced one fails the run. Spans are written to
.perfbench/trace-<workload>-<seed>.json.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. An op fails when one of its draws
fails or errors, a check reports passed false, a `qsix` process exits
non-zero, or a value disagrees with its closed form; such ops count in
`failed` and `ok_share`. `correct` is false when an op raised in the
benchmark itself, which means its output could not be checked.
"""

from __future__ import annotations

import argparse
import array
import bisect
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass

from tracing import (REJECT_NAMES, STATUS_NAMES, Tracer, durations,
                     self_times)
from workloads import HERE, OUT_DIR, SRC, WORKLOADS, child_env, run_child

SETUP_PROBES = 9
IMPORT_PROBES = 5
CAL_NEIGHBOURS = 5

LAYERS = ("kernels", "qcore", "series", "identities", "sampler", "report",
          "cli")
#: spans outside the qsix layers: the console script's `import qsix.cli`
#: and the benchmark's own op code (process start and exit on cli-oneshot)
OTHER_LAYERS = ("import", "bench")
CLOSED_FORMS = ("rogers_closed", "bailey_closed_a", "bailey_closed_X",
                "q_factor", "F_function")

_IMPORT_PROBE = ("import sys, time\n"
                 "t0 = time.perf_counter()\n"
                 "import qsix\n"
                 "t1 = time.perf_counter()\n"
                 "import qsix.cli\n"
                 "t2 = time.perf_counter()\n"
                 "print(t1 - t0, t2 - t0, int('numpy' in sys.modules))\n")
_NUMPY_PROBE = ("import time\n"
                "t0 = time.perf_counter()\n"
                "import numpy\n"
                "print(time.perf_counter() - t0)\n")


def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def percentile(values, pct: float) -> float:
    """Nearest-rank percentile: the smallest value with at least pct% of
    the values at or below it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def setup_probe(name: str, seed: int) -> float:
    """Seconds from spawning a fresh benchmark process until its set-up
    for `name` is done and the first op could start."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "run.py"), "--workload", name,
         "--seed", str(seed), "--setup-probe"],
        stdout=subprocess.PIPE, env=child_env())
    try:
        line = proc.stdout.readline()
        ready = time.perf_counter()
        proc.stdout.read()
    finally:
        proc.stdout.close()
        rc = proc.wait()
    if rc != 0 or line.strip() != b"ready":
        raise RuntimeError(f"set-up probe for {name} failed (exit {rc})")
    return ready - start


def setup_probes(name: str, seed: int, calibrator: Calibrator) -> tuple:
    """Set-up seconds of SETUP_PROBES fresh processes: (rescaled like the
    ops of a workload of processes, measured)."""
    stamps, samples, starts, seconds = [], [], [], []
    for _ in range(SETUP_PROBES):
        stamps.append(time.perf_counter())
        samples.append(calibrator.measure(PROCESS_CAL))
        starts.append(time.perf_counter())
        seconds.append(setup_probe(name, seed))
    stamps.append(time.perf_counter())
    samples.append(calibrator.measure(PROCESS_CAL))
    scale = _local_scale(stamps, samples, starts, PROCESS_CAL.reference_s)
    return [t * k for t, k in zip(seconds, scale)], seconds


def _probe_output(code: str) -> list:
    rc, out, err, _ = run_child([sys.executable, "-c", code])
    if rc != 0:
        raise RuntimeError(f"import probe failed: {err.decode()[-500:]}")
    return [float(x) for x in out.split()]


def import_metrics() -> dict:
    """Import cost of a fresh `qsix` process, medians over IMPORT_PROBES."""
    rows = [_probe_output(_IMPORT_PROBE) for _ in range(IMPORT_PROBES)]
    numpy = [_probe_output(_NUMPY_PROBE)[0] for _ in range(IMPORT_PROBES)]
    return {
        "cli.import_ms": _metric(1e3 * statistics.median(r[1] for r in rows),
                                 "ms"),
        "cli.qsix_import_ms": _metric(
            1e3 * statistics.median(r[0] for r in rows), "ms"),
        "cli.numpy_import_ms": _metric(1e3 * statistics.median(numpy), "ms"),
        "cli.numpy_loaded": _metric(max(r[2] for r in rows), "flag"),
    }


@dataclass(frozen=True)
class Calibration:
    #: the request calibrate.py answers
    kind: str
    #: times are rescaled to a host on which the calibration takes this long
    reference_s: float
    #: least time between two samples in the timed loop
    every_s: float


LOOP_CAL = Calibration("loop", 1e-3, 0.1)
PROCESS_CAL = Calibration("process", 0.04, 1.0)


class Calibrator:
    """calibrate.py, running beside the benchmark until closed."""

    def __init__(self):
        env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
        self._proc = subprocess.Popen(
            [sys.executable, str(HERE / "calibrate.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            env=env)

    def measure(self, cal: Calibration) -> float:
        self._proc.stdin.write(cal.kind + "\n")
        self._proc.stdin.flush()
        line = self._proc.stdout.readline()
        if not line:
            raise RuntimeError("the calibration process ended")
        return float(line)

    def close(self) -> None:
        self._proc.stdin.close()
        self._proc.stdout.read()
        self._proc.stdout.close()
        if self._proc.wait() != 0:
            raise RuntimeError(
                f"the calibration process exited {self._proc.returncode}")

    def __enter__(self) -> "Calibrator":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


@dataclass
class Loop:
    latencies: list
    #: results of the first `min_ops` ops, which a traced replay repeats
    results: list
    failed: int
    #: ops that raised, so that their output could not be checked
    errors: int
    #: per op: the reference over the calibration samples around the op
    scale: list
    calibrations: list
    #: peak resident set, KiB: of the largest op process on workloads of
    #: processes, else of this process by the end of the loop
    peak_rss_kb: int

    def scaled(self) -> list:
        """Op latencies rescaled to the reference host speed."""
        return [lat * k for lat, k in zip(self.latencies, self.scale)]


def _local_scale(stamps, samples, at, reference_s: float) -> list:
    """For each time in `at`, `reference_s` over the median of the
    CAL_NEIGHBOURS calibration samples taken nearest to it. Host speed
    drifts over seconds, so nearby samples track the speed an op ran at."""
    out = []
    half = CAL_NEIGHBOURS // 2
    for t in at:
        i = bisect.bisect_left(stamps, t)
        lo = max(0, min(i - half, len(samples) - CAL_NEIGHBOURS))
        out.append(reference_s
                   / statistics.median(samples[lo:lo + CAL_NEIGHBOURS]))
    return out


def timed_loop(wl, state, seconds: float, min_ops: int,
               calibrator: Calibrator) -> Loop:
    """Closed loop over ops 0, 1, ... for `seconds` and at least `min_ops`
    ops, with a calibration sample between ops every `every_s`. Inputs
    are drawn between ops too, outside op times."""
    cal = PROCESS_CAL if wl.spawns else LOOP_CAL
    latencies, starts = array.array("d"), array.array("d")
    results, stamps, samples = [], [], []
    failed = errors = child_rss_kb = 0
    start = time.perf_counter()
    next_cal = start
    index = 0
    while index < min_ops or time.perf_counter() - start < seconds:
        if time.perf_counter() >= next_cal:
            stamps.append(time.perf_counter())
            samples.append(calibrator.measure(cal))
            next_cal = time.perf_counter() + cal.every_s
        wl.prepare(state, index)
        t0 = time.perf_counter()
        try:
            res = wl.op(state, index)
        except Exception:
            traceback.print_exc()
            errors += 1
            res = None
        latencies.append(time.perf_counter() - t0)
        starts.append(t0)
        if index < min_ops:
            results.append(res)
        if res is None or not res.ok:
            failed += 1
        if res is not None:
            child_rss_kb = max(child_rss_kb, res.child_rss_kb)
        index += 1
    own_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    stamps.append(time.perf_counter())
    samples.append(calibrator.measure(cal))
    return Loop(latencies, results, failed, errors,
                _local_scale(stamps, samples, starts, cal.reference_s),
                samples, child_rss_kb if wl.spawns else own_rss_kb)


def traced_replay(wl, state, count: int, untraced,
                  calibrator: Calibrator):
    """Re-run ops 0..count-1 with every layer traced, a calibration sample
    before each. Returns the tracer, the traced seconds rescaled like the
    timed loop's, and the ops whose digest differs from `untraced`."""
    cal = PROCESS_CAL if wl.spawns else LOOP_CAL
    samples, mismatched = [], []
    # the traced ops lie in the first batch of inputs: draw it untraced
    wl.prepare(state, 0)
    tracer = Tracer().install()
    try:
        for index in range(count):
            samples.append(calibrator.measure(cal))
            tracer.op = index
            with tracer.span("bench.op"):
                res = wl.op(state, index, tracer)
            want = untraced[index]
            if want is None or res.digest != want.digest:
                mismatched.append(index)
    finally:
        tracer.uninstall()
    traced_s = sum(end - start for name, start, end, _, _ in tracer.spans
                   if name == "bench.op")
    return (tracer, traced_s * cal.reference_s / statistics.median(samples),
            mismatched)


def layer_metrics(tracer, ops: int, untraced_s: float,
                  traced_s: float) -> dict:
    """Per-layer metrics of a traced replay, normalised per op."""
    own = self_times(tracer.spans)
    total = durations(tracer.spans)
    counts = tracer.counts
    layer_self = dict.fromkeys(LAYERS + OTHER_LAYERS, 0.0)
    for name, seconds in own.items():
        layer_self[name.split(".", 1)[0]] += seconds
    op_time = total["bench.op"]
    m = {}
    for layer, seconds in layer_self.items():
        if layer in LAYERS:
            m[f"{layer}.self_ms"] = _metric(1e3 * seconds / ops, "ms")
        m[f"{layer}.self_share"] = _metric(seconds / op_time, "share")

    def per_op(key):
        return counts[key] / ops

    for kernel, work in (("qpoch_inf", "factors"), ("series_side", "terms")):
        m[f"kernels.{kernel}.calls"] = _metric(
            per_op(f"kernels.{kernel}.calls"), "count/op")
        m[f"kernels.{kernel}.{work}"] = _metric(
            per_op(f"kernels.{kernel}.{work}"), "count/op")
        m[f"kernels.{kernel}.self_ms"] = _metric(
            1e3 * own[f"kernels.{kernel}"] / ops, "ms")
    for status in STATUS_NAMES:
        m[f"kernels.status.{status}"] = _metric(
            per_op(f"kernels.status.{status}"), "count/op")
    for fn in ("eval_T", "truncated_S"):
        m[f"series.{fn}.calls"] = _metric(per_op(f"series.{fn}.calls"),
                                          "count/op")
    m["series.closed.calls"] = _metric(
        sum(per_op(f"series.{fn}.calls") for fn in CLOSED_FORMS), "count/op")
    for fn in ("compute_KN", "kn_limit"):
        m[f"identities.{fn}.calls"] = _metric(
            per_op(f"identities.{fn}.calls"), "count/op")
    candidates = counts["sampler.violations.calls"]
    accepted = counts["sampler.accepted"]
    m["sampler.violations.calls"] = _metric(candidates / ops, "count/op")
    m["sampler.accept_ratio"] = _metric(
        accepted / candidates if candidates else 0.0, "ratio")
    m["sampler.candidates_per_draw"] = _metric(
        candidates / accepted if accepted else 0.0, "count")
    for reason in REJECT_NAMES:
        m[f"sampler.reject.{reason}"] = _metric(
            per_op(f"sampler.reject.{reason}"), "count/op")
    m["report.build_ms"] = _metric(
        1e3 * total["report.build_sweep_report"] / ops, "ms")
    m["report.render_ms"] = _metric(1e3 * total["report.render_sweep"] / ops,
                                    "ms")
    m["report.bytes"] = _metric(per_op("report.bytes"), "B/op")
    m["cli.run_sweep.self_ms"] = _metric(1e3 * own["cli.run_sweep"] / ops,
                                         "ms")
    m["trace.overhead"] = _metric(traced_s / untraced_s, "ratio")
    m["trace.spans"] = _metric(len(tracer.spans) / ops, "count/op")
    return m


def end_to_end_metrics(wl, loop: Loop, setups: tuple) -> tuple:
    """(metrics, notes) of an untraced run; times at reference host speed.
    `setups` holds the set-up seconds, rescaled and measured."""
    ops = len(loop.latencies)
    scaled = loop.scaled()
    metrics = {
        "setup_s": _metric(statistics.median(setups[0]), "s"),
        "throughput_ops_s": _metric(ops / sum(scaled), "1/s"),
        "op_p50_ms": _metric(1e3 * statistics.median(scaled), "ms"),
        "op_tail_ms": _metric(1e3 * percentile(scaled, wl.tail_pct), "ms"),
        "ok_share": _metric((ops - loop.failed) / ops, "share"),
        "peak_rss_mb": _metric(loop.peak_rss_kb / 1024.0, "MiB"),
    }
    beyond = ops - max(1, math.ceil(wl.tail_pct / 100.0 * ops))
    lat = loop.latencies
    notes = {
        "setup_s": f"measured {statistics.median(setups[1]):.6g}, median "
                   f"of {SETUP_PROBES} fresh processes",
        "throughput_ops_s": f"measured {ops / sum(lat):.6g}",
        "op_p50_ms": f"measured {1e3 * statistics.median(lat):.6g}, "
                     f"n={ops} ops",
        "op_tail_ms": f"measured {1e3 * percentile(lat, wl.tail_pct):.6g}, "
                      f"p{wl.tail_pct:g} of n={ops} ops, {beyond} beyond",
        "ok_share": f"{ops - loop.failed} of {ops} ops passed",
    }
    return metrics, notes


def per_layer_metrics(wl, state, loop: Loop, seed: int,
                      calibrator: Calibrator) -> tuple:
    """(metrics, notes) of the traced replay of ops 0..trace_ops-1, or
    None when a traced op's output differs from its untraced output."""
    count = wl.trace_ops
    OUT_DIR.mkdir(exist_ok=True)
    tracer, traced_s, mismatched = traced_replay(wl, state, count,
                                                 loop.results, calibrator)
    tracer.dump(OUT_DIR / f"trace-{wl.name}-{seed}.json")
    if mismatched:
        print(f"traced output differs from untraced on ops "
              f"{mismatched[:10]}", file=sys.stderr)
        return None
    metrics = layer_metrics(tracer, count, sum(loop.scaled()[:count]),
                            traced_s)
    metrics["host.cal_ms"] = _metric(
        1e3 * statistics.median(loop.calibrations), "ms")
    metrics.update(import_metrics())
    notes = {"trace.overhead": f"traced / untraced rescaled seconds of "
                               f"ops 0..{count - 1}",
             "host.cal_ms": "median calibration sample of the timed loop"}
    return metrics, notes


def run_workload(args) -> int:
    wl = WORKLOADS[args.workload]
    if args.setup_probe:
        wl.setup(args.seed)
        print("ready", flush=True)
        return 0

    with Calibrator() as calibrator:
        return measure_workload(wl, args, calibrator)


def measure_workload(wl, args, calibrator: Calibrator) -> int:
    if not args.trace:
        setups = setup_probes(wl.name, args.seed, calibrator)
    import qsix
    if qsix.backend_name() != "python":
        raise RuntimeError("the benchmark pins the pure-Python kernels")
    state = wl.setup(args.seed)
    loop = timed_loop(wl, state, args.seconds,
                      wl.trace_ops if args.trace else 1, calibrator)
    ops = len(loop.latencies)
    print(f"workload {wl.name}  seed {args.seed}  backend "
          f"{qsix.backend_name()}  ops {ops}  failed {loop.failed}  "
          f"calibration "
          f"{1e3 * statistics.median(loop.calibrations):.4f} ms")
    if args.trace:
        traced = per_layer_metrics(wl, state, loop, args.seed, calibrator)
        if traced is None:
            return 1
        metrics, notes = traced
    else:
        metrics, notes = end_to_end_metrics(wl, loop, setups)
    for name, m in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name:32s} {m['value']:14.6g} {m['unit']}{note}")
    print(json.dumps({"correct": loop.errors == 0, "attempted": ops,
                      "failed": loop.failed, "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Every workload in turn, each in its own process; one table."""
    attempted = failed = 0
    correct = True
    metrics = {}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, env=child_env(), check=False)
        text = proc.stdout.decode()
        sys.stdout.write(text)
        if proc.returncode != 0:
            return proc.returncode
        doc = json.loads(text.splitlines()[-1])
        attempted += doc["attempted"]
        failed += doc["failed"]
        correct = correct and doc["correct"]
        for metric, m in doc["metrics"].items():
            metrics[f"{name}.{metric}"] = m
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def pin_to_one_cpu() -> None:
    """Keep this process and the processes it starts on one CPU.

    The CPUs of a shared host slow down independently; on one CPU the
    calibration loop measures the CPU that child processes run on too."""
    try:
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    except (AttributeError, OSError) as exc:
        print(f"running unpinned: {exc}", file=sys.stderr)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=(*WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if not args.seconds > 0:
        ap.error("--seconds must be positive")
    if not (SRC / "qsix" / "__init__.py").is_file():
        print(f"no qsix sources under {SRC}; run from a qsix checkout",
              file=sys.stderr)
        return 2
    pin_to_one_cpu()
    # pin the backend before anything imports qsix
    os.environ["QSIX_BACKEND"] = "python"
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        if args.setup_probe:
            ap.error("--setup-probe needs one workload")
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
