"""Self-tests of the qsix benchmark.

    python3 -m pytest perfbench/tests
"""

import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
os.environ["QSIX_BACKEND"] = "python"
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import digests  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _spec():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def calibrator():
    with run.Calibrator() as cal:
        yield cal


def _traced_counts(name, seed, ops, calibrator):
    wl = WORKLOADS[name]
    state = wl.setup(seed)
    loop = run.timed_loop(wl, state, 0.0, ops, calibrator)
    tracer, _, mismatched = run.traced_replay(wl, state, ops, loop.results,
                                              calibrator)
    assert loop.failed == 0 and mismatched == []
    return tracer


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_same_ops(name):
    wl = WORKLOADS[name]
    a, b, other = wl.setup(11), wl.setup(11), wl.setup(12)
    ops = [wl.inputs(a, i) for i in range(6)]
    assert ops == [wl.inputs(b, i) for i in range(6)]
    assert ops != [wl.inputs(other, i) for i in range(6)]


@pytest.mark.parametrize("name,ops", [("sweep-t", 2), ("sweep-kn", 1),
                                      ("check-bilateral", 8),
                                      ("cli-oneshot", 3)])
def test_same_seed_same_layer_counts(name, ops, calibrator):
    first = _traced_counts(name, 5, ops, calibrator)
    second = _traced_counts(name, 5, ops, calibrator)
    assert first.counts == second.counts
    assert [s[0] for s in first.spans] == [s[0] for s in second.spans]
    assert first.counts["sampler.reject.other"] == 0


def test_no_op_repeats_a_drawn_input():
    wl = WORKLOADS["check-bilateral"]
    state = wl.setup(11)
    first = [wl.inputs(state, i) for i in range(4)]
    second = [wl.inputs(state, wl.batch + i) for i in range(4)]
    assert len(set(map(repr, first + second))) == 8
    assert [wl.inputs(state, i) for i in range(4)] == first


@pytest.mark.parametrize("name", ["check-bilateral", "cli-oneshot"])
def test_traced_ops_lie_in_the_first_batch(name):
    wl = WORKLOADS[name]
    assert wl.trace_ops <= wl.batch * wl.ops_per_slot


def test_calibrator_answers_each_kind(calibrator):
    for cal in (run.LOOP_CAL, run.PROCESS_CAL):
        assert 0 < calibrator.measure(cal) < 100 * cal.reference_s


def test_wrapper_returns_the_wrapped_result():
    tracer = tracing.Tracer()
    sentinel = object()
    wrapped = tracer.wrap("cli.stub", lambda *a, **k: sentinel)
    assert wrapped(1, x=2) is sentinel

    def boom():
        raise ValueError("boom")

    with pytest.raises(ValueError):
        tracer.wrap("cli.boom", boom)()
    assert [s[0] for s in tracer.spans] == ["cli.stub", "cli.boom"]
    assert all(s[2] >= s[1] for s in tracer.spans)
    assert tracer.counts["cli.stub.calls"] == 1


def _bindings():
    return {name: dict(vars(mod)) for name, mod in sys.modules.items()
            if name == "qsix" or name.startswith("qsix.")}


def test_installed_wrappers_match_the_program():
    import qsix
    import qsix.cli
    from qsix import _backend, _kernels_py

    p = qsix.sample("bailey_a", qsix.SampleConstraints(), 3, 1)[0]
    kernel_args = ((0.15 + 0.05j, 0.3 - 0.2j), (1.4 + 0.3j, 1.1 - 0.6j),
                   0.45 + 0.22j, 0.8 - 0.3j, 1, 0.35 + 0.12j, True, -1,
                   1e-15, 10000, 3, 1e-12, 5e-15, 64)

    def calls():
        return (_backend.series_side(*kernel_args),
                _backend.qpoch_inf(0.8 + 0.3j, 0.93 + 0.05j, 1e-15, 10000,
                                   3, 5e-15),
                qsix.qcore.theta(0.3 + 0.2j, qsix.QContext(0.5)),
                qsix.identities.check_bailey("a", p),
                qsix.report.render_sweep(
                    qsix.cli.run_sweep("bailey-x", 2, 4), "json"))

    plain = calls()
    before = _bindings()
    tracer = tracing.Tracer().install()
    try:
        traced = calls()
        for container, key, original in tracer._patches:
            value = container[key]
            if isinstance(value, tuple):
                value, original = value[2], original[2]
            assert value.__wrapped__ is original
        assert _backend.series_side is not _kernels_py.series_side
        assert (qsix.identities.eval_T.__wrapped__
                is qsix.series.eval_T.__wrapped__)
    finally:
        tracer.uninstall()
    assert traced == plain
    assert _bindings() == before
    assert not any(hasattr(r, "__wrapped__")
                   for _, _, r in qsix.cli._SWEEPS.values())
    names = {s[0] for s in tracer.spans}
    assert {"kernels.series_side", "kernels.qpoch_inf", "qcore.theta",
            "series.eval_T", "identities.check_bailey", "cli.run_sweep",
            "cli._sw_bailey_x", "sampler.violations",
            "report.render_sweep"} <= names


def test_self_time_subtracts_children():
    spans = [["cli.a", 0.0, 10.0, -1, 0], ["series.b", 1.0, 4.0, 0, 0],
             ["kernels.c", 2.0, 3.0, 1, 0], ["series.b", 5.0, 6.0, 0, 0]]
    own = tracing.self_times(spans)
    assert own == {"cli.a": 6.0, "series.b": 3.0, "kernels.c": 1.0}


def test_metric_names():
    spec = _spec()
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) for n in names)


@pytest.mark.parametrize("trace", [0, 1])
def test_result_line_matches_spec(trace):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload",
         "check-bilateral", "--seed", "3", "--seconds", "0.2", "--trace",
         str(trace)], capture_output=True, text=True, cwd=ROOT, check=True)
    doc = json.loads(proc.stdout.splitlines()[-1])
    assert sorted(doc) == ["attempted", "correct", "failed", "metrics"]
    assert doc["correct"] is True and doc["failed"] == 0
    key = "per_layer" if trace else "end_to_end"
    spec = {m["name"]: m["unit"] for m in _spec()[key]}
    assert {k: m["unit"] for k, m in doc["metrics"].items()} == spec


def test_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                           "sweep-t", "--seed", "1", "--seconds", "1",
                           "--trace", "0"],
                          capture_output=True, text=True, cwd=tmp_path,
                          timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_reference_digest_reproduces():
    want = digests.load_reference()["digests"]
    assert sorted(want) == sorted(digests.IDENTITIES)
    assert digests.sweep_digest("abel") == want["abel"]


@pytest.mark.xfail(strict=True, reason="the recurrence check misses rtol "
                   "1e-9 on about one trunc draw in 4000 (here rel err "
                   "1.04e-9); the workloads leave recurrence out for it")
def test_recurrence_defect_reproduces():
    from qsix import cli

    rep = cli.run_sweep("recurrence", 1, 3505430215)
    assert rep.summary["passed"] == 1

