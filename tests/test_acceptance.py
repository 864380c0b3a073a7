"""Acceptance battery.

Thirteen end-to-end criteria over the public API and CLI, each printing one
PASS/FAIL line. Tolerances are pinned here on purpose: loosening them is a
contract change, not a test fix.
"""

import os
import pathlib
import subprocess
import sys

from qsix import SampleConstraints, sample
from qsix.cli import _weier_amp, run_sweep
from qsix.errors import PoleError
from qsix.identities import (check_KN_decay, check_T_iteration,
                             check_weierstrass, compute_KN,
                             compute_KN_printed, map_remark1)
from qsix.qcore import QContext
from qsix.sampler import _draw_complex, _rng

SEED = 7


def _verdict(n, label, ok):
    print(f"criterion {n:02d} {label}: {'PASS' if ok else 'FAIL'}")
    return ok


def _clean(summary, bound):
    return (summary["failed"] == 0 and summary["errored"] == 0
            and summary["max_rel_err"] <= bound)


def test_criterion_01_window_summation_by_parts():
    rep = run_sweep("abel", 200, SEED)
    assert _verdict(1, "summation by parts, 200 random windows",
                    _clean(rep.summary, 1e-13))


def test_criterion_02_product_rearrangement_and_zeros():
    rep = run_sweep("weierstrass", 200, SEED)
    ok = _clean(rep.summary, 1e-14)
    # degenerate draws where every term vanishes: equal parameters and
    # unit-product pairs
    for fam_index, fam in enumerate(("b=c", "x=z", "bc=1", "xz=1")):
        for i in range(25):
            g = _rng(9000 + fam_index, i)
            b, c, x, z = (_draw_complex(g, 0.3, 2.5) for _ in range(4))
            if fam == "b=c":
                c = b
            elif fam == "x=z":
                z = x
            elif fam == "bc=1":
                c = 1.0 / b
            else:
                z = 1.0 / x
            zrep = check_weierstrass(b, c, x, z)
            ok = ok and zrep.passed
            ok = ok and abs(zrep.lhs) <= 1e-13 and abs(zrep.rhs) <= 1e-13
    assert _verdict(2, "product rearrangement, 200 draws + zero families",
                    ok)


def test_criterion_03_rearrangement_via_theta_products():
    ok = True
    for i in range(50):
        g = _rng(31, i)
        for _ in range(1000):
            q = _draw_complex(g, 0.25, 0.7)
            b, c, x, z = (_draw_complex(g, 0.3, 2.5) for _ in range(4))
            if _weier_amp(b, c, x, z) <= 10.0:
                break
        rep = check_weierstrass(b, c, x, z, ctx=QContext(q))
        ok = ok and rep.passed and rep.rel_err <= 1e-10
    assert _verdict(3, "theta-product form, 50 draws with |q| <= 0.7", ok)


def test_criterion_04_step_difference_formulas():
    ru = run_sweep("udiff", 50, SEED)
    rv = run_sweep("vdiff", 50, SEED)
    assert _verdict(4, "U and V step differences, 50 draws x n in -5..5",
                    _clean(ru.summary, 1e-12) and _clean(rv.summary, 1e-12))


def test_criterion_05_window_sum_recurrence():
    rep = run_sweep("recurrence", 100, SEED)
    ok = (rep.summary["failed"] == 0
          and rep.summary["max_rel_err"] <= 1e-9)
    # no silent failures: anything that did not pass must be a classified
    # parameter-pole rejection
    for entry in rep.results:
        if "error" in entry:
            ok = ok and entry["error"]["type"] == "PoleError"
    assert _verdict(5, "window-sum recurrence, 100 draws x N = 0..8", ok)


def test_criterion_06_boundary_coefficient_cross_check():
    mismatches = []
    comparisons = 0
    worst = 0.0
    for k, p in enumerate(sample("trunc", SampleConstraints(), SEED, 100)):
        for N in range(0, 7):
            pn = p.replace(N=N)
            try:
                assembled = compute_KN(pn)
                printed = compute_KN_printed(pn)
            except PoleError:
                continue
            comparisons += 1
            rel = abs(assembled - printed) / max(abs(assembled),
                                                 abs(printed), 1e-300)
            worst = max(worst, rel)
            if rel > 1e-8:
                mismatches.append((k, N, rel))
    print(f"boundary-coefficient discrepancy report: "
          f"{comparisons} comparisons, {len(mismatches)} discrepancies, "
          f"worst rel {worst:.3e}")
    for k, N, rel in mismatches:
        print(f"  draw {k} N={N}: rel {rel:.3e}")
    # acceptance rides on the assembled form's recurrence, not on the
    # printed rendition agreeing
    rep = run_sweep("recurrence", 100, SEED)
    assert _verdict(6, "assembled vs printed boundary coefficient",
                    _clean(rep.summary, 1e-9))


def test_criterion_07_boundary_coefficient_decay():
    con = SampleConstraints(convergence_caps={"kn_decay_base_min": 1.5})
    ok = True
    for p in sample("trunc", con, SEED, 20):
        ok = ok and abs(p.C * p.q ** 2) >= 1.1
        dec = check_KN_decay(p, N_max=80)
        ok = (ok and dec.passed and dec.magnitudes[60] < 1e-6
              and dec.limit_rel_err <= 1e-6)
    assert _verdict(7, "scaled boundary decay and closed limit, 20 draws",
                    ok)


def test_criterion_08_argument_scaling_recursion():
    rep = run_sweep("t-recursion", 50, SEED)
    ok = _clean(rep.summary, 1e-8)
    con = SampleConstraints(convergence_caps={"t_arg_max": 0.8})
    for p in sample("t_params", con, SEED, 50):
        # the collapsed multi-step form lives on the X = q slice
        it = check_T_iteration(p.replace(X=p.q), 6)
        ok = ok and it.passed and it.rel_err <= 1e-7
    assert _verdict(8, "one-step recursion and six-step iteration, "
                       "50 draws", ok)


def test_criterion_09_terminating_sum_closed_product():
    rep = run_sweep("rogers", 50, SEED)
    assert _verdict(9, "terminating sum vs closed product, 50 draws",
                    _clean(rep.summary, 1e-8))


def test_criterion_10_scaled_ratio_constancy():
    # the check's own q-factor gate (1e-8 relative) is tighter than the
    # 1e-7 acceptance bound, so a clean sweep covers both clauses
    rep = run_sweep("q-constancy", 30, SEED)
    assert _verdict(10, "ratio constancy over 5 scalings, 30 draws",
                    _clean(rep.summary, 1e-8))


def test_criterion_11_bilateral_closed_forms():
    ra = run_sweep("bailey-a", 50, SEED)
    rx = run_sweep("bailey-x", 50, SEED)
    assert _verdict(11, "bilateral closed forms, 50 draws each",
                    _clean(ra.summary, 1e-7) and _clean(rx.summary, 1e-7))


def test_criterion_12_parameter_map_bridge():
    rep = run_sweep("remark1", 50, SEED)
    ok = _clean(rep.summary, 1e-10)
    for p in sample("bailey_a", SampleConstraints(), SEED, 50):
        t = map_remark1(p)
        lhs = t.C / t.q ** 3
        ok = ok and abs(lhs - p.series_arg) <= 1e-15 * abs(p.series_arg)
    assert _verdict(12, "closed-form bridge and argument identity, "
                        "50 draws", ok)


def test_criterion_13_sweep_determinism():
    cmd = [sys.executable, "-m", "qsix.cli", "sweep", "--identity",
           "recurrence", "--samples", "50", "--seed", "7"]
    # the children import this checkout's sources
    src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    a = subprocess.run(cmd, capture_output=True, text=True, env=env)
    b = subprocess.run(cmd, capture_output=True, text=True, env=env)
    ok = (a.returncode == 0 and b.returncode == 0
          and a.stdout == b.stdout and len(a.stdout) > 0)
    assert _verdict(13, "byte-identical repeated sweep", ok)
