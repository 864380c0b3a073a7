"""Run a fixed battery of `qsix` CLI invocations and hash what each prints.

Each invocation runs as `python -m qsix.cli ARG...` in a child process
that imports qsix from the given source tree. The battery covers every
eval form, every check in text and json, every `--help` page, a seeded
sweep per identity alone and with each numeric flag, walks whose
certified tails take each path (a limit ratio near 1 or 0, a loose
tolerance, a short budget), the error cases of `tests/test_cli.py`,
parse edge cases, one named pole per row family that reads the
factor-base tables, and closed products whose sides leave double range.
One line per invocation:

    EXIT SHA256(stdout) SHA256(stderr) ARG...

Run it on two trees and diff the outputs to list exactly the invocations
whose exit code or output changed:

    python3 scripts/cli_battery.py --src ../old/src > old.txt
    python3 scripts/cli_battery.py --src src > new.txt
    diff old.txt new.txt
"""

from __future__ import annotations

import argparse
import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

TRUNC = ["--q", "0.5,0", "--A", "2,0", "--B", "0.3,0", "--C", "3,0",
         "--D", "0.7,0", "--E", "1.1,0"]
#: |Cq^3| = 1.5: the K_N trace decays
DECAY = ["--q", "0.5,0", "--A", "2,0", "--B", "0.3,0", "--C", "12,0",
         "--D", "0.7,0", "--E", "1.1,0"]
#: draw 0 of the kn-decay sweep's constraints at seed 7: |Cq^3|^N leaves
#: double range from N = 721 on, and the trace's products at N = 1453
DEEP = ["--q=-0.1725449327356391,0.5888542634739417",
        "--A=-0.3457868776715326,0.23375279228661966",
        "--B=-0.043616728090425404,-0.12516465332302956",
        "--C=-6.983978107630233,-9.242399533964713",
        "--D=-0.19907636077886315,-0.18827245322853386",
        "--E=0.024083875454167663,-0.10211358699091796"]
#: A = 1e-200: A^2 q^2 underflows to 0
TINY_A = ["--q", "0.5,0", "--A", "1e-200,0", "--B", "0.3,0", "--C", "12,0",
          "--D", "0.7,0", "--E", "1.1,0"]
T_ROW = ["--q", "0.5,0", "--X", "1.2,0", "--B", "0.3,0", "--C", "0.1,0",
         "--D", "0.35,0", "--E", "0.45,0"]
BAILEY = ["--q", "0.5,0", "--a", "0.09,0", "--b", "0.6,0", "--c", "0.7,0",
          "--d", "0.8,0", "--e", "0.9,0"]
ROGERS = ["--q", "0.5,0", "--B", "0.3,0", "--C", "0.1,0", "--D", "0.35,0",
          "--E", "0.45,0"]
WEIER = ["--b", "0.6,0.2", "--c", "1.3,-0.4", "--x", "0.8,0.5",
         "--z", "1.1,0.3"]
#: |z| = 0.949: a long upward walk, whose limit ratio is z
PSI_EDGE = ["--z", "0.9,0.3", "--q", "0.5,0", "--num", "2,0", "--num",
            "0.3,0", "--den", "0.7,0", "--den", "0.4,0"]
#: a zero den base: downward it is a top base, and the limit ratio is 0
ZERO_TOP = ["--z", "0.4,0", "--q", "0.5,0", "--num", "0.45,0", "--num",
            "0,0.3", "--den", "0,0", "--den", "0.7,0"]
#: a zero num base, a zero bottom downward, cancelled by a zero den base
ZERO_BOTTOM = ["--q", "0.5,0", "--z", "0.5,0", "--num", "0,0", "--num",
               "0.9,0", "--den", "0,0", "--den", "0.1,0"]

EVALS = {
    "pochhammer": ["--a", "0.5,0", "--q", "0.5,0", "--n", "3"],
    "pochhammer-inf": ["--a", "0.5,0", "--q", "0.5,0"],
    "theta": ["--x", "0.3,0.2", "--q", "0.5,0"],
    "phi": ["--z", "0.2,0", "--q", "0.5,0", "--num", "2,0", "--num",
            "0.3,0", "--den", "0.7,0"],
    "psi": ["--z", "5,0", "--q", "0.5,0", "--num", "1,0", "--num", "0.3,0",
            "--den", "0.7,0", "--den", "1.3,0"],
    "s-trunc": TRUNC + ["--N", "2"],
    "t": T_ROW,
    "rogers-closed": ROGERS,
    "bailey-closed-a": BAILEY,
    "bailey-closed-x": T_ROW,
    "q-factor": ["--q", "0.5,0", "--X", "1.2,0", "--B", "0.3,0",
                 "--D", "0.35,0", "--E", "0.45,0"],
    "f": T_ROW,
}

CHECKS = {
    "abel": [],
    "weierstrass": WEIER,
    "udiff": TRUNC + ["--n", "2"],
    "vdiff": TRUNC + ["--n", "-2"],
    "recurrence": TRUNC + ["--N", "2"],
    "kn-decay": DECAY,
    "t-recursion": T_ROW,
    "rogers": ROGERS,
    "q-constancy": T_ROW,
    "bailey-a": BAILEY,
    "bailey-x": T_ROW,
    "remark1": BAILEY,
}

#: one invocation per row family that reads the factor-base tables, each
#: ending in a named PoleError: U_n's BD/A and V_n's A/Cq at q^0, the
#: recurrence coefficient's Aq/B, the K_N limit's (1/B;q)_inf at B = q^5
#: (past --n-max, so the trace keeps clear of it), the closed products'
#: q/b, C/q^3, BCEX, 1/BX and BCDq, and the T recursion's C/q^3
POLES = [
    ["check", "udiff", "--q", "0.5,0", "--A", "2,0", "--B", "0.5,0",
     "--C", "3,0", "--D", "4,0", "--E", "1.1,0", "--n", "2"],
    ["check", "vdiff", "--q", "0.5,0", "--A", "2,0", "--B", "0.3,0",
     "--C", "4,0", "--D", "0.7,0", "--E", "1.1,0", "--n", "0"],
    ["check", "recurrence", "--q", "0.5,0", "--A", "3,0", "--B", "1.5,0",
     "--C", "5,0", "--D", "0.7,0", "--E", "1.1,0", "--N", "2"],
    ["check", "kn-decay", *DECAY[:4], "--B", "0.03125,0", *DECAY[6:],
     "--n-max", "4"],
    ["eval", "bailey-closed-a", *BAILEY[:4], "--b", "0.5,0", *BAILEY[6:]],
    ["eval", "bailey-closed-x", *T_ROW[:6], "--C", "0.125,0", *T_ROW[8:]],
    ["eval", "f", "--q", "0.6,0", "--X", "2,0", "--B", "0.5,0", "--C",
     "0.5,0", "--D", "0.3,0", "--E", "2,0"],
    ["eval", "q-factor", "--q", "0.6,0", "--X", "2,0", "--B", "0.5,0",
     "--D", "0.35,0", "--E", "0.45,0"],
    ["eval", "rogers-closed", "--q", "0.5,0", "--B", "0.4,0", "--C", "2.5,0",
     "--D", "2,0", "--E", "0.45,0"],
    ["check", "t-recursion", *T_ROW[:6], "--C", "0.125,0", *T_ROW[8:]],
]

#: a TParams point whose closed product, multiplied in plain doubles,
#: read nan+nanj; |C/q^3| = 11, so its check stops outside the disk
NAN_X = ["--q=-0.18115973131141394,-0.8815787836326237",
         "--X=-1.773375900379609,-0.5520030827411011",
         "--B=38.861601651773746,64.05338499090672",
         "--C=1.8021446552423817,-7.808670029005259",
         "--D=63.74163310592326,-30.706402677125617",
         "--E=0.040273557367232024,-0.02007848830519172"]
#: closed products whose sides, multiplied in plain doubles, leave double
#: range: bailey-a at q = 0.995, whose numerator's products multiply to
#: about 3.9e-443 (the product reads 5.1e-226), and the NAN_X point
SCALED = [
    ["check", "bailey-a", "--q", "0.995,0", "--a", "0.5,0", "--b", "2,0",
     "--c", "2.5,0", "--d", "3,0", "--e", "3.5,0"],
    ["check", "bailey-x", *NAN_X],
    ["eval", "bailey-closed-x", *NAN_X],
]

#: a value per numeric flag that moves the output of a sweep that reads it
SWEEP_FLAGS = (("--tail-tol", "0.5"), ("--max-terms", "1"),
               ("--atol", "1e3"), ("--rtol", "1e-30"))


def invocations(tmp: str) -> list:
    out = [["--help"], ["eval", "--help"], ["check", "--help"],
           ["sweep", "--help"]]
    out += [["eval", form, "--help"] for form in EVALS]
    out += [["check", name, "--help"] for name in CHECKS]
    for form, args in EVALS.items():
        out.append(["eval", form, *args])
        if form not in ("pochhammer", "s-trunc"):
            out.append(["eval", form, *args, "--tail-tol", "0.5"])
            out.append(["eval", form, *args, "--max-terms", "1"])
    # certified walk tails: the long walk, T(X;C) at |C/q^3| = 0.89, a
    # limit ratio of 0, a zero bottom base that a zero top cancels, and
    # the long walk at a loose tail_tol and out of its budget
    out += [["eval", "psi", *PSI_EDGE],
            ["eval", "t", *T_ROW[:6], "--C", "0.11125,0", *T_ROW[8:]],
            ["eval", "psi", *ZERO_TOP],
            ["eval", "psi", *ZERO_BOTTOM],
            ["eval", "psi", *PSI_EDGE, "--tail-tol", "0.5"],
            ["eval", "psi", *PSI_EDGE, "--max-terms", "5"]]
    for name, args in CHECKS.items():
        out.append(["check", name, *args])
        out.append(["check", name, *args, "--format", "json"])
        for flag, value in SWEEP_FLAGS:
            out.append(["check", name, *args, flag, value])
    out += [
        ["check", "weierstrass", *WEIER, "--theta"],
        ["check", "weierstrass", *WEIER, "--theta", "--q", "0.9,0",
         "--tail-tol", "0.5", "--max-terms", "1"],
        ["check", "abel", "--M", "3", "--N", "7", "--seed", "4"],
        ["check", "udiff", *TRUNC, "--n", "-400"],
        ["check", "q-constancy", *T_ROW, "--steps", "2"],
        ["check", "kn-decay", *DECAY, "--n-max", "40"],
        # the trace stops at N = 1023, where q^-1024 leaves double range
        ["check", "kn-decay", *DECAY, "--n-max", "200000"],
    ]
    out += [["check", "kn-decay", *DEEP, "--n-max", n]
            for n in ("4", "200", "800", "2000")]
    # Dq = q^2: the trace's factor 1 - (Dq) q^-3 vanishes at N = 2
    out.append(["check", "kn-decay", *DECAY[:8], "--D", "0.25,0",
                *DECAY[10:]])
    # |q| near 1: the trace's rows sit in or near the shell [1/4, 4] of
    # the quiet rows for several N
    out.append(["check", "kn-decay", "--q", "0.9,0.1", *DECAY[2:6], "--C",
                "2.5,0", *DECAY[8:], "--n-max", "30"])
    # a pole in a dividing row of the trace, BE/A at q^0 and BDE/A^2q^2
    # at q^1, past the window of S_N
    out += [["check", "recurrence", *TRUNC[:10], "--E", e, "--N", "6"]
            for e in ("6.666666666666667,0", "9.523809523809524,0")]
    for name in sorted(CHECKS):
        base = ["sweep", "--identity", name, "--samples", "5", "--seed", "7"]
        out.append(base)
        out += [base + [flag, value] for flag, value in SWEEP_FLAGS]
    out += [
        ["sweep", "--identity", "abel", "--samples", "2", "--seed", "3",
         "--format", "csv"],
        ["sweep", "--identity", "weierstrass", "--samples", "2", "--seed",
         "1", "--out", os.path.join(tmp, "report.json")],
        ["sweep", "--identity", "recurrence", "--samples", "0"],
        ["sweep", "--identity", "recurrence", "--samples", "2", "--seed",
         "3", "--atol", "1e-300", "--rtol", "1e-30"],
        ["sweep", "--identity", "abel", "--samples", "1", "--out",
         "/nonexistent-dir/report.json"],
        ["sweep", "--identity", "abel", "--samples", "-1"],
    ]
    # an infinite product that is exactly 1 (a zero base), exactly 0 (a
    # vanished factor), one out of budget, one in double range at |q| near
    # 1 and three below it
    out += [["eval", "pochhammer-inf", "--a", a, "--q", q, *rest]
            for a, q, rest in (("0,0", "0.5,0", ()), ("1,0", "0.5,0", ()),
                               ("0.9,0", "0.99,0", ("--max-terms", "5")),
                               ("0.2,0", "0.999,0", ()),
                               ("0.9,0", "0.999,0", ()),
                               ("2,0", "0.999,0", ()),
                               ("0.2,0", "0.99999,0",
                                ("--max-terms", "10000000")))]
    # error cases
    out += [
        [],
        ["frobnicate"],
        # parse edge cases: a command without its form or flags, an unknown
        # form or identity, a flag before the form, missing required flags,
        # and a leaf's help after its flags
        ["eval"],
        ["sweep"],
        ["eval", "nope"],
        ["check", "nope"],
        ["eval", "--q", "0.5,0", "t"],
        ["check", "vdiff", "--q", "0.5,0"],
        ["eval", "t", "-h"],
        ["eval", "theta", "--x", "0,0", "--q", "0.5,0"],
        ["eval", "theta", "--x", "0.5", "--q", "0.5,0"],
        ["eval", "t", *T_ROW, "--rtol", "1e-3"],
        ["eval", "t", "--q", "1.5,0", *T_ROW[2:]],
        ["eval", "psi", "--z", "0.5,0", "--q", "0.5,0", "--num", "0.3,0"],
        ["check", "recurrence", *TRUNC, "--N", "2", "--atol", "1e-300",
         "--rtol", "1e-30"],
        ["check", "bailey-a", "--q", "0.5,0", "--a", "2,0", "--b", "0.5,0",
         "--c", "0.5,0", "--d", "0.5,0", "--e", "0.5,0"],
        ["check", "rogers", "--q", "0.5,0", "--B", "0.3,0", "--C", "0,0",
         "--D", "0.35,0", "--E", "0.45,0"],
        # out of double range: infinite products, and inputs whose modulus
        # overflows abs()
        ["eval", "pochhammer-inf", "--a=1e200,0", "--q=0.5,0"],
        ["eval", "theta", "--x=1e-300,0", "--q=0.5,0"],
        ["eval", "psi", "--num=1.5e308,1.5e308", "--den=0.5,0", "--z=0.5,0",
         "--q=0.5,0"],
        ["eval", "theta", "--x=1.5e308,1.5e308", "--q=0.5,0"],
        ["eval", "pochhammer", "--a=1.5e308,1.5e308", "--q=0.5,0", "--n=3"],
        ["eval", "pochhammer-inf", "--a=1.5e308,1.5e308", "--q=0.5,0"],
        ["check", "weierstrass", "--b=1.5e308,1.5e308", "--c=0.3,0.1",
         "--x=0.5,0.2", "--z=0.7,0"],
        # products out of double range: non-finite complex parts in JSON
        ["check", "weierstrass", "--b", "1e100,0", "--c", "1e150,0", "--x",
         "1e100,0", "--z", "1e120,0", "--format", "json"],
        # a factor and a piece of K_N whose parts are finite but whose
        # modulus is past the largest double
        ["eval", "pochhammer", "--a", "1e308,1e308", "--q", "0.75,0", "--n",
         "-1"],
        ["check", "kn-decay", "--q=-0.967,-0.043", "--A", "0.3,0.1", "--B",
         "0.2,0", "--C=-1.7485695630195712,0.2345004799569423", "--D",
         "0,0.25", "--E", "0.15,0", "--n-max", "100000"],
        # a walk's base CDEX with finite parts but a modulus past the
        # largest double
        ["eval", "t", "--q", "0.99,0", "--X", "1,1", "--B", "1e-300,0",
         "--C", "0.5,0", "--D", "1.7e154,0", "--E", "1.7e154,0"],
    ]
    # A^2 q^2 underflows to 0
    out += [["check", name, *TINY_A] for name in ("kn-decay", "recurrence",
                                                  "udiff", "vdiff")]
    out.append(["eval", "s-trunc", *TINY_A, "--N", "3"])
    # udiff's closed form divides by D
    out.append(["check", "udiff", *TRUNC[:8], "--D", "0,0", *TRUNC[10:],
                "--n", "2"])
    # |C/q^3| = 2: T(X;C) and the rogers sum outside their convergence
    # disk; the bilateral sum at z = 0; q_factor at each zero parameter
    out += [["eval", "t", *T_ROW[:6], "--C", "0.25,0", *T_ROW[8:]],
            ["check", "bailey-x", *T_ROW[:6], "--C", "0.25,0", *T_ROW[8:]],
            ["check", "rogers", *ROGERS[:4], "--C", "0.25,0", *ROGERS[6:]],
            ["check", "rogers", *ROGERS[:4], "--C", "0.25,0", *ROGERS[6:],
             "--format", "json"],
            ["eval", "psi", "--z", "0,0", "--q", "0.5,0", "--num", "0.3,0",
             "--den", "0.7,0"],
            # the rogers check's own guards on B and on q
            ["check", "rogers", *ROGERS[:2], "--B", "0,0", *ROGERS[4:]],
            ["check", "rogers", "--q", "1.5,0", *ROGERS[2:]]]
    q_factor = EVALS["q-factor"]
    out += [["eval", "q-factor", *q_factor[:i + 1], "0,0", *q_factor[i + 2:]]
            for i in range(2, len(q_factor), 2)]
    out += [["check", "weierstrass", *WEIER, flag, value]
            for flag, value in (("--q", "0.9,0"), ("--tail-tol", "0.5"),
                                ("--max-terms", "1"))]
    return out + POLES + SCALED


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default=str(
        Path(__file__).resolve().parent.parent / "src"),
        help="source tree that holds the qsix package (default: this "
             "checkout's src)")
    args = parser.parse_args(argv)
    env = dict(os.environ, PYTHONPATH=os.path.abspath(args.src))
    with tempfile.TemporaryDirectory() as tmp:
        for argv_ in invocations(tmp):
            proc = subprocess.run([sys.executable, "-m", "qsix.cli", *argv_],
                                  capture_output=True, env=env, cwd=tmp)
            shown = " ".join(argv_).replace(tmp, "TMP")
            try:
                print(f"{proc.returncode} {_sha(proc.stdout)} "
                      f"{_sha(proc.stderr)} {shown}", flush=True)
            except BrokenPipeError:
                # the reader has gone (as `| head` leaves): stop, and keep
                # the flush at exit off the closed pipe
                os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
                return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
