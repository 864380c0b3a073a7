import csv
import io
import json
import math
import os
import pathlib
import subprocess
import sys

import pytest

from qsix import SampleConstraints, cli, identities, sample, sampler
from qsix.errors import DomainError, Unsatisfiable
from qsix.identities import check_recurrence, kn_trace
from qsix.qcore import TruncationPolicy
from qsix.series import TruncParams

CMD = [sys.executable, "-m", "qsix.cli"]
SRC = str(pathlib.Path(__file__).resolve().parents[1] / "src")
ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(
    filter(None, (SRC, os.environ.get("PYTHONPATH")))))

RECURRENCE_FLAGS = ["--q", "0.5,0", "--A", "2,0", "--B", "0.3,0",
                    "--C", "3,0", "--D", "0.7,0", "--E", "1.1,0"]


def run(*args):
    """The CLI in a child process that imports this checkout's sources."""
    return subprocess.run(CMD + list(args), capture_output=True, text=True,
                          env=ENV)


def test_eval_pochhammer():
    r = run("eval", "pochhammer", "--a", "0.5,0", "--q", "0.5,0", "--n", "3")
    assert r.returncode == 0
    lines = r.stdout.splitlines()
    assert lines[0] == "0.328125"
    assert "terms_used: 3" in lines
    assert "terminated: true" in lines


def test_eval_pochhammer_empty_product():
    r = run("eval", "pochhammer", "--a", "0.5,0", "--q", "0.5,0", "--n", "0")
    assert r.returncode == 0
    assert r.stdout.splitlines()[0] == "1.0"


def test_eval_pochhammer_deep_negative_index_is_finite():
    r = run("eval", "pochhammer", "--a", "0.3,0", "--q", "0.45,0.1",
            "--n", "-100")
    assert r.returncode == 0
    assert math.isfinite(abs(complex(r.stdout.splitlines()[0])))


def test_eval_pochhammer_underflow_is_not_exact():
    # the kernel's product is about 2^-5466: it converts to 0, which is
    # neither exact nor error-free
    r = run("eval", "pochhammer", "--a", "0.3,0", "--q", "0.45,0.1",
            "--n", "-100")
    assert r.returncode == 0
    lines = r.stdout.splitlines()
    assert complex(lines[0]) == 0
    assert "est_error: 5e-324" in lines
    assert "terminated: false" in lines


def test_eval_pochhammer_exact_zero_is_terminated():
    # (1;q)_2 has the vanished factor 1 - 1
    r = run("eval", "pochhammer", "--a", "1,0", "--q", "0.5,0", "--n", "2")
    assert r.returncode == 0
    lines = r.stdout.splitlines()
    assert complex(lines[0]) == 0
    assert "est_error: 0.0" in lines
    assert "terminated: true" in lines


def test_eval_pochhammer_inf_loose_tail_tol_bound_is_finite():
    # |q| = 0.999 with a loose tail tolerance: the printed bound is finite
    # and covers the distance to the product at the default tail_tol
    q = "--q=0.6011714986278861,-0.7978683031913861"
    r = run("eval", "pochhammer-inf", "--a=-0.025,-1.5", q,
            "--tail-tol", "0.4858")
    tight = run("eval", "pochhammer-inf", "--a=-0.025,-1.5", q)
    assert r.returncode == tight.returncode == 0, r.stderr
    lines = r.stdout.splitlines()
    est = float(lines[1].removeprefix("est_error: "))
    assert math.isfinite(est)
    assert (abs(complex(lines[0]) - complex(tight.stdout.splitlines()[0]))
            <= est)
    assert "terminated: false" in lines


def test_eval_pochhammer_inf_below_double_range_is_domain_error():
    # (0.9;0.999)_inf is about 2.1e-565 and (2;0.999)_inf about -1.1e-1071;
    # (0.2;0.999)_inf, about 2.2887e-92, is in range
    for a in ("0.9,0", "2,0"):
        r = run("eval", "pochhammer-inf", "--a", a, "--q", "0.999,0")
        assert r.returncode == 2, r.stdout
        assert "domain error" in r.stderr and "out of double range" in r.stderr
    r = run("eval", "pochhammer-inf", "--a", "0.2,0", "--q", "0.999,0")
    assert r.returncode == 0, r.stderr
    assert abs(complex(r.stdout.splitlines()[0]) / 2.2887e-92 - 1) < 1e-4


def test_eval_theta_rejects_zero_argument():
    r = run("eval", "theta", "--x", "0,0", "--q", "0.5,0")
    assert r.returncode == 2
    assert "domain error" in r.stderr


def test_check_recurrence_matches_library():
    r = run("check", "recurrence", *RECURRENCE_FLAGS, "--N", "2")
    assert r.returncode == 0
    lines = dict(ln.split(": ", 1) for ln in r.stdout.splitlines())
    assert lines["passed"] == "true"
    rep = check_recurrence(
        TruncParams(q=0.5, A=2.0, B=0.3, C=3.0, D=0.7, E=1.1, N=2))
    assert abs(float(lines["lhs"]) - rep.lhs) <= 1e-12 * abs(rep.lhs)
    assert float(lines["rel_err"]) <= 1e-9


def _outcome(fn, *args):
    """What fn returns, or the type and message of what it raises."""
    try:
        return fn(*args)
    except Exception as exc:
        return type(exc).__name__, str(exc)


#: trunc draws, and a point whose K_N trace stops at N = 2 on the pole of
#: the K3 denominator factor 1 - (A/C) q^2; there the checks stop first in
#: truncated_S, whose message for the same factor differs from the trace's
@pytest.mark.parametrize("p", sample("trunc", SampleConstraints(), 7, 8)
                         + [TruncParams(q=0.5, A=2.0, B=0.3, C=0.5, D=0.7,
                                        E=1.1, N=0)])
def test_recurrence_runner_reads_one_trace_per_draw(p, monkeypatch):
    want = _outcome(lambda: cli._worst(
        check_recurrence(p.replace(N=k)) for k in range(9)))
    traces, singles = [], []
    monkeypatch.setattr(identities, "kn_trace",
                        lambda *a: traces.append(a) or kn_trace(*a))
    compute_KN = identities.compute_KN
    monkeypatch.setattr(identities, "compute_KN",
                        lambda q: singles.append(q) or compute_KN(q))
    assert _outcome(cli._sw_recurrence, p, None, {}) == want
    # the runner's one trace, then the one behind each K_N a check computes
    assert traces == [(p, 8)] + [(s, s.N) for s in singles]
    # the checks compute their own K_N exactly when the trace stops
    assert bool(singles) == isinstance(_outcome(kn_trace, p, 8), tuple)


#: draw 0 of the kn-decay sweep's constraints at seed 7, |Cq^3| = 2.68
KN_DEEP_FLAGS = ["--q=-0.1725449327356391,0.5888542634739417",
                 "--A=-0.3457868776715326,0.23375279228661966",
                 "--B=-0.043616728090425404,-0.12516465332302956",
                 "--C=-6.983978107630233,-9.242399533964713",
                 "--D=-0.19907636077886315,-0.18827245322853386",
                 "--E=0.024083875454167663,-0.10211358699091796"]


def test_check_kn_decay_past_double_range_of_the_power():
    # |Cq^3|^N overflows from N = 721 on: the magnitudes used to raise a
    # raw OverflowError
    r = run("check", "kn-decay", *KN_DEEP_FLAGS, "--n-max", "800")
    assert r.returncode == 0, r.stderr
    lines = dict(ln.split(": ", 1) for ln in r.stdout.splitlines())
    assert lines["passed"] == "true"
    assert lines["final_magnitude"] == "0.0"


def test_check_kn_decay_product_out_of_double_range_is_domain_error():
    r = run("check", "kn-decay", *KN_DEEP_FLAGS, "--n-max", "2000")
    assert r.returncode == 2
    assert r.stderr.strip() == ("domain error: scaled q-product left double "
                                "range at factor 1 - (Bq)*q^(-1454)")


#: A^2 q^2 underflows to 0; the K_N, U and V rows divide by it
TINY_A_FLAGS = ["--q", "0.5,0", "--A", "1e-200,0", "--B", "0.3,0",
                "--C", "12,0", "--D", "0.7,0", "--E", "1.1,0"]


@pytest.mark.parametrize("args", [
    ("check", "kn-decay"), ("check", "recurrence"), ("check", "udiff"),
    ("check", "vdiff"), ("eval", "s-trunc", "--N", "3"),
])
def test_underflowed_a_squared_is_domain_error(args):
    # these used to exit 1 with a raw ZeroDivisionError
    r = run(*args[:2], *TINY_A_FLAGS, *args[2:])
    assert r.returncode == 2
    assert "domain error" in r.stderr
    assert "Traceback" not in r.stderr


@pytest.mark.parametrize("flag", ["--D", "--E"])
def test_udiff_with_zero_d_or_e_is_domain_error(flag):
    # the closed form's prefactor divides by D and E; this used to exit 1
    # with a raw ZeroDivisionError
    flags = list(RECURRENCE_FLAGS)
    flags[flags.index(flag) + 1] = "0,0"
    r = run("check", "udiff", *flags, "--n", "2")
    assert r.returncode == 2
    assert r.stderr.strip() == ("domain error: D and E must be nonzero: the "
                                "closed form divides by them")


def test_check_json_format():
    r = run("check", "recurrence", *RECURRENCE_FLAGS, "--format", "json")
    assert r.returncode == 0
    doc = json.loads(r.stdout)
    assert doc["schema"] == "qsix-report/1"
    assert doc["identity"] == "recurrence"
    assert doc["report"]["passed"] is True


def test_check_json_is_strict_for_non_finite_complex_parts():
    # the plain form's products overflow: lhs is -inf + nan j
    r = run("check", "weierstrass", "--b", "1e100,0", "--c", "1e150,0",
            "--x", "1e100,0", "--z", "1e120,0", "--format", "json")
    assert r.returncode == 1

    def refuse(name):
        raise ValueError(f"non-strict JSON constant {name}")
    report = json.loads(r.stdout, parse_constant=refuse)["report"]
    assert report["lhs"] == {"re": "-inf", "im": "nan"}
    assert report["abs_err"] == "nan"


def test_check_rogers_zero_C_exact():
    r = run("check", "rogers", "--q", "0.5,0", "--B", "0.3,0", "--C", "0,0",
            "--D", "0.35,0", "--E", "0.45,0")
    assert r.returncode == 0
    lines = dict(ln.split(": ", 1) for ln in r.stdout.splitlines())
    assert lines["lhs"] == "1.0"
    assert lines["rhs"] == "1.0"


def test_check_failure_exit_code():
    # N = 2: the two sides disagree in the last bits (N = 0 reduces to the
    # same arithmetic on both sides and would pass any tolerance)
    r = run("check", "recurrence", *RECURRENCE_FLAGS, "--N", "2",
            "--atol", "1e-300", "--rtol", "1e-30")
    assert r.returncode == 1
    assert "passed: false" in r.stdout


def test_check_divergent_series_exit_code():
    r = run("check", "bailey-a", "--q", "0.5,0", "--a", "2,0", "--b",
            "0.5,0", "--c", "0.5,0", "--d", "0.5,0", "--e", "0.5,0")
    assert r.returncode == 3
    assert "did not converge" in r.stderr


def test_check_out_of_range_index_is_domain_error():
    # U_{-400} ~ -2.57+0.47j is in range, but the right side converts its
    # numerator and denominator q-products separately, and those halves
    # leave double range: a domain error, not a traceback
    r = run("check", "udiff", "--q", "0.45,0.1", *RECURRENCE_FLAGS[2:],
            "--n", "-400")
    assert r.returncode == 2
    assert "domain error" in r.stderr
    assert "Traceback" not in r.stderr


@pytest.mark.parametrize("args", [
    # infinite products that leave double range (theta multiplies in
    # (q/x;q)_inf with q/x = 5e299)
    ("eval", "pochhammer-inf", "--a=1e200,0", "--q=0.5,0"),
    ("eval", "theta", "--x=1e-300,0", "--q=0.5,0"),
    # finite parts whose modulus overflows abs(): a raw OverflowError
    ("eval", "psi", "--num=1.5e308,1.5e308", "--den=0.5,0", "--z=0.5,0",
     "--q=0.5,0"),
    ("eval", "theta", "--x=1.5e308,1.5e308", "--q=0.5,0"),
    ("eval", "pochhammer", "--a=1.5e308,1.5e308", "--q=0.5,0", "--n=3"),
    ("eval", "pochhammer-inf", "--a=1.5e308,1.5e308", "--q=0.5,0"),
    # a check validates its inputs as every eval does
    ("check", "weierstrass", "--b=1.5e308,1.5e308", "--c=0.3,0.1",
     "--x=0.5,0.2", "--z=0.7,0"),
])
def test_out_of_range_values_are_domain_errors(args):
    r = run(*args)
    assert r.returncode == 2
    assert "domain error" in r.stderr and "out of double range" in r.stderr
    assert "Traceback" not in r.stderr
    assert "nan" not in r.stdout


def test_malformed_complex_flag_is_usage_error():
    r = run("eval", "theta", "--x", "0.5", "--q", "0.5,0")
    assert r.returncode == 64
    assert "re,im" in r.stderr


def test_missing_subcommand_is_usage_error():
    assert run().returncode == 64
    assert run("frobnicate").returncode == 64


def test_sweep_empty():
    r = run("sweep", "--identity", "recurrence", "--samples", "0")
    assert r.returncode == 0
    doc = json.loads(r.stdout)
    assert doc["schema"] == "qsix-report/1"
    assert doc["summary"] == {"total": 0, "passed": 0, "failed": 0,
                              "errored": 0, "max_rel_err": 0.0}


def test_sweep_stdout_deterministic():
    args = ("sweep", "--identity", "recurrence", "--samples", "3",
            "--seed", "7")
    a = run(*args)
    b = run(*args)
    assert a.returncode == 0
    assert a.stdout == b.stdout
    doc = json.loads(a.stdout)
    assert doc["summary"]["passed"] == 3
    assert doc["results"][0]["params"]["q"].keys() == {"re", "im"}


def test_sweep_out_file_and_summary_line(tmp_path):
    dest = tmp_path / "report.json"
    r = run("sweep", "--identity", "weierstrass", "--samples", "2",
            "--seed", "1", "--out", str(dest))
    assert r.returncode == 0
    assert r.stdout.startswith("identity=weierstrass seed=1 total=2 ")
    doc = json.loads(dest.read_text())
    assert doc["summary"]["total"] == 2


def test_sweep_csv_format():
    r = run("sweep", "--identity", "abel", "--samples", "2", "--seed", "3",
            "--format", "csv")
    assert r.returncode == 0
    rows = list(csv.DictReader(io.StringIO(r.stdout)))
    assert len(rows) == 2
    assert rows[0]["draw_index"] == "0"
    assert float(rows[0]["report.rel_err"]) <= 1e-12


def test_sweep_forced_failure_exit_code():
    r = run("sweep", "--identity", "recurrence", "--samples", "2",
            "--seed", "3", "--atol", "1e-300", "--rtol", "1e-30")
    assert r.returncode == 1
    doc = json.loads(r.stdout)
    assert doc["summary"]["failed"] == 2


def test_sweep_unwritable_out_path():
    r = run("sweep", "--identity", "abel", "--samples", "1",
            "--out", "/nonexistent-dir/report.json")
    assert r.returncode == 74
    assert "cannot write report" in r.stderr


#: accepted flags of every eval form and check identity, as the parser
#: holds them: "!" marks a required flag, "=value" a default other than None
PINNED_FLAGS = {
    "eval pochhammer": "--a! --q! --n!",
    "eval pochhammer-inf": "--a! --q! --tail-tol --max-terms",
    "eval theta": "--x! --q! --tail-tol --max-terms",
    "eval phi": "--z! --q! --num --den --tail-tol --max-terms",
    "eval psi": "--z! --q! --num --den --tail-tol --max-terms",
    "eval s-trunc": "--q! --A! --B! --C! --D! --E! --N!",
    "eval t": "--q! --X! --B! --C! --D! --E! --tail-tol --max-terms",
    "eval rogers-closed": "--q! --B! --C! --D! --E! --tail-tol --max-terms",
    "eval bailey-closed-a":
        "--q! --a! --b! --c! --d! --e! --tail-tol --max-terms",
    "eval bailey-closed-x":
        "--q! --X! --B! --C! --D! --E! --tail-tol --max-terms",
    "eval q-factor": "--q! --X! --B! --D! --E! --tail-tol --max-terms",
    "eval f": "--q! --X! --B! --C! --D! --E! --tail-tol --max-terms",
    "check abel": "--M=5 --N=5 --seed=0 --format='text' --atol --rtol",
    "check weierstrass": "--b! --c! --x! --z! --theta=False --q "
                         "--format='text' --tail-tol --max-terms --atol "
                         "--rtol",
    "check udiff":
        "--q! --A! --B! --C! --D! --E! --n=0 --format='text' --atol --rtol",
    "check vdiff":
        "--q! --A! --B! --C! --D! --E! --n=0 --format='text' --atol --rtol",
    "check recurrence":
        "--q! --A! --B! --C! --D! --E! --N=0 --format='text' --atol --rtol",
    "check kn-decay": "--q! --A! --B! --C! --D! --E! --n-max=80 "
                      "--format='text' --tail-tol --max-terms --rtol",
    "check t-recursion": "--q! --X! --B! --C! --D! --E! --format='text' "
                         "--tail-tol --max-terms --atol --rtol",
    "check rogers": "--q! --B! --C! --D! --E! --format='text' --tail-tol "
                    "--max-terms --atol --rtol",
    "check q-constancy": "--q! --X! --B! --C! --D! --E! --steps=4 "
                         "--format='text' --tail-tol --max-terms --atol "
                         "--rtol",
    "check bailey-a": "--q! --a! --b! --c! --d! --e! --format='text' "
                      "--tail-tol --max-terms --atol --rtol",
    "check bailey-x": "--q! --X! --B! --C! --D! --E! --format='text' "
                      "--tail-tol --max-terms --atol --rtol",
    "check remark1": "--q! --a! --b! --c! --d! --e! --format='text' "
                     "--tail-tol --max-terms --atol --rtol",
}


def _subparsers(parser):
    return parser._subparsers._group_actions[0].choices


def _accepted_flags(parser) -> str:
    out = []
    for action in parser._actions:
        if not action.option_strings or action.dest == "help":
            continue
        flag = action.option_strings[0] + ("!" if action.required else "")
        if action.default is not None:
            flag += f"={action.default!r}"
        out.append(flag)
    return " ".join(out)


def test_eval_and_check_accept_only_the_flags_they_read():
    top = _subparsers(cli._build_parser())
    got = {f"{command} {name}": _accepted_flags(sp)
           for command in ("eval", "check")
           for name, sp in _subparsers(top[command]).items()}
    assert got == PINNED_FLAGS


def test_unread_flag_is_usage_error():
    r = run("eval", "t", "--q", "0.5,0", "--X", "1.2,0", "--B", "0.3,0",
            "--C", "0.1,0", "--D", "0.35,0", "--E", "0.45,0",
            "--rtol", "1e-3")
    assert r.returncode == 64
    assert "unrecognized arguments: --rtol 1e-3" in r.stderr


WEIERSTRASS_FLAGS = ["check", "weierstrass", "--b", "0.6,0.2", "--c",
                     "1.3,-0.4", "--x", "0.8,0.5", "--z", "1.1,0.3"]


@pytest.mark.parametrize("extra", [["--q", "0.9,0"], ["--tail-tol", "0.5"],
                                   ["--max-terms", "1"]])
def test_check_weierstrass_theta_flags_need_theta(extra, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(WEIERSTRASS_FLAGS + extra)
    assert exc.value.code == 64
    assert f"only --theta reads {extra[0]}" in capsys.readouterr().err
    assert cli.main(WEIERSTRASS_FLAGS + ["--theta"] + extra) != 64


def test_check_weierstrass_theta_reads_q(capsys):
    outs = []
    for extra in ([], ["--q", "0.5,0"], ["--q", "0.9,0"]):
        assert cli.main(WEIERSTRASS_FLAGS + ["--theta"] + extra) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1] != outs[2]


def _main_json(capsys, *argv):
    cli.main(list(argv))
    return json.loads(capsys.readouterr().out)


def _point_flags(params: dict) -> list:
    """check flags for a sweep row's params (complex fields only)."""
    return [f"--{name}={v['re']!r},{v['im']!r}"
            for name, v in params.items() if isinstance(v, dict)]


@pytest.mark.parametrize("identity", ["t-recursion", "q-constancy",
                                      "bailey-a", "bailey-x", "remark1"])
def test_check_reports_the_sweep_row(identity, capsys):
    row = _main_json(capsys, "sweep", "--identity", identity, "--samples",
                     "1", "--seed", "7")["results"][0]
    doc = _main_json(capsys, "check", identity,
                     *_point_flags(row["params"]), "--format", "json")
    assert doc["report"] == row["report"]


def test_check_udiff_reports_the_sweep_row_at_its_worst_index(capsys):
    row = _main_json(capsys, "sweep", "--identity", "udiff", "--samples",
                     "1", "--seed", "7")["results"][0]
    flags = _point_flags(row["params"])
    reports = [_main_json(capsys, "check", "udiff", *flags, f"--n={k}",
                          "--format", "json")["report"]
               for k in range(-5, 6)]
    assert row["report"] in reports


#: numeric flags each sweep reads, from its runner; every other numeric
#: flag is a usage error
SWEEP_FLAGS = {
    "abel": "--atol --rtol",
    "weierstrass": "--atol --rtol",
    "udiff": "--atol --rtol",
    "vdiff": "--atol --rtol",
    "recurrence": "--atol --rtol",
    "kn-decay": "--tail-tol --max-terms --rtol",
    "t-recursion": "--tail-tol --max-terms --atol --rtol",
    "rogers": "--tail-tol --max-terms --atol --rtol",
    "q-constancy": "--tail-tol --max-terms --atol --rtol",
    "bailey-a": "--tail-tol --max-terms --atol --rtol",
    "bailey-x": "--tail-tol --max-terms --atol --rtol",
    "remark1": "--tail-tol --max-terms --atol --rtol",
}
NUMERIC_VALUES = {"--tail-tol": "0.5", "--max-terms": "1", "--atol": "1e3",
                  "--rtol": "1e-30"}
UNREAD_SWEEP_PAIRS = [(identity, flag) for identity in SWEEP_FLAGS
                      for flag in NUMERIC_VALUES
                      if flag not in SWEEP_FLAGS[identity].split()]


@pytest.mark.parametrize("identity,flag", UNREAD_SWEEP_PAIRS)
def test_sweep_unread_flag_is_usage_error(identity, flag, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["sweep", "--identity", identity, "--samples", "5",
                  "--seed", "7", flag, NUMERIC_VALUES[flag]])
    assert exc.value.code == 64
    err = capsys.readouterr().err
    assert f"--identity {identity} does not read {flag}" in err


def test_sweep_accepts_exactly_the_read_flags(capsys):
    accepted = {}
    for identity in SWEEP_FLAGS:
        for flag, value in NUMERIC_VALUES.items():
            try:
                code = cli.main(["sweep", "--identity", identity,
                                 "--samples", "0", flag, value])
            except SystemExit as exc:
                code = exc.code
            assert code in (0, 64)
            if code == 0:
                accepted.setdefault(identity, []).append(flag)
    capsys.readouterr()
    assert {k: " ".join(v) for k, v in accepted.items()} == SWEEP_FLAGS
    assert len(UNREAD_SWEEP_PAIRS) == 11


def test_sweep_read_flag_changes_the_report(capsys):
    args = ["sweep", "--identity", "bailey-a", "--samples", "5", "--seed",
            "7"]
    assert cli.main(args) == 0
    plain = capsys.readouterr().out
    cli.main(args + ["--max-terms", "1"])
    assert capsys.readouterr().out != plain


#: run_sweep keyword -> the sweep flag that sets it
SWEEP_KEYWORDS = {"policy": "--tail-tol", "atol": "--atol", "rtol": "--rtol"}
KEYWORD_VALUES = {"policy": TruncationPolicy(max_terms=1), "atol": 1e3,
                  "rtol": 1e-30}


def test_run_sweep_unread_keyword_is_domain_error():
    with pytest.raises(DomainError, match="'abel' does not read policy"):
        cli.run_sweep("abel", 3, 7, policy=TruncationPolicy(max_terms=1))
    with pytest.raises(DomainError, match="'kn-decay' does not read atol"):
        cli.run_sweep("kn-decay", 2, 7, atol=1e3)


@pytest.mark.parametrize("identity", sorted(SWEEP_FLAGS))
def test_run_sweep_takes_the_keywords_its_flags_set(identity):
    read = SWEEP_FLAGS[identity].split()
    for keyword, flag in SWEEP_KEYWORDS.items():
        kw = {keyword: KEYWORD_VALUES[keyword]}
        if flag in read:
            assert cli.run_sweep(identity, 0, 7, **kw).summary["total"] == 0
        else:
            with pytest.raises(DomainError, match=keyword):
                cli.run_sweep(identity, 0, 7, **kw)


def test_sweep_redraws_only_ill_conditioned_checks():
    # a five-term budget certifies no tail: that stays a row error, it is
    # not redrawn
    rep = cli.run_sweep("bailey-x", 3, 7, policy=TruncationPolicy(max_terms=5))
    assert rep.summary["errored"] == 3
    assert {e["error"]["type"] for e in rep.results} == {"BudgetExceeded"}


def test_sweep_exhausted_by_the_hump_cap_is_unsatisfiable(monkeypatch):
    # under a hump cap of 1, seed 7's first bailey-x draw takes 68
    # candidates; 20 are not enough
    monkeypatch.setitem(sampler.DEFAULT_CAPS, "hump_max", 1.0)
    kind, con, runner = cli._SWEEPS["bailey-x"]
    monkeypatch.setitem(cli._SWEEPS, "bailey-x", (
        kind, con.replace(max_rejections=20), runner))
    with pytest.raises(Unsatisfiable, match="over the check's hump_max"):
        cli.run_sweep("bailey-x", 1, 7)


def test_importing_the_cli_does_not_load_numpy():
    code = "import sys, qsix.cli; print('numpy' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=ENV)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"
