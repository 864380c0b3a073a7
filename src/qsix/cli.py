"""Command-line front end.

Three subcommands: `eval` computes one series or closed form at a point,
`check` runs a single identity check, `sweep` runs a seeded randomized
sweep and emits a machine-readable report.

Exit codes: 0 success/pass, 1 check failed, 2 domain or pole error,
3 non-convergence or exhausted budget, 64 usage, 74 report I/O failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys

from .errors import (BudgetExceeded, DomainError, NonConvergence, PoleError,
                     Unsatisfiable)
from .identities import (ResidualReport, AbelInput, check_abel, check_bailey,
                         check_KN_decay, check_Q_constancy, check_recurrence,
                         check_remark1_equivalence, check_rogers,
                         check_T_recursion, check_U_difference,
                         check_V_difference, check_weierstrass)
from .qcore import (EvalResult, QContext, TruncationPolicy, _qpochhammer_sc,
                    _sc_value, qpochhammer_inf, theta)
from .report import SCHEMA, build_sweep_report, render_sweep, to_jsonable
from .sampler import SampleConstraints, _draw_complex, _rng, sample
from .series import (BaileyParams, SeriesSpec, TParams, TruncParams,
                     bailey_closed_a, bailey_closed_X, eval_phi, eval_psi,
                     eval_T, F_function, q_factor, rogers_closed,
                     truncated_S)


class _Parser(argparse.ArgumentParser):
    """argparse with the sysexits usage code instead of 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(64, f"{self.prog}: error: {message}\n")


def _cpx(text: str) -> complex:
    """Flag syntax for complex values: 're,im' decimal pair."""
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(
            f"expected 're,im' pair, got {text!r}")
    try:
        return complex(float(parts[0]), float(parts[1]))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected decimal re,im components, got {text!r}") from None


def _fmt(z: complex) -> str:
    if z.imag == 0.0:
        return repr(z.real)
    sign = "+" if z.imag >= 0 else "-"
    return f"{z.real!r}{sign}{abs(z.imag)!r}j"


def _add_numeric_flags(sp) -> None:
    sp.add_argument("--tail-tol", type=float, default=None,
                    help="tail tolerance for infinite sums and products")
    sp.add_argument("--max-terms", type=int, default=None,
                    help="per-side term budget")
    sp.add_argument("--atol", type=float, default=None,
                    help="absolute tolerance for checks")
    sp.add_argument("--rtol", type=float, default=None,
                    help="relative tolerance for checks")


def _policy(args) -> TruncationPolicy:
    kw = {}
    if args.tail_tol is not None:
        kw["tail_tol"] = args.tail_tol
    if args.max_terms is not None:
        kw["max_terms"] = args.max_terms
    return TruncationPolicy(**kw)


def _tol_kw(args) -> dict:
    kw = {}
    if args.atol is not None:
        kw["atol"] = args.atol
    if args.rtol is not None:
        kw["rtol"] = args.rtol
    return kw


# ---------------------------------------------------------------------------
# eval

def _ev_pochhammer(args, ctx):
    m, e = _qpochhammer_sc(args.a, ctx, args.n)
    value = _sc_value(m, e)
    # a nonzero product that converts to 0 underflowed: not exact, and the
    # smallest positive double bounds what the conversion lost
    lost = value == 0 and m != 0
    return EvalResult(value, math.ulp(0.0) if lost else 0.0, abs(args.n),
                      not lost)


def _ev_pochhammer_inf(args, ctx):
    return qpochhammer_inf(args.a, ctx)


def _ev_theta(args, ctx):
    return theta(args.x, ctx)


def _ev_phi(args, ctx):
    spec = SeriesSpec(tuple(args.num or ()), tuple(args.den or ()), args.z)
    return eval_phi(spec, ctx)


def _ev_psi(args, ctx):
    spec = SeriesSpec(tuple(args.num or ()), tuple(args.den or ()), args.z,
                      bilateral=True)
    return eval_psi(spec, ctx)


def _ev_s_trunc(args, ctx):
    p = TruncParams(q=args.q, A=args.A, B=args.B, C=args.C, D=args.D,
                    E=args.E, N=args.N)
    value = truncated_S(p)
    return EvalResult(value, 0.0, 2 * args.N + 1, True)


def _ev_t(args, ctx):
    p = TParams(q=args.q, X=args.X, B=args.B, C=args.C, D=args.D, E=args.E)
    return eval_T(p, ctx)


def _ev_rogers_closed(args, ctx):
    return rogers_closed(args.B, args.C, args.D, args.E, ctx)


def _ev_bailey_closed_a(args, ctx):
    p = BaileyParams(q=args.q, a=args.a, b=args.b, c=args.c, d=args.d,
                     e=args.e)
    return bailey_closed_a(p, ctx)


def _ev_bailey_closed_x(args, ctx):
    p = TParams(q=args.q, X=args.X, B=args.B, C=args.C, D=args.D, E=args.E)
    return bailey_closed_X(p, ctx)


def _ev_q_factor(args, ctx):
    return q_factor(args.X, args.B, args.D, args.E, ctx)


def _ev_f(args, ctx):
    p = TParams(q=args.q, X=args.X, B=args.B, C=args.C, D=args.D, E=args.E)
    return F_function(p, ctx)


#: form name -> (handler, complex flags, int flags)
_EVAL_FORMS = {
    "pochhammer": (_ev_pochhammer, ("a", "q"), ("n",)),
    "pochhammer-inf": (_ev_pochhammer_inf, ("a", "q"), ()),
    "theta": (_ev_theta, ("x", "q"), ()),
    "phi": (_ev_phi, ("z", "q"), ()),
    "psi": (_ev_psi, ("z", "q"), ()),
    "s-trunc": (_ev_s_trunc, ("q", "A", "B", "C", "D", "E"), ("N",)),
    "t": (_ev_t, ("q", "X", "B", "C", "D", "E"), ()),
    "rogers-closed": (_ev_rogers_closed, ("q", "B", "C", "D", "E"), ()),
    "bailey-closed-a": (_ev_bailey_closed_a,
                        ("q", "a", "b", "c", "d", "e"), ()),
    "bailey-closed-x": (_ev_bailey_closed_x,
                        ("q", "X", "B", "C", "D", "E"), ()),
    "q-factor": (_ev_q_factor, ("q", "X", "B", "D", "E"), ()),
    "f": (_ev_f, ("q", "X", "B", "C", "D", "E"), ()),
}


def cmd_eval(args) -> int:
    ctx = QContext(args.q, _policy(args))
    handler = _EVAL_FORMS[args.form][0]
    result = handler(args, ctx)
    print(_fmt(result.value))
    print(f"est_error: {result.est_error!r}")
    print(f"terms_used: {result.terms_used}")
    print(f"terminated: {str(result.terminated).lower()}")
    return 0


# ---------------------------------------------------------------------------
# check

def _abel_input(seed: int, index: int, M: int, N: int) -> AbelInput:
    g = _rng(seed, index)
    U = {n: complex(g.normal(), g.normal()) for n in range(-M, N + 2)}
    V = {n: complex(g.normal(), g.normal()) for n in range(-M, N + 1)}
    return AbelInput(U=U, V=V, M=M, N=N)


def _ck_abel(args, policy):
    return check_abel(_abel_input(args.seed, 0, args.M, args.N),
                      **_tol_kw(args))


def _ck_weierstrass(args, policy):
    ctx = QContext(args.q, policy) if args.theta else None
    return check_weierstrass(args.b, args.c, args.x, args.z, ctx=ctx,
                             use_theta=args.theta, **_tol_kw(args))


def _trunc_from(args) -> TruncParams:
    return TruncParams(q=args.q, A=args.A, B=args.B, C=args.C, D=args.D,
                       E=args.E, N=getattr(args, "N", 0))


def _t_from(args) -> TParams:
    return TParams(q=args.q, X=args.X, B=args.B, C=args.C, D=args.D,
                   E=args.E)


def _bailey_from(args) -> BaileyParams:
    return BaileyParams(q=args.q, a=args.a, b=args.b, c=args.c, d=args.d,
                        e=args.e)


def _ck_udiff(args, policy):
    return check_U_difference(args.n, _trunc_from(args), **_tol_kw(args))


def _ck_vdiff(args, policy):
    return check_V_difference(args.n, _trunc_from(args), **_tol_kw(args))


def _ck_recurrence(args, policy):
    return check_recurrence(_trunc_from(args), **_tol_kw(args))


def _ck_kn_decay(args, policy):
    kw = {}
    if args.rtol is not None:
        kw["tol"] = args.rtol
    return check_KN_decay(_trunc_from(args), N_max=args.n_max,
                          policy=policy, **kw)


def _ck_t_recursion(args, policy):
    return check_T_recursion(_t_from(args), policy=policy, **_tol_kw(args))


def _ck_rogers(args, policy):
    ctx = QContext(args.q, policy)
    return check_rogers(args.B, args.C, args.D, args.E, ctx,
                        **_tol_kw(args))


def _ck_q_constancy(args, policy):
    return check_Q_constancy(_t_from(args), steps=args.steps, policy=policy,
                             **_tol_kw(args))


def _ck_bailey_a(args, policy):
    return check_bailey("a", _bailey_from(args), policy=policy,
                        **_tol_kw(args))


def _ck_bailey_x(args, policy):
    return check_bailey("X", _t_from(args), policy=policy, **_tol_kw(args))


def _ck_remark1(args, policy):
    return check_remark1_equivalence(_bailey_from(args), policy=policy,
                                     **_tol_kw(args))


#: identity -> (handler, complex flags, int flags with defaults)
_CHECKS = {
    "abel": (_ck_abel, (), (("M", 5), ("N", 5), ("seed", 0))),
    "weierstrass": (_ck_weierstrass, ("b", "c", "x", "z"), ()),
    "udiff": (_ck_udiff, ("q", "A", "B", "C", "D", "E"), (("n", 0),)),
    "vdiff": (_ck_vdiff, ("q", "A", "B", "C", "D", "E"), (("n", 0),)),
    "recurrence": (_ck_recurrence, ("q", "A", "B", "C", "D", "E"),
                   (("N", 0),)),
    "kn-decay": (_ck_kn_decay, ("q", "A", "B", "C", "D", "E"),
                 (("n-max", 80),)),
    "t-recursion": (_ck_t_recursion, ("q", "X", "B", "C", "D", "E"), ()),
    "rogers": (_ck_rogers, ("q", "B", "C", "D", "E"), ()),
    "q-constancy": (_ck_q_constancy, ("q", "X", "B", "C", "D", "E"),
                    (("steps", 4),)),
    "bailey-a": (_ck_bailey_a, ("q", "a", "b", "c", "d", "e"), ()),
    "bailey-x": (_ck_bailey_x, ("q", "X", "B", "C", "D", "E"), ()),
    "remark1": (_ck_remark1, ("q", "a", "b", "c", "d", "e"), ()),
}


def _print_check(identity: str, rep, fmt: str) -> None:
    if fmt == "json":
        doc = {"schema": SCHEMA, "identity": identity,
               "report": to_jsonable(rep)}
        print(json.dumps(doc, sort_keys=True, indent=2))
        return
    print(f"identity: {identity}")
    if isinstance(rep, ResidualReport):
        print(f"lhs: {_fmt(rep.lhs)}")
        print(f"rhs: {_fmt(rep.rhs)}")
        print(f"abs_err: {rep.abs_err!r}")
        print(f"rel_err: {rep.rel_err!r}")
        if rep.note:
            print(f"note: {rep.note}")
    else:
        # decay trace report
        print(f"final_magnitude: {rep.final_magnitude!r}")
        print(f"kn_at_nmax: {_fmt(rep.kn_at_nmax)}")
        print(f"limit: {_fmt(rep.limit)}")
        print(f"limit_rel_err: {rep.limit_rel_err!r}")
        print(f"eventually_decreasing: "
              f"{str(rep.eventually_decreasing).lower()}")
        if rep.note:
            print(f"note: {rep.note}")
    print(f"passed: {str(rep.passed).lower()}")


def cmd_check(args) -> int:
    handler = _CHECKS[args.identity][0]
    rep = handler(args, _policy(args))
    _print_check(args.identity, rep, args.format)
    return 0 if rep.passed else 1


# ---------------------------------------------------------------------------
# sweep

def _worst(reports):
    """Report with the largest rel_err; any failure takes precedence."""
    worst = None
    for rep in reports:
        if worst is None:
            worst = rep
            continue
        if (not rep.passed, rep.rel_err) > (not worst.passed,
                                            worst.rel_err):
            worst = rep
    return worst


def _sw_abel(index, seed, policy, tols):
    g = _rng(seed, index)
    M = int(g.integers(0, 21))
    N = int(g.integers(0, 21))
    inp = _abel_input(seed, index, M, N)
    return {"M": M, "N": N}, check_abel(inp, **tols)


_WEIER_AMP_MAX = 10.0


def _weier_amp(b, c, x, z) -> float:
    from .qcore import nabla
    t1 = nabla((c * x, x / c, b * z, z / b))
    t2 = nabla((b * x, x / b, c * z, z / c))
    rhs = (z / c) * nabla((b * c, c / b, x * z, x / z))
    if rhs == 0:
        return float("inf")
    return max(abs(t1), abs(t2)) / abs(rhs)


def _sw_weierstrass(index, seed, policy, tols):
    g = _rng(seed, index)
    for _ in range(1000):
        b, c, x, z = (_draw_complex(g, 0.3, 2.5) for _ in range(4))
        if _weier_amp(b, c, x, z) <= _WEIER_AMP_MAX:
            break
    else:
        raise Unsatisfiable(f"draw {index}: no well-conditioned "
                            f"(b, c, x, z) in 1000 tries")
    return ({"b": b, "c": c, "x": x, "z": z},
            check_weierstrass(b, c, x, z, **tols))


def _sw_udiff(p, policy, tols):
    return _worst(check_U_difference(n, p, **tols) for n in range(-5, 6))


def _sw_vdiff(p, policy, tols):
    return _worst(check_V_difference(n, p, **tols) for n in range(-5, 6))


def _sw_recurrence(p, policy, tols):
    return _worst(check_recurrence(dataclasses.replace(p, N=N), **tols)
                  for N in range(0, 9))


def _sw_kn_decay(p, policy, tols):
    tol = tols.get("rtol")
    kw = {"tol": tol} if tol is not None else {}
    dec = check_KN_decay(p, N_max=80, policy=policy, **kw)
    note = (f"final magnitude {dec.final_magnitude:.6e}; eventually "
            f"decreasing: {str(dec.eventually_decreasing).lower()}")
    if dec.note:
        note += f"; {dec.note}"
    return ResidualReport(lhs=dec.kn_at_nmax, rhs=dec.limit,
                          abs_err=abs(dec.kn_at_nmax - dec.limit),
                          rel_err=dec.limit_rel_err, passed=dec.passed,
                          note=note)


def _sw_t_recursion(p, policy, tols):
    return check_T_recursion(p, policy=policy, **tols)


def _sw_rogers(p, policy, tols):
    ctx = QContext(p.q, policy)
    return check_rogers(p.B, p.C, p.D, p.E, ctx, **tols)


def _sw_q_constancy(p, policy, tols):
    return check_Q_constancy(p, steps=4, policy=policy, **tols)


def _sw_bailey_a(p, policy, tols):
    return check_bailey("a", p, policy=policy, **tols)


def _sw_bailey_x(p, policy, tols):
    return check_bailey("X", p, policy=policy, **tols)


def _sw_remark1(p, policy, tols):
    return check_remark1_equivalence(p, policy=policy, **tols)


#: identity -> (sampler kind or None, convergence caps, runner)
_SWEEPS = {
    "abel": (None, {}, _sw_abel),
    "weierstrass": (None, {}, _sw_weierstrass),
    "udiff": ("trunc", {"diff_amp_max": 300.0}, _sw_udiff),
    "vdiff": ("trunc", {"diff_amp_max": 300.0}, _sw_vdiff),
    "recurrence": ("trunc", {}, _sw_recurrence),
    "kn-decay": ("trunc", {"kn_decay_base_min": 1.5}, _sw_kn_decay),
    "t-recursion": ("t_params", {"t_arg_max": 0.8}, _sw_t_recursion),
    "rogers": ("t_params", {"t_arg_max": 0.8}, _sw_rogers),
    "q-constancy": ("t_params", {}, _sw_q_constancy),
    "bailey-a": ("bailey_a", {}, _sw_bailey_a),
    "bailey-x": ("t_params", {"t_arg_max": 0.8}, _sw_bailey_x),
    "remark1": ("bailey_a", {}, _sw_remark1),
}

#: errors recorded per draw instead of aborting the sweep
_DRAW_ERRORS = (DomainError, PoleError, NonConvergence, BudgetExceeded)


def run_sweep(identity: str, samples: int, seed: int,
              policy: TruncationPolicy | None = None,
              atol: float | None = None, rtol: float | None = None):
    """Draw, check, and aggregate; rows are keyed by (seed, draw index),
    so the report is reproducible independent of evaluation order."""
    if samples < 0:
        raise DomainError("samples must be >= 0")
    kind, caps, runner = _SWEEPS[identity]
    policy = policy or TruncationPolicy()
    tols = {}
    if atol is not None:
        tols["atol"] = atol
    if rtol is not None:
        tols["rtol"] = rtol
    rows = []
    if kind is None:
        constraints = {"drawn_by": identity, "seed": seed}
        for index in range(samples):
            try:
                params, rep = runner(index, seed, policy, tols)
            except _DRAW_ERRORS as exc:
                params, rep = {}, exc
            rows.append((index, params, rep))
    else:
        con = SampleConstraints(convergence_caps=caps)
        constraints = con
        for index, p in enumerate(sample(kind, con, seed, samples)):
            try:
                rep = runner(p, policy, tols)
            except _DRAW_ERRORS as exc:
                rep = exc
            rows.append((index, p, rep))
    return build_sweep_report(identity, seed, constraints, rows)


def cmd_sweep(args) -> int:
    report = run_sweep(args.identity, args.samples, args.seed,
                       policy=_policy(args), atol=args.atol,
                       rtol=args.rtol)
    body = render_sweep(report, args.format)
    if args.out is None:
        sys.stdout.write(body)
    else:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(body)
        except OSError as exc:
            print(f"cannot write report: {exc}", file=sys.stderr)
            return 74
        s = report.summary
        print(f"identity={report.identity} seed={report.seed} "
              f"total={s['total']} passed={s['passed']} "
              f"failed={s['failed']} errored={s['errored']} "
              f"max_rel_err={s['max_rel_err']:.6e}")
    return 1 if report.summary["failed"] > 0 else 0


# ---------------------------------------------------------------------------

def _build_parser() -> _Parser:
    top = _Parser(prog="qsix", description=__doc__.splitlines()[0])
    sub = top.add_subparsers(dest="command", metavar="command")

    p_eval = sub.add_parser("eval", help="evaluate a series or closed form")
    forms = p_eval.add_subparsers(dest="form", metavar="form")
    for form, (_, cpx_flags, int_flags) in _EVAL_FORMS.items():
        fp = forms.add_parser(form)
        for name in cpx_flags:
            fp.add_argument(f"--{name}", type=_cpx, required=True,
                            metavar="RE,IM")
        for name in int_flags:
            fp.add_argument(f"--{name}", type=int, required=True)
        if form in ("phi", "psi"):
            fp.add_argument("--num", type=_cpx, action="append",
                            metavar="RE,IM", help="numerator parameter")
            fp.add_argument("--den", type=_cpx, action="append",
                            metavar="RE,IM", help="denominator parameter")
        _add_numeric_flags(fp)
        fp.set_defaults(func=cmd_eval)

    p_check = sub.add_parser("check", help="run one identity check")
    idents = p_check.add_subparsers(dest="identity", metavar="identity")
    for identity, (_, cpx_flags, int_flags) in _CHECKS.items():
        ip = idents.add_parser(identity)
        for name in cpx_flags:
            ip.add_argument(f"--{name}", type=_cpx, required=True,
                            metavar="RE,IM")
        for name, default in int_flags:
            dest = name.replace("-", "_")
            ip.add_argument(f"--{name}", dest=dest, type=int,
                            default=default)
        if identity == "weierstrass":
            ip.add_argument("--theta", action="store_true",
                            help="theta-product form instead of plain")
            ip.add_argument("--q", type=_cpx, default=0.5 + 0j,
                            metavar="RE,IM", help="base for --theta")
        ip.add_argument("--format", choices=("text", "json"),
                        default="text")
        _add_numeric_flags(ip)
        ip.set_defaults(func=cmd_check)

    p_sweep = sub.add_parser("sweep", help="randomized identity sweep")
    p_sweep.add_argument("--identity", required=True,
                         choices=sorted(_SWEEPS))
    p_sweep.add_argument("--samples", type=int, required=True)
    p_sweep.add_argument("--seed", type=int, default=0)
    p_sweep.add_argument("--out", default=None,
                         help="report path; stdout when omitted")
    p_sweep.add_argument("--format", choices=("json", "csv"),
                         default="json")
    _add_numeric_flags(p_sweep)
    p_sweep.set_defaults(func=cmd_sweep)

    return top


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if not hasattr(args, "func"):
        parser.error("a subcommand is required")
    try:
        return args.func(args)
    except (DomainError, PoleError) as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return 2
    except (NonConvergence, BudgetExceeded) as exc:
        print(f"did not converge: {exc}", file=sys.stderr)
        return 3
    except Unsatisfiable as exc:
        print(f"sampling failed: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
