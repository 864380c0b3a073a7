"""Command-line front end.

Three subcommands: `eval` computes one series or closed form at a point,
`check` runs a single identity check, `sweep` runs a seeded randomized
sweep and emits a machine-readable report.

Exit codes: 0 success/pass, 1 check failed, 2 domain or pole error,
3 non-convergence or exhausted budget, 64 usage, 74 report I/O failure.

Each command loads only what it runs. Importing this module loads the
evaluators and the sampler; `check` and `sweep` load the identities, and
`sweep` and `check --format json` the report writer. The parser adds
flags only to the eval form or check identity that argv names.
"""

from __future__ import annotations

import argparse
import math
import sys

from .errors import (BudgetExceeded, DomainError, IllConditioned,
                     NonConvergence, PoleError, QSixError, Unsatisfiable)
from .qcore import (EvalResult, QContext, TruncationPolicy, _index,
                    _qpochhammer_sc, _sc_value, qpochhammer_inf, theta)
from .sampler import SampleConstraints, _draw_complex, _rng, sample_checked
from .series import (BaileyParams, SeriesSpec, TParams, TruncParams,
                     bailey_closed_a, bailey_closed_X, eval_phi, eval_psi,
                     eval_T, F_function, q_factor, rogers_closed,
                     truncated_S)


class _Parser(argparse.ArgumentParser):
    """argparse with the sysexits usage code instead of 2. A parser made
    with `flags`, a function of the parser, adds its flags when it first
    parses, so a command builds the flags of its own leaf alone."""

    def __init__(self, *args, flags=None, **kwargs):
        super().__init__(*args, **kwargs)
        self._flags = flags

    def parse_known_args(self, args=None, namespace=None):
        if self._flags is not None:
            add, self._flags = self._flags, None
            add(self)
        return super().parse_known_args(args, namespace)

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


#: numeric flag -> (type, help); each subcommand takes the ones it reads
_NUMERIC_FLAGS = {
    "tail-tol": (float, "tail tolerance for infinite sums and products"),
    "max-terms": (int, "per-side term budget"),
    "atol": (float, "absolute tolerance for checks"),
    "rtol": (float, "relative tolerance for checks"),
}
_POLICY_FLAGS = ("tail-tol", "max-terms")
_TOL_FLAGS = ("atol", "rtol")
_ALL_FLAGS = _POLICY_FLAGS + _TOL_FLAGS

#: repeatable RE,IM flags: the parameter lists of the phi and psi forms
_LIST_FLAGS = {"num": "numerator parameter", "den": "denominator parameter"}


def _add_numeric_flags(sp, names) -> None:
    for name in names:
        kind, text = _NUMERIC_FLAGS[name]
        sp.add_argument(f"--{name}", type=kind, default=None, help=text)


def _row_flags(row) -> tuple:
    """Complex flags of a parameter class (its fields but the int N) or of
    an explicit flag row."""
    if isinstance(row, tuple):
        return row
    return tuple(name for name in row._fields
                 if row.__annotations__[name] == "complex")


def _add_row_flags(sp, row, ints) -> None:
    """RE,IM flags of a row, then its int flags (required where the
    default is None)."""
    for name in _row_flags(row):
        if name in _LIST_FLAGS:
            sp.add_argument(f"--{name}", type=_cpx, action="append",
                            metavar="RE,IM", help=_LIST_FLAGS[name])
        else:
            sp.add_argument(f"--{name}", type=_cpx, required=True,
                            metavar="RE,IM")
    for name, default in ints:
        sp.add_argument(f"--{name}", dest=name.replace("-", "_"), type=int,
                        default=default, required=default is None)


def _row(row, args):
    """The point of a parameter class, built from its flags with N 0 where
    it is no flag, or of a flag row, the parsed flags themselves."""
    if isinstance(row, tuple):
        return args
    return row(**{name: getattr(args, name, 0) for name in row._fields})


def _given(args, *dests) -> dict:
    """The numeric flags among dests that were set, by library keyword."""
    return {d: v for d in dests if (v := getattr(args, d, None)) is not None}


def _policy(args) -> TruncationPolicy:
    return TruncationPolicy(**_given(args, "tail_tol", "max_terms"))


def _reject_given(args, names, why: str) -> None:
    """Usage error naming each of the numeric flags `names` that was set."""
    given = [f"--{name}" for name in names
             if getattr(args, name.replace("-", "_")) is not None]
    if given:
        args.usage_error(f"{why} {', '.join(given)}")


# ---------------------------------------------------------------------------
# eval

def _ev_pochhammer(a, n, ctx):
    m, e = _qpochhammer_sc(a, ctx, n)
    value = _sc_value(m, e)
    # a nonzero product that converts to 0 underflowed: not exact, and the
    # smallest positive double bounds what the conversion lost
    lost = value == 0 and m != 0
    return EvalResult(value, math.ulp(0.0) if lost else 0.0, abs(n),
                      not lost)


def _ev_phi(z, num, den, ctx):
    return eval_phi(SeriesSpec(tuple(num or ()), tuple(den or ()), z), ctx)


def _ev_psi(z, num, den, ctx):
    return eval_psi(SeriesSpec(tuple(num or ()), tuple(den or ()), z), ctx)


def _ev_s_trunc(p, policy):
    return EvalResult(truncated_S(p), 0.0, 2 * p.N + 1, True)


#: form -> (function, parameter class or flag row, int flags, numeric flags
#: read). A parameter class is built from its flags and called as
#: function(row, policy); a flag row passes its values but q (which sets
#: ctx), then the ints: function(*values, ctx).
_EVAL_FORMS = {
    "pochhammer": (_ev_pochhammer, ("a", "q"), (("n", None),), ()),
    "pochhammer-inf": (qpochhammer_inf, ("a", "q"), (), _POLICY_FLAGS),
    "theta": (theta, ("x", "q"), (), _POLICY_FLAGS),
    "phi": (_ev_phi, ("z", "q", "num", "den"), (), _POLICY_FLAGS),
    "psi": (_ev_psi, ("z", "q", "num", "den"), (), _POLICY_FLAGS),
    "s-trunc": (_ev_s_trunc, TruncParams, (("N", None),), ()),
    "t": (eval_T, TParams, (), _POLICY_FLAGS),
    "rogers-closed": (rogers_closed, ("q", "B", "C", "D", "E"), (),
                      _POLICY_FLAGS),
    "bailey-closed-a": (bailey_closed_a, BaileyParams, (), _POLICY_FLAGS),
    "bailey-closed-x": (bailey_closed_X, TParams, (), _POLICY_FLAGS),
    "q-factor": (q_factor, ("q", "X", "B", "D", "E"), (), _POLICY_FLAGS),
    "f": (F_function, TParams, (), _POLICY_FLAGS),
}


def cmd_eval(args) -> int:
    fn, row, ints, _ = _EVAL_FORMS[args.form]
    ctx = QContext(args.q, _policy(args))
    if isinstance(row, tuple):
        names = row + tuple(name for name, _ in ints)
        result = fn(*(getattr(args, n) for n in names if n != "q"), ctx)
    else:
        result = fn(_row(row, args), ctx.policy)
    print(_fmt(result.value))
    print(f"est_error: {result.est_error!r}")
    print(f"terms_used: {result.terms_used}")
    print(f"terminated: {str(result.terminated).lower()}")
    return 0


# ---------------------------------------------------------------------------
# check

def _abel_input(seed: int, index: int, M: int, N: int):
    from .identities import AbelInput
    g = _rng(seed, index)
    U = {n: complex(g.normal(), g.normal()) for n in range(-M, N + 2)}
    V = {n: complex(g.normal(), g.normal()) for n in range(-M, N + 1)}
    return AbelInput(U=U, V=V, M=M, N=N)


def _ck_abel(args, policy, tols):
    from .identities import check_abel
    return check_abel(_abel_input(args.seed, 0, args.M, args.N), **tols)


def _ck_weierstrass(args, policy, tols):
    from .identities import check_weierstrass
    ctx = None
    if args.theta:
        ctx = QContext(0.5 + 0j if args.q is None else args.q, policy)
    else:
        _reject_given(args, ("q",) + _POLICY_FLAGS, "only --theta reads")
    return check_weierstrass(args.b, args.c, args.x, args.z, ctx=ctx, **tols)


def _ck_kn_decay(args, policy, tols):
    return _kn_decay(_row(TruncParams, args), policy, tols, args.n_max)


#: identity -> (handler, parameter class or flag row, int flags and their
#: defaults, numeric flags read by its check and its sweep; `check
#: weierstrass --theta` also reads the policy flags). A handler of None
#: runs the identity's sweep runner on the one point the flags give.
_CHECKS = {
    "abel": (_ck_abel, (), (("M", 5), ("N", 5), ("seed", 0)), _TOL_FLAGS),
    "weierstrass": (_ck_weierstrass, ("b", "c", "x", "z"), (), _TOL_FLAGS),
    "udiff": (None, TruncParams, (("n", 0),), _TOL_FLAGS),
    "vdiff": (None, TruncParams, (("n", 0),), _TOL_FLAGS),
    "recurrence": (None, TruncParams, (("N", 0),), _TOL_FLAGS),
    "kn-decay": (_ck_kn_decay, TruncParams, (("n-max", 80),),
                 _POLICY_FLAGS + ("rtol",)),
    "t-recursion": (None, TParams, (), _ALL_FLAGS),
    "rogers": (None, ("q", "B", "C", "D", "E"), (), _ALL_FLAGS),
    "q-constancy": (None, TParams, (("steps", 4),), _ALL_FLAGS),
    "bailey-a": (None, BaileyParams, (), _ALL_FLAGS),
    "bailey-x": (None, TParams, (), _ALL_FLAGS),
    "remark1": (None, BaileyParams, (), _ALL_FLAGS),
}


def _print_check(identity: str, rep, fmt: str) -> None:
    """The report as JSON, or as text: its fields in record order, passed
    last; complex values by _fmt, bools in lower case, strings raw, others
    by repr, leaving out a tuple field and an empty note."""
    if fmt == "json":
        import json
        from .report import SCHEMA, to_jsonable
        doc = {"schema": SCHEMA, "identity": identity,
               "report": to_jsonable(rep)}
        print(json.dumps(doc, sort_keys=True, indent=2))
        return
    print(f"identity: {identity}")
    for name in [n for n in rep._fields if n != "passed"] + ["passed"]:
        value = getattr(rep, name)
        if isinstance(value, tuple) or value == "":
            continue
        if isinstance(value, complex):
            value = _fmt(value)
        elif isinstance(value, bool):
            value = str(value).lower()
        elif not isinstance(value, str):
            value = repr(value)
        print(f"{name}: {value}")


def cmd_check(args) -> int:
    handler, row, ints, _ = _CHECKS[args.identity]
    policy, tols = _policy(args), _given(args, "atol", "rtol")
    if handler is None:
        runner = _SWEEPS[args.identity][2]
        point = {name: (getattr(args, name),) for name, _ in ints}
        rep = runner(_row(row, args), policy, tols, **point)
    else:
        rep = handler(args, policy, tols)
    _print_check(args.identity, rep, args.format)
    return 0 if rep.passed else 1


# ---------------------------------------------------------------------------
# sweep

def _worst(reports):
    """Report with the largest rel_err; any failure takes precedence, and
    the first of equal reports is kept."""
    return max(reports, key=lambda rep: (not rep.passed, rep.rel_err))


def _sw_abel(index, seed, policy, tols):
    from .identities import check_abel
    g = _rng(seed, index)
    M = g.integers(0, 21)
    N = g.integers(0, 21)
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
    from .identities import check_weierstrass
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


# A runner's int keyword is the sweep's fan-out over that index; `check`
# passes the flag's one value instead. Runners import what they call from
# `identities` when they run, so that `eval` never loads it.

def _sw_udiff(p, policy, tols, n=range(-5, 6)):
    from .identities import check_U_difference
    return _worst(check_U_difference(k, p, **tols) for k in n)


def _sw_vdiff(p, policy, tols, n=range(-5, 6)):
    from .identities import check_V_difference
    return _worst(check_V_difference(k, p, **tols) for k in n)


def _sw_recurrence(p, policy, tols, N=range(0, 9)):
    """check_recurrence at each N, every K_N from one trace; a trace that
    stops leaves each check to compute its own K_N, and stop, as it would."""
    from .identities import _recurrence, kn_trace
    try:
        kns = dict(enumerate(kn_trace(p, max(N))))
    except (QSixError, ArithmeticError):
        kns = {}
    return _worst(_recurrence(p.replace(N=k), kns.get(k),
                              **tols) for k in N)


def _kn_decay(p, policy, tols, N_max=80):
    """check_KN_decay with the rtol flag as its one tolerance."""
    from .identities import check_KN_decay
    kw = {"tol": tols["rtol"]} if "rtol" in tols else {}
    return check_KN_decay(p, N_max=N_max, policy=policy, **kw)


def _sw_kn_decay(p, policy, tols):
    from .identities import ResidualReport
    dec = _kn_decay(p, policy, tols)
    note = (f"final magnitude {dec.final_magnitude:.6e}; eventually "
            f"decreasing: {str(dec.eventually_decreasing).lower()}")
    if dec.note:
        note += f"; {dec.note}"
    return ResidualReport(lhs=dec.kn_at_nmax, rhs=dec.limit,
                          abs_err=abs(dec.kn_at_nmax - dec.limit),
                          rel_err=dec.limit_rel_err, passed=dec.passed,
                          note=note)


def _sw_t_recursion(p, policy, tols):
    from .identities import check_T_recursion
    return check_T_recursion(p, policy=policy, **tols)


def _sw_rogers(p, policy, tols):
    from .identities import check_rogers
    ctx = QContext(p.q, policy)
    return check_rogers(p.B, p.C, p.D, p.E, ctx, **tols)


def _sw_q_constancy(p, policy, tols, steps=(4,)):
    from .identities import check_Q_constancy
    return _worst(check_Q_constancy(p, steps=k, policy=policy, **tols)
                  for k in steps)


def _sw_bailey_a(p, policy, tols):
    from .identities import check_bailey
    return check_bailey("a", p, policy=policy, **tols)


def _sw_bailey_x(p, policy, tols):
    from .identities import check_bailey
    return check_bailey("X", p, policy=policy, **tols)


def _sw_remark1(p, policy, tols):
    from .identities import check_remark1_equivalence
    return check_remark1_equivalence(p, policy=policy, **tols)


_DIFF = SampleConstraints(convergence_caps={"diff_amp_max": 300.0})
_T_ARG = SampleConstraints(convergence_caps={"t_arg_max": 0.8})

#: identity -> (sampler kind or None, its SampleConstraints or None,
#: runner); q-constancy draws |q| >= 0.4, where its walks at C q^4 can be
#: conditioned
_SWEEPS = {
    "abel": (None, None, _sw_abel),
    "weierstrass": (None, None, _sw_weierstrass),
    "udiff": ("trunc", _DIFF, _sw_udiff),
    "vdiff": ("trunc", _DIFF, _sw_vdiff),
    "recurrence": ("trunc", SampleConstraints(), _sw_recurrence),
    "kn-decay": ("trunc", SampleConstraints(
        convergence_caps={"kn_decay_base_min": 1.5}), _sw_kn_decay),
    "t-recursion": ("t_params", _T_ARG, _sw_t_recursion),
    "rogers": ("t_params", _T_ARG, _sw_rogers),
    "q-constancy": ("t_params", SampleConstraints(q_modulus_range=(0.4, 0.7)),
                    _sw_q_constancy),
    "bailey-a": ("bailey_a", SampleConstraints(), _sw_bailey_a),
    "bailey-x": ("t_params", _T_ARG, _sw_bailey_x),
    "remark1": ("bailey_a", SampleConstraints(), _sw_remark1),
}

#: errors recorded per draw instead of aborting the sweep
_DRAW_ERRORS = (DomainError, PoleError, NonConvergence, BudgetExceeded)


def run_sweep(identity: str, samples: int, seed: int,
              policy: TruncationPolicy | None = None,
              atol: float | None = None, rtol: float | None = None):
    """Draw, check, and aggregate; rows are keyed by (seed, draw index),
    so the report is reproducible independent of evaluation order.

    A sampled draw is checked under the policy capped at the constraints'
    hump_max. A check that raises IllConditioned redraws from the same
    stream; its other errors are recorded in the draw's row.

    A policy, atol or rtol that the identity's runner does not read (the
    flags `qsix sweep` accepts for it) raises DomainError."""
    samples = _index(samples, "samples")
    if samples < 0:
        raise DomainError("samples must be >= 0")
    kind, con, runner = _SWEEPS[identity]
    read = _CHECKS[identity][3]
    unread = [name for name, value, flags in
              (("policy", policy, _POLICY_FLAGS), ("atol", atol, ("atol",)),
               ("rtol", rtol, ("rtol",)))
              if value is not None and not set(flags) & set(read)]
    if unread:
        raise DomainError(f"identity {identity!r} does not read "
                          f"{', '.join(unread)}")
    policy = policy or TruncationPolicy()
    tols = {name: value for name, value in (("atol", atol), ("rtol", rtol))
            if value is not None}
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
        constraints = con
        capped = policy.replace(
            hump_max=min(policy.hump_max, con.cap("hump_max")))

        def check(p):
            try:
                return runner(p, capped, tols)
            except IllConditioned:
                raise
            except _DRAW_ERRORS as exc:
                return exc

        for index, (p, rep) in enumerate(
                sample_checked(kind, con, seed, samples, check)):
            rows.append((index, p, rep))
    from .report import build_sweep_report
    return build_sweep_report(identity, seed, constraints, rows)


def cmd_sweep(args) -> int:
    read = _CHECKS[args.identity][3]
    _reject_given(args, [f for f in _ALL_FLAGS if f not in read],
                  f"--identity {args.identity} does not read")
    policy = _policy(args) if _given(args, "tail_tol", "max_terms") else None
    report = run_sweep(args.identity, args.samples, args.seed,
                       policy=policy, atol=args.atol, rtol=args.rtol)
    from .report import render_sweep
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

def _add_eval_flags(fp, form: str) -> None:
    _, row, ints, numeric = _EVAL_FORMS[form]
    _add_row_flags(fp, row, ints)
    _add_numeric_flags(fp, numeric)


def _add_check_flags(ip, identity: str) -> None:
    _, row, ints, numeric = _CHECKS[identity]
    _add_row_flags(ip, row, ints)
    if identity == "weierstrass":
        ip.add_argument("--theta", action="store_true",
                        help="theta-product form instead of plain")
        ip.add_argument("--q", type=_cpx, default=None, metavar="RE,IM",
                        help="base for --theta (default 0.5,0)")
        ip.set_defaults(usage_error=ip.error)
        numeric = _POLICY_FLAGS + numeric
    ip.add_argument("--format", choices=("text", "json"), default="text")
    _add_numeric_flags(ip, numeric)


def _build_parser(lazy: bool = False) -> _Parser:
    """The `qsix` parser. Every eval form and check identity is registered;
    each adds its flags at once, or, when lazy, on its first parse, so
    that only the leaf that argv names builds them."""
    top = _Parser(prog="qsix", description=__doc__.splitlines()[0])
    sub = top.add_subparsers(dest="command", metavar="command")

    def leaf(subs, name, add, func):
        if lazy:
            sp = subs.add_parser(name, flags=lambda sp: add(sp, name))
        else:
            sp = subs.add_parser(name)
            add(sp, name)
        sp.set_defaults(func=func)

    p_eval = sub.add_parser("eval", help="evaluate a series or closed form")
    forms = p_eval.add_subparsers(dest="form", metavar="form")
    for form in _EVAL_FORMS:
        leaf(forms, form, _add_eval_flags, cmd_eval)

    p_check = sub.add_parser("check", help="run one identity check")
    idents = p_check.add_subparsers(dest="identity", metavar="identity")
    for identity in _CHECKS:
        leaf(idents, identity, _add_check_flags, cmd_check)

    p_sweep = sub.add_parser("sweep", help="randomized identity sweep")
    p_sweep.add_argument("--identity", required=True,
                         choices=sorted(_SWEEPS))
    p_sweep.add_argument("--samples", type=int, required=True)
    p_sweep.add_argument("--seed", type=int, default=0)
    p_sweep.add_argument("--out", default=None,
                         help="report path; stdout when omitted")
    p_sweep.add_argument("--format", choices=("json", "csv"),
                         default="json")
    _add_numeric_flags(p_sweep, _ALL_FLAGS)
    p_sweep.set_defaults(func=cmd_sweep, usage_error=p_sweep.error)

    return top


def main(argv=None) -> int:
    parser = _build_parser(lazy=True)
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
