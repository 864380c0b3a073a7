"""Series evaluators and closed product forms.

Unilateral and bilateral basic hypergeometric sums driven by incremental term
ratios, the very-well-poised bilateral with its branch-free kernel, the
truncated symmetric window sum, and the closed infinite-product evaluations
they are checked against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from . import _backend as _K
from .config import POLE_EPS, RECOMPUTE_EVERY, STAGNATION_WINDOW, ZERO_EPS
from .errors import BudgetExceeded, DomainError, IllConditioned, \
    NonConvergence, PoleError
from .qcore import DEFAULT_POLICY, EvalResult, QContext, TruncationPolicy, \
    _as_complex, _mul_results, qpochhammer_inf, qpochhammer_inf_multi


@dataclass(frozen=True)
class SeriesSpec:
    """Parameter lists for a generic (bi)lateral series.

    eval_phi sums the unilateral form: r numerators against r-1
    denominators plus the implicit (q;q)_n, over n >= 0. eval_psi sums the
    bilateral form: equal-length lists, over all integers n. z is the
    series argument.
    """

    numerators: tuple
    denominators: tuple
    z: complex

    def __post_init__(self):
        object.__setattr__(self, "numerators",
                           tuple(_as_complex(a) for a in self.numerators))
        object.__setattr__(self, "denominators",
                           tuple(_as_complex(b) for b in self.denominators))
        object.__setattr__(self, "z", _as_complex(self.z))


@dataclass(frozen=True)
class TruncParams:
    """Arguments of the truncated window sum S_N and its recurrence."""

    q: complex
    A: complex
    B: complex
    C: complex
    D: complex
    E: complex
    N: int

    def __post_init__(self):
        for name in ("q", "A", "B", "C", "D", "E"):
            object.__setattr__(self, name, _as_complex(getattr(self, name)))
        if not 0.0 < abs(self.q) < 1.0:
            raise DomainError("|q| must lie in (0, 1)")
        if self.A == 0 or self.C == 0:
            raise DomainError("A and C must be nonzero")
        if self.A * self.A * self.q * self.q == 0:
            raise DomainError("A^2 q^2 underflows to 0")
        if self.N < 0:
            raise DomainError("window size N must be >= 0")


@dataclass(frozen=True)
class BaileyParams:
    """Arguments (a; b, c, d, e) of the classical bilateral summation."""

    q: complex
    a: complex
    b: complex
    c: complex
    d: complex
    e: complex

    def __post_init__(self):
        for name in ("q", "a", "b", "c", "d", "e"):
            object.__setattr__(self, name, _as_complex(getattr(self, name)))
        if not 0.0 < abs(self.q) < 1.0:
            raise DomainError("|q| must lie in (0, 1)")
        if 0 in (self.a, self.b, self.c, self.d, self.e):
            raise DomainError("a, b, c, d, e must be nonzero")

    @property
    def series_arg(self) -> complex:
        return self.a * self.a * self.q / (self.b * self.c * self.d * self.e)


@dataclass(frozen=True)
class TParams:
    """Arguments (X; B, C, D, E) of the shifted bilateral T(X;C)."""

    q: complex
    X: complex
    B: complex
    C: complex
    D: complex
    E: complex

    def __post_init__(self):
        for name in ("q", "X", "B", "C", "D", "E"):
            object.__setattr__(self, name, _as_complex(getattr(self, name)))
        if not 0.0 < abs(self.q) < 1.0:
            raise DomainError("|q| must lie in (0, 1)")
        if 0 in (self.X, self.B, self.D, self.E):
            raise DomainError("X, B, D, E must be nonzero")

    @property
    def series_arg(self) -> complex:
        return self.C / self.q ** 3


def _side(num, den, q, z, direction, vwp_a, fixed, policy,
          num_names=None, den_names=None):
    """Run one kernel direction and translate its status into errors. A
    nonzero vwp_a is the very-well-poised kernel parameter.

    Returns (acc, tail, used, terminated, peak); peak is the kernel's
    largest |term|.
    """
    acc, tail, used, status, bad_is_num, bad_slot, bad_exp, peak = \
        _K.series_side(tuple(num), tuple(den), q, z, direction, vwp_a,
                       vwp_a != 0, fixed, policy.tail_tol, policy.max_terms,
                       STAGNATION_WINDOW, POLE_EPS, ZERO_EPS, RECOMPUTE_EVERY)
    if status == _K.POLE:
        if bad_is_num:
            name = (num_names[bad_slot] if num_names
                    else f"numerator[{bad_slot}]")
        else:
            name = (den_names[bad_slot] if den_names
                    else f"denominator[{bad_slot}]")
        raise PoleError(
            f"factor 1 - {name}*q^({bad_exp}) vanishes",
            factor=name, exponent=bad_exp)
    if status == _K.BUDGET:
        raise BudgetExceeded(
            f"series tail not below tolerance within {policy.max_terms} terms")
    if status == _K.DIVERGED:
        raise NonConvergence("series terms fail to decay")
    return acc, tail, used, status == _K.TERMINATED, peak


def _hump(peak: float, value: complex, policy, kind: str) -> float:
    """max(1, peak) / |value|, inf when the value is 0; IllConditioned when
    it is over policy.hump_max."""
    total = abs(value)
    hump = max(1.0, peak) / total if total else float("inf")
    if hump > policy.hump_max:
        raise IllConditioned(f"{kind} term hump {hump:.3g} exceeds hump_max "
                             f"{policy.hump_max:.3g}")
    return hump


def _bilateral(num, den, q, z, vwp_a, fixed, policy, num_names=None,
               den_names=None):
    """Both index directions around the n = 0 term of a bilateral sum.

    Returns (value, tail, used, terminated, hump). The hump
    max(1, peak up, peak down) / |value| is the factor by which term
    rounding is amplified in the value, inf when the value is 0; over
    policy.hump_max it raises IllConditioned.
    """
    up = _side(num, den, q, z, +1, vwp_a, fixed, policy, num_names,
               den_names)
    down = _side(num, den, q, z, -1, vwp_a, fixed, policy, num_names,
                 den_names)
    value = 1.0 + up[0] + down[0]
    hump = _hump(max(up[4], down[4]), value, policy, "bilateral")
    return (value, up[1] + down[1], up[2] + down[2] + 1, up[3] and down[3],
            hump)


def _vwp_den(a, q, bs) -> tuple:
    """Denominator row a q / b_i of the very-well-poised sum in (a; b_i)."""
    return tuple(a * q / b for b in bs)


def eval_phi(spec: SeriesSpec, ctx: QContext) -> EvalResult:
    """Unilateral sum over n >= 0 with the implicit (q;q)_n denominator.

    Terms are updated through the single new factor each parameter
    contributes per step; a vanishing numerator factor terminates the sum
    exactly, a vanishing denominator factor raises PoleError. A term hump
    max(1, max |term|) / |sum| over the policy's hump_max raises
    IllConditioned.

    Examples
    --------
    >>> ctx = QContext(0.5)
    >>> eval_phi(SeriesSpec((2.0, 0.3), (0.7,), 0.2), ctx).value
    (0.06666666666666687+0j)
    """
    if len(spec.denominators) != len(spec.numerators) - 1:
        raise DomainError("unilateral series needs r numerators and r-1 "
                          "denominators")
    if spec.z == 0:
        return EvalResult(1.0 + 0j, 0.0, 1, True)
    den = (ctx.q,) + spec.denominators
    acc, tail, used, exact, peak = _side(spec.numerators, den, ctx.q,
                                         spec.z, +1, 0j, -1, ctx.policy)
    _hump(peak, 1.0 + acc, ctx.policy, "unilateral")
    return EvalResult(1.0 + acc, tail, used + 1, exact)


def eval_psi(spec: SeriesSpec, ctx: QContext) -> EvalResult:
    """Bilateral sum over all integers n.

    Both index directions run independently until each one-sided tail
    certifies; est_error adds the two bounds. The n <= -1 terms put the
    denominator parameters on top, so their vanishing factors terminate that
    direction while vanishing numerator factors are poles there.
    """
    if len(spec.denominators) != len(spec.numerators):
        raise DomainError("bilateral series needs equal-length parameter "
                          "lists")
    if spec.z == 0:
        raise NonConvergence("bilateral series diverges at z = 0 "
                             "(the n <= -1 terms blow up)")
    return EvalResult(*_bilateral(spec.numerators, spec.denominators, ctx.q,
                                  spec.z, 0j, -1, ctx.policy)[:4])


def vwp_psi6(a: complex, bs: Sequence[complex], z: complex,
             ctx: QContext, num_names=None, den_names=None) -> EvalResult:
    """Very-well-poised bilateral sum with the branch-free kernel.

    Sums over all integers n the term

        (1 - a q^{2n}) / (1 - a) * prod_i (b_i;q)_n / (a q / b_i;q)_n * z^n.

    The kernel factor is carried as a per-term multiplier, never through
    square roots of a; the paired-factor identity makes this exact, and a
    kernel zero (a = q^{-2n}) kills a single term without terminating the
    sum. Requires a != 1 and z != 0.
    """
    a = _as_complex(a)
    if abs(1.0 - a) <= POLE_EPS * (1.0 + abs(a)):
        raise PoleError("very-well-poised kernel denominator 1 - a vanishes",
                        factor="1 - a")
    z = _as_complex(z)
    if z == 0:
        raise NonConvergence("bilateral series diverges at z = 0 "
                             "(the n <= -1 terms blow up)")
    num = tuple(_as_complex(b) for b in bs)
    if 0 in num:
        raise DomainError("very-well-poised parameters must be nonzero")
    return EvalResult(*_bilateral(num, _vwp_den(a, ctx.q, num), ctx.q, z, a,
                                  -1, ctx.policy, num_names, den_names)[:4])


_S_NUM_NAMES = ("Bq", "Dq", "Eq", "BCDEq^2/A^2")
_S_DEN_NAMES = ("DEq/A", "BEq/A", "BDq/A", "A/C")


def _s_rows(q, A, B, C, D, E):
    """(numerators, denominators, kernel parameter BDEq/A, argument
    1/Cq^2) of the window sum S_N in (A; B, C, D, E)."""
    num = (B * q, D * q, E * q, B * C * D * E * q * q / (A * A))
    den = (D * E * q / A, B * E * q / A, B * D * q / A, A / C)
    return num, den, B * D * E * q / A, 1.0 / (C * q * q)


def truncated_S(p: TruncParams) -> complex:
    """Symmetric window sum S_N over n = -N..N of the very-well-poised term

        (1 - (BDEq/A) q^{2n}) / (1 - BDEq/A)
        * (Bq, Dq, Eq, BCDEq^2/A^2;q)_n / (DEq/A, BEq/A, BDq/A, A/C;q)_n
        * (Cq^2)^{-n}.

    The sum is finite, so no truncation policy applies; vanishing numerator
    factors cut a direction short exactly, vanishing denominator factors
    raise PoleError naming the factor (A = C poles the n = 1 term already).
    """
    num, den, a, z = _s_rows(p.q, p.A, p.B, p.C, p.D, p.E)
    if abs(1.0 - a) <= POLE_EPS * (1.0 + abs(a)):
        raise PoleError("window-sum kernel denominator 1 - BDEq/A vanishes",
                        factor="1 - BDEq/A")
    return _bilateral(num, den, p.q, z, a, p.N, DEFAULT_POLICY, _S_NUM_NAMES,
                      _S_DEN_NAMES)[0]


_T_NUM_NAMES = ("BCDEXq", "BXq", "DXq", "EXq")
_T_DEN_NAMES = ("X", "CDEX", "BCEX", "BCDX")


def _t_row(q, X, B, C, D, E):
    """(kernel parameter BCDEX^2, numerator row, argument C/q^3) of
    T(X;C); the denominators are the very-well-poised a q / b_i."""
    return (B * C * D * E * X * X,
            (B * C * D * E * X * q, B * X * q, D * X * q, E * X * q),
            C / q ** 3)


def eval_T(p: TParams,
           policy: TruncationPolicy | None = None) -> EvalResult:
    """Bilateral T(X;C): the very-well-poised sum with kernel parameter
    BCDEX^2, parameter row (BCDEXq, BXq, DXq, EXq), and argument C/q^3.

    Convergence needs |C/q^3| < 1; outside that (including C = 0, where the
    negative-index terms blow up) NonConvergence is raised.
    """
    a, bs, z = _t_row(p.q, p.X, p.B, p.C, p.D, p.E)
    if abs(z) >= 1.0:
        raise NonConvergence(
            f"bilateral argument |C/q^3| = {abs(z)} is outside the "
            f"convergence disk")
    return vwp_psi6(a, bs, z, QContext(p.q, policy or DEFAULT_POLICY),
                    _T_NUM_NAMES, _T_DEN_NAMES)


def _ratio_inf(ctx: QContext, num_pairs, den_pairs) -> EvalResult:
    """Ratio of infinite-product groups with named denominator poles."""
    top = qpochhammer_inf_multi([val for _, val in num_pairs], ctx)
    bot = EvalResult(1.0 + 0j, 0.0, 0, True)
    for name, val in den_pairs:
        r = qpochhammer_inf(val, ctx)
        if r.value == 0:
            raise PoleError(f"denominator product ({name};q)_inf vanishes",
                            factor=name)
        bot = _mul_results(bot, r)
    value = top.value / bot.value
    est = (top.est_error + abs(value) * bot.est_error) / abs(bot.value)
    return EvalResult(value, est, top.terms_used + bot.terms_used,
                      top.terminated and bot.terminated)


def rogers_closed(B: complex, C: complex, D: complex, E: complex,
                  ctx: QContext) -> EvalResult:
    """Closed product for the unilateral very-well-poised sum at X = q:

        (BCDEq^3, BC/q, CD/q, CE/q;q)_inf / (C/q^3, BCDq, BCEq, CDEq;q)_inf.
    """
    q = ctx.q
    B, C, D, E = map(_as_complex, (B, C, D, E))
    num = (("BCDEq^3", B * C * D * E * q ** 3), ("BC/q", B * C / q),
           ("CD/q", C * D / q), ("CE/q", C * E / q))
    den = (("C/q^3", C / q ** 3), ("BCDq", B * C * D * q),
           ("BCEq", B * C * E * q), ("CDEq", C * D * E * q))
    return _ratio_inf(ctx, num, den)


def bailey_closed_a(p: BaileyParams,
                    policy: TruncationPolicy | None = None) -> EvalResult:
    """Classical closed product for the bilateral sum in (a; b, c, d, e):

        (q, aq, q/a, aq/be, aq/ce, aq/de, aq/bc, aq/bd, aq/cd;q)_inf
        / (aq/b, aq/c, aq/d, aq/e, q/b, q/c, q/d, q/e, a^2 q/bcde;q)_inf.

    The identity against the bilateral sum needs |a^2 q/(bcde)| < 1; the
    product itself is evaluated for any nonzero parameters.
    """
    q, a, b, c, d, e = p.q, p.a, p.b, p.c, p.d, p.e
    aq = a * q
    num = (("q", q), ("aq", aq), ("q/a", q / a), ("aq/be", aq / (b * e)),
           ("aq/ce", aq / (c * e)), ("aq/de", aq / (d * e)),
           ("aq/bc", aq / (b * c)), ("aq/bd", aq / (b * d)),
           ("aq/cd", aq / (c * d)))
    den = (("aq/b", aq / b), ("aq/c", aq / c), ("aq/d", aq / d),
           ("aq/e", aq / e), ("q/b", q / b), ("q/c", q / c), ("q/d", q / d),
           ("q/e", q / e), ("a^2q/bcde", p.series_arg))
    return _ratio_inf(QContext(q, policy or DEFAULT_POLICY), num, den)


def _q_rows(q, X, B, D, E):
    """(numerator, denominator) rows of q_factor, as (name, x) pairs."""
    num = (("q", q), ("1/Bq", 1.0 / (B * q)), ("1/Dq", 1.0 / (D * q)),
           ("1/Eq", 1.0 / (E * q)))
    den = (("X", X), ("1/BX", 1.0 / (B * X)), ("1/DX", 1.0 / (D * X)),
           ("1/EX", 1.0 / (E * X)))
    return num, den


def _f_rows(p: TParams):
    """(numerator, denominator) rows of F_function, as (name, x) pairs."""
    q, X, B, C, D, E = p.q, p.X, p.B, p.C, p.D, p.E
    m = B * C * D * E * X
    mX = m * X
    num = (("BCDEX^2q", mX * q), ("q/BCDEX^2", q / mX),
           ("BC/q", B * C / q), ("CD/q", C * D / q), ("CE/q", C * E / q))
    den = (("1/BCDEX", 1.0 / m), ("C/q^3", C / q ** 3),
           ("BCDX", B * C * D * X), ("BCEX", B * C * E * X),
           ("CDEX", C * D * E * X))
    return num, den


def bailey_closed_X(p: TParams,
                    policy: TruncationPolicy | None = None) -> EvalResult:
    """Closed product for T(X;C) in the shifted parameter row, the
    q_factor rows followed by the F_function rows:

        (q, 1/Bq, 1/Dq, 1/Eq, BCDEX^2 q, q/BCDEX^2, BC/q, CD/q, CE/q;q)_inf
        / (X, 1/BX, 1/DX, 1/EX, 1/BCDEX, C/q^3, BCDX, BCEX, CDEX;q)_inf.
    """
    if p.C == 0:
        raise DomainError("C must be nonzero for the closed product")
    qnum, qden = _q_rows(p.q, p.X, p.B, p.D, p.E)
    fnum, fden = _f_rows(p)
    return _ratio_inf(QContext(p.q, policy or DEFAULT_POLICY), qnum + fnum,
                      qden + fden)


def q_factor(X: complex, B: complex, D: complex, E: complex,
             ctx: QContext) -> EvalResult:
    """C-independent ratio extracted from T(X;C):

        (q, 1/Bq, 1/Dq, 1/Eq;q)_inf / (X, 1/BX, 1/DX, 1/EX;q)_inf.

    Equals 1 exactly at X = q.
    """
    X, B, D, E = map(_as_complex, (X, B, D, E))
    if 0 in (X, B, D, E):
        raise DomainError("X, B, D, E must be nonzero")
    return _ratio_inf(ctx, *_q_rows(ctx.q, X, B, D, E))


def F_function(p: TParams,
               policy: TruncationPolicy | None = None) -> EvalResult:
    """C-dependent product complementing q_factor:

        (BCDEX^2 q, q/BCDEX^2, BC/q, CD/q, CE/q;q)_inf
        / (1/BCDEX, C/q^3, BCDX, BCEX, CDEX;q)_inf.

    T(X;C) / F(C) is independent of C on the convergence disk.
    """
    if p.C == 0:
        raise DomainError("C must be nonzero for F")
    return _ratio_inf(QContext(p.q, policy or DEFAULT_POLICY), *_f_rows(p))
