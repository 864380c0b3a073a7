"""Series evaluators and closed product forms.

Unilateral and bilateral basic hypergeometric sums driven by incremental term
ratios, the very-well-poised bilateral with its branch-free kernel, the
truncated symmetric window sum, and the closed infinite-product evaluations
they are checked against.
"""

from __future__ import annotations

from collections.abc import Sequence
from types import SimpleNamespace

from . import _backend as _K
from ._record import Record, set_field
from .config import POLE_EPS, RECOMPUTE_EVERY, ZERO_EPS
from .errors import BudgetExceeded, DomainError, IllConditioned, \
    NonConvergence, PoleError
from .qcore import DEFAULT_POLICY, EvalResult, QContext, TruncationPolicy, \
    _as_complex, _complex_row, _index, _inf_ratio


class SeriesSpec(Record):
    """Parameter lists for a generic (bi)lateral series.

    eval_phi sums the unilateral form: r numerators against r-1
    denominators plus the implicit (q;q)_n, over n >= 0. eval_psi sums the
    bilateral form: equal-length lists, over all integers n. z is the
    series argument.
    """

    numerators: tuple
    denominators: tuple
    z: complex

    def __init__(self, numerators, denominators, z):
        set_field(self, "numerators", tuple(map(_as_complex, numerators)))
        set_field(self, "denominators",
                  tuple(map(_as_complex, denominators)))
        set_field(self, "z", _as_complex(z))


class _Point:
    """A parameter point of one family. BASES, its class's table, maps the
    name of each factor base x of the factors 1 - x q^j that the family's
    sums and products take to the base's expression in the point. A base
    is evaluated where it is read, so one that divides by a zero parameter
    raises only there, and no value is kept."""

    __slots__ = ()

    def base(self, name: str) -> complex:
        return self.BASES[name](self)

    def bases(self, names) -> tuple:
        """The named bases, in order."""
        exprs = self.BASES
        return tuple([exprs[name](self) for name in names])

    def pairs(self, names) -> tuple:
        """(name, base) pairs of the named bases, in order."""
        return tuple(zip(names, self.bases(names)))


class _Unchecked(_Point, SimpleNamespace):
    """A point of the table BASES on parameters that no class checked."""


class TruncParams(_Point, Record):
    """Arguments of the truncated window sum S_N and its recurrence.

    BASES holds the bases that the rows of S_N, U_n, V_n, K_N, the
    recurrence coefficient and the N -> inf limit read. C/A is in no row:
    `compute_KN_printed`, written out by hand as the independent
    reference, divides by 1 - C/A.
    """

    q: complex
    A: complex
    B: complex
    C: complex
    D: complex
    E: complex
    N: int

    BASES = {
        "Bq": lambda p: p.B * p.q, "Dq": lambda p: p.D * p.q,
        "Eq": lambda p: p.E * p.q,
        "BCDEq^2/A^2":
            lambda p: p.B * p.C * p.D * p.E * p.q * p.q / (p.A * p.A),
        "DEq/A": lambda p: p.D * p.E * p.q / p.A,
        "BEq/A": lambda p: p.B * p.E * p.q / p.A,
        "BDq/A": lambda p: p.B * p.D * p.q / p.A, "A/C": lambda p: p.A / p.C,
        "BDEq/A": lambda p: p.B * p.D * p.E * p.q / p.A,
        "BDE/A^2q": lambda p: p.B * p.D * p.E / (p.A * p.A * p.q),
        "BD/A": lambda p: p.B * p.D / p.A, "BE/A": lambda p: p.B * p.E / p.A,
        "DE/A": lambda p: p.D * p.E / p.A, "Aq^2": lambda p: p.A * p.q * p.q,
        "BCDEq/A^2": lambda p: p.B * p.C * p.D * p.E * p.q / (p.A * p.A),
        "A/Cq": lambda p: p.A / (p.C * p.q),
        "BDE/A^2q^2": lambda p: p.B * p.D * p.E / (p.A * p.A * p.q * p.q),
        "BDE/A": lambda p: p.B * p.D * p.E / p.A,
        "Cq^3": lambda p: p.C * p.q ** 3, "Aq/B": lambda p: p.A * p.q / p.B,
        "Aq/D": lambda p: p.A * p.q / p.D, "Aq/E": lambda p: p.A * p.q / p.E,
        "B/Aq": lambda p: p.B / (p.A * p.q),
        "A/BD": lambda p: p.A / (p.B * p.D),
        "A/BE": lambda p: p.A / (p.B * p.E),
        "A/DE": lambda p: p.A / (p.D * p.E), "1/B": lambda p: 1.0 / p.B,
        "1/D": lambda p: 1.0 / p.D, "1/E": lambda p: 1.0 / p.E,
        "A^2/BCDEq": lambda p: p.A * p.A / (p.B * p.C * p.D * p.E * p.q),
        "C/A": lambda p: p.C / p.A,
    }

    def __init__(self, q, A, B, C, D, E, N):
        q, A, B, C, D, E = map(_as_complex, (q, A, B, C, D, E))
        if not 0.0 < abs(q) < 1.0:
            raise DomainError("|q| must lie in (0, 1)")
        if A == 0 or C == 0:
            raise DomainError("A and C must be nonzero")
        if A * A * q * q == 0:
            raise DomainError("A^2 q^2 underflows to 0")
        N = _index(N, "N")
        if N < 0:
            raise DomainError("window size N must be >= 0")
        set_field(self, "q", q)
        set_field(self, "A", A)
        set_field(self, "B", B)
        set_field(self, "C", C)
        set_field(self, "D", D)
        set_field(self, "E", E)
        set_field(self, "N", N)

    @property
    def series_arg(self) -> complex:
        return 1.0 / (self.C * self.q * self.q)


class BaileyParams(_Point, Record):
    """Arguments (a; b, c, d, e) of the classical bilateral summation; BASES
    holds the bases of the sum and of its closed product."""

    q: complex
    a: complex
    b: complex
    c: complex
    d: complex
    e: complex

    BASES = {
        "q": lambda p: p.q, "a": lambda p: p.a, "aq": lambda p: p.a * p.q,
        "q/a": lambda p: p.q / p.a, "aq/be": lambda p: p.a * p.q / (p.b * p.e),
        "aq/ce": lambda p: p.a * p.q / (p.c * p.e),
        "aq/de": lambda p: p.a * p.q / (p.d * p.e),
        "aq/bc": lambda p: p.a * p.q / (p.b * p.c),
        "aq/bd": lambda p: p.a * p.q / (p.b * p.d),
        "aq/cd": lambda p: p.a * p.q / (p.c * p.d),
        "aq/b": lambda p: p.a * p.q / p.b, "aq/c": lambda p: p.a * p.q / p.c,
        "aq/d": lambda p: p.a * p.q / p.d, "aq/e": lambda p: p.a * p.q / p.e,
        "q/b": lambda p: p.q / p.b, "q/c": lambda p: p.q / p.c,
        "q/d": lambda p: p.q / p.d, "q/e": lambda p: p.q / p.e,
        "a^2q/bcde": lambda p: p.a * p.a * p.q / (p.b * p.c * p.d * p.e),
        "b": lambda p: p.b, "c": lambda p: p.c, "d": lambda p: p.d,
        "e": lambda p: p.e,
    }

    def __init__(self, q, a, b, c, d, e):
        q, a, b, c, d, e = map(_as_complex, (q, a, b, c, d, e))
        if not 0.0 < abs(q) < 1.0:
            raise DomainError("|q| must lie in (0, 1)")
        if 0 in (a, b, c, d, e):
            raise DomainError("a, b, c, d, e must be nonzero")
        set_field(self, "q", q)
        set_field(self, "a", a)
        set_field(self, "b", b)
        set_field(self, "c", c)
        set_field(self, "d", d)
        set_field(self, "e", e)

    @property
    def series_arg(self) -> complex:
        return self.base("a^2q/bcde")


class TParams(_Point, Record):
    """Arguments (X; B, C, D, E) of the shifted bilateral T(X;C).

    BASES holds the bases of T(X;C), of its closed product (q_factor and
    F) and of its recursion, and, at X = q, those of the rogers product
    and the collapsed iteration.
    """

    q: complex
    X: complex
    B: complex
    C: complex
    D: complex
    E: complex

    BASES = {
        "BCDEX^2": lambda p: p.B * p.C * p.D * p.E * p.X * p.X,
        "BCDEXq": lambda p: p.B * p.C * p.D * p.E * p.X * p.q,
        "BXq": lambda p: p.B * p.X * p.q, "DXq": lambda p: p.D * p.X * p.q,
        "EXq": lambda p: p.E * p.X * p.q, "X": lambda p: p.X,
        "CDEX": lambda p: p.C * p.D * p.E * p.X,
        "BCEX": lambda p: p.B * p.C * p.E * p.X,
        "BCDX": lambda p: p.B * p.C * p.D * p.X, "q": lambda p: p.q,
        "1/Bq": lambda p: 1.0 / (p.B * p.q),
        "1/Dq": lambda p: 1.0 / (p.D * p.q),
        "1/Eq": lambda p: 1.0 / (p.E * p.q),
        "1/BX": lambda p: 1.0 / (p.B * p.X),
        "1/DX": lambda p: 1.0 / (p.D * p.X),
        "1/EX": lambda p: 1.0 / (p.E * p.X),
        "BCDEX^2q": lambda p: p.B * p.C * p.D * p.E * p.X * p.X * p.q,
        "q/BCDEX^2": lambda p: p.q / (p.B * p.C * p.D * p.E * p.X * p.X),
        "BC/q": lambda p: p.B * p.C / p.q, "CD/q": lambda p: p.C * p.D / p.q,
        "CE/q": lambda p: p.C * p.E / p.q,
        "1/BCDEX": lambda p: 1.0 / (p.B * p.C * p.D * p.E * p.X),
        "C/q^3": lambda p: p.C / p.q ** 3,
        "1/BCDEXq": lambda p: 1.0 / (p.B * p.C * p.D * p.E * p.X * p.q),
        "1/BCDEX^2": lambda p: 1.0 / (p.B * p.C * p.D * p.E * p.X * p.X),
        "BCDEq^3": lambda p: p.B * p.C * p.D * p.E * p.q ** 3,
        "BCDq": lambda p: p.B * p.C * p.D * p.q,
        "BCEq": lambda p: p.B * p.C * p.E * p.q,
        "CDEq": lambda p: p.C * p.D * p.E * p.q,
    }

    def __init__(self, q, X, B, C, D, E):
        q, X, B, C, D, E = map(_as_complex, (q, X, B, C, D, E))
        if not 0.0 < abs(q) < 1.0:
            raise DomainError("|q| must lie in (0, 1)")
        if 0 in (X, B, D, E):
            raise DomainError("X, B, D, E must be nonzero")
        set_field(self, "q", q)
        set_field(self, "X", X)
        set_field(self, "B", B)
        set_field(self, "C", C)
        set_field(self, "D", D)
        set_field(self, "E", E)

    @property
    def series_arg(self) -> complex:
        return self.base("C/q^3")


def _side(num, den, q, z, direction, vwp_a, fixed, policy,
          num_names=None, den_names=None):
    """Run one kernel direction and translate its status into errors. A
    nonzero vwp_a is the very-well-poised kernel parameter.

    Returns (acc, tail, used, terminated, peak); peak is the kernel's
    largest |term|.
    """
    try:
        acc, tail, used, status, bad_is_num, bad_slot, bad_exp, peak = \
            _K.series_side(tuple(num), tuple(den), q, z, direction, vwp_a,
                           vwp_a != 0, fixed, policy.tail_tol,
                           policy.max_terms, 0, POLE_EPS, ZERO_EPS,
                           RECOMPUTE_EVERY)
    except OverflowError:
        # a base whose modulus abs() refuses: its x q^m is out of range
        status = _K.DIVERGED
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


def _hump(peak: float, value: complex, policy, kind: str) -> None:
    """IllConditioned when the term hump max(1, peak) / |value|, inf when
    the value is 0, is over policy.hump_max. The hump is the factor by
    which term rounding is amplified in the value."""
    total = abs(value)
    hump = max(1.0, peak) / total if total else float("inf")
    if hump > policy.hump_max:
        raise IllConditioned(f"{kind} term hump {hump:.3g} exceeds hump_max "
                             f"{policy.hump_max:.3g}")


def _bilateral(num, den, q, z, vwp_a, fixed, policy, num_names=None,
               den_names=None):
    """Both index directions around the n = 0 term of a bilateral sum:
    (value, tail, used, terminated), the fields of its EvalResult. The term
    hump, over both directions' peak, is held to policy.hump_max."""
    up = _side(num, den, q, z, +1, vwp_a, fixed, policy, num_names,
               den_names)
    down = _side(num, den, q, z, -1, vwp_a, fixed, policy, num_names,
                 den_names)
    value = 1.0 + up[0] + down[0]
    _hump(max(up[4], down[4]), value, policy, "bilateral")
    return value, up[1] + down[1], up[2] + down[2] + 1, up[3] and down[3]


def _in_disk(z: complex, arg: str) -> complex:
    """z, the argument of a sum that arg names; NonConvergence when it is
    outside the open unit disk, where the sum diverges."""
    if abs(z) >= 1.0:
        raise NonConvergence(
            f"{arg} = {abs(z)} is outside the convergence disk")
    return z


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
                                  spec.z, 0j, -1, ctx.policy))


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
    den = tuple(a * ctx.q / b for b in num)
    return EvalResult(*_bilateral(num, den, ctx.q, z, a, -1, ctx.policy,
                                  num_names, den_names))


#: the rows of the window sum S_N in (A; B, C, D, E); its kernel parameter
#: is BDEq/A and its argument 1/Cq^2
_S_NUM = ("Bq", "Dq", "Eq", "BCDEq^2/A^2")
_S_DEN = ("DEq/A", "BEq/A", "BDq/A", "A/C")


def truncated_S(p: TruncParams) -> complex:
    """Symmetric window sum S_N over n = -N..N of the very-well-poised term

        (1 - (BDEq/A) q^{2n}) / (1 - BDEq/A)
        * (Bq, Dq, Eq, BCDEq^2/A^2;q)_n / (DEq/A, BEq/A, BDq/A, A/C;q)_n
        * (Cq^2)^{-n}.

    The sum is finite, so no truncation policy applies; vanishing numerator
    factors cut a direction short exactly, vanishing denominator factors
    raise PoleError naming the factor (A = C poles the n = 1 term already).
    """
    a = p.base("BDEq/A")
    if abs(1.0 - a) <= POLE_EPS * (1.0 + abs(a)):
        raise PoleError("window-sum kernel denominator 1 - BDEq/A vanishes",
                        factor="1 - BDEq/A")
    return _bilateral(p.bases(_S_NUM), p.bases(_S_DEN), p.q, p.series_arg, a,
                      p.N, DEFAULT_POLICY, _S_NUM, _S_DEN)[0]


#: the rows of T(X;C); the denominators' values are the very-well-poised
#: a q / b_i, a = BCDEX^2
_T_NUM = ("BCDEXq", "BXq", "DXq", "EXq")
_T_DEN = ("X", "CDEX", "BCEX", "BCDX")


def eval_T(p: TParams,
           policy: TruncationPolicy | None = None) -> EvalResult:
    """Bilateral T(X;C): the very-well-poised sum with kernel parameter
    BCDEX^2, parameter row (BCDEXq, BXq, DXq, EXq), and argument C/q^3.

    Convergence needs |C/q^3| < 1; outside that (including C = 0, where the
    negative-index terms blow up) NonConvergence is raised.
    """
    z = _in_disk(p.series_arg, "bilateral argument |C/q^3|")
    return vwp_psi6(p.base("BCDEX^2"), p.bases(_T_NUM), z,
                    QContext(p.q, policy or DEFAULT_POLICY), _T_NUM, _T_DEN)


def _ratio_inf(ctx: QContext, p: _Point, num, den) -> EvalResult:
    """Ratio of the infinite products over p's bases named in num and in
    den, from one kernel call; a vanishing denominator product raises
    PoleError naming it. Errors come in the order of taking num's
    products, then den's bases, then den's products, in turn."""
    top, err = _complex_row(p.bases(num))
    bot = []
    if err is None:
        try:
            bot, err = _complex_row(p.bases(den))
        except ZeroDivisionError as exc:
            err = exc
    return _inf_ratio(ctx, top, err, bot, den)


#: the rows of the rogers product, and of the collapsed T iteration, in the
#: TParams bases at X = q
_ROGERS_NUM = ("BCDEq^3", "BC/q", "CD/q", "CE/q")
_ROGERS_DEN = ("C/q^3", "BCDq", "BCEq", "CDEq")


def rogers_closed(B: complex, C: complex, D: complex, E: complex,
                  ctx: QContext) -> EvalResult:
    """Closed product for the unilateral very-well-poised sum at X = q:

        (BCDEq^3, BC/q, CD/q, CE/q;q)_inf / (C/q^3, BCDq, BCEq, CDEq;q)_inf.
    """
    # evaluated at any B, C, D, E, so on a point that TParams would refuse
    B, C, D, E = map(_as_complex, (B, C, D, E))
    p = _Unchecked(BASES=TParams.BASES, q=ctx.q, X=ctx.q, B=B, C=C, D=D, E=E)
    return _ratio_inf(ctx, p, _ROGERS_NUM, _ROGERS_DEN)


_BAILEY_NUM = ("q", "aq", "q/a", "aq/be", "aq/ce", "aq/de", "aq/bc", "aq/bd",
               "aq/cd")
_BAILEY_DEN = ("aq/b", "aq/c", "aq/d", "aq/e", "q/b", "q/c", "q/d", "q/e",
               "a^2q/bcde")


def bailey_closed_a(p: BaileyParams,
                    policy: TruncationPolicy | None = None) -> EvalResult:
    """Classical closed product for the bilateral sum in (a; b, c, d, e):

        (q, aq, q/a, aq/be, aq/ce, aq/de, aq/bc, aq/bd, aq/cd;q)_inf
        / (aq/b, aq/c, aq/d, aq/e, q/b, q/c, q/d, q/e, a^2 q/bcde;q)_inf.

    The identity against the bilateral sum needs |a^2 q/(bcde)| < 1; the
    product itself is evaluated for any nonzero parameters.
    """
    return _ratio_inf(QContext(p.q, policy or DEFAULT_POLICY), p,
                      _BAILEY_NUM, _BAILEY_DEN)


def _bailey_sum(p: BaileyParams, ctx: QContext) -> EvalResult:
    """The bilateral sum in (a; b, c, d, e) that bailey_closed_a closes,
    with argument a^2 q/(bcde); NonConvergence outside its disk. Its
    denominators are the closed product's first four."""
    z = _in_disk(p.series_arg, "bilateral argument |a^2 q/(bcde)|")
    num = ("b", "c", "d", "e")
    return vwp_psi6(p.a, p.bases(num), z, ctx, num, _BAILEY_DEN[:4])


#: the rows of q_factor and of F_function
_Q_NUM = ("q", "1/Bq", "1/Dq", "1/Eq")
_Q_DEN = ("X", "1/BX", "1/DX", "1/EX")
_F_NUM = ("BCDEX^2q", "q/BCDEX^2", "BC/q", "CD/q", "CE/q")
_F_DEN = ("1/BCDEX", "C/q^3", "BCDX", "BCEX", "CDEX")


def bailey_closed_X(p: TParams,
                    policy: TruncationPolicy | None = None) -> EvalResult:
    """Closed product for T(X;C) in the shifted parameter row, the
    q_factor rows followed by the F_function rows:

        (q, 1/Bq, 1/Dq, 1/Eq, BCDEX^2 q, q/BCDEX^2, BC/q, CD/q, CE/q;q)_inf
        / (X, 1/BX, 1/DX, 1/EX, 1/BCDEX, C/q^3, BCDX, BCEX, CDEX;q)_inf.
    """
    if p.C == 0:
        raise DomainError("C must be nonzero for the closed product")
    return _ratio_inf(QContext(p.q, policy or DEFAULT_POLICY), p,
                      _Q_NUM + _F_NUM, _Q_DEN + _F_DEN)


def q_factor(X: complex, B: complex, D: complex, E: complex,
             ctx: QContext) -> EvalResult:
    """C-independent ratio extracted from T(X;C):

        (q, 1/Bq, 1/Dq, 1/Eq;q)_inf / (X, 1/BX, 1/DX, 1/EX;q)_inf.

    Equals 1 exactly at X = q. No base of these rows reads C, so they are
    read from TParams at C = 0, whose checks raise DomainError for a zero
    X, B, D or E.
    """
    p = TParams(q=ctx.q, X=X, B=B, C=0j, D=D, E=E)
    return _ratio_inf(ctx, p, _Q_NUM, _Q_DEN)


def F_function(p: TParams,
               policy: TruncationPolicy | None = None) -> EvalResult:
    """C-dependent product complementing q_factor:

        (BCDEX^2 q, q/BCDEX^2, BC/q, CD/q, CE/q;q)_inf
        / (1/BCDEX, C/q^3, BCDX, BCEX, CDEX;q)_inf.

    T(X;C) / F(C) is independent of C on the convergence disk.
    """
    if p.C == 0:
        raise DomainError("C must be nonzero for F")
    return _ratio_inf(QContext(p.q, policy or DEFAULT_POLICY), p, _F_NUM,
                      _F_DEN)
