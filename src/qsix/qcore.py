"""Foundational q-arithmetic.

Difference products, q-shifted factorials for any integer index, certified
infinite q-products, and multiplicative theta functions. Everything downstream
(series evaluators, identity checks) is built on these.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Iterable, Sequence

from . import _backend as _K
from ._record import Record, set_field
from .errors import BudgetExceeded, DomainError, PoleError


def _as_complex(x) -> complex:
    """x as a complex; DomainError when it is not finite or its modulus
    overflows abs()."""
    z = complex(x)
    try:
        if abs(z) < math.inf:
            return z
    except OverflowError:
        raise DomainError(f"input {x!r}: modulus out of double "
                          f"range") from None
    raise DomainError(f"non-finite input {x!r}")


def _index(n, name: str) -> int:
    """n by operator.index; DomainError naming it when n is no integer,
    such as 2.5 or nan, which int() or range() would truncate or refuse
    with a TypeError."""
    try:
        return operator.index(n)
    except TypeError:
        raise DomainError(f"{name} must be an integer, got {n!r}") from None


class TruncationPolicy(Record):
    """Caps shared by every infinite sum and product.

    tail_tol
        for a walk, the magnitude below which a term counts toward
        stagnation; for an infinite product, the relative truncation
        error it is taken to.
    max_terms
        hard budget per one-sided sum, or per product's head of factors.
    hump_max
        cap on a series' term hump max(1, max |term|) / |sum|; a sum over
        it raises IllConditioned. Products are not capped.

    A walk is declared converged after STAGNATION_WINDOW consecutive
    satisfying terms; products do not use it.
    """

    tail_tol: float
    max_terms: int
    hump_max: float

    def __init__(self, tail_tol=1e-15, max_terms=10000, hump_max=math.inf):
        if not tail_tol > 0.0:
            raise DomainError("tail_tol must be positive")
        max_terms = _index(max_terms, "max_terms")
        if max_terms < 1:
            raise DomainError("max_terms must be >= 1")
        if not hump_max > 0.0:
            raise DomainError("hump_max must be positive")
        set_field(self, "tail_tol", tail_tol)
        set_field(self, "max_terms", max_terms)
        set_field(self, "hump_max", hump_max)


DEFAULT_POLICY = TruncationPolicy()


class QContext(Record):
    """Base q together with the truncation policy for dependent evaluations.

    Requires 0 < |q| < 1.
    """

    q: complex
    policy: TruncationPolicy

    def __init__(self, q, policy=DEFAULT_POLICY):
        q = _as_complex(q)
        if not 0.0 < abs(q) < 1.0:
            raise DomainError(f"|q| must lie in (0, 1), got |q| = {abs(q)}")
        set_field(self, "q", q)
        set_field(self, "policy", policy)


class EvalResult(Record):
    """Value of a truncated evaluation plus its accounting.

    est_error bounds the truncation error: of a sum under the
    geometric-tail assumption, of an infinite product (a;q)_inf by the
    tail bound of Euler's series. Rounding is not included. terminated is
    True when the result is exact (the sum or product ended on a
    vanishing factor rather than a tolerance).
    """

    value: complex
    est_error: float
    terms_used: int
    terminated: bool

    def __init__(self, value, est_error, terms_used, terminated):
        set_field(self, "value", value)
        set_field(self, "est_error", est_error)
        set_field(self, "terms_used", terms_used)
        set_field(self, "terminated", terminated)


def nabla(xs: Iterable[complex]) -> complex:
    """Difference product prod_i (1 - x_i) over a nonempty sequence.

    Examples
    --------
    >>> nabla([0.5])
    (0.5+0j)
    >>> nabla([0.5, 2.0, 3.0])
    (1-0j)
    >>> nabla([1.0, 7.3])
    (-0+0j)
    """
    vals = [_as_complex(x) for x in xs]
    if not vals:
        raise DomainError("nabla needs at least one argument")
    acc = 1.0 + 0j
    for x in vals:
        acc *= 1.0 - x
    return acc


def qpochhammer(a: complex, ctx: QContext, n: int) -> complex:
    """q-shifted factorial (a;q)_n for any integer n.

    For n > 0 this is the plain product (1-a)(1-aq)...(1-aq^{n-1}); n = 0
    gives 1; n < 0 divides out the factors (1 - a q^{-1})...(1 - a q^{n}),
    raising PoleError when one of them sits within POLE_EPS of zero, and
    DomainError when the value or an a q^{-k} leaves double range.

    Examples
    --------
    >>> ctx = QContext(0.5)
    >>> qpochhammer(0.5, ctx, 3)
    (0.328125+0j)
    >>> qpochhammer(0.25, ctx, -1)
    (2+0j)
    >>> qpochhammer(0.0, ctx, -5000)
    (1+0j)
    """
    return _sc_value(*_qpochhammer_sc(a, ctx, n))


def _qpochhammer_sc(a: complex, ctx: QContext, n: int):
    """(a;q)_n as the kernel's scale-tracked (m, e), before the conversion
    that may underflow it to 0; raises as qpochhammer does."""
    a = _as_complex(a)
    n = _index(n, "n")
    if a == 0:
        return 1.0 + 0j, 0
    m, e, status, _, k = _K.qpoch_sc((a,), ctx.q, n, False, 1.0 + 0j, 0)
    if status == _K.POLE:
        raise PoleError(
            f"(a;q)_{n} with a = {a}: factor 1 - a*q^({k}) vanishes",
            factor="1 - a*q^-k", exponent=k)
    if status == _K.DIVERGED:
        raise DomainError(
            f"(a;q)_{n} with a = {a}: a*q^({k}) or the product is out of "
            f"double range")
    return m, e


def _sc_value(m: complex, e: int) -> complex:
    """Value of the scale-tracked product m * 2^e."""
    try:
        return complex(math.ldexp(m.real, e), math.ldexp(m.imag, e))
    except OverflowError:
        raise DomainError(f"scaled q-product {m} * 2^{e} is out of double "
                          f"range") from None


def qpochhammer_multi(as_: Sequence[complex], ctx: QContext, n: int) -> complex:
    """prod_i (a_i;q)_n, the product convention used throughout."""
    acc = 1.0 + 0j
    for a in as_:
        acc *= qpochhammer(a, ctx, n)
    return acc


def qpochhammer_inf(a: complex, ctx: QContext) -> EvalResult:
    """Infinite product (a;q)_infinity with a truncation bound.

    The factors 1 - a q^k are taken while |a q^k| >= min(1/4, 1 - |q|),
    and the rest of the product by Euler's series, whose truncation
    est_error bounds within a relative tail_tol (see `qsix._kernels_py`).
    An exactly vanishing factor short-circuits to 0 with terminated=True;
    a = 0 returns 1 the same way. A product that leaves the normal double
    range raises DomainError, and one whose head takes more than
    max_terms factors BudgetExceeded.

    Examples
    --------
    >>> r = qpochhammer_inf(0.5, QContext(0.5))
    >>> round(abs(r.value), 9)
    0.288788095
    """
    val, est, terms, exact = _infs((a,), ctx)[0]
    return EvalResult(val, est, terms, bool(exact))


def _stop_error(status: int, a: complex, policy: TruncationPolicy):
    """The error of a product (a;q)_inf that stopped with the kernel
    status BUDGET or DIVERGED."""
    if status == _K.BUDGET:
        return BudgetExceeded(
            f"(a;q)_inf with a = {a}: the head takes more than "
            f"{policy.max_terms} factors")
    return DomainError(
        f"(a;q)_inf with a = {a}: the product is out of double range")


def _complex_row(xs) -> tuple:
    """(row, err): xs through _as_complex up to the first that it refuses,
    and that refusal's DomainError, or None when there is none."""
    row = []
    try:
        for x in xs:
            row.append(_as_complex(x))
    except DomainError as exc:
        return row, exc
    return row, None


def _inf_row(ctx: QContext, row: list) -> tuple:
    """(results, stop): the raw (value, est_error, terms, terminated) of
    (x;q)_inf for each complex x of row, from one kernel call, up to the
    first product that stops, and that product's error, or None.

    A caller raises the error after its own tests on the results, and an
    error of an input after the row only when no product stopped, so that
    every error comes in the order of the row, as when each product is
    taken in turn."""
    p = ctx.policy
    out, status, slot = _K.qpoch_inf_row(row, ctx.q, p.tail_tol, p.max_terms)
    if status != _K.OK:
        return out, _stop_error(status, row[slot], p)
    return out, None


def _infs(xs, ctx: QContext) -> list:
    """The raw (x;q)_inf of each x of xs, from one kernel row; the first
    error, in the order of taking each product in turn, is raised."""
    row, err = _complex_row(xs)
    out, stop = _inf_row(ctx, row)
    err = stop or err
    if err is not None:
        raise err
    return out


#: the empty product, where `_fold` starts
_ONE = (1.0 + 0j, 0.0, 0, True)


def _fold(results, acc: tuple = _ONE) -> tuple:
    """acc times each raw product (value, est_error, terms, terminated) of
    results in turn: the values multiply, the error bounds compose to
    first order plus their product, the terms add, and the result is
    exact when both sides are or its value is 0."""
    v, e, t, x = acc
    for rv, re, rt, rx in results:
        e = abs(v) * re + abs(rv) * e + e * re
        v = v * rv
        t += rt
        x = bool(x and rx) or v == 0
    return v, e, t, x


def qpochhammer_inf_multi(as_: Sequence[complex], ctx: QContext) -> EvalResult:
    """prod_i (a_i;q)_infinity with composed error bound."""
    return EvalResult(*_fold(_infs(as_, ctx)))


def theta(x: complex, ctx: QContext) -> EvalResult:
    """Multiplicative theta function (x;q)_inf (q/x;q)_inf.

    Satisfies the inversion symmetry theta(x) = theta(q/x) and vanishes
    exactly at x in {q^k : k integer}. x must be nonzero.
    """
    return EvalResult(*_thetas((x,), ctx)[0])


def theta_multi(xs: Sequence[complex], ctx: QContext) -> EvalResult:
    """prod_i theta(x_i; q)."""
    return EvalResult(*_fold(_thetas(xs, ctx)))


def _thetas(xs, ctx: QContext) -> list:
    """theta(x) for each x of xs as a raw result: (x;q)_inf times
    (q/x;q)_inf, all from one kernel row."""
    out = _infs(_theta_bases(xs, ctx.q), ctx)
    return [_fold((out[i + 1],), out[i]) for i in range(0, len(out), 2)]


def _theta_bases(xs, q: complex):
    """x and q/x for each x of xs in turn, x through _as_complex; a zero x
    raises DomainError in its place."""
    for x in xs:
        x = _as_complex(x)
        if x == 0:
            raise DomainError("theta requires x != 0")
        yield x
        yield q / x
