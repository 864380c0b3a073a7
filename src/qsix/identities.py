"""Residual checks for the identity chain.

Every check evaluates both sides of one identity independently and returns a
ResidualReport; nothing is simplified across the equals sign. Denominator
factors are evaluated position-aware so that a vanishing factor raises
PoleError naming the factor, while vanishing numerator factors produce exact
zeros.
"""

from __future__ import annotations

import cmath
import math
import sys
from collections.abc import Mapping

from . import _backend as _K
from ._record import Record, set_field
from .config import POLE_EPS
from .errors import DomainError, PoleError
from .qcore import DEFAULT_POLICY, QContext, TruncationPolicy, _as_complex, \
    _index, _sc_value, nabla, qpochhammer_inf_multi, theta_multi
from .series import _bailey_sum, _in_disk, _ROGERS_DEN, _ROGERS_NUM, \
    _S_DEN, _S_NUM, BaileyParams, SeriesSpec, TParams, TruncParams, \
    bailey_closed_a, bailey_closed_X, eval_phi, eval_T, F_function, q_factor, \
    rogers_closed, truncated_S

DEFAULT_ATOL = 1e-12

#: per-identity default relative tolerances
DEFAULT_RTOL = {
    "abel": 1e-13,
    "weierstrass": 1e-14,
    "weierstrass-theta": 1e-10,
    "udiff": 1e-12,
    "vdiff": 1e-12,
    "recurrence": 1e-9,
    "kn-decay": 1e-6,
    "t-recursion": 1e-8,
    "t-iteration": 1e-7,
    "rogers": 1e-8,
    "q-constancy": 1e-8,
    "bailey-a": 1e-7,
    "bailey-x": 1e-7,
    "remark1": 1e-10,
}

_TINY = 1e-300

#: logs of 2 and of the largest double
_LOG_2 = math.log(2.0)
_LOG_MAX = math.log(sys.float_info.max)

#: relative tolerance on the remark-1 series-argument match
_REMARK1_ARG_RTOL = 1e-15


class ResidualReport(Record):
    """Two independently computed sides and their disagreement.

    passed is abs_err <= atol + rtol * max(|lhs|, |rhs|); rel_err divides by
    the same scale floored at 1e-300.
    """

    lhs: complex
    rhs: complex
    abs_err: float
    rel_err: float
    passed: bool
    note: str

    def __init__(self, lhs, rhs, abs_err, rel_err, passed, note=""):
        set_field(self, "lhs", lhs)
        set_field(self, "rhs", rhs)
        set_field(self, "abs_err", abs_err)
        set_field(self, "rel_err", rel_err)
        set_field(self, "passed", passed)
        set_field(self, "note", note)


def _report(lhs: complex, rhs: complex, atol: float, rtol: float,
            note: str = "", extra_ok: bool = True) -> ResidualReport:
    abs_err = abs(lhs - rhs)
    scale = max(abs(lhs), abs(rhs))
    rel_err = abs_err / max(scale, _TINY)
    passed = (abs_err <= atol + rtol * scale) and extra_ok
    return ResidualReport(lhs, rhs, abs_err, rel_err, passed, note)


def _nabla_den(pairs) -> complex:
    """Difference product in denominator position; named PoleError."""
    acc = 1.0 + 0j
    for name, x in pairs:
        f = 1.0 - x
        if abs(f) <= POLE_EPS * (1.0 + abs(x)):
            raise PoleError(f"factor 1 - {name} vanishes", factor=name)
        acc *= f
    return acc


def _poch_sc(pairs, q: complex, n: int, invert: bool, m: complex, e: int):
    """The kernel's `qpoch_sc` on (name, x) pairs: a vanishing dividing
    factor raises PoleError naming it, and an x q^j or a product out of
    double range raises DomainError."""
    m, e, status, slot, k = _K.qpoch_sc(tuple(x for _, x in pairs), q, n,
                                        invert, m, e)
    if status != _K.OK:
        _sc_stop(status, pairs[slot][0], k)
    return m, e


def _sc_stop(status: int, name: str, k: int):
    """Raise for a scale-tracked product stopped at factor 1 - (name) q^k."""
    if status == _K.POLE:
        raise PoleError(f"factor 1 - ({name})*q^({k}) vanishes",
                        factor=name, exponent=k)
    raise DomainError(f"scaled q-product left double range at factor "
                      f"1 - ({name})*q^({k})")


def _pow_sc(z: complex, count: int, m: complex, e: int):
    """Multiply z**count onto a scale-tracked product, factor by factor."""
    m, e, status = _K.pow_sc(z, count, m, e)
    if status == _K.DIVERGED:
        raise DomainError("scaled q-product left double range")
    return m, e


def _poch_num(pairs, q: complex, n: int) -> complex:
    return _sc_value(*_poch_sc(pairs, q, n, False, 1.0 + 0j, 0))


def _poch_den_inv(pairs, q: complex, n: int) -> complex:
    return _sc_value(*_poch_sc(pairs, q, n, True, 1.0 + 0j, 0))


# ---------------------------------------------------------------------------
# summation by parts

class AbelInput(Record):
    """Finite bilateral sequences for the summation-by-parts identity.

    U must cover indices -M..N+1 exactly, V must cover -M..N exactly.
    """

    U: Mapping[int, complex]
    V: Mapping[int, complex]
    M: int
    N: int

    def __init__(self, U, V, M, N):
        M, N = _index(M, "M"), _index(N, "N")
        if M < 0 or N < 0:
            raise DomainError("window bounds M, N must be >= 0")
        if set(U) != set(range(-M, N + 2)):
            raise DomainError("U must cover exactly the indices -M..N+1")
        if set(V) != set(range(-M, N + 1)):
            raise DomainError("V must cover exactly the indices -M..N")
        set_field(self, "U", U)
        set_field(self, "V", V)
        set_field(self, "M", M)
        set_field(self, "N", N)


def check_abel(inp: AbelInput, atol: float = DEFAULT_ATOL,
               rtol: float = DEFAULT_RTOL["abel"]) -> ResidualReport:
    """Summation by parts over the window -M..N:

    sum V_n (U_n - U_{n+1}) = V_{-M} U_{-M} - V_N U_{N+1}
                              + sum_{n=-M+1}^{N} U_n (V_n - V_{n-1}).
    """
    U, V, M, N = inp.U, inp.V, inp.M, inp.N
    lhs = sum(V[n] * (U[n] - U[n + 1]) for n in range(-M, N + 1))
    rhs = V[-M] * U[-M] - V[N] * U[N + 1] + sum(
        U[n] * (V[n] - V[n - 1]) for n in range(-M + 1, N + 1))
    return _report(lhs, rhs, atol, rtol)


# ---------------------------------------------------------------------------
# three-term product difference (plain and theta form)

def check_weierstrass(b: complex, c: complex, x: complex, z: complex,
                      ctx: QContext | None = None,
                      atol: float = DEFAULT_ATOL,
                      rtol: float | None = None) -> ResidualReport:
    """Three-term difference identity

        f(cx) f(x/c) f(bz) f(z/b) - f(bx) f(x/b) f(cz) f(z/c)
            = (z/c) f(bc) f(c/b) f(xz) f(x/z)

    with f = (1 - .) in the plain form and f = theta(.;q) in the theta
    form, which is used exactly when a context is given. Requires b, c,
    z != 0; the theta form also needs x != 0.
    """
    b, c, x, z = map(_as_complex, (b, c, x, z))
    if 0 in (b, c, z):
        raise DomainError("b, c, z must be nonzero")
    if rtol is None:
        rtol = DEFAULT_RTOL["weierstrass" if ctx is None
                            else "weierstrass-theta"]
    first = (c * x, x / c, b * z, z / b)
    second = (b * x, x / b, c * z, z / c)
    third = (b * c, c / b, x * z, x / z)
    if ctx is None:
        lhs = nabla(first) - nabla(second)
        rhs = (z / c) * nabla(third)
        return _report(lhs, rhs, atol, rtol)
    if x == 0:
        raise DomainError("theta form needs x != 0")
    t1 = theta_multi(first, ctx)
    t2 = theta_multi(second, ctx)
    t3 = theta_multi(third, ctx)
    lhs = t1.value - t2.value
    rhs = (z / c) * t3.value
    est = t1.est_error + t2.est_error + abs(z / c) * t3.est_error
    return _report(lhs, rhs, atol, rtol,
                   note=f"combined tail bound {est:.3e}")


# ---------------------------------------------------------------------------
# the two sequences entering summation by parts, and their step differences

#: the numerator and denominator rows of U_n and of V_n
_U_NUM = ("Bq", "Dq", "Eq", "BDE/A^2q")
_U_DEN = ("BD/A", "BE/A", "DE/A", "Aq^2")
_V_NUM, _V_DEN = ("Aq^2", "BCDEq/A^2"), ("A/Cq", "BDE/A^2q^2")


def compute_U(n: int, p: TruncParams) -> complex:
    """U_n = (Bq, Dq, Eq, BDE/A^2 q;q)_n / (BD/A, BE/A, DE/A, Aq^2;q)_n,
    as one scale-tracked product: at deep |n| the two halves leave double
    range while their ratio stays in it."""
    n = _index(n, "n")
    m, e = _poch_sc(p.pairs(_U_NUM), p.q, n, False, 1.0 + 0j, 0)
    return _sc_value(*_poch_sc(p.pairs(_U_DEN), p.q, n, True, m, e))


def compute_V(n: int, p: TruncParams) -> complex:
    """V_n = (Aq^2, BCDEq/A^2;q)_{n+1} / (A/Cq, BDE/A^2q^2;q)_{n+1}
    * (Cq^3)^{-n}, as one scale-tracked product."""
    n = _index(n, "n")
    m, e = _poch_sc(p.pairs(_V_NUM), p.q, n + 1, False, 1.0 + 0j, 0)
    m, e = _poch_sc(p.pairs(_V_DEN), p.q, n + 1, True, m, e)
    return _sc_value(*_pow_sc(p.base("Cq^3"), -n, m, e))


def check_U_difference(n: int, p: TruncParams, atol: float = DEFAULT_ATOL,
                       rtol: float = DEFAULT_RTOL["udiff"]) -> ResidualReport:
    """U_n - U_{n+1} against its closed single-term form, whose prefactor
    divides by D and E (the bases Aq/D and Aq/E)."""
    q, A, B, D, E = p.q, p.A, p.B, p.D, p.E
    if 0 in (D, E):
        raise DomainError("D and E must be nonzero: the closed form divides "
                          "by them")
    lhs = compute_U(n, p) - compute_U(n + 1, p)
    pref = -p.base("DE/A") * _K.cpow_int(q, n) * nabla(
        p.bases(("B/Aq", "Aq/D", "Aq/E")))
    kern = 1.0 - B * D * E * _K.cpow_int(q, 2 * n + 1) / A
    rhs = (pref * kern * _poch_num(p.pairs(_U_NUM), q, n)
           * _poch_den_inv(p.pairs(_U_DEN), q, n + 1))
    return _report(lhs, rhs, atol, rtol)


def check_V_difference(n: int, p: TruncParams, atol: float = DEFAULT_ATOL,
                       rtol: float = DEFAULT_RTOL["vdiff"]) -> ResidualReport:
    """V_n - V_{n-1} against its closed single-term form."""
    q, A, B, D, E = p.q, p.A, p.B, p.D, p.E
    cq3 = p.base("Cq^3")
    lhs = compute_V(n, p) - compute_V(n - 1, p)
    kern = (1.0 - B * D * E * _K.cpow_int(q, 2 * n) / A) * (1.0 - cq3)
    rhs = (_poch_num(p.pairs(_V_NUM), q, n)
           * _poch_den_inv(p.pairs(_V_DEN), q, n + 1)
           * kern * _K.cpow_int(1.0 / cq3, n))
    return _report(lhs, rhs, atol, rtol)


# ---------------------------------------------------------------------------
# boundary term K_N, recurrence, decay

def _coefficient(p: TruncParams, top: tuple, bot: tuple) -> complex:
    """(A^2 q/BDE) nabla(top) / nabla(bot) over the named bases of p; a
    vanishing factor of bot raises PoleError naming it."""
    return ((p.A * p.A * p.q / (p.B * p.D * p.E)) * nabla(p.bases(top))
            / _nabla_den(p.pairs(bot)))


def _kn_coefficient(p: TruncParams) -> complex:
    """Shared prefactor (A^2 q/BDE) nabla(A/Cq, BD/A, BE/A, DE/A,
    BDE/A^2q^2) / nabla(Aq/B, Aq/D, Aq/E, BCDEq/A^2, BDEq/A)."""
    return _coefficient(p, ("A/Cq", "BD/A", "BE/A", "DE/A", "BDE/A^2q^2"),
                        ("Aq/B", "Aq/D", "Aq/E", "BCDEq/A^2", "BDEq/A"))


def _require_bde(p: TruncParams) -> None:
    if 0 in (p.B, p.D, p.E):
        raise DomainError("B, D, E must be nonzero here")


#: the rows of the window correction K3, taken to index N+1: those of S_N,
#: the denominators in reverse
_K3_NUM, _K3_DEN = _S_NUM, _S_DEN[::-1]


def compute_KN(p: TruncParams) -> complex:
    """Boundary term K_N at N = p.N, the last entry of `kn_trace(p, p.N)`:
    K_N = K1 - K2 + K3 * q^{N-2}/C with K1/K2 the two evaluated boundary
    products V U at -N-1 and (N, N+1) times the shared coefficient and
    (Cq^3)^N, and K3 the off-by-one window correction term, assembled in
    the kernel from scale-tracked pieces that grow superexponentially in N
    while K_N itself stays bounded."""
    return kn_trace(p, p.N)[-1]


def kn_trace(p: TruncParams, N_max: int) -> list:
    """K_N for N = 0..N_max from one `kn_trace_sc` call; p.N is not read.

    The kernel carries each product of K_N from N to N+1 and assembles
    each K_N as it goes, so the call costs O(N_max) factors; compute_KN is
    its last entry, bit for bit. A vanishing dividing factor raises
    PoleError naming it and its exponent, at the first N whose K_N
    contains it; a product or a piece of K_N out of double range raises
    DomainError. The (Aq^2;q) pair shared by V's numerator and U's
    denominator cancels outright in V_N U_{N+1} and collapses to the
    leading factor 1 - Aq^{1-N} in V_{-N-1} U_{-N-1}, where the separate
    sequences have a removable 0*inf; so neither row carries it.
    """
    N_max = _index(N_max, "N_max")
    if N_max < 0:
        raise DomainError("N_max must be >= 0")
    _require_bde(p)
    coeff = _kn_coefficient(p)
    rows = (_V_NUM[1:], _V_DEN, _U_NUM, _U_DEN[:-1], _K3_NUM, _K3_DEN)
    kns, status, row, slot, k = _K.kn_trace_sc(
        *map(p.bases, rows), p.q, p.A, p.C, p.base("Cq^3"),
        p.B * p.D * p.E, _nabla_den(p.pairs(("BDEq/A",))), coeff, N_max)
    if status == _K.OK:
        return kns
    if row == _K.ROW_VALUE:
        _sc_value(slot, k)  # raises the DomainError naming m * 2^e
    if row < 0:
        raise DomainError("scaled q-product left double range")
    _sc_stop(status, rows[row][slot], k)


def compute_KN_printed(p: TruncParams) -> complex:
    """K_N in its fully displayed three-summand form: an independent
    cross-check of compute_KN, whose K_N the kernel `kn_trace_sc`
    assembles from scale-tracked pieces."""
    _require_bde(p)
    q, A, B, C, D, E, N = p.q, p.A, p.B, p.C, p.D, p.E, p.N
    s1 = (_K.cpow_int(q, N - 2)
          * (1.0 - B * D * E * _K.cpow_int(q, 2 * N + 3) / A)
          * _poch_num((("Bq", B * q), ("Dq", D * q), ("Eq", E * q),
                       ("BCDEq^2/A^2", B * C * D * E * q * q / (A * A))),
                      q, N + 1)
          / (C * _nabla_den((("BDEq/A", B * D * E * q / A),)))
          * _poch_den_inv((("A/C", A / C), ("BDq/A", B * D * q / A),
                           ("BEq/A", B * E * q / A),
                           ("DEq/A", D * E * q / A)), q, N + 1))
    s2 = (B * D * E * (1.0 - _K.cpow_int(q, N - 1) / A)
          * _poch_num((("A/BD", A / (B * D)), ("A/BE", A / (B * E)),
                       ("A/DE", A / (D * E)), ("C/A", C / A)), q, N + 2)
          / (C * _nabla_den((("C/A", C / A), ("Aq/B", A * q / B),
                             ("Aq/D", A * q / D), ("Aq/E", A * q / E),
                             ("BDEq/A", B * D * E * q / A))))
          * _poch_den_inv((("1/B", 1.0 / B), ("1/D", 1.0 / D),
                           ("1/E", 1.0 / E),
                           ("A^2/BCDEq", A * A / (B * C * D * E * q))),
                          q, N + 1))
    s3 = ((A * A * q / (B * D * E))
          * nabla((B * q, D * q, E * q,
                   B * D * E * _K.cpow_int(q, N - 1) / (A * A)))
          * _poch_num((("BCDEq^2/A^2", B * C * D * E * q * q / (A * A)),
                       ("Bq^2", B * q * q), ("Dq^2", D * q * q),
                       ("Eq^2", E * q * q)), q, N)
          / _nabla_den((("Aq/B", A * q / B), ("Aq/D", A * q / D),
                        ("Aq/E", A * q / E),
                        ("BDEq/A", B * D * E * q / A)))
          * _poch_den_inv((("A/C", A / C), ("BDq/A", B * D * q / A),
                           ("BEq/A", B * E * q / A),
                           ("DEq/A", D * E * q / A)), q, N))
    return s1 + s2 - s3


def check_recurrence(p: TruncParams, atol: float = DEFAULT_ATOL,
                     rtol: float = DEFAULT_RTOL["recurrence"]) \
        -> ResidualReport:
    """Window-growth recurrence

        S_{N+1}(A;C) = K_N / (Cq^3)^N
            + (A^2 q/BDE) nabla(BDE/A, Cq^3, BD/A, BE/A, DE/A)
              / nabla(BDEq/A, BCDEq/A^2, Aq/B, Aq/D, Aq/E)
              * S_N(Aq;Cq).

    p.N names the window of the right-hand side; the left side evaluates at
    N+1 with the same (A, C).
    """
    return _recurrence(p, None, atol, rtol)


def _recurrence(p: TruncParams, kn, atol: float = DEFAULT_ATOL,
                rtol: float = DEFAULT_RTOL["recurrence"]) -> ResidualReport:
    """check_recurrence with K_N given, or computed in its turn if None."""
    _require_bde(p)
    q, N = p.q, p.N
    lhs = truncated_S(p.replace(N=N + 1))
    coeff = _coefficient(p, ("BDE/A", "Cq^3", "BD/A", "BE/A", "DE/A"),
                         ("BDEq/A", "BCDEq/A^2", "Aq/B", "Aq/D", "Aq/E"))
    shifted = p.replace(A=p.A * q, C=p.C * q)
    kn = compute_KN(p) if kn is None else kn
    rhs = (kn * _K.cpow_int(p.base("Cq^3"), -N)
           + coeff * truncated_S(shifted))
    return _report(lhs, rhs, atol, rtol)


class KNDecayReport(Record):
    """Magnitude trace of K_N/(Cq^3)^N together with the closed limit."""

    magnitudes: tuple
    final_magnitude: float
    kn_at_nmax: complex
    limit: complex
    limit_rel_err: float
    eventually_decreasing: bool
    passed: bool
    note: str

    def __init__(self, magnitudes, final_magnitude, kn_at_nmax, limit,
                 limit_rel_err, eventually_decreasing, passed, note=""):
        set_field(self, "magnitudes", magnitudes)
        set_field(self, "final_magnitude", final_magnitude)
        set_field(self, "kn_at_nmax", kn_at_nmax)
        set_field(self, "limit", limit)
        set_field(self, "limit_rel_err", limit_rel_err)
        set_field(self, "eventually_decreasing", eventually_decreasing)
        set_field(self, "passed", passed)
        set_field(self, "note", note)


def kn_limit(p: TruncParams, policy: TruncationPolicy | None = None) -> complex:
    """Closed N -> infinity value of K_N as a theta-product ratio."""
    _require_bde(p)
    q, A, B, C, D, E = p.q, p.A, p.B, p.C, p.D, p.E
    ctx = QContext(q, policy or DEFAULT_POLICY)
    pref = (B * D * E
            / (C * _nabla_den(p.pairs(("Aq/B", "Aq/D", "Aq/E", "BDEq/A")))))
    th1 = theta_multi(p.bases(("A/BD", "A/BE", "A/DE", "A/C")), ctx)
    th2_row = ("1/B", "1/D", "1/E", "A^2/BCDEq")
    th2 = theta_multi(p.bases(th2_row), ctx)
    # (x;q)_inf over th2's row, then K3's denominators
    bot_row = th2_row + _K3_DEN
    bot = qpochhammer_inf_multi(p.bases(bot_row), ctx)
    if bot.value == 0:
        raise PoleError("limit denominator product vanishes",
                        factor=f"({','.join(bot_row)};q)_inf")
    scale = A * A * C * q / (B * D * E) ** 2
    return pref * (th1.value - scale * th2.value) / bot.value


def _decay_magnitude(kn: complex, base: float, N: int) -> float:
    """|kn| / base**N; taken in logs where base**N or |kn| leaves double
    range, so it comes out as 0.0 or inf only where the quotient itself
    leaves that range."""
    try:
        return abs(kn) / base ** N
    except (OverflowError, ZeroDivisionError):
        pass
    half = math.hypot(0.5 * kn.real, 0.5 * kn.imag)
    if not 0.0 < half < math.inf:
        return half
    log = math.log(half) + _LOG_2 - N * math.log(base)
    return math.exp(log) if log <= _LOG_MAX else math.inf


def check_KN_decay(p: TruncParams, N_max: int = 80, tol: float =
                   DEFAULT_RTOL["kn-decay"],
                   policy: TruncationPolicy | None = None) -> KNDecayReport:
    """Trace |K_N/(Cq^3)^N| for N = 0..N_max and compare K_{N_max} with the
    closed limit.

    Precondition |Cq^2| > 1; the trace actually dies out only when
    |Cq^3| > 1 (K_N tends to a finite, generically nonzero limit). passed
    requires the final magnitude within tol * max(1, |limit|), monotone
    decrease over the last quarter of indices, and K_{N_max} within
    relative tol of the limit. The magnitude bound scales with the limit
    as `_report` scales its tolerance: the trace tends to
    |limit| / |Cq^3|^N, so an absolute bound fails draws whose limit is
    large.
    """
    if abs(p.C * p.q * p.q) <= 1.0:
        raise DomainError("decay check needs |Cq^2| > 1")
    N_max = _index(N_max, "N_max")
    if N_max < 4:
        raise DomainError("N_max too small to judge decay")
    base = abs(p.base("Cq^3"))
    kns = kn_trace(p, N_max)
    mags = [_decay_magnitude(kn, base, N) for N, kn in enumerate(kns)]
    kn = kns[-1]
    lim = kn_limit(p, policy)
    scale = max(abs(kn), abs(lim))
    rel = abs(kn - lim) / max(scale, _TINY)
    q3 = 3 * N_max // 4
    decreasing = all(mags[k + 1] <= mags[k] * (1.0 + 1e-9)
                     for k in range(q3, N_max))
    passed = (mags[-1] <= tol * max(1.0, abs(lim)) and decreasing
              and rel <= tol)
    return KNDecayReport(tuple(mags), mags[-1], kn, lim, rel, decreasing,
                         passed,
                         note=f"|Cq^3| = {base:.6g}")


# ---------------------------------------------------------------------------
# T(X;C): one-step recursion, iterated steps, constancy of T/F

def check_T_recursion(p: TParams, policy: TruncationPolicy | None = None,
                      atol: float = DEFAULT_ATOL,
                      rtol: float = DEFAULT_RTOL["t-recursion"]) \
        -> ResidualReport:
    """One step of the argument shift C -> Cq:

        T(X;C) = nabla(1/BCDEXq, BCDEX^2 q, BC/q, CD/q, CE/q)
                 / nabla(1/BCDEX^2, C/q^3, BCDX, BCEX, CDEX) * T(X;Cq).
    """
    C = p.C
    if C == 0:
        raise DomainError("C must be nonzero")
    top = nabla(p.bases(("1/BCDEXq", "BCDEX^2q", "BC/q", "CD/q", "CE/q")))
    bot = _nabla_den(p.pairs(("1/BCDEX^2", "C/q^3", "BCDX", "BCEX", "CDEX")))
    # the deeper scaling is the likelier to raise IllConditioned under a
    # capped policy, so it is walked first
    rhs = eval_T(p.replace(C=C * p.q), policy)
    lhs = eval_T(p, policy)
    value = (top / bot) * rhs.value
    est = lhs.est_error + abs(top / bot) * rhs.est_error
    return _report(lhs.value, value, atol, rtol,
                   note=f"combined tail bound {est:.3e}")


def check_T_iteration(p: TParams, m: int,
                      policy: TruncationPolicy | None = None,
                      atol: float = DEFAULT_ATOL,
                      rtol: float = DEFAULT_RTOL["t-iteration"]) \
        -> ResidualReport:
    """m collapsed recursion steps at X = q:

        T(q;C) = (BCDEq^3, BC/q, CD/q, CE/q;q)_m
                 / (C/q^3, BCDq, BCEq, CDEq;q)_m * T(q;Cq^m).
    """
    q, C = p.q, p.C
    if p.X != q:
        raise DomainError("the collapsed iteration holds at X = q only")
    if C == 0:
        raise DomainError("C must be nonzero")
    m = _index(m, "m")
    if m < 1:
        raise DomainError("m must be >= 1")
    pref = (_poch_num(p.pairs(_ROGERS_NUM), q, m)
            * _poch_den_inv(p.pairs(_ROGERS_DEN), q, m))
    lhs = eval_T(p, policy)
    rhs = eval_T(p.replace(C=C * _K.cpow_int(q, m)), policy)
    return _report(lhs.value, pref * rhs.value, atol, rtol)


def check_Q_constancy(p: TParams, steps: int = 4,
                      policy: TruncationPolicy | None = None,
                      atol: float = DEFAULT_ATOL,
                      rtol: float = DEFAULT_RTOL["q-constancy"]) \
        -> ResidualReport:
    """Constancy of T(X;C)/F(C) under C -> Cq^k, k = 0..steps, plus
    agreement of the constant with the closed q_factor ratio.

    lhs/rhs are the max/min-modulus ratios; abs_err is the worst pairwise
    spread.

    Each scaling C q^k is built just before its walk, k = steps down to 0,
    and before any product: the deep scalings are where the sum collapses,
    so a capped policy refuses an ill-conditioned draw at its first walk.
    """
    steps = _index(steps, "steps")
    if steps < 1:
        raise DomainError("steps must be >= 1")
    if p.C == 0:
        raise DomainError("C must be nonzero")
    walked = []
    for k in range(steps, -1, -1):
        pk = p.replace(C=p.C * _K.cpow_int(p.q, k))
        walked.append((pk, eval_T(pk, policy)))
    ratios = []
    for pk, t in reversed(walked):
        f = F_function(pk, policy)
        if f.value == 0:
            raise PoleError("F vanished under scaling", factor="F(Cq^k)")
        ratios.append(t.value / f.value)
    spread = max(abs(r1 - r2) for r1 in ratios for r2 in ratios)
    scale = max(abs(r) for r in ratios)
    hi = max(ratios, key=abs)
    lo = min(ratios, key=abs)
    qf = q_factor(p.X, p.B, p.D, p.E, QContext(p.q, policy or DEFAULT_POLICY))
    qf_err = abs(ratios[0] - qf.value)
    qf_ok = qf_err <= atol + rtol * max(abs(ratios[0]), abs(qf.value))
    passed = (spread <= atol + rtol * scale) and qf_ok
    return ResidualReport(hi, lo, spread, spread / max(scale, _TINY), passed,
                          note=(f"spread {spread:.3e} over {steps + 1} "
                                f"scalings; |r0 - q_factor| = {qf_err:.3e}"))


# ---------------------------------------------------------------------------
# closed-form endpoints

def check_rogers(B: complex, C: complex, D: complex, E: complex,
                 ctx: QContext, atol: float = DEFAULT_ATOL,
                 rtol: float = DEFAULT_RTOL["rogers"]) -> ResidualReport:
    """Unilateral very-well-poised sum against its closed product.

    lhs is the explicit unilateral series with kernel parameter BCDEq^2 and
    argument C/q^3 (the X = q endpoint), rhs the closed four-over-four
    product ratio. Needs |C/q^3| < 1; B, D, E nonzero.
    """
    q = ctx.q
    B, C, D, E = map(_as_complex, (B, C, D, E))
    if 0 in (B, D, E):
        raise DomainError("B, D, E must be nonzero")
    at_q = TParams(q=q, X=q, B=B, C=C, D=D, E=E)
    z = _in_disk(at_q.series_arg, "unilateral argument |C/q^3|")
    a = at_q.base("BCDEX^2")
    s = cmath.sqrt(a)
    spec = SeriesSpec(
        (a, q * s, -q * s, *at_q.bases(("BXq", "DXq", "EXq"))),
        (s, -s, *at_q.bases(("CDEq", "BCEq", "BCDq"))),
        z)
    lhs = eval_phi(spec, ctx)
    rhs = rogers_closed(B, C, D, E, ctx)
    return _report(lhs.value, rhs.value, atol, rtol,
                   note=f"combined tail bound "
                        f"{lhs.est_error + rhs.est_error:.3e}")


def check_bailey(form: str, params, policy: TruncationPolicy | None = None,
                 atol: float = DEFAULT_ATOL,
                 rtol: float | None = None) -> ResidualReport:
    """Bilateral sum against its closed product, in either parameter row.

    form "a": params is BaileyParams, series in (a; b, c, d, e) with
    argument a^2 q/(bcde). form "X": params is TParams, series T(X;C) with
    argument C/q^3.
    """
    if form == "a":
        p: BaileyParams = params
        if rtol is None:
            rtol = DEFAULT_RTOL["bailey-a"]
        lhs = _bailey_sum(p, QContext(p.q, policy or DEFAULT_POLICY))
        rhs = bailey_closed_a(p, policy)
    elif form == "X":
        t: TParams = params
        if rtol is None:
            rtol = DEFAULT_RTOL["bailey-x"]
        lhs = eval_T(t, policy)
        rhs = bailey_closed_X(t, policy)
    else:
        raise DomainError(f"unknown form {form!r}; use 'a' or 'X'")
    return _report(lhs.value, rhs.value, atol, rtol,
                   note=f"combined tail bound "
                        f"{lhs.est_error + rhs.est_error:.3e}")


def map_remark1(p: BaileyParams) -> TParams:
    """Parameter bridge from the (a; b, c, d, e) row to the (X; B, C, D, E)
    row: X = aq/b, B = bc/aq^2, C = a^2 q^4/bcde, D = bd/aq^2, E = be/aq^2."""
    q, a, b, c, d, e = p.q, p.a, p.b, p.c, p.d, p.e
    aq2 = a * q * q
    return TParams(q=q, X=p.base("aq/b"), B=b * c / aq2,
                   C=a * a * q ** 4 / (b * c * d * e), D=b * d / aq2,
                   E=b * e / aq2)


def check_remark1_equivalence(p: BaileyParams,
                              policy: TruncationPolicy | None = None,
                              atol: float = DEFAULT_ATOL,
                              rtol: float = DEFAULT_RTOL["remark1"]) \
        -> ResidualReport:
    """The bridge map must carry one closed product onto the other and make
    the two series arguments coincide: C/q^3 = a^2 q/(bcde)."""
    t = map_remark1(p)
    lhs = bailey_closed_a(p, policy)
    rhs = bailey_closed_X(t, policy)
    z1 = t.series_arg
    z2 = p.series_arg
    arg_err = abs(z1 - z2)
    arg_scale = max(abs(z1), abs(z2), _TINY)
    arg_ok = arg_err <= _REMARK1_ARG_RTOL * arg_scale
    return _report(lhs.value, rhs.value, atol, rtol,
                   note=f"series-argument relative mismatch "
                        f"{arg_err / arg_scale:.3e}",
                   extra_ok=arg_ok)
