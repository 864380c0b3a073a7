"""Scalar numeric kernels: q-product loops and ratio-driven series sums.

Everything operates on built-in complex scalars and returns plain tuples,
leaving validation, naming of factors, and error raising to the callers in
qcore/series/identities, which reach these functions through
``qsix._backend``.

Finite q-products (`qpoch_sc`, `pow_sc`) are scale-tracked as m * 2^e with
|m| kept in [2^-8, 2^8] by exact power-of-two rescaling, so q-shifted
factorials that grow superexponentially in |n| stay representable.
`kn_trace_sc` carries the products of the boundary term K_N from N to
N+1 for a whole decay trace in one call, with the factors, tests and
rescaling of `qpoch_sc` and `pow_sc`, and assembles each K_N from them.
`qpoch_sc`, `kn_trace_sc` and `qpoch_inf_row` read their tolerances from
`config`.

A factor 1 - x q^m counts as vanished when |1 - x q^m| <= eps (1 + |x q^m|).
Once q^m has left double range that test reads inf <= inf, so each branch
that fires on it checks for an overflowed x q^m and reports DIVERGED (the
walk or product left double range) instead of a zero or a pole.
`abs()` raises OverflowError for a complex whose parts are finite but
whose modulus is past the largest double; `qpoch_sc`, `pow_sc` and
`kn_trace_sc` catch it around their loops, at no cost per factor, and
stop DIVERGED as for an infinite modulus.

`series_side` skips that test, and the other per-factor tests, on
"quiet stretches": index ranges, worked out once per walk from log|x| and
log|q|, over which every |x q^m| stays below 1/4 or above 4. The computed
x q^m is then below 1/2 or above 2: the incremental q^m drifts by ~1e-12
relative over 10^4 steps, far inside that factor of 2, and each end of a
stretch keeps one index more. With eps <= 1/4 the test fires only for
|x q^m| in [3/5, 5/3], so it cannot fire there. A stretch multiplies the
same factors in the same order, so every return is bit for bit the one
that testing each factor gives.

`qpoch_inf_row` takes (x;q)_inf for every x of a row in one call, a lone
product (`qpoch_inf`) being a row of one base. With tau = min(1/4,
1 - |q|), a product is a head of factors 1 - x q^k, taken while
|x q^k| >= tau, times (y;q)_inf at y = x q^k by one Horner pass of
Euler's series (Gasper and Rahman, Basic Hypergeometric Series, 2nd ed.,
(1.3.16)):

    (y;q)_inf = sum_n e_n y^n,  e_0 = 1,  e_n = -e_(n-1) q^(n-1) / (1 - q^n).

|e_n| <= b_n = |q|^(n(n-1)/2) / (|q|;|q|)_n, and b_(n+1) tau / b_n falls
with n, so past e_M the series is within b_(M+1) tau^(M+1) / (1 - rho),
rho = |q|^(M+1) tau / (1 - |q|^(M+2)), of (y;q)_inf. M is the first at
which that bound is at most tail_tol / 4. The e_n, M and the bound depend
on q and tail_tol alone and are worked out once per call. As
|(y;q)_inf| >= exp(-4/3) > 1/4 for |y| < tau, the relative truncation
error is at most tail_tol, and est_error = |head| bound bounds the
product's; rounding is not included. Values take +, -, * and / alone.

The head tests each factor for a zero, the budget max_terms and double
range: a head or value that overflows, or falls below the smallest normal
double and so loses digits, stops DIVERGED; no subnormal or 0 is returned
as a product that did not vanish. For eps up to 3/5 the zero test fires
only where |x q^k| >= 1/4 >= tau, so the head reaches every factor that
it can vanish.

`margin_hit`, the sampler's pole-margin audit, tests 1 - x q^j for every
integer j, at a margin m in (0, 1). As |1 - y| >= ||y| - 1|,
|1 - y| < m (1 + |y|) needs |y| in [(1-m)/(1+m), (1+m)/(1-m)]; only the j
with log|x q^j| in that band, widened by 1e-6 at each end, are visited.
The computed |x q^j| is within 1e-12 relative of |x| |q|^j for the |j| of
a draw's factors, and the logs fixing the j range are off by under
1e-13, so no j whose test can fire is left out and the first hit is the
one that testing every j finds.
"""

from __future__ import annotations

import math
import sys

from .config import POLE_EPS, ZERO_EPS

OK = 0
TERMINATED = 1
POLE = 2
BUDGET = 3
DIVERGED = 4

_OVERFLOW = 1e150
#: the smallest normal double: a product below it has lost digits
_TINY = sys.float_info.min

#: quiet stretches: factors with |x q^m| outside [1/4, 4]; log of 4
_LOG_SHELL = math.log(4.0)
#: largest eps for which a quiet factor's zero or pole test cannot fire
_QUIET_EPS = 0.25
#: no stretch for an |x| outside [1e-280, 1e280], or past a step whose
#: |q^m| leaves [1e-300, 1e300] or, downward, whose |x q^m| tops 1e250
_X_MIN = 1e-280
_X_MAX = 1e280
_LOG_NORMAL = math.log(1e300)
_LOG_HUGE = math.log(1e250)
#: log of the largest modulus of a complex with two finite parts, sqrt(2)
#: times the largest double (the literal 1.8e308 is already inf)
_LOG_MAX = math.log(sys.float_info.max) + 0.5 * math.log(2.0)

#: pole-margin audit: the guard on the band's log at each end
_MARGIN_GUARD = 1e-6

#: window [2^-8, 2^8] that scale-tracked products keep their mantissa in
_LO = 0.00390625
_HI = 256.0


def cpow_int(base: complex, n: int) -> complex:
    """base**n by binary exponentiation; inf when n < 0 and base**-n
    underflows to 0."""
    if n == 0:
        return 1.0 + 0j
    neg = n < 0
    e = -n if neg else n
    acc = 1.0 + 0j
    b = complex(base)
    while e:
        if e & 1:
            acc *= b
        e >>= 1
        if e:
            b *= b
    if neg:
        return 1.0 / acc if acc else complex(math.inf, 0.0)
    return acc


def margin_hit(xs, q: complex, margin: float):
    """The first x in xs with |1 - x q^j| < margin (1 + |x q^j|) for some
    integer j in the band of the module docstring, or None; a zero x has
    no such j. margin must lie in (0, 1).

    >>> margin_hit((0.3 + 0j, 4.001 + 0j), 0.5 + 0j, 1e-3)
    (4.001+0j)
    >>> margin_hit((0.3 + 0j, 0j), 0.5 + 0j, 1e-3) is None
    True
    """
    band = math.log((1.0 + margin) / (1.0 - margin)) + _MARGIN_GUARD
    inv = 1.0 / math.log(abs(q))
    log, ceil, floor = math.log, math.ceil, math.floor
    for x in xs:
        if not x:
            continue
        lx = log(abs(x))
        # at small margins the band holds no j for most x
        j, last = ceil((band - lx) * inv), floor((-band - lx) * inv)
        while j <= last:
            xq = x * q ** j
            if abs(1.0 - xq) < margin * (1.0 + abs(xq)):
                return x
            j += 1
    return None


def qpoch_sc(xs, q: complex, n: int, invert: bool, m: complex, e: int):
    """Multiply prod_i (x_i;q)_n, or its reciprocal when `invert`, onto the
    scale-tracked product m * 2^e, one factor 1 - x_i q^j at a time.

    (x;q)_n has the factors j = 0..n-1 for n > 0 and the reciprocals of
    j = -1..n for n < 0. A dividing factor (n < 0 without `invert`, n > 0
    with it) within POLE_EPS (relative) of zero gives status POLE; an
    overflowed x q^j there, or a product out of double range, DIVERGED.
    Returns (m, e, status, bad_slot, bad_exp), bad_* naming the factor a
    stop came at.

    >>> qpoch_sc((0.5 + 0j,), 0.5 + 0j, 3, False, 1 + 0j, 0)
    ((0.328125+0j), 0, 0, 0, 0)
    >>> qpoch_sc((0.25 + 0j, 0.5 + 0j), 0.5 + 0j, -1, False, 1 + 0j, 0)
    ((2+0j), 0, 2, 1, -1)
    """
    down = n < 0
    divide = down != bool(invert)
    exps = range(-1, n - 1, -1) if down else range(n)
    try:
        for slot, x in enumerate(xs):
            w = 1.0 + 0j
            for j in exps:
                if down:
                    w /= q
                xw = x * w
                f = 1.0 - xw
                if divide:
                    if abs(f) <= POLE_EPS * (1.0 + abs(xw)):
                        status = DIVERGED if _overflowed(xw) else POLE
                        return m, e, status, slot, j
                    f = 1.0 / f
                m = m * f
                if not _LO <= abs(m) <= _HI:
                    m, e = _rescale(m, e)
                    if not abs(m) < math.inf:
                        return m, e, DIVERGED, slot, j
                if not down:
                    w *= q
    except OverflowError:
        return m, e, DIVERGED, slot, j
    return m, e, OK, 0, 0


def pow_sc(z: complex, count: int, m: complex, e: int):
    """Multiply z**count onto the scale-tracked product m * 2^e one factor
    at a time (1/z for count < 0). Returns (m, e, status).

    >>> pow_sc(2.0 + 0j, 10, 1 + 0j, 0)
    ((2+0j), 9, 0)
    """
    if count < 0:
        z = 1.0 / z
        count = -count
    try:
        for _ in range(count):
            m = m * z
            if not _LO <= abs(m) <= _HI:
                m, e = _rescale(m, e)
                if not abs(m) < math.inf:
                    return m, e, DIVERGED
    except OverflowError:
        return m, e, DIVERGED
    return m, e, OK


#: the steps of one K_N trace step, in the order they are taken:
#: (product, row, carried power, divide); products 0-4 are low, high,
#: num3, den3 and ck, rows 0-5 are kn_trace_sc's arguments in order, and
#: the powers are q^-N, q^-N-1 and q^N, a step on q^-N starting at N = 1.
#: Row -1 multiplies by Cq^3, or by 1/Cq^3 with divide, from N = 1 on q^-N.
_KN_STEPS = ((0, 0, 0, True), (0, 2, 1, True), (0, 1, 0, False),
             (0, 3, 1, False), (0, -1, 2, False),
             (1, 0, 2, False), (1, 2, 2, False), (1, 1, 2, True),
             (1, 3, 2, True), (2, 4, 2, False), (3, 5, 2, True),
             (4, -1, 0, False), (1, -1, 0, True))

#: the row of a K_N trace stop at a piece whose value leaves double range
ROW_VALUE = -2


def kn_trace_sc(vnum, vden, unum, uden, num3, den3, q: complex, A: complex,
                C: complex, cq3: complex, bde: complex, kden: complex,
                coeff: complex, n_max: int):
    """K_N = K1 - K2 + K3 q^{N-2}/C for N = 0..n_max in one pass.

    low is V_{-N-1} U_{-N-1} without its leading factor: the rows vnum and
    vden take the factor 1 - x q^-N (from N = 1), unum and uden
    1 - x q^-N-1, with vnum and unum dividing, then one factor Cq^3. high
    is V_N U_{N+1} (Cq^3)^-N: vnum and unum take 1 - x q^N, vden and uden
    divide by it, and from N = 1 one factor 1/Cq^3. num3 and den3 are the
    K3 rows' products with 1 - x q^N, den3 dividing; ck is coeff (Cq^3)^N.
    Each is carried from N to N+1, q^{+-N} as `qpoch_sc` builds it (up *=
    q, down /= q); each factor is tested, inverted, multiplied in and
    rescaled as `qpoch_sc` does, written out here, and each scalar factor
    as `pow_sc` does. K1 = low (1 - A q^{1-N}) ck and K2 = high ck take
    their scalar factors in that order, K3 = (1 - bde q^{2N+3}/A)/kden num3
    den3 (bde = BDE, kden = 1 - BDEq/A, cq3 = Cq^3); K1, K2, num3 and
    den3 become doubles in that order.

    Returns (kns, status, row, slot, exp), kns ending before the N of a
    stop. A stop (POLE, or DIVERGED for an overflowed x q^j or a product
    out of double range) names the factor 1 - x q^exp by its row (0-5 in
    argument order) and slot, has row -1 for a scalar factor, or has row
    ROW_VALUE for a piece m * 2^e out of double range, with m and e in
    place of slot and exp.
    """
    rows = (vnum, vden, unum, uden, num3, den3)
    eps, lo, hi, inf = POLE_EPS, _LO, _HI, math.inf
    floor, log2, ldexp = math.floor, math.log2, math.ldexp
    icq3 = 1.0 / cq3
    # The trace stops by step n_top: a part of the carried q^-N-1 is inf
    # there (two spare steps cover its drift), so unum's first divided
    # factor is inf or nan (0 inf at x = 0). So no step reads the table
    # past n_top, where an index below its start would wrap silently.
    n_top = min(n_max, math.floor(_LOG_MAX / -math.log(abs(q))) + 2)
    # q^k = qk[k + off], k = -off..2 n_top + 3, bit for bit cpow_int's:
    # pw[k] = pw[k - 2^t] q^(2^t), 2^t the top bit of k; q^-k = 1/q^k
    pw = [1.0 + 0j]
    bit, sq = 1, complex(q)
    for k in range(1, 2 * n_top + 4):
        if k == 2 * bit:
            bit, sq = k, sq * sq
        pw.append(pw[k - bit] * sq)
    off = max(n_top - 1, 2)
    qk = [1.0 / w if w else complex(inf, 0.0) for w in pw[off:0:-1]] + pw
    ms = [1.0 + 0j] * 4 + [coeff]
    es = [0] * 5
    up = down = 1.0 + 0j
    out = []
    for N in range(n_max + 1):
        vdown, down = down, down / q
        ws = (vdown, down, up)
        try:
            for k, row, iw, divide in _KN_STEPS:
                if not (iw or N):
                    continue
                m = ms[k]
                e = es[k]
                if row < 0:
                    m = m * (icq3 if divide else cq3)
                    if not lo <= abs(m) <= hi:
                        m, e = _rescale(m, e)
                        if not abs(m) < inf:
                            return out, DIVERGED, -1, 0, 0
                else:
                    w = ws[iw]
                    slot = 0
                    for x in rows[row]:
                        if divide:
                            xw = x * w
                            f = 1.0 - xw
                            if abs(f) <= eps * (1.0 + abs(xw)):
                                status = DIVERGED if _overflowed(xw) else POLE
                                return (out, status, row, slot,
                                        (-N, -N - 1, N)[iw])
                            m = m * (1.0 / f)
                        else:
                            m = m * (1.0 - x * w)
                        a = abs(m)
                        if not lo <= a <= hi:
                            if not a < inf:
                                return (out, DIVERGED, row, slot,
                                        (-N, -N - 1, N)[iw])
                            if a:
                                j = floor(log2(a))
                                m = complex(ldexp(m.real, -j),
                                            ldexp(m.imag, -j))
                                e += j
                            else:
                                m, e = 0j, 0
                        slot += 1
                ms[k] = m
                es[k] = e
        except OverflowError:
            if row < 0:
                return out, DIVERGED, -1, 0, 0
            return out, DIVERGED, row, slot, (-N, -N - 1, N)[iw]
        up = up * q
        ck = (ms[4], es[4])
        lead = (1.0 - A * qk[off + 1 - N], 0)
        vals = []
        for m, e, zs in zip(ms, es, ((lead, ck), (ck,), (), ())):
            try:
                for z, ez in zs:
                    m = m * z
                    e += ez
                    if not lo <= abs(m) <= hi:
                        m, e = _rescale(m, e)
                        if not abs(m) < inf:
                            return out, DIVERGED, -1, 0, 0
            except OverflowError:
                return out, DIVERGED, -1, 0, 0
            try:
                vals.append(complex(ldexp(m.real, e), ldexp(m.imag, e)))
            except OverflowError:
                return out, DIVERGED, ROW_VALUE, m, e
        k1, k2, v3, d3 = vals
        kern = (1.0 - bde * qk[off + 2 * N + 3] / A) / kden
        out.append(k1 - k2 + kern * v3 * d3 * qk[off + N - 2] / C)
    return out, OK, 0, 0, 0


def _rescale(m: complex, e: int):
    """m * 2^e with m rescaled by a power of two to |m| near 1; zero
    becomes (0j, 0), a non-finite m comes back unchanged."""
    if m == 0:
        return 0j, 0
    a = abs(m)
    if a < math.inf:
        k = int(math.floor(math.log2(a)))
        m = complex(math.ldexp(m.real, -k), math.ldexp(m.imag, -k))
        e += k
    return m, e


def qpoch_inf(a: complex, q: complex, tail_tol: float, max_terms: int,
              window: int, zero_eps: float):
    """(a;q)_infinity = prod_{k>=0} (1 - a q^k), with a truncation bound.

    The product of the row (a,) as `qpoch_inf_row` takes it, with zero_eps
    as the eps of its zero test. Returns (value, est_error, terms,
    terminated, status): terms counts the head's factors and the series'
    terms, and status is OK, BUDGET or DIVERGED. window is not used: the
    program calls only the row, and this form and its arguments are kept
    for the benchmark's self-test.
    """
    return _inf_product(a, q, _euler(q, tail_tol), max_terms, zero_eps)


def qpoch_inf_row(xs, q: complex, tail_tol: float, max_terms: int):
    """(x;q)_infinity for each x of xs in turn, as described in the module
    docstring, with zero_eps ZERO_EPS.

    Returns (out, status, slot). out holds each product's (value,
    est_error, terms, terminated) up to the first product whose status is
    not OK; status is that product's (BUDGET or DIVERGED) and slot its
    index in xs, or OK and 0 when every product is OK.

    >>> qpoch_inf_row((0j, 0.5 + 0j), 0.5 + 0j, 1e-15, 1)
    ([((1+0j), 0.0, 1, 1)], 3, 1)
    """
    euler = _euler(q, tail_tol)
    out = []
    for slot, x in enumerate(xs):
        r = _inf_product(x, q, euler, max_terms, ZERO_EPS)
        if r[4] != OK:
            return out, r[4], slot
        out.append(r[:4])
    return out, OK, 0


def _euler(q: complex, tail_tol: float):
    """(tau, coeffs, bound): the constants of a call. coeffs is e_M..e_0 of
    Euler's series, for Horner, and bound its truncation bound for any
    |y| < tau = min(1/4, 1 - |q|), at most tail_tol / 4."""
    absq = abs(q)
    tau = 1.0 - absq
    if tau > 0.25:
        tau = 0.25
    goal = 0.25 * tail_tol
    coeffs = [1.0 + 0j]
    e = p = 1.0 + 0j        # e_(n-1) and q^(n-1)
    d, d1 = 0j, 1.0 - q     # 1 - q^(n-1) and 1 - q
    r = c = 1.0             # |q|^(n-1) and b_(n-1) tau^(n-1)
    while True:
        rn = r * absq
        c = c * r * tau / (1.0 - rn)
        bound = c / (1.0 - rn * tau / (1.0 - rn * absq))
        if bound <= goal:
            coeffs.reverse()
            return tau, coeffs, bound
        # 1 - q^n as (1 - q^(n-1)) + q^(n-1) (1 - q): near q = 1 the terms
        # keep their digits, where 1 - q^n itself would cancel
        d = d + p * d1
        e = -e * p / d
        coeffs.append(e)
        p = p * q
        r = rn


def _inf_product(a: complex, q: complex, euler, max_terms: int,
                 zero_eps: float):
    """`qpoch_inf` of a, with the constants `_euler` of the call."""
    if a == 0:
        return 1.0 + 0j, 0.0, 1, 1, OK
    try:
        mag = abs(a)
    except OverflowError:
        mag = math.inf
    if not mag < math.inf:
        # an infinite, NaN or overflowing base: the first factor is already
        # out of double range
        return 1.0 - a, math.inf, 1, 0, DIVERGED
    tau, coeffs, bound = euler
    acc = w = 1.0 + 0j
    y = a
    k = 0
    try:
        while mag >= tau:
            if k == max_terms:
                return acc, math.inf, k, 0, BUDGET
            f = 1.0 - y
            k += 1
            if abs(f) <= zero_eps * (1.0 + mag):
                return 0.0 + 0j, 0.0, k, 1, OK
            acc *= f
            if not _TINY <= abs(acc) < math.inf:
                return acc, math.inf, k, 0, DIVERGED
            w *= q
            y = a * w
            mag = abs(y)
        s = 0j
        for e in coeffs:
            s = s * y + e
        value = acc * s
        if not _TINY <= abs(value) < math.inf:
            return value, math.inf, k, 0, DIVERGED
    except OverflowError:
        return acc, math.inf, k, 0, DIVERGED
    return value, abs(acc) * bound, k + len(coeffs), 0, OK


def _quiet_edges(xs, absq: float, down: bool, eps: float) -> list:
    """Steps at which a walk enters or leaves a quiet stretch, the last
    first, for popping; [] when it has none.

    At step s the factors are 1 - x q^m, m = s upward and m = -(s + 1)
    downward, for each x in xs. A step is quiet when every |x q^m| lies
    outside [1/4, 4], with one index to spare at each end, while |q^m|
    stays within [1e-300, 1e300] and, downward, every |x q^m| below 1e250
    (one index to spare again). The stretches taken are the one before the
    first factor nears the shell and the one after the last has left it;
    only the extreme moduli of xs decide them. A zero x never vanishes a
    factor.
    """
    if not (0.0 < absq < 1.0 and eps <= _QUIET_EPS):
        return []
    small = math.inf
    big = 0.0
    for x in xs:
        ax = abs(x)
        if ax:
            if ax < small:
                small = ax
            if ax > big:
                big = ax
    if not (_X_MIN <= small and 0.0 < big <= _X_MAX):
        return []
    lg = -math.log(absq)
    end = math.ceil(_LOG_NORMAL / lg) - 2
    # the factor of x is in the shell for steps between (c - log 4)/lg - off
    # and (c + log 4)/lg - off, c = log|x| upward and -log|x| downward; the
    # smallest c enters it first and the largest leaves it last
    if down:
        off = 1.0
        first = -math.log(big)
        last = -math.log(small)
        huge = math.ceil((_LOG_HUGE + first) / lg) - 2
        if huge < end:
            end = huge
    else:
        off = 0.0
        first = math.log(small)
        last = math.log(big)
    lead = math.ceil((first - _LOG_SHELL) / lg - off) - 1
    trail = math.floor((last + _LOG_SHELL) / lg - off) + 2
    if trail < 0:
        trail = 0
    edges = [end, trail] if trail < end else []
    if 0 < lead:
        edges += (lead if lead < end else end, 0)
    return edges


def _overflowed(w: complex) -> bool:
    """Whether x q^m has left double range; read only where the zero or pole
    test fired, which an infinite |x q^m| passes as inf <= inf."""
    return abs(w) == math.inf


def _stop(acc, steps, status, w, bad_is_num, bad_slot, bad_exp, peak):
    """Return tuple of a walk stopped on a vanishing factor x q^m = w."""
    if _overflowed(w):
        return acc, float("inf"), steps, DIVERGED, 0, 0, 0, peak
    return acc, 0.0, steps, status, bad_is_num, bad_slot, bad_exp, peak


def _crossing(ax: float, lg: float, down: bool, floor: int) -> int:
    """Step count after which |x q^e| has crossed 1 in this direction."""
    if down:
        if 0.0 < ax < 1.0:
            k = int(math.ceil(-math.log(ax) / lg))
            if k > floor:
                return k
    elif ax > 1.0:
        k = int(math.ceil(math.log(ax) / lg))
        if k > floor:
            return k
    return floor


def series_side(num, den, q: complex, z: complex, direction: int,
                vwp_a: complex, use_vwp: bool, fixed_terms: int,
                tail_tol: float, max_terms: int, window: int,
                pole_eps: float, zero_eps: float, recompute_every: int):
    """One index direction of a Pochhammer-ratio power series.

    Sums t(n) over n = d, 2d, ... for d = +-1, leaving the n = 0 term (always
    1) to the caller, where

        t(n) = P(n) * prod_i (num[i];q)_n / (den[i];q)_n * z^n,
        P(n) = (1 - vwp_a q^{2n}) / (1 - vwp_a)     (only when use_vwp),

    over rows num and den of equal length (a unilateral sum pads den with
    q).

    Each outward step multiplies the running term by one new factor per
    parameter; those factors decide terminations and poles:

        upward   * z   * (1 - num[i] q^m) / (1 - den[i] q^m),  m = n-1,
        downward * 1/z * (1 - den[i] q^m) / (1 - num[i] q^m),  m = n,

    so downward the roles swap: a den-side zero terminates the direction, a
    num-side zero is a pole. The step multiplier is accumulated with top and
    bottom factors interleaved: downward every factor grows like |x q^n|, so
    the two full products overflow after a few hundred steps even while
    their ratio stays of order one. P(n) is a per-term multiplier; its
    zeros suppress single terms to roundoff level without terminating
    anything. The prefactor rides along as h = g q^{2n} rather than as the
    bare power q^{2n}: h decays with the terms, while q^{2n} alone leaves
    double range near step 500 on downward walks. The running power q^m is
    refreshed by exact integer exponentiation every `recompute_every`
    steps; the ratio product itself stays incremental (a from-scratch
    rebuild would overflow: isolated q-shifted factorials grow
    superexponentially in |n| even while the term stays bounded).

    fixed_terms >= 0 sums exactly that many terms (no tail test); -1 selects
    adaptive mode, which stops after `window` consecutive terms satisfy
    |t| <= tail_tol * (1 + |partial|) with step ratio below one, and bounds
    the remainder by |t_last| * rho / (1 - rho). The adaptive stop is held
    off until the step index passes every factor base's unit-modulus
    crossing |x q^e| = 1: term profiles can dip and then hump while factors
    cross one, but no new growth can start past the last crossing.

    peak is the largest |t(n)| of the steps taken; over the sum it
    measures how much term rounding a consumer of the sum inherits.

    Steps on a quiet stretch (`_quiet_edges`: every |x q^m| outside
    [1/4, 4], and below 1e250 downward) skip the zero and pole tests,
    which cannot fire there. A step off the stretches computes each
    factor once, for its test and for the step ratio; where a test fires,
    or abs() overflows on an x q^m, `_tested_stop` takes the zero tests
    and then the pole tests in order, so the stop is the first that
    testing in that order meets. The ratio product, the term, peak and
    the tail test run on every step. The overflow test runs where a term
    sets a new peak (a term over 1e150 has already stopped the walk), and
    a NaN term is caught where it does not.

    A step whose x q^m has left double range ends the walk DIVERGED: the
    zero and pole tests cannot tell such a factor from a vanished one.

    Returns (acc, tail, used, status, bad_is_num, bad_slot, bad_exp, peak).
    """
    down = direction < 0
    one_minus_a = 1.0 - vwp_a if use_vwp else 1.0 + 0j
    step_z = 1.0 / z if down else z
    if fixed_terms < 0:
        limit = max_terms
        n_min = 0
        lg = -math.log(abs(q))
        for x in num:
            n_min = _crossing(abs(x), lg, down, n_min)
        for x in den:
            n_min = _crossing(abs(x), lg, down, n_min)
        if use_vwp:
            half = _crossing(abs(vwp_a), 2.0 * lg, down, 0)
            if half > n_min:
                n_min = half
        if n_min > max_terms // 2:
            n_min = max_terms // 2
    else:
        limit = fixed_terms
        n_min = limit + 1   # past the last step: no tail test
    acc = 0j
    g = 1.0 + 0j            # prod (num;q)_n / (den;q)_n * z^n at current n
    qe = 1.0 / q if down else 1.0 + 0j   # q^m for the next step's factors
    h = 1.0 + 0j            # g * q^{2n} for the prefactor
    qsq = q * q
    prev_abs = 1.0          # |t(0)|
    peak = 0.0              # max |t(n)| over the steps taken
    run = 0
    steps = 0
    # steps to the next refresh of q^m; never 0 when there is none
    left = recompute_every if recompute_every > 0 else -1
    # the factors on top of the step multiplier (their zeros terminate) and
    # below it (their zeros are poles); bad_is_num flags a num-side factor
    tops, bots, top_is_num = (den, num, 0) if down else (num, den, 1)
    pairs = tuple(zip(tops, bots))
    edges = _quiet_edges((*num, *den), abs(q), down,
                         zero_eps if zero_eps > pole_eps else pole_eps)
    edge = edges.pop() if edges else -1
    quiet = False
    while steps < limit:
        if steps == edge:
            quiet = not quiet
            edge = edges.pop() if edges else -1
        r = step_z
        if quiet:
            for t, b in pairs:
                r = r * (1.0 - t * qe) / (1.0 - b * qe)
        else:
            try:
                for t, b in pairs:
                    wt = t * qe
                    wb = b * qe
                    ft = 1.0 - wt
                    fb = 1.0 - wb
                    if (abs(ft) <= zero_eps * (1.0 + abs(wt))
                            or abs(fb) <= pole_eps * (1.0 + abs(wb))):
                        return _tested_stop(acc, steps, peak, qe, tops, bots,
                                            top_is_num, down, zero_eps,
                                            pole_eps)
                    r = r * ft / fb
            except OverflowError:
                # an |x q^m| past the largest double: the tests in order
                # raise it again, or stop on a factor before it
                return _tested_stop(acc, steps, peak, qe, tops, bots,
                                    top_is_num, down, zero_eps, pole_eps)
        steps += 1
        g = g * r
        if use_vwp:
            h = h * r / qsq if down else h * r * qsq
            term = (g - vwp_a * h) / one_minus_a
        else:
            term = g
        acc += term
        abs_term = abs(term)
        if abs_term > peak:
            peak = abs_term
            if abs_term > _OVERFLOW:
                return acc, float("inf"), steps, DIVERGED, 0, 0, 0, peak
        elif abs_term != abs_term:
            return acc, float("inf"), steps, DIVERGED, 0, 0, 0, peak
        # for a positive finite prev_abs, abs_term < prev_abs exactly when
        # the rounded ratio abs_term / prev_abs is below 1
        if (steps >= n_min and abs_term < prev_abs
                and abs_term <= tail_tol * (1.0 + abs(acc))):
            run += 1
            if run >= window:
                ratio = abs_term / prev_abs
                tail = abs_term * ratio / (1.0 - ratio)
                return acc, tail, steps, OK, 0, 0, 0, peak
        else:
            run = 0
        prev_abs = abs_term
        left -= 1
        if left:
            qe = qe / q if down else qe * q
        else:
            left = recompute_every
            qe = cpow_int(q, -(steps + 1) if down else steps)
    if fixed_terms >= 0:
        return acc, 0.0, steps, OK, 0, 0, 0, peak
    return acc, float("inf"), steps, BUDGET, 0, 0, 0, peak


def _tested_stop(acc, steps, peak, qe, tops, bots, top_is_num, down,
                 zero_eps, pole_eps):
    """Return tuple of `series_side` at a tested step where a factor's test
    fired or raised: the zero tests of every top factor, then the pole
    tests of every bottom factor, the first to fire giving the stop."""
    e = -(steps + 1) if down else steps
    for k, x in enumerate(tops):
        w = x * qe
        if abs(1.0 - w) <= zero_eps * (1.0 + abs(w)):
            return _stop(acc, steps, TERMINATED, w, top_is_num, k, e, peak)
    for k, x in enumerate(bots):
        w = x * qe
        if abs(1.0 - w) <= pole_eps * (1.0 + abs(w)):
            return _stop(acc, steps, POLE, w, 1 - top_is_num, k, e, peak)
    raise AssertionError("no factor of the step fired")
