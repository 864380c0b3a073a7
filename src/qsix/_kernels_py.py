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

Both walks skip that test on "quiet" steps, judged per step by `_cuts`
from the extreme moduli of the step's bases x and the modulus of its
power w (q^m in `series_side`, q^{+-N} in `kn_trace_sc`): every |x w| is
below 1/4, or every nonzero |x w| is above 4 and at most a far bound
(1e250 in `series_side`, 2^(800/n) for a K_N row of n bases), and |w|
is at most 1e300. With eps <= 1/4 the test fires only for |x w| in
[3/5, 5/3], and a factor with x = 0 is 1, so it cannot fire on a quiet
step; w and x w are far from overflow there, so `abs()` cannot raise.
`series_side` carries |q^m| as one float, multiplied each step by |q|
or |1/q|, which drifts from the computed |q^m| by about m u relative:
far inside the gaps between 1/4 and 3/5, 5/3 and 4, 1e300 and overflow.
A quiet step multiplies the same factors in the same order as a tested
one, in `series_side` r (1 - t w) / (1 - b w), so every return is bit
for bit the one that testing each factor gives.

`series_side` stops an adaptive walk on a certified tail (Johansson,
"Computing hypergeometric functions rigorously", ACM TOMS 45(3), 2019;
the summed geometric tail is a Levin-type tail transform, Weniger,
Comput. Phys. Rep. 10, 1989). Its step ratio tends to rho_inf: z upward,
and downward prod(den/num) / z, over q^2 as well for the very-well-poised
factor. With s = |q^m| upward and 1/|q^m| downward, at each step the
ratio over rho_inf is at most prod (1 + T s) / (1 - B s) in modulus,
over every pair (T, B) = (|top|, |bottom|) upward and (1/|top|,
1/|bottom|) downward, and at s^2 over (|a q^2|, |a|) upward and (1/|a|,
1/|a q^2|) downward for the very-well-poised factor: a majorant that
holds where each 1 - B s > 0 and falls with s. So with eps that product
less 1 at the next step, rho = |rho_inf| and rb = rho (1 + eps) < 1,
the rest after step n, less the added tail t_n rho_inf / (1 - rho_inf),
is within |t_n| (rb / (1 - rb) - rho / (1 - rho)) = |t_n| rho eps /
((1 - rb) (1 - rho)): each later ratio product (1 + delta_1) ...
(1 + delta_k) is within (1 + eps)^k - 1 of 1. eps is built factor by
factor as e + f + e f, f = (T + B) s / (1 - B s), so it keeps its digits
however small. Downward a factor 1 - x w with x = 0 is 1 and does not
grow like |x w| = |x| / s: each zero top takes one power of s out of
the step ratio and each zero bottom puts one in, with T or B 0 for the
zero base. So with k0 the number of zero tops less the number of zero
bottoms, and c0 the modulus of the limit taken over the nonzero bases
alone, the step ratio is within c0 s^k0 (1 + eps). At k0 = 0, rho_inf
is that limit; at k0 > 0, rho_inf = 0: nothing is
added and the bound is |t_n| rb / (1 - rb), rb = c0 s^k0 (1 + eps). At
k0 < 0 the terms grow, and at k0 = 0 with rho >= 1 they do not fall: no
majorant below 1, and the walk runs to its budget or diverges. The walk
stops at the first step past the crossings whose bound is at most
_TAIL_SHARE tail_tol (1 + |acc|), acc before the added tail, and returns
the bound; rounding is not included. As eps >= s sum (T + B), the bound
is at least twice |t_n| s slope, slope = c0 sum (T + B) / (2 (1 -
c0)^2), so it is worked out only on steps where that passes the goal.

`kn_trace_sc` takes a quiet row step as one chain m f_1 ... f_n, the
factors multiplied in the row's order with no test, then one range test
and the rescale. Each factor is within [3/4, 5/4] or [3, 2^(800/n) + 1]
in modulus, or the reciprocal, so from |m| <= 2^8 no partial product
leaves 2^+-812 and none overflows or falls to zero. Any other row runs
the per-factor loop. Rescaling is by exact powers of two, so the chain's
m * 2^e is the loop's value, its m the loop's m up to a power of two,
and every K_N and stop the same as the loop's, as long as no part of a
product falls into the subnormal range in one and not the other, and no
scalar factor (Cq^3 or 1 - A q^(1-N)) within 2^16 of the top of double
range overflows against one m in [2^-8, 2^8] and not the other. A
chain that ends below 2^-8 with a nonzero part below 2^53 times the
smallest normal double, as a q with a tiny imaginary part gives far down
a dividing row, is taken again by the loop. (A part of a partial product
can still be subnormal where the end's parts are not; that needs inputs
whose parts differ in size by more than 2^200.)

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

#: largest eps for which a quiet factor's zero or pole test cannot fire
_QUIET_EPS = 0.25
#: largest |w| of a quiet step: w, computed or carried, is far from
#: overflow there
_W_MAX = 1e300
#: log of the largest modulus of a complex with two finite parts, sqrt(2)
#: times the largest double (the literal 1.8e308 is already inf)
_LOG_MAX = math.log(sys.float_info.max) + 0.5 * math.log(2.0)

#: share of tail_tol (1 + |partial|) that a walk's certified rest is held
#: to. The summed tail's error can come near its bound, where the stop on
#: three small terms that it replaced fell far below its goal on most
#: walks; at 1/32 a sum whose sides cancel keeps about the digits that
#: stop gave it.
_TAIL_SHARE = 0.03125

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

#: quiet K_N rows (module docstring): every nonzero |x w| of a row of n
#: bases is below 1/4, or above 4 and at most 2^(_CHAIN_LOG2 // n); a
#: chain whose end has a nonzero part below _PART_MIN is taken again
_CHAIN_LOG2 = 800
_PART_MIN = 2.0 ** 53 * sys.float_info.min


def _cuts(xs, far: float):
    """(near, far_lo, far_hi) of the bases xs: a step at the power w is
    quiet where |w| < near or far_lo < |w| <= far_hi, so that every
    |x w| is below 1/4, or every nonzero |x w| above 4 and at most far,
    and |w| is at most _W_MAX. Bases with an x that is not finite, or
    whose moduli sum past the largest double, are never quiet."""
    try:
        mags = list(map(abs, xs))
    except OverflowError:
        mags = [math.inf]
    if not sum(mags) < math.inf:
        return 0.0, math.inf, 0.0
    big = max(mags, default=0.0)
    if not big:
        return _W_MAX, math.inf, 0.0
    return (min(0.25 / big, _W_MAX), 4.0 / min(filter(None, mags)),
            min(far / big, _W_MAX))


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
    q, down /= q). A row step tests, inverts, multiplies in and rescales
    each factor as `qpoch_sc` does, written out here, or on a quiet row
    takes its factors as one chain and rescales once (module docstring);
    each scalar factor is taken as `pow_sc` does. K1 = low
    (1 - A q^{1-N}) ck and K2 = high ck take their scalar factors in that
    order, K3 = (1 - bde q^{2N+3}/A)/kden num3 den3 (bde = BDE, kden =
    1 - BDEq/A, cq3 = Cq^3); K1, K2, num3 and den3 become doubles in that
    order.

    Returns (kns, status, row, slot, exp), kns ending before the N of a
    stop. A stop (POLE, or DIVERGED for an overflowed x q^j or a product
    out of double range) names the factor 1 - x q^exp by its row (0-5 in
    argument order) and slot, has row -1 for a scalar factor, or has row
    ROW_VALUE for a piece m * 2^e out of double range, with m and e in
    place of slot and exp.
    """
    rows = (vnum, vden, unum, uden, num3, den3)
    eps, lo, hi, inf, part_min = POLE_EPS, _LO, _HI, math.inf, _PART_MIN
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
    # each step with its row's bases and quiet cuts (a scalar step reads
    # neither); the first N skips the steps on q^-N
    steps = []
    for k, row, iw, divide in _KN_STEPS:
        xs = rows[row] if row >= 0 else ()
        far = math.ldexp(1.0, _CHAIN_LOG2 // (len(xs) or 1))
        steps.append((k, row, iw, divide, xs, *_cuts(xs, far)))
    first = [step for step in steps if step[2]]
    up = down = 1.0 + 0j
    aup = adown = 1.0
    out = []
    for N in range(n_max + 1):
        vdown, down = down, down / q
        avdown = adown
        try:
            adown = abs(down)
        except OverflowError:
            adown = inf
        ws = (vdown, down, up)
        aws = (avdown, adown, aup)
        try:
            for (k, row, iw, divide, xs, near, far_lo,
                 far_hi) in steps if N else first:
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
                    aw = aws[iw]
                    if aw < near or far_lo < aw <= far_hi:
                        c = m
                        if divide:
                            for x in xs:
                                c = c * (1.0 / (1.0 - x * w))
                        else:
                            for x in xs:
                                c = c * (1.0 - x * w)
                        a = abs(c)
                        if lo <= a <= hi:
                            ms[k] = c
                            continue
                        if not a:
                            ms[k] = 0j
                            es[k] = 0
                            continue
                        if a > hi or not (0.0 < abs(c.real) < part_min
                                          or 0.0 < abs(c.imag) < part_min):
                            j = floor(log2(a))
                            ms[k] = complex(ldexp(c.real, -j),
                                            ldexp(c.imag, -j))
                            es[k] = e + j
                            continue
                    slot = 0
                    for x in xs:
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
        try:
            aup = abs(up)
        except OverflowError:
            aup = inf
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
    adaptive mode, which adds the geometric tail t_n rho_inf / (1 -
    rho_inf) of the limit ratio and stops at the first step n whose
    certified bound on the rest (module docstring, `_tail_bound`) is at
    most _TAIL_SHARE * tail_tol * (1 + |partial|); that bound is the
    returned tail. The test is held off until the step index passes every
    factor base's unit-modulus crossing |x q^e| = 1: term profiles can dip
    and then hump while factors cross one, but no new growth can start
    past the last crossing. window is not used: the stop needs no run of
    small terms, and the argument is kept for the benchmark's self-test.

    peak is the largest |t(n)| of the steps taken; over the sum it
    measures how much term rounding a consumer of the sum inherits.

    A quiet step (module docstring: every |x q^m| below 1/4, or every
    nonzero one above 4 and at most 1e250) skips the zero and pole tests,
    which cannot fire there. Any other step computes each factor once,
    for its test and for the step ratio; where a test fires, or abs()
    overflows on an x q^m, `_tested_stop` takes the zero tests and then
    the pole tests in order, so the stop is the first that testing in
    that order meets. The ratio product, the term, peak and the tail test
    run on every step. The overflow test runs where a term sets a new
    peak (a term over 1e150 has already stopped the walk), and a NaN term
    is caught where it does not.

    A step whose x q^m has left double range ends the walk DIVERGED: the
    zero and pole tests cannot tell such a factor from a vanished one.

    Returns (acc, tail, used, status, bad_is_num, bad_slot, bad_exp, peak).
    """
    down = direction < 0
    one_minus_a = 1.0 - vwp_a if use_vwp else 1.0 + 0j
    step_z = 1.0 / z if down else z
    # the factors on top of the step multiplier (their zeros terminate) and
    # below it (their zeros are poles); bad_is_num flags a num-side factor
    tops, bots, top_is_num = (den, num, 0) if down else (num, den, 1)
    pairs = tuple(zip(tops, bots))
    absq = abs(q)
    if fixed_terms < 0:
        limit = max_terms
        n_min = 0
        lg = -math.log(absq)
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
        rule = _tail_rule(pairs, step_z, q, vwp_a if use_vwp else 0j, down)
        if rule is None:
            n_min = limit + 1   # no majorant below 1: no tail test
            rule = _NO_TAIL
    else:
        limit = fixed_terms
        n_min = limit + 1   # past the last step: no tail test
        rule = _NO_TAIL
    rho_inf, slope = rule[3:]
    acc = 0j
    g = 1.0 + 0j            # prod (num;q)_n / (den;q)_n * z^n at current n
    qe = 1.0 / q if down else 1.0 + 0j   # q^m for the next step's factors
    h = 1.0 + 0j            # g * q^{2n} for the prefactor
    qsq = q * q
    peak = 0.0              # max |t(n)| over the steps taken
    steps = 0
    # steps to the next refresh of q^m; never 0 when there is none
    left = recompute_every if recompute_every > 0 else -1
    # |q^m| for the next step's factors, carried by its own multiplier
    aq = abs(1.0 / q) if down else absq
    aqe = aq if down else 1.0
    # s of the next step (|q^m| upward, 1/|q^m| downward), for the tail
    s = absq if down else 1.0
    if zero_eps > _QUIET_EPS or pole_eps > _QUIET_EPS:
        near, far_lo, far_hi = 0.0, math.inf, 0.0
    else:
        near, far_lo, far_hi = _cuts((*num, *den), 1e250)
    while steps < limit:
        r = step_z
        if aqe < near or far_lo < aqe <= far_hi:
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
        s *= absq
        # abs_term s slope is at most half the bound (module docstring),
        # so the bound is worked out only on steps where it can pass
        if steps >= n_min:
            goal = _TAIL_SHARE * tail_tol * (1.0 + abs(acc))
            if abs_term * s * slope <= goal:
                tail = _tail_bound(abs_term, s, rule)
                if tail <= goal:
                    if rho_inf:
                        acc += term * rho_inf / (1.0 - rho_inf)
                    return acc, tail, steps, OK, 0, 0, 0, peak
        aqe *= aq
        left -= 1
        if left:
            qe = qe / q if down else qe * q
        else:
            left = recompute_every
            qe = cpow_int(q, -(steps + 1) if down else steps)
    if fixed_terms >= 0:
        return acc, 0.0, steps, OK, 0, 0, 0, peak
    return acc, float("inf"), steps, BUDGET, 0, 0, 0, peak


#: the tail constants of a walk that takes no tail test
_NO_TAIL = (0.0, 0, (), 0j, 0.0)


def _tail_rule(pairs, step_z: complex, q: complex, vwp_a: complex,
               down: bool):
    """The constants of a walk's certified tail (module docstring), (c0,
    k0, coeffs, rho_inf, slope), or None where no majorant below 1 can
    exist: more zero bottom bases than zero top bases downward, c0 >= 1
    with k0 = 0, or a division by a product that underflowed to 0. coeffs
    holds (T + B, B, square) per factor of the majorant, square marking
    the one taken at s^2. vwp_a is 0 without the very-well-poised
    factor."""
    c0 = abs(step_z)
    k0 = 0
    rho_inf = step_z
    coeffs = []
    try:
        for t, b in pairs:
            at, ab = abs(t), abs(b)
            if not down:
                coeffs.append((at + ab, ab, False))
                continue
            # a zero base's factor is 1: a zero top takes a power of s
            # out of the step ratio, a zero bottom puts one in
            if at:
                rho_inf = rho_inf * t
                c0 = c0 * at
                tinv = 1.0 / at
            else:
                k0 += 1
                tinv = 0.0
            if ab:
                rho_inf = rho_inf / b
                c0 = c0 / ab
                binv = 1.0 / ab
            else:
                k0 -= 1
                binv = 0.0
            coeffs.append((tinv + binv, binv, False))
        if vwp_a:
            av, aq2 = abs(vwp_a), abs(q * q)
            if down:
                rho_inf = rho_inf / (q * q)
                c0 = c0 / aq2
                coeffs.append((1.0 / av + 1.0 / (av * aq2), 1.0 / (av * aq2),
                               True))
            else:
                coeffs.append((av * aq2 + av, av, True))
    except ZeroDivisionError:
        return None
    if k0 < 0:
        return None
    if k0:
        return c0, k0, coeffs, 0j, 0.0
    if not c0 < 1.0:
        return None
    slope = sum(tb for tb, _, square in coeffs if not square)
    return c0, k0, coeffs, rho_inf, 0.5 * c0 * slope / (1.0 - c0) ** 2


def _tail_bound(at: float, s: float, rule) -> float:
    """Bound on |rest - added tail| after a term of modulus at, with s that
    of the next step, or inf where no majorant below 1 holds yet."""
    c0, k0, coeffs = rule[:3]
    e = 0.0
    for tb, b, square in coeffs:
        x = s * s if square else s
        d = 1.0 - b * x
        if not d > 0.0:
            return math.inf
        f = tb * x / d
        e = e + f + e * f
    if k0:
        rb = c0 * s ** k0 * (1.0 + e)
        gap, rho = rb, 0.0
    else:
        gap = c0 * e
        rb, rho = c0 + gap, c0
    if not rb < 1.0:
        return math.inf
    return at * gap / ((1.0 - rb) * (1.0 - rho))


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
