"""Tests of the kernel layer, called through the `qsix._backend` binding.

Each kernel is checked against a plain oracle: `cpow_int` against the
built-in power, the scale-tracked `qpoch_sc` and `series_side` against
term-by-term products and sums, `pow_sc` against `cpow_int`, `qpoch_inf`
against a long truncated product and against 40-digit mpmath. `qpoch_sc`
is also pinned on its stops (a pole with its slot and exponent, an
overflowed power) and on a product that only the scale tracking keeps in
range. The walk statistic of `series_side` (largest |term|) is checked
against the same sums, and every stop status is pinned on a walk that
reaches it, including walks whose running power q^m leaves double range.
`qpoch_inf` is pinned on a loose tail_tol, on values that leave double
range after their head, and it and `qpoch_inf_ratio` on bases that are
not finite. `qpoch_sc`, `pow_sc` and `kn_trace` are pinned on a factor or
a piece whose parts are finite but whose modulus is past the largest
double (a stop, not a raw OverflowError), and `qpoch_inf_ratio` and
`qpochhammer_inf` on their memory at |q| near 1.

`series_side` skips its zero and pole tests on quiet steps, judged by
the cuts of `_cuts`, and works out its tail bound only where a cheap
lower bound on it passes. A seeded fuzz holds it to `repr`-equal returns
with a reference copy that tests every factor and works out the bound on
every step past the crossings, on inputs that put factors on, next to
and far from their zeros and poles, and on walks whose factors sit on
the cuts, at eps up to and past 1/4. It asserts that it reached every
stop status, fixed mode, a quiet step below 1/4 and one above 4, a
tested step after a quiet one, a downward step tested past the far
bound, a zero term, recompute_every 0 and 1, a stop with a summed tail,
one with a limit ratio of 0 and a walk with no majorant below 1.
Against 40-digit mpmath, the sum with its added tail is within the
returned bound plus the terms' rounding on sampled walks of each kind,
near the edge of convergence and at |q| near 0.9, at three tail_tol.

`qpoch_inf` and `qpoch_inf_ratio` take a head of factors, then Euler's
series. Two fuzzes hold them to a reference that tests every head factor
and multiplies the rest of the product out: the same stops (exact zeros
at every zero eps drawn, the budget, overflow, underflow, bases that are
not finite, a ratio's first stop or vanishing bottom product and its
slot) bit for bit, the same count of series terms, and otherwise values
within est_error plus the rounding of both tails. The ratio is held to
mpmath's ratio of its lone products within the rounding of its fold,
with the same composed bound, or refused where that ratio is out of the
normal double range, on rows whose sides and ratios leave double range
at each end. The mpmath test bounds the error by est_error plus a
multiple of u per |q| band. The closed products, `qpochhammer_inf_multi`,
`theta`, `theta_multi` and `kn_limit`, which take their products from
ratio calls, are held to products taken one `qpochhammer_inf` call at a
time and multiplied in plain doubles from the first: the same value, or
the same exception and message, wherever that product stays in the
normal double range; where it leaves it, the value is held to mpmath's
product of the same lone products, or must raise DomainError. Three
draws whose plain product read 0, nan+nanj or inf are pinned.

`kn_trace_sc` carries a whole K_N decay trace in one call. Another fuzz
holds `kn_trace` to a reference trace that makes one `qpoch_sc` call per
row step: `repr`-equal lists, or the same exception and message. Its
draws come from the kn-decay band and from plain trunc draws, some with a
factor set on or next to its pole or zero, at N_max up to 200 and at
depths where a product leaves double range.
"""

import cmath
import math
import random
import sys
import tracemalloc

import mpmath
import pytest
from test_series import poch_oracle, psi_term_oracle

from qsix import SampleConstraints, TruncParams, sample
from qsix import _backend as K
from qsix import identities as ID
from qsix import qcore as Q
from qsix import series as S
from qsix.config import ZERO_EPS
from qsix.errors import DomainError, PoleError, QSixError
from qsix.qcore import EvalResult, QContext, TruncationPolicy, _sc_value
from qsix.series import BaileyParams, TParams
from qsix._kernels_py import (_CHAIN_LOG2, _KN_STEPS, _LO, _PART_MIN,
                              BUDGET, DIVERGED, OK, POLE, TERMINATED,
                              _OVERFLOW, _QUIET_EPS, _TAIL_SHARE, _crossing,
                              _cuts, _stop, cpow_int)

ARGS = (1e-15, 10000, 3, 1e-12, 5e-15, 64)


def term(num, den, q, z, vwp_a, n):
    t = psi_term_oracle(num, den, q, z, n)
    if vwp_a is not None:
        t *= (1.0 - vwp_a * q ** (2 * n)) / (1.0 - vwp_a)
    return t


def plain_peak(num, den, q, z, direction, vwp_a, used):
    """Largest |term| of the first `used` terms."""
    return max((abs(term(num, den, q, z, vwp_a, direction * step))
                for step in range(1, used + 1)), default=0.0)


# (num, den, q, z, vwp_a or None)
WALKS = [
    ((1.3 + 0.2j, -1.1j), (0.4 - 0.1j, 0.5 + 0j), 0.45 + 0.1j, 0.6 - 0.3j,
     None),
    ((2.0 + 0.3j, -1.8j), (0.3 - 0.1j, 0.4 + 0j), 0.45 + 0.1j, 0.6 - 0.3j,
     0.5 + 0.2j),
    # a large first term of opposite sign
    ((2.5 + 0j, -3.1 + 0.4j), (0.2 + 0j, 0.15 - 0.1j), 0.5 + 0j,
     0.2 + 0j, None),
]


@pytest.mark.parametrize("fixed", [-1, 0, 1, 12])
@pytest.mark.parametrize("direction", [1, -1])
@pytest.mark.parametrize("walk", WALKS)
def test_series_side_walk_stats_match_plain_sum(walk, direction, fixed):
    num, den, q, z, vwp_a = walk
    out = K.series_side(num, den, q, z, direction,
                        0j if vwp_a is None else vwp_a, vwp_a is not None,
                        fixed, *ARGS)
    assert len(out) == 8
    used, status, peak = out[2], out[3], out[7]
    assert status == K.OK
    if fixed >= 0:
        assert used == fixed
    want = plain_peak(num, den, q, z, direction, vwp_a, used)
    assert peak == pytest.approx(want, rel=1e-12, abs=0.0)
    if fixed == 0:
        assert peak == 0.0


def test_series_side_stats_ride_along_on_termination():
    # (1 - 2 q) = 0 at the second upward step: one term, then terminated
    num, den, q, z = (2.0 + 0j, 0.25 + 0j), (0.23 + 0j, 0.17 + 0j), 0.5, 0.4
    out = K.series_side(num, den, q, z, 1, 0j, False, -1, *ARGS)
    assert out[3] == K.TERMINATED
    assert out[2] == 1
    t1 = term(num, den, q, z, None, 1)
    assert out[7] == pytest.approx(abs(t1), rel=1e-14)


POWERS = [
    (0.5 + 0j, 7), (0.5 + 0j, -9), (0.3 - 0.8j, 23), (0.3 - 0.8j, -23),
    (1.7 + 0.2j, 0), (2.0 + 0j, 62), (-0.4 + 1.1j, -55),
]


@pytest.mark.parametrize("base, n", POWERS)
def test_cpow_int_matches_builtin_power(base, n):
    assert K.cpow_int(base, n) == pytest.approx(base ** n, rel=1e-13)


def test_cpow_int_of_an_underflowed_power_is_inf():
    # 0.5^1100 underflows to 0; its reciprocal is out of range, not 1/0
    assert K.cpow_int(0.5 + 0j, -1100) == complex(math.inf, 0.0)


def test_series_side_walks_on_past_an_underflowed_power():
    # the refresh at step 1088 computes q^-1089; no factor uses it
    out = K.series_side((), (), 0.5, 2.0, -1, 0j, False, 1100, *ARGS)
    assert (out[2], out[3]) == (1100, K.OK)
    assert out[0] == pytest.approx(1.0, rel=1e-15)


def sc_value(m, e):
    return complex(math.ldexp(m.real, e), math.ldexp(m.imag, e))


@pytest.mark.parametrize("a, n", [
    (0.3 + 0.1j, 6), (0.3 + 0.1j, -6), (1.4 - 0.7j, 11), (1.4 - 0.7j, -11),
    (0.0 + 0j, 5), (2.0 + 0j, 4), (4.0 + 0j, -3),
])
def test_qpoch_matches_plain_product(a, n):
    q = 0.45 + 0.15j
    for invert in (False, True):
        m, e, status, slot, k = K.qpoch_sc((a,), q, n, invert, 1.0 + 0j, 0)
        assert (status, slot, k) == (K.OK, 0, 0)
        assert 2.0 ** -8 <= abs(m) <= 2.0 ** 8
        want = poch_oracle(a, q, n)
        if invert:
            want = 1.0 / want
        assert sc_value(m, e) == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("invert", [False, True])
@pytest.mark.parametrize("n", [7, -7])
def test_qpoch_sc_multiplies_every_slot_onto_m_e(n, invert):
    q = 0.45 + 0.15j
    xs = (0.3 + 0.1j, -1.4 + 0.7j)
    m, e, status = K.qpoch_sc(xs, q, n, invert, 3.0 - 1.0j, 40)[:3]
    assert status == K.OK
    want = poch_oracle(xs[0], q, n) * poch_oracle(xs[1], q, n)
    if invert:
        want = 1.0 / want
    assert sc_value(m, e) == pytest.approx((3.0 - 1.0j) * 2.0 ** 40 * want,
                                           rel=1e-12)


# n, invert, exponent of the vanishing factor in slot 1, and the index i of
# the factors of slot 1 taken before it: (x;q)_i, or 1/(x;q)_i with invert
@pytest.mark.parametrize("n, invert, bad_exp, done", [
    (-3, False, -2, -1), (4, True, 2, 2)])
def test_qpoch_sc_stops_on_a_pole_in_its_slot(n, invert, bad_exp, done):
    q = 0.45 + 0.1j
    xs = (0.3 - 0.2j, q ** -bad_exp)
    m, e, status, slot, k = K.qpoch_sc(xs, q, n, invert, 1.0 + 0j, 0)
    assert (status, slot, k) == (K.POLE, 1, bad_exp)
    taken = poch_oracle(xs[0], q, n) * poch_oracle(xs[1], q, done)
    if invert:
        taken = 1.0 / taken
    assert sc_value(m, e) == pytest.approx(taken, rel=1e-12)


@pytest.mark.parametrize("n, invert, x", [(4, False, 4.0), (-3, True, 0.25)])
def test_qpoch_sc_vanishing_factor_that_multiplies_in_is_exact_zero(
        n, invert, x):
    # x q^j = 1 exactly at j = -2 (x = 4) or j = 2 (x = 1/4) for q = 1/2
    assert K.qpoch_sc((0.3 + 0.1j, x + 0j), 0.5 + 0j, n, invert, 1.0 + 0j,
                      0) == (0j, 0, K.OK, 0, 0)


@pytest.mark.parametrize("a, q, n, status, bad_k", [
    # 1 - q * q^-1 = 0: a genuine pole at the first factor
    (0.45 + 0.1j, 0.45 + 0.1j, -3, K.POLE, 1),
    # |q^-917| overflows to inf, which the pole test reads as inf <= inf
    (0.3 + 0j, 0.45 + 0.1j, -1000, K.DIVERGED, 917),
])
def test_qpoch_stops_on_pole_or_overflow(a, q, n, status, bad_k):
    out = K.qpoch_sc((a,), q, n, False, 1.0 + 0j, 0)
    assert out[2:] == (status, 0, -bad_k)


def test_qpoch_sc_overflowed_factor_that_multiplies_in_is_diverged():
    # with invert, 1 - a q^-917 multiplies in and makes the product inf
    out = K.qpoch_sc((0.3 + 0j,), 0.45 + 0.1j, -1000, True, 1.0 + 0j, 0)
    assert out[2:] == (K.DIVERGED, 0, -917)


def test_qpoch_sc_deep_product_stays_in_range():
    # prod_{k=1..300} (1 - x q^-k) is about 2^49920, far past double
    # range: the plain product is inf, while e carries the scale
    x, q = 0.3 + 0j, 0.45 + 0.1j
    plain = 1.0 + 0j
    log2_want = 0.0
    for k in range(1, 301):
        plain *= 1.0 - x * q ** -k
        log2_want += math.log2(abs(1.0 - x * q ** -k))
    assert not math.isfinite(abs(plain))
    m, e, status = K.qpoch_sc((x,), q, -300, True, 1.0 + 0j, 0)[:3]
    assert status == K.OK
    assert 2.0 ** -8 <= abs(m) <= 2.0 ** 8
    assert math.log2(abs(m)) + e == pytest.approx(log2_want, rel=1e-12)


@pytest.mark.parametrize("z, count", POWERS)
def test_pow_sc_matches_cpow_int(z, count):
    m, e, status = K.pow_sc(z, count, 1.0 + 0j, 0)
    assert status == K.OK
    assert sc_value(m, e) == pytest.approx(K.cpow_int(z, count), rel=1e-13)


def test_pow_sc_non_finite_factor_is_diverged():
    assert K.pow_sc(complex(math.inf, 0.0), 1, 1.0 + 0j, 0)[2] == K.DIVERGED


def test_a_modulus_past_double_range_is_diverged_not_an_overflow_error():
    # abs() raises OverflowError for a complex whose parts are finite but
    # whose modulus is past the largest double: a / q, and the power's
    # factor
    a = 1e308 + 1e308j
    assert K.qpoch_sc((a,), 0.75 + 0j, -1, False, 1.0 + 0j, 0) == (
        1.0 + 0j, 0, K.DIVERGED, 0, -1)
    assert K.pow_sc(1.5e308 + 1.5e308j, 1, 1.0 + 0j, 0)[2] == K.DIVERGED
    with pytest.raises(DomainError, match=r"a\*q\^\(-1\) or the product"):
        Q.qpochhammer(a, QContext(0.75), -1)


#: a trace whose leading factor 1 - A q^{1-N} times the low product has
#: finite parts and a modulus past the largest double at N = 21796
_PAST_RANGE = TruncParams(q=-0.967 - 0.043j, A=0.3 + 0.1j, B=0.2,
                          C=-1.7485695630195712 + 0.2345004799569423j,
                          D=0.25j, E=0.15, N=0)
#: a trace whose q has an imaginary part 1e-79 of its real part
_TINY_IMAG = TruncParams(q=0.9 + 9e-80j, A=2.0, B=0.3, C=3.0, D=0.7, E=1.1,
                         N=0)


def test_kn_trace_piece_with_a_modulus_past_double_range_is_domain_error():
    p = _PAST_RANGE
    assert len(ID.kn_trace(p, 21795)) == 21796
    with pytest.raises(DomainError) as got:
        ID.kn_trace(p, 100000)
    assert str(got.value) == "scaled q-product left double range"
    assert (_trace_outcome(ID.kn_trace, p, 21800)
            == _trace_outcome(ref_kn_trace, p, 21800))


@pytest.mark.parametrize("a", [0.3 + 0.1j, -1.4 + 0.7j, 2.5 + 0j])
def test_qpoch_inf_within_its_bound_of_a_long_product(a):
    q = 0.6 - 0.2j
    val, est, terms, exact, status = K.qpoch_inf(a, q, 1e-15, 10000, 6,
                                                 5e-15)
    assert (exact, status) == (0, K.OK)
    assert 0.0 < est < 1e-14 * abs(val)
    assert abs(val - poch_oracle(a, q, 400)) <= est + 1e-14 * abs(val)


@pytest.mark.parametrize("a", [1e200 + 0j, 5e299 + 0j])
def test_qpoch_inf_out_of_range_product_is_diverged(a):
    # the head's product overflows
    val, est, terms, exact, status = K.qpoch_inf(a, 0.5 + 0j, 1e-15, 10000,
                                                 3, 5e-15)
    assert (est, exact, status) == (math.inf, 0, K.DIVERGED)
    assert not math.isfinite(abs(val))


@pytest.mark.parametrize("a", [complex(math.inf, 0.0),
                               complex(-math.inf, 0.0),
                               complex(math.nan, 0.0), complex(0.0, math.inf),
                               complex(1.5e308, 1.5e308)],
                         ids=["inf", "-inf", "nan", "inf-imag", "abs-overflow"])
@pytest.mark.parametrize("tail_tol", [1e-15, 0.2],
                         ids=["quiet-stretch", "no-stretch"])
def test_non_finite_base_is_diverged_at_its_slot(a, tail_tol):
    # the base is refused before its head, whatever the series' length
    _, est, terms, exact, status = K.qpoch_inf(a, 0.5 + 0j, tail_tol, 10000,
                                               3, 5e-15)
    assert (est, terms, exact, status) == (math.inf, 1, 0, K.DIVERGED)
    out = K.qpoch_inf_ratio((0.5 + 0j,), (a, 0.25 + 0j), 0.5 + 0j,
                            tail_tol, 10000)
    assert out[4:] == (K.DIVERGED, 1)


def _mp_qpoch_inf(a: complex, q: complex):
    """(a;q)_inf in 40-digit mpmath: the factors while |a q^k| >= 1e-3,
    then Euler's series to a term below 1e-45."""
    with mpmath.workdps(40):
        y, q = mpmath.mpc(a), mpmath.mpc(q)
        acc = mpmath.mpc(1)
        while abs(y) >= 1e-3:
            acc *= 1 - y
            y *= q
        s, t, n = mpmath.mpc(0), mpmath.mpc(1), 0
        while abs(t) >= 1e-45:
            s += t
            n += 1
            t *= -q ** (n - 1) * y / (1 - q ** n)
        return acc * s


def test_qpoch_inf_loose_tail_tol_bound_covers_the_error():
    # |q| = 0.999 and a loose tail_tol: Euler's series keeps few terms,
    # and its bound, finite, covers the error
    q = 0.6011714986278861 - 0.7978683031913861j
    val, est, terms, exact, status = K.qpoch_inf(-0.025 - 1.5j, q, 0.4858,
                                                 10000, 3, 5e-15)
    assert (exact, status) == (0, K.OK)
    want = _mp_qpoch_inf(-0.025 - 1.5j, q)
    assert abs(val - want) <= est < 0.4858 * abs(want)


def test_qpoch_inf_of_zero_is_exactly_one():
    assert K.qpoch_inf(0j, 0.6 - 0.2j, 1e-15, 10000, 6, 5e-15) == (
        1.0 + 0j, 0.0, 1, 1, K.OK)


# (num, den, q, z, fixed)
SIDES_OK = [
    ((0.3 + 0j,), (0.7 + 0j,), 0.5 + 0j, 0.4 + 0j, -1),
    ((0.3 + 0j,), (0.7 + 0j,), 0.5 + 0j, 0.4 + 0j, 25),
    # empty parameter lists: the geometric series z + z^2 + ...
    ((), (), 0.5 + 0j, 0.3 + 0j, -1),
    ((), (), 0.5 + 0j, 0.3 + 0j, 9),
]


@pytest.mark.parametrize("side", SIDES_OK)
def test_series_side_sum_matches_plain_sum(side):
    num, den, q, z, fixed = side
    acc, tail, used, status = K.series_side(num, den, q, z, 1, 0j, False,
                                            fixed, *ARGS)[:4]
    assert status == K.OK
    if fixed >= 0:
        assert (used, tail) == (fixed, 0.0)
    else:
        # the adaptive sum adds its geometric tail: it is the whole sum
        # to within the bound it reports
        assert 0.0 <= tail <= 1e-15 * (1.0 + abs(acc))
        used = 200
    want = sum(psi_term_oracle(num, den, q, z, n) for n in range(1, used + 1))
    assert acc == pytest.approx(want, rel=1e-13)


def test_series_side_long_downward_walk_ends_ok():
    # several hundred steps: the interleaved step product and the
    # multiplicative prefactor stay in range far past where the separate
    # top and bottom products would overflow
    q, X, B, C, D, E = 0.5, 1.2, 0.3, 0.1102, 0.35, 0.45
    num = tuple(map(complex, (B*C*D*E*X*q, B*X*q, D*X*q, E*X*q)))
    den = tuple(map(complex, (X, C*D*E*X, B*C*E*X, B*C*D*X)))
    args = (num, den, complex(q), complex(C / q ** 3), -1,
            complex(B*C*D*E*X*X), True)
    out = K.series_side(*args, -1, 1e-15, 10000, 6, 1e-12, 5e-15, 64)
    assert out[3] == K.OK
    assert math.isfinite(abs(out[0])) and out[1] < 1e-12
    # the certified tail stops the walk within a few dozen steps; the
    # same walk taken to 400 steps stays in range and agrees with it
    long = K.series_side(*args, 400, 1e-15, 10000, 6, 1e-12, 5e-15, 64)
    assert (long[2], long[3]) == (400, K.OK)
    assert out[2] < 100
    assert abs(long[0] - out[0]) <= out[1] + 1e-14 * abs(long[0])


# (num, den, q, z, direction, vwp_a, use_vwp), status, used, bad_exp
SIDES_STOPPED = [
    # (1 - 2 q) = 0 at the second upward step: one term, then terminated
    (((2.0 + 0j, 3.0 + 0j), (0.23 + 0j, 0.17 + 0j), 0.5 + 0j, 0.4 + 0j,
      1, 0j, False), K.TERMINATED, 1, 1),
    # downward terms grow like |(0.7/0.3) / 0.4|^n past the overflow guard
    (((0.3 + 0j,), (0.7 + 0j,), 0.5 + 0j, 0.4 + 0j, -1, 0j, False),
     K.DIVERGED, 196, 0),
    (((0.3 + 0.1j, 0.9j), (0.7 - 0.2j, 1.3 + 0j), 0.45 + 0.1j, 0.6 - 0.3j,
      -1, 0.5 + 0.2j, True), K.DIVERGED, 110, 0),
    # q^-917 overflows while the terms are still about 2e-2: den[0] q^m
    # is inf, which the zero test reads as inf <= inf; not a termination.
    # The limit ratio is 1.0006 in modulus, so no tail bound stops the
    # walk first (at z = 0.6 - 0.3j it is 0.9996, and the walk ends OK)
    (((1.3 + 0.2j, -1.1j), (0.4 - 0.1j, 0.5 + 0j), 0.45 + 0.1j,
      0.5994 - 0.2997j, -1, 0.05 + 0.02j, True), K.DIVERGED, 916, 0),
]


@pytest.mark.parametrize("side, status, used, bad_exp", SIDES_STOPPED)
def test_series_side_stop_status(side, status, used, bad_exp):
    out = K.series_side(*side, -1, *ARGS)
    assert (out[2], out[3], out[6]) == (used, status, bad_exp)
    assert out[1] == (0.0 if status == K.TERMINATED else math.inf)


def _mp_side(side, used: int):
    """(sum, sum of |t_k| for k <= used) of one direction of a walk, in
    40-digit mpmath: its terms by the same step ratios, to three terms in
    a row below 1e-36 of the sum after the step `used`, where the walk
    certified that every later step ratio is below 1."""
    num, den, q, z, direction, vwp_a, use_vwp = side
    down = direction < 0
    with mpmath.workdps(40):
        q, z, a = mpmath.mpc(q), mpmath.mpc(z), mpmath.mpc(vwp_a)
        tops, bots = [[mpmath.mpc(x) for x in row]
                      for row in ((den, num) if down else (num, den))]
        qm, shift = (1 / q, q ** -2) if down else (mpmath.mpc(1), q ** 2)
        g, q2n = mpmath.mpc(1), mpmath.mpc(1)
        total, absum = mpmath.mpc(0), mpmath.mpf(0)
        k = small = 0
        while k <= used or small < 3:
            k += 1
            g *= 1 / z if down else z
            for t, b in zip(tops, bots):
                g *= (1 - t * qm) / (1 - b * qm)
            q2n *= shift
            term = g * (1 - a * q2n) / (1 - a) if use_vwp else g
            total += term
            if k <= used:
                absum += abs(term)
            small = small + 1 if abs(term) < 1e-36 * (1 + abs(total)) else 0
            qm = qm / q if down else qm * q
        return complex(total), float(absum)


def _walks_of(monkeypatch, fn, *args):
    """The (num, den, q, z, direction, vwp_a, use_vwp) of each walk that
    fn(*args) takes."""
    got = []
    kernel = K.series_side

    def spy(*walk):
        got.append(walk[:7])
        return kernel(*walk)

    with monkeypatch.context() as m:
        m.setattr(K, "series_side", spy)
        fn(*args)
    return got


def _tail_walks(monkeypatch):
    """(name, side) of the walks whose tails are held to mpmath."""
    walks = []
    for name, kind, con, fn in (
            ("bailey_a", "bailey_a", SampleConstraints(),
             lambda p: ID.check_bailey("a", p)),
            ("t_params", "t_params", SampleConstraints(), S.eval_T),
            ("|q| near 0.9", "bailey_a",
             SampleConstraints(q_modulus_range=(0.88, 0.9)),
             lambda p: ID.check_bailey("a", p))):
        for p in sample(kind, con, 5, 3):
            walks += [(name, w) for w in _walks_of(monkeypatch, fn, p)]
    walks += [("rogers", w) for w in _walks_of(
        monkeypatch, ID.check_rogers, 0.3, 0.1, 0.35, 0.45, QContext(0.5))]
    walks += [
        # |z| = 0.95 upward; a limit ratio of modulus 0.95 downward
        ("disk edge", ((0.3 + 0.1j, -0.5j), (0.7 + 0j, 1.3 + 0.2j),
                       0.5 + 0.2j, 0.95 * cmath.exp(0.3j), 1, 0j, False)),
        ("disk edge", ((1.3 + 0.2j, -1.1j), (0.4 - 0.1j, 0.5 + 0j),
                       0.45 + 0.1j, (0.6 - 0.3j) * (0.99957 / 0.95), -1,
                       0.05 + 0.02j, True)),
        # a zero top base downward: the limit ratio is 0
        ("limit ratio 0", ((0.5 + 0j, 0.2j), (0j, 0.3 + 0j), 0.6 + 0.1j,
                           0.4 + 0j, -1, 0j, False)),
        # downward zero bottoms that zero tops cancel, in one pair (its
        # factor is 1) and across two: the limit ratio is (0.1/0.9)/0.5
        ("zero bottom", ((0j, 0.9 + 0j), (0j, 0.1 + 0j), 0.5 + 0j,
                         0.5 + 0j, -1, 0j, False)),
        ("zero bottom", ((0j, 0.9 + 0j), (0.1 + 0j, 0j), 0.5 + 0j,
                         0.5 + 0j, -1, 0j, False))]
    return walks


#: walks whose terms all have one sign and whose step ratios attain the
#: majorant: the error of the summed tail is close to its bound
_ALIGNED = [((-0.8 + 0j,), (0.6 + 0j,), 0.9 + 0j, 0.1 + 0j, 1, 0j, False),
            ((3.0 + 0j,), (-0.8 + 0j,), 0.9 + 0j, -0.5 + 0j, -1, 0j, False)]


@pytest.mark.parametrize("tail_tol", [1e-15, 1e-8, 1e-4])
def test_series_side_tail_bounds_the_remainder(tail_tol, monkeypatch):
    # the sum with its geometric tail added is within the returned tail,
    # plus the rounding of the terms summed, of the whole sum
    kinds = set()
    for name, side in _tail_walks(monkeypatch) + [("aligned", w)
                                                  for w in _ALIGNED]:
        acc, tail, used, status = K.series_side(
            *side, -1, tail_tol, 10000, 3, 1e-12, 5e-15, 64)[:4]
        assert status == K.OK, (name, side)
        assert tail >= 0.0
        whole, absum = _mp_side(side, used)
        err = abs(whole - acc)
        assert err <= tail + 16 * _U * (used + 2) * absum, (name, side)
        if name == "aligned" and tail_tol > 1e-15:
            assert err >= 0.8 * tail, side
        kinds.add((name, side[4]))
    assert kinds >= {(name, d) for d in (1, -1) for name in (
        "bailey_a", "t_params", "|q| near 0.9", "disk edge", "aligned")}
    assert {("rogers", 1), ("limit ratio 0", -1),
            ("zero bottom", -1)} <= kinds


# --- the walk with every factor tested, kept as the reference that the
# quiet steps must reproduce bit for bit ---


def ref_series_side(num, den, q: complex, z: complex, direction: int,
                    vwp_a: complex, use_vwp: bool, fixed_terms: int,
                    tail_tol: float, max_terms: int, window: int,
                    pole_eps: float, zero_eps: float, recompute_every: int):
    """`series_side` with no quiet stretch and no screen before the tail
    bound: every factor of every step pays its zero or pole test, and
    every adaptive step past the last crossing works out the bound."""
    down = direction < 0
    one_minus_a = 1.0 - vwp_a if use_vwp else 1.0 + 0j
    step_z = 1.0 / z if down else z
    # the factors on top of the step multiplier (their zeros terminate) and
    # below it (their zeros are poles); bad_is_num flags a num-side factor
    tops, bots, top_is_num = (den, num, 0) if down else (num, den, 1)
    n_min = 0
    rule = None
    if fixed_terms < 0:
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
        rule = ref_tail_rule(tops, bots, step_z, q,
                             vwp_a if use_vwp else 0j, down)
    acc = 0j
    g = 1.0 + 0j            # prod (num;q)_n / (den;q)_n * z^n at current n
    qe = 1.0 / q if down else 1.0 + 0j   # q^m for the next step's factors
    h = 1.0 + 0j            # g * q^{2n} for the prefactor
    qsq = q * q
    peak = 0.0              # max |t(n)| over the steps taken
    steps = 0
    # s of the next step: |q^m| upward, 1/|q^m| downward
    s = abs(q) if down else 1.0
    nt = len(tops)
    nb = len(bots)
    npair = nt if nt < nb else nb
    ftop = [0j] * nt
    fbot = [0j] * nb
    while True:
        if fixed_terms >= 0:
            if steps >= fixed_terms:
                return acc, 0.0, steps, OK, 0, 0, 0, peak
        elif steps >= max_terms:
            return acc, float("inf"), steps, BUDGET, 0, 0, 0, peak
        n = -(steps + 1) if down else steps + 1
        e = n if down else n - 1
        for k in range(nt):
            w = tops[k] * qe
            f = 1.0 - w
            if abs(f) <= zero_eps * (1.0 + abs(w)):
                return _stop(acc, steps, TERMINATED, w, top_is_num, k, e,
                             peak)
            ftop[k] = f
        for k in range(nb):
            w = bots[k] * qe
            f = 1.0 - w
            if abs(f) <= pole_eps * (1.0 + abs(w)):
                return _stop(acc, steps, POLE, w, 1 - top_is_num, k, e,
                             peak)
            fbot[k] = f
        steps += 1
        r = step_z
        for k in range(npair):
            r = r * ftop[k] / fbot[k]
        for k in range(npair, nt):
            r = r * ftop[k]
        for k in range(npair, nb):
            r = r / fbot[k]
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
        if abs_term > _OVERFLOW or abs_term != abs_term:
            return acc, float("inf"), steps, DIVERGED, 0, 0, 0, peak
        s *= abs(q)
        if rule is not None and steps >= n_min:
            tail = ref_tail_bound(abs_term, s, rule)
            if tail <= _TAIL_SHARE * tail_tol * (1.0 + abs(acc)):
                rho_inf = rule[4]
                if rho_inf:
                    acc += term * rho_inf / (1.0 - rho_inf)
                return acc, tail, steps, OK, 0, 0, 0, peak
        if recompute_every > 0 and steps % recompute_every == 0:
            qe = cpow_int(q, -(steps + 1) if down else steps)
        else:
            qe = qe / q if down else qe * q


def ref_tail_rule(tops, bots, step_z, q, vwp_a, down):
    """(c0, k0, coeffs, vwp, rho_inf) of a walk's certified tail, or None
    where none can hold. The step ratio is rho_inf (1 + delta) with |1 +
    delta| at most prod (1 + T s) / (1 - B s) over (T, B) = (|top|,
    |bot|) upward and (1/|top|, 1/|bot|) downward, and (|a q^2|, |a|) or
    (1/|a|, 1/|a q^2|) at s^2 for the very-well-poised factor. Downward a
    zero top takes T = 0 and a power of s out of the limit, a zero bottom
    B = 0 and a power of s into it; k0 counts the powers taken out."""
    c0 = abs(step_z)
    k0 = 0
    rho_inf = step_z
    coeffs = []
    try:
        for t, b in zip(tops, bots):
            if down:
                T = B = 0.0
                if t == 0:
                    k0 += 1
                else:
                    rho_inf = rho_inf * t
                    c0 = c0 * abs(t)
                    T = 1.0 / abs(t)
                if b == 0:
                    k0 -= 1
                else:
                    rho_inf = rho_inf / b
                    c0 = c0 / abs(b)
                    B = 1.0 / abs(b)
                coeffs.append((T + B, B))
            else:
                coeffs.append((abs(t) + abs(b), abs(b)))
        vwp = None
        if vwp_a != 0:
            if down:
                rho_inf = rho_inf / (q * q)
                c0 = c0 / abs(q * q)
                bot = 1.0 / (abs(vwp_a) * abs(q * q))
                vwp = (1.0 / abs(vwp_a) + bot, bot)
            else:
                vwp = (abs(vwp_a) * abs(q * q) + abs(vwp_a), abs(vwp_a))
    except ZeroDivisionError:
        return None
    if k0 < 0:
        return None
    if k0:
        return c0, k0, coeffs, vwp, 0j
    if not c0 < 1.0:
        return None
    return c0, k0, coeffs, vwp, rho_inf


def ref_tail_bound(at, s, rule):
    """|t_n| (rb / (1 - rb) - rho / (1 - rho)), rb the majorant of every
    later step ratio and rho its limit (0 where k0 > 0), or inf where the
    majorant is not below 1; epsilon = rb / rho - 1 summed factor by
    factor as (1 + e)(1 + f) - 1, so it keeps its digits."""
    c0, k0, coeffs, vwp = rule[:4]
    e = 0.0
    factors = [(tb, b, s) for tb, b in coeffs]
    if vwp:
        factors.append((*vwp, s * s))
    for tb, b, x in factors:
        d = 1.0 - b * x
        if not d > 0.0:
            return math.inf
        f = tb * x / d
        e = e + f + e * f
    if k0:
        rb = c0 * s ** k0 * (1.0 + e)
        rho = 0.0
        gap = rb
    else:
        gap = c0 * e
        rb = c0 + gap
        rho = c0
    if not rb < 1.0:
        return math.inf
    return at * gap / ((1.0 - rb) * (1.0 - rho))


def _outcome(kernel, args):
    """repr of a kernel's return, or the name of what it raised."""
    try:
        return repr(kernel(*args))
    except ArithmeticError as exc:
        return type(exc).__name__


def _in_range(value):
    try:
        return abs(value) < math.inf
    except OverflowError:
        return False


def _param(rng, q):
    """A factor base x: one time in three x = q^-j (1 + eps), so that the
    factor 1 - x q^j vanishes or nearly does; otherwise a modulus drawn
    log-uniformly over 1e-300..1e300 one time in five, else 1e-3..1e3."""
    phase = cmath.exp(1j * rng.uniform(-math.pi, math.pi))
    u = rng.random()
    if u < 1 / 3:
        eps = rng.choice((0.0, 1e-16, 1e-13, 1e-11))
        return q ** -rng.randint(-20, 20) * (1.0 + eps * phase)
    top = 300.0 if u < 1 / 3 + 2 / 15 else 3.0
    return 10.0 ** rng.uniform(-top, top) * phase


def _base(rng):
    r = rng.choice((1e-3, 0.999, rng.uniform(0.05, 0.95),
                    rng.uniform(0.05, 0.95)))
    return r * cmath.exp(1j * rng.uniform(-math.pi, math.pi))


def _tail_tol(rng):
    return 10.0 ** rng.uniform(-16.0, math.log10(0.5))


def _qpoch_inf_args(rng):
    """Arguments of `qpoch_inf`; the zero test's eps is at times wide
    enough to fire off |x q^k| = 1. One q in four is real, where at
    |q| = 0.999 the product of an |x| near 1 underflows."""
    q = _base(rng)
    if rng.random() < 0.25:
        q = complex(abs(q), 0.0)
    return (_param(rng, q), q, _tail_tol(rng),
            rng.choice((1, 3, 30, 10000, 10000)), rng.randint(1, 4),
            rng.choice((5e-15, 5e-15, 0.1, 0.25, 0.3)))


def _series_side_args(rng):
    q = _base(rng)
    num = tuple(_param(rng, q) for _ in range(rng.randint(0, 5)))
    den = tuple(_param(rng, q) for _ in num)
    z = 10.0 ** rng.uniform(-2.0, 2.0) * cmath.exp(
        1j * rng.uniform(-math.pi, math.pi))
    use_vwp = rng.random() < 0.5
    vwp_a = _param(rng, q) if use_vwp else 0j
    fixed = -1 if rng.random() < 0.7 else rng.randint(0, 40)
    return (num, den, q, z, rng.choice((1, -1)), vwp_a, use_vwp, fixed,
            _tail_tol(rng), rng.choice((1, 2, 3, 10, 100, 400)),
            rng.randint(1, 4), 1e-12, 5e-15, rng.choice((64, 64, 7, 1, 0)))


# --- the infinite products, against the product with every head factor
# tested and no series, and against mpmath ---

#: the unit roundoff of a double
_U = 2.0 ** -53


def _normal(z) -> bool:
    """Whether |z| lies in the normal range of doubles."""
    try:
        return sys.float_info.min <= abs(z) < math.inf
    except OverflowError:
        return False


def ref_qpoch_inf(a: complex, q: complex, tail_tol: float, max_terms: int,
                  window: int, zero_eps: float):
    """`qpoch_inf` with no series. The head takes the factors 1 - a q^k
    while |a q^k| >= min(1/4, 1 - |q|), each tested for a zero, the
    budget and double range; the product then runs on while
    |a q^k| >= u (1 - |q|), past which the rest is within 2u of 1.
    Returns (value, terms, terminated, status, tail): terms counts the
    head's factors and tail the factors after it, None at a stop in the
    head or an exact value."""
    if a == 0:
        return 1.0 + 0j, 1, 1, OK, None
    if not _in_range(a):
        return 1.0 - a, 1, 0, DIVERGED, None
    tau = min(0.25, 1.0 - abs(q))
    acc, w, y, k = 1.0 + 0j, 1.0 + 0j, a, 0
    while abs(y) >= tau:
        if k == max_terms:
            return acc, k, 0, BUDGET, None
        f = 1.0 - y
        k += 1
        if abs(f) <= zero_eps * (1.0 + abs(y)):
            return 0j, k, 1, OK, None
        acc *= f
        if not _normal(acc):
            return acc, k, 0, DIVERGED, None
        w *= q
        y = a * w
    n = 0
    while abs(y) >= _U * (1.0 - abs(q)):
        acc *= 1.0 - y
        y *= q
        n += 1
    return acc, k, 0, OK if _normal(acc) else DIVERGED, n


def _euler_terms(q: complex, tail_tol: float) -> int:
    """M + 1, the terms of Euler's series at q: M is the first m with
    b_(m+1) tau^(m+1) / (1 - rho) <= tail_tol / 4, b_n = |q|^(n(n-1)/2) /
    (|q|;|q|)_n and rho = |q|^(m+1) tau / (1 - |q|^(m+2))."""
    r = abs(q)
    tau = min(0.25, 1.0 - r)
    c, m = 1.0, 0
    while True:
        c *= r ** m * tau / (1.0 - r ** (m + 1))
        rho = r ** (m + 1) * tau / (1.0 - r ** (m + 2))
        if c / (1.0 - rho) <= tail_tol / 4:
            return m + 1
        m += 1


def _assert_product(got, want, q: complex, tail_tol: float):
    """A kernel's (value, est_error, terms, terminated, status) against
    the `ref_qpoch_inf` of the same base. A stop in the head and an exact
    value are the same bit for bit. Otherwise the heads agree, and the
    values differ by the truncation of the series, which est_error
    bounds, and by the rounding of the series (at most 8u per term of
    sums of size up to e/|S| <= 4e) and of the reference's tail (at
    most 4u per factor, and 2u for the factors it leaves out)."""
    value, est, terms, exact, status = got
    w_value, head, w_exact, w_status, tail = want
    assert (exact, status) == (w_exact, w_status)
    if tail is None:
        assert (repr(value), est, terms) == (
            repr(w_value), 0.0 if exact else math.inf, head)
    elif status == DIVERGED:
        assert (est, terms) == (math.inf, head)
    else:
        series = _euler_terms(q, tail_tol)
        assert terms == head + series
        size = abs(w_value)
        assert est <= tail_tol * size * (1.0 + 1e-9)
        assert abs(value - w_value) <= est + _U * (
            88 * series + 4 * tail + 2) * size


def _diverged_kind(value) -> str:
    """Which end of double range a DIVERGED product left by."""
    return "underflow" if _in_range(value) else "overflow"


def test_qpoch_inf_matches_the_fully_tested_product():
    rng = random.Random(13)
    seen = set()
    for _ in range(2000):
        args = _qpoch_inf_args(rng)
        got = K.qpoch_inf(*args)
        _assert_product(got, ref_qpoch_inf(*args), args[1], args[2])
        seen.add(got[4])
        if got[3] and args[0] != 0:
            seen.add(("exact zero", args[5]))
        if got[4] == DIVERGED:
            seen.add(_diverged_kind(got[0]))
    assert seen == {OK, BUDGET, DIVERGED, "underflow", "overflow",
                    ("exact zero", 5e-15), ("exact zero", 0.1),
                    ("exact zero", 0.25), ("exact zero", 0.3)}


def ref_qpoch_inf_ratio(tops, bots, q: complex, tail_tol: float,
                        max_terms: int):
    """The stops of `qpoch_inf_ratio` as `ref_qpoch_inf` run base by base:
    (out, status, slot), out holding each product up to the first that
    stops, or of bots that vanishes (POLE), with that status and slot, or
    every product, OK and their count."""
    out = []
    for slot, x in enumerate((*tops, *bots)):
        r = ref_qpoch_inf(x, q, tail_tol, max_terms, None, ZERO_EPS)
        if r[3] != OK:
            return out, r[3], slot
        if slot >= len(tops) and r[0] == 0:
            return out, POLE, slot
        out.append(r)
    return out, OK, len(out)


def _row(rng, q, size: int) -> list:
    """Up to size bases of `_param`, one in ten of them 0 and one in
    thirty not finite."""
    return [0j if u < 0.1 else
            rng.choice((complex(math.inf, 0.0), complex(math.nan, 1.0)))
            if u > 29 / 30 else _param(rng, q)
            for u in (rng.random() for _ in range(rng.randint(0, size)))]


#: rows whose ratio leaves double range at each end, and whose top side
#: leaves it at each end where the ratio does not: (-2^36;q)_inf and
#: (-2^40;q)_inf are about 3.5e201 and 7.9e247 at q = 1/2, and
#: (0.3;0.999)_inf about 2.3e-142
_EDGE_RATIOS = [((-2.0 ** 36, -2.0 ** 36), (-2.0 ** 36,), 0.5),
                ((-2.0 ** 40, -2.0 ** 40), (0.5875,), 0.5),
                ((0.3, 0.3, 0.3), (0.3, 0.3), 0.999),
                ((0.3, 0.3, 0.3), (), 0.999)]


def _ratio_cases():
    """Arguments of `qpoch_inf_ratio`: rows of up to 4 bases each from
    `_row`, one in eight with no bots, and the edge rows."""
    rng = random.Random(17)
    cases = []
    for _ in range(1500):
        _, q, tail_tol, max_terms = _qpoch_inf_args(rng)[:4]
        bots = [] if rng.random() < 0.125 else _row(rng, q, 4)
        cases.append((_row(rng, q, 4), bots, q, tail_tol, max_terms))
    for tops, bots, q in _EDGE_RATIOS:
        cases.append(([complex(x) for x in tops],
                      [complex(x) for x in bots], complex(q), 1e-15, 10000))
    return cases


def _mp_fold(results):
    """The product of the lone results (value, est_error, ...) in mpmath,
    its bound composed as the kernel does, and its partial products."""
    v, e, partial = mpmath.mpf(1), mpmath.mpf(0), []
    for i, (rv, re, *_) in enumerate(results):
        rv = mpmath.mpc(rv)
        e = re if not i else abs(v) * re + abs(rv) * e + e * re
        v = rv if not i else v * rv
        partial.append(v)
    return v, e, partial


def _outside(x) -> str:
    """"above" or "below" where the nonzero mpmath modulus x is out of the
    normal double range, else ""."""
    if x > sys.float_info.max:
        return "above"
    return "below" if 0 < x < sys.float_info.min else ""


def test_qpoch_inf_ratio_matches_the_fully_tested_product():
    # stops and slots as the reference run base by base meets them; each
    # product of a ratio that runs through within its reference's bound,
    # and the ratio within the fold's rounding of the lone products'
    # ratio in mpmath, with the bound composed from theirs, or refused
    # where that ratio is out of the normal double range
    seen = set()
    for args in _ratio_cases():
        tops, bots, q, tail_tol, max_terms = args
        value, est, terms, exact, status, slot = K.qpoch_inf_ratio(*args)
        want, w_status, w_slot = ref_qpoch_inf_ratio(*args)
        seen.add(w_status)
        if w_status != OK:
            assert (status, slot) == (w_status, w_slot), args
            if slot:
                seen.add("stop in mid-row")
            if not _in_range([*tops, *bots][slot]):
                seen.add("not finite")
            continue
        row = [*tops, *bots]
        lone = [K.qpoch_inf(x, q, tail_tol, max_terms, 3, ZERO_EPS)
                for x in row]
        for got, w in zip(lone, want):
            _assert_product(got, w, q, tail_tol)
        seen.update("zero base" if x == 0 else "exact zero" if r[3] else OK
                    for x, r in zip(row, lone))
        n = len(tops)
        assert terms == sum(r[2] for r in lone)
        if len(row) == 1 and not bots:
            assert (repr(value), est, terms, exact) == (
                repr(lone[0][0]), *lone[0][1:4])
        with mpmath.workdps(30):
            tv, te, tp = _mp_fold(lone[:n])
            bv, be, bp = _mp_fold(lone[n:])
            ratio = tv / bv
            bound = (te + abs(ratio) * be) / abs(bv)
            end = _outside(abs(ratio))
            if end:
                seen.add("ratio " + end)
                assert (status, slot) == (DIVERGED, len(row)), args
                continue
            assert (status, slot) == (OK, len(row)), args
            if any(_outside(abs(x)) for x in tp + bp):
                seen.add("side leaves range")
            assert abs(value - ratio) <= 8 * len(row) * _U * abs(ratio)
            assert abs(est - bound) <= 1e-12 * bound
        assert exact == ((all(r[3] for r in lone[:n]) or tv == 0)
                         and all(r[3] for r in lone[n:]))
    assert seen == {OK, BUDGET, DIVERGED, POLE, "zero base", "exact zero",
                    "stop in mid-row", "not finite", "ratio above",
                    "ratio below", "side leaves range"}


@pytest.mark.parametrize("a, q", [(0.5875 + 0j, 0.999 + 0j),
                                  (-2.83e13 + 0j, 0.5 + 0j)])
def test_qpoch_inf_value_out_of_range_after_its_head_is_diverged(a, q):
    # the heads end at about 2 times the smallest normal double and 0.82
    # times the largest; the series, about 0.37 and 1.5, takes the value
    # out of range
    want = ref_qpoch_inf(a, q, 1e-15, 10000, None, 5e-15)
    assert want[3] == DIVERGED and want[4] is not None
    val, est, terms, exact, status = K.qpoch_inf(a, q, 1e-15, 10000, 3,
                                                 5e-15)
    assert (est, terms, exact, status) == (math.inf, want[1], 0, DIVERGED)
    assert not _normal(val)


#: the worst (error - est_error) / (u |exact|) measured on 660 draws per
#: band, over four seeds, is 3x to 7x below these. A base near a zero of
#: a factor is ill-conditioned, and more of them come close as |q| nears 1
_ROUNDING = {0.1: 16, 0.3: 64, 0.5: 64, 0.7: 128, 0.9: 2048, 0.95: 2048}


@pytest.mark.parametrize("band", sorted(_ROUNDING))
def test_qpoch_inf_within_its_bound_of_mpmath(band):
    # real q and complex q of modulus band, |x| log-uniform in [0.01, 30];
    # est_error bounds the truncation, and the head's and series' rounding
    # is within a multiple of u that grows with the head's length
    rng = random.Random(int(band * 100))
    for i in range(16):
        q = band * cmath.exp(1j * (rng.uniform(-math.pi, math.pi) if i % 2
                                   else 0.0))
        x = 10.0 ** rng.uniform(-2.0, math.log10(30.0)) * cmath.exp(
            1j * rng.uniform(-math.pi, math.pi))
        val, est, _, exact, status = K.qpoch_inf(x, q, 1e-15, 10000, 3,
                                                 5e-15)
        assert (exact, status) == (0, K.OK)
        with mpmath.workdps(40):
            want = mpmath.qp(mpmath.mpc(x), mpmath.mpc(q))
            err = float(abs(val - want))
            size = float(abs(want))
        assert err <= est + _ROUNDING[band] * _U * size, (x, q)


def test_qpochhammer_inf_near_one_holds_no_list_of_factors():
    # at q = 0.9999 the head of 0.01 runs to k = 46,000, and the product
    # is about 2.9e-44
    tracemalloc.start()
    try:
        r = Q.qpochhammer_inf(0.01, QContext(0.9999, TruncationPolicy(
            max_terms=10 ** 6)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 1e-45 < abs(r.value) < 1e-42
    assert peak < 2 ** 20


@pytest.mark.parametrize("x", [0.5 + 0j, 0.2 + 0j])
def test_qpoch_inf_ratio_builds_no_power_past_max_terms(x):
    # at |q| = 0.9999 the heads of 0.2 and 0.5 run to about k = 76,000
    # and 85,000; the budget stops them at 50 factors, with no more
    # memory than the call's few constants
    tracemalloc.start()
    try:
        out = K.qpoch_inf_ratio((0j,), (x,), 0.9999 + 0j, 1e-15, 50)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out[4:] == (K.BUDGET, 1)
    assert peak < 4096


# --- the infinite-product compositions, against products taken one
# `qpochhammer_inf` call at a time and multiplied in plain doubles, or in
# mpmath where the plain product leaves double range ---


class _LeftRange(Exception):
    """A plain-double product of lone products whose partial value or
    bound left the normal double range; tops and bots hold the lone
    results of its top and bottom rows."""

    def __init__(self, tops, bots):
        super().__init__()
        self.tops, self.bots = tops, bots


def _normal_or_zero(x) -> bool:
    return x == 0 or _normal(x)


def ref_mul(a: EvalResult, b: EvalResult) -> EvalResult:
    """Product of two certified values; first-order error composition."""
    value = a.value * b.value
    est = (abs(a.value) * b.est_error + abs(b.value) * a.est_error
           + a.est_error * b.est_error)
    exact = (a.terminated and b.terminated) or value == 0
    return EvalResult(value, est, a.terms_used + b.terms_used, exact)


def ref_fold(results):
    """The lone results multiplied in turn by `ref_mul` from the first (1
    for none), or None where a partial value or bound leaves the normal
    double range."""
    out = results[0] if results else EvalResult(1.0 + 0j, 0.0, 0, True)
    for r in results[1:]:
        out = ref_mul(out, r)
        if not (_normal_or_zero(out.value)
                and _normal_or_zero(out.est_error)):
            return None
    return out


def ref_products(tops, bots=()):
    """The lone results of tops, folded by `ref_fold`, over those of bots;
    _LeftRange where a fold or the ratio leaves the normal double range."""
    top, bot = ref_fold(tops), ref_fold(bots)
    if top is None or bot is None:
        raise _LeftRange(tops, bots)
    if not bots:
        return top
    value = top.value / bot.value
    est = (top.est_error + abs(value) * bot.est_error) / abs(bot.value)
    if not (_normal_or_zero(value) and _normal_or_zero(est)):
        raise _LeftRange(tops, bots)
    return EvalResult(value, est, top.terms_used + bot.terms_used,
                      top.terminated and bot.terminated)


def ref_qpochhammer_inf_multi(as_, ctx):
    return ref_products([Q.qpochhammer_inf(a, ctx) for a in as_])


def _ref_theta_row(xs, ctx) -> list:
    """(x;q)_inf and (q/x;q)_inf for each x of xs in turn."""
    out = []
    for x in xs:
        x = Q._as_complex(x)
        if x == 0:
            raise DomainError("theta requires x != 0")
        out += [Q.qpochhammer_inf(x, ctx), Q.qpochhammer_inf(ctx.q / x, ctx)]
    return out


def ref_theta(x, ctx):
    return ref_products(_ref_theta_row((x,), ctx))


def ref_theta_multi(xs, ctx):
    return ref_products(_ref_theta_row(xs, ctx))


def ref_ratio_inf(ctx, p, num, den):
    tops = [Q.qpochhammer_inf(a, ctx) for a in p.bases(num)]
    bots = []
    for name, val in p.pairs(den):
        r = Q.qpochhammer_inf(val, ctx)
        if r.value == 0:
            raise PoleError(f"denominator product ({name};q)_inf vanishes",
                            factor=name)
        bots.append(r)
    return ref_products(tops, bots)


def _with_ref_ratio(fn):
    """fn with `series._ratio_inf` replaced by `ref_ratio_inf`."""
    def ref(*args):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(S, "_ratio_inf", ref_ratio_inf)
            return fn(*args)
    return ref


def _assert_outcome(fn, ref, *args) -> str:
    """fn's outcome against ref's: the same repr, or where ref's plain
    product leaves double range ("rescued"), a value within the fold's
    rounding of mpmath's product of the same lone products, with the
    bound composed from theirs, or DomainError where that product is out
    of the normal range ("refused"). Returns the kind of outcome."""
    try:
        want = _value_outcome(ref, *args)
    except _LeftRange as left:
        sides = [[(r.value, r.est_error) for r in side]
                 for side in (left.tops, left.bots)]
        with mpmath.workdps(30):
            tv, te, _ = _mp_fold(sides[0])
            bv, be, _ = _mp_fold(sides[1])
            ratio = tv / bv
            bound = (te + abs(ratio) * be) / abs(bv)
            if _outside(abs(ratio)):
                assert _value_outcome(fn, *args) == repr((
                    "DomainError", "the composed product is out of double "
                    "range", None)), args
                return "refused"
            got = fn(*args)
            n = len(sides[0]) + len(sides[1])
            assert abs(got.value - ratio) <= 8 * n * _U * abs(ratio), args
            assert abs(got.est_error - bound) <= 1e-12 * bound + 1e-323
        rows = left.tops + list(left.bots)
        assert got.terms_used == sum(r.terms_used for r in rows)
        assert got.terminated == (
            (all(r.terminated for r in left.tops) or tv == 0)
            and all(r.terminated for r in left.bots))
        return "rescued"
    assert _value_outcome(fn, *args) == want, args
    return _kind(want)


def _value_outcome(fn, *args):
    """repr of fn's value, or what it raised with its message and
    factor."""
    try:
        return repr(fn(*args))
    except (QSixError, ArithmeticError) as exc:
        return repr((type(exc).__name__, str(exc),
                     getattr(exc, "factor", None)))


def _kind(outcome: str) -> str:
    """"value", or the name of the exception of a `_value_outcome`."""
    return "value" if outcome.startswith("EvalResult") else \
        outcome.split("'")[1]


def _modulus(rng):
    """A parameter: modulus 1e-2..1e2 mostly; one time in ten so small
    that a base dividing by it is out of range or not finite."""
    phase = cmath.exp(1j * rng.uniform(-math.pi, math.pi))
    if rng.random() < 0.1:
        return rng.choice((1e-150, 1e-200, 1e-310)) * phase
    return 10.0 ** rng.uniform(-2.0, 2.0) * phase


def _near(rng, q):
    """t = q^-j (1 + eps): a base set to t has the factor 1 - t q^j on or
    next to 0."""
    eps = rng.choice((0.0, 0.0, 1e-16, 1e-11))
    return q ** -rng.randint(-3, 8) * (1.0 + eps)


#: one parameter solved for, so that the named base takes a value t:
#: bailey's and T's denominators and numerators
_BAILEY_SET = (lambda p, t: {"e": p.a * p.q / t},
               lambda p, t: {"e": p.q / t},
               lambda p, t: {"e": p.a * p.a * p.q / (p.b * p.c * p.d * t)},
               lambda p, t: {"e": p.a * p.q / (p.d * t)},
               lambda p, t: {"a": p.q / t})
_T_SET = (lambda p, t: {"X": t},
          lambda p, t: {"X": 1.0 / (p.B * t)},
          lambda p, t: {"C": t * p.q ** 3},
          lambda p, t: {"C": t / (p.B * p.D * p.X)},
          lambda p, t: {"C": 1.0 / (p.B * p.D * p.E * p.X * t)},
          lambda p, t: {"C": t * p.q / p.B})


def _closed_cases():
    """(function, args) calls of every closed product."""
    rng = random.Random(19)
    cases = []
    for i in range(500):
        q = _base(rng)
        if abs(q) > 0.9:
            q *= 0.9 / abs(q)
        policy = TruncationPolicy(max_terms=rng.choice((4, 40, 10000, 10000)))
        ctx = QContext(q, policy)
        b, c, d, e, x = (_modulus(rng) for _ in range(5))
        bp = BaileyParams(q=q, a=_modulus(rng), b=b, c=c, d=d, e=e)
        tp = TParams(q=q, X=x, B=b, C=c, D=d, E=e)
        if i % 2:
            t = _near(rng, q)
            try:
                bp = bp.replace(**rng.choice(_BAILEY_SET)(bp, t))
                tp = tp.replace(**rng.choice(_T_SET)(tp, t))
            except (QSixError, ArithmeticError):
                pass  # a solved parameter out of range: keep the draw
        cases += [(S.bailey_closed_a, bp, policy),
                  (S.bailey_closed_X, tp, policy),
                  (S.F_function, tp, policy),
                  (S.q_factor, tp.X, tp.B, tp.D, tp.E, ctx),
                  (S.rogers_closed, tp.B, tp.C, tp.D, tp.E, ctx)]
    return cases


def test_closed_products_match_products_taken_one_at_a_time():
    kinds = [_assert_outcome(case[0], _with_ref_ratio(case[0]), *case[1:])
             for case in _closed_cases()]
    # ZeroDivisionError: a base that divides by parameters whose product
    # underflows to 0. rescued: the products multiplied in plain doubles
    # left double range, where they read nan+nanj
    assert set(kinds) == {"value", "PoleError", "BudgetExceeded",
                          "DomainError", "ZeroDivisionError", "rescued"}
    assert kinds.count("rescued") == 9


#: bases of synthetic rows: a product in range, one with a vanishing
#: factor, one out of double range, a base that is not finite, and one
#: whose division fails
_SYNTH = {"n": lambda p: 0.5 + 0.1j, "z": lambda p: 1.0 / p.q,
          "big": lambda p: 1e200 + 0j, "inf": lambda p: p.q / 1e-310,
          "div": lambda p: 1.0 / (p.q * 0.0)}


@pytest.mark.parametrize("num, den", [
    (("n",), ("z", "big")), (("n",), ("z", "inf")), (("n",), ("z", "div")),
    (("n", "big"), ("z",)), (("big",), ("div",)), (("inf",), ("z",)),
    (("n",), ("n", "big", "z")), (("n", "z"), ("n", "inf"))])
def test_ratio_inf_raises_in_the_order_of_taking_each_product(num, den):
    # the first of a vanishing denominator product, a product out of
    # range, a base that is not finite and a base whose division fails,
    # in the order in which taking each product in turn meets them
    p = S._Unchecked(BASES=_SYNTH, q=0.5 + 0j)
    ctx = QContext(0.5)
    assert (_value_outcome(S._ratio_inf, ctx, p, num, den)
            == _value_outcome(ref_ratio_inf, ctx, p, num, den))


def _product_rows():
    rng = random.Random(23)
    rows = []
    for _ in range(600):
        q = _base(rng)
        if abs(q) > 0.9:
            q *= 0.9 / abs(q)
        ctx = QContext(q, TruncationPolicy(
            max_terms=rng.choice((4, 40, 10000, 10000))))
        xs = []
        for _ in range(rng.randint(0, 5)):
            u = rng.random()
            xs.append(_near(rng, q) if u < 0.3 else 0j if u < 0.4
                      else 1.0 / _modulus(rng) if u < 0.5
                      else _modulus(rng))
        rows.append((xs, ctx))
    return rows


@pytest.mark.parametrize("fn, ref", [
    (Q.qpochhammer_inf_multi, ref_qpochhammer_inf_multi),
    (Q.theta_multi, ref_theta_multi)])
def test_products_of_a_row_match_products_taken_one_at_a_time(fn, ref):
    kinds = {_assert_outcome(fn, ref, xs, ctx) for xs, ctx in _product_rows()}
    assert kinds == {"value", "BudgetExceeded", "DomainError"}


def test_theta_matches_two_products_taken_one_at_a_time():
    for xs, ctx in _product_rows():
        for x in xs[:1]:
            _assert_outcome(Q.theta, ref_theta, x, ctx)


def test_kn_limit_matches_products_taken_one_at_a_time(monkeypatch):
    points = sample("trunc", KN_DECAY, 9, 40) + sample(
        "trunc", SampleConstraints(), 9, 40)
    got = [_value_outcome(ID.kn_limit, p) for p in points]
    monkeypatch.setattr(ID, "theta_multi", ref_theta_multi)
    monkeypatch.setattr(ID, "qpochhammer_inf_multi",
                        ref_qpochhammer_inf_multi)
    assert got == [_value_outcome(ID.kn_limit, p) for p in points]


def test_closed_product_of_sides_below_double_range_keeps_its_value():
    # at q = 0.995 the numerator's products multiply to about 3.9e-443,
    # the denominator's to 7.7e-218; in plain doubles the ratio read 0j
    # with est_error 0. mpmath.qp does not converge here, so the kernel's
    # 18 lone products are multiplied in mpmath
    p = BaileyParams(q=0.995, a=0.5, b=2, c=2.5, d=3, e=3.5)
    lone = [K.qpoch_inf(x, p.q, 1e-15, 10000, 3, ZERO_EPS)
            for x in p.bases(S._BAILEY_NUM + S._BAILEY_DEN)]
    assert {r[4] for r in lone} == {OK}
    r = S.bailey_closed_a(p)
    with mpmath.workdps(30):
        want = (mpmath.fprod(mpmath.mpc(v[0]) for v in lone[:9])
                / mpmath.fprod(mpmath.mpc(v[0]) for v in lone[9:]))
        assert abs(r.value - want) <= 1e-13 * abs(want)
        assert 0.0 < r.est_error <= 1e-13 * abs(want)
    assert 5.1e-226 < abs(r.value) < 5.2e-226


def test_closed_product_whose_plain_fold_read_nan_keeps_its_value():
    # a _closed_cases draw whose products, multiplied in plain doubles,
    # read nan+nanj; against the ratio of 50-digit mpmath products
    p = TParams(q=-0.18115973131141394 - 0.8815787836326237j,
                X=-1.773375900379609 - 0.5520030827411011j,
                B=38.861601651773746 + 64.05338499090672j,
                C=1.8021446552423817 - 7.808670029005259j,
                D=63.74163310592326 - 30.706402677125617j,
                E=0.040273557367232024 - 0.02007848830519172j)
    r = S.bailey_closed_X(p)
    with mpmath.workdps(50):
        q = mpmath.mpc(p.q)
        want = (mpmath.fprod(mpmath.qp(mpmath.mpc(x), q)
                             for x in p.bases(S._Q_NUM + S._F_NUM))
                / mpmath.fprod(mpmath.qp(mpmath.mpc(x), q)
                               for x in p.bases(S._Q_DEN + S._F_DEN)))
        assert abs(r.value - want) <= 1e-13 * abs(want)
    assert abs(r.value - (0.268037298451 - 1.86821074859j)) < 1e-11


def test_product_of_products_out_of_double_range_is_domain_error():
    # (-1e10;1/2)_inf is about 1e169; the product of two, about 1e338,
    # read inf+0j in plain doubles
    with pytest.raises(DomainError) as got:
        Q.qpochhammer_inf_multi([-1e10, -1e10], QContext(0.5))
    assert str(got.value) == "the composed product is out of double range"


def _series_side_edges():
    """Walks whose factors sit on the cuts of the quiet rule: an |x q^k|
    at 1/4 or 4 times (1 - 1e-15, 1, 1 + 1e-15), or where eps = 1/4
    fires (0.62, 1.6), at eps up to and past 1/4, bases near 1e250, 1e280
    and 1e-280 (past the far bound within a few steps, or far beyond the
    shell), tiny bases walked until q^m overflows, and a zero base."""
    q = 0.6 + 0.3j
    cases = []
    for s in (0.25, 0.62, 1.6, 4.0):
        for eps in (-1e-15, 0.0, 1e-15):
            for k, direction in ((3, 1), (-4, -1), (12, 1), (-12, -1)):
                x = s * (1.0 + eps) * q ** -k
                for num, den in (((x,), (0j,)), ((0j,), (x,)),
                                 ((x, 0.02 + 0j), (0.01j, 0j))):
                    # the fuzz's eps, the widest eps of the rule, and a
                    # wider one, which no step may skip
                    for tests in ((1e-12, 5e-15), (0.25, 0.25),
                                  (0.7, 1e-12), (1e-12, 0.7)):
                        for fixed in (-1, 30):
                            cases.append((num, den, q, 0.7 + 0j, direction,
                                          0j, False, fixed, *ARGS[:3],
                                          *tests, ARGS[5]))
    for big in (1e250, 3e279, 1e280, 1e-280, 2.5e-281):
        for direction in (1, -1):
            for num, den in (((big, 0.3 + 0j), (big * 1j, 0.7 + 0j)),
                             ((big,), (big * (1 + 1e-9),)),
                             ((0.4 + 0j,), (big,))):
                for fixed in (-1, 40, 400):
                    cases.append((num, den, 0.5 + 0.1j, 0.9 + 0j, direction,
                                  0j, False, fixed, *ARGS))
    # equal tiny bases, whose far (or, subnormal, near) bound is past
    # double range: downward to where q^m leaves it, with every term 1
    for x, q_tiny, fixed in (
            (3e-100 - 1e-100j, -0.22 + 0.32j, 2000),
            (2e-250j, -0.22 + 0.32j, 2000),
            (-1.1386794e-315 + 9.14354895e-316j,
             0.5212163484423193 - 0.6738449464001812j, 5000)):
        cases.append(((x,), (x,), q_tiny, 1 + 0j, -1, 0j, False, fixed,
                      *ARGS))
    for direction in (1, -1):
        for fixed in (-1, 25):
            cases += [((0j, 2.0 + 0j), (0.3 + 0j, 0j), q, 0.5 + 0j,
                       direction, 0.2 + 0j, True, fixed, *ARGS),
                      ((0j,), (0j,), q, 0.5 + 0j, direction, 0j, False,
                       fixed, *ARGS)]
    return cases


def test_series_side_matches_the_fully_tested_walk():
    rng = random.Random(13)
    cases = [_series_side_args(rng) for _ in range(3000)]
    cases += [side + (-1, *ARGS) for side, *_ in SIDES_STOPPED]
    cases += _series_side_edges()
    seen = set()
    for args in cases:
        assert (_outcome(K.series_side, args)
                == _outcome(ref_series_side, args)), args
        seen |= _walk_covers(args)
    assert seen == {OK, TERMINATED, POLE, BUDGET, DIVERGED, "fixed",
                    "quiet near", "quiet far", "tested after quiet",
                    "tested past far", "zero term", "recompute 0",
                    "recompute 1", "summed tail", "limit ratio 0",
                    "no majorant", "zero bottom"}


def _walk_covers(args) -> set:
    """What a walk of the fuzz reached: its stop status, fixed mode, the
    kinds of step that `_cuts` tells apart (quiet with every |x q^m| below
    1/4, quiet with every nonzero one above 4, a tested step after a
    quiet one, and a downward step tested for an |x q^m| past the far
    bound), an adaptive step after a zero term (whose tail test reads
    |t_n| = 0), two steps at recompute_every 0 or 1, and the kinds of
    tail: a stop with a summed geometric tail, a stop whose limit ratio
    is 0 (a zero top base downward: nothing is added), a downward stop
    with a zero bottom base that a zero top cancels, and a walk out of
    budget with no majorant below 1."""
    try:
        used, status = ref_series_side(*args)[2:4]
    except ArithmeticError:
        return set()
    num, den, q, z, direction, vwp_a, use_vwp = args[:7]
    fixed, pole_eps, zero_eps, every = args[7], *args[11:]
    seen = {status}
    if fixed >= 0:
        seen.add("fixed")
    else:
        rule = ref_tail_rule(*((den, num) if direction < 0 else (num, den)),
                             1.0 / z if direction < 0 else z, q,
                             vwp_a if use_vwp else 0j, direction < 0)
        if status == OK:
            seen.add("limit ratio 0" if rule[1] else "summed tail")
            if direction < 0 and 0 in num:
                seen.add("zero bottom")
        elif status == BUDGET and rule is None:
            seen.add("no majorant")
    if used > 1 and every in (0, 1):
        seen.add(f"recompute {every}")
    # the kernel's |q^m| and cuts for the steps taken
    down = direction < 0
    aqe, aq = (abs(1.0 / q), abs(1.0 / q)) if down else (1.0, abs(q))
    near, far_lo, far_hi = (_cuts((*num, *den), 1e250)
                            if max(pole_eps, zero_eps) <= _QUIET_EPS
                            else (0.0, math.inf, 0.0))
    quiet = False
    for _ in range(used):
        if aqe < near:
            seen.add("quiet near")
        elif far_lo < aqe <= far_hi:
            seen.add("quiet far")
        else:
            if quiet:
                seen.add("tested after quiet")
            if down and far_lo < aqe:
                seen.add("tested past far")
        quiet = aqe < near or far_lo < aqe <= far_hi
        aqe *= aq
    if fixed < 0 and _zero_term(args, used - 1):
        seen.add("zero term")
    return seen


def _zero_term(args, count: int) -> bool:
    """Whether one of the first `count` terms of the walk `args` is
    exactly 0: its arithmetic replayed without the tests."""
    num, den, q, z, direction, vwp_a, use_vwp = args[:7]
    every = args[13]
    down = direction < 0
    tops, bots = (den, num) if down else (num, den)
    qe = 1.0 / q if down else 1.0 + 0j
    g = h = 1.0 + 0j
    for steps in range(1, count + 1):
        r = 1.0 / z if down else z
        for t, b in zip(tops, bots):
            r = r * (1.0 - t * qe) / (1.0 - b * qe)
        g = g * r
        h = h * r / (q * q) if down else h * r * (q * q)
        if ((g - vwp_a * h) / (1.0 - vwp_a) if use_vwp else g) == 0:
            return True
        if every > 0 and steps % every == 0:
            qe = cpow_int(q, -(steps + 1) if down else steps)
        else:
            qe = qe / q if down else qe * q
    return False


# --- the K_N trace with one `qpoch_sc` call per row step, kept as the
# reference that the one-call kernel must reproduce bit for bit ---


def _ref_step_sc(rows, q: complex, invert: bool, m: complex, e: int):
    """One factor 1 - x q^j per x of each (pairs, q^j, j) row onto m * 2^e,
    or its reciprocal when `invert`: `qpoch_sc` with n = 1 on the rows
    shifted by their q^j."""
    xs = tuple(x * w for pairs, w, _ in rows for _, x in pairs)
    m, e, status, slot, _ = K.qpoch_sc(xs, q, 1, invert, m, e)
    if status != K.OK:
        ID._sc_stop(status, *[(name, j) for pairs, _, j in rows
                               for name, _ in pairs][slot])
    return m, e


def ref_kn_trace(p, N_max: int) -> list:
    """K_N for N = 0..N_max, each product carried from N to N+1 one row
    step at a time."""
    ID._require_bde(p)
    q, A, C = p.q, p.A, p.C
    cq3 = C * q ** 3
    ck = (ID._kn_coefficient(p), 0)
    vnum, vden = p.pairs(ID._V_NUM[1:]), p.pairs(ID._V_DEN)
    unum, uden = p.pairs(ID._U_NUM), p.pairs(ID._U_DEN[:-1])
    num, den = p.pairs(ID._K3_NUM), p.pairs(ID._K3_DEN)
    kden = ID._nabla_den((("BDEq/A", p.B * p.D * p.E * q / A),))
    low = high = num3 = den3 = (1.0 + 0j, 0)
    up = down = 1.0 + 0j
    out = []
    for N in range(N_max + 1):
        vdown, down = down, down / q
        low = _ref_step_sc(((vnum if N else (), vdown, -N),
                            (unum, down, -N - 1)), q, True, *low)
        low = _ref_step_sc(((vden if N else (), vdown, -N),
                            (uden, down, -N - 1)), q, False, *low)
        low = ID._pow_sc(cq3, 1, *low)
        high = _ref_step_sc(((vnum + unum, up, N),), q, False, *high)
        high = _ref_step_sc(((vden + uden, up, N),), q, True, *high)
        num3 = _ref_step_sc(((num, up, N),), q, False, *num3)
        den3 = _ref_step_sc(((den, up, N),), q, True, *den3)
        up = up * q
        if N:
            ck = ID._pow_sc(cq3, 1, *ck)
            high = ID._pow_sc(cq3, -1, *high)
        lead = ID._pow_sc(1.0 - A * cpow_int(q, 1 - N), 1, *low)
        out.append(_ref_kn_value(p, N, lead, high, ck, kden, num3, den3))
    return out


def _ref_kn_value(p, N: int, low, high, ck, kden: complex, num3,
                  den3) -> complex:
    """K_N from its scale-tracked pieces: the V U products low (at -N-1,
    leading factor included) and high (at N, N+1), ck the coefficient times
    (Cq^3)^N, and the K3 rows num3 and den3."""
    q, A, B, C, D, E = p.q, p.A, p.B, p.C, p.D, p.E
    k1 = _sc_value(*ID._pow_sc(ck[0], 1, low[0], low[1] + ck[1]))
    k2 = _sc_value(*ID._pow_sc(ck[0], 1, high[0], high[1] + ck[1]))
    kern = (1.0 - B * D * E * cpow_int(q, 2 * N + 3) / A) / kden
    k3 = kern * _sc_value(*num3) * _sc_value(*den3)
    return k1 - k2 + k3 * cpow_int(q, N - 2) / C


def _trace_outcome(trace, p, n_max):
    """repr of a trace, or what it raised with its message and factor."""
    try:
        return repr(trace(p, n_max))
    except (QSixError, ArithmeticError) as exc:
        return repr((type(exc).__name__, str(exc),
                     getattr(exc, "factor", None),
                     getattr(exc, "exponent", None)))


#: ways to put one factor of a trace row on, or next to, 1 - t q^-k = 0
#: for t = q^k (1 + eps): the V and U numerators (poles downward), the V
#: denominator, the U denominator or K3's BEq/A one N sooner, K3's
#: denominators, and the U and K3 numerator Eq (an exact zero)
_KN_STOPS = (
    lambda p, t: {"D": t},
    lambda p, t: {"C": t * p.A * p.A / (p.B * p.D * p.E * p.q)},
    lambda p, t: {"E": p.A * p.A * p.q * p.q / (p.B * p.D * t)},
    lambda p, t: {"E": p.A / (p.B * t)},
    lambda p, t: {"D": p.A / (p.B * p.q * t)},
    lambda p, t: {"C": p.A * t},
    lambda p, t: {"E": 1.0 / (p.q * t)},
)


KN_DECAY = SampleConstraints(convergence_caps={"kn_decay_base_min": 1.5})


def _kn_trace_cases():
    rng = random.Random(15)
    band = sample("trunc", KN_DECAY, 15, 200)
    plain = sample("trunc", SampleConstraints(), 15, 150)
    stopped = []
    for p in rng.sample(band, 75) + rng.sample(plain, 75):
        eps = rng.choice((0.0, 1e-16, 1e-13, 1e-11))
        phase = cmath.exp(1j * rng.uniform(-math.pi, math.pi))
        t = p.q ** rng.randint(0, 6) * (1.0 + eps * phase)
        stopped.append(p.replace(**rng.choice(_KN_STOPS)(p, t)))
    cases = [(p, rng.choice((0, 1, 2, 3, 4, 80, 80, rng.randint(5, 200))))
             for p in band + plain + stopped]
    generic = TruncParams(q=0.5, A=2.0, B=0.3, C=3.0, D=0.7, E=1.1, N=0)
    # the poles pinned row by row in test_identities.py, and a vanished K3
    # numerator factor
    for change in ({"C": 0.5}, {"C": 8.658008658008658}, {"D": 0.25},
                   {"E": 9.523809523809524}, {"E": 6.666666666666667},
                   {"D": 26.666666666666668}, {"E": 4.0, "C": 12.0},
                   # Aq/B and BDEq/A vanish in the coefficient at once
                   {"B": 1.0, "D": 2.0 / 0.55}):
        cases.append((generic.replace(**change), 6))
    # downward factors that leave double range, the first at N = 1453
    cases.append((sample("trunc", KN_DECAY, 7, 1)[0], 2000))
    cases += [(p, 3000) for p in plain[:8] + band[:4]]
    # an |x w| on, or an ulp or two off, the edges 1/4 and 4 of the quiet
    # rows: vnum's one base at N = k, and a base of any row of a band draw
    for s in (0.25, 4.0):
        for eps in (-1e-15, 0.0, 1e-15):
            for k in (1, 3):
                t = generic.q ** k * s * (1.0 + eps)
                cases.append((generic.replace(**_KN_STOPS[1](generic, t)), 8))
    for p in rng.sample(band, 30):
        t = (p.q ** rng.randint(0, 6) * rng.choice((0.25, 4.0))
             * (1.0 + rng.choice((-1e-15, 1e-15))))
        cases.append((p.replace(**rng.choice(_KN_STOPS)(p, t)), 80))
    # past the quiet rows' bound, to DIVERGED after 21796 K_N; the K3
    # numerator product at 0 from N = 1 on; and a q with a tiny imaginary
    # part, whose far dividing chains end with a subnormal imaginary part
    cases += [(_PAST_RANGE, 21800), (generic.replace(E=4.0, C=12.0), 80),
              (_TINY_IMAG, 1800)]
    return cases


def test_kn_trace_matches_the_row_step_trace():
    cases = _kn_trace_cases()
    assert len(cases) >= 500
    seen = set()
    for p, n_max in cases:
        assert (_trace_outcome(ID.kn_trace, p, n_max)
                == _trace_outcome(ref_kn_trace, p, n_max)), (p, n_max)
        seen |= _trace_covers(p, n_max)
    assert seen == ({f"{kind} {how}" for kind in ("quiet", "past bound",
                                                  "tested")
                     for how in ("divided", "multiplied")}
                    | {"redone divided"}
                    | {f"pole in row {row}" for row in _DIVIDING})


#: the base names of each dividing row of the trace, by row
_DIVIDING = {0: ID._V_NUM[1:], 1: ID._V_DEN, 2: ID._U_NUM,
             3: ID._U_DEN[:-1], 5: ID._K3_DEN}


def _trace_covers(p, n_max: int) -> set:
    """What a trace of the fuzz reached: the dividing row of a pole stop,
    and each kind of row step (`_step_kind`), divided or multiplied, on
    the products as the row-step reference carries them."""
    seen = set()
    try:
        ID.kn_trace(p, n_max)
    except PoleError as exc:
        seen |= {f"pole in row {row}" for row, names in _DIVIDING.items()
                 if exc.factor in names}
    except QSixError:
        pass
    q = p.q
    rows = [p.bases(names) for names in
            (ID._V_NUM[1:], ID._V_DEN, ID._U_NUM, ID._U_DEN[:-1],
             ID._K3_NUM, ID._K3_DEN)]
    cuts = [_cuts(xs, math.ldexp(1.0, _CHAIN_LOG2 // len(xs))) for xs in rows]
    ms = [(1.0 + 0j, 0)] * 4
    up = down = 1.0 + 0j
    for N in range(n_max + 1):
        vdown, down = down, down / q
        for k, row, iw, divide in _KN_STEPS:
            if not (iw or N) or k == 4:
                continue
            m, e = ms[k]
            if row < 0:
                m, e, status = K.pow_sc(p.base("Cq^3"), -1 if divide else 1,
                                        m, e)
            else:
                w = (vdown, down, up)[iw]
                kind = _step_kind(cuts[row], rows[row], w, divide, m)
                seen.add(f"{kind} {'divided' if divide else 'multiplied'}")
                m, e, status = K.qpoch_sc(tuple(x * w for x in rows[row]), q,
                                          1, divide, m, e)[:3]
            if status != OK:
                return seen
            ms[k] = m, e
        up = up * q
    return seen


def _step_kind(cut, xs, w, divide: bool, m: complex) -> str:
    """How the kernel takes a row step of the bases xs on m at the power
    w: as a quiet row's chain, or again factor by factor where the chain
    ends with a tiny part, or as a row with every |x w| above 4 but past
    the quiet rows' bound, or a row it tests factor by factor."""
    near, far_lo, far_hi = cut
    try:
        aw = abs(w)
    except OverflowError:
        aw = math.inf
    if aw < near or far_lo < aw <= far_hi:
        c = m
        for x in xs:
            c = c * (1.0 / (1.0 - x * w) if divide else 1.0 - x * w)
        tiny = (0.0 < abs(c.real) < _PART_MIN
                or 0.0 < abs(c.imag) < _PART_MIN)
        return "redone" if tiny and abs(c) < _LO else "quiet"
    return "past bound" if far_lo < aw else "tested"


#: points where a piece of K_N is past double range as a value while every
#: carried product is still in range, scale-tracked: (C, the N of the
#: stop, the piece's m and e), K1 at the first point and the K3 numerator
#: product at the second. Neither the fuzz nor 3000 random wide-range
#: draws gave a K2 stop, and the K3 denominator product cannot give one:
#: each of its 4 (N+1) factors is a reciprocal bounded by the pole test
_PIECE_STOPS = ((1e20, 19, "(1.5756507206158372+0j)", 1042),
                (1e100, 3, "(1.8124341161916346-0j)", 1294))


@pytest.mark.parametrize("C, n_stop, m, e", _PIECE_STOPS)
def test_kn_trace_stops_at_a_piece_out_of_double_range(C, n_stop, m, e):
    p = TruncParams(q=0.5, A=2.0, B=0.3, C=C, D=0.7, E=1.1, N=0)
    assert len(ID.kn_trace(p, n_stop - 1)) == n_stop
    want = f"scaled q-product {m} * 2^{e} is out of double range"
    with pytest.raises(DomainError) as got:
        ID.kn_trace(p, n_stop + 5)
    assert str(got.value) == want
    with pytest.raises(DomainError) as single:
        ID.compute_KN(p.replace(N=n_stop))
    assert str(single.value) == want
    assert (_trace_outcome(ID.kn_trace, p, n_stop + 5)
            == _trace_outcome(ref_kn_trace, p, n_stop + 5))


def test_underflowed_a_squared_is_refused_with_the_parameters():
    # A^2 q^2 underflows to 0: every K_N row that divides by it would raise
    # a raw ZeroDivisionError, so no trace is ever asked for
    generic = TruncParams(q=0.5, A=2.0, B=0.3, C=3.0, D=0.7, E=1.1, N=0)
    with pytest.raises(DomainError, match=r"A\^2 q\^2 underflows to 0"):
        generic.replace(A=1e-200)
