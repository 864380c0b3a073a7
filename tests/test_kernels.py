"""Tests of the kernel layer, called through the `qsix._backend` binding.

Each kernel is checked against a plain oracle: `cpow_int` against the
built-in power, the scale-tracked `qpoch_sc` and `series_side` against
term-by-term products and sums, `pow_sc` against `cpow_int`, `qpoch_inf`
against a long truncated product. `qpoch_sc` is also pinned on its stops
(a pole with its slot and exponent, an overflowed power) and on a product
that only the scale tracking keeps in range. The walk statistics of
`series_side` (largest |term|, smallest |1 + partial sum|) are checked
against the same sums, and every stop status is pinned on a walk that
reaches it, including walks whose running power q^m leaves double range.
"""

import math

import pytest
from test_series import poch_oracle, psi_term_oracle

from qsix import _backend as K

ARGS = (1e-15, 10000, 3, 1e-12, 5e-15, 64)


def term(num, den, q, z, vwp_a, n):
    t = psi_term_oracle(num, den, q, z, n)
    if vwp_a is not None:
        t *= (1.0 - vwp_a * q ** (2 * n)) / (1.0 - vwp_a)
    return t


def plain_stats(num, den, q, z, direction, vwp_a, used):
    """(peak, low) of the first `used` terms summed one by one."""
    peak, low, partial = 0.0, 1.0, 0j
    for step in range(1, used + 1):
        t = term(num, den, q, z, vwp_a, direction * step)
        partial += t
        peak = max(peak, abs(t))
        low = min(low, abs(1.0 + partial))
    return peak, low


# (num, den, q, z, vwp_a or None)
WALKS = [
    ((1.3 + 0.2j, -1.1j), (0.4 - 0.1j, 0.5 + 0j), 0.45 + 0.1j, 0.6 - 0.3j,
     None),
    ((2.0 + 0.3j, -1.8j), (0.3 - 0.1j, 0.4 + 0j), 0.45 + 0.1j, 0.6 - 0.3j,
     0.5 + 0.2j),
    # a large first term of opposite sign: 1 + partial dips to about 0.5
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
    assert len(out) == 9
    acc, used, status, peak, low = out[0], out[2], out[3], out[7], out[8]
    assert status == K.OK
    if fixed >= 0:
        assert used == fixed
    want_peak, want_low = plain_stats(num, den, q, z, direction, vwp_a,
                                      used)
    assert peak == pytest.approx(want_peak, rel=1e-12, abs=0.0)
    assert low == pytest.approx(want_low, rel=1e-12, abs=0.0)
    assert low <= 1.0 and low <= abs(1.0 + acc)
    if fixed == 0:
        assert (peak, low) == (0.0, 1.0)


def test_series_side_stats_ride_along_on_termination():
    # (1 - 2 q) = 0 at the second upward step: one term, then terminated
    num, den, q, z = (2.0 + 0j, 0.25 + 0j), (0.23 + 0j, 0.17 + 0j), 0.5, 0.4
    out = K.series_side(num, den, q, z, 1, 0j, False, -1, *ARGS)
    assert out[3] == K.TERMINATED
    assert out[2] == 1
    t1 = term(num, den, q, z, None, 1)
    assert out[7] == pytest.approx(abs(t1), rel=1e-14)
    assert out[8] == pytest.approx(min(1.0, abs(1.0 + t1)), rel=1e-14)


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
        m, e, status, slot, k = K.qpoch_sc((a,), q, n, invert, 1e-12,
                                           1.0 + 0j, 0)
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
    m, e, status = K.qpoch_sc(xs, q, n, invert, 1e-12, 3.0 - 1.0j, 40)[:3]
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
    m, e, status, slot, k = K.qpoch_sc(xs, q, n, invert, 1e-12, 1.0 + 0j, 0)
    assert (status, slot, k) == (K.POLE, 1, bad_exp)
    taken = poch_oracle(xs[0], q, n) * poch_oracle(xs[1], q, done)
    if invert:
        taken = 1.0 / taken
    assert sc_value(m, e) == pytest.approx(taken, rel=1e-12)


@pytest.mark.parametrize("n, invert, x", [(4, False, 4.0), (-3, True, 0.25)])
def test_qpoch_sc_vanishing_factor_that_multiplies_in_is_exact_zero(
        n, invert, x):
    # x q^j = 1 exactly at j = -2 (x = 4) or j = 2 (x = 1/4) for q = 1/2
    assert K.qpoch_sc((0.3 + 0.1j, x + 0j), 0.5 + 0j, n, invert, 1e-12,
                      1.0 + 0j, 0) == (0j, 0, K.OK, 0, 0)


@pytest.mark.parametrize("a, q, n, status, bad_k", [
    # 1 - q * q^-1 = 0: a genuine pole at the first factor
    (0.45 + 0.1j, 0.45 + 0.1j, -3, K.POLE, 1),
    # |q^-917| overflows to inf, which the pole test reads as inf <= inf
    (0.3 + 0j, 0.45 + 0.1j, -1000, K.DIVERGED, 917),
])
def test_qpoch_stops_on_pole_or_overflow(a, q, n, status, bad_k):
    out = K.qpoch_sc((a,), q, n, False, 1e-12, 1.0 + 0j, 0)
    assert out[2:] == (status, 0, -bad_k)


def test_qpoch_sc_overflowed_factor_that_multiplies_in_is_diverged():
    # with invert, 1 - a q^-917 multiplies in and makes the product inf
    out = K.qpoch_sc((0.3 + 0j,), 0.45 + 0.1j, -1000, True, 1e-12,
                     1.0 + 0j, 0)
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
    m, e, status = K.qpoch_sc((x,), q, -300, True, 1e-12, 1.0 + 0j, 0)[:3]
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


@pytest.mark.parametrize("a", [0.3 + 0.1j, -1.4 + 0.7j, 2.5 + 0j])
def test_qpoch_inf_within_its_bound_of_a_long_product(a):
    q = 0.6 - 0.2j
    val, est, terms, exact, status = K.qpoch_inf(a, q, 1e-15, 10000, 6,
                                                 5e-15)
    assert (exact, status) == (0, K.OK)
    assert 0.0 < est < 1e-14 * abs(val)
    assert abs(val - poch_oracle(a, q, 400)) <= est + 1e-14 * abs(val)


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
    want = sum(psi_term_oracle(num, den, q, z, n) for n in range(1, used + 1))
    assert acc == pytest.approx(want, rel=1e-13)
    if fixed >= 0:
        assert (used, tail) == (fixed, 0.0)
    else:
        assert 0.0 < tail < 1e-15


def test_series_side_long_downward_walk_ends_ok():
    # several hundred steps: the interleaved step product and the
    # multiplicative prefactor stay in range far past where the separate
    # top and bottom products would overflow
    q, X, B, C, D, E = 0.5, 1.2, 0.3, 0.1102, 0.35, 0.45
    num = tuple(map(complex, (B*C*D*E*X*q, B*X*q, D*X*q, E*X*q)))
    den = tuple(map(complex, (X, C*D*E*X, B*C*E*X, B*C*D*X)))
    out = K.series_side(num, den, complex(q), complex(C / q ** 3), -1,
                        complex(B*C*D*E*X*X), True, -1,
                        1e-15, 10000, 6, 1e-12, 5e-15, 64)
    assert out[3] == K.OK
    assert out[2] > 250
    assert math.isfinite(abs(out[0])) and out[1] < 1e-12


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
    # q^-917 overflows while the terms are still about 2e-3: den[0] q^m is
    # inf, which the zero test reads as inf <= inf; not a termination
    (((1.3 + 0.2j, -1.1j), (0.4 - 0.1j, 0.5 + 0j), 0.45 + 0.1j, 0.6 - 0.3j,
      -1, 0.05 + 0.02j, True), K.DIVERGED, 916, 0),
]


@pytest.mark.parametrize("side, status, used, bad_exp", SIDES_STOPPED)
def test_series_side_stop_status(side, status, used, bad_exp):
    out = K.series_side(*side, -1, *ARGS)
    assert (out[2], out[3], out[6]) == (used, status, bad_exp)
    assert out[1] == (0.0 if status == K.TERMINATED else math.inf)
