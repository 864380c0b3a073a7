"""Tests for the foundational q-arithmetic layer."""

import cmath

import pytest
from hypothesis import assume, given, settings, strategies as st

from qsix import (BaileyParams, BudgetExceeded, DomainError, PoleError,
                  QContext, QSixError, TruncationPolicy, bailey_closed_a,
                  nabla, qcore, qpochhammer, qpochhammer_inf,
                  qpochhammer_inf_multi, qpochhammer_multi, theta,
                  theta_multi)

from test_series import poch_oracle

# independent plain-loop value of (0.5;0.5)_inf, tail < 1e-60
EULER_HALF = 0.2887880950866024


def test_nabla_basics():
    assert nabla([1.0]) == 0
    assert nabla([0.0]) == 1
    assert nabla([2.0, 3.0]) == 2
    assert nabla([0.5]) == 0.5


def test_nabla_empty_rejected():
    with pytest.raises(DomainError):
        nabla([])


def test_nabla_nonfinite_rejected():
    with pytest.raises(DomainError):
        nabla([float("nan")])


def test_qpochhammer_index_zero_is_one():
    ctx = QContext(0.5)
    for a in (0.0, 0.7, 2.5 + 1j, -3.0):
        assert qpochhammer(a, ctx, 0) == 1


def test_qpochhammer_small_exact_values():
    ctx = QContext(0.5)
    # (0.5;0.5)_3 = (1-1/2)(1-1/4)(1-1/8), exact in binary
    assert qpochhammer(0.5, ctx, 3) == 0.328125
    # (0.25;0.5)_{-1} = 1/(1 - 0.25/0.5) = 2
    assert qpochhammer(0.25, ctx, -1) == 2


def test_qpochhammer_negative_branch_pole():
    ctx = QContext(0.5)
    with pytest.raises(PoleError) as exc:
        qpochhammer(0.5, ctx, -1)
    assert exc.value.exponent == -1


def test_qpochhammer_out_of_range_is_domain_error_not_pole():
    # |q^-917| overflows to inf, which passes the pole test as inf <= inf
    with pytest.raises(DomainError, match="out of double range"):
        qpochhammer(0.3, QContext(0.45 + 0.1j), -1000)


def test_infinite_product_out_of_range_is_domain_error():
    # (1e200;1/2)_inf overflows to NaN before its tail window closes
    with pytest.raises(DomainError, match="out of double range"):
        qpochhammer_inf(1e200, QContext(0.5))
    # theta(1e-300) multiplies in (q/x;q)_inf with q/x = 5e299
    with pytest.raises(DomainError, match="out of double range"):
        theta(1e-300, QContext(0.5))


def test_input_whose_modulus_overflows_is_domain_error():
    # finite parts, but abs() overflows
    with pytest.raises(DomainError, match="modulus out of double range"):
        qpochhammer(1.5e308 + 1.5e308j, QContext(0.5), 3)
    with pytest.raises(DomainError, match="modulus out of double range"):
        QContext(1.5e308 + 1.5e308j)


def test_qpochhammer_of_zero_is_one_at_any_depth():
    # 0 * q^-917 would be 0 * inf
    assert qpochhammer(0, QContext(0.45 + 0.1j), -1000) == 1


def test_qpochhammer_deep_negative_index_underflows_to_zero():
    # the divided-out product overflows long before its reciprocal is
    # tiny; the scaled product keeps the value finite instead of nan
    assert qpochhammer(0.3, QContext(0.45 + 0.1j), -100) == 0


@pytest.mark.parametrize("a", [0.3, -0.8, 1.7 + 0.4j, 0.05 - 1.2j])
@pytest.mark.parametrize("n", [-6, -3, -1, 0, 1, 2, 5, 11])
def test_qpochhammer_matches_plain_loop(a, n):
    q = 0.45
    got = qpochhammer(a, QContext(q), n)
    want = poch_oracle(a, q, n)
    assert abs(got - want) <= 1e-14 * max(abs(want), 1.0)


def test_qpochhammer_multi_is_factor_product():
    ctx = QContext(0.5)
    assert qpochhammer_multi([0.5, 0.25], ctx, 2) == 0.24609375
    single = qpochhammer(0.3, ctx, 4) * qpochhammer(1.1, ctx, 4)
    assert qpochhammer_multi([0.3, 1.1], ctx, 4) == single


@given(st.complex_numbers(max_magnitude=2.0, allow_nan=False,
                          allow_infinity=False),
       st.integers(min_value=-5, max_value=5),
       st.integers(min_value=-5, max_value=5))
@settings(max_examples=100, deadline=None)
def test_qpochhammer_splitting(a, m, n):
    """(a;q)_{m+n} = (a;q)_m * (a q^m;q)_n away from poles."""
    q = 0.4
    # keep every reachable factor safely away from zero
    for k in range(-11, 12):
        assume(abs(1.0 - a * q ** k) > 1e-3)
    ctx = QContext(q)
    whole = qpochhammer(a, ctx, m + n)
    split = qpochhammer(a, ctx, m) * qpochhammer(a * q ** m, ctx, n)
    assert abs(whole - split) <= 1e-10 * max(abs(whole), abs(split), 1.0)


def test_qpochhammer_inf_euler_value():
    r = qpochhammer_inf(0.5, QContext(0.5))
    assert abs(r.value - EULER_HALF) <= 1e-12
    assert r.est_error < 1e-12
    assert not r.terminated


def test_qpochhammer_inf_zero_argument_terminates():
    r = qpochhammer_inf(0.0, QContext(0.5))
    assert r.value == 1
    assert r.terminated


def test_qpochhammer_inf_vanishing_factor_is_exact_zero():
    r = qpochhammer_inf(1.0, QContext(0.5))
    assert r.value == 0
    assert r.terminated
    assert r.est_error == 0


def test_qpochhammer_inf_budget():
    pol = TruncationPolicy(tail_tol=1e-15, max_terms=3)
    with pytest.raises(BudgetExceeded):
        qpochhammer_inf(0.9, QContext(0.99, pol))


@given(st.complex_numbers(max_magnitude=3.0, allow_nan=False,
                          allow_infinity=False))
@settings(max_examples=100, deadline=None)
def test_qpochhammer_inf_functional_equation(a):
    """(a;q)_inf = (1 - a)(aq;q)_inf."""
    ctx = QContext(0.5)
    whole = qpochhammer_inf(a, ctx)
    shifted = qpochhammer_inf(a * 0.5, ctx)
    lhs = whole.value
    rhs = (1.0 - a) * shifted.value
    tol = whole.est_error + abs(1.0 - a) * shifted.est_error + 1e-13
    assert abs(lhs - rhs) <= tol * max(1.0, abs(lhs))


def test_qpochhammer_inf_multi_composes():
    ctx = QContext(0.5)
    r = qpochhammer_inf_multi((0.5, 0.25), ctx)
    lone = qpochhammer_inf(0.5, ctx).value * qpochhammer_inf(0.25, ctx).value
    assert abs(r.value - lone) <= 1e-15


def _inf_outcomes() -> list:
    """What each public infinite product returns or raises."""
    ctx = QContext(0.5)
    budget = QContext(0.99, TruncationPolicy(tail_tol=1e-15, max_terms=3))
    calls = [(qpochhammer_inf, 0.5, ctx), (qpochhammer_inf, 0.0, ctx),
             (qpochhammer_inf, 1.0, ctx), (qpochhammer_inf, 0.9, budget),
             (qpochhammer_inf, 1e200, ctx),
             (qpochhammer_inf, 1.5e308 + 1.5e308j, ctx),
             (qpochhammer_inf_multi, (0.5, 0.25), ctx),
             (theta, 0.3 + 0.2j, ctx),
             (bailey_closed_a, BaileyParams(0.5, 0.09, 0.6, 0.7, 0.8, 0.9))]
    out = []
    for fn, *args in calls:
        try:
            out.append(repr(fn(*args)))
        except QSixError as exc:
            out.append(f"{type(exc).__name__}: {exc}")
    return out


def test_infinite_products_take_only_the_row_kernel(monkeypatch):
    # each public product is one call of the kernel that takes rows of
    # bases, qpoch_inf_ratio, and none of the lone kernel
    want = _inf_outcomes()
    assert any(w.startswith("BudgetExceeded") for w in want)
    assert any(w.startswith("DomainError") for w in want)
    calls = []
    ratio = qcore._K.qpoch_inf_ratio

    def lone(*args):
        raise AssertionError("the lone qpoch_inf kernel was called")

    def counted(*args):
        calls.append(args)
        return ratio(*args)

    monkeypatch.setattr(qcore._K, "qpoch_inf", lone)
    monkeypatch.setattr(qcore._K, "qpoch_inf_ratio", counted)
    assert _inf_outcomes() == want
    assert len(calls) == len(want)


def test_theta_zeros_on_q_powers():
    ctx = QContext(0.5)
    assert theta(1.0, ctx).value == 0
    # x = q hits the (q/x;q)_inf factor at 1
    assert theta(0.5, ctx).value == 0
    assert theta(0.25, ctx).value == 0


def test_theta_zero_argument_rejected():
    with pytest.raises(DomainError):
        theta(0.0, QContext(0.5))


def test_theta_inversion_sample():
    ctx = QContext(0.5)
    a = theta(0.3, ctx)
    b = theta(0.5 / 0.3, ctx)
    assert abs(a.value - b.value) <= 1e-12 * abs(a.value)


@given(st.complex_numbers(min_magnitude=0.05, max_magnitude=8.0,
                          allow_nan=False, allow_infinity=False))
@settings(max_examples=100, deadline=None)
def test_theta_inversion_property(x):
    q = 0.55
    ctx = QContext(q)
    a = theta(x, ctx)
    b = theta(q / x, ctx)
    tol = a.est_error + b.est_error + 1e-13 * max(abs(a.value), 1.0)
    assert abs(a.value - b.value) <= tol


def test_theta_multi_is_product():
    ctx = QContext(0.5)
    r = theta_multi((0.3, 1.7), ctx)
    lone = theta(0.3, ctx).value * theta(1.7, ctx).value
    assert abs(r.value - lone) <= 1e-15 * abs(lone)


@pytest.mark.parametrize("q", [0.0, 1.0, 1.2, -1.5])
def test_qcontext_rejects_bad_modulus(q):
    with pytest.raises(DomainError):
        QContext(q)


def test_qcontext_accepts_complex_q():
    ctx = QContext(0.3 + 0.4j)
    assert abs(ctx.q) == pytest.approx(0.5)


def test_truncation_policy_validation():
    with pytest.raises(DomainError):
        TruncationPolicy(tail_tol=0.0)
    with pytest.raises(DomainError):
        TruncationPolicy(max_terms=0)
