"""Tests for the series evaluators and closed product forms."""

import cmath

import pytest

from qsix import (BudgetExceeded, DomainError, IllConditioned,
                  NonConvergence, PoleError, QContext, SeriesSpec, TParams,
                  TruncationPolicy, TruncParams, F_function,
                  bailey_closed_a, bailey_closed_X, eval_T, eval_phi,
                  eval_psi, q_factor, qpochhammer, rogers_closed,
                  truncated_S, vwp_psi6)
from qsix.series import BaileyParams

# independent plain-loop 3-term window sum at (q,A,B,C,D,E) =
# (0.5, 2, 0.3, 3, 0.7, 1.1)
S1_SAMPLE = 7.3065963705117785


def poch_oracle(a, q, n):
    """Plain-loop (a;q)_n, no shared code with the implementation; the
    q-arithmetic and kernel tests take it from here."""
    if n >= 0:
        p = 1.0 + 0j
        w = 1.0 + 0j
        for _ in range(n):
            p *= 1.0 - a * w
            w *= q
        return p
    p = 1.0 + 0j
    w = 1.0 + 0j
    for _ in range(-n):
        w /= q
        p /= 1.0 - a * w
    return p


def psi_term_oracle(num, den, q, z, n):
    t = z ** n if n >= 0 else (1.0 / z) ** (-n)
    for a in num:
        t *= poch_oracle(a, q, n)
    for b in den:
        t /= poch_oracle(b, q, n)
    return t


def window_term_oracle(p, n):
    q, A, B, C, D, E = p.q, p.A, p.B, p.C, p.D, p.E
    a = B * D * E * q / A
    kern = (1.0 - a * q ** (2 * n)) / (1.0 - a)
    num = (B * q, D * q, E * q, B * C * D * E * q * q / (A * A))
    den = (D * E * q / A, B * E * q / A, B * D * q / A, A / C)
    return kern * psi_term_oracle(num, den, q, 1.0 / (C * q * q), n)


# ---------------------------------------------------------------------------
# eval_phi

def test_phi_zero_argument():
    r = eval_phi(SeriesSpec((0.3, 0.7), (0.4,), 0.0), QContext(0.5))
    assert r.value == 1
    assert r.terminated
    assert r.terms_used == 1


def test_phi_negative_power_numerator_two_terms():
    # numerator q^{-1} terminates after n = 1
    q, b, c, z = 0.5, 0.3, 0.7, 0.2
    r = eval_phi(SeriesSpec((1.0 / q, b), (c,), z), QContext(q))
    want = 1.0 + ((1.0 - 1.0 / q) * (1.0 - b)
                  / ((1.0 - q) * (1.0 - c))) * z
    assert abs(r.value - want) <= 1e-15
    assert r.terminated


def test_phi_terminating_matches_direct_sum():
    q, z = 0.5, 0.9
    num = (1.0 / q ** 3, 0.3)
    den = (0.7,)
    r = eval_phi(SeriesSpec(num, den, z), QContext(q))
    assert r.terminated
    direct = sum(psi_term_oracle(num, (q,) + den, q, z, n)
                 for n in range(4))
    assert abs(r.value - direct) <= 1e-13 * abs(direct)


def test_phi_denominator_pole():
    q = 0.5
    with pytest.raises(PoleError) as exc:
        eval_phi(SeriesSpec((0.3, 0.4), (1.0 / q ** 2,), 0.5), QContext(q))
    assert "denominator[1]" in str(exc.value)


def test_phi_shape_validation():
    ctx = QContext(0.5)
    with pytest.raises(DomainError):
        eval_phi(SeriesSpec((0.3,), (0.4,), 0.5), ctx)
    with pytest.raises(DomainError):
        eval_phi(SeriesSpec((0.3, 0.4), (0.5, 0.6), 0.5), ctx)


# ---------------------------------------------------------------------------
# eval_psi

def test_psi_unit_numerator_reduces_to_reindexed_phi():
    # (1;q)_n kills every n >= 1 term; what is left is a unilateral sum in
    # the inverted parameters
    q, b, c, d, z = 0.5, 0.3, 0.7, 1.3, 5.0
    ctx = QContext(q)
    r = eval_psi(SeriesSpec((1.0, b), (c, d), z), ctx)
    reindexed = eval_phi(
        SeriesSpec((q / c, q / d), (q / b,), c * d / (b * z)), ctx)
    tol = r.est_error + reindexed.est_error + 1e-13 * abs(r.value)
    assert abs(r.value - reindexed.value) <= tol


def test_psi_window_stability():
    # numerator bases chosen with no (1 - a q^m) hitting zero, so neither
    # direction terminates early
    q, z = 0.5, 0.4
    num = (1.7, 2.3)
    den = (0.23, 0.17)
    r = eval_psi(SeriesSpec(num, den, z), QContext(q))
    # ratio-walk both directions; per-term products overflow at this width
    direct = 1.0 + 0j
    t = 1.0 + 0j
    for n in range(1, 61):
        w = q ** (n - 1)
        t *= z * (1.0 - num[0] * w) * (1.0 - num[1] * w)
        t /= (1.0 - den[0] * w) * (1.0 - den[1] * w)
        direct += t
    t = 1.0 + 0j
    for n in range(1, 61):
        w = q ** (-n)
        t *= (1.0 - den[0] * w) * (1.0 - den[1] * w)
        t /= z * (1.0 - num[0] * w) * (1.0 - num[1] * w)
        direct += t
    assert abs(r.value - direct) <= r.est_error + 1e-13 * abs(direct)


def test_psi_geometric_diverges():
    spec = SeriesSpec((0.3,), (0.3,), 0.5)
    with pytest.raises(NonConvergence):
        eval_psi(spec, QContext(0.5))


def test_psi_zero_argument_diverges():
    spec = SeriesSpec((0.3,), (0.7,), 0.0)
    with pytest.raises(NonConvergence):
        eval_psi(spec, QContext(0.5))


def test_psi_shape_validation():
    ctx = QContext(0.5)
    with pytest.raises(DomainError):
        eval_psi(SeriesSpec((0.3,), (), 0.5), ctx)
    with pytest.raises(DomainError):
        eval_psi(SeriesSpec((0.3, 0.4), (0.7,), 0.5), ctx)


# ---------------------------------------------------------------------------
# vwp_psi6

@pytest.mark.parametrize("a", [0.7 + 0.2j, 1.3 - 0.4j])
@pytest.mark.parametrize("n", range(-5, 6))
def test_vwp_kernel_identity(a, n):
    # (q sqrt(a), -q sqrt(a);q)_n / (sqrt(a), -sqrt(a);q)_n
    # = (1 - a q^{2n})/(1 - a), the paired-factor form
    q = 0.45
    ctx = QContext(q)
    s = cmath.sqrt(a)
    lhs = (qpochhammer(q * s, ctx, n) * qpochhammer(-q * s, ctx, n)
           / (qpochhammer(s, ctx, n) * qpochhammer(-s, ctx, n)))
    rhs = (1.0 - a * q ** (2 * n)) / (1.0 - a)
    assert abs(lhs - rhs) <= 1e-12 * max(abs(rhs), 1.0)


def test_vwp_one_term_configuration():
    # upward dead at b = 1, downward dead at b = a: only n = 0 survives
    r = vwp_psi6(0.5, (1.0, 0.5, 0.7, 0.9), 0.3, QContext(0.5))
    assert r.value == 1
    assert r.terminated


def test_vwp_agrees_with_generic_bilateral():
    # a = q would zero the whole sum through the (q/a;q)_inf factor of the
    # closed form; keep a off q so the comparison is between nonzero values
    q, a = 0.5, 0.4
    bs = (0.6, 0.7, 0.8, 0.9)
    z = a * a * q / (bs[0] * bs[1] * bs[2] * bs[3])
    ctx = QContext(q)
    compact = vwp_psi6(a, bs, z, ctx)
    s = cmath.sqrt(a)
    expanded = eval_psi(SeriesSpec(
        (q * s, -q * s) + bs,
        (s, -s) + tuple(a * q / b for b in bs),
        z), ctx)
    tol = compact.est_error + expanded.est_error + 1e-10 * abs(compact.value)
    assert abs(compact.value - expanded.value) <= tol


def test_vwp_rejects_kernel_pole():
    with pytest.raises(PoleError):
        vwp_psi6(1.0, (0.3, 0.4, 0.5, 0.6), 0.2, QContext(0.5))


def test_vwp_rejects_zero_argument():
    with pytest.raises(NonConvergence):
        vwp_psi6(0.5, (0.3, 0.4, 0.5, 0.6), 0.0, QContext(0.5))


def test_vwp_base_whose_modulus_overflows_abs_diverges():
    # a q^2/c has finite parts but a modulus past the largest double:
    # NonConvergence, not a raw OverflowError
    with pytest.raises(NonConvergence, match="series terms fail to decay"):
        vwp_psi6(1.7e308, (0.5 + 0.5j, 1, 1, 1), 0.5, QContext(0.99))


def test_vwp_rejects_zero_parameter():
    with pytest.raises(DomainError):
        vwp_psi6(0.5, (0.0, 0.4, 0.5, 0.6), 0.2, QContext(0.5))


# ---------------------------------------------------------------------------
# truncated_S

def test_window_sum_empty_window_is_one():
    p = TruncParams(q=0.5, A=2.0, B=0.3, C=3.0, D=0.7, E=1.1, N=0)
    assert truncated_S(p) == 1


def test_window_sum_three_terms():
    p = TruncParams(q=0.5, A=2.0, B=0.3, C=3.0, D=0.7, E=1.1, N=1)
    got = truncated_S(p)
    direct = sum(window_term_oracle(p, n) for n in (-1, 0, 1))
    assert abs(got - direct) <= 1e-13 * abs(direct)
    assert abs(got - S1_SAMPLE) <= 1e-13 * S1_SAMPLE


@pytest.mark.parametrize("N", [1, 2, 3, 4])
def test_window_sum_growth_by_one_ring(N):
    p = TruncParams(q=0.5, A=2.0, B=0.3, C=3.0, D=0.7, E=1.1, N=N - 1)
    inner = truncated_S(p)
    outer = truncated_S(p.replace(N=N))
    ring = window_term_oracle(p, N) + window_term_oracle(p, -N)
    assert abs(outer - (inner + ring)) <= 1e-13 * max(abs(outer), 1.0)


def test_window_sum_equal_A_C_pole():
    p0 = TruncParams(q=0.5, A=2.0, B=0.3, C=2.0, D=0.7, E=1.1, N=0)
    assert truncated_S(p0) == 1
    with pytest.raises(PoleError) as exc:
        truncated_S(TruncParams(q=0.5, A=2.0, B=0.3, C=2.0, D=0.7, E=1.1,
                                N=1))
    assert exc.value.factor == "A/C"


def test_window_sum_kernel_pole():
    q, B, D, E = 0.5, 0.3, 0.7, 1.1
    A = B * D * E * q
    with pytest.raises(PoleError):
        truncated_S(TruncParams(q=q, A=A, B=B, C=3.0, D=D, E=E, N=1))


def test_trunc_params_validation():
    with pytest.raises(DomainError):
        TruncParams(q=1.5, A=1.0, B=1.0, C=1.0, D=1.0, E=1.0, N=0)
    with pytest.raises(DomainError):
        TruncParams(q=0.5, A=0.0, B=1.0, C=1.0, D=1.0, E=1.0, N=0)
    with pytest.raises(DomainError):
        TruncParams(q=0.5, A=1.0, B=1.0, C=0.0, D=1.0, E=1.0, N=0)
    with pytest.raises(DomainError):
        TruncParams(q=0.5, A=1.0, B=1.0, C=1.0, D=1.0, E=1.0, N=-1)


# ---------------------------------------------------------------------------
# eval_T and its closed forms

def test_t_zero_C_diverges():
    p = TParams(q=0.5, X=1.2, B=0.3, C=0.0, D=0.35, E=0.45)
    with pytest.raises(NonConvergence):
        eval_T(p)


def test_t_outside_disk_diverges():
    # |C/q^3| = 4.69 here
    p = TParams(q=0.4, X=1.3, B=0.2, C=0.3, D=0.25, E=0.35)
    with pytest.raises(NonConvergence):
        eval_T(p)


def test_t_at_unit_shift_matches_rogers_product():
    q = 0.5
    p = TParams(q=q, X=q, B=0.3, C=0.1, D=0.35, E=0.45)
    t = eval_T(p)
    closed = rogers_closed(0.3, 0.1, 0.35, 0.45, QContext(q))
    tol = t.est_error + closed.est_error + 1e-10 * abs(closed.value)
    assert abs(t.value - closed.value) <= tol


def test_t_agrees_with_generic_bilateral():
    q = 0.4
    p = TParams(q=q, X=1.3, B=0.2, C=0.03, D=0.25, E=0.35)
    ctx = QContext(q)
    t = eval_T(p)
    a = p.B * p.C * p.D * p.E * p.X * p.X
    bs = (p.B * p.C * p.D * p.E * p.X * q, p.B * p.X * q, p.D * p.X * q,
          p.E * p.X * q)
    s = cmath.sqrt(a)
    expanded = eval_psi(SeriesSpec(
        (q * s, -q * s) + bs,
        (s, -s) + tuple(a * q / b for b in bs),
        p.series_arg), ctx)
    # the expanded rows walk a long downward hump, so roundoff dominates
    # both tails here
    tol = t.est_error + expanded.est_error + 1e-9 * abs(t.value)
    assert abs(t.value - expanded.value) <= tol


def test_rogers_closed_zero_C_is_one():
    r = rogers_closed(0.3, 0.0, 0.35, 0.45, QContext(0.5))
    assert r.value == 1


def test_rogers_closed_matches_unilateral_series():
    q, B, C, D, E = 0.5, 0.3, 0.1, 0.35, 0.45
    ctx = QContext(q)
    a = B * C * D * E * q * q
    s = cmath.sqrt(a)
    series = eval_phi(SeriesSpec(
        (a, q * s, -q * s, B * q * q, D * q * q, E * q * q),
        (s, -s, C * D * E * q, B * C * E * q, B * C * D * q),
        C / q ** 3), ctx)
    closed = rogers_closed(B, C, D, E, ctx)
    tol = series.est_error + closed.est_error + 1e-10 * abs(closed.value)
    assert abs(series.value - closed.value) <= tol


def test_rogers_closed_pole_and_neighbor():
    ctx = QContext(0.5)
    with pytest.raises(PoleError) as exc:
        rogers_closed(0.3, 0.5 ** 3, 0.35, 0.45, ctx)
    assert exc.value.factor == "C/q^3"
    r = rogers_closed(0.3, 0.5 ** 4, 0.35, 0.45, ctx)
    assert cmath.isfinite(r.value) and r.value != 0


def test_bailey_product_reduction_at_b_equal_a():
    # b = a turns the denominator parameter aq/b into q, killing every
    # n <= -1 term; the bilateral collapses to the unilateral sum
    q, a, c, d, e = 0.5, 0.3, 0.6, 0.7, 0.8
    p = BaileyParams(q=q, a=a, b=a, c=c, d=d, e=e)
    ctx = QContext(q)
    closed = bailey_closed_a(p)
    z = p.series_arg
    s = cmath.sqrt(a)
    reduced = eval_phi(SeriesSpec(
        (a, q * s, -q * s, c, d, e),
        (s, -s, a * q / c, a * q / d, a * q / e),
        z), ctx)
    bilateral = vwp_psi6(a, (a, c, d, e), z, ctx)
    tol = closed.est_error + reduced.est_error + 1e-9 * abs(closed.value)
    assert abs(closed.value - reduced.value) <= tol
    assert abs(bilateral.value - reduced.value) <= tol


def test_bailey_product_pole():
    q, a = 0.5, 0.4
    p = BaileyParams(q=q, a=a, b=a * q, c=0.6, d=0.7, e=0.8)
    with pytest.raises(PoleError) as exc:
        bailey_closed_a(p)
    assert exc.value.factor == "aq/b"


def test_bailey_x_product_reduces_to_rogers_at_unit_shift():
    q, B, C, D, E = 0.5, 0.3, 0.1, 0.35, 0.45
    p = TParams(q=q, X=q, B=B, C=C, D=D, E=E)
    full = bailey_closed_X(p)
    reduced = rogers_closed(B, C, D, E, QContext(q))
    assert abs(full.value - reduced.value) <= 1e-10 * abs(reduced.value)


def test_bailey_x_product_pole():
    # BCDEX = 1 puts (1;q)_inf in the denominator
    p = TParams(q=0.5, X=3.0, B=0.5, C=0.5, D=2.0, E=1.0 / 1.5)
    with pytest.raises(PoleError) as exc:
        bailey_closed_X(p)
    assert exc.value.factor == "1/BCDEX"


def test_q_factor_identity_at_unit_shift():
    r = q_factor(0.5, 0.3, 0.4, 0.6, QContext(0.5))
    assert r.value == 1


def test_q_factor_generic_against_direct_products():
    q, X, B, D, E = 0.5, 1.2, 0.3, 0.4, 0.6

    def inf_oracle(a):
        p = 1.0 + 0j
        f = complex(a)
        for _ in range(200):
            p *= 1.0 - f
            f *= q
        return p

    want = (inf_oracle(q) * inf_oracle(1 / (B * q)) * inf_oracle(1 / (D * q))
            * inf_oracle(1 / (E * q)))
    want /= (inf_oracle(X) * inf_oracle(1 / (B * X)) * inf_oracle(1 / (D * X))
             * inf_oracle(1 / (E * X)))
    got = q_factor(X, B, D, E, QContext(q))
    assert abs(got.value - want) <= got.est_error + 1e-12 * abs(want)


def test_q_factor_pole_at_unit_X():
    with pytest.raises(PoleError):
        q_factor(1.0, 0.3, 0.4, 0.6, QContext(0.5))


def test_f_one_step_ratio():
    q = 0.5
    p = TParams(q=q, X=1.2, B=0.3, C=0.1, D=0.35, E=0.45)
    f0 = F_function(p)
    f1 = F_function(p.replace(C=p.C * q))
    m = p.B * p.C * p.D * p.E * p.X
    mX = m * p.X
    top = 1.0
    for x in (1.0 / (m * q), mX * q, p.B * p.C / q, p.C * p.D / q,
              p.C * p.E / q):
        top *= 1.0 - x
    bot = 1.0
    for x in (1.0 / mX, p.C / q ** 3, p.B * p.C * p.D * p.X,
              p.B * p.C * p.E * p.X, p.C * p.D * p.E * p.X):
        bot *= 1.0 - x
    ratio = f0.value / f1.value
    assert abs(ratio - top / bot) <= 1e-10 * abs(top / bot)


def test_f_pole_and_domain():
    with pytest.raises(PoleError):
        F_function(TParams(q=0.5, X=1.2, B=0.3, C=0.5 ** 3, D=0.35, E=0.45))
    with pytest.raises(DomainError):
        F_function(TParams(q=0.5, X=1.2, B=0.3, C=0.0, D=0.35, E=0.45))


@pytest.mark.parametrize("fn", [eval_T, bailey_closed_X, F_function,
                                bailey_closed_a])
def test_parameter_row_evaluators_read_the_policy(fn):
    # a one-term budget cannot certify any of these tails
    if fn is bailey_closed_a:
        p = BaileyParams(q=0.5, a=0.09, b=0.6, c=0.7, d=0.8, e=0.9)
    else:
        p = TParams(q=0.5, X=1.2, B=0.3, C=0.1, D=0.35, E=0.45)
    fn(p)
    with pytest.raises(BudgetExceeded):
        fn(p, TruncationPolicy(max_terms=1))


def test_phi_hump_over_the_cap_is_ill_conditioned():
    # the n = 1 term -0.2 * 0.7 / (0.5 * 0.3) leaves the sum 1/15 and the
    # n = 2 term vanishes, so the unilateral hump is 1 / (1/15) = 15
    spec = SeriesSpec((2.0, 0.3), (0.7,), 0.2)
    value = eval_phi(spec, QContext(0.5)).value
    capped = QContext(0.5, TruncationPolicy(hump_max=15.01))
    assert eval_phi(spec, capped).value == value
    with pytest.raises(IllConditioned, match="unilateral term hump 15"):
        eval_phi(spec, QContext(0.5, TruncationPolicy(hump_max=14.99)))


def test_bilateral_hump_over_the_cap_is_ill_conditioned():
    p = TParams(q=0.5, X=1.2, B=0.3, C=0.1, D=0.35, E=0.45)
    assert eval_T(p, TruncationPolicy(hump_max=1e5)) == eval_T(p)
    # no sum of at most 2 max_terms + 1 terms reaches 1e6 times its
    # largest term
    with pytest.raises(IllConditioned, match="bilateral term hump"):
        eval_T(p, TruncationPolicy(hump_max=1e-6))
    assert issubclass(IllConditioned, NonConvergence)


@pytest.mark.parametrize("cap", [0.0, -1.0, float("nan")])
def test_hump_cap_must_be_positive(cap):
    with pytest.raises(DomainError, match="hump_max"):
        TruncationPolicy(hump_max=cap)


def test_series_spec_rejects_nonfinite():
    with pytest.raises(DomainError):
        SeriesSpec((float("inf"),), (0.3,), 0.5)
