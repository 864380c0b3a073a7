import cmath
import hashlib
import json
import math

import pytest

from qsix import (DEFAULT_CAPS, QContext, SampleConstraints, TParams,
                  TruncationPolicy, check_Q_constancy, cli, identities,
                  sample, sampler, series, violations)
from qsix._backend import margin_hit
from qsix.errors import DomainError, QSixError, Unsatisfiable
from qsix.identities import check_bailey, compute_U, compute_V
from qsix.report import render_sweep, to_jsonable

KINDS = ("trunc", "bailey_a", "t_params")


def test_zero_count_is_empty():
    assert sample("trunc", SampleConstraints(), seed=1, count=0) == []


def test_negative_count_rejected():
    with pytest.raises(DomainError):
        sample("trunc", SampleConstraints(), seed=1, count=-1)


def test_unknown_kind_rejected():
    with pytest.raises(DomainError):
        sample("poch", SampleConstraints(), seed=1, count=1)
    with pytest.raises(DomainError):
        violations("poch", None, SampleConstraints())


@pytest.mark.parametrize("kind", KINDS)
def test_same_seed_same_draws(kind):
    con = SampleConstraints()
    a = sample(kind, con, seed=42, count=4)
    b = sample(kind, con, seed=42, count=4)
    assert a == b


@pytest.mark.parametrize("kind", KINDS)
def test_batch_prefix_matches_shorter_batch(kind):
    # draws are keyed by (seed, index), not by generator state, so a
    # longer batch extends a shorter one
    con = SampleConstraints()
    assert sample(kind, con, seed=7, count=5)[:3] == \
        sample(kind, con, seed=7, count=3)


def test_different_seeds_differ():
    con = SampleConstraints()
    assert sample("trunc", con, seed=1, count=2) != \
        sample("trunc", con, seed=2, count=2)


@pytest.mark.parametrize("kind", KINDS)
def test_draws_pass_their_own_audit(kind):
    con = SampleConstraints()
    for p in sample(kind, con, seed=11, count=6):
        assert violations(kind, p, con) == []


def test_trunc_draws_respect_documented_caps():
    con = SampleConstraints()
    for p in sample("trunc", con, seed=5, count=6):
        assert 0.25 <= abs(p.q) <= 0.7
        for v in (p.A, p.B, p.D, p.E):
            assert 0.1 <= abs(v) <= 3.0
        arg = abs(1.0 / (p.C * p.q ** 2))
        assert DEFAULT_CAPS["trunc_arg_min"] <= arg
        assert arg <= DEFAULT_CAPS["trunc_arg_max"]
        assert p.N == 0


def test_t_draws_respect_documented_caps():
    con = SampleConstraints()
    for p in sample("t_params", con, seed=5, count=6):
        arg = abs(p.C / p.q ** 3)
        assert DEFAULT_CAPS["t_arg_min"] <= arg <= DEFAULT_CAPS["t_arg_max"]


def test_bailey_draws_respect_argument_cap():
    con = SampleConstraints()
    for p in sample("bailey_a", con, seed=5, count=6):
        assert abs(p.series_arg) <= DEFAULT_CAPS["bailey_a_arg_max"]


def test_decay_band_cap_switches_C_construction():
    con = SampleConstraints(convergence_caps={"kn_decay_base_min": 1.5})
    for p in sample("trunc", con, seed=9, count=4):
        base = abs(p.C * p.q ** 3)
        assert 1.5 <= base <= 3.0


def test_diff_amp_cap_bounds_step_cancellation():
    con = SampleConstraints(convergence_caps={"diff_amp_max": 300.0})
    for p in sample("trunc", con, seed=13, count=3):
        for compute in (compute_U, compute_V):
            vals = [compute(n, p) for n in range(-5, 7)]
            for a, b in zip(vals, vals[1:]):
                assert max(abs(a), abs(b)) <= 300.0 * abs(b - a)


def test_impossible_margin_is_unsatisfiable():
    con = SampleConstraints(pole_margin=0.9, max_rejections=50)
    with pytest.raises(Unsatisfiable):
        sample("trunc", con, seed=1, count=1)


@pytest.mark.parametrize("moduli, refused", [
    # terms past double range: the walk diverges on every candidate
    ((1e50, 1e100), 33),
    # some candidates' argument a^2 q/(bcde) underflows to 0, where the
    # bilateral sum diverges
    ((1e-300, 1e300), 4)])
def test_bailey_a_candidates_whose_sum_diverges_are_refused(moduli, refused):
    con = SampleConstraints(param_modulus_range=moduli, max_rejections=50)
    with pytest.raises(Unsatisfiable) as got:
        sample("bailey_a", con, 1, 2)
    assert (f"exhausted 50 rejections, {refused} whose check's sum did "
            f"not converge (last: " in str(got.value))


def test_a_candidate_whose_argument_underflows_to_0_is_redrawn():
    # the first candidate of draw 0 that passes violations() has a^2 q/
    # (bcde) = 0, where the sum raises NonConvergence: it is redrawn
    con = SampleConstraints(param_modulus_range=(1e-300, 1e300),
                            max_rejections=50)
    args = []

    def check(p):
        args.append(p.series_arg)
        return series._bailey_sum(p, QContext(p.q))

    with pytest.raises(Unsatisfiable, match="4 whose check's sum did not"):
        sampler.sample_checked("bailey_a", con, 1, 1, check)
    assert args[0] == 0 and len(args) == 4


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("moduli", [(1e100, 1e150), (1e-200, 1e-150)])
def test_extreme_parameter_moduli_give_draws_or_a_qsix_error(kind, moduli):
    # bases of the table past double range, or dividing by a product that
    # underflows to 0, are a reason of violations(), not a raw
    # ValueError or ZeroDivisionError
    con = SampleConstraints(param_modulus_range=moduli, max_rejections=50)
    try:
        draws = sample(kind, con, seed=1, count=2)
    except QSixError:
        return
    for p in draws:
        assert violations(kind, p, con) == []


def test_base_out_of_double_range_is_a_violation():
    p = TParams(q=0.5, X=1.0, B=1e-200, C=1e-100, D=1e-200, E=1.0)
    assert violations("t_params", p, SampleConstraints()) == [
        "|B| = 1e-200 outside param_modulus_range",
        "|D| = 1e-200 outside param_modulus_range",
        "factor base q/BCDEX^2 out of double range"]


def test_constraint_validation():
    with pytest.raises(DomainError):
        SampleConstraints(q_modulus_range=(0.0, 0.7))
    with pytest.raises(DomainError):
        SampleConstraints(q_modulus_range=(0.5, 1.0))
    with pytest.raises(DomainError):
        SampleConstraints(param_modulus_range=(2.0, 1.0))
    with pytest.raises(DomainError):
        SampleConstraints(pole_margin=0.0)
    with pytest.raises(DomainError):
        SampleConstraints(max_rejections=0)
    with pytest.raises(DomainError):
        SampleConstraints(convergence_caps={"tightness": 2.0})


@pytest.mark.parametrize("margin", (1.0, 1.5, math.inf, math.nan, -0.1))
def test_pole_margin_must_lie_in_the_unit_interval(margin):
    # at 1 and above no factor can keep the margin, so every draw used to
    # fail the audit until max_rejections ran out
    with pytest.raises(DomainError, match="pole_margin"):
        SampleConstraints(pole_margin=margin)


@pytest.mark.parametrize("caps", (
    {"trunc_arg_min": -1.0}, {"hump_max": math.inf},
    {"trunc_arg_max": math.nan}, {"diff_amp_max": "wide"},
    {"kn_decay_base_min": 0.0}, {"bailey_a_arg_max": None}))
def test_convergence_caps_must_be_finite_and_positive(caps):
    with pytest.raises(DomainError, match="convergence cap"):
        SampleConstraints(convergence_caps=caps)


@pytest.mark.parametrize("name", ("t_arg_max", "bailey_a_arg_max"))
def test_arg_max_caps_lie_below_one(name):
    # at 1 or more the cap admits arguments where no sum converges
    for value in (1.0, 1.5):
        with pytest.raises(DomainError, match=f"{name} must be below 1"):
            SampleConstraints(convergence_caps={name: value})
    assert SampleConstraints(convergence_caps={name: 0.999}).cap(name) == 0.999


def test_zero_t_arg_min_is_a_domain_error():
    # used to escape from the draw's math.log as a raw ValueError
    with pytest.raises(DomainError, match="t_arg_min"):
        sample("t_params", SampleConstraints(
            convergence_caps={"t_arg_min": 0.0}), seed=1, count=1)


@pytest.mark.parametrize("caps", (
    {"t_arg_min": 0.95}, {"t_arg_min": 0.5, "t_arg_max": 0.4},
    {"trunc_arg_min": 30.0}, {"trunc_arg_min": 2.0, "trunc_arg_max": 1.0}))
def test_reversed_arg_caps_are_a_domain_error(caps):
    # reversed t caps used to exhaust max_rejections as Unsatisfiable
    with pytest.raises(DomainError, match="exceeds"):
        sample("t_params", SampleConstraints(convergence_caps=caps),
               seed=1, count=1)


def test_long_downward_probe_walk_stays_in_range():
    # second t_params candidate of draw 41 at seed 7: the downward walk of
    # its deepest scaling runs for hundreds of steps, and a walk that forms
    # the top and bottom factor products separately overflows to nan on
    # it, so the candidate used to be rejected with an infinite hump
    p = TParams(q=0.5380420660726305 + 0.29140916177879045j,
                X=-0.708380820311968 - 0.21170882727346732j,
                B=0.1297380443226278 + 0.0158594221670402j,
                C=-0.09914895474605827 - 0.17728702216083964j,
                D=0.36519569201858326 + 0.08031105522432255j,
                E=-1.9902215130477614 - 2.2369933131575293j)
    assert violations("t_params", p, SampleConstraints()) == []
    assert check_Q_constancy(p, steps=4).passed


def _kernel_walks(monkeypatch, run) -> list:
    """((num, den, q, z, vwp_a), direction, acc, peak) of every kernel walk
    run() makes, in order."""
    walks = []
    real = series._K.series_side

    def spy(num, den, q, z, direction, vwp_a, *rest):
        out = real(num, den, q, z, direction, vwp_a, *rest)
        walks.append(((num, den, q, z, vwp_a), direction, out[0], out[7]))
        return out

    with monkeypatch.context() as m:
        m.setattr(series._K, "series_side", spy)
        run()
    return walks


def _humps(walks) -> list:
    """max(1, peak) / |sum| of every sum made of the walks: an upward walk
    followed by the downward walk of the same row is one bilateral sum
    around its n = 0 term, a lone upward walk a unilateral one."""
    out = []
    i = 0
    while i < len(walks):
        row, _, acc, peak = walks[i]
        if i + 1 < len(walks) and walks[i + 1][:2] == (row, -1):
            acc += walks[i + 1][2]
            peak = max(peak, walks[i + 1][3])
            i += 1
        i += 1
        total = abs(1.0 + acc)
        out.append(max(1.0, peak) / total if total else float("inf"))
    return out


T_SWEEPS = [identity for identity, (kind, _, _) in cli._SWEEPS.items()
            if kind == "t_params"]


@pytest.mark.parametrize("identity", T_SWEEPS)
def test_t_draws_are_capped_on_their_checks_walks(identity, monkeypatch):
    # t_params draws are audited statically; their conditioning is judged
    # on the walks their own check makes, capped at hump_max
    kind, con, runner = cli._SWEEPS[identity]
    cap = con.cap("hump_max")
    rep = cli.run_sweep(identity, 10, 7)
    assert rep.summary["passed"] == 10
    for entry in rep.results:
        p = TParams(**{k: complex(v["re"], v["im"])
                       for k, v in entry["params"].items()})
        walks = _kernel_walks(monkeypatch,
                              lambda: runner(p, TruncationPolicy(), {}))
        humps = _humps(walks)
        assert humps and max(humps) <= cap
        runner(p, TruncationPolicy(hump_max=cap), {})


#: (kind, constraints) of every sampled sweep, each pair once
SAMPLED = list({repr(row[:2]): row[:2] for row in cli._SWEEPS.values()
                if row[0]}.values())


@pytest.mark.parametrize("kind, con", SAMPLED, ids=[
    "-".join((kind, *con.convergence_caps)) for kind, con in SAMPLED])
def test_violations_makes_no_kernel_walk(kind, con, monkeypatch):
    # the audit is static for every kind; conditioning is judged on the
    # walks of the check that consumes the draw
    rng = sampler._rng(7, 0)
    accepted = 0
    for _ in range(20):
        p = sampler._draw_once(kind, rng, con)
        walks = _kernel_walks(monkeypatch, lambda: violations(kind, p, con))
        assert not walks
        accepted += not violations(kind, p, con)
    assert accepted


def test_bailey_draws_pass_the_capped_check():
    # sample("bailey_a") caps the bilateral sum that check_bailey makes
    policy = TruncationPolicy(hump_max=DEFAULT_CAPS["hump_max"])
    for p in sample("bailey_a", SampleConstraints(), seed=3, count=30):
        assert check_bailey("a", p, policy).passed


#: SHA-256 of repr(sample("bailey_a", SampleConstraints(), seed, 300)),
#: recorded while the hump cap was a walk inside violations(); the draws
#: of direct callers must not move with where the cap is applied
BAILEY_A_DRAWS = {
    0: "1a83b0fcc503182613d5de585bbb94e1ddfeb5d0445f5f7aa4d75501898f535c",
    1: "13c10a835ca3f89789fe1e8044ddc8a88e4f4b4c3b320338195e71adb1ff8e66",
    2: "abdd583f035c23fb684087a2e1df688ad9ac034e51e68a5d72a5656037ce2f7a",
}


@pytest.mark.parametrize("seed", sorted(BAILEY_A_DRAWS))
def test_bailey_draws_are_pinned(seed):
    draws = sample("bailey_a", SampleConstraints(), seed, 300)
    digest = hashlib.sha256(repr(draws).encode()).hexdigest()
    assert digest == BAILEY_A_DRAWS[seed]


SAMPLED_SWEEPS = [identity for identity, (kind, _, _) in cli._SWEEPS.items()
                  if kind]


@pytest.mark.parametrize("identity", SAMPLED_SWEEPS)
def test_report_constraints_are_the_sweeps_own(identity):
    # the report says which region was drawn from, |q| range included
    con = cli._SWEEPS[identity][1]
    doc = json.loads(render_sweep(cli.run_sweep(identity, 1, 7), "json"))
    assert doc["constraints"] == json.loads(json.dumps(to_jsonable(con)))


def test_q_constancy_draws_keep_their_q_range():
    rep = cli.run_sweep("q-constancy", 30, 7)
    assert rep.summary["passed"] == 30
    for entry in rep.results:
        q = entry["params"]["q"]
        assert 0.4 <= abs(complex(q["re"], q["im"])) <= 0.7


#: a shell that holds the band of every margin the tests use (0.9 needs
#: [1/19, 19])
_SHELL_LO = 1e-4
_SHELL_HI = 1e4


def _ref_margin_bad(x: complex, q: complex, margin: float) -> bool:
    """The pole-margin audit without the kernel's band: every shift landing
    |x q^j| in the shell [1e-4, 1e4] is tested."""
    ax = abs(x)
    if ax == 0.0:
        return False
    aq = abs(q)
    lq = math.log(aq)
    jhi = math.floor(math.log(_SHELL_LO / ax) / lq)
    jlo = math.ceil(math.log(_SHELL_HI / ax) / lq)
    for j in range(jlo, jhi + 1):
        xq = x * q ** j
        if abs(1.0 - xq) < margin * (1.0 + abs(xq)):
            return True
    return False


def _ref_first(xs, q, margin):
    return next((x for x in xs if _ref_margin_bad(x, q, margin)), None)


#: |q| ranges: the default one and both ends of it and of (0, 1)
_Q_RANGES = ((0.25, 0.7), (0.25, 0.26), (0.69, 0.7), (0.02, 0.03),
             (0.97, 0.98))


@pytest.mark.parametrize("margin", (1e-3, 1e-2, 0.1, 0.25, 0.9))
def test_margin_audit_matches_the_shell_loop(margin):
    # the kernel's audit visits only the band where the test can fire;
    # its first bad factor base must be the full shell loop's
    hits = misses = 0
    for kind in KINDS:
        for index, qr in enumerate(_Q_RANGES):
            con = SampleConstraints(q_modulus_range=qr)
            rng = sampler._rng(18, index)
            for _ in range(20):
                p = sampler._draw_once(kind, rng, con)
                q = p.q
                xs = sampler._audited(kind, p)[0]
                # bases next to q^-j, and a zero base among them
                near = []
                for _ in range(6):
                    j = rng.integers(-5, 6)
                    rel = math.exp(rng.uniform(math.log(1e-6),
                                               math.log(1e-1)))
                    turn = cmath.exp(1j * rng.uniform(0.0, 2 * math.pi))
                    near.append(q ** -j * (1.0 + rel * turn))
                cases = [xs, [0j, *near], [*near[3:], 0j, *xs]]
                cases += [[x] for x in (*xs, *near)]
                for case in cases:
                    want = _ref_first(case, q, margin)
                    assert margin_hit(case, q, margin) == want
                    hits += want is not None
                    misses += want is None
    assert hits > 100 and misses > 100


def test_margin_band_reaches_past_the_quarter_shell():
    # at margin 0.7 the band is [3/17, 17/3]; the shift j = -2 puts
    # |x q^j| at 5.34, outside [1/4, 4], and within the margin of 1
    q, x = -0.0365 + 0.2700j, -0.3905 - 0.0676j
    y = x * q ** -2
    assert abs(y) > 4.0
    assert abs(1.0 - y) / (1.0 + abs(y)) == pytest.approx(0.685, abs=1e-3)
    assert margin_hit([x], q, 0.7) == x
    assert _ref_first([x], q, 0.7) == x


def _record_divisors(monkeypatch) -> list:
    """Patch the kernels and the difference product in denominator
    position to append every base a check divides by to the returned
    list: the dividing rows of a series walk (and its kernel parameter a,
    over 1 - a), of a finite product and of the K_N trace, the factors of
    `_nabla_den`, and the base of every infinite product row (numerator
    bases are held to it too). Every walk is also held to rows num and den
    of equal length, the only rows `series_side` takes."""
    seen = []
    K = series._K
    side, sc, trace, inf_row = (K.series_side, K.qpoch_sc, K.kn_trace_sc,
                                K.qpoch_inf_row)
    nabla_den = identities._nabla_den

    def series_side(num, den, q, z, direction, vwp_a, use_vwp, *rest):
        assert len(num) == len(den), (num, den)
        seen.extend(num if direction < 0 else den)
        if use_vwp:
            seen.append(vwp_a)
        return side(num, den, q, z, direction, vwp_a, use_vwp, *rest)

    def qpoch_sc(xs, q, n, invert, *rest):
        if (n < 0) != bool(invert):
            seen.extend(xs)
        return sc(xs, q, n, invert, *rest)

    def kn_trace_sc(vnum, vden, unum, uden, num3, den3, *rest):
        # every row divides somewhere in the trace but K3's numerators
        seen.extend((*vnum, *vden, *unum, *uden, *den3))
        return trace(vnum, vden, unum, uden, num3, den3, *rest)

    def qpoch_inf_row(xs, *rest):
        seen.extend(xs)
        return inf_row(xs, *rest)

    def _nabla_den(pairs):
        seen.extend(x for _, x in pairs)
        return nabla_den(pairs)

    for name, fn in (("series_side", series_side), ("qpoch_sc", qpoch_sc),
                     ("kn_trace_sc", kn_trace_sc),
                     ("qpoch_inf_row", qpoch_inf_row)):
        monkeypatch.setattr(K, name, fn)
    monkeypatch.setattr(identities, "_nabla_den", _nabla_den)
    return seen


def _in_orbit(x: complex, bases, q: complex) -> bool:
    """Whether x is within 1e-9 relative of b q^j, |j| <= 60, for some b
    in bases."""
    lq = math.log(abs(q))
    for b in bases:
        if not b:
            continue
        j = round(math.log(abs(x / b)) / lq)
        for k in (j - 1, j, j + 1):
            if abs(k) <= 60 and abs(x - b * q ** k) <= 1e-9 * abs(x):
                return True
    return False


@pytest.mark.parametrize("identity", SAMPLED_SWEEPS)
def test_audit_covers_every_base_a_check_divides_by(identity, monkeypatch):
    # the pole margin holds for every factor a sampled sweep's check divides
    # by: each such base is a q-shift of a base that violations() audits.
    # Exempt are q, whose (q;q) factors cannot vanish, and rogers' +-sqrt
    # of BCDEq^2, whose square is audited
    kind, con, runner = cli._SWEEPS[identity]
    seen = _record_divisors(monkeypatch)
    checked = []

    def traced(p, policy, tols):
        seen.clear()
        try:
            return runner(p, policy, tols)
        finally:
            audited = sampler._audited(kind, p)[0]
            for x in set(seen):
                assert (x == 0 or x == p.q or _in_orbit(x, audited, p.q)
                        or identity == "rogers"
                        and _in_orbit(x * x, audited, p.q)), (x, p)
            checked.append(len(seen))

    monkeypatch.setitem(cli._SWEEPS, identity, (kind, con, traced))
    cli.run_sweep(identity, 25, 7)
    assert len(checked) >= 25 and min(checked) > 0
