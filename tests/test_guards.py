"""The guards shared by several entry points: the index check every integer
argument goes through, and the convergence-disk and zero-parameter guards
of the closed-form endpoints, pinned by class and message."""

import json
import math

import pytest

from qsix import (AbelInput, BaileyParams, DomainError, NonConvergence,
                  QContext, SampleConstraints, TParams, TruncationPolicy,
                  TruncParams, check_bailey, check_KN_decay,
                  check_Q_constancy, check_rogers, check_T_iteration, cli,
                  compute_U, compute_V, eval_T, kn_trace, q_factor,
                  qpochhammer, sample)
from qsix.report import to_jsonable

P = TruncParams(q=0.5, A=2.0, B=0.3, C=3.0, D=0.7, E=1.1, N=0)
#: |Cq^3| = 1.5: check_KN_decay's domain
DECAY = P.replace(C=12.0)
T_AT_Q = TParams(q=0.5, X=0.5, B=0.3, C=0.1, D=0.35, E=0.45)
#: indices -1..1 of U and -1..0 of V: an AbelInput with M = 1, N = 0
U = {k: 1.0 + 0j for k in range(-1, 2)}
V = {k: 1.0 + 0j for k in range(-1, 1)}

#: entry point -> (the name its error gives, a call at index n, a good n)
INDEXED = {
    "qpochhammer": ("n", lambda n: qpochhammer(0.5, QContext(0.5), n), 3),
    "TruncParams": ("N", lambda n: P.replace(N=n), 2),
    "TruncationPolicy": ("max_terms",
                         lambda n: TruncationPolicy(max_terms=n), 1000),
    "compute_U": ("n", lambda n: compute_U(n, P), 2),
    "compute_V": ("n", lambda n: compute_V(n, P), 2),
    "kn_trace": ("N_max", lambda n: kn_trace(DECAY, n), 4),
    "check_KN_decay": ("N_max", lambda n: check_KN_decay(DECAY, N_max=n), 8),
    "check_T_iteration": ("m", lambda n: check_T_iteration(T_AT_Q, n), 2),
    "check_Q_constancy": ("steps",
                          lambda n: check_Q_constancy(T_AT_Q, steps=n), 1),
    "AbelInput.M": ("M", lambda n: AbelInput(U=U, V=V, M=n, N=0), 1),
    "AbelInput.N": ("N", lambda n: AbelInput(U=U, V=V, M=1, N=n), 0),
    "sample": ("count",
               lambda n: sample("trunc", SampleConstraints(), 7, n), 1),
    "SampleConstraints": ("max_rejections",
                          lambda n: SampleConstraints(max_rejections=n), 50),
    "run_sweep": ("samples", lambda n: cli.run_sweep("abel", n, 7), 1),
}


@pytest.mark.parametrize("entry", sorted(INDEXED))
def test_integer_arguments_refuse_a_non_integral_index(entry):
    name, call, good = INDEXED[entry]
    call(good)
    for bad in (2.5, math.nan):
        with pytest.raises(DomainError) as exc:
            call(bad)
        assert str(exc.value) == f"{name} must be an integer, got {bad!r}"


@pytest.mark.parametrize("call, message", [
    (lambda: eval_T(TParams(q=0.5, X=1.2, B=0.3, C=0.25, D=0.35, E=0.45)),
     "bilateral argument |C/q^3| = 2.0 is outside the convergence disk"),
    (lambda: check_bailey("a", BaileyParams(q=0.5, a=2.0, b=0.5, c=0.5,
                                            d=0.5, e=0.5)),
     "bilateral argument |a^2 q/(bcde)| = 32.0 is outside the convergence "
     "disk"),
    (lambda: check_rogers(0.3, 0.25, 0.35, 0.45, QContext(0.5)),
     "unilateral argument |C/q^3| = 2.0 is outside the convergence disk"),
])
def test_outside_the_convergence_disk_is_non_convergence(call, message):
    with pytest.raises(NonConvergence) as exc:
        call()
    assert str(exc.value) == message


@pytest.mark.parametrize("zero", range(4))
def test_q_factor_refuses_a_zero_parameter(zero):
    xbde = [1.2, 0.3, 0.35, 0.45]
    xbde[zero] = 0.0
    with pytest.raises(DomainError) as exc:
        q_factor(*xbde, QContext(0.5))
    assert str(exc.value) == "X, B, D, E must be nonzero"


def test_bailey_a_arg_cap_outside_the_disk_is_a_domain_error():
    # a cap that lets candidates outside the disk used to reach the
    # bilateral sum and raise NonConvergence there
    with pytest.raises(DomainError, match="bailey_a_arg_max must be below"):
        SampleConstraints(convergence_caps={"bailey_a_arg_max": 50.0})


def test_check_rogers_prints_its_sweep_runners_report(capsys):
    cli.main(["check", "rogers", "--q", "0.5,0.1", "--B", "0.3,0", "--C",
              "0.1,0.02", "--D", "0.35,0", "--E", "0.45,-0.1", "--format",
              "json"])
    doc = json.loads(capsys.readouterr().out)
    point = TParams(q=0.5 + 0.1j, X=0.5 + 0.1j, B=0.3, C=0.1 + 0.02j,
                    D=0.35, E=0.45 - 0.1j)
    rep = cli._SWEEPS["rogers"][2](point, TruncationPolicy(), {})
    assert doc["report"] == json.loads(json.dumps(to_jsonable(rep)))
