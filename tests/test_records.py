"""The frozen value records: how they print, compare, hash, refuse change,
rebuild through `replace` and survive pickling. Each expected `repr` is
the string that the same instance printed when the records were
dataclasses."""

import math
import pickle

import pytest

from qsix import (AbelInput, BaileyParams, DomainError, EvalResult,
                  KNDecayReport, QContext, ResidualReport, SampleConstraints,
                  SeriesSpec, SweepReport, TParams, TruncationPolicy,
                  TruncParams)

#: one fixed instance of each record class and the repr it prints
RECORDS = [
    (lambda: TruncationPolicy(1e-12, 500, math.inf),
     "TruncationPolicy(tail_tol=1e-12, max_terms=500, hump_max=inf)"),
    (lambda: QContext(0.5 + 0.25j),
     "QContext(q=(0.5+0.25j), policy=TruncationPolicy(tail_tol=1e-15, "
     "max_terms=10000, hump_max=inf))"),
    (lambda: EvalResult(1 - 2j, 1e-16, 12, False),
     "EvalResult(value=(1-2j), est_error=1e-16, terms_used=12, "
     "terminated=False)"),
    (lambda: SeriesSpec([0.5, 0.25j], (3,), -0.1),
     "SeriesSpec(numerators=((0.5+0j), 0.25j), denominators=((3+0j),), "
     "z=(-0.1+0j))"),
    (lambda: TruncParams(0.5, 2, 0.3, 3, 0.7, 1.1, 4),
     "TruncParams(q=(0.5+0j), A=(2+0j), B=(0.3+0j), C=(3+0j), D=(0.7+0j), "
     "E=(1.1+0j), N=4)"),
    (lambda: BaileyParams(0.5, 0.3, 1.2, 1.4j, 1.6, 1.8),
     "BaileyParams(q=(0.5+0j), a=(0.3+0j), b=(1.2+0j), c=1.4j, d=(1.6+0j), "
     "e=(1.8+0j))"),
    (lambda: TParams(0.5j, 1.2, 0.3, 0.1, 0.35, 0.45),
     "TParams(q=0.5j, X=(1.2+0j), B=(0.3+0j), C=(0.1+0j), D=(0.35+0j), "
     "E=(0.45+0j))"),
    (lambda: ResidualReport(1 + 1j, 1 + 1j, 0.0, 0.0, True),
     "ResidualReport(lhs=(1+1j), rhs=(1+1j), abs_err=0.0, rel_err=0.0, "
     "passed=True, note='')"),
    (lambda: AbelInput({-1: 1, 0: 2j, 1: 3, 2: 4}, {-1: 1, 0: 2, 1: 3}, 1, 1),
     "AbelInput(U={-1: 1, 0: 2j, 1: 3, 2: 4}, V={-1: 1, 0: 2, 1: 3}, M=1, "
     "N=1)"),
    (lambda: KNDecayReport((1.0, 0.5), 0.5, 0.1j, 0j, 0.25, True, False,
                           "x"),
     "KNDecayReport(magnitudes=(1.0, 0.5), final_magnitude=0.5, "
     "kn_at_nmax=0.1j, limit=0j, limit_rel_err=0.25, "
     "eventually_decreasing=True, passed=False, note='x')"),
    (lambda: SampleConstraints(convergence_caps={"hump_max": 10.0}),
     "SampleConstraints(q_modulus_range=(0.25, 0.7), "
     "param_modulus_range=(0.1, 3.0), pole_margin=0.001, "
     "convergence_caps={'hump_max': 10.0}, max_rejections=5000)"),
    (lambda: SweepReport("bailey-a", 7, {"seed": 7}, [{"draw_index": 0}],
                         {"total": 1}),
     "SweepReport(identity='bailey-a', seed=7, constraints={'seed': 7}, "
     "results=[{'draw_index': 0}], summary={'total': 1})"),
]
MAKERS = [make for make, _ in RECORDS]
IDS = [want.partition("(")[0] for _, want in RECORDS]
#: the records whose fields are all hashable
HASHABLE = [make for make, want in RECORDS
            if not want.startswith(("AbelInput", "SampleConstraints",
                                    "SweepReport"))]


def test_every_record_class_is_covered():
    import qsix
    from qsix._record import Record
    classes = {name for name in qsix.__all__
               if isinstance(getattr(qsix, name), type)
               and issubclass(getattr(qsix, name), Record)}
    assert classes == set(IDS)


@pytest.mark.parametrize("make,want", RECORDS, ids=IDS)
def test_repr_is_the_dataclass_repr(make, want):
    assert repr(make()) == want


@pytest.mark.parametrize("make", MAKERS, ids=IDS)
def test_equal_within_a_class_only(make):
    a, b = make(), make()
    assert a == b and not a != b
    assert all(a != other() for other in MAKERS if other is not make)


def test_equal_needs_every_field_and_the_same_class():
    p = TParams(0.5, 1.2, 0.3, 0.1, 0.35, 0.45)
    assert p != p.replace(C=0.2)
    b = BaileyParams(0.5, 1.2, 0.3, 0.1, 0.35, 0.45)
    values = tuple(getattr(p, name) for name in p._fields)
    assert values == tuple(getattr(b, name) for name in b._fields)
    assert p != b and b != p
    assert p != values


@pytest.mark.parametrize("make", HASHABLE)
def test_hash_follows_equality(make):
    a, b = make(), make()
    assert hash(a) == hash(b)
    assert len({a, b}) == 1
    assert hash(a) == hash(tuple(getattr(a, name) for name in a._fields))


def test_a_record_that_holds_a_dict_is_unhashable():
    with pytest.raises(TypeError, match="unhashable"):
        hash(SampleConstraints())


@pytest.mark.parametrize("make", MAKERS, ids=IDS)
def test_fields_refuse_assignment_and_deletion(make):
    r = make()
    name = r._fields[0]
    before = repr(r)
    with pytest.raises(AttributeError):
        setattr(r, name, 1)
    with pytest.raises(AttributeError):
        delattr(r, name)
    with pytest.raises(AttributeError):
        r.extra = 1
    assert repr(r) == before


def test_missing_or_unknown_argument_is_a_type_error():
    with pytest.raises(TypeError):
        TParams(0.5, 1.2, 0.3, 0.1, 0.35)
    with pytest.raises(TypeError):
        EvalResult(1.0, 0.0, 1)
    with pytest.raises(TypeError):
        TruncationPolicy(tol=1e-3)
    with pytest.raises(TypeError):
        ResidualReport(1, 1, 0.0, 0.0, True, note="", extra=1)


def test_replace_changes_the_named_fields_and_validates_again():
    p = TParams(0.5, 1.2, 0.3, 0.1, 0.35, 0.45)
    r = p.replace(C=2, X=0.5)
    assert (r.C, r.X, r.q, r.B) == (2 + 0j, 0.5 + 0j, p.q, p.B)
    assert type(r.C) is complex
    assert p.C == 0.1
    with pytest.raises(DomainError):
        p.replace(q=2)
    with pytest.raises(DomainError):
        TruncationPolicy().replace(max_terms=0)
    with pytest.raises(TypeError):
        p.replace(Y=1)


def test_each_default_constraints_has_its_own_caps():
    a, b = SampleConstraints(), SampleConstraints()
    assert a.convergence_caps == {} and a.convergence_caps is not \
        b.convergence_caps


@pytest.mark.parametrize("make", MAKERS, ids=IDS)
def test_pickle_round_trip_is_equal(make):
    r = make()
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        back = pickle.loads(pickle.dumps(r, protocol))
        assert back == r and repr(back) == repr(r)


def test_a_record_class_must_take_its_fields():
    from qsix._record import Record
    with pytest.raises(TypeError, match="an __init__ that takes them"):
        type("Bad", (Record,), {"__annotations__": {"x": "int"},
                                "__init__": lambda self, y: None})
