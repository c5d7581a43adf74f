"""The immutable record classes: equality, hashing, repr, immutability,
pickling and copying, defaults, and validation on construction."""

import copy
import pickle
import random

import pytest

from supportmonoids import (ClassReport, DioSystem, DirectSumData, HilbertBasis,
                            RankMatrix, SingleEquationReport, SystemOfSupports)


def fset(*items):
    return frozenset(items)


B1 = HilbertBasis(1, ((1,),))
B0 = HilbertBasis(0, ())

# name -> (instance, an equal instance built positionally, an unequal one)
SAMPLES = {
    "DioSystem": (
        DioSystem(s=2, F=((1, 0),), G=((0, 1),)),
        DioSystem(2, [[1, 0]], [(0, 1)], (), ()),
        DioSystem(s=2, D=((1, 1),), moduli=(2,)),
    ),
    "HilbertBasis": (
        HilbertBasis(dim=2, gens=((0, 1), (1, 0))),
        HilbertBasis(2, [[0, 1], [1, 0]]),
        HilbertBasis(2, ((1, 1),)),
    ),
    "SystemOfSupports": (
        SystemOfSupports(s=1, unit=(1,), families=((fset(), B1), (fset(1), B0))),
        SystemOfSupports(1, [1], [({1}, B0), (set(), B1)]),
        SystemOfSupports(s=1, unit=(2,), families=((fset(), B1), (fset(1), B0))),
    ),
    "ClassReport": (
        ClassReport(has_order_unit=True, full=True, almost_free=False,
                    equals_a_plus_inf_a=False, all_fg_sums=False,
                    witnesses=((1, 0),), verification_bound=5),
        ClassReport(True, True, False, False, False, ((1, 0),), 5),
        ClassReport(False, None, None, None, None, (), 5),
    ),
    "SingleEquationReport": (
        SingleEquationReport(has_positive_solution=True, almost_free=True,
                             equals_a_plus_inf_a=None, closed_form_applicable=False),
        SingleEquationReport(True, True, None, False),
        SingleEquationReport(True, True, True, True),
    ),
    "DirectSumData": (
        DirectSumData(s=3, I1=fset(1), I2=fset(2), I3=fset(3),
                      B1=B1, B2=B1, f1=((1,),), f2=((1,),)),
        DirectSumData(3, {1}, {2}, {3}, B1, B1, [[1]], [[1]]),
        DirectSumData(s=3, I1=fset(1), I2=fset(2), I3=fset(3),
                      B1=B1, B2=B1, f1=((0,),), f2=((1,),)),
    ),
    "RankMatrix": (
        RankMatrix(a=((1, 1), (1, 2))),
        RankMatrix([[1, 1], [1, 2]], None),
        RankMatrix(a=((1, 1), (1, 2)), labels=("R", "M")),
    ),
}

REPRS = {
    "DioSystem": "DioSystem(s=2, F=((1, 0),), G=((0, 1),), D=(), moduli=())",
    "HilbertBasis": "HilbertBasis(dim=2, gens=((0, 1), (1, 0)))",
    "SystemOfSupports": (
        "SystemOfSupports(s=1, unit=(1,), families=("
        "(frozenset(), HilbertBasis(dim=1, gens=((1,),))), "
        "(frozenset({1}), HilbertBasis(dim=0, gens=()))))"),
    "ClassReport": (
        "ClassReport(has_order_unit=True, full=True, almost_free=False, "
        "equals_a_plus_inf_a=False, all_fg_sums=False, witnesses=((1, 0),), "
        "verification_bound=5)"),
    "SingleEquationReport": (
        "SingleEquationReport(has_positive_solution=True, almost_free=True, "
        "equals_a_plus_inf_a=None, closed_form_applicable=False)"),
    "DirectSumData": (
        "DirectSumData(s=3, I1=frozenset({1}), I2=frozenset({2}), "
        "I3=frozenset({3}), B1=HilbertBasis(dim=1, gens=((1,),)), "
        "B2=HilbertBasis(dim=1, gens=((1,),)), f1=((1,),), f2=((1,),))"),
    "RankMatrix": "RankMatrix(a=((1, 1), (1, 2)), labels=None)",
}

NAMES = sorted(SAMPLES)


@pytest.mark.parametrize("name", NAMES)
def test_equality(name):
    a, same, other = SAMPLES[name]
    assert a == same and not a != same
    assert a != other and not a == other


@pytest.mark.parametrize("name", NAMES)
def test_no_equality_across_classes(name):
    a = SAMPLES[name][0]
    for other_name in NAMES:
        if other_name != name:
            b = SAMPLES[other_name][0]
            assert a != b and b != a
            assert a.__eq__(b) is NotImplemented
    # nor with the tuple of its own field values
    values = tuple(getattr(a, f) for f in type(a)._fields)
    assert a != values and a.__eq__(values) is NotImplemented


@pytest.mark.parametrize("name", NAMES)
def test_hash_agrees_with_equality(name):
    a, same, other = SAMPLES[name]
    assert hash(a) == hash(same)
    assert len({a, same, other}) == 2
    assert {a: 1}[same] == 1


@pytest.mark.parametrize("name", NAMES)
def test_repr(name):
    assert repr(SAMPLES[name][0]) == REPRS[name]


@pytest.mark.parametrize("name", NAMES)
def test_fields_cannot_be_assigned_or_deleted(name):
    a = SAMPLES[name][0]
    field = type(a)._fields[0]
    before = getattr(a, field)
    with pytest.raises(AttributeError):
        setattr(a, field, before)
    with pytest.raises(AttributeError):
        delattr(a, field)
    with pytest.raises(AttributeError):
        a.extra = 1
    assert getattr(a, field) == before


@pytest.mark.parametrize("name", NAMES)
def test_pickle_and_deepcopy_round_trips(name):
    a = SAMPLES[name][0]
    for b in (pickle.loads(pickle.dumps(a)), copy.deepcopy(a), copy.copy(a)):
        assert type(b) is type(a)
        assert b == a and hash(b) == hash(a)


def test_copies_of_a_system_of_supports_keep_the_derived_data():
    sos = SAMPLES["SystemOfSupports"][0]
    for b in (pickle.loads(pickle.dumps(sos)), copy.deepcopy(sos)):
        assert b.S == fset(fset(), fset(1))
        assert b.basis_for(()) == B1


def test_unpickling_validates_again():
    # a pickle whose field values are invalid is refused on load, because
    # loading rebuilds through __init__
    blob = pickle.dumps(DioSystem(s=2, D=((1, 1),), moduli=(2,)))
    tampered = blob.replace(pickle.dumps(2)[2:-1], pickle.dumps(1)[2:-1], 1)
    assert tampered != blob
    with pytest.raises(ValueError):
        pickle.loads(tampered)


def test_keyword_defaults():
    assert DioSystem(s=2) == DioSystem(2, (), (), (), ())
    sys_ = DioSystem(s=2)
    assert (sys_.F, sys_.G, sys_.D, sys_.moduli) == ((), (), (), ())
    assert RankMatrix(((1, 1), (1, 2))).labels is None


def test_a_system_of_supports_is_its_data():
    # three fields and no flag, so a caller cannot mark a hand-built
    # system as full without a check
    assert SystemOfSupports._fields == ("s", "unit", "families")
    with pytest.raises(TypeError):
        SystemOfSupports(1, (1,), ((fset(), B1), (fset(1), B0)), solution_backed=True)


def test_fields_are_normalized():
    sys_ = SAMPLES["DioSystem"][1]
    assert sys_.F == ((1, 0),) and type(sys_.F[0]) is tuple
    sos = SAMPLES["SystemOfSupports"][1]
    assert [H for H, _ in sos.families] == [fset(), fset(1)]
    d = SAMPLES["DirectSumData"][1]
    assert d.I1 == fset(1) and d.f1 == ((1,),)


@pytest.mark.parametrize("build, match", [
    (lambda: DioSystem(s=2, D=((1, 1),), moduli=(1,)), "modulus"),
    (lambda: HilbertBasis(2, ((1, 0), (0, 1))), "canonically sorted"),
    (lambda: SystemOfSupports(s=2, unit=(1, 0), families=()), "strictly positive"),
    (lambda: DirectSumData(s=2, I1=fset(1), I2=fset(1), I3=fset(),
                           B1=B1, B2=B1, f1=((),), f2=((),)), "partition"),
    (lambda: RankMatrix(a=((1, 0),)), "two minimal primes"),
])
def test_invalid_input_raises_value_error(build, match):
    with pytest.raises(ValueError, match=match):
        build()


def test_integer_rows_share_one_entry_test():
    # DioSystem rows, DirectSumData shadow rows and RankMatrix rows name
    # the failing row or entry alike
    with pytest.raises(ValueError, match=r"^F row 0 has length 1, expected 2$"):
        DioSystem(s=2, F=((1,),), G=((1, 0),))
    for f1, match in ((((1, 0),), r"^f1 row 0 has length 2, expected 1$"),
                      (((-1,),), r"^f1 entry: expected at least 0, got -1$"),
                      (((True,),), r"^f1 entry: expected an integer, got True$")):
        with pytest.raises(ValueError, match=match):
            DirectSumData(s=3, I1=fset(1), I2=fset(2), I3=fset(3), B1=B1, B2=B1,
                          f1=f1, f2=((1,),))
    for a, match in ((((1, 1), (1,)), r"^rank row 1 has length 1, expected 2$"),
                     (((1, -1), (1, 1)), r"^rank entry: expected at least 0, got -1$"),
                     (((1, 1.5), (1, 1)), r"^rank entry: expected an integer, got 1.5$")):
        with pytest.raises(ValueError, match=match):
            RankMatrix(a=a)


@pytest.mark.parametrize("cls", [ClassReport, SingleEquationReport])
def test_reports_need_every_field(cls):
    # the reports validate nothing, but their fields have no defaults
    with pytest.raises(TypeError):
        cls(True)


def library_built_records(rng):
    """Records the library builds itself, unvalidated: subsystems, lifted
    systems, computed bases and the four kinds of systems of supports."""
    from supportmonoids import (a_plus_inf_a, b_max, b_min, extract, hilbert_basis,
                                infinite_supports, subsystem_for)
    from supportmonoids.equations import lift_congruences
    out = []
    while len(out) < 1500:
        s = rng.randint(1, 4)
        n_eq, n_cg = rng.randint(0, 2), rng.randint(0, 2)
        sys_ = DioSystem(
            s=s, F=tuple(tuple(rng.randint(0, 3) for _ in range(s)) for _ in range(n_eq)),
            G=tuple(tuple(rng.randint(0, 3) for _ in range(s)) for _ in range(n_eq)),
            D=tuple(tuple(rng.randint(0, 3) for _ in range(s)) for _ in range(n_cg)),
            moduli=tuple(rng.choice((2, 3)) for _ in range(n_cg)))
        out += [lift_congruences(sys_), hilbert_basis(sys_)]
        basis = out[-1]
        if basis.order_unit() is None:
            continue
        for H in infinite_supports(sys_):
            if len(H) < s:
                out.append(subsystem_for(sys_, H))
        for sos in (extract(sys_), a_plus_inf_a(basis), b_min(basis), b_max(basis)):
            out.append(sos)
            out += [b for _, b in sos.families]
    return out


def test_library_built_records_equal_their_validated_rebuild():
    built = library_built_records(random.Random(61))
    assert {type(r) for r in built} == {DioSystem, HilbertBasis, SystemOfSupports}
    for r in built:
        again = type(r)(*r._values())
        assert again == r and hash(again) == hash(r), r
        back = pickle.loads(pickle.dumps(r))
        assert back == r and repr(back) == repr(r)
        if isinstance(r, SystemOfSupports):
            assert again.S == r.S == back.S and again._by_h == r._by_h == back._by_h


def test_system_of_supports_loader_checks_every_entry():
    doc = {"s": 2, "unit": [1, 1],
           "supports": [{"H": [], "basis": [[1, 0], [0, 1], [True, 1]]},
                        {"H": [1, 2], "basis": []}]}
    with pytest.raises(ValueError) as err:
        SystemOfSupports.from_json(doc)
    assert str(err.value) == "generator entry: expected an integer, got True"
    doc["supports"][0]["basis"].pop()
    assert SystemOfSupports.from_json(doc).basis_for(()) == HilbertBasis.free(2)


def test_system_of_supports_checks_its_dimension():
    fams = ((fset(), B1), (fset(1), B0))
    doc = {"unit": [1], "supports": [{"H": [], "basis": [[1]]}, {"H": [1], "basis": []}]}
    for s in (True, 1.0, "1", 0, 25):
        with pytest.raises(ValueError, match="dimension"):
            SystemOfSupports(s, (1,), fams)
        with pytest.raises(ValueError, match="dimension"):
            SystemOfSupports.from_json({"s": s, **doc})
    assert SystemOfSupports.from_json({"s": 1, **doc}) == SystemOfSupports(1, (1,), fams)
    assert SystemOfSupports(1, (1,), fams).to_json()["s"] == 1
