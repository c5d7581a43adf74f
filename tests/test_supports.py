import copy
import functools
import itertools
import operator
import pickle
import random
import sys
import threading
import time

import pytest

from conftest import FIXTURE_NAMES, load_fixture
from oracles import from_lib, o_closure, o_solutions
from supportmonoids import (INF, DioSystem, HilbertBasis, SystemOfSupports,
                            a_plus_inf_a, b_max, b_min,
                            divides, enumerate_truncated, equals_a_plus_inf_a,
                            extract, generators, generated_truncated, in_generated,
                            infinite_supports, inject,
                            is_almost_free, is_full, is_member,
                            member_via_supports, minimal_nonempty,
                            minimize_generators, subsystem_for, supp,
                            truncated_members, validate)
from supportmonoids.errors import MissingOrderUnitError, ResourceLimitError
from supportmonoids.semiring import canonical_sorted
from supportmonoids.supports import _closed_masks, _coords, _mask

RANDCLOSURE = DioSystem(s=3, F=((1, 1, 0),), G=((1, 0, 1),))
PARITY = DioSystem(s=2, D=((1, 1),), moduli=(2,))


def fset(*items):
    return frozenset(items)


def test_infinite_supports_randclosure():
    S = infinite_supports(RANDCLOSURE)
    everything = {frozenset(c) for r in range(4)
                  for c in itertools.combinations((1, 2, 3), r)}
    assert S == frozenset(everything - {fset(2), fset(3)})


def test_infinite_supports_congruence_only():
    S = infinite_supports(PARITY)
    assert S == frozenset({fset(), fset(1), fset(2), fset(1, 2)})


def test_infinite_supports_single_equation_disjoint():
    sys_ = DioSystem(s=2, F=((2, 0),), G=((0, 3),))
    assert infinite_supports(sys_) == frozenset({fset(), fset(1, 2)})


def test_infinite_supports_without_order_unit():
    # x1 = 0 has no strictly positive solution; the walk needs none
    sys_ = DioSystem(s=2, F=((1, 0),), G=((0, 0),))
    assert infinite_supports(sys_) == frozenset({fset(), fset(2)})


def test_infinite_supports_match_oracle():
    # systems with and without an order unit alike
    rng = random.Random(41)
    for _ in range(20):
        s = rng.randint(2, 4)
        n_eq = rng.randint(0, 2)
        sys_ = DioSystem(
            s=s,
            F=tuple(tuple(rng.randint(0, 2) for _ in range(s)) for _ in range(n_eq)),
            G=tuple(tuple(rng.randint(0, 2) for _ in range(s)) for _ in range(n_eq)),
        )
        S = infinite_supports(sys_)
        sols = o_solutions(sys_.to_json(), 2)
        want = {frozenset(i + 1 for i, v in enumerate(x) if v is None) for x in sols}
        assert S == frozenset(want)


def test_truncated_members_match_the_oracles():
    rng = random.Random(71)
    found = 0
    while found < 25:
        s = rng.randint(1, 4)
        n_eq = rng.randint(0, 2)
        sys_ = DioSystem(
            s=s,
            F=tuple(tuple(rng.randint(0, 2) for _ in range(s)) for _ in range(n_eq)),
            G=tuple(tuple(rng.randint(0, 2) for _ in range(s)) for _ in range(n_eq)),
        )
        try:
            sos = extract(sys_)
        except MissingOrderUnitError:
            continue
        found += 1
        bound = rng.randint(0, 3)
        got = {from_lib(x, INF) for x in truncated_members(sos, bound)}
        assert got == o_solutions(sys_.to_json(), bound), (sys_, bound)
        # A + inf·A is the closure of A's generators under adding g and inf·g
        gens = sos.basis_for(frozenset()).gens
        got = {from_lib(x, INF) for x in truncated_members(a_plus_inf_a(
            HilbertBasis.from_generators(s, gens)), bound)}
        assert got == o_closure(gens, bound, s), (gens, bound)
    # the family at H = {1, ..., s} adds (inf, ..., inf), one at H = {} the
    # finite members, and members of width 70 fit their fields
    sos = a_plus_inf_a(HilbertBasis.from_generators(2, ((37, 0), (0, 1))))
    got = truncated_members(sos, 70)
    assert (INF, INF) in got and (37, 70) in got and (74, 0) not in got
    assert {from_lib(x, INF) for x in got} == o_closure(((37, 0), (0, 1)), 70, 2)


def test_subsystem_for():
    sub = subsystem_for(RANDCLOSURE, {1})
    assert sub == DioSystem(s=2)  # the row dies, two free coordinates remain
    sub23 = subsystem_for(RANDCLOSURE, {2, 3})
    assert sub23 == DioSystem(s=1)
    assert subsystem_for(RANDCLOSURE, frozenset()) == RANDCLOSURE
    with pytest.raises(ValueError):
        subsystem_for(RANDCLOSURE, {2})  # not an infinite support


def test_subsystem_for_tests_only_h():
    # twenty coordinates, past MAX_POWERSET_DIM: only H is tested
    x1_is_x2 = DioSystem(s=20, F=((1,) + (0,) * 19,), G=((0, 1) + (0,) * 18,))
    assert subsystem_for(x1_is_x2, {1, 2}) == DioSystem(s=18)
    assert subsystem_for(x1_is_x2, {3}) == DioSystem(
        s=19, F=((1,) + (0,) * 18,), G=((0, 1) + (0,) * 17,))
    with pytest.raises(ValueError, match="not an infinite support"):
        subsystem_for(x1_is_x2, {1})
    # x1 = 0 has no order unit, yet {2} is an infinite support
    no_unit = DioSystem(s=2, F=((1, 0),), G=((0, 0),))
    assert subsystem_for(no_unit, {2}) == DioSystem(s=1, F=((1,),), G=((0,),))
    with pytest.raises(ValueError, match="not an infinite support"):
        subsystem_for(no_unit, {1})


def test_subsystem_keeps_untouched_congruences():
    sys_ = DioSystem(s=3, D=((1, 1, 0), (0, 0, 2)), moduli=(2, 3))
    sub = subsystem_for(sys_, {3})
    assert sub == DioSystem(s=2, D=((1, 1),), moduli=(2,))


def test_extract_randclosure():
    sos = extract(RANDCLOSURE)
    assert sos.unit == (1, 1, 1)
    assert sos.basis_for(fset()).gens == ((0, 1, 1), (1, 0, 0))
    assert sos.basis_for(fset(1)).gens == ((0, 1), (1, 0))
    assert sos.basis_for(fset(1, 2, 3)).gens == ()
    assert validate(sos) == []


def test_extract_unconstrained():
    sos = extract(DioSystem(s=2))
    assert len(sos.S) == 4
    for H in sos.S:
        k = 2 - len(H)
        assert len(sos.basis_for(H).gens) == k


def test_extract_requires_order_unit():
    with pytest.raises(MissingOrderUnitError):
        extract(DioSystem(s=2, F=((1, 0),), G=((0, 0),)))


def test_membership_roundtrip_on_fixtures():
    for sys_ in (RANDCLOSURE, PARITY,
                 DioSystem(s=4, F=((1, 1, 1, 0),), G=((1, 1, 0, 1),)),
                 DioSystem(s=2, F=((4, 3),), G=((3, 4),))):
        sos = extract(sys_)
        members = frozenset(enumerate_truncated(sys_, 3))
        assert truncated_members(sos, 3) == members
        values = (0, 1, 2, 3, INF)
        for x in itertools.product(values, repeat=sys_.s):
            assert member_via_supports(sos, x) == is_member(sys_, x)


def test_member_via_supports_examples():
    sos = extract(RANDCLOSURE)
    assert member_via_supports(sos, (INF, 1, 0))
    assert member_via_supports(sos, (INF, 0, 0))
    assert not member_via_supports(sos, (0, INF, 0))


def test_extraction_is_presentation_independent():
    doubled = DioSystem(s=3, F=((1, 1, 0), (2, 2, 0)), G=((1, 0, 1), (2, 0, 2)))
    assert extract(doubled) == extract(RANDCLOSURE)
    # row order does not matter either
    two_rows = DioSystem(s=4,
                         F=((1, 1, 0, 0), (1, 0, 1, 0)),
                         G=((1, 0, 1, 0), (1, 0, 0, 1)))
    permuted = DioSystem(s=4,
                         F=((1, 0, 1, 0), (1, 1, 0, 0)),
                         G=((1, 0, 0, 1), (1, 0, 1, 0)))
    assert extract(two_rows) == extract(permuted)


def test_generators_randclosure():
    gens = generators(extract(RANDCLOSURE))
    assert gens == ((0, 1, 1), (1, 0, 0), (INF, 0, 1), (INF, 1, 0))


def test_generators_localbass():
    sys_ = DioSystem(s=4, F=((1, 1, 1, 0),), G=((1, 1, 0, 1),))
    gens = generators(extract(sys_))
    e0, e1 = (1, 0, 0, 0), (0, 1, 0, 0)
    v = (0, 0, 1, 1)
    a0, b0 = (INF, 0, 1, 0), (INF, 0, 0, 1)
    a1, b1 = (0, INF, 1, 0), (0, INF, 0, 1)
    assert set(gens) == {e0, e1, v, a0, b0, a1, b1}
    assert len(gens) == 7


def test_generators_free_line():
    # (inf,) = inf·(1,), so the minimization rule leaves the single generator
    gens = generators(extract(DioSystem(s=1)))
    assert gens == ((1,),)
    assert generated_truncated(gens, 3, 1) == frozenset({(0,), (1,), (2,), (3,), (INF,)})


def test_generators_regenerate_the_monoid():
    for sys_ in (RANDCLOSURE, PARITY):
        sos = extract(sys_)
        gens = generators(sos)
        assert generated_truncated(gens, 3, sys_.s) == \
            frozenset(enumerate_truncated(sys_, 3))


def _candidates(sos):
    """z_H and the injected family generators, zero left out."""
    out = set()
    for H, basis in sos.families:
        out.add(inject((0,) * (sos.s - len(H)), H))
        for g in basis.gens:
            out.add(inject(g, H))
    out.discard((0,) * sos.s)
    return out


def _random_system(rng):
    s = rng.randint(1, 4)
    n_eq, n_cg = rng.randint(0, 2), rng.randint(0, 1)
    row = lambda: tuple(rng.choice((0, 0, 1, 2, 3)) for _ in range(s))
    return DioSystem(s=s, F=tuple(row() for _ in range(n_eq)),
                     G=tuple(row() for _ in range(n_eq)),
                     D=tuple(row() for _ in range(n_cg)),
                     moduli=tuple(rng.choice((2, 3, 4)) for _ in range(n_cg)))


def _hand_built(rng, s):
    """Random S, with or without the empty set, and random families that
    need not be minimal; some are trivial (they generate only zero)."""
    fams = []
    for r in range(s + 1):
        for H in itertools.combinations(range(1, s + 1), r):
            if rng.random() < 0.6:
                k = s - r
                gens = {tuple(rng.randint(0, 2) for _ in range(k))
                        for _ in range(rng.randint(0, 5) if k else 0)}
                gens.discard((0,) * k)
                fams.append((frozenset(H), HilbertBasis(k, canonical_sorted(gens))))
    return SystemOfSupports(s=s, unit=(1,) * s, families=tuple(fams))


def test_generators_match_the_sweep_over_all_candidates():
    # extracted systems, the three constructions over their finite parts,
    # and hand-built systems; the counts show each of the three tests
    # deciding both ways
    rng = random.Random(59)
    systems = []
    while len(systems) < 1000:
        try:
            sos = extract(_random_system(rng))
        except MissingOrderUnitError:
            continue
        finite = sos.basis_for(frozenset())
        systems += [sos, a_plus_inf_a(finite), b_min(finite), b_max(finite),
                    _hand_built(rng, sos.s)]
    seen = dict.fromkeys(("finite dropped", "z_H kept", "z_H covered by several",
                          "injection dropped", "empty set missing", "trivial family"), 0)
    for sos in systems:
        candidates = _candidates(sos)
        got = generators(sos)
        assert got == minimize_generators(candidates), sos
        empty = frozenset()
        if empty in sos.S:
            seen["finite dropped"] += len(sos.basis_for(empty).gens) > sum(
                INF not in g for g in got)
        else:
            seen["empty set missing"] += 1
        for H, basis in sos.families:
            if not H:
                continue
            z = inject((0,) * (sos.s - len(H)), H)
            if z in got:
                seen["z_H kept"] += 1
            elif not any(supp(c) == H for c in candidates - {z}):
                seen["z_H covered by several"] += 1
            seen["injection dropped"] += any(inject(g, H) not in got for g in basis.gens)
            seen["trivial family"] += len(H) < sos.s and not basis.gens
    assert all(n >= 20 for n in seen.values()), seen


def test_validate_catches_broken_systems():
    sos = extract(RANDCLOSURE)
    no_empty = SystemOfSupports(
        s=3, unit=(1, 1, 1),
        families=tuple((H, b) for H, b in sos.families if H))
    assert any("(1)" in v for v in validate(no_empty))

    no_full = SystemOfSupports(
        s=3, unit=(1, 1, 1),
        families=tuple((H, b) for H, b in sos.families if len(H) < 3))
    assert any("(3)" in v for v in validate(no_full))

    # fabricate a projection violation: the {1}-family only reaches (2, 2)
    fams = []
    for H, b in sos.families:
        if H == fset(1):
            fams.append((H, HilbertBasis(2, ((2, 2),))))
        else:
            fams.append((H, b))
    bad = SystemOfSupports(s=3, unit=(1, 1, 1), families=tuple(fams))
    assert any("(4)" in v for v in validate(bad))


def test_validate_unit_must_be_generated():
    sos = extract(RANDCLOSURE)
    with pytest.raises(ValueError):
        SystemOfSupports(s=3, unit=(1, 1, INF), families=sos.families)
    off = SystemOfSupports(s=3, unit=(2, 1, 2), families=sos.families)
    assert any("(1)" in v for v in validate(off))


def test_divisor_homomorphism_property():
    # comparable members always differ by a member
    for sys_ in (RANDCLOSURE, PARITY):
        members = enumerate_truncated(sys_, 3)
        pool = frozenset(members)
        for b in members:
            for c in members:
                if not divides(b, c):
                    continue
                assert _difference_member(sys_, b, c, 3, pool), (b, c)


def _difference_member(sys_, b, c, bound, pool):
    free = [i for i in range(sys_.s) if b[i] is INF and c[i] is INF]
    fixed = {}
    for i in range(sys_.s):
        if c[i] is INF and b[i] is not INF:
            fixed[i] = INF
        elif c[i] is not INF:
            fixed[i] = c[i] - b[i]
    choices = (0, 1, 2, 3, INF)
    for combo in itertools.product(choices, repeat=len(free)):
        d = [0] * sys_.s
        for i, v in fixed.items():
            d[i] = v
        for i, v in zip(free, combo):
            d[i] = v
        if tuple(d) in pool:
            return True
    return False


def test_char_given_by_closure_properties():
    for sys_ in (RANDCLOSURE, PARITY):
        members = enumerate_truncated(sys_, 3)
        for x in members:
            lam = frozenset(i + 1 for i, v in enumerate(x) if v is INF)
            inf_version = tuple(INF if v != 0 else 0 for v in x)
            assert is_member(sys_, inf_version)
            marker = inject((0,) * (sys_.s - len(lam)), lam) if lam else (0,) * sys_.s
            assert is_member(sys_, marker)


def test_is_full_and_almost_free():
    sos = extract(RANDCLOSURE)
    assert is_full(sos)
    assert is_almost_free(sos)
    # a hand-built system whose nonempty family is a numerical semigroup
    fams = (
        (fset(), HilbertBasis(2, ((1, 1),))),
        (fset(1), HilbertBasis(1, ((2,), (3,)))),
        (fset(2), HilbertBasis(1, ((1,),))),
        (fset(1, 2), HilbertBasis(0, ())),
    )
    sos2 = SystemOfSupports(s=2, unit=(1, 1), families=fams)
    assert not is_almost_free(sos2)
    # the numerical semigroup <2, 3> has a gap at 1, so it is not full
    assert not is_full(sos2)


def test_random_extractions_satisfy_the_axioms():
    rng = random.Random(47)
    checked = 0
    while checked < 15:
        s = rng.randint(2, 4)
        n_eq = rng.randint(0, 2)
        n_cg = rng.randint(0, 1)
        sys_ = DioSystem(
            s=s,
            F=tuple(tuple(rng.randint(0, 3) for _ in range(s)) for _ in range(n_eq)),
            G=tuple(tuple(rng.randint(0, 3) for _ in range(s)) for _ in range(n_eq)),
            D=tuple(tuple(rng.randint(0, 2) for _ in range(s)) for _ in range(n_cg)),
            moduli=tuple(rng.choice((2, 3)) for _ in range(n_cg)),
        )
        try:
            sos = extract(sys_)
        except MissingOrderUnitError:
            continue
        checked += 1
        assert validate(sos) == [], sys_


def test_is_full_agrees_with_all_pairs_definition():
    # the generator-peeling check equals the naive quantifier over all
    # comparable pairs of truncated members
    cases = (
        ((frozenset(), HilbertBasis(2, ((1, 1),))),),                 # diagonal
        ((frozenset(), HilbertBasis(1, ((2,), (3,)))),),              # gap at 1
        ((frozenset(), HilbertBasis(2, ((0, 2), (1, 1), (2, 0)))),),  # parity
        ((frozenset(), HilbertBasis(2, ((1, 2), (2, 1)))),),          # skew cone
    )
    from supportmonoids import generated_upto
    bound = 5
    for fams in cases:
        gens = fams[0][1].gens
        unit = tuple(sum(g[i] for g in gens) for i in range(fams[0][1].dim))
        sos = SystemOfSupports(
            s=fams[0][1].dim, unit=unit,
            families=fams + ((frozenset(range(1, fams[0][1].dim + 1)),
                              HilbertBasis(0, ())),))
        closure = generated_upto(gens, bound, fams[0][1].dim)
        naive = all(
            tuple(b - a for a, b in zip(x, y)) in closure
            for x in closure for y in closure
            if all(p <= q for p, q in zip(x, y)))
        assert is_full(sos, bound) == naive, gens


def test_minimal_nonempty():
    S = {fset(), fset(1), fset(2, 3), fset(1, 2), fset(1, 2, 3)}
    assert minimal_nonempty(S) == [fset(1), fset(2, 3)]
    for bad in (0, 25):
        with pytest.raises(ValueError, match=f"^index {bad} outside 1..24$"):
            minimal_nonempty([fset(1), fset(bad)])


def test_minimal_nonempty_matches_brute_force():
    rng = random.Random(157)
    for _ in range(3000):
        s = rng.randint(1, 8)
        S = {frozenset(rng.sample(range(1, s + 1), rng.randint(0, s)))
             for _ in range(rng.randint(0, 30))}
        nonempty = [H for H in S if H]
        restated = sorted((H for H in nonempty if not any(K < H for K in nonempty)),
                          key=lambda H: (len(H), sorted(H)))
        assert minimal_nonempty(S) == restated, S


def test_json_roundtrip():
    sos = extract(RANDCLOSURE)
    again = SystemOfSupports.from_json(sos.to_json())
    assert again.s == sos.s and again.unit == sos.unit
    assert again.families == sos.families
    # each instance builds its support sets once: a second read returns the first
    assert again.families is again.families and again.S is again.S


# -- systems of supports that build each family on first use ---------------

def seeded_extractable_systems(rng, count):
    """``count`` systems with an order unit: s 1-4, 0-2 equations and
    0-2 congruences, at least one congruence in every other system."""
    out = []
    while len(out) < count:
        s = rng.randint(1, 4)
        n_eq, n_cg = rng.randint(0, 2), rng.randint(len(out) % 2, 2)
        sys_ = DioSystem(
            s=s,
            F=tuple(tuple(rng.randint(0, 3) for _ in range(s)) for _ in range(n_eq)),
            G=tuple(tuple(rng.randint(0, 3) for _ in range(s)) for _ in range(n_eq)),
            D=tuple(tuple(rng.randint(0, 3) for _ in range(s)) for _ in range(n_cg)),
            moduli=tuple(rng.choice((2, 3)) for _ in range(n_cg)))
        try:
            extract(sys_)
        except MissingOrderUnitError:
            continue
        out.append(sys_)
    return out


def assert_lazy_matches_eager(make):
    """``make()`` returns a new library-built system of supports.

    Membership over the box {0, 1, 2, inf}^s answers the same before and
    after the families are built, and as the record the validating
    constructor builds from the same fields.  ``basis_for`` agrees on
    every H in S and raises KeyError for every other subset, and for
    sets outside the coordinates, both before and after.  Equality,
    hash, JSON, repr, pickling and copying of new instances see that
    record too.
    """
    built = make()
    eager = SystemOfSupports(built.s, built.unit, built.families)
    s = eager.s
    box = list(itertools.product((0, 1, 2, INF), repeat=s))
    want = [member_via_supports(eager, x) for x in box]
    subsets = [frozenset(c) for r in range(s + 1)
               for c in itertools.combinations(range(1, s + 1), r)]
    subsets += [fset(0), fset(s + 1)]

    lazy = make()
    assert [member_via_supports(lazy, x) for x in box] == want
    fresh = make()
    for H in subsets:
        if H in eager.S:
            assert fresh.basis_for(H) == eager.basis_for(H)
        else:
            with pytest.raises(KeyError):
                fresh.basis_for(H)
    assert callable(fresh._listing)  # no query listed S

    assert lazy.families == eager.families and lazy.S == eager.S
    assert [member_via_supports(lazy, x) for x in box] == want
    for H in subsets:
        if H not in eager.S:
            with pytest.raises(KeyError):
                lazy.basis_for(H)

    assert make() == eager and eager == make() and hash(make()) == hash(eager)
    assert make().to_json() == eager.to_json() and repr(make()) == repr(eager)
    for again in (pickle.loads(pickle.dumps(make())), copy.copy(make()),
                  copy.deepcopy(make())):
        assert again == eager and again.S == eager.S


def test_extracted_systems_answer_alike_before_and_after_building():
    for sys_ in seeded_extractable_systems(random.Random(101), 200):
        assert_lazy_matches_eager(lambda: extract(sys_))


def test_extract_builds_only_the_families_it_reads(monkeypatch):
    from supportmonoids import supports
    calls = []
    real = supports.hilbert_basis
    monkeypatch.setattr(supports, "hilbert_basis",
                        lambda sys_: calls.append(sys_) or real(sys_))
    # congruences never restrict infinite supports: all 16 subsets are in S
    sos = extract(DioSystem(s=4, D=((1, 1, 1, 0),), moduli=(2,)))
    assert member_via_supports(sos, (INF, INF, 1, 0))
    assert len(calls) <= 2
    assert list(sos._by_h) == [0b0011] and callable(sos._listing)
    assert sos.basis_for(fset(3)) == HilbertBasis.free(3)
    assert list(sos._by_h) == [0b0011, 0b0100]
    # reading S lists the supports and builds no family
    built = len(calls)
    assert len(sos.S) == 16 and len(calls) == built
    assert list(sos._by_h) == [0b0011, 0b0100]
    # building every family reuses the two already built, and a second
    # read returns the first, building nothing
    assert len(sos.families) == 16 and len(calls) == 1 + 14
    assert sos.families is sos.families and len(calls) == 1 + 14


def test_reading_S_builds_no_family():
    for sys_ in seeded_extractable_systems(random.Random(163), 60):
        A = extract(sys_).basis_for(fset())
        for make in (lambda: extract(sys_), lambda: a_plus_inf_a(A),
                     lambda: b_min(A), lambda: b_max(A)):
            sos = make()
            S = sos.S
            assert sos._by_h == {} and sos._masks() == [_mask(H) for H, _ in make().families]
            assert S == frozenset(H for H, _ in sos.families)


def test_almost_free_builds_only_the_minimal_families():
    sos = extract(DioSystem(s=14))
    assert is_almost_free(sos)
    assert len(sos._by_h) <= 15


def test_equals_a_plus_inf_a_reads_a_rebuilt_copy_alike():
    # the comparison reads both listings in the order of ``families``,
    # which the validating constructor keeps too
    systems = seeded_extractable_systems(random.Random(167), 80)
    systems += _seeded_sparse_systems(random.Random(173), 40)
    flags = set()
    for sys_ in systems:
        sos = extract(sys_)
        rebuilt = SystemOfSupports(sos.s, sos.unit, sos.families)
        want = equals_a_plus_inf_a(sys_)
        assert equals_a_plus_inf_a(sys_, rebuilt) == want, sys_
        flags.add(want[0])
    assert flags == {True, False}


def test_extract_refuses_seventeen_coordinates_at_the_first_listing():
    # the call lists nothing; each read that lists S refuses
    sos = extract(DioSystem(s=17))
    for read in (lambda: sos.families, lambda: sos.S, sos.to_json):
        with pytest.raises(ResourceLimitError, match="MAX_POWERSET_DIM"):
            read()
    # sixteen are accepted, and one query builds one family
    sos = extract(DioSystem(s=16))
    assert member_via_supports(sos, (INF,) * 8 + (1,) * 8)
    assert list(sos._by_h) == [0xFF] and callable(sos._listing)


def test_a_refused_listing_is_remembered(monkeypatch):
    from supportmonoids import supports
    calls = []
    real = supports._closed_masks
    monkeypatch.setattr(supports, "_closed_masks",
                        lambda *args: calls.append(args) or real(*args))
    sos = extract(DioSystem(s=24))
    messages = set()
    for read in (lambda: sos.families, lambda: sos.S, sos.to_json,
                 lambda: hash(sos), lambda: pickle.dumps(sos)):
        with pytest.raises(ResourceLimitError, match="MAX_POWERSET_DIM") as refusal:
            read()
        messages.add(str(refusal.value))
    assert len(calls) == 1 and len(messages) == 1
    assert messages == {"infinite_supports: listing more than 2^16 support sets out of "
                        "the 2^24 subsets of 24 coordinates exceeds the cap "
                        "MAX_POWERSET_DIM = 16"}
    # one-family queries still answer
    assert member_via_supports(sos, (INF,) + (1,) * 23)


def test_one_family_queries_answer_past_sixteen_coordinates():
    # the systems list nothing when built or queried one family at a time,
    # and the first read that lists S refuses with the lister's name
    x1_is_x2 = DioSystem(s=24, F=((1,) + (0,) * 23,), G=((0, 1) + (0,) * 22,))
    # (make, the lister's name, is every vector a member?)
    cases = ((lambda: extract(DioSystem(s=24)), "infinite_supports", True),
             (lambda: extract(x1_is_x2), "infinite_supports", False),
             (lambda: b_min(HilbertBasis.free(24)), "b_min", True),
             (lambda: b_max(HilbertBasis.free(24)), "b_max", True),
             (lambda: a_plus_inf_a(HilbertBasis.free(17)), "a_plus_inf_a", True))
    for make, stage, everything in cases:
        start = time.perf_counter()
        sos = make()
        s = sos.s
        assert member_via_supports(sos, (INF,) * 5 + (1,) * (s - 5))
        assert member_via_supports(sos, (3, 2) + (0,) * (s - 2)) == everything
        assert member_via_supports(sos, (INF,) + (0,) * (s - 1)) == everything
        assert sos.basis_for(range(1, 6)) == HilbertBasis.free(s - 5)
        assert time.perf_counter() - start < 0.5
        assert callable(sos._listing)
        for read in (lambda: sos.families, lambda: sos.S, sos.to_json):
            with pytest.raises(ResourceLimitError, match=f"^{stage}: .*MAX_POWERSET_DIM"):
                read()
    assert subsystem_for(x1_is_x2, {1, 2}) == DioSystem(s=22)


def test_library_built_systems_round_trip_through_json_and_pickle():
    # equal after each round trip, and is_almost_free answers alike,
    # although only the instance extract returned skips the fullness check
    systems = [DioSystem.from_json(load_fixture(name)) for name in FIXTURE_NAMES]
    systems += seeded_extractable_systems(random.Random(113), 100)
    for sys_ in systems:
        sos = extract(sys_)
        A = sos.basis_for(fset())
        for built in (sos, a_plus_inf_a(A), b_min(A), b_max(A)):
            for again in (SystemOfSupports.from_json(built.to_json()),
                          pickle.loads(pickle.dumps(built))):
                assert again == built and hash(again) == hash(built), sys_
                assert is_almost_free(again) == is_almost_free(built), sys_


def test_validate_refuses_the_nested_chain_in_time():
    # the axiom (1) check searches for the unit (17, 16, ..., 1) among
    # e1, e1 + e2, ..., e1 + ... + e17; uncapped, it grew past 3 GB
    s = 17
    nested = HilbertBasis.from_generators(s, [tuple(int(j <= i) for j in range(s))
                                              for i in range(s)])
    start = time.perf_counter()
    with pytest.raises(ResourceLimitError, match="^in_generated: .*MAX_COMPLETION_STATES"):
        validate(a_plus_inf_a(nested))
    assert time.perf_counter() - start < 10


def test_listings_walk_the_supports_by_size_then_lexicographically():
    for s in range(1, 9):
        restated = [frozenset(c) for r in range(s + 1)
                    for c in itertools.combinations(range(1, s + 1), r)]
        for sos in (b_max(HilbertBasis.free(s)), extract(DioSystem(s=s))):
            assert [frozenset(_coords(h)) for h in sos._masks()] == restated
            assert sos._masks() == [_mask(H) for H in restated]
        # b_min of <e1 + ... + es> holds the empty set and the full set only
        assert [H for H, _ in b_min(HilbertBasis(s, ((1,) * s,))).families] == \
            [restated[0], restated[-1]]


def _spy_interior(monkeypatch, make):
    """The interior operator a library constructor passes to
    ``SystemOfSupports._deferred``, and the system it returns."""
    seen = []
    deferred = SystemOfSupports._deferred.__func__

    def spy(cls, s, unit, interior, *rest, **kwargs):
        seen.append(interior)
        return deferred(cls, s, unit, interior, *rest, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(SystemOfSupports, "_deferred", classmethod(spy))
        sos = make()
    return seen[0], sos


def _row_criterion(sys_, h):
    """The zero-pattern criterion, restated on index lists."""
    meets = lambda row: any(row[j] for j in range(sys_.s) if h >> j & 1)
    return all(meets(f) == meets(g) for f, g in zip(sys_.F, sys_.G))


def _seeded_sparse_systems(rng, count):
    """Systems with s 2-10 and 1-3 equation rows, each side touching one
    to three coordinates, each system with an order unit."""
    out = []
    while len(out) < count:
        s = rng.randint(2, 10)
        rows = []
        for _ in range(rng.randint(1, 3)):
            sides = []
            for _ in range(2):
                row = [0] * s
                for j in rng.sample(range(s), rng.randint(1, min(3, s))):
                    row[j] = rng.randint(1, 2)
                sides.append(tuple(row))
            rows.append(sides)
        sys_ = DioSystem(s=s, F=tuple(f for f, _ in rows), G=tuple(g for _, g in rows))
        try:
            extract(sys_)
        except MissingOrderUnitError:
            continue
        out.append(sys_)
    return out


def _seeded_bases(rng, count):
    """Bases over s 1-10 coordinates whose generators cover every coordinate."""
    out = []
    while len(out) < count:
        s = rng.randint(1, 10)
        gens = [tuple(rng.choice((0, 0, 0, 1, 2)) for _ in range(s))
                for _ in range(rng.randint(1, 6))]
        gens += [tuple(int(j == i) for j in range(s)) for i in rng.sample(range(s), s // 2)]
        b = HilbertBasis.from_generators(s, gens)
        if b.order_unit() is not None:
            out.append(b)
    return out


def test_interior_and_listing_agree_with_brute_force(monkeypatch):
    rng = random.Random(151)
    cases = [(lambda sys_=sys_: extract(sys_), sys_.s, lambda h, sys_=sys_: _row_criterion(sys_, h))
             for sys_ in _seeded_sparse_systems(rng, 40)]
    for b in _seeded_bases(rng, 40):
        supps = [sum(1 << j for j, v in enumerate(g) if v) for g in b.gens]
        inside = lambda h, supps=supps: [m for m in supps if not m & ~h]
        cases += [
            (lambda b=b: a_plus_inf_a(b), b.dim,
             lambda h, inside=inside: functools.reduce(operator.or_, inside(h), 0) == h),
            (lambda b=b: b_min(b), b.dim, lambda h, inside=inside: not h or bool(inside(h))),
            (lambda b=b: b_max(b), b.dim, lambda h: True)]
    assert max(s for _, s, _ in cases) == 10
    for make, s, member in cases:
        interior, sos = _spy_interior(monkeypatch, make)
        S = {h for h in range(1 << s) if member(h)}
        for h in range(1 << s):
            largest, sub = 0, h
            while True:  # the union of the members inside h
                if sub in S:
                    largest |= sub
                if not sub:
                    break
                sub = (sub - 1) & h
            assert interior(h) == largest
        restated = sorted((frozenset(_coords(h)) for h in S), key=lambda H: (len(H), sorted(H)))
        assert [frozenset(_coords(h)) for h in sos._masks()] == restated
        # the walk lists in that order for every operator, whichever lister the system uses
        assert _closed_masks(s, interior, "walk") == [_mask(H) for H in restated]


def test_index_sets_round_trip_through_masks():
    rng = random.Random(109)
    for _ in range(500):
        H = frozenset(rng.sample(range(1, 25), rng.randint(0, 24)))
        h = _mask(H)
        assert h == sum(2 ** (i - 1) for i in H)
        assert _coords(h) == tuple(sorted(H)) and _mask(_coords(h)) == h


def test_concurrent_readers_of_lazy_systems_agree():
    # threads race to build the same families: the memo only stores what
    # the builder returns, so every reader sees the eager answers
    systems = seeded_extractable_systems(random.Random(107), 24)
    eager = []
    for sys_ in systems:
        sos = extract(sys_)
        eager.append(SystemOfSupports(sos.s, sos.unit, sos.families))
    lazy = [extract(sys_) for sys_ in systems]
    boxes = [list(itertools.product((0, 1, INF), repeat=sys_.s)) for sys_ in systems]
    wrong = []

    def reader(k):
        try:
            for sos, ref, box in zip(lazy, eager, boxes):
                for x in box[k:] + box[:k]:
                    if member_via_supports(sos, x) != member_via_supports(ref, x):
                        wrong.append((sos, x))
                if k % 2 and (sos.families != ref.families or sos.S != ref.S):
                    wrong.append(sos)
        except Exception as exc:  # reported below, with the thread's answers
            wrong.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=reader, args=(k,)) for k in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert wrong == []
    assert lazy == eager


def test_almost_free_reads_freeness_from_the_unit_vectors():
    # the validating constructor keeps a list that is not minimal; (1,)
    # and (2,) still generate all of N0
    redundant = HilbertBasis(1, ((1,), (2,)))
    assert redundant.is_free() and redundant != HilbertBasis.free(1)
    assert not HilbertBasis(1, ((2,), (3,))).is_free()
    assert HilbertBasis(0, ()).is_free()
    for fam in (redundant, HilbertBasis.free(1)):
        fams = (
            (fset(), HilbertBasis.free(2)),
            (fset(1), fam),
            (fset(2), HilbertBasis.free(1)),
            (fset(1, 2), HilbertBasis(0, ())),
        )
        sos = SystemOfSupports(s=2, unit=(1, 1), families=fams)
        assert validate(sos) == []
        assert is_almost_free(sos)


# -- the boundary: S, families, minimal_nonempty and validate on sets --------

def _restated_order(S):
    return sorted(S, key=lambda H: (len(H), sorted(H)))


def _restated_issues(s, unit, families):
    """``validate`` restated on frozensets, message for message."""
    issues, basis = [], dict(families)
    S = [H for H, _ in families]
    full = frozenset(range(1, s + 1))
    if fset() not in basis:
        issues.append("(1) the empty set is missing from S")
    elif not in_generated(basis[fset()].gens, unit):
        issues.append(f"(1) the unit {unit} is not generated by the empty-set family")
    if full not in basis:
        issues.append("(3) the full index set is missing from S")
    elif basis[full].gens:
        issues.append("(3) the family at the full index set must be trivial")
    for i, H in enumerate(S):
        for K in S[i + 1:]:
            if H | K not in basis:
                issues.append(f"(3) S is not closed under unions: "
                              f"{sorted(H)} ∪ {sorted(K)} missing")
    for H, b in families:
        issues += [f"(3) H ∪ supp(x) escapes S for H={sorted(H)}, x={g}"
                   for g in b.gens if supp(inject(g, H)) not in basis]
    for H, bH in families:
        outside = [i for i in range(1, s + 1) if i not in H]
        for K, bK in families:
            if H < K:
                for g in bH.gens:
                    image = tuple(v for i, v in zip(outside, g) if i not in K)
                    if any(image) and not in_generated(bK.gens, image):
                        issues.append(f"(4) projection of {g} from H={sorted(H)} "
                                      f"is not in the family at K={sorted(K)}")
    return issues


def _assert_boundary(sos, S, families=None):
    """sos.S is S, families lists S in its order (with the bases given,
    when given), and minimal_nonempty and validate agree with their
    restatements; second reads return the first and build nothing.
    Returns the issues validate finds."""
    order = _restated_order(S)
    assert sos.S == S
    assert [H for H, _ in sos.families] == order
    if families is not None:
        assert sos.families == tuple(sorted(families, key=lambda f: (len(f[0]), sorted(f[0]))))
    nonempty = [H for H in order if H]
    minimal = [H for H in nonempty if not any(K < H for K in nonempty)]
    assert minimal_nonempty(S) == minimal == minimal_nonempty(list(S))
    issues = validate(sos)
    assert issues == _restated_issues(sos.s, sos.unit, sos.families)
    built = dict(sos._by_h)
    assert sos.S is sos.S and sos.families is sos.families and sos._by_h == built
    return issues


def _subsets(s):
    return [frozenset(c) for r in range(s + 1) for c in itertools.combinations(range(1, s + 1), r)]


def test_boundary_agrees_with_frozenset_restatements():
    rng = random.Random(179)
    systems = seeded_extractable_systems(rng, 60)
    systems += [sys_ for sys_ in _seeded_sparse_systems(rng, 20) if sys_.s <= 7]  # 7 of them
    kinds = set()
    for sys_ in systems:
        # the zero-pattern criterion, on sets
        S = {H for H in _subsets(sys_.s)
             if all(bool(H & supp(f)) == bool(H & supp(g)) for f, g in zip(sys_.F, sys_.G))}
        sos = extract(sys_)
        assert _assert_boundary(sos, S) == []
        A = sos.basis_for(fset())
        supps, unions = {supp(g) for g in A.gens}, {fset()}
        for K in supps:
            unions |= {H | K for H in unions}
        everything = _subsets(A.dim)
        for made, want in ((a_plus_inf_a(A), unions),
                           (b_min(A), {H for H in everything
                                       if not H or any(K <= H for K in supps)}),
                           (b_max(A), set(everything))):
            _assert_boundary(made, want)

        if sys_.s > 4:
            continue
        # hand-built copies, families given in a shuffled order, that break the axioms
        families = list(sos.families)
        by_size = _restated_order(S)
        broken = [families[1:], families[:-1], [(H, b) for H, b in families if H != by_size[1]]]
        if len(by_size) > 3:
            middle = rng.choice(by_size[1:-1])
            broken.append([(H, b) for H, b in families if H != middle])
            # a family that doubles every generator breaks projection into it
            broken.append([(H, HilbertBasis.from_generators(b.dim, [tuple(2 * v for v in g)
                                                                     for g in b.gens]))
                           if H == middle else (H, b) for H, b in families])
        # no checked basis of dimension 0 holds a generator; an unchecked one can
        broken.append([(H, HilbertBasis._trusted(0, ((),))) if len(H) == sys_.s else (H, b)
                       for H, b in families])
        moved = (sos.unit[0] + 1,) + sos.unit[1:]
        for unit, fams in [(sos.unit, fams) for fams in broken] + [(moved, families)]:
            rng.shuffle(fams)
            issues = _assert_boundary(SystemOfSupports(sys_.s, unit, tuple(fams)),
                                      {H for H, _ in fams}, fams)
            kinds.update(" ".join(issue.split()[:3]) for issue in issues)
    assert kinds == {"(1) the empty", "(1) the unit", "(3) the full", "(3) the family",
                     "(3) S is", "(3) H ∪", "(4) projection of"}


def test_a_refused_listing_refuses_every_boundary_read():
    sos = extract(DioSystem(s=17))
    messages = set()
    for read in (lambda: sos.S, lambda: sos.families, sos.to_json,
                 lambda: is_full(sos), lambda: validate(sos)) * 2:
        with pytest.raises(ResourceLimitError) as refusal:
            read()
        messages.add(str(refusal.value))
    assert messages == {"infinite_supports: listing more than 2^16 support sets out of "
                        "the 2^17 subsets of 17 coordinates exceeds the cap "
                        "MAX_POWERSET_DIM = 16"}
    assert sos._by_h == {} and sos._sets == {}
