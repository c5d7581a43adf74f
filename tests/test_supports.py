import itertools
import random

import pytest

from oracles import o_solutions
from supportmonoids import (INF, DioSystem, HilbertBasis, SystemOfSupports,
                            divides, enumerate_truncated, extract, generators,
                            generated_truncated, infinite_supports, inject,
                            is_almost_free, is_full, is_member,
                            member_via_supports, minimal_nonempty,
                            subsystem_for, truncated_members, validate)
from supportmonoids.errors import MissingOrderUnitError

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


def test_infinite_supports_requires_order_unit():
    with pytest.raises(MissingOrderUnitError):
        infinite_supports(DioSystem(s=2, F=((1, 0),), G=((0, 0),)))


def test_infinite_supports_match_oracle():
    rng = random.Random(41)
    found = 0
    while found < 10:
        s = rng.randint(2, 4)
        n_eq = rng.randint(0, 2)
        sys_ = DioSystem(
            s=s,
            F=tuple(tuple(rng.randint(0, 2) for _ in range(s)) for _ in range(n_eq)),
            G=tuple(tuple(rng.randint(0, 2) for _ in range(s)) for _ in range(n_eq)),
        )
        try:
            S = infinite_supports(sys_)
        except MissingOrderUnitError:
            continue
        found += 1
        sols = o_solutions(sys_.to_json(), 2)
        want = {frozenset(i + 1 for i, v in enumerate(x) if v is None) for x in sols}
        assert S == frozenset(want)


def test_subsystem_for():
    sub = subsystem_for(RANDCLOSURE, {1})
    assert sub == DioSystem(s=2)  # the row dies, two free coordinates remain
    sub23 = subsystem_for(RANDCLOSURE, {2, 3})
    assert sub23 == DioSystem(s=1)
    assert subsystem_for(RANDCLOSURE, frozenset()) == RANDCLOSURE
    with pytest.raises(ValueError):
        subsystem_for(RANDCLOSURE, {2})  # not an infinite support


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


def test_json_roundtrip():
    sos = extract(RANDCLOSURE)
    again = SystemOfSupports.from_json(sos.to_json())
    assert again.s == sos.s and again.unit == sos.unit
    assert again.families == sos.families
    # equal support sets are one shared object across instances
    assert all(H is K for (H, _), (K, _) in zip(again.families, sos.families))
