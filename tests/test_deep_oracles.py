"""Cross-checks against a second, structurally different set of oracles.

The closure oracles in oracles.py walk sums breadth-first; the
coefficient oracle here instead enumerates coefficient assignments
directly, so the two can only agree if the membership semantics is
right.  The classification law test pins the meaning of the verdict
flag on random systems, not just the shipped fixtures.
"""

import itertools
import random

from oracles import from_lib, o_a_plus_inf_a, o_solutions
from supportmonoids import (INF, DioSystem, compose_direct_sum,
                            decompose_direct_sum, equals_a_plus_inf_a,
                            extract, find_order_unit, hilbert_basis,
                            in_generated, is_almost_free, scale, vec_add)


def coefficient_oracle(gens, x):
    """Decide x = sum of c_g·g by enumerating coefficients directly.

    Finite coefficients range over 0..(max finite coordinate of x) + 1;
    a larger finite coefficient forces a zero contribution on the finite
    coordinates and is then interchangeable with one of those or inf.
    """
    finites = [v for v in x if v is not INF]
    cap = (max(finites) if finites else 0) + 1
    choices = tuple(range(cap + 1)) + (INF,)
    for combo in itertools.product(choices, repeat=len(gens)):
        total = (0,) * len(x)
        for c, g in zip(combo, gens):
            total = vec_add(total, scale(c, g))
        if total == x:
            return True
    return False


def test_in_generated_against_coefficient_oracle():
    rng = random.Random(71)
    values = (0, 1, 2, INF)
    cases = []
    for _ in range(60):
        s = rng.randint(1, 3)
        gens = [tuple(rng.choice(values) for _ in range(s))
                for _ in range(rng.randint(1, 3))]
        targets = [tuple(rng.choice((0, 1, 2, 3, INF)) for _ in range(s))
                   for _ in range(8)]
        cases.extend((gens, x) for x in targets)
    # All-finite targets take their own search in in_generated; try them
    # on wider dimensions and entries, and on these edge cases.
    cases += [
        (((7, 1), (1, 1)), (6, 6)),  # a generator above the target
        (((1, 0), (7, 1)), (3, 1)),  # coordinate 2 unreachable below x
        (((INF, 1), (0, 1)), (0, 3)),  # inf entries: never usable
        (((INF, 1), (1, INF)), (1, 1)),
        (((2, 3, INF), (1, 0, 4)), (0, 0, 0)),  # the zero target
        ((), (0, 0)),
        ((), (0, 1)),
    ]
    values = (0, 0, 1, 2, 3, 4, 5, 6, INF)
    for _ in range(50):
        s = rng.randint(1, 5)
        gens = [tuple(rng.choice(values) for _ in range(s))
                for _ in range(rng.randint(1, 3))]
        targets = [tuple(rng.randint(0, 6) for _ in range(s)) for _ in range(3)]
        finite = [g for g in gens if INF not in g]
        for _ in range(3):  # members: small sums of the all-finite generators
            x = (0,) * s
            for g in finite:
                x = vec_add(x, scale(rng.randint(0, 2), g))
            if max(x) <= 6:
                targets.append(x)
        cases.extend((gens, x) for x in targets)
    for gens, x in cases:
        assert in_generated(gens, x) == coefficient_oracle(gens, x), (gens, x)


def test_hilbert_generators_are_minimal_solutions():
    # every basis element is a solution with no nonzero solution strictly
    # below it (checked against raw truncated enumeration)
    rng = random.Random(73)
    for _ in range(15):
        s = rng.randint(2, 4)
        n_eq = rng.randint(1, 2)
        sys_ = DioSystem(
            s=s,
            F=tuple(tuple(rng.randint(0, 3) for _ in range(s)) for _ in range(n_eq)),
            G=tuple(tuple(rng.randint(0, 3) for _ in range(s)) for _ in range(n_eq)),
        )
        gens = hilbert_basis(sys_).gens
        box = 8
        small_solutions = {x for x in o_solutions(sys_.to_json(), box)
                           if None not in x and any(x)}
        for g in gens:
            if any(v > box for v in g):
                continue
            assert g in small_solutions
            below = [w for w in small_solutions
                     if w != g and all(a <= b for a, b in zip(w, g))]
            assert not below, (g, below)


def test_classification_flag_law_on_random_systems():
    """flag == (truncated equality holds) AND (almost-free); and every
    in-box witness is a genuine member outside A + inf·A."""
    rng = random.Random(79)
    bound = 3
    checked = 0
    while checked < 40:
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
        if find_order_unit(sys_) is None:
            continue
        checked += 1
        sos = extract(sys_)
        flag, witnesses = equals_a_plus_inf_a(sys_, sos)
        af = is_almost_free(sos)
        sols = o_solutions(sys_.to_json(), bound)
        finite = {x for x in sols if None not in x}
        a_plus = o_a_plus_inf_a(finite, bound)
        # the flag entails both equality and almost-freeness
        if flag:
            assert a_plus == sols
            assert af
        if not af:
            assert not flag
        # witnesses in the box are genuine members outside A + inf·A
        for w in witnesses:
            lw = from_lib(w, INF)
            if all(v is None or v <= bound for v in lw):
                assert lw in sols and lw not in a_plus
        # conversely, an in-box separation forces the flag down
        if af and a_plus != sols:
            assert not flag


def test_decompose_returns_the_same_monoid():
    # whatever split is returned, gluing it back gives the original basis
    rng = random.Random(83)
    tried = 0
    succeeded = 0
    while tried < 30:
        s = rng.randint(2, 4)
        n_eq = rng.randint(0, 1)
        sys_ = DioSystem(
            s=s,
            F=tuple(tuple(rng.randint(0, 2) for _ in range(s)) for _ in range(n_eq)),
            G=tuple(tuple(rng.randint(0, 2) for _ in range(s)) for _ in range(n_eq)),
        )
        if find_order_unit(sys_) is None:
            continue
        tried += 1
        basis = hilbert_basis(sys_)
        if not 2 <= len(basis.gens) <= 8:
            continue
        d = decompose_direct_sum(basis)
        if d is None:
            continue
        succeeded += 1
        assert compose_direct_sum(d).gens == basis.gens
    assert succeeded >= 5
