import random

import pytest

from oracles import (from_lib, o_closure, o_finite_closure,
                     o_finite_solutions, o_minimal)
from supportmonoids import (INF, DioSystem, HilbertBasis, find_order_unit,
                            generated_truncated, generated_upto, hilbert_basis,
                            in_generated, is_member, minimize_generators)
from supportmonoids.errors import ResourceLimitError


def test_basis_randclosure():
    sys_ = DioSystem(s=3, F=((1, 1, 0),), G=((1, 0, 1),))
    assert hilbert_basis(sys_).gens == ((0, 1, 1), (1, 0, 0))


def test_basis_two_x_equals_three_y():
    sys_ = DioSystem(s=2, F=((2, 0),), G=((0, 3),))
    assert hilbert_basis(sys_).gens == ((3, 2),)


def test_basis_unconstrained():
    assert hilbert_basis(DioSystem(s=2)).gens == ((0, 1), (1, 0))


def test_basis_with_congruences():
    basis = hilbert_basis(DioSystem(s=2, D=((1, 1),), moduli=(2,)))
    assert basis.gens == ((0, 2), (1, 1), (2, 0))


def test_basis_against_oracle_on_random_systems():
    rng = random.Random(5)
    for _ in range(25):
        s = rng.randint(1, 5)
        n_eq = rng.randint(0, 2)
        n_cg = rng.randint(0, 1)
        sys_ = DioSystem(
            s=s,
            F=tuple(tuple(rng.randint(0, 3) for _ in range(s)) for _ in range(n_eq)),
            G=tuple(tuple(rng.randint(0, 3) for _ in range(s)) for _ in range(n_eq)),
            D=tuple(tuple(rng.randint(0, 2) for _ in range(s)) for _ in range(n_cg)),
            moduli=tuple(rng.choice((2, 3)) for _ in range(n_cg)),
        )
        gens = hilbert_basis(sys_).gens
        # every generator solves the system
        for g in gens:
            assert is_member(sys_, g)
        # the generators reproduce exactly the truncated finite solutions
        bound = 4 if s >= 4 else 6
        want = o_finite_solutions(sys_.to_json(), bound)
        assert o_finite_closure(gens, bound, s) == want
        # minimality: dropping any generator loses it
        for g in gens:
            others = [h for h in gens if h != g]
            assert not in_generated(others, g)


def test_basis_minimal_elements_match_oracle_within_box():
    # for these fixtures all minimal solutions fit well inside the box
    fixtures = (
        DioSystem(s=3, F=((1, 1, 0),), G=((1, 0, 1),)),
        DioSystem(s=2, F=((2, 0),), G=((0, 3),)),
        DioSystem(s=2, D=((1, 1),), moduli=(2,)),
    )
    for sys_ in fixtures:
        want = o_minimal(o_finite_solutions(sys_.to_json(), 6))
        assert set(hilbert_basis(sys_).gens) == want


def test_in_generated_examples():
    gens = ((1, 0, 0), (0, 1, 1), (INF, 1, 0), (INF, 0, 1))
    assert in_generated(gens, (INF, 2, 1))
    assert not in_generated(((1, 0),), (0, 1))
    assert in_generated(((2,),), (INF,))
    assert in_generated(gens, (0, 0, 0))
    assert not in_generated(gens, (0, 1, 0))
    with pytest.raises(ValueError):
        in_generated(((1, 0),), (1, 0, 0))


def test_in_generated_against_closure_oracle():
    rng = random.Random(29)
    values = (0, 1, 2, INF)
    for _ in range(40):
        s = rng.randint(1, 3)
        gens = [tuple(rng.choice(values) for _ in range(s))
                for _ in range(rng.randint(1, 4))]
        bound = 3
        reachable = o_closure([from_lib(g, INF) for g in gens], bound, s)
        import itertools
        for x in itertools.product((0, 1, 2, 3, INF), repeat=s):
            got = in_generated(gens, x)
            want = from_lib(x, INF) in reachable
            # the closure oracle only sees the box, but sums of generators
            # never shrink coordinates, so inside the box they agree
            assert got == want, (gens, x)


def test_generated_upto_matches_oracle():
    gens = ((1, 2), (2, 1))
    assert generated_upto(gens, 5, 2) == frozenset(o_finite_closure(gens, 5, 2))
    with pytest.raises(ValueError):
        generated_upto(((INF, 1),), 3, 2)
    # 6^12 points in the box: refused before anything is enumerated
    with pytest.raises(ResourceLimitError, match="generated_upto"):
        generated_upto(HilbertBasis.free(12).gens, 5, 12)
    # the box is large but (6, 0, ...) takes at most 3 copies of one generator
    assert generated_upto(((2,) + (0,) * 11,), 5, 12) == frozenset(
        {(c,) + (0,) * 11 for c in (0, 2, 4)})


def test_generated_truncated_handles_inf_absorption():
    # (2, inf) needs the second coordinate made infinite before the finite
    # overshoot in coordinate one could ever matter
    gens = ((1, 5), (0, INF))
    members = generated_truncated(gens, 3, 2)
    assert (2, INF) in members
    assert (1, INF) in members
    assert (0, INF) in members
    assert (1, 5) not in members  # outside the box


def test_find_order_unit():
    assert find_order_unit(DioSystem(s=3, F=((1, 1, 0),), G=((1, 0, 1),))) == (1, 1, 1)
    assert find_order_unit(DioSystem(s=2, F=((1, 0),), G=((0, 0),))) is None
    unit = find_order_unit(DioSystem(s=2, D=((1, 1),), moduli=(2,)))
    assert unit is not None and all(isinstance(v, int) and v > 0 for v in unit)


def test_fullness_witness_on_solution_monoids():
    # differences of comparable members of a solution monoid stay inside
    sys_ = DioSystem(s=3, F=((1, 1, 0),), G=((1, 0, 1),))
    gens = hilbert_basis(sys_).gens
    members = sorted(o_finite_solutions(sys_.to_json(), 4))
    for a in members:
        for b in members:
            if all(x <= y for x, y in zip(a, b)):
                assert in_generated(gens, tuple(y - x for x, y in zip(a, b)))


def test_minimize_generators():
    assert minimize_generators(((2,), (4,))) == ((2,),)
    assert minimize_generators(((1, 0), (0, 1), (1, 1))) == ((0, 1), (1, 0))
    # inf·(1, 0) and inf·(2, 0) both give (inf, 0), so it is redundant
    assert minimize_generators(((INF, 0), (1, 0))) == ((1, 0),)
    assert minimize_generators(((INF, 0), (2, 0))) == ((2, 0),)
    # no combination of (1, 0) alone puts a finite 1 next to an inf
    assert minimize_generators(((INF, 1), (1, 0))) == ((1, 0), (INF, 1))


def test_completion_state_cap():
    sys_ = DioSystem(s=4, F=((3, 1, 2, 1),), G=((1, 2, 1, 3),))
    with pytest.raises(ResourceLimitError):
        hilbert_basis(sys_, max_states=5)


def test_hilbert_basis_type_validation():
    with pytest.raises(ValueError):
        HilbertBasis(2, ((0, 0),))
    with pytest.raises(ValueError):
        HilbertBasis(2, ((1, INF),))
    with pytest.raises(ValueError):
        HilbertBasis(2, ((1, 0), (1, 0)))
    with pytest.raises(ValueError):
        HilbertBasis(2, ((1, 0), (0, 1)))  # not canonically sorted
    with pytest.raises(ValueError):
        HilbertBasis(True, ((1,),))
    with pytest.raises(ValueError):
        HilbertBasis(1, ((True,),))
    ok = HilbertBasis.from_generators(2, ((1, 0), (0, 1), (1, 1), (0, 0)))
    assert ok.gens == ((0, 1), (1, 0))


def test_free_basis_is_shared_per_dimension():
    assert HilbertBasis.free(3) is HilbertBasis.free(3)
    assert HilbertBasis.free(2).gens == ((0, 1), (1, 0))
    assert HilbertBasis.free(0).gens == ()
    HilbertBasis.free(1)  # cached under the key 1, which equals True
    with pytest.raises(ValueError):
        HilbertBasis.free(True)
    with pytest.raises(ValueError):
        HilbertBasis.free(-1)
