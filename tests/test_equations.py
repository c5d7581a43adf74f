import random

import pytest

from oracles import from_lib, o_solutions
from supportmonoids import (INF, DioSystem, enumerate_truncated,
                            from_integer_matrix, intersect, is_member,
                            lift_congruences, scale, vec_add)
from supportmonoids.errors import ResourceLimitError

RANDCLOSURE = DioSystem(s=3, F=((1, 1, 0),), G=((1, 0, 1),))
PARITY = DioSystem(s=2, D=((1, 1),), moduli=(2,))


def test_is_member_equations():
    assert is_member(RANDCLOSURE, (INF, 1, 0))
    assert not is_member(RANDCLOSURE, (0, 1, 0))
    assert is_member(RANDCLOSURE, (0, 0, 0))
    assert is_member(RANDCLOSURE, (5, 2, 2))


def test_is_member_congruences():
    assert is_member(PARITY, (1, 1))
    assert not is_member(PARITY, (1, 0))
    assert is_member(PARITY, (INF, 1))  # inf is a multiple of everything
    assert is_member(PARITY, (0, INF))


def test_is_member_dimension_check():
    with pytest.raises(ValueError):
        is_member(PARITY, (1, 1, 1))


def test_construction_validation():
    with pytest.raises(ValueError):
        DioSystem(s=2, D=((1, 1),), moduli=(1,))
    with pytest.raises(ValueError):
        DioSystem(s=2, D=((1, 1),), moduli=(0,))
    with pytest.raises(ValueError):
        DioSystem(s=2, F=((1, -1),), G=((0, 0),))
    with pytest.raises(ValueError):
        DioSystem(s=2, F=((1, 1),), G=())
    with pytest.raises(ValueError):
        DioSystem(s=2, D=((1, 1),), moduli=())
    with pytest.raises(ValueError):
        DioSystem(s=0)
    with pytest.raises(ValueError):
        DioSystem(s=25)
    # a bool is refused wherever an int is expected
    with pytest.raises(ValueError):
        DioSystem(s=True)
    with pytest.raises(ValueError):
        DioSystem(s=2, F=((True, 0),), G=((0, 1),))
    with pytest.raises(ValueError):
        DioSystem(s=2, D=((1, 1),), moduli=(True,))


def test_lift_congruences_shape():
    lifted = lift_congruences(PARITY)
    assert lifted == DioSystem(s=3, F=((1, 1, 0),), G=((0, 0, 2),))
    assert lift_congruences(RANDCLOSURE) == RANDCLOSURE


def test_lift_congruences_projection_roundtrip():
    lifted = lift_congruences(PARITY)
    bound = 4
    original = {x for x in enumerate_truncated(PARITY, bound)}
    projected = set()
    # project the lifted solutions; auxiliary values up to the worst case
    for x in enumerate_truncated(lifted, 2 * bound):
        head = x[:2]
        if all(v is INF or v <= bound for v in head):
            projected.add(head)
    assert projected == original


def test_from_integer_matrix_shift_uniform():
    sys_ = from_integer_matrix(((1, -1),))
    assert sys_ == DioSystem(s=2, F=((3, 1),), G=((2, 2),))
    zero = from_integer_matrix(((0, 0),))
    assert zero == DioSystem(s=2, F=((1, 1),), G=((1, 1),))
    for x in enumerate_truncated(zero, 2):
        assert is_member(zero, x)  # everything solves the trivial shift


def test_from_integer_matrix_finite_solutions_match_kernel():
    rng = random.Random(3)
    for _ in range(20):
        s = rng.randint(2, 4)
        E = tuple(tuple(rng.randint(-2, 2) for _ in range(s))
                  for _ in range(rng.randint(1, 2)))
        for mode in ("shift-uniform", "shift-allones"):
            sys_ = from_integer_matrix(E, mode=mode)
            got = {x for x in enumerate_truncated(sys_, 5) if INF not in x}
            want = set()
            import itertools
            for x in itertools.product(range(6), repeat=s):
                if all(sum(e * v for e, v in zip(row, x)) == 0 for row in E):
                    want.add(x)
            assert got == want


def test_intersect():
    empty = DioSystem(s=3)
    assert set(enumerate_truncated(intersect(RANDCLOSURE, empty), 2)) == \
        set(enumerate_truncated(RANDCLOSURE, 2))
    eq12 = DioSystem(s=3, F=((1, 0, 0),), G=((0, 1, 0),))
    eq23 = DioSystem(s=3, F=((0, 1, 0),), G=((0, 0, 1),))
    both = intersect(eq12, eq23)
    for x in enumerate_truncated(both, 3):
        assert x[0] == x[1] == x[2]
    assert set(enumerate_truncated(intersect(RANDCLOSURE, RANDCLOSURE), 2)) == \
        set(enumerate_truncated(RANDCLOSURE, 2))
    with pytest.raises(ValueError):
        intersect(RANDCLOSURE, PARITY)


def test_enumerate_truncated_unconstrained():
    free1 = DioSystem(s=1)
    assert enumerate_truncated(free1, 2) == [(0,), (1,), (2,), (INF,)]


def test_enumerate_truncated_randclosure_bound1():
    got = set(enumerate_truncated(RANDCLOSURE, 1))
    assert (INF, 1, 0) in got
    assert (INF, 0, 1) in got
    assert (0, 1, 0) not in got


def test_enumerate_truncated_congruence_hand_count():
    got = set(enumerate_truncated(PARITY, 2))
    finite = {x for x in got if INF not in x}
    assert finite == {(0, 0), (1, 1), (2, 0), (0, 2), (2, 2)}
    assert len(got) == 12


def test_enumerate_guard():
    with pytest.raises(ResourceLimitError,
                       match=r"^truncated_domain: .* 12\^10 = .*ENUMERATION_GUARD = 10000000$"):
        enumerate_truncated(DioSystem(s=10), 10)


def test_enumerate_truncated_validates_the_bound():
    # the check of every count: a bool, a float or a str is no bound
    for bad in (True, 1.5, "2"):
        with pytest.raises(ValueError, match="^bound: expected an integer, got "):
            enumerate_truncated(RANDCLOSURE, bad)
    with pytest.raises(ValueError, match="^bound: expected at least 0, got -1$"):
        enumerate_truncated(RANDCLOSURE, -1)


def test_enumeration_is_canonically_ordered_and_deterministic():
    a = enumerate_truncated(RANDCLOSURE, 2)
    b = enumerate_truncated(RANDCLOSURE, 2)
    assert a == b
    assert len(set(a)) == len(a)


def test_against_independent_oracle():
    rng = random.Random(17)
    for _ in range(15):
        s = rng.randint(1, 4)
        n_eq = rng.randint(0, 2)
        n_cg = rng.randint(0, 2)
        F = tuple(tuple(rng.randint(0, 3) for _ in range(s)) for _ in range(n_eq))
        G = tuple(tuple(rng.randint(0, 3) for _ in range(s)) for _ in range(n_eq))
        D = tuple(tuple(rng.randint(0, 3) for _ in range(s)) for _ in range(n_cg))
        moduli = tuple(rng.choice((2, 3)) for _ in range(n_cg))
        sys_ = DioSystem(s=s, F=F, G=G, D=D, moduli=moduli)
        want = o_solutions(sys_.to_json(), 3)
        got = {from_lib(x, INF) for x in enumerate_truncated(sys_, 3)}
        assert got == want


def test_solution_sets_are_submonoids():
    rng = random.Random(23)
    members = enumerate_truncated(RANDCLOSURE, 3)
    assert (0, 0, 0) in members
    pool = frozenset(members)
    for _ in range(300):
        x, y = rng.choice(members), rng.choice(members)
        z = vec_add(x, y)
        if all(v is INF or v <= 3 for v in z):
            assert z in pool
        w = scale(INF, x)
        assert w in pool  # inf-scaling caps every coordinate at inf


def test_json_roundtrip():
    for sys_ in (RANDCLOSURE, PARITY, DioSystem(s=2)):
        assert DioSystem.from_json(sys_.to_json()) == sys_
    with pytest.raises(ValueError):
        DioSystem.from_json({"equations": {}})
    # a missing or null key has no rows; anything else but an object is refused
    for key in ("equations", "congruences"):
        assert DioSystem.from_json({"s": 2, key: None}) == DioSystem(s=2)
        for rows in ([[1, 1]], [], 5, 0, False, "", "F"):
            with pytest.raises(ValueError, match=f"system JSON '{key}' must be an object"):
                DioSystem.from_json({"s": 2, key: rows})
