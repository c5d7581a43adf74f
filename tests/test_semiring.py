import doctest
import itertools
import random

import pytest

from supportmonoids import (INF, add, divides, format_extnat, format_vec,
                            inf_supp, inject, mul, parse_extnat, parse_vec,
                            project, scale, supp, vec_add, vec_from_json,
                            vec_to_json)
from supportmonoids import semiring
from supportmonoids.semiring import check_vec, sort_key, supports

VALUES = (0, 1, 2, 3, 4, 5, 6, INF)


def test_add_rules():
    assert add(2, 3) == 5
    assert add(INF, 3) is INF
    assert add(3, INF) is INF
    assert add(INF, INF) is INF


def test_mul_rules():
    assert mul(0, INF) == 0
    assert mul(INF, 0) == 0
    assert mul(INF, 4) is INF
    assert mul(4, INF) is INF
    assert mul(2, 3) == 6
    assert mul(INF, INF) is INF


def test_operator_sugar_matches_functions():
    for a, b in itertools.product(VALUES, repeat=2):
        assert a + b == add(a, b)
        assert a * b == mul(a, b)


def test_semiring_axioms_exhaustive():
    for a, b, c in itertools.product(VALUES, repeat=3):
        assert add(add(a, b), c) == add(a, add(b, c))
        assert add(a, b) == add(b, a)
        assert mul(mul(a, b), c) == mul(a, mul(b, c))
        assert mul(a, b) == mul(b, a)
        assert mul(a, add(b, c)) == add(mul(a, b), mul(a, c))
        assert add(a, 0) == a
        assert mul(a, 1) == a
        assert mul(a, 0) == 0


def test_infinity_is_a_singleton():
    assert INF == INF
    assert INF != 10**18
    assert not INF < 5
    assert INF > 5
    assert 5 < INF
    assert INF >= INF
    assert hash(INF) == hash(INF)
    import copy
    import pickle
    for clone in (pickle.loads(pickle.dumps(INF)), copy.deepcopy(INF), copy.copy(INF)):
        assert clone is INF and hash(clone) == hash(INF)


def test_inf_vectors_as_set_and_dict_keys():
    vecs = [(INF, 1, INF, 0), (0, INF), (INF,), (1, 2)]
    table = {v: i for i, v in enumerate(vecs)}
    assert all(table[tuple(v)] == i for i, v in enumerate(vecs))
    assert (INF, 1, INF, 0) in set(vecs) and (INF, 1, 0, INF) not in set(vecs)
    import pickle
    assert pickle.loads(pickle.dumps(table)) == table
    assert pickle.loads(pickle.dumps(set(vecs))) == set(vecs)


def test_vec_add_and_scale():
    assert vec_add((1, 0, 0), (0, 1, 1)) == (1, 1, 1)
    assert scale(INF, (0, 1, 1)) == (0, INF, INF)
    assert vec_add(scale(INF, (1, 0, 0)), (0, 1, 1)) == (INF, 1, 1)
    with pytest.raises(ValueError):
        vec_add((1, 2), (1, 2, 3))


def test_supports():
    assert supports((INF, 1, 0)) == (frozenset({1, 2}), frozenset({1}))
    assert supports((0, 0, 0)) == (frozenset(), frozenset())
    assert supports((INF, INF, 5)) == (frozenset({1, 2, 3}), frozenset({1, 2}))


def test_supports_compatible_with_addition():
    rng = random.Random(7)
    for _ in range(200):
        s = rng.randint(1, 6)
        x = tuple(rng.choice(VALUES) for _ in range(s))
        y = tuple(rng.choice(VALUES) for _ in range(s))
        z = vec_add(x, y)
        assert supp(z) == supp(x) | supp(y)
        assert inf_supp(z) == inf_supp(x) | inf_supp(y)


def test_divides():
    assert divides((1, 2), (3, 2))
    assert not divides((5, INF), (3, INF))
    assert divides((7, 0), (INF, 0))
    assert divides((INF, 1), (INF, 1))
    assert not divides((INF, 0), (3, 0))
    with pytest.raises(ValueError):
        divides((1,), (1, 2))


def test_divides_is_a_partial_order_on_finite_vectors():
    rng = random.Random(11)
    for _ in range(300):
        s = rng.randint(1, 5)
        x = tuple(rng.randint(0, 4) for _ in range(s))
        y = tuple(rng.randint(0, 4) for _ in range(s))
        assert divides(x, x)
        if divides(x, y) and divides(y, x):
            assert x == y


def test_project_and_inject():
    assert project((INF, 1, 0), {1}) == (1, 0)
    assert inject((1, 0), {1}) == (INF, 1, 0)
    assert inject(project((INF, 3, 4), {1}), {1}) == (INF, 3, 4)
    assert project(inject((7, 8), {2}), {2}) == (7, 8)
    with pytest.raises(ValueError):
        project((1, 2), {3})
    with pytest.raises(ValueError):
        inject((1, 2), {9})


def test_project_all_agrees_with_a_tuple_restatement():
    """For masks k ⊆ h below 2^s, s ≤ 5: a vector over the complement of
    k lists the coordinates outside k in ascending order, and dropping
    those of h keeps the rest in that order.  Results of length 0 and 1
    are tuples, an empty list stays empty, and inf entries pass through;
    project inverts inject at every index set."""
    rng = random.Random(34)
    for s in range(6):
        for h in range(1 << s):
            for k in range(1 << s):
                if k & ~h:
                    continue
                outside = [j for j in range(s) if not k >> j & 1]
                xs = [tuple(rng.choice(VALUES) for _ in outside) for _ in range(4)]
                want = [tuple(v for j, v in zip(outside, x) if not h >> j & 1) for x in xs]
                got = semiring._project_all(xs, k, h, s)
                assert got == want and all(type(p) is tuple for p in got)
                assert semiring._project_all([], k, h, s) == []
            H = {j + 1 for j in range(s) if h >> j & 1}
            x = tuple(rng.choice(VALUES) for _ in range(s - len(H)))
            assert project(inject(x, H), H) == x
    lengths = {len(p) for p in semiring._project_all([(INF, 1, 2)], 0, 0b011, 3)
               + semiring._project_all([(INF, 1, 2)], 0, 0b111, 3)}
    assert lengths == {0, 1}
    assert semiring._project_all([(1, INF, 2)], 0, 0b100, 3) == [(1, INF)]


def test_text_encoding():
    assert parse_vec("1,inf,0") == (1, INF, 0)
    assert parse_vec("1, INF ,0") == (1, INF, 0)
    assert format_vec((1, INF, 0)) == "1,inf,0"
    assert format_extnat(INF) == "inf"
    assert parse_extnat("17") == 17
    for bad in ("-1", "1.5", "infinity", ""):
        with pytest.raises(ValueError):
            parse_extnat(bad)


def test_only_ascii_digits_parse():
    # str.isdigit accepts Arabic-Indic and superscript digits
    for token in ("\u0661", "\u00b2"):
        message = f"cannot parse {token!r} as a nonnegative integer or 'inf'"
        for parse in (lambda: parse_vec(f"{token},2"), lambda: vec_from_json([token, 2])):
            with pytest.raises(ValueError) as refusal:
                parse()
            assert str(refusal.value) == message


def test_json_encoding():
    x = (1, INF, 0)
    assert vec_to_json(x) == [1, "inf", 0]
    assert vec_from_json([1, "inf", 0]) == x
    assert vec_from_json(["INF"]) == (INF,)
    with pytest.raises(ValueError):
        vec_from_json([1, -2])
    with pytest.raises(ValueError):
        vec_from_json("1,2")


def test_vector_validation():
    with pytest.raises(ValueError):
        check_vec(())
    with pytest.raises(ValueError):
        check_vec((0,) * 25)  # dimension cap
    bad = {
        (1, -1): "vector: expected at least 0, got -1",
        (1, 2.5): "vector: expected an integer, got 2.5",
        (1.0,): "vector: expected an integer, got 1.0",
        (True, 1): "vector: expected an integer, got True",
        (0, False): "vector: expected an integer, got False",
        (2, "3"): "vector: expected an integer, got '3'",
        (None,): "vector: expected an integer, got None",
    }
    for x, message in bad.items():
        with pytest.raises(ValueError) as err:
            check_vec(x)
        assert str(err.value) == message
    with pytest.raises(ValueError, match="^point: expected at least 0, got -2$"):
        check_vec([INF, -2], "point")

    class Count(int):
        pass

    ok = check_vec([Count(3), INF, 0])
    assert ok == (3, INF, 0) and type(ok[0]) is Count
    assert check_vec(iter((0, 1))) == (0, 1)


def test_canonical_order_puts_finite_below_infinite():
    vecs = [(INF, 0), (0, INF), (1, 1), (0, 2), (INF, INF)]
    assert sorted(vecs, key=sort_key) == [(0, 2), (0, INF), (1, 1), (INF, 0), (INF, INF)]


def test_module_docstring_examples():
    result = doctest.testmod(semiring)
    assert result.attempted > 0 and result.failed == 0


def _restated_vec_from_json(obj):
    """vec_from_json as it stood before the one-pass loop."""
    if not isinstance(obj, (list, tuple)):
        raise ValueError(f"vector must be a JSON array, got {obj!r}")
    return check_vec([semiring.parse_extnat(v) if isinstance(v, str) else v for v in obj])


def _parsed(fn, obj):
    try:
        return fn(obj)
    except ValueError as err:
        return "ValueError", str(err)


def test_vec_from_json_keeps_every_answer_and_message():
    cases = [[True, 1], [1, -1], [2.5], [None, 0], [" Inf "], ["INF", 3], ["inf", 0],
             [], [0] * 24, [0] * 25, ["inf"] * 25, [1, "x"], [True, "x"], ["7", 1],
             ["inf", False], [-3, None], "1,2", {"a": 1}, (1, "inf")]
    rng = random.Random(67)
    tokens = (0, 1, 3, 12, "inf", "Inf", " inf ", "5", True, -1, 1.5, None, "x")
    cases += [[rng.choice(tokens) for _ in range(rng.randint(0, 5))] for _ in range(500)]
    for obj in cases:
        want = _parsed(_restated_vec_from_json, obj)
        assert _parsed(semiring.vec_from_json, obj) == want, obj
    assert semiring.vec_from_json([" Inf ", 2]) == (INF, 2)
    assert _parsed(semiring.vec_from_json, [True, 1]) == \
        ("ValueError", "vector: expected an integer, got True")
    assert _parsed(semiring.vec_from_json, [0] * 25) == \
        ("ValueError", "vector longer than the supported maximum of 24")
    assert _parsed(semiring.vec_from_json, []) == ("ValueError", "vector must have length >= 1")

    class Count(int):
        pass

    kept = semiring.vec_from_json([Count(3), "inf"])
    assert kept == (3, INF) and type(kept[0]) is Count


def test_the_package_attribute_supports_is_the_submodule():
    import sys

    import supportmonoids
    from supportmonoids import supports as module
    assert module is sys.modules["supportmonoids.supports"]
    assert "supports" not in supportmonoids.__all__
    assert supportmonoids.support_pair is supports
