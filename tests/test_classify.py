import inspect
import random
import time

import pytest

from oracles import from_lib, o_a_plus_inf_a, o_solutions
from supportmonoids import (INF, DioSystem, analyze_single_equation,
                            equals_a_plus_inf_a, is_almost_free, is_full, is_member, verdict)
from supportmonoids.cli import COMMANDS
from supportmonoids.errors import MissingOrderUnitError, ResourceLimitError
from supportmonoids.supports import DEFAULT_FULLNESS_BOUND

RANDCLOSURE = DioSystem(s=3, F=((1, 1, 0),), G=((1, 0, 1),))


def test_equals_randclosure_false_with_witness():
    flag, witnesses = equals_a_plus_inf_a(RANDCLOSURE)
    assert not flag
    assert (INF, 1, 0) in witnesses
    for w in witnesses:
        assert is_member(RANDCLOSURE, w)


def test_equals_two_x_three_y_true():
    flag, witnesses = equals_a_plus_inf_a(DioSystem(s=2, F=((2, 0),), G=((0, 3),)))
    assert flag
    assert witnesses == ()


def test_equals_unconstrained_true():
    flag, witnesses = equals_a_plus_inf_a(DioSystem(s=2))
    assert flag and witnesses == ()


def test_equals_refuses_seventeen_coordinates_in_its_own_name():
    # the free finite part of N0^17 has 2^17 supports of members
    start = time.perf_counter()
    with pytest.raises(ResourceLimitError, match="^equals_a_plus_inf_a: .*MAX_POWERSET_DIM"):
        equals_a_plus_inf_a(DioSystem(s=17))
    assert time.perf_counter() - start < 1


def test_equals_requires_order_unit():
    with pytest.raises(MissingOrderUnitError):
        equals_a_plus_inf_a(DioSystem(s=2, F=((1, 0),), G=((0, 0),)))


def test_equals_matches_direct_comparison_on_fixtures():
    fixtures = (
        RANDCLOSURE,
        DioSystem(s=4, F=((1, 1, 1, 0),), G=((1, 1, 0, 1),)),
        DioSystem(s=2, F=((4, 3),), G=((3, 4),)),
        DioSystem(s=2, F=((2, 0),), G=((0, 3),)),
        DioSystem(s=2, D=((1, 1),), moduli=(2,)),
        DioSystem(s=2),
    )
    bound = 4
    for sys_ in fixtures:
        flag, witnesses = equals_a_plus_inf_a(sys_)
        sols = o_solutions(sys_.to_json(), bound)
        a_plus = o_a_plus_inf_a(sys_.to_json(), bound)
        assert flag == (a_plus == sols), sys_
        # and on these fixtures the flag alone decides witness existence
        assert bool(witnesses) == (not flag)
        for w in witnesses:
            lw = from_lib(w, INF)
            if all(v is None or v <= bound for v in lw):
                assert lw in sols and lw not in a_plus


def test_single_equation_overlapping_supports():
    rep = analyze_single_equation((1, 1, 0), (1, 0, 1))
    assert rep.has_positive_solution
    assert rep.almost_free
    assert rep.closed_form_applicable
    assert rep.equals_a_plus_inf_a is False  # the supports share coordinate 1


def test_single_equation_disjoint_coprime():
    rep = analyze_single_equation((2, 0), (0, 3))
    assert rep.has_positive_solution and rep.almost_free and rep.equals_a_plus_inf_a


def test_single_equation_no_positive_solution():
    rep = analyze_single_equation((1, 1), (2, 2))
    assert not rep.has_positive_solution
    assert rep.almost_free is None and rep.equals_a_plus_inf_a is None


def test_single_equation_non_primitive():
    rep = analyze_single_equation((2, 0), (0, 2))
    assert rep.has_positive_solution
    assert not rep.closed_form_applicable
    assert rep.equals_a_plus_inf_a is None


def test_single_equation_validation():
    with pytest.raises(ValueError):
        analyze_single_equation((1, 1), (1, 1))
    with pytest.raises(ValueError):
        analyze_single_equation((0, 0), (1, 1))
    with pytest.raises(ValueError):
        analyze_single_equation((1,), (1, 2))


def test_verdict_randclosure():
    rep = verdict(RANDCLOSURE)
    assert rep.has_order_unit and rep.full and rep.almost_free
    assert rep.equals_a_plus_inf_a is False
    assert rep.all_fg_sums is False
    assert (INF, 1, 0) in rep.witnesses
    js = rep.to_json()
    assert js["order_unit"] is True
    assert js["all_fg_sums"] is False
    assert ["inf", 1, 0] in js["witnesses"]


def test_verdict_wiegand_built():
    rep = verdict(DioSystem(s=2, F=((3, 1),), G=((2, 2),)))
    assert rep.almost_free and rep.equals_a_plus_inf_a is False


def test_verdict_empty_system():
    rep = verdict(DioSystem(s=2))
    assert rep.has_order_unit and rep.full and rep.almost_free
    assert rep.equals_a_plus_inf_a and rep.all_fg_sums
    assert rep.witnesses == ()


def test_verdict_refuses_a_negative_bound():
    # checked on entry, before the early answer for a missing order unit
    for sys_ in (RANDCLOSURE, DioSystem(s=2, F=((1, 0),), G=((0, 0),))):
        with pytest.raises(ValueError, match="^verification bound: expected at least 0, got -1$"):
            verdict(sys_, bound=-1)
    assert verdict(RANDCLOSURE, bound=0).verification_bound == 0


def test_the_verification_bound_has_one_default():
    # the CLI writes its default as a literal, so a cold parse imports nothing
    for query in (verdict, is_full, is_almost_free):
        assert inspect.signature(query).parameters["bound"].default == DEFAULT_FULLNESS_BOUND
    assert COMMANDS["classify"][2]["bound"]["default"] == DEFAULT_FULLNESS_BOUND


def test_verdict_reports_missing_order_unit_in_band():
    rep = verdict(DioSystem(s=2, F=((1, 0),), G=((0, 0),)))
    assert rep.has_order_unit is False
    assert rep.full is None and rep.almost_free is None
    assert rep.equals_a_plus_inf_a is None and rep.witnesses == ()


def test_single_equation_agreement_both_directions():
    # equations satisfying the cover condition are almost-free; the ones
    # violating it have a minimal family that is not free
    rng = random.Random(13)
    checked_free = checked_unfree = 0
    while checked_free < 10 or checked_unfree < 10:
        s = rng.randint(2, 4)
        a = tuple(rng.randint(0, 3) for _ in range(s))
        b = tuple(rng.randint(0, 3) for _ in range(s))
        if a == b or not any(a) or not any(b):
            continue
        rep_closed = analyze_single_equation(a, b)
        if not rep_closed.has_positive_solution:
            continue
        rep = verdict(DioSystem(s=s, F=(a,), G=(b,)))
        assert rep.almost_free == rep_closed.almost_free
        if rep_closed.almost_free:
            checked_free += 1
        else:
            checked_unfree += 1
        if rep_closed.closed_form_applicable:
            assert rep.equals_a_plus_inf_a == rep_closed.equals_a_plus_inf_a


def test_degenerate_equality_without_almost_freeness():
    # x1 = x2 with a free third coordinate: the monoid genuinely equals
    # A + inf·A but is not almost-free, so the flag is false and no
    # witness exists
    sys_ = DioSystem(s=3, F=((1, 0, 0),), G=((0, 1, 0),))
    flag, witnesses = equals_a_plus_inf_a(sys_)
    assert flag is False
    assert witnesses == ()
    sols = o_solutions(sys_.to_json(), 3)
    assert o_a_plus_inf_a(sys_.to_json(), 3) == sols  # equality does hold
    rep = verdict(sys_)
    assert rep.almost_free is False
