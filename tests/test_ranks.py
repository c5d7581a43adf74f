import itertools

import pytest

from oracles import from_lib, o_row_value
from supportmonoids import (INF, DioSystem, RankMatrix, enumerate_truncated,
                            extract, from_integer_matrix, hilbert_basis,
                            b_max, is_almost_free, is_extended, is_member,
                            realize_wiegand, truncated_members, vstar_system)
from supportmonoids.errors import MissingOrderUnitError


def test_vstar_system_randclosure_shape():
    rm = RankMatrix(a=((1, 1, 0), (1, 0, 1)))
    assert vstar_system(rm) == DioSystem(s=3, F=((1, 1, 0),), G=((1, 0, 1),))


def test_vstar_system_localbass_shape():
    rm = RankMatrix(a=((1, 1, 1, 0), (1, 1, 0, 1)))
    assert vstar_system(rm) == DioSystem(s=4, F=((1, 1, 1, 0),), G=((1, 1, 0, 1),))


def test_vstar_system_duplicate_rows_vanish():
    rm = RankMatrix(a=((2, 3), (2, 3)))
    sys_ = vstar_system(rm)
    assert sys_.n_eq == 0
    values = (0, 1, INF)
    for x in itertools.product(values, repeat=2):
        assert is_member(sys_, x)


def test_is_extended():
    rm = RankMatrix(a=((1, 1, 0), (1, 0, 1)))
    assert is_extended(rm, (INF, 1, 0))
    assert not is_extended(rm, (0, 1, 0))
    # an infinite entry in a column positive in every row floods all rows
    assert is_extended(rm, (INF, 2, 7))
    with pytest.raises(ValueError):
        is_extended(rm, (1, 1))


def test_is_extended_equals_system_membership():
    # the reference is the definition: the weighted ranks agree at every
    # prime; the second matrix repeats its first row, which vstar_system drops
    values = (0, 1, 2, INF)
    for rows in (((2, 0, 1), (1, 1, 0), (0, 2, 1)),
                 ((1, 2, 0), (0, 1, 1), (1, 2, 0), (0, 1, 1))):
        rm = RankMatrix(a=rows)
        for x in itertools.product(values, repeat=3):
            ranks = {o_row_value(row, from_lib(x, INF)) for row in rows}
            assert is_extended(rm, x) == (len(ranks) == 1), (rows, x)


def test_finite_extendedness_matches_the_finite_part():
    rm = RankMatrix(a=((1, 1, 0), (1, 0, 1)))
    sys_ = vstar_system(rm)
    sos = extract(sys_)
    gens = sos.basis_for(frozenset()).gens
    from supportmonoids import in_generated
    for x in itertools.product(range(4), repeat=3):
        assert is_extended(rm, x) == in_generated(gens, x)


def test_extraction_of_rank_systems_is_almost_free():
    for rows in (((1, 1, 0), (1, 0, 1)),
                 ((1, 1, 1, 0), (1, 1, 0, 1)),
                 ((2, 0, 1), (1, 1, 0)),
                 ((4, 3), (3, 4))):
        sys_ = vstar_system(RankMatrix(a=rows))
        assert is_almost_free(extract(sys_))


def test_realize_wiegand_basic():
    rm, sys_ = realize_wiegand(((1, -1),))
    assert rm.a == ((4, 3), (3, 4))
    assert sys_ == DioSystem(s=2, F=((4, 3),), G=((3, 4),))


def test_realize_wiegand_zero_matrix():
    rm, sys_ = realize_wiegand(((0, 0),))
    assert rm.a == ((2, 3), (2, 3))
    assert sys_.n_eq == 0  # every tuple descends
    basis = hilbert_basis(from_integer_matrix(((0, 0),)))
    assert basis.gens == ((0, 1), (1, 0))


def test_realize_wiegand_matches_largest_monoid():
    for E, bound in ((((1, -1),), 4), (((1, 1, -1),), 3), (((2, -1, -1),), 3)):
        rm, sys_ = realize_wiegand(E)
        A = hilbert_basis(from_integer_matrix(E))
        assert frozenset(enumerate_truncated(sys_, bound)) == \
            truncated_members(b_max(A), bound)


def test_realize_wiegand_kernel_basis():
    A = hilbert_basis(from_integer_matrix(((1, 1, -1),)))
    assert A.gens == ((0, 1, 1), (1, 0, 1))


def test_realize_wiegand_infinite_support_always_descends():
    rm, sys_ = realize_wiegand(((1, -1),))
    values = (0, 1, 2, INF)
    for x in itertools.product(values, repeat=2):
        if INF in x:
            assert is_extended(rm, x)


def test_realize_wiegand_needs_positive_kernel():
    with pytest.raises(MissingOrderUnitError):
        realize_wiegand(((1, 1),))


def test_rank_matrix_validation():
    with pytest.raises(ValueError):
        RankMatrix(a=((1, 0),))  # a single prime is not allowed
    with pytest.raises(ValueError):
        RankMatrix(a=((1, 0), (1, 0)))  # dead second summand
    with pytest.raises(ValueError):
        RankMatrix(a=((1, -1), (1, 1)))
    with pytest.raises(ValueError):
        RankMatrix(a=((1, True), (1, 1)))
    with pytest.raises(ValueError):
        RankMatrix(a=((1, 1), (1, 1)), labels=("one",))
    rm = RankMatrix(a=((1, 1), (1, 2)), labels=("R", "M"))
    assert rm.s == 2 and rm.primes == 2


def test_rank_matrix_json_roundtrip():
    rm = RankMatrix(a=((1, 1), (1, 2)), labels=("R", "M"))
    assert RankMatrix.from_json(rm.to_json()) == rm
    with pytest.raises(ValueError):
        RankMatrix.from_json({"a": [[1, 1], [1, 2]], "s": 3})
