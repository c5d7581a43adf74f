import collections
import itertools
import pickle
import random
import time

import pytest

from supportmonoids import (INF, DioSystem, DirectSumData, HilbertBasis,
                            a_plus_inf_a, b_max, b_min, compose_direct_sum,
                            decompose_direct_sum, decomposed_almost_free,
                            enumerate_truncated, extract, generated_truncated,
                            hilbert_basis, is_almost_free, member_via_supports,
                            monoid_sum, truncated_members, validate)
from supportmonoids.constructions import _rank
from supportmonoids.errors import MissingOrderUnitError, ResourceLimitError
from supportmonoids.semiring import canonical_sorted
from oracles import o_finite_closure, o_rank
from test_supports import assert_lazy_matches_eager, seeded_extractable_systems

RANDCLOSURE = DioSystem(s=3, F=((1, 1, 0),), G=((1, 0, 1),))


def fset(*items):
    return frozenset(items)


def basis(dim, *gens):
    return HilbertBasis.from_generators(dim, gens)


def test_a_plus_inf_a_randclosure_basis():
    sos = a_plus_inf_a(basis(3, (1, 0, 0), (0, 1, 1)))
    assert sos.S == frozenset({fset(), fset(1), fset(2, 3), fset(1, 2, 3)})
    assert sos.basis_for(fset(1)).gens == ((1, 1),)
    assert not is_almost_free(sos)
    assert validate(sos) == []


def test_a_plus_inf_a_free_basis():
    sos = a_plus_inf_a(basis(2, (1, 0), (0, 1)))
    assert len(sos.S) == 4
    assert is_almost_free(sos)
    assert validate(sos) == []


def test_a_plus_inf_a_of_a_non_full_semigroup_is_not_almost_free():
    # <2, 3> is not full (3 - 2 = 1 is missing), so the fullness check
    # at the empty support must reject it
    sos = a_plus_inf_a(basis(1, (2,), (3,)))
    assert sos.S == frozenset({fset(), fset(1)})
    assert not is_almost_free(sos)


def test_a_plus_inf_a_membership_is_the_sum_set():
    b = basis(3, (1, 0, 0), (0, 1, 1))
    sos = a_plus_inf_a(b)
    bound = 3
    finite = [x for x in itertools.product(range(bound + 1), repeat=3)
              if x[1] == x[2]]
    want = set()
    for a1 in finite:
        for a2 in finite:
            z = tuple(INF if b2 else a for a, b2 in zip(a1, a2))
            if all(v is INF or v <= bound for v in z):
                want.add(z)
    assert truncated_members(sos, bound) == want


def test_a_plus_inf_a_requires_order_unit():
    with pytest.raises(MissingOrderUnitError):
        a_plus_inf_a(basis(2, (1, 0)))
    # the empty sum is no order unit of a zero-dimensional basis: a
    # system of supports needs at least one coordinate
    for build in (a_plus_inf_a, b_min, b_max):
        with pytest.raises(ValueError, match="at least one coordinate"):
            build(HilbertBasis(0, ()))


def test_a_plus_inf_a_is_minimal():
    sos = a_plus_inf_a(basis(3, (1, 0, 0), (0, 1, 1)))
    members = frozenset(enumerate_truncated(RANDCLOSURE, 3))
    assert truncated_members(sos, 3) <= members


def test_b_max_strictly_larger_than_the_solution_monoid():
    big = b_max(basis(3, (1, 0, 0), (0, 1, 1)))
    assert member_via_supports(big, (0, INF, 5))
    assert not any(x == (0, INF, 5)
                   for x in enumerate_truncated(RANDCLOSURE, 5))
    assert validate(big) == []
    assert is_almost_free(big)


def test_b_min_excludes_unsupported_infinities():
    small = b_min(basis(3, (1, 0, 0), (0, 1, 1)))
    assert fset(2) not in small.S
    assert not member_via_supports(small, (0, INF, 0))
    assert member_via_supports(small, (INF, 0, 0))
    assert validate(small) == []
    assert is_almost_free(small)


def test_chain_for_almost_free_extractions():
    for sys_ in (RANDCLOSURE,
                 DioSystem(s=2, F=((4, 3),), G=((3, 4),)),
                 DioSystem(s=2, D=((1, 1),), moduli=(2,))):
        sos = extract(sys_)
        assert is_almost_free(sos)
        A = sos.basis_for(fset())
        bound = 3
        chain = [truncated_members(a_plus_inf_a(A), bound),
                 truncated_members(b_min(A), bound),
                 frozenset(enumerate_truncated(sys_, bound)),
                 truncated_members(b_max(A), bound)]
        for small, large in zip(chain, chain[1:]):
            assert small <= large


def test_a_plus_inf_a_equals_b_min_iff_projections_fill_up():
    # the least monoid over A is almost-free iff at every minimal support
    # the projection of A is everything; exactly then it reaches b_min
    cases = (
        basis(3, (1, 0, 0), (0, 1, 1)),   # projection at {1} is the diagonal
        basis(2, (1, 0), (0, 1)),
        basis(2, (3, 2)),
        basis(3, (1, 0, 1), (0, 1, 1)),
    )
    bound = 3
    for A in cases:
        low = a_plus_inf_a(A)
        condition = is_almost_free(low)
        agree = truncated_members(low, bound) == truncated_members(b_min(A), bound)
        assert agree == condition, A.gens


def test_b_min_b_max_have_the_right_finite_part():
    A = basis(3, (1, 0, 0), (0, 1, 1))
    bound = 4
    finite_part = {x for x in truncated_members(b_min(A), bound) if INF not in x}
    assert finite_part == {x for x in truncated_members(b_max(A), bound) if INF not in x}
    want = set()
    for c1 in range(bound + 1):
        for c2 in range(bound + 1):
            x = (c1, c2, c2)
            if max(x) <= bound:
                want.add(x)
    assert finite_part == want


def test_monoid_sum():
    assert monoid_sum(((1, 0),), ((0, 1),)) == ((0, 1), (1, 0))
    gens = ((0, 1, 1), (1, 0, 0), (INF, 0, 1), (INF, 1, 0))
    enlarged = monoid_sum(gens, ((0, INF, 0),))
    assert (0, INF, 0) in generated_truncated(enlarged, 2, 3)
    assert (0, INF, 0) not in generated_truncated(gens, 2, 3)
    assert monoid_sum(gens, gens) == tuple(sorted(gens, key=lambda x: tuple(
        (1, 0) if v is INF else (0, v) for v in x)))
    with pytest.raises(ValueError):
        monoid_sum(((1, 0),), ((1, 0, 0),))


def test_compose_direct_sum_basic():
    d = DirectSumData(
        s=3, I1=fset(1), I2=fset(2), I3=fset(3),
        B1=basis(1, (1,)), B2=basis(1, (1,)),
        f1=((1,),), f2=((1,),))
    assert compose_direct_sum(d).gens == ((0, 1, 1), (1, 0, 1))
    assert d.order_unit_support_ok()


def test_compose_order_unit_check():
    d = DirectSumData(
        s=3, I1=fset(1), I2=fset(2), I3=fset(3),
        B1=basis(1, (1,)), B2=basis(1, (1,)),
        f1=((0,),), f2=((0,),))
    assert not d.order_unit_support_ok()
    with pytest.raises(MissingOrderUnitError):
        compose_direct_sum(d, require_order_unit=True)
    assert compose_direct_sum(d).gens == ((0, 1, 0), (1, 0, 0))


def test_compose_block_diagonal():
    d = DirectSumData(
        s=3, I1=fset(1, 2), I2=fset(3), I3=fset(),
        B1=basis(2, (1, 0), (0, 1)), B2=basis(1, (1,)),
        f1=((), ()), f2=((),))
    assert compose_direct_sum(d).gens == ((0, 0, 1), (0, 1, 0), (1, 0, 0))


def test_decompose_inverse_of_compose():
    d = decompose_direct_sum(basis(3, (1, 0, 1), (0, 1, 1)))
    assert d is not None
    assert (d.I1, d.I2, d.I3) in ((fset(1), fset(2), fset(3)),
                                  (fset(2), fset(1), fset(3)))
    assert d.B1.gens == ((1,),) and d.B2.gens == ((1,),)
    assert d.f1 == ((1,),) and d.f2 == ((1,),)


def test_decompose_disjoint_supports():
    d = decompose_direct_sum(basis(3, (1, 0, 0), (0, 1, 1)))
    assert d is not None
    assert d.I3 == fset()
    assert {d.I1, d.I2} == {fset(1), fset(2, 3)}


def test_decompose_refuses_entangled_basis():
    assert decompose_direct_sum(basis(2, (1, 1), (2, 0))) is None


def test_decompose_refuses_a_missing_order_unit_at_every_size():
    # with fewer than two generators left there is nothing to split, but
    # the missing unit is still refused, as it is for two or more
    for b in (HilbertBasis(3, ((0, 1, 0), (1, 0, 0))), HilbertBasis(2, ((1, 0),)),
              HilbertBasis(1, ())):
        with pytest.raises(MissingOrderUnitError):
            decompose_direct_sum(b)
    assert decompose_direct_sum(HilbertBasis(1, ((1,),))) is None


def test_decompose_uniqueness_filter():
    # (1,1) = (1,0) + (0,1) has two expressions in any split, so the free
    # plane decomposes, but a diagonal third generator must not pretend to
    unsplit = decompose_direct_sum(basis(2, (1, 0), (0, 1)))
    assert unsplit is not None
    entangled = decompose_direct_sum(basis(3, (1, 1, 0), (0, 1, 1), (1, 0, 1)))
    assert entangled is None


def test_decompose_is_exact_past_any_bound():
    # 2·(0,1,0) + (2,0,6) = 2·(1,0,0) + (0,2,6), with the entry 6 above
    # any bound of 5: the sum map of the split is not injective
    assert decompose_direct_sum(
        basis(3, (0, 1, 0), (0, 2, 6), (1, 0, 0), (2, 0, 6))) is None
    # {(1,0,1), (2,0,1)} projects onto (1), (2) on its block {1}: the
    # shadow would send 2·(1) and (2) to 2 and to 1, no monoid map
    assert decompose_direct_sum(basis(3, (0, 1, 1), (1, 0, 1), (2, 0, 1))) is None


def test_decompose_refuses_shadows_drawn_row_by_row():
    # two copies of <(0,2),(1,1),(2,0)> on the blocks {4, 5} and {1, 2},
    # glued on {3} by shadows drawn one row at a time: 2·f(1,1) differs
    # from f(0,2) + f(2,0) in each factor, so a member has two expressions
    gens = ((0, 0, 1, 1, 1), (0, 0, 2, 0, 2), (0, 0, 2, 2, 0),
            (0, 2, 1, 0, 0), (1, 1, 2, 0, 0), (2, 0, 1, 0, 0))
    total = lambda *vs: tuple(map(sum, zip(*vs)))
    left = total(gens[1], gens[2], gens[3], gens[5])
    right = total(gens[0], gens[0], gens[4], gens[4])
    assert left == right == (2, 2, 6, 2, 2)
    assert decompose_direct_sum(basis(5, *gens)) is None


def test_decompose_free_basis_of_twelve_coordinates():
    free = HilbertBasis.free(12)
    d = decompose_direct_sum(free)
    assert d is not None and d.I3 == fset() and len(d.I1) + len(d.I2) == 12
    assert compose_direct_sum(d) == free


def _unique_upto(gens, group1, group2, bound, s):
    """The bounded test decompose_direct_sum once ran: every member of
    the truncated monoid <gens> has exactly one expression u + v with u
    in <group1> and v in <group2>, both truncated at bound."""
    counts = collections.Counter()
    c2 = o_finite_closure(group2, bound, s)
    for u in o_finite_closure(group1, bound, s):
        for v in c2:
            x = tuple(a + b for a, b in zip(u, v))
            if max(x) <= bound:
                counts[x] += 1
    return all(counts[x] == 1 for x in o_finite_closure(gens, bound, s))


def seeded_bases(rng, count):
    """Bases with an order unit and 2 to 8 generators: Hilbert bases of
    one or two random equations, and random generator sets."""
    out = []
    while len(out) < count:
        s = rng.randint(2, 4)
        if len(out) % 2:
            gens = [tuple(rng.choice((0, 0, 0, 1, 1, 2, 3, 6)) for _ in range(s))
                    for _ in range(rng.randint(2, 6))]
            b = HilbertBasis.from_generators(s, gens)
        else:
            n_eq = rng.randint(1, 2)
            b = hilbert_basis(DioSystem(
                s=s, F=tuple(tuple(rng.randint(0, 3) for _ in range(s)) for _ in range(n_eq)),
                G=tuple(tuple(rng.randint(0, 3) for _ in range(s)) for _ in range(n_eq))))
        if b.order_unit() is not None and 2 <= len(b.gens) <= 8:
            out.append(b)
    return out


def test_decompose_witnesses_on_seeded_bases():
    found = 0
    for b in seeded_bases(random.Random(1212), 300):
        d = decompose_direct_sum(b)
        if d is None:
            continue
        found += 1
        assert compose_direct_sum(d) == b
        assert DirectSumData.from_json(d.to_json()) == d
        assert DirectSumData(*d._values()) == d
        group1 = [g for g in b.gens if any(g[i - 1] for i in d.I1)]
        group2 = [g for g in b.gens if g not in group1]
        assert _unique_upto(b.gens, group1, group2, 5, b.dim), b
    assert found >= 100


def test_rank_matches_the_oracle():
    rng = random.Random(17)
    for _ in range(2000):
        k = rng.randint(1, 6)
        rows = [tuple(rng.choice((0, 0, 1, 2, 3, 6, -1)) for _ in range(k))
                for _ in range(rng.randint(0, 6))]
        if len(rows) > 1 and rng.random() < 0.4:
            rows.append(tuple(a + 2 * b for a, b in zip(rows[0], rows[1])))
        assert _rank(rows) == o_rank(rows), rows


def random_recoverable_direct_sum(rng):
    """Instances whose decomposition is essentially unique: factors are
    single-generator or entangled (never free of rank >= 2, which splits
    along any line), and every generator's shadow covers the shared block,
    as it does in canonically presented decompositions.  Each shadow
    coordinate is a linear form c·g with c in {1, 2}^k, so the shadow
    rows are a monoid map on the factor."""
    factors = {
        1: (((1,),), ((2,),)),
        2: (((1, 1),), ((1, 1), (0, 2), (2, 0))),
    }
    k1, k2, k3 = rng.randint(1, 2), rng.randint(1, 2), rng.randint(1, 2)
    s = k1 + k2 + k3
    coords = list(range(1, s + 1))
    rng.shuffle(coords)
    I1, I2, I3 = (fset(*coords[:k1]), fset(*coords[k1:k1 + k2]),
                  fset(*coords[k1 + k2:]))
    B1 = basis(k1, *rng.choice(factors[k1]))
    B2 = basis(k2, *rng.choice(factors[k2]))

    def shadows(B):
        forms = [[rng.randint(1, 2) for _ in range(B.dim)] for _ in range(k3)]
        return tuple(tuple(sum(c * v for c, v in zip(form, g)) for form in forms)
                     for g in B.gens)

    f1, f2 = shadows(B1), shadows(B2)
    return DirectSumData(s=s, I1=I1, I2=I2, I3=I3, B1=B1, B2=B2, f1=f1, f2=f2)


def test_compose_decompose_roundtrip_random():
    rng = random.Random(99)
    for _ in range(10):
        d = random_recoverable_direct_sum(rng)
        assert d.order_unit_support_ok()
        composed = compose_direct_sum(d)
        back = decompose_direct_sum(composed)
        assert back is not None
        assert {back.I1, back.I2} == {d.I1, d.I2} and back.I3 == d.I3


def test_decomposed_almost_free():
    nonfree = DirectSumData(
        s=2, I1=fset(1), I2=fset(2), I3=fset(),
        B1=basis(1, (2,), (3,)), B2=basis(1, (1,)),
        f1=((), ()), f2=((),))
    assert not decomposed_almost_free(nonfree)

    good = DirectSumData(
        s=3, I1=fset(1), I2=fset(2), I3=fset(3),
        B1=basis(1, (1,)), B2=basis(1, (1,)),
        f1=((1,),), f2=((2,),))
    assert decomposed_almost_free(good)

    partial_shadow = DirectSumData(
        s=4, I1=fset(1), I2=fset(2), I3=fset(3, 4),
        B1=basis(1, (1,)), B2=basis(1, (1,)),
        f1=((1, 0),), f2=((1, 1),))
    assert not decomposed_almost_free(partial_shadow)


def test_decompose_splits_the_minimal_generators_of_a_public_basis():
    # (2, 0) = 2·(1, 0) is redundant; the witness holds minimal factors,
    # so it survives JSON
    d = decompose_direct_sum(HilbertBasis(2, ((0, 1), (1, 0), (2, 0))))
    assert (d.B1, d.B2, d.f1, d.f2) == (HilbertBasis.free(1),) * 2 + (((),),) * 2
    assert DirectSumData.from_json(d.to_json()) == d
    rng = random.Random(1313)
    found = 0
    for b in seeded_bases(rng, 200):
        sums = sorted({tuple(x + y for x, y in zip(g, h)) for g in b.gens for h in b.gens})
        padded = b.gens + tuple(rng.sample(sums, rng.randint(1, min(4, len(sums)))))
        d = decompose_direct_sum(HilbertBasis(b.dim, canonical_sorted(padded)))
        assert d == decompose_direct_sum(b)
        if d is not None:
            found += 1
            assert DirectSumData.from_json(d.to_json()) == d
    assert found >= 50


def test_decompose_twenty_generators_without_a_split():
    # every one of the 2^19 splits is tried; each ORs precomputed masks
    gens = [(1, 0, k) for k in range(1, 11)] + [(0, 1, k) for k in range(1, 11)]
    b = HilbertBasis.from_generators(3, gens)
    assert len(b.gens) == 20
    start = time.perf_counter()
    assert decompose_direct_sum(b) is None
    assert time.perf_counter() - start < 5


def test_decompose_generator_cap():
    gens = [tuple(1 if j == i else 0 for j in range(21)) for i in range(21)]
    with pytest.raises(ResourceLimitError,
                       match="^decompose_direct_sum: .* 21 generators .*MAX_DECOMPOSE_GENS = 20$"):
        decompose_direct_sum(HilbertBasis.from_generators(21, gens))


def test_direct_sum_data_validation():
    with pytest.raises(ValueError):
        DirectSumData(s=3, I1=fset(), I2=fset(2), I3=fset(1, 3),
                      B1=basis(0), B2=basis(1, (1,)), f1=(), f2=((0, 0),))
    with pytest.raises(ValueError):
        DirectSumData(s=3, I1=fset(1, 2), I2=fset(2), I3=fset(3),
                      B1=basis(2, (1, 0)), B2=basis(1, (1,)),
                      f1=((0,),), f2=((0,),))
    # shadows that are no monoid map: 2·f(1,1) = (2,) but f(0,2) + f(2,0) = (4,)
    square = basis(2, (0, 2), (1, 1), (2, 0))
    with pytest.raises(ValueError, match="f2 is not a monoid map"):
        DirectSumData(s=5, I1=fset(4, 5), I2=fset(1, 2), I3=fset(3),
                      B1=square, B2=square, f1=((2,), (4,), (6,)),
                      f2=((2,), (1,), (2,)))
    # on <2, 3> the relation 3·2 = 2·3 must hold among the shadows
    with pytest.raises(ValueError, match="f1 is not a monoid map"):
        DirectSumData(s=3, I1=fset(1), I2=fset(2), I3=fset(3),
                      B1=basis(1, (2,), (3,)), B2=basis(1, (1,)),
                      f1=((1,), (1,)), f2=((1,),))
    # the same shadow table as a map c·g with c = (1, 1) is accepted
    d = DirectSumData(s=5, I1=fset(4, 5), I2=fset(1, 2), I3=fset(3),
                      B1=square, B2=square, f1=((2,), (2,), (2,)),
                      f2=((2,), (3,), (4,)))
    assert DirectSumData.from_json(d.to_json()) == d


def test_powerset_guard():
    big = basis(17, *(tuple(1 if j == i else 0 for j in range(17))
                      for i in range(17)))
    sos = b_max(big)  # the supports are listed on the first read, which refuses
    with pytest.raises(ResourceLimitError, match="^b_max: .* 17 coordinates .*MAX_POWERSET_DIM"):
        sos.families


def _restated_a_plus_inf_a(basis):
    """a_plus_inf_a as it stood before families were projected from the
    family below: each family is the projection of A itself.  H is a
    support when the generator supports inside H cover H, tried over
    every subset of the coordinates."""
    from supportmonoids import SystemOfSupports, project, supp
    coords = range(1, basis.dim + 1)
    subsets = (frozenset(H) for r in range(basis.dim + 1)
               for H in itertools.combinations(coords, r))
    fams = []
    for H in subsets:
        if frozenset().union(*(supp(g) for g in basis.gens if supp(g) <= H)) != H:
            continue
        projected = [project(g, H) for g in basis.gens]
        fams.append((H, HilbertBasis.from_generators(basis.dim - len(H), projected)))
    return SystemOfSupports(s=basis.dim, unit=basis.order_unit(), families=tuple(fams))


def _non_free(sos):
    return sum(b != HilbertBasis.free(sos.s - len(H)) for H, b in sos.families)


def test_a_plus_inf_a_matches_the_per_support_definition():
    rng = random.Random(59)
    bases = []
    while len(bases) < 60:
        s = rng.randint(2, 5)
        if rng.random() < 0.5:
            gens = [tuple(rng.choice((0, 0, 1, 2, 3, 5)) for _ in range(s))
                    for _ in range(rng.randint(1, 7))]
            b = HilbertBasis.from_generators(s, gens)
        else:
            n_eq = rng.randint(1, 2)
            b = hilbert_basis(DioSystem(
                s=s, F=tuple(tuple(rng.randint(0, 4) for _ in range(s)) for _ in range(n_eq)),
                G=tuple(tuple(rng.randint(0, 4) for _ in range(s)) for _ in range(n_eq))))
        if b.order_unit() is not None:
            bases.append(b)
    non_free = 0
    for b in bases:
        got = a_plus_inf_a(b)
        assert got == _restated_a_plus_inf_a(b), b
        non_free += _non_free(got) > 1
    assert non_free >= 20


def test_a_plus_inf_a_on_twelve_coordinates():
    # 2·e_i and e_i + e_(i+1): every subset is a support, and most
    # families are not free
    s = 12
    gens = [tuple(2 if j == i else 0 for j in range(s)) for i in range(s)]
    gens += [tuple(1 if j in (i, i + 1) else 0 for j in range(s)) for i in range(s - 1)]
    b = HilbertBasis.from_generators(s, gens)
    start = time.perf_counter()
    got = a_plus_inf_a(b)
    families = got.families  # the construction lists nothing until asked
    assert time.perf_counter() - start < 30
    assert len(families) == 4096 and _non_free(got) == 4096 - 1201
    assert got == _restated_a_plus_inf_a(b)


def test_constructions_answer_alike_before_and_after_building():
    for sys_ in seeded_extractable_systems(random.Random(103), 200):
        A = extract(sys_).basis_for(fset())
        for construct in (a_plus_inf_a, b_min, b_max):
            assert_lazy_matches_eager(lambda: construct(A))


def test_constructions_build_only_the_family_a_query_reads():
    A = basis(4, (1, 1, 0, 0), (0, 1, 2, 0), (0, 0, 1, 1), (1, 0, 0, 3))
    for construct in (a_plus_inf_a, b_min, b_max):
        sos = construct(A)
        assert member_via_supports(sos, (INF, INF, 3, 1))
        assert list(sos._by_h) == [0b0011] and callable(sos._listing)
        # {1} contains no generator support: only b_max admits it
        assert member_via_supports(sos, (INF, 0, 0, 0)) == (construct is b_max)
        assert list(sos._by_h) == [0b0011, 0b0001] and callable(sos._listing)
        assert (sos._by_h[0b0001] is None) == (construct is not b_max)


def test_a_plus_inf_a_on_seventeen_nested_generators():
    # e1, e1 + e2, ..., e1 + ... + e17: a chain of 18 supports, listed on the first read
    s = 17
    nested = HilbertBasis.from_generators(s, [tuple(int(j <= i) for j in range(s))
                                              for i in range(s)])
    sos = a_plus_inf_a(nested)
    assert [H for H, _ in sos.families] == [frozenset(range(1, k + 1)) for k in range(s + 1)]
    assert sos.basis_for(frozenset()) == nested
    assert sos.basis_for(frozenset(range(1, s + 1))) == HilbertBasis(0, ())


def test_constructions_refuse_seventeen_coordinates_at_the_first_listing(monkeypatch):
    # S is listed once, by the first read, and every read raises the same refusal
    from supportmonoids import constructions
    calls = []
    real = constructions._closed_masks
    monkeypatch.setattr(constructions, "_closed_masks",
                        lambda *args: calls.append(args) or real(*args))
    free = HilbertBasis.free(17)
    for construct in (a_plus_inf_a, b_min, b_max):
        stage = construct.__name__
        calls.clear()
        sos = construct(free)
        messages = set()
        for read in (lambda: sos.S, lambda: sos.families, sos.to_json,
                     lambda: hash(sos), lambda: pickle.dumps(sos)):
            with pytest.raises(ResourceLimitError,
                               match=f"^{stage}: .*MAX_POWERSET_DIM") as refusal:
                read()
            messages.add(str(refusal.value))
        assert len(calls) == 1 and messages == {
            f"{stage}: listing more than 2^16 support sets out of the 2^17 subsets "
            "of 17 coordinates exceeds the cap MAX_POWERSET_DIM = 16"}
        assert sos._by_h == {}


def test_decomposed_almost_free_accepts_a_free_factor_that_is_not_minimal():
    d = DirectSumData(
        s=3, I1=fset(1), I2=fset(2), I3=fset(3),
        B1=HilbertBasis(1, ((1,), (2,))), B2=basis(1, (1,)),
        f1=((1,), (2,)), f2=((2,),))
    assert decomposed_almost_free(d)
    assert not decomposed_almost_free(DirectSumData(
        s=3, I1=fset(1), I2=fset(2), I3=fset(3),
        B1=HilbertBasis(1, ((2,), (3,))), B2=basis(1, (1,)),
        f1=((2,), (3,)), f2=((2,),)))
