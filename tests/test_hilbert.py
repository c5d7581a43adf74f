import collections
import itertools
import json
import random
import re
import time

import pytest

from conftest import limit_probe
from oracles import (from_lib, o_closure, o_finite_closure,
                     o_finite_solutions, o_minimal)
from supportmonoids import (INF, DioSystem, HilbertBasis, find_order_unit,
                            generated_truncated, generated_upto, hilbert_basis,
                            in_generated, is_member, minimize_generators)
from supportmonoids.errors import ResourceLimitError
from supportmonoids.hilbert import minimal_solutions
from supportmonoids.semiring import canonical_sorted


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
    # no point lies below a negative bound, not even the zero vector
    with pytest.raises(ValueError, match="bound: expected at least 0, got -1"):
        generated_upto(gens, -1, 2)
    # 6^12 points in the box: refused before anything is enumerated
    with pytest.raises(ResourceLimitError, match="generated_upto"):
        generated_upto(HilbertBasis.free(12).gens, 5, 12)
    # the box is large but (6, 0, ...) takes at most 3 copies of one generator
    assert generated_upto(((2,) + (0,) * 11,), 5, 12) == frozenset(
        {(c,) + (0,) * 11 for c in (0, 2, 4)})


def test_generated_truncated_refuses_before_enumerating():
    # 7^12 points in the truncated box, and 7 choices per unit vector
    with pytest.raises(ResourceLimitError, match="generated_truncated") as err:
        generated_truncated(HilbertBasis.free(12).gens, 5, 12)
    assert "10000000" in str(err.value) and str(7 ** 12) in str(err.value)
    # one generator has three choices below bound 5: none, one copy, inf
    g = (5,) * 12
    assert generated_truncated((g,), 5, 12) == frozenset(
        {(0,) * 12, g, (INF,) * 12})


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
    # the zero vector is the empty sum, but a lone one is kept
    assert minimize_generators(((0, 0), (1, 0))) == ((1, 0),)
    assert minimize_generators(((0, 0),)) == ((0, 0),)


def test_completion_state_cap():
    # the cap counts stored candidates, the four unit vectors included, and
    # is checked before each candidate is taken: e1's two steps take the
    # count from 4 to 6, so a cap of 4 or 5 is refused at e2, and the whole
    # search stores eleven
    sys_ = DioSystem(s=4, F=((3, 1, 2, 1),), G=((1, 2, 1, 3),))
    for cap, stored in ((3, 4), (4, 6), (5, 6), (8, 10), (10, 11)):
        with pytest.raises(ResourceLimitError, match=r"^minimal_solutions: the completion "
                           rf"search stored {stored} candidates, past the cap "
                           rf"max_states = {cap}$"):
            hilbert_basis(sys_, max_states=cap)
    assert hilbert_basis(sys_, max_states=11) == hilbert_basis(sys_)


_LIBRARY_PROBE = """import sys
from supportmonoids import DioSystem, ResourceLimitError, hilbert_basis
try:
    hilbert_basis(DioSystem(s={}, F={}, G={}))
except ResourceLimitError as exc:
    print(f"error: {{exc}}", file=sys.stderr)
    sys.exit(3)
"""


@pytest.mark.parametrize("k,cold", [(10, True), (4, False), (22, False)],
                         ids=["classify-s12", "hilbert_basis-s6", "hilbert_basis-s24"])
def test_completion_refusals_stay_small(tmp_path, k, cold):
    # single equations whose completion search runs into the 10^6 cap: each
    # child, a cold CLI run or a library call, refuses at a peak RSS under
    # 256 MB (an RLIMIT_AS of 1 GiB keeps a regression from taking more)
    s, F, G = k + 2, ((1,) * k + (0, 0),), ((0,) * k + (89, 97),)  # x1+...+xk = 89y1+97y2
    if cold:
        f = tmp_path / "system.json"
        f.write_text(json.dumps({"s": s, "equations": {"F": F, "G": G}}))
        probe = limit_probe("-m", "supportmonoids.cli", "classify", "--system", str(f))
    else:
        probe = limit_probe("-c", _LIBRARY_PROBE.format(s, F, G))
    assert probe.status == 3, probe.stderr
    assert re.fullmatch(r"error: minimal_solutions: the completion search stored \d+ "
                        r"candidates, past the cap max_states = 1000000\n", probe.stderr)
    assert probe.peak_mb < 256, probe


def test_lifting_past_the_dimension_cap_is_refused():
    # two congruences on 23 coordinates lift to 25 variables
    sys_ = DioSystem(s=23, D=((1,) * 23, (2,) * 23), moduli=(2, 3))
    with pytest.raises(ValueError, match="^dimension 25 exceeds the supported maximum 24$"):
        hilbert_basis(sys_)


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
    # bases share the 24-coordinate cap of systems and vectors
    wide = ((1,) * 25,)
    for build in (HilbertBasis, HilbertBasis.from_generators):
        with pytest.raises(ValueError, match="^dimension 25 exceeds the supported maximum 24$"):
            build(25, wide)
    with pytest.raises(ValueError, match="^dimension 25 exceeds"):
        HilbertBasis.free(25)
    assert HilbertBasis.from_generators(24, ((1,) * 24,)).dim == 24
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


def test_rowless_systems_get_the_shared_free_basis():
    for k in range(1, 7):
        assert hilbert_basis(DioSystem(s=k)) is HilbertBasis.free(k)
    # the search would store the 3 unit vectors, so a smaller cap still refuses
    with pytest.raises(ResourceLimitError):
        hilbert_basis(DioSystem(s=3), max_states=2)


def _restated_minimal_solutions(rows, dim, max_states):
    """The completion loop on tuples, with one visited set for the whole
    search, as it stood before the incremental products; it counts the
    candidates it stores and is refused before it takes the next one once
    that count passes the cap."""
    cols = [tuple(row[j] for row in rows) for j in range(dim)]
    unit = [tuple(int(i == j) for i in range(dim)) for j in range(dim)]
    minimals, frontier, seen, stored = [], [], set(), dim
    for j in range(dim):
        frontier.append((unit[j], cols[j]))
        seen.add(unit[j])
    while frontier:
        nxt = []
        for t, v in frontier:
            if stored > max_states:
                raise ResourceLimitError(
                    f"minimal_solutions: the completion search stored {stored} candidates, "
                    f"past the cap max_states = {max_states}")
            if not any(v):
                if not any(all(a >= b for a, b in zip(t, m)) for m in minimals):
                    minimals.append(t)
                continue
            for j in range(dim):
                if sum(a * b for a, b in zip(v, cols[j])) < 0:
                    t2 = tuple(a + b for a, b in zip(t, unit[j]))
                    if t2 in seen or any(all(a >= b for a, b in zip(t2, m))
                                         for m in minimals):
                        continue
                    stored += 1
                    seen.add(t2)
                    nxt.append((t2, tuple(a + b for a, b in zip(v, cols[j]))))
        frontier = nxt
    return minimals


def _outcome(fn, *args):
    try:
        return fn(*args)
    except ResourceLimitError as err:
        return str(err)


def test_minimal_solutions_match_the_restated_search():
    rng = random.Random(41)
    for _ in range(300):
        dim = rng.randint(1, 5)
        rows = [tuple(rng.randint(-3, 3) for _ in range(dim))
                for _ in range(rng.randint(0, 3))]
        assert minimal_solutions(rows, dim) == \
            _restated_minimal_solutions(rows, dim, 10 ** 6), rows
        cap = rng.randint(0, 40)
        assert _outcome(minimal_solutions, rows, dim, cap) == \
            _outcome(_restated_minimal_solutions, rows, dim, cap), (rows, cap)


def test_from_generators_with_every_unit_vector_is_free():
    units = HilbertBasis.free(3).gens
    extra = ((1, 1, 0), (0, 2, 5), (3, 0, 0), (0, 0, 0))
    assert HilbertBasis.from_generators(3, units + extra) is HilbertBasis.free(3)
    # vectors with inf entries are generated by the unit vectors too
    assert HilbertBasis.from_generators(3, units + ((INF, 1, 0),)) is HilbertBasis.free(3)
    # a missing unit vector leaves the ordinary minimization
    assert HilbertBasis.from_generators(3, units[:2] + ((2, 0, 0), (3, 0, 0))).gens == \
        ((0, 0, 1), (0, 1, 0), (2, 0, 0), (3, 0, 0))
    # invalid extras are still refused, not absorbed into the free basis
    for bad in ((-1, 0, 0), (1, 0)):
        with pytest.raises(ValueError):
            HilbertBasis.from_generators(3, units + (bad,))


def _restated_minimize(gens):
    """The redundancy sweep as it stood before unit vectors were skipped."""
    remaining = list(canonical_sorted(gens))
    changed = True
    while changed:
        changed = False
        for g in list(remaining):
            others = [h for h in remaining if h != g]
            if others and in_generated(others, g):
                remaining.remove(g)
                changed = True
    return tuple(remaining)


def test_minimize_generators_matches_the_restated_sweep():
    # chains such as v, 2v, v + e_j and v + w put vectors removed early
    # below vectors decided later
    rng = random.Random(43)
    values = (0, 0, 1, 1, 2, 3, INF)
    removed = 0
    for _ in range(150):
        dim = rng.randint(1, 5)
        gens = [tuple(rng.choice(values) for _ in range(dim))
                for _ in range(rng.randint(1, 6))]
        gens += [tuple(int(i == j) for i in range(dim))
                 for j in range(dim) if rng.random() < 0.6]
        for _ in range(rng.randint(0, 20 - len(gens))):
            v, w = rng.choice(gens), rng.choice(gens)
            j = rng.randrange(dim)
            gens.append(rng.choice((tuple(2 * a for a in v),
                                    tuple(a + (i == j) for i, a in enumerate(v)),
                                    tuple(a + b for a, b in zip(v, w)))))
        want = _restated_minimize(gens)
        assert minimize_generators(gens) == want, gens
        removed += len(want) < len(set(gens) - {(0,) * dim})
    assert removed > 120


def test_minimize_generators_checks_each_vector_once(monkeypatch):
    # on an antichain every vector is checked on entry and once as a
    # target; and whatever the input, in_generated is handed only kept
    # vectors below its target
    import supportmonoids.hilbert as hilbert_module

    checked = [0]
    check_vecs, search = hilbert_module.check_vecs, hilbert_module.in_generated

    def counted(vecs, n, what="generator"):
        out = check_vecs(vecs, n, what)
        checked[0] += len(out)
        return out

    def below_only(gens, x):
        gens = list(gens)
        assert all(h != x and all(b is INF or a is not INF and a <= b
                                  for a, b in zip(h, x)) for h in gens), (gens, x)
        return search(gens, x)

    sols = canonical_sorted(minimal_solutions([(1, 1, 1, -41, -43)], 5))
    assert len(sols) == 1893
    monkeypatch.setattr(hilbert_module, "check_vecs", counted)
    monkeypatch.setattr(hilbert_module, "in_generated", below_only)
    assert minimize_generators(sols) == sols
    assert checked[0] <= 2 * len(sols)
    rng = random.Random(29)
    # sums of two minimal solutions are removed, against nonempty lists
    sols = canonical_sorted(minimal_solutions([(1, 1, 1, -7, -9)], 5))
    sums = [tuple(map(int.__add__, *rng.sample(sols, 2))) for _ in range(200)]
    assert minimize_generators([*sols, *sums]) == sols
    assert minimize_generators([(1, 0), (0, INF), (INF, 0), (2, 1), (1, INF), (INF, INF)]) \
        == ((0, INF), (1, 0), (2, 1))


def test_packed_search_matches_on_coordinates_above_the_small_fields():
    # minimal solutions such as (37, 1) for x1 = 37·x2 need more than four
    # bits per coordinate, and caps near the count of candidates the search
    # stores give the narrowest fields; the answer, its order and the
    # refusal agree
    rng = random.Random(47)
    # the last case needs the spare bit: with fields one bit narrower, a
    # coordinate of 32 under the cap 63 spills into the guard and the
    # search refuses instead of returning [(0, 26, 1)]
    cases = [[(1, -37)], [(3, -40)], [(2, 5, -37)], [(1, 1, -19), (0, 2, -3)],
             [(55, -2, 52), (51, -1, 26)]]
    for _ in range(60):
        dim = rng.randint(2, 4)
        cases.append([tuple(rng.choice((-1, 1)) * rng.randint(0, 40) for _ in range(dim))
                      for _ in range(rng.randint(1, 2))])
    big = 0
    for rows in cases:
        dim = len(rows[0])
        want = _outcome(_restated_minimal_solutions, rows, dim, 20000)
        assert _outcome(minimal_solutions, rows, dim, 20000) == want, rows
        big += isinstance(want, list) and any(v > 15 for t in want for v in t)
        for cap in {rng.randint(0, 80), 1, 2, 15, 16, 31, 32, 63, 64}:
            assert _outcome(minimal_solutions, rows, dim, cap) == \
                _outcome(_restated_minimal_solutions, rows, dim, cap), (rows, cap)
    assert big >= 15


def _antichain(rng, dim, values):
    out = []
    for _ in range(rng.randint(1, 7)):
        g = tuple(rng.choice(values) for _ in range(dim))
        if any(g) and not any(all(a >= b for a, b in zip(g, h)) or
                              all(a <= b for a, b in zip(g, h)) for h in out):
            out.append(g)
    return out


def test_antichains_are_kept_whole(monkeypatch):
    rng = random.Random(53)
    finite, with_inf = [], []
    for _ in range(200):
        dim = rng.randint(1, 5)
        finite.append((dim, _antichain(rng, dim, (0, 0, 1, 2, 3, 9, 40))))
        with_inf.append((dim, _antichain(rng, dim, (0, 0, 1, 2, 3, INF))))
    assert any(INF in g for _, gens in with_inf for g in gens)
    # and sets that are not antichains still lose their redundant vectors
    others = [(dim, [tuple(rng.choice((0, 1, 2, 4)) for _ in range(dim))
                     for _ in range(rng.randint(2, 7))])
              for dim in (rng.randint(1, 4) for _ in range(200))]
    assert sum(len(_restated_minimize(g)) < len(set(g) - {(0,) * d}) for d, g in others) > 50
    for dim, gens in finite + with_inf + others:
        want = _restated_minimize(gens)
        assert minimize_generators(gens) == want, gens
        nonzero = [g for g in gens if any(g)]
        assert HilbertBasis._minimal(dim, nonzero).gens == _restated_minimize(nonzero), gens
    # an all-finite antichain needs no redundancy sweep
    import supportmonoids.hilbert as hilbert_module

    def no_sweep(*args):
        raise AssertionError("in_generated called on an antichain")

    monkeypatch.setattr(hilbert_module, "in_generated", no_sweep)
    for dim, gens in finite:
        assert HilbertBasis.from_generators(dim, gens).gens == canonical_sorted(gens)


def test_from_generators_checks_every_raw_entry():
    # a bad entry in a vector the minimization would drop is still refused
    for gens, message in (
            (((1, 0), (0, 1), (True, 1)), "generator entry: expected an integer, got True"),
            (((1, 0), (0, 1), (2, -1)), "generator entry: expected at least 0, got -1"),
            (((1, 0), (2, 0), (1.0, 0)), "generator entry: expected an integer, got 1.0"),
            (((1, 0), (0, 1), (1, 1, 0)), "generator (1, 1, 0) has length 3, expected 2"),
            (((1, INF), (0, 1)), "generator entry: expected an integer, got INF")):
        with pytest.raises(ValueError) as err:
            HilbertBasis.from_generators(2, gens)
        assert str(err.value) == message
    with pytest.raises(ValueError, match="dimension"):
        HilbertBasis.from_generators(True, ((1,),))
    # inf entries are fine in redundant vectors
    assert HilbertBasis.from_generators(2, ((1, 0), (0, 2), (INF, 2))).gens == ((0, 2), (1, 0))


def _random_gens(rng, dim, bound, values):
    """Generators for the closures: a zero generator, duplicates and
    entries above the bound turn up."""
    gens = [tuple(rng.choice(values) for _ in range(dim))
            for _ in range(rng.randint(0, 4))]
    if gens and rng.random() < 0.3:
        gens.append(rng.choice(gens))
    if rng.random() < 0.3:
        gens.append((0,) * dim)
    if rng.random() < 0.3:
        gens.append(tuple(bound + 1 if j == 0 else 0 for j in range(dim)))
    rng.shuffle(gens)
    return gens


def test_closures_match_the_oracles_on_seeded_inputs():
    rng = random.Random(61)
    for _ in range(300):
        dim = rng.randint(1, 4)
        bound = rng.randint(0, 4)
        gens = _random_gens(rng, dim, bound, (0, 0, 1, 2, 3, 5))
        assert generated_upto(gens, bound, dim) == \
            frozenset(o_finite_closure(gens, bound, dim)), (gens, bound)
        gens = _random_gens(rng, dim, bound, (0, 0, 1, 2, 3, 5, INF))
        want = o_closure([from_lib(g, INF) for g in gens], bound, dim)
        got = generated_truncated(gens, bound, dim)
        assert {from_lib(x, INF) for x in got} == want, (gens, bound)
    # bound 0 keeps the zero vector alone, or inf where a generator reaches
    assert generated_upto(((1, 0), (0, 0)), 0, 2) == {(0, 0)}
    assert generated_truncated(((1, 0), (0, 0)), 0, 2) == {(0, 0), (INF, 0)}
    # wide fields: bound 70 takes eight bits per coordinate
    sparse = (0, 37, 0, 0)
    assert generated_upto((sparse,), 70, 4) == {(0,) * 4, sparse}
    assert generated_upto((sparse, (0, 1, 0, 64)), 70, 4) == \
        frozenset(o_finite_closure((sparse, (0, 1, 0, 64)), 70, 4))
    wide = ((0, 37, 0, 0), (INF, 0, 0, 33))
    assert {from_lib(x, INF) for x in generated_truncated(wide, 70, 4)} == \
        o_closure([from_lib(g, INF) for g in wide], 70, 4)


def test_closures_refuse_before_packing(monkeypatch):
    import supportmonoids.hilbert as hilbert_module

    def no_packing(*args):
        raise AssertionError("a point was packed")

    monkeypatch.setattr(hilbert_module, "_Fields", no_packing)
    free = HilbertBasis.free(12).gens
    with pytest.raises(ResourceLimitError, match="generated_upto"):
        generated_upto(free, 5, 12)
    with pytest.raises(ResourceLimitError, match="generated_truncated"):
        generated_truncated(free, 5, 12)


def test_closures_validate_the_bound():
    gens = ((1, 2), (2, 1))
    for closure in (generated_upto, generated_truncated):
        for bad in (1.5, True, "3", None):
            wanted = f"^bound: expected an integer, got {re.escape(repr(bad))}$"
            with pytest.raises(ValueError, match=wanted):
                closure(gens, bad, 2)
        with pytest.raises(ValueError, match="^bound: expected at least 0, got -1$"):
            closure(gens, -1, 2)
    # the dimension is checked first, against the 24-coordinate cap
    with pytest.raises(ValueError, match="^dimension 30 exceeds the supported maximum 24$"):
        generated_upto([], 0, 30)
    with pytest.raises(ValueError, match="^dimension: expected at least 0, got -2$"):
        generated_upto([], 1, -2)
    with pytest.raises(ValueError, match="^dimension: expected an integer, got 1.5$"):
        generated_upto([], -1, 1.5)
    assert generated_upto([], 3, 0) == frozenset({()})
    # the generators take the entry test of every public query
    for bad, message in ((((1, -1),), "generator entry: expected at least 0, got -1"),
                         (((1, True),), "generator entry: expected an integer, got True"),
                         (((INF, 1),), "generator entry: expected an integer, got INF"),
                         (((1, 0, 0),), "generator (1, 0, 0) has length 3, expected 2")):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            generated_upto(bad, 3, 2)


def _vectors(rng, n, dim, cap):
    return [tuple(rng.randint(0, cap) for _ in range(dim)) for _ in range(n)]


def test_packed_words_round_trip_flag_overflow_and_compare():
    from supportmonoids.hilbert import MAX_COMPLETION_STATES, _Fields
    rng = random.Random(67)
    caps = [0, 1, 2, 3, 7, 8, 63, 64, 255, MAX_COMPLETION_STATES]
    caps += [rng.randint(0, MAX_COMPLETION_STATES) for _ in range(10)]
    widest = _Fields(1, MAX_COMPLETION_STATES).width
    assert widest == 21 and max(_Fields(1, c).width for c in caps) == widest
    for cap in caps:
        for dim in (0, 1, 2, 5):
            fields = _Fields(dim, cap)
            top, bias = fields.top, fields.bias
            xs, ys = _vectors(rng, 30, dim, cap), _vectors(rng, 30, dim, cap)
            ys += [tuple(min(v + 1, cap + 1) for v in y) for y in ys]
            px, py = fields.pack(xs), fields.pack(ys)
            assert fields.unpack(px) == xs and fields.unpack(py) == ys
            assert fields.unpack([w + bias for w in px], biased=True) == xs
            for x, wx in zip(xs, px):
                nonzero = ((wx | top) - fields.ones) & top
                assert [nonzero >> (k + fields.width - 1) & 1 for k in fields.shifts] == \
                    [int(a > 0) for a in x]
                for y, wy in zip(ys, py):
                    total = wx + bias + wy
                    flags = [total >> (k + fields.width - 1) & 1 for k in fields.shifts]
                    assert flags == [int(a + b > cap) for a, b in zip(x, y)]
                    if max(y, default=0) <= cap:
                        dominates = (wx | top) - wy & top == top
                        assert dominates == all(a >= b for a, b in zip(x, y))
            # truncated words: inf mask, finite fields and keep mask
            zs = [tuple(INF if rng.random() < 0.3 else v for v in x) for x in xs]
            keys = [((fin + bias) & keep) << dim | inf
                    for inf, fin, keep in fields.pack_truncated(zs)]
            assert fields.unpack_truncated(keys) == zs


def _tuple_search(pool, x):
    """Finite membership restated on tuples: the all-finite generators
    that fit below x, in order, each taking a coefficient from the
    largest that fits down to 0, with failed (k, remainder) pairs
    memoized."""
    gens = [g for g in pool if INF not in g and all(v <= t for v, t in zip(g, x))]
    failed = set()

    def search(k, rest):
        if not any(rest):
            return True
        if k == len(gens) or (k, rest) in failed:
            return False
        g = gens[k]
        most = min(r // v for r, v in zip(rest, g) if v)
        for c in range(most, -1, -1):
            if search(k + 1, tuple(r - c * v for r, v in zip(rest, g))):
                return True
        failed.add((k, rest))
        return False

    return search(0, tuple(x))


def test_packed_membership_search_matches_a_tuple_search():
    from supportmonoids.hilbert import _in_generated_finite
    rng = random.Random(83)
    trues = 0
    for _ in range(600):
        dim = rng.randint(1, 6)
        cap = rng.choice((1, 3, 8, 200))
        gens = [tuple(rng.choice((0, rng.randint(1, cap))) for _ in range(dim))
                for _ in range(rng.randint(0, 5))]
        if rng.random() < 0.1:
            gens.append(tuple(rng.choice((0, INF, cap)) for _ in range(dim)))
        gens = [g for g in gens if any(g)]
        if gens and rng.random() < 0.5:  # a member: a small sum of the finite ones
            x = [0] * dim
            for g in gens:
                if INF not in g:
                    c = rng.randint(0, 2)
                    x = [a + c * v for a, v in zip(x, g)]
            x = tuple(x)
        else:
            x = tuple(rng.randint(0, cap) for _ in range(dim))
        want = _tuple_search(gens, x)
        assert _in_generated_finite(gens, x) == want, (gens, x)
        assert in_generated(gens, x) == want, (gens, x)
        trues += want
    assert 150 < trues < 450
    # wide fields: entries up to 200 take nine bits per coordinate
    assert _in_generated_finite([(200, 0, 7), (0, 199, 1)], (200, 199, 8))
    assert not _in_generated_finite([(200, 0, 7), (0, 199, 1)], (200, 199, 9))
    assert _in_generated_finite([(3, 0), (0, 1), (2, 1)], (200, 1))
    assert not _in_generated_finite([(3, 0), (0, 1)], (200, 1))
    # x = 0, with and without generators; a generator equal to x
    assert _in_generated_finite([], (0, 0)) and _in_generated_finite([(1, 2)], (0, 0))
    assert _in_generated_finite([(5, 0, 2)], (5, 0, 2))
    assert not _in_generated_finite([], (0, 1))
    # generators above x, in one coordinate or all, are never used
    assert not _in_generated_finite([(6, 1), (1, 2)], (5, 1))
    assert not _in_generated_finite([(4, 4)], (3, 3))
    # MAX_DIM coordinates: 1·(1, ..., 1) plus 2·e_j for every j
    from supportmonoids.semiring import MAX_DIM
    units = [tuple(2 * (i == j) for i in range(MAX_DIM)) for j in range(MAX_DIM)]
    ones = (1,) * MAX_DIM
    assert _in_generated_finite([ones, *units], (3,) * MAX_DIM)
    assert not _in_generated_finite([ones, *units], (2,) * (MAX_DIM - 1) + (3,))
    assert _in_generated_finite([ones, *units], (200,) * MAX_DIM)


def test_a_search_past_the_recursion_limit_is_refused():
    # every generator fits (3, 2401) and none can be the last one used,
    # so the search recurses once per generator
    deep = [(2, 2 * k) for k in range(1200)]
    with pytest.raises(ResourceLimitError, match=r"^in_generated: .* recursion limit"):
        in_generated(deep, (3, 2401))
    # an inf target: the cover peels (1, 0, inf) off, then searches as deep
    with pytest.raises(ResourceLimitError, match=r"^in_generated: .* recursion limit"):
        in_generated([(1, 0, INF), *((*g, 0) for g in deep)], (3, 2401, INF))
    assert not in_generated([(2, 2 * k) for k in range(900)], (3, 2401))


def _members_by_coefficients(gens, bound, dim):
    """Every sum of the generators, each with a coefficient in {0, ...,
    bound + 1, inf}, whose entries all lie in {0, ..., bound, inf}.

    A coefficient past bound leaves every finite positive entry of its
    generator past bound, so in a kept sum those coordinates are inf,
    and coefficient 1 gives the same sum."""
    out = set()
    for coeffs in itertools.product((*range(bound + 2), INF), repeat=len(gens)):
        x = [0] * dim
        for c, g in zip(coeffs, gens):
            for j, v in enumerate(g):
                if c and v:
                    x[j] = INF if INF in (c, v, x[j]) else x[j] + c * v
        if all(v is INF or v <= bound for v in x):
            out.add(tuple(x))
    return frozenset(out)


def test_generated_truncated_saturates_instead_of_pruning():
    # g1 overflows coordinate 1 and g2 coordinate 2 until the other
    # makes that coordinate inf: g1 + g2 and 2·g1 + g2 are members
    gens = [(5, INF, 1), (INF, 5, 1)]
    members = generated_truncated(gens, 3, 3)
    assert members == {(0, 0, 0), (INF, INF, 2), (INF, INF, 3), (INF, INF, INF)}
    assert all(in_generated(gens, x) for x in members)
    assert members == _members_by_coefficients(gens, 3, 3)


def _crossed_pair(rng, dim, bound):
    """Two generators, each past the bound where the other is inf, both
    small and positive on a third coordinate: their sums with finite
    coefficients leave the box until the other one is added."""
    i, j, k = rng.sample(range(dim), 3)
    pair = []
    for over, inf in ((i, j), (j, i)):
        g = [rng.choice((0, 1, INF)) for _ in range(dim)]
        g[over], g[inf], g[k] = rng.randint(bound + 1, bound + 4), INF, rng.randint(1, bound // 2)
        pair.append(tuple(g))
    return pair


def test_generated_truncated_matches_a_coefficient_brute_force():
    rng = random.Random(89)
    values = (0, 0, 1, 2, 3, 5, 7, INF)
    pruned = 0
    for n in range(400):
        if n % 2:
            dim, bound = rng.randint(1, 4), rng.randint(0, 4)
            gens = []
        else:
            dim, bound = rng.randint(3, 4), rng.randint(2, 5)
            gens = _crossed_pair(rng, dim, bound)
        gens += [tuple(rng.choice(values) for _ in range(dim))
                 for _ in range(rng.randint(0, 3 - len(gens) // 2))]
        rng.shuffle(gens)
        want = _members_by_coefficients(gens, bound, dim)
        assert generated_truncated(gens, bound, dim) == want, (gens, bound)
        # o_closure drops every partial sum that leaves the box, so it
        # misses the members that only a later inf entry brings back
        pruned += {from_lib(x, INF) for x in want} != \
            o_closure([from_lib(g, INF) for g in gens], bound, dim)
    assert pruned > 100


def test_in_generated_with_inf_targets_matches_a_coefficient_brute_force():
    rng = random.Random(97)
    values = (0, 0, 1, 2, 3, INF)
    cases = 0
    for _ in range(120):
        dim = rng.randint(2, 4)
        bound = rng.randint(1, 4)
        gens = [tuple(rng.choice(values) for _ in range(dim))
                for _ in range(rng.randint(1, 3))]
        members = _members_by_coefficients(gens, bound, dim)
        targets = [x for x in members if INF in x]
        targets += [tuple(rng.choice((*range(bound + 1), INF, INF)) for _ in range(dim))
                    for _ in range(6)]
        for x in targets:
            if INF in x:
                assert in_generated(gens, x) == (x in members), (gens, x)
                cases += 1
    assert cases > 500


def _nested_chain(n):
    """e1, e1 + e2, ..., e1 + ... + en: the membership search of its unit
    (n, n - 1, ..., 1) grows exponentially with n."""
    return HilbertBasis.from_generators(n, [tuple(int(j <= i) for j in range(n))
                                            for i in range(n)])


def test_membership_search_is_capped(monkeypatch):
    from supportmonoids import hilbert
    chain = _nested_chain(9)
    unit = chain.order_unit()
    assert in_generated(chain.gens, unit)  # about 15k failed states
    monkeypatch.setattr(hilbert, "MAX_COMPLETION_STATES", 1000)
    with pytest.raises(ResourceLimitError) as err:
        in_generated(chain.gens, unit)
    assert str(err.value) == ("in_generated: the membership search expanded 1001 states, "
                              "past the cap MAX_COMPLETION_STATES = 1000")
    assert err.traceback[-1].name == "search"


def test_cover_search_is_capped(monkeypatch):
    # inf on all of T costs |T| + 1 in the finite coordinate, so covering
    # the five inf coordinates never fits below 5: every cover state fails
    # before a finite search starts
    from supportmonoids import hilbert
    gens = [tuple(INF if j in T else 0 for j in range(5)) + (len(T) + 1,)
            for r in range(1, 6) for T in itertools.combinations(range(5), r)]
    x = (INF,) * 5 + (5,)
    assert not in_generated(gens, x)
    monkeypatch.setattr(hilbert, "MAX_COMPLETION_STATES", 10)
    with pytest.raises(ResourceLimitError, match="^in_generated: .* 11 states, .* = 10$") as err:
        in_generated(gens, x)
    assert err.traceback[-1].name == "cover"


def _carried_chain(n, m, v):
    """The nested chain of length n padded with m zero coordinates, plus
    m·v carriers, each inf at one padded coordinate and 1, ..., v on the
    first; and a target inf on the padding whose chain part ends (..., 2, 3),
    so no cover of the padding leaves a member and every leaf fails."""
    chain = [g + (0,) * m for g in _nested_chain(n).gens]
    carriers = [tuple(val if j == 0 else INF if j == n + c else 0 for j in range(n + m))
                for c in range(m) for val in range(1, v + 1)]
    x = (m * v + n, *range(n - 1, 1, -1), 3) + (INF,) * m
    return chain + carriers, x


def test_cover_leaves_share_one_memo():
    # the covers end in 94 leaves on 30 distinct remainders; one memo
    # searches each remainder once, where a fresh search per leaf took
    # about 50 s on a 2-core Xeon host
    gens, x = _carried_chain(10, 5, 5)
    assert len(x) == 15
    start = time.perf_counter()
    assert not in_generated(gens, x)
    assert time.perf_counter() - start < 10


def test_cover_and_search_share_one_cap():
    gens, x = _carried_chain(11, 5, 6)
    start = time.perf_counter()
    with pytest.raises(ResourceLimitError,
                       match="^in_generated: .* past the cap MAX_COMPLETION_STATES = 1000000$"):
        in_generated(gens, x)
    assert time.perf_counter() - start < 10


def test_cover_heavy_family_is_decided_quickly():
    # the family of test_cover_search_is_capped on eight inf coordinates
    gens = [tuple(INF if j in T else 0 for j in range(8)) + (len(T) + 1,)
            for r in range(1, 9) for T in itertools.combinations(range(8), r)]
    start = time.perf_counter()
    assert not in_generated(gens, (INF,) * 8 + (8,))
    assert time.perf_counter() - start < 1


def _tuple_cover(gens, x):
    """in_generated for a target with an inf entry, as a recursion on
    tuples and frozensets with its own memo, that runs a fresh finite
    search (the library's) at every leaf; uncapped."""
    from supportmonoids.hilbert import _in_generated_finite
    dim = len(x)
    fin = [i for i in range(dim) if x[i] is not INF]
    uncovered = {i for i in range(dim) if x[i] is INF}
    projections, carriers = [], []
    for g in gens:
        p = tuple(g[i] for i in fin)
        if INF in p or not any(g):
            continue
        if any(p):
            projections.append(p)
            carriers.append(frozenset(i for i in range(dim) if g[i] is INF))
        else:
            uncovered.difference_update(i for i in range(dim) if g[i])
    failed = set()

    def cover(rest, todo):
        if not todo:
            return _in_generated_finite(projections, rest)
        if (rest, todo) in failed:
            return False
        low = min(todo)
        for p, inf_at in zip(projections, carriers):
            if low in inf_at:
                rest2 = tuple(r - v for r, v in zip(rest, p))
                if min(rest2, default=0) >= 0 and cover(rest2, todo - inf_at):
                    return True
        failed.add((rest, todo))
        return False

    return cover(tuple(x[i] for i in fin), frozenset(uncovered))


def test_cover_matches_a_tuple_cover_over_the_finite_search():
    rng = random.Random(101)
    values = (0, 0, 0, 1, 2, 3, INF)
    counts = collections.Counter()
    for _ in range(10_000):
        dim = rng.randint(1, 7)
        lam = set(rng.sample(range(dim), rng.randint(1, dim)))
        gens = [tuple(rng.choice(values) for _ in range(dim)) for _ in range(rng.randint(0, 6))]
        for _ in range(rng.randint(0, 2)):  # supported inside lam
            gens.append(tuple(rng.choice(values) if i in lam else 0 for i in range(dim)))
        rng.shuffle(gens)
        if rng.random() < 0.5:  # a member: a small sum of the generators
            x = [0] * dim
            for g in gens:
                c = rng.choice((0, 0, 1, 2, INF))
                for j, v in enumerate(g):
                    if c and v:
                        x[j] = INF if INF in (c, v, x[j]) else x[j] + c * v
            x = [INF if i in lam else a for i, a in enumerate(x)]
        else:
            x = [INF if i in lam else rng.randint(0, 6) for i in range(dim)]
        x = tuple(x)
        want = _tuple_cover(gens, x)
        assert in_generated(gens, x) == want, (gens, x)
        counts["true"] += want
        if all(v is INF for v in x):
            counts["all inf"] += 1
            continue
        counts["zero projection"] += any(
            any(g) and not any(g[i] for i in range(dim) if x[i] is not INF) for g in gens)
        counts["inf outside"] += any(
            any(g[i] is INF for i in range(dim) if x[i] is not INF) for g in gens)
    assert 3_000 < counts["true"] < 7_000, counts
    assert min(counts["all inf"], counts["zero projection"], counts["inf outside"]) > 1_500, counts
