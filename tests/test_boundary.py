"""The public entries that take vectors from a caller check them once,
through the one entry test in ``semiring``.

A bad entry (negative, float, bool or str, and inf where only N0 is
allowed) or a vector of the wrong length raises ValueError naming it;
valid input gets the answers of the independent oracles.  A count
parameter (a ``bound`` or ``max_states``) that is not an int at least 0
raises ValueError too, and an int subclass gets the answer of its int.  ``test_hygiene.py`` fails when a public query
that takes vectors is missing from ``BOUNDARY``, or one that takes a
count from ``COUNTS``.
"""

import random
import re

import pytest

from oracles import from_lib, o_closure, o_is_member
from supportmonoids import (INF, DioSystem, HilbertBasis, RankMatrix,
                            analyze_single_equation, enumerate_truncated, extract,
                            generated_truncated, generated_upto, hilbert_basis,
                            in_generated, is_almost_free, is_extended, is_full, is_member,
                            member_via_supports, minimize_generators, monoid_sum,
                            truncated_members, verdict)
from supportmonoids.errors import MissingOrderUnitError

# x0 + y1 = x0 + y2, the randclosure-s2 fixture
SYS = DioSystem(s=3, F=((1, 1, 0),), G=((1, 0, 1),))
SOS = extract(SYS)
RANKS = RankMatrix(a=((1, 1, 0), (1, 0, 1)))

# (public name, call with one outside vector v of length 3, N0 only?,
#  the message of a bad entry when it is not the entry test's own)
BOUNDARY = (
    ("HilbertBasis", lambda v: HilbertBasis(3, [v]), True, None),
    ("HilbertBasis.from_generators",
     lambda v: HilbertBasis.from_generators(3, [(1, 0, 0), v]), True, None),
    ("in_generated", lambda v: in_generated([(1, 0, 0), v], (2, 1, 1)), False, None),
    ("in_generated", lambda v: in_generated([(1, 0, 0)], v), False, None),
    ("minimize_generators", lambda v: minimize_generators([(1, 0, 0), v]), False, None),
    ("monoid_sum", lambda v: monoid_sum([(1, 0, 0)], [v]), False, None),
    ("generated_upto", lambda v: generated_upto([v], 2, 3), True, None),
    ("generated_truncated", lambda v: generated_truncated([v], 2, 3), False, None),
    ("is_member", lambda v: is_member(SYS, v), False, None),
    ("member_via_supports", lambda v: member_via_supports(SOS, v), False, None),
    ("is_extended", lambda v: is_extended(RANKS, v), False, None),
    ("analyze_single_equation", lambda v: analyze_single_equation(v, (2, 0, 1)), True, None),
)

BAD_ENTRIES = (-1, 1.5, True, "1")


def _ids(table):
    return [f"{name}-{i}" for i, (name, *_) in enumerate(table)]


@pytest.mark.parametrize("name,call,n0_only,message", BOUNDARY, ids=_ids(BOUNDARY))
def test_entry_refuses_bad_entries_and_lengths(name, call, n0_only, message):
    call((1, 1, 1))
    bad = list(BAD_ENTRIES) + [INF] * n0_only
    if not n0_only:
        call((1, INF, 1))
    for v in bad:
        if message is None:
            wanted = (f"expected at least 0, got {v}" if v == -1
                      else f"expected an integer, got {v!r}")
        else:
            wanted = message
        with pytest.raises(ValueError, match=re.escape(wanted)):
            call((1, v, 1))
    for wrong in ((1, 1), (1, 1, 1, 1)):
        with pytest.raises(ValueError, match="length"):
            call(wrong)


# (public name, call with one count c, a valid count)
COUNTS = (
    ("verdict", lambda c: verdict(SYS, bound=c), 2),
    ("is_full", lambda c: is_full(SOS, c), 2),
    ("is_almost_free", lambda c: is_almost_free(SOS, c), 2),
    ("truncated_members", lambda c: truncated_members(SOS, c), 2),
    ("generated_upto", lambda c: generated_upto([(1, 0, 0)], c, 3), 2),
    ("generated_truncated", lambda c: generated_truncated([(1, 0, 0)], c, 3), 2),
    ("enumerate_truncated", lambda c: enumerate_truncated(SYS, c), 2),
    ("hilbert_basis", lambda c: hilbert_basis(SYS, max_states=c), 100),
)

BAD_COUNTS = (True, 1.5, "2", -1)


class _Count(int):
    """An int subclass, which every count accepts like its int."""


@pytest.mark.parametrize("name,call,good", COUNTS, ids=_ids(COUNTS))
def test_entry_refuses_bad_counts(name, call, good):
    assert call(_Count(good)) == call(good)
    for c in BAD_COUNTS:
        with pytest.raises(ValueError):
            call(c)


def test_motivating_probes_are_refused():
    # a bad entry is a ValueError, never an answer or an AttributeError
    for probe in (lambda: is_member(SYS, (-1, 1, 1)),
                  lambda: is_member(SYS, (1.5, 1, 1)),
                  lambda: in_generated([(2, -1), (0, 1)], (2, 0)),
                  lambda: generated_truncated([(-1, 1)], 2, 2),
                  lambda: minimize_generators([(1, 0), (1.5, 1)]),
                  lambda: member_via_supports(SOS, (1.5, 1, 1))):
        with pytest.raises(ValueError, match="expected"):
            probe()


def test_vector_lists_share_the_dimension_cap():
    for call in (lambda: generated_truncated([], 0, 25),
                 lambda: minimize_generators([(1,) * 25]),
                 lambda: monoid_sum([(1,) * 25], [])):
        with pytest.raises(ValueError, match="^dimension 25 exceeds the supported maximum 24$"):
            call()
    with pytest.raises(ValueError, match="^dimension: expected at least 0, got -1$"):
        generated_truncated([], 1, -1)


def test_dimension_zero_is_valid_input():
    # the empty vector is the zero of N0*^0: every entry takes it
    assert in_generated([], ())
    assert in_generated(HilbertBasis.free(0).gens, ())
    assert HilbertBasis(0, ()) == HilbertBasis.from_generators(0, [()])
    assert minimize_generators([]) == ()
    with pytest.raises(ValueError, match=re.escape("generator (1,) has length 1, expected 0")):
        in_generated([(1,)], ())


# -- valid input agrees with the oracles --------------------------------------

def _o_in_generated(gens, x):
    """x in the N0*-span of gens, by the oracle closure.

    The box bound is large enough for a sum of x that covers its inf
    coordinates first, one summand each: its partial sums stay below x
    outside them, and below dim · max entry inside them until covered.
    """
    dim = len(x)
    finite = [v for g in gens for v in g if v is not None] + [v for v in x if v is not None]
    bound = max([dim * v for v in finite] + [0])
    return x in o_closure(gens, bound, dim)


def _random_vec(rng, dim, inf_share):
    return tuple(INF if rng.random() < inf_share else rng.randint(0, 3) for _ in range(dim))


def test_in_generated_agrees_with_the_oracle():
    rng = random.Random(1501)
    for _ in range(150):
        dim = rng.randint(1, 3)
        gens = [_random_vec(rng, dim, 0.1) for _ in range(rng.randint(0, 4))]
        x = _random_vec(rng, dim, 0.3)
        want = _o_in_generated([from_lib(g, INF) for g in gens], from_lib(x, INF))
        assert in_generated(gens, x) == want, (gens, x)


def test_minimize_generators_agrees_with_the_oracle():
    rng = random.Random(1502)
    for _ in range(80):
        dim = rng.randint(1, 3)
        gens = [_random_vec(rng, dim, 0.1) for _ in range(rng.randint(1, 5))]
        kept = minimize_generators(gens)
        assert set(kept) <= set(gens)
        kept_o = [from_lib(g, INF) for g in kept]
        # the kept ones generate every input, and none of them the others
        for g in gens:
            assert _o_in_generated(kept_o, from_lib(g, INF)), (gens, g)
        for i, g in enumerate(kept_o):
            if any(v != 0 for v in g):
                assert not _o_in_generated(kept_o[:i] + kept_o[i + 1:], g), (gens, g)


def test_member_via_supports_agrees_with_the_oracle():
    rng = random.Random(1503)
    checked = 0
    while checked < 12:
        s = rng.randint(2, 3)
        rows = [tuple(rng.randint(0, 2) for _ in range(s)) for _ in range(2 * rng.randint(1, 2))]
        sys_ = DioSystem(s=s, F=tuple(rows[::2]), G=tuple(rows[1::2]))
        try:
            sos = extract(sys_)
        except MissingOrderUnitError:
            continue
        checked += 1
        sysdict = sys_.to_json()
        for _ in range(40):
            x = _random_vec(rng, s, 0.3)
            assert member_via_supports(sos, x) == o_is_member(sysdict, from_lib(x, INF)), \
                (sysdict, x)
