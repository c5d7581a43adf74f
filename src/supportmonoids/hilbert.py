"""Hilbert bases and membership for finitely generated submonoids.

The finite part A = B ∩ N0^s of a solution monoid is generated by its
finitely many minimal nonzero solutions.  They are computed with a
Contejean-Devie completion search on the congruence-lifted,
equations-only system (``minimal_solutions``): grow candidates one unit
coordinate at a time, only in directions whose column shrinks the
defect, prune anything that dominates a solution already found, and
accept a candidate whose defect is zero.  A candidate is a packed word
(below) and its defect, one int per row; the search holds one level of
candidates at a time, and its cap counts the candidates it stores.  A
system with no rows at all skips the search: its basis is the unit
vectors.

Packed words.  The enumerations here add and compare vectors of N0^dim
packed into one int, one fixed-width field per coordinate (SWAR;
Lamport, "Multiple byte processing with full-word instructions", CACM
18(8), 1975).  ``_Fields(dim, cap)`` is the one layout they share:

* coordinate j (from 0) fills bits j·w to j·w + w - 1, with
  w = cap.bit_length() + 1, so an entry of at most cap leaves the top
  bit of its field, the guard, clear; ``top`` holds every guard bit;
* a packed x dominates a packed y (x >= y coordinatewise) iff
  (x | top) - y still has every guard bit set: no field borrows; that
  word with the guard bits cleared is then x - y;
* with ``ones`` a 1 at the foot of every field, ((x | top) - ones) & top
  holds the guard bit of exactly the nonzero fields of x: a field keeps
  its guard bit after losing 1 iff it held at least 1;
* a biased word adds ``bias``, 2^(w-1) - 1 - cap, to every field.  A
  biased field holding a <= cap plus an entry b <= cap + 1 stays below
  2^w, so no field carries into the next, and its guard bit is set iff
  a + b > cap.  A closure in the box [0, cap]^dim keeps its points
  biased: a step is one addition and one ``& top`` test;
* a vector of the truncated domain {0, ..., cap, inf}^dim is an inf
  mask (bit j for coordinate j), its finite entries capped at cap + 1
  in their fields (0 under inf), and a keep mask of the finite fields.
  It is keyed by its biased, kept fields shifted above the inf mask.

Hot loops use the masks inline; ``_Fields`` packs on entry and unpacks
on exit.  ``_Below`` keeps words of one layout in buckets by the mask
of their nonzero fields and answers "which kept words lie below x?"
from the buckets whose mask lies inside x's, in the order the buckets
were first filled and each in insertion order.

Unit vectors are atoms: a sum of nonzero vectors over N0*, or an inf
multiple of one, equals e_j only when one summand is e_j itself.  So a
unit vector is never redundant, and a set holding every unit vector
generates everything.

Membership in a generated monoid (`in_generated`) has one search, over
finite coefficients for an all-finite target, the question every
membership test in A_H reduces to.  A target with inf entries is
reduced to it by a cover that peels off generators inf there, inside
the same search, on the same packed words, memo and cap, so a remainder
that one cover leaves fails once however many covers reach it.  The
cover and the search are one loop over an explicit stack of frames, not
a recursion: a query goes as deep as its generators need whatever the
caller's stack, and a call leaves no reference cycle behind for the
cyclic collector.

The finite search runs on packed words with fields for entries up to
max(x).  Every remainder lies below x, and every generator it tries
does too (the others are dropped first), so every entry fits.  Packing
is a bijection for a fixed layout, and the dominance and nonzero-field
tests above answer exactly what the tuple tests did, so the search
visits the same (generator, remainder) states in the same order as a
search on tuples, and memoizes the same failures.
"""

from __future__ import annotations

from functools import lru_cache
from operator import add, le, mul

from .equations import ENUMERATION_GUARD, DioSystem, lift_congruences
from .errors import ResourceLimitError
from .semiring import (INF, MAX_DIM, Record, Vec, _project_all, _supp_mask, canonical_sorted,
                       check_dim, check_int, check_vecs, unit_vec)

MAX_COMPLETION_STATES = 1_000_000


def _too_many_states(count: int) -> ResourceLimitError:
    """The refusal of a membership search past MAX_COMPLETION_STATES states."""
    return ResourceLimitError(
        f"in_generated: the membership search expanded {count} states, past the cap "
        f"MAX_COMPLETION_STATES = {MAX_COMPLETION_STATES}")


def _refuse_inf(gens) -> None:
    """A generator of a basis is over N0: refuse one with an inf entry."""
    if any(v is INF for g in gens for v in g):
        raise ValueError(f"generator entry: expected an integer, got {INF!r}")


class HilbertBasis(Record):
    """A canonical finite generating set of a submonoid of N0^dim.

    The constructor checks that the generators have length dim, entries
    in N0, none zero, none repeated, and canonical order; it does not
    check that they are minimal (none in the monoid generated by the
    others).  ``from_generators`` minimizes, and every basis the library
    computes is minimal.  Build instances through it unless the list is
    already in that shape.
    """

    __slots__ = _fields = ("dim", "gens")

    def __init__(self, dim: int, gens: tuple):
        gens = tuple(check_vecs(gens, dim))
        _refuse_inf(gens)
        seen = set()
        for g in gens:
            if not any(g):
                raise ValueError("zero vector is not a generator")
            if g in seen:
                raise ValueError(f"duplicate generator {g}")
            seen.add(g)
        if gens != canonical_sorted(gens):
            raise ValueError("generators must be canonically sorted")
        self._init(dim, gens)

    @classmethod
    def from_generators(cls, dim: int, gens) -> "HilbertBasis":
        """Drop zeros and redundant generators, sort canonically.

        Every raw entry is checked first, the dropped vectors' included:
        each vector has length dim and entries in N0*.  A generator with
        an inf entry is refused unless it is redundant.
        """
        basis = cls._minimal(dim, check_vecs(gens, dim))
        _refuse_inf(basis.gens)
        return basis

    @classmethod
    def _minimal(cls, dim: int, gens) -> "HilbertBasis":
        """from_generators for vectors the library computed itself.

        A set holding all dim unit vectors yields the shared free basis:
        they generate every other vector and none of them is redundant.
        """
        cleaned = canonical_sorted(g for g in gens if any(g))
        if len(_atoms(cleaned)) == dim:
            return cls.free(dim)
        return cls._trusted(dim, minimize_generators(cleaned))

    @classmethod
    def free(cls, dim: int) -> "HilbertBasis":
        """The unit vectors of N0^dim, the basis of the free monoid.

        Instances are immutable, so one is shared per dimension.  The
        dimension is checked first: ``free(True)`` must not find the
        instance cached under the equal key 1.
        """
        check_dim(dim, 0)
        return _free_basis(dim)

    def is_free(self) -> bool:
        """Does the basis generate all of N0^dim?  Its generators are
        nonzero, so exactly when they hold every unit vector (atoms,
        module docstring), minimal or not."""
        return len(_atoms(self.gens)) == self.dim

    def order_unit(self):
        """The sum of the generators when it is strictly positive, else None.

        The sum hits every coordinate any member of the monoid can hit, so
        it is strictly positive exactly when a strictly positive member
        exists; any such member is an order-unit.
        """
        total = tuple(sum(g[i] for g in self.gens) for i in range(self.dim))
        return total if all(v > 0 for v in total) else None

    def to_json(self) -> list:
        return [list(g) for g in self.gens]


@lru_cache(maxsize=MAX_DIM + 1)
def _free_basis(dim: int) -> HilbertBasis:
    return HilbertBasis(dim, canonical_sorted(unit_vec(dim, i + 1) for i in range(dim)))


def _atoms(vecs) -> frozenset:
    """The unit vectors among vecs, vectors over N0* of one length, which
    no other such vectors generate."""
    n = len(vecs[0]) if vecs else 0
    return frozenset(g for g in vecs if g.count(1) == 1 and g.count(0) == n - 1)


# -- packed words ------------------------------------------------------------

class _Fields:
    """The packed-word layout for dim fields holding entries up to cap;
    see "Packed words" in the module docstring."""

    __slots__ = ("dim", "cap", "width", "shifts", "field", "ones", "top", "bias")

    def __init__(self, dim: int, cap: int):
        width = cap.bit_length() + 1
        field = (1 << width) - 1
        ones = ((1 << dim * width) - 1) // field  # a 1 at the foot of each field
        self.dim = dim
        self.cap = cap
        self.width = width
        self.shifts = range(0, dim * width, width)
        self.field = field
        self.ones = ones
        self.top = ones << (width - 1)
        self.bias = ones * ((1 << (width - 1)) - 1 - cap)

    def pack(self, vecs) -> list:
        """One word per vector; every entry must fit its field."""
        width = self.width
        out = []
        for v in vecs:
            x = 0
            for a in reversed(v):
                x = x << width | a
            out.append(x)
        return out

    def unpack(self, words, biased: bool = False) -> list:
        """The vectors of the words, unbiased first when ``biased``."""
        field = self.field
        if biased:
            bias = self.bias
            words = [w - bias for w in words]
        if not self.dim:
            return [()] * len(words)
        # one pass per coordinate; zip builds the tuples
        return list(zip(*[[w >> k & field for w in words] for k in self.shifts]))

    def pack_truncated(self, vecs) -> list:
        """(inf mask, finite fields, keep mask) per vector of (N0*)^dim."""
        field, shifts, cap = self.field, self.shifts, self.cap + 1
        out = []
        for z in vecs:
            inf = fin = keep = 0
            for j, (k, v) in enumerate(zip(shifts, z)):
                if v is INF:
                    inf |= 1 << j
                else:
                    fin |= min(v, cap) << k
                    keep |= field << k
            out.append((inf, fin, keep))
        return out

    def unpack_truncated(self, keys) -> list:
        """The vectors of the truncated domain the keys stand for."""
        dim, field = self.dim, self.field
        low = (1 << (self.width - 1)) - 1 - self.cap
        if not dim:
            return [()] * len(keys)
        return list(zip(*[[INF if key >> j & 1 else (key >> (dim + k) & field) - low
                           for key in keys]
                          for j, k in enumerate(self.shifts)]))


class _Below:
    """Packed words with their items, in buckets by the mask of their
    nonzero fields; see "Packed words" in the module docstring."""

    __slots__ = ("top", "ones", "buckets")

    def __init__(self, fields: _Fields):
        self.top, self.ones = fields.top, fields.ones
        self.buckets: dict[int, list] = {}

    def add(self, word: int, item) -> None:
        key = ((word | self.top) - self.ones) & self.top
        self.buckets.setdefault(key, []).append((word, item))

    def below(self, x: int):
        """The items of the kept words that x dominates, lazily."""
        top = self.top
        xg = x | top
        outside = ~(xg - self.ones)  # its guard bits: x's zero fields
        for key, bucket in self.buckets.items():
            if not key & outside:
                for w, item in bucket:
                    if (xg - w) & top == top:
                        yield item


# -- Contejean-Devie completion search --------------------------------------

def minimal_solutions(rows, dim: int, max_states: int = MAX_COMPLETION_STATES):
    """All minimal nonzero solutions in N0^dim of the homogeneous integer
    system row·t = 0 for every row.

    ``rows`` are integer tuples (entries of any sign).  With no rows at
    all, the answer is the unit vectors.

    A candidate is its vector t, a packed word with fields for entries
    up to max_states (at least 1), and its defect v = sum_j t_j·col_j,
    one int per row; it is a solution iff v = 0.  A step in direction j
    adds e_j to t and col_j to v; it is taken when v·col_j < 0 (it
    shrinks the defect) and t + e_j dominates no solution found, asked
    of a ``_Below`` index of the solutions.  The steps that shrink a
    defect, with the defects they leave, are worked out once per
    distinct defect, and candidates share them.  A level is a dict of
    the candidates of one coordinate sum, keyed by t, so a candidate
    reached twice is reached on one level, and keeping its first copy
    there drops every duplicate.

    ``max_states`` caps the candidates stored, the dim unit vectors
    included; the search is refused at the first candidate it takes
    once past the cap, having stored at most max_states + dim.  Each
    candidate is stored before it is expanded, and distinct defects are
    no more than candidates, so the count bounds the expansions and the
    memory.  No coordinate reaches its guard bit: a candidate with
    coordinate sum n descends from a stored candidate on every level
    1..n, so n <= max_states before any step from it, and a step in
    direction j fails when t is a multiple of e_j (then v·col_j =
    t_j·|col_j|^2 >= 0), so the stepped coordinate ends at most n.
    """
    fields = _Fields(dim, max(max_states, 1))
    moves = [(1 << k, tuple(row[j] for row in rows)) for j, k in enumerate(fields.shifts)]
    minimals: list[int] = []
    found = _Below(fields)
    shrinking = {}  # defect -> [(step, defect after it) for each step that shrinks it]
    level = dict(moves)
    stored = dim
    while level:
        nxt = {}
        for t, v in level.items():
            if stored > max_states:
                raise ResourceLimitError(
                    f"minimal_solutions: the completion search stored {stored} candidates, "
                    f"past the cap max_states = {max_states}")
            if not any(v):
                # a solution found after t was stored lies below t only along a zero
                # column, which no step takes; re-tested anyway, as it is cheap
                if next(found.below(t), None) is None:
                    found.add(t, len(minimals))
                    minimals.append(t)
                continue
            out = shrinking.get(v)
            if out is None:
                out = shrinking[v] = [(step, tuple(map(add, v, col))) for step, col in moves
                                      if sum(map(mul, v, col)) < 0]
            for step, v2 in out:
                t2 = t + step
                if t2 in nxt or minimals and next(found.below(t2), None) is not None:
                    continue
                stored += 1
                nxt[t2] = v2
        level = nxt
    # Already an antichain: a solution below t has a smaller coordinate
    # sum, so it was found on an earlier level, and t was accepted only
    # if it dominates none of those.
    return fields.unpack(minimals)


def hilbert_basis(sys: DioSystem, max_states: int = MAX_COMPLETION_STATES) -> HilbertBasis:
    """The minimal generating set of {x in N0^s : x solves sys}.

    A system with no equation and no congruence rows is solved by all of
    N0^s, so its basis is the shared free one, ``HilbertBasis.free(s)``,
    found without a search.  The search would store just the s unit
    vectors, so it still runs, and refuses, when max_states < s.

    Otherwise congruences are lifted to equations with fresh variables
    first; the lifted solutions biject additively and order-preservingly
    with the original ones, so the minimal lifted solutions project onto
    the minimal solutions.  Those go through ``HilbertBasis._minimal``,
    like every basis the library computes.  They form an antichain, so
    its redundancy sweep (``minimize_generators``) removes none, and
    every ``in_generated`` call it makes gets an empty list: no minimal
    solution lies below another.  The sweep still runs here for the
    ``hilbert.in_generated`` span of ``perfbench``: it makes the only
    ``in_generated`` calls on the ``classify-1eq`` workload, whose
    traced run requires some.  ``max_states`` caps the candidates the
    completion search stores, each a packed vector and its defect, one
    level at a time (``minimal_solutions``); a ``max_states`` that is
    not an int at least 0 is refused first.
    """
    check_int(max_states, "max_states", 0)
    if not sys.F and not sys.D and sys.s <= max_states:
        return HilbertBasis.free(sys.s)
    lifted = lift_congruences(sys)
    rows = [tuple(f - g for f, g in zip(frow, grow))
            for frow, grow in zip(lifted.F, lifted.G)]
    sols = minimal_solutions(rows, lifted.s, max_states)
    return HilbertBasis._minimal(sys.s, (t[:sys.s] for t in sols))


# -- membership in generated monoids ----------------------------------------

def in_generated(gens, x: Vec) -> bool:
    """Is x a sum of N0*-multiples of the given generators?

    x and the generators, vectors over N0* of x's length, are checked
    first; the package's own calls on a ``HilbertBasis`` and an all-finite
    x of its dimension go to ``_in_generated_finite`` instead.

    An all-finite target goes to the finite search: any coefficient on a
    generator with an inf entry, and an inf coefficient on any nonzero
    generator, put inf into the sum.

    A target with inf on lam is reduced to that search.  Generators
    supported inside lam take inf coefficients and cover their supports;
    those with an inf entry outside lam cannot occur; the rest take
    finite coefficients and add their projections off lam, and only
    those that fit below x off lam are kept, each with its carrier, the
    mask of its inf coordinates.  ``_in_generated_finite`` covers the
    rest of lam by peeling off carriers before its finite search.

    One state space, one memo and one MAX_COMPLETION_STATES cap serve
    the whole query (``_in_generated_finite``).
    """
    x = tuple(x)
    dim = len(x)
    (x,) = check_vecs([x], dim, "vector")
    pool = [g for g in check_vecs(gens, dim) if any(g)]
    todo = sum(1 << i for i in range(dim) if x[i] is INF)
    if not todo:
        return _in_generated_finite(pool, x)
    x_fin, *finite = _project_all([x, *pool], 0, todo, dim)
    projections, carriers = [], []
    for g, p in zip(pool, finite):
        if not any(p):
            todo &= ~_supp_mask(g)
        elif all(map(le, p, x_fin)):  # INF <= t is False for every finite t
            projections.append(p)
            carriers.append(sum(1 << i for i in range(dim) if g[i] is INF))
    return _in_generated_finite(projections, x_fin, carriers, todo)


def _in_generated_finite(pool, x, carriers=(), todo=0) -> bool:
    """in_generated for an all-finite x and nonzero generators of its
    length, all over N0*, trusted as they are: nothing is checked.

    A depth-first search over the generators that fit below x, in pool
    order: generator k takes each coefficient from the largest that fits
    down to 1, then 0, and a remainder that failed from k on is
    memoized as (k, r).  x, the remainders and those generators are
    packed words with fields for entries up to max(x) ("Packed words"
    in the module docstring): g fits r iff (r | top) - g keeps every
    guard bit, and a remainder with a nonzero field that no generator
    from k on reaches is rejected without a search.  With no generator
    that fits, x must be zero with nothing to cover; nothing is packed.

    A nonzero ``todo`` is the int mask of inf coordinates of a target
    (outside x) still to cover, and ``carriers`` holds, for every
    generator, the mask of its inf coordinates; then every generator
    must fit below x, so that carriers align with the packed words.  The
    cover peels one copy of a carrier of the lowest coordinate of todo
    that fits the remainder, until todo is empty and the finite search
    decides the rest: a sum covering that coordinate uses such a
    generator, so one copy of it can be the one peeled off.  A cover
    state that fails is memoized as (-todo, r) in the same memo.

    The memo counts the states the cover and the search expand, but for
    those on the path that succeeds, and the query is refused once it
    passes MAX_COMPLETION_STATES.

    Both run in one loop over an explicit stack, not by recursion, so
    the depth a query reaches, one level per generator the search tries
    and one per cover step, does not depend on the caller's stack, and
    a call leaves no reference cycle.  A state is (k, r) in the search
    and (-todo, r) in the cover; a cover that has peeled all of todo
    reaches (-0, r), which is (0, r), the search from generator 0.
    Expanding a state pushes its frame: the state, a None above it, and
    above those its children in reverse, so the child tried first is on
    top.  A child that succeeds ends the query.  When the None comes
    back to the top, every child above it has failed: the state under
    it is popped and memoized.
    """
    # INF <= t is False for every finite t
    gens = [g for g in pool if all(map(le, g, x))]
    if not gens:
        return not todo and not any(x)
    fields = _Fields(len(x), max(x, default=0))
    top, ones = fields.top, fields.ones
    start, *words = fields.pack([x, *gens])
    reach = [0] * (len(words) + 1)
    for k in range(len(words) - 1, -1, -1):
        reach[k] = reach[k + 1] | ((words[k] | top) - ones) & top
    failed = set()
    stack = [(-todo, start)]
    push, pop = stack.append, stack.pop
    while stack:
        state = pop()
        if state is None:
            failed.add(pop())
            if len(failed) > MAX_COMPLETION_STATES:
                raise _too_many_states(len(failed))
            continue
        k, r = state
        if k >= 0:
            need = ((r | top) - ones) & top
            if not need:
                return True
            if need & ~reach[k] or state in failed:
                continue
            push(state)
            push(None)
            # coefficient 0 is tried last, the largest that fits first
            g = words[k]
            push((k + 1, r))
            t = r | top
            while (t := t - g) & top == top:
                push((k + 1, t ^ top))
        elif state not in failed:
            push(state)
            push(None)
            todo = -k
            low = todo & -todo
            stack.extend(reversed([(-(todo & ~inf_at), t ^ top)
                                   for g, inf_at in zip(words, carriers)
                                   if inf_at & low and (t := (r | top) - g) & top == top]))
    return False


def minimize_generators(gens) -> tuple:
    """Remove every generator expressible from the others; deterministic
    (canonical order), and the result still generates the same monoid.
    The generators, vectors over N0* of one length, are checked first.

    One pass over the distinct vectors in canonical order keeps g unless
    ``in_generated`` finds g among the sums of the kept vectors below it
    (coordinatewise, inf above every finite value), in the order they
    were kept.  The vectors are packed once, inf as one more than the
    largest finite entry, and a ``_Below`` index of the kept ones finds
    them.  This is exact:

    1. every summand of g, with a finite or an inf coefficient, lies
       below g, so no vector that does not can occur in a sum;
    2. a vector below g and not equal to it comes earlier in canonical
       order, which is lexicographic, so it is decided before g;
    3. a vector removed earlier is generated by vectors kept before it,
       so the kept vectors below g generate whatever all of them do.

    A lone vector is kept, even a zero one; with others beside it, the
    zero vector is the empty sum and goes.
    """
    gens = list(gens)
    n = len(gens[0]) if gens else 0
    vecs = canonical_sorted(check_vecs(gens, n))
    over = 1 + max((v for g in vecs for v in g if v is not INF), default=0)
    fields = _Fields(n, over)
    index = _Below(fields)
    kept = []
    for g, x in zip(vecs, fields.pack([over if v is INF else v for v in g] for g in vecs)):
        below = [kept[i] for i in sorted(index.below(x))]
        if not (len(vecs) > 1 and in_generated(below, g)):
            index.add(x, len(kept))
            kept.append(g)
    return tuple(kept)


def generated_upto(gens, bound: int, dim: int) -> frozenset:
    """All elements of the generated monoid with every coordinate <=
    bound, for generators in N0^dim, which are checked first.  Exact:
    partial sums never exceed totals, so a generator with an entry above
    the bound is dropped up front.

    Refused with ResourceLimitError before any point is built when both
    counts of the points it could build exceed ENUMERATION_GUARD: the
    box holds (bound + 1)^dim points, and a member in the box takes at
    most bound // max(g) copies of each generator g.

    Points are biased packed words with fields for entries up to bound
    (module docstring): a step is one addition, and its guard bits flag
    a point outside the box.  The generators are taken one at a time:
    closing the points found so far under adding the next one, a copy
    per round, gives the closure under all generators taken so far.
    """
    gens = check_vecs(gens, dim)
    _refuse_inf(gens)
    check_int(bound, "bound", 0)
    copies = 1
    fit = []
    for g in gens:
        m = max(g, default=0)
        if m:
            copies *= bound // m + 1
            if m <= bound:
                fit.append(g)
    size = min((bound + 1) ** dim, copies)
    if size > ENUMERATION_GUARD:
        raise ResourceLimitError(
            f"generated_upto: up to {size} points below bound {bound} in dimension "
            f"{dim} exceed the enumeration guard {ENUMERATION_GUARD}")
    fields = _Fields(dim, bound)
    top = fields.top
    seen = {fields.bias}
    for g in set(fields.pack(fit)):
        frontier = seen
        while frontier:
            frontier = {t2 for t in frontier if not (t2 := t + g) & top} - seen
            seen |= frontier
    return frozenset(fields.unpack(seen, biased=True))


def generated_truncated(gens, bound: int, dim: int) -> frozenset:
    """All elements of the N0*-generated monoid with every coordinate in
    {0, ..., bound, inf}, for generators over N0* of length dim, which
    are checked first.

    Exact by saturation.  Sending each entry to itself up to bound, to
    ``over`` past it and inf to inf is a monoid map onto {0, ..., bound,
    over, inf}, where a finite sum past bound is over, over plus a
    finite entry is over, and anything plus inf is inf.  A member is
    kept iff its image has no over entry, and then it is its image; the
    image of the monoid is the closure of 0 under adding the images of
    every g and inf·g.  That closure is finite and commutative, so the
    moves are taken one at a time: the points so far are closed under
    adding the next move, a copy per round.  The points with an over
    entry are dropped at the end.

    Points and moves are truncated packed words (module docstring).  A
    point keeps its finite fields biased and an over field as its guard
    bit alone, outside its keep mask; a move's fields are masked with
    that keep mask before the addition, so an over field receives
    nothing and the fields of ``_Fields(dim, bound)`` never carry.  A
    kept field whose guard bit the addition sets becomes over.

    Refused with ResourceLimitError before any point is built when both
    counts of the points the closure could build exceed
    ENUMERATION_GUARD: the quotient holds (bound + 3)^dim points, and
    the multiples of a generator g have at most bound // m + 3 images,
    where m is g's least positive finite entry: 0 to bound // m + 1
    copies (every positive finite entry is over from there on) and inf
    copies.  A generator with no positive finite entry has two.
    """
    check_int(bound, "bound", 0)
    moves = []
    choices = 1
    for g in check_vecs(gens, dim):
        moves.append(g)
        moves.append(tuple(INF if v != 0 else 0 for v in g))
        m = min((v for v in g if v is not INF and v), default=0)
        choices *= (bound // m + 3) if m else 2
    size = min((bound + 3) ** dim, choices)
    if size > ENUMERATION_GUARD:
        raise ResourceLimitError(
            f"generated_truncated: up to {size} saturated points, for an answer among "
            f"the {(bound + 2) ** dim} with entries in 0..{bound} or inf in dimension "
            f"{dim}, exceed the enumeration guard {ENUMERATION_GUARD}")
    fields = _Fields(dim, bound)
    top, bias, shift = fields.top, fields.bias, fields.width - 1
    [(_, _, keep0)] = fields.pack_truncated([(0,) * dim])
    points = {bias << dim: (0, bias, keep0)}
    for inf_g, fin_g, keep_g in set(fields.pack_truncated(moves)):
        frontier = list(points.values())
        while frontier:
            nxt = []
            for inf, fin, keep in frontier:
                total = (fin + (fin_g & keep)) & keep_g
                keep &= keep_g
                over = total & keep & top
                if over:
                    spread = (over << 1) - (over >> shift)  # the whole of each over field
                    total = total & ~spread | over
                    keep &= ~spread
                inf |= inf_g
                key = total << dim | inf
                if key not in points:
                    points[key] = point = (inf, total, keep)
                    nxt.append(point)
            frontier = nxt
    return frozenset(fields.unpack_truncated([key for key in points if not key >> dim & top]))


def find_order_unit(sys: DioSystem):
    """Some strictly positive finite solution, or None when none exists:
    the order-unit of the Hilbert basis of the finite part."""
    return hilbert_basis(sys).order_unit()
