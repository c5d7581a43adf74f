"""Hilbert bases and membership for finitely generated submonoids.

The finite part A = B ∩ N0^s of a solution monoid is generated by its
finitely many minimal nonzero solutions.  They are computed with a
Contejean-Devie completion search on the congruence-lifted,
equations-only system: grow candidate vectors one unit coordinate at a
time, but only in directions whose column makes the defect vector
smaller in the inner-product sense, prune anything that dominates a
solution already found, and accept a candidate when both sides balance.

Membership in a generated monoid (`in_generated`) is decided by exact
bounded search, including inf coefficients and generators with inf
entries: a finite coefficient on g is bounded by the finite coordinates
of the target, and an inf coefficient is only useful when supp(g) sits
inside the target's infinite support.  An all-finite target, the
question every membership test in A_H reduces to, takes a shorter
search: an inf coefficient on a nonzero generator, or any coefficient
on a generator with an inf entry, would put inf into the sum, so only
finite coefficients on all-finite generators below the target can occur.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import prod

from .equations import ENUMERATION_GUARD, DioSystem, lift_congruences
from .errors import ResourceLimitError
from .semiring import (INF, MAX_DIM, Vec, canonical_sorted, check_int,
                       inf_supp, is_finite, supp, unit_vec, vec_add, zero_vec)

MAX_COMPLETION_STATES = 1_000_000


@dataclass(frozen=True)
class HilbertBasis:
    """A canonical finite generating set of a submonoid of N0^dim.

    Generators are all-finite, nonzero, pairwise distinct, sorted
    canonically, and minimal: none lies in the monoid generated by the
    others.  Build instances through ``from_generators`` unless the list
    is already in that shape.
    """

    dim: int
    gens: tuple

    def __post_init__(self):
        check_int(self.dim, "dimension", 0)
        gens = tuple(tuple(g) for g in self.gens)
        object.__setattr__(self, "gens", gens)
        seen = set()
        for g in gens:
            if len(g) != self.dim:
                raise ValueError(f"generator {g} has length {len(g)}, expected {self.dim}")
            for v in g:
                check_int(v, "generator entry", 0)
            if not any(g):
                raise ValueError("zero vector is not a generator")
            if g in seen:
                raise ValueError(f"duplicate generator {g}")
            seen.add(g)
        if gens != canonical_sorted(gens):
            raise ValueError("generators must be canonically sorted")

    @classmethod
    def from_generators(cls, dim: int, gens) -> "HilbertBasis":
        """Drop zeros and redundant generators, sort canonically."""
        cleaned = canonical_sorted(tuple(g) for g in gens if any(g))
        return cls(dim, minimize_generators(cleaned))

    @classmethod
    def free(cls, dim: int) -> "HilbertBasis":
        """The unit vectors of N0^dim, the basis of the free monoid.

        Instances are immutable, so one is shared per dimension.  The
        dimension is checked first: ``free(True)`` must not find the
        instance cached under the equal key 1.
        """
        check_int(dim, "dimension", 0)
        return _free_basis(dim)

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


# -- Contejean-Devie completion search --------------------------------------

def minimal_solutions(rows, dim: int, max_states: int = MAX_COMPLETION_STATES):
    """All minimal nonzero solutions in N0^dim of the homogeneous integer
    system row·t = 0 for every row.

    ``rows`` are integer tuples (entries of any sign).  With no rows at
    all, the answer is the unit vectors.
    """
    cols = [tuple(row[j] for row in rows) for j in range(dim)]
    minimals: list[tuple] = []
    frontier = []
    seen = set()
    for j in range(dim):
        t = unit_vec(dim, j + 1)
        frontier.append((t, cols[j]))
        seen.add(t)
    states = 0
    while frontier:
        nxt = []
        for t, v in frontier:
            states += 1
            if states > max_states:
                raise ResourceLimitError(
                    f"completion search exceeded {max_states} states")
            if not any(v):
                if not any(_dominates(t, m) for m in minimals):
                    minimals.append(t)
                continue
            for j in range(dim):
                # move in direction j only if it shrinks the defect
                if sum(a * b for a, b in zip(v, cols[j])) < 0:
                    t2 = tuple(a + b for a, b in zip(t, unit_vec(dim, j + 1)))
                    if t2 in seen:
                        continue
                    if any(_dominates(t2, m) for m in minimals):
                        continue
                    seen.add(t2)
                    nxt.append((t2, tuple(a + b for a, b in zip(v, cols[j]))))
        frontier = nxt
    # Already an antichain: candidates are visited level by level in the
    # coordinate sum, so every solution below t has a smaller sum and was
    # found on an earlier level, and t was accepted only if it dominates
    # none of those.
    return minimals


def _dominates(x, y) -> bool:
    """x >= y componentwise (both all-finite)."""
    return all(a >= b for a, b in zip(x, y))


def hilbert_basis(sys: DioSystem, max_states: int = MAX_COMPLETION_STATES) -> HilbertBasis:
    """The minimal generating set of {x in N0^s : x solves sys}.

    Congruences are lifted to equations with fresh variables first; the
    lifted solutions biject additively with the original ones, so the
    minimal lifted solutions project onto a generating set, which is
    then re-minimized for safety.
    """
    lifted = lift_congruences(sys)
    rows = [tuple(f - g for f, g in zip(frow, grow))
            for frow, grow in zip(lifted.F, lifted.G)]
    sols = minimal_solutions(rows, lifted.s, max_states)
    projected = {t[:sys.s] for t in sols}
    projected.discard(zero_vec(sys.s))
    return HilbertBasis.from_generators(sys.s, projected)


# -- membership in generated monoids ----------------------------------------

def in_generated(gens, x: Vec) -> bool:
    """Is x a sum of N0*-multiples of the given generators?

    Exact: coefficients are searched over {0, ..., c_max, inf} where
    c_max is forced by the finite coordinates of x, and an inf
    coefficient is tried only when supp(g) lies inside inf-supp(x),
    which loses nothing (any larger finite coefficient could be replaced
    by inf without changing the sum).

    A target with no inf entry goes to a shorter search over finite
    coefficients on the all-finite generators g <= x only.  That is
    exact too: any coefficient on a generator with an inf entry, and an
    inf coefficient on any nonzero generator, put inf into the sum.
    """
    x = tuple(x)
    dim = len(x)
    pool = []
    for g in gens:
        g = tuple(g)
        if len(g) != dim:
            raise ValueError(f"generator {g} has length {len(g)}, expected {dim}")
        if any(g):
            pool.append(g)
    if not any(v is INF for v in x):
        return _in_generated_finite(pool, x)
    lam = inf_supp(x)
    fin = [i for i in range(dim) if x[i] is not INF]
    if not pool:
        return all(x[i] == 0 for i in fin) and not lam

    options = []  # per generator: (finite_cmax, inf_allowed, fin_profile, cover_fin, cover_inf)
    for g in pool:
        g_inf = inf_supp(g)
        g_supp = supp(g)
        usable = g_inf <= lam  # any coefficient >= 1 puts inf on g's inf entries
        inf_ok = usable and g_supp <= lam
        cmax = 0
        if usable:
            bounds = []
            feasible = True
            for i in fin:
                v = g[i]
                if v is INF:
                    feasible = False
                    break
                if v:
                    bounds.append(x[i] // v)
            if feasible and bounds:
                cmax = min(bounds)
        options.append((g, cmax, inf_ok, g_inf, g_supp))

    # suffix reachability for pruning
    n = len(options)
    reach_fin = [frozenset()] * (n + 1)
    reach_cov = [frozenset()] * (n + 1)
    for k in range(n - 1, -1, -1):
        g, cmax, inf_ok, g_inf, g_supp = options[k]
        f = frozenset(i + 1 for i in fin if cmax and is_finite(g[i]) and g[i])
        c = (g_inf if cmax else frozenset()) | (g_supp if inf_ok else frozenset())
        reach_fin[k] = reach_fin[k + 1] | f
        reach_cov[k] = reach_cov[k + 1] | c

    target_fin = tuple(x[i] for i in fin)
    failed = set()

    def search(k, remaining, covered) -> bool:
        if all(v == 0 for v in remaining) and covered == lam:
            return True
        if k == n:
            return False
        state = (k, remaining, covered)
        if state in failed:
            return False
        for pos, i in enumerate(fin):
            if remaining[pos] and (i + 1) not in reach_fin[k]:
                failed.add(state)
                return False
        if not (lam - covered) <= reach_cov[k]:
            failed.add(state)
            return False
        g, cmax, inf_ok, g_inf, g_supp = options[k]
        if inf_ok and search(k + 1, remaining, covered | g_supp):
            return True
        if cmax:
            fin_part = tuple(g[i] for i in fin)
            top = min((r // v for r, v in zip(remaining, fin_part) if v), default=cmax)
            for c in range(min(cmax, top), 0, -1):
                rem2 = tuple(r - c * v for r, v in zip(remaining, fin_part))
                if search(k + 1, rem2, covered | g_inf):
                    return True
        if search(k + 1, remaining, covered):
            return True
        failed.add(state)
        return False

    return search(0, target_fin, frozenset())


def _in_generated_finite(pool, x) -> bool:
    """in_generated for an all-finite x and nonzero generators of its length.

    Supports are int bitmasks; the coordinates some generator from k on
    can still reduce are the OR of their masks, and a remainder with a
    nonzero coordinate outside that OR is rejected without a search.
    """
    gens = [g for g in pool if all(v is not INF and v <= t for v, t in zip(g, x))]
    bits = [1 << i for i in range(len(x))]
    reach = [0] * (len(gens) + 1)
    for k in range(len(gens) - 1, -1, -1):
        reach[k] = reach[k + 1] | sum(b for b, v in zip(bits, gens[k]) if v)
    failed = set()

    def search(k, remaining) -> bool:
        need = sum(b for b, r in zip(bits, remaining) if r)
        if not need:
            return True
        if need & ~reach[k]:
            return False
        state = (k, remaining)
        if state in failed:
            return False
        g = gens[k]
        top = min(r // v for r, v in zip(remaining, g) if v)
        for c in range(top, 0, -1):
            if search(k + 1, tuple(r - c * v for r, v in zip(remaining, g))):
                return True
        if search(k + 1, remaining):
            return True
        failed.add(state)
        return False

    return search(0, x)


def minimize_generators(gens) -> tuple:
    """Remove every generator expressible from the others; deterministic
    (canonical sweep order), and the result still generates the same
    monoid."""
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


def generated_upto(gens, bound: int, dim: int) -> frozenset:
    """All elements of the generated monoid (all-finite generators) with
    every coordinate <= bound.  Exact: partial sums never exceed totals.

    Refused with ResourceLimitError before any point is built when both
    counts of the points it could build exceed ENUMERATION_GUARD: the
    box holds (bound + 1)^dim points, and a member in the box takes at
    most bound // max(g) copies of each generator g.
    """
    for g in gens:
        if len(g) != dim or any(v is INF for v in g):
            raise ValueError(f"generated_upto needs finite generators of length {dim}")
    size = min((bound + 1) ** dim, prod(bound // max(g) + 1 for g in gens if any(g)))
    if size > ENUMERATION_GUARD:
        raise ResourceLimitError(
            f"generated_upto: up to {size} points below bound {bound} in dimension "
            f"{dim} exceed the enumeration guard {ENUMERATION_GUARD}")
    seen = {zero_vec(dim)}
    frontier = [zero_vec(dim)]
    while frontier:
        nxt = []
        for t in frontier:
            for g in gens:
                t2 = tuple(a + b for a, b in zip(t, g))
                if t2 in seen or any(v > bound for v in t2):
                    continue
                seen.add(t2)
                nxt.append(t2)
        frontier = nxt
    return frozenset(seen)


def generated_truncated(gens, bound: int, dim: int) -> frozenset:
    """All elements of the N0*-generated monoid with every coordinate in
    {0, ..., bound, inf}.

    Closure under adding g and adding inf·g suffices: in any sum the
    inf-producing summands can be applied first, after which every
    partial sum stays inside the truncated domain.
    """
    moves = []
    for g in gens:
        g = tuple(g)
        if len(g) != dim:
            raise ValueError(f"generator {g} has length {len(g)}, expected {dim}")
        moves.append(g)
        moves.append(tuple(INF if v != 0 else 0 for v in g))
    seen = {zero_vec(dim)}
    frontier = [zero_vec(dim)]
    while frontier:
        nxt = []
        for t in frontier:
            for g in moves:
                t2 = vec_add(t, g)
                if t2 in seen:
                    continue
                if any(v is not INF and v > bound for v in t2):
                    continue
                seen.add(t2)
                nxt.append(t2)
        frontier = nxt
    return frozenset(seen)


def find_order_unit(sys: DioSystem):
    """Some strictly positive finite solution, or None when none exists:
    the order-unit of the Hilbert basis of the finite part."""
    return hilbert_basis(sys).order_unit()
