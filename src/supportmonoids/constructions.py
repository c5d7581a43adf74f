"""Building monoids over (N0*)^s from a finite part, and (de)composing
finite parts as direct sums.

Given a finite part A generated by a Hilbert basis:

* ``a_plus_inf_a``  glues the smallest possible monoid with that finite
  part: the infinite supports are exactly the supports of members of A
  and each family is the projection of A.
* ``b_min`` / ``b_max`` glue the least and the largest monoids among
  those given by almost-free (respectively, arbitrary) systems of
  supports with finite part A: supports are the up-closure of the
  member supports, respectively all subsets, and every nonempty family
  is free.

``compose_direct_sum`` / ``decompose_direct_sum`` realize and recognize
internal direct sums A = A_1 ⊕ A_2 of a finite part via disjoint
outer coordinate blocks I_1, I_2, a shared block I_3, and the two
"shadow" maps f_i recording what each factor deposits on I_3.  The
recognition is exact for any finitely generated finite part, full or not.
"""

from __future__ import annotations

import itertools

from .errors import MissingOrderUnitError, ResourceLimitError
from .hilbert import HilbertBasis, minimize_generators
from .semiring import (IndexSet, Record, Vec, _project_all, _supp_mask, canonical_sorted,
                       check_index_set, check_matrix)
from .supports import SystemOfSupports, _closed_masks, _coords, _union_interior

MAX_DECOMPOSE_GENS = 20    # partition search is exponential in the basis size


def _order_unit_of(basis: HilbertBasis) -> Vec:
    """basis.order_unit(), refused for a basis with no coordinate or no unit."""
    if not basis.dim:
        raise ValueError("a system of supports needs at least one coordinate")
    unit = basis.order_unit()
    if unit is None:
        raise MissingOrderUnitError(
            "the generated monoid has no strictly positive element")
    return unit


def a_plus_inf_a(basis: HilbertBasis) -> SystemOfSupports:
    """The monoid {a1 + inf·a2 : a1, a2 in A} as a system of supports.

    Its supports are the supports of members of A and each family is the
    projection of A; it is the unique minimal monoid given by a system
    of supports whose finite part is A.  The largest support inside H
    is the union of the generator supports inside H, and the walk of
    ``_closed_masks`` over that operator lists the supports.

    Families are built on first use, all of them in order of increasing
    |H|.  The family at H is projected from one already built at some H
    minus {i} when there is one, else from A itself: proj_H(A) =
    proj_H(proj_K(A)) for K inside H, and a projection maps a generating
    set onto a generating set of the image, which ``minimize_generators``
    reduces to the unique minimal one.  The projection of a free family
    is free.
    """
    s = basis.dim

    def build(h, known):
        k = s - h.bit_count()
        source, rest = None, h
        while source is None and rest:  # a hit names the family K = h minus one bit
            bit = rest & -rest
            K, rest = h ^ bit, rest ^ bit
            source = known.get(K)
        if source is None:
            return HilbertBasis._minimal(k, _project_all(basis.gens, 0, h, s))
        if source is HilbertBasis.free(k + 1):
            return HilbertBasis.free(k)
        return HilbertBasis._minimal(k, _project_all(source.gens, K, h, s))

    return _glued(basis, _union_interior(basis.gens), build, "a_plus_inf_a")


def b_min(basis: HilbertBasis) -> SystemOfSupports:
    """The least monoid given by an almost-free system of supports with
    finite part A: supports are all supersets of member supports, and
    every nonempty family is free.  So H is the largest support inside
    H when it holds a generator support, and the empty set otherwise."""
    inside = _union_interior(basis.gens)
    return _glued(basis, lambda h: h if inside(h) else 0, _free_beyond(basis), "b_min")


def b_max(basis: HilbertBasis) -> SystemOfSupports:
    """The largest monoid given by a system of supports with finite part A:
    every subset is a support and every nonempty family is free."""
    return _glued(basis, lambda h: h, _free_beyond(basis), "b_max")


def _free_beyond(basis: HilbertBasis):
    """The families of ``b_min`` and ``b_max``: A at the empty set, free elsewhere."""
    return lambda h, _known: HilbertBasis.free(basis.dim - h.bit_count()) if h else basis


def _glued(basis: HilbertBasis, interior, build, stage: str) -> SystemOfSupports:
    """The system with finite part A whose supports are the fixed masks
    of ``interior`` and whose family at a support h is build(h, known);
    the families are built on first use, and the supports are listed by
    ``_closed_masks`` on the first read of the listing, refused
    there in the name of ``stage``."""
    s = basis.dim
    return SystemOfSupports._deferred(s, _order_unit_of(basis), interior, build,
                                      lambda: _closed_masks(s, interior, stage))


def monoid_sum(m1, m2) -> tuple:
    """Generators of the sum of two generated submonoids of (N0*)^s:
    concatenate and sweep out redundancies, which checks them all."""
    return minimize_generators([*m1, *m2])


# -- direct sums of finite parts ---------------------------------------------

class DirectSumData(Record):
    """A witness that a finite part splits as A_1 ⊕ A_2.

    I1, I2, I3 partition {1, ..., s} with I1, I2 nonempty; B_i is the
    image of A_i on its own block I_i; row j of f_i is the I_3 part of
    the lift of the j-th generator of B_i.  The rows define a monoid map
    on B_i exactly when appending them to the generators keeps the rank.
    """

    __slots__ = _fields = ("s", "I1", "I2", "I3", "B1", "B2", "f1", "f2")

    def __init__(self, s: int, I1: IndexSet, I2: IndexSet, I3: IndexSet,
                 B1: HilbertBasis, B2: HilbertBasis, f1: tuple, f2: tuple):
        I1 = check_index_set(I1, s)
        I2 = check_index_set(I2, s)
        I3 = check_index_set(I3, s)
        if not I1 or not I2:
            raise ValueError("I1 and I2 must be nonempty")
        if I1 | I2 | I3 != frozenset(range(1, s + 1)) or \
                I1 & I2 or I1 & I3 or I2 & I3:
            raise ValueError("I1, I2, I3 must partition the coordinates")
        shadows = []
        for name, basis, rows, block in (("f1", B1, f1, I1), ("f2", B2, f2, I2)):
            if basis.dim != len(block):
                raise ValueError(f"B over {sorted(block)} must have dimension {len(block)}")
            rows = check_matrix(rows, len(I3), name)
            shadows.append(rows)
            if len(rows) != len(basis.gens):
                raise ValueError(f"{name} must have one row per generator")
            if _rank([g + r for g, r in zip(basis.gens, rows)]) != _rank(basis.gens):
                raise ValueError(f"{name} is not a monoid map on its factor: a relation "
                                 f"among the generators of B fails on the shadows")
        self._init(s, I1, I2, I3, B1, B2, *shadows)

    def order_unit_support_ok(self) -> bool:
        """The composed monoid contains an order-unit iff the shadows of the
        two factors jointly cover I3."""
        rows = self.f1 + self.f2
        return all(any(r[j] for r in rows) for j in range(len(self.I3)))

    def to_json(self) -> dict:
        return {
            "I1": sorted(self.I1), "I2": sorted(self.I2), "I3": sorted(self.I3),
            "B1": self.B1.to_json(), "B2": self.B2.to_json(),
            "f1": [list(r) for r in self.f1], "f2": [list(r) for r in self.f2],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "DirectSumData":
        I1, I2, I3 = (frozenset(obj[k]) for k in ("I1", "I2", "I3"))
        s = len(I1) + len(I2) + len(I3)
        return cls(
            s=s, I1=I1, I2=I2, I3=I3,
            B1=HilbertBasis.from_generators(len(I1), obj["B1"]),
            B2=HilbertBasis.from_generators(len(I2), obj["B2"]),
            f1=tuple(tuple(r) for r in obj["f1"]),
            f2=tuple(tuple(r) for r in obj["f2"]),
        )


def _embed(d: DirectSumData, which: int, g: Vec, shadow: Vec) -> Vec:
    """h(g, 0) or h(0, g): place g on its block and its shadow on I3."""
    own = sorted(d.I1 if which == 1 else d.I2)
    third = sorted(d.I3)
    out = [0] * d.s
    for j, i in enumerate(own):
        out[i - 1] = g[j]
    for j, i in enumerate(third):
        out[i - 1] = shadow[j]
    return tuple(out)


def compose_direct_sum(d: DirectSumData, require_order_unit: bool = False) -> HilbertBasis:
    """The basis of the glued finite part h(B1 x B2) ⊆ N0^s."""
    if require_order_unit and not d.order_unit_support_ok():
        raise MissingOrderUnitError(
            "supp(f1) ∪ supp(f2) does not cover I3; no order-unit exists")
    gens = [_embed(d, 1, g, r) for g, r in zip(d.B1.gens, d.f1)]
    gens += [_embed(d, 2, g, r) for g, r in zip(d.B2.gens, d.f2)]
    return HilbertBasis.from_generators(d.s, gens)


def _rank(rows) -> int:
    """The rank over Q of integer vectors, by fraction-free elimination
    (Bareiss, Math. Comp. 22, 1968): each entry left is a minor of the
    input, so dividing by the previous pivot is exact."""
    m, rank, prev = [list(r) for r in rows], 0, 1
    for c in range(len(m[0]) if m else 0):
        top = next((row for row in m if row[c]), None)
        if top is None:
            continue
        p = top[c]
        m = [[(p * x - row[c] * y) // prev for x, y in zip(row, top)]
             for row in m if row is not top]
        prev, rank = p, rank + 1
    return rank


def decompose_direct_sum(basis: HilbertBasis) -> DirectSumData | None:
    """Search for a splitting of the generated monoid as a direct sum.

    Generators are split into two groups G1 (holding the first) and G2;
    the blocks are read off the ORs of the generator support masks,
    each computed once.  A split is accepted when rank G1 + rank G2 =
    rank G, so ZG1 ∩ ZG2 = 0 and every member has exactly one expression
    as group1 + group2, and when each G_i keeps its rank projected onto
    its own block I_i, so the shadow map on I3 is a monoid map.  Both
    are exact integer ranks, so the answer is exact for any finitely
    generated finite part, full or not.  The generators are minimized
    first: the projection onto I_i is then injective on the span of
    G_i, so each B_i is minimal too, even for a public basis that is not.
    Returns the first witness in canonical order, or None; refuses more
    than MAX_DECOMPOSE_GENS generators, and a basis with no order unit.
    """
    gens = basis.gens
    if len(gens) > MAX_DECOMPOSE_GENS:
        raise ResourceLimitError(
            f"decompose_direct_sum: a partition search over {len(gens)} generators "
            f"exceeds the cap MAX_DECOMPOSE_GENS = {MAX_DECOMPOSE_GENS}")
    gens = minimize_generators(gens)
    _order_unit_of(basis)
    if len(gens) < 2:
        return None
    s = basis.dim
    full, masks = (1 << s) - 1, [_supp_mask(g) for g in gens]
    rank = _rank(gens)
    rest = range(1, len(gens))
    for r in range(0, len(gens) - 1):
        for extra in itertools.combinations(rest, r):
            picked = {0, *extra}
            supp1 = supp2 = 0
            for j, m in enumerate(masks):
                if j in picked:
                    supp1 |= m
                else:
                    supp2 |= m
            I1, I2, I3 = supp1 & ~supp2, supp2 & ~supp1, supp1 & supp2
            if not I1 or not I2:
                continue
            group1 = [gens[0], *(gens[j] for j in extra)]
            group2 = [g for j, g in enumerate(gens) if j not in picked]
            rank1 = _rank(group1)
            if rank1 + _rank(group2) != rank:
                continue
            pieces = []
            for group, block, want in ((group1, I1, rank1), (group2, I2, rank - rank1)):
                # equal projections collapse, leaving the rank of the keys
                shadow = dict(zip(_project_all(group, 0, full ^ block, s),
                                  _project_all(group, 0, full ^ I3, s)))
                if _rank(shadow) != want:
                    break
                factor = canonical_sorted(shadow)
                pieces.append((HilbertBasis(block.bit_count(), factor),
                               tuple(shadow[p] for p in factor)))
            else:
                (b1, f1), (b2, f2) = pieces
                I1, I2, I3 = (frozenset(_coords(m)) for m in (I1, I2, I3))
                return DirectSumData._trusted(s, I1, I2, I3, b1, b2, f1, f2)
    return None


def decomposed_almost_free(d: DirectSumData) -> bool:
    """Is A + inf·A of the composed monoid given by an almost-free system?

    True exactly when each factor is free on its block and every
    generator's shadow covers all of I3 (shadow supports of sums are
    unions over the generators used, so the generator check is exact).
    """
    for basis, rows in ((d.B1, d.f1), (d.B2, d.f2)):
        if not basis.is_free():
            return False
        if not all(all(r) for r in rows):
            return False
    return True
