"""Systems of supports: the gluing data behind a solution monoid.

A system of supports over (N0*)^s is a family S of subsets of
{1, ..., s} (the possible infinite supports) together with one monoid
A_H of all-finite vectors over the complementary coordinates for each
H in S, subject to:

  (1) the empty set is in S and the distinguished strictly positive
      unit lies in A_∅;
  (2) each A_H is a submonoid of N0 over the complement of H;
  (3) S is closed under unions, H together with the support of any
      member of A_H lands back in S, and the full set lies in S with
      the trivial monoid attached;
  (4) whenever H ⊆ K in S, projecting A_H onto the complement of K
      lands inside A_K.

The glued monoid is the union over H in S of the injections that place
inf on H and a member of A_H elsewhere.  Extraction recovers this data
exactly from a system of equations and congruences: the infinite
supports are decided row by row by a zero-pattern criterion, and each
A_H is the solution monoid of the subsystem obtained by deleting the
rows that meet H and then the columns of H.
"""

from __future__ import annotations

from functools import partial, reduce
from operator import or_

from .equations import DioSystem
from .errors import MissingOrderUnitError, ResourceLimitError
from .hilbert import HilbertBasis, _in_generated_finite, generated_upto, hilbert_basis
from .semiring import (INF, MAX_DIM, Record, Vec, _inject_all, _mask, _project_all, _supp_mask,
                       canonical_sorted, check_dim, check_index_set, check_int, check_vec,
                       vec_from_json, vec_to_json)

MAX_POWERSET_DIM = 16  # listing more than 2^16 support sets is refused


# A support set H is an int mask h inside the library: bit i - 1 stands
# for coordinate i.  A vector over the complement of h lists the other
# coordinates in ascending order, and ``semiring._inject_all`` and
# ``semiring._project_all`` are the one reading of that layout.  Sets of
# coordinates are built only at the public boundary: ``S`` and
# ``families`` (once per instance), the return value of
# ``infinite_supports`` and ``minimal_nonempty``, and the blocks of
# ``constructions.decompose_direct_sum``.  Three bytes hold the MAX_DIM
# = 24 coordinates: ``_BYTE_COORDS[k][b]`` lists the coordinates of the
# value b of byte k, ascending, built by doubling.
_BYTE_COORDS = [[()], [()], [()]]
for _k, _table in enumerate(_BYTE_COORDS):
    for _i in range(8 * _k + 1, 8 * _k + 9):
        _table += [c + (_i,) for c in _table]


def _coords(h: int) -> tuple:
    """The coordinates of mask h, ascending."""
    low, middle, high = _BYTE_COORDS
    return low[h & 255] + middle[h >> 8 & 255] + high[h >> 16]


def _in_order(masks) -> list:
    """The masks in the order of ``families``: by size, then
    lexicographically by their coordinates."""
    return sorted(masks, key=lambda h: (h.bit_count(), _coords(h)))


def _too_many(stage: str, s: int) -> ResourceLimitError:
    """The one refusal of a lister that passes 2^MAX_POWERSET_DIM sets."""
    return ResourceLimitError(
        f"{stage}: listing more than 2^{MAX_POWERSET_DIM} support sets out of the 2^{s} "
        f"subsets of {s} coordinates exceeds the cap MAX_POWERSET_DIM = {MAX_POWERSET_DIM}")


def _closed_masks(s: int, interior, stage: str) -> list:
    """The masks h below 2^s with interior(h) == h, in the order of
    ``families``, for an interior operator: interior(h) is the largest
    member inside h of a family closed under unions.  Refused once it
    passes 2^MAX_POWERSET_DIM.

    A depth-first walk over (top, must), where top is a member and must
    is inside it, holds the members between the two.  The lowest bit
    of top outside must splits them: those with it lie between top and
    must plus that bit, those without it inside interior(top minus the
    bit), which is pruned when it loses part of must.  No branch is
    empty, so each leaf, top == must, is a member, and a listing costs
    at most s interior calls per member (Ganter's NextClosure, 1984,
    lists the same closed sets with polynomial delay).  Taking the
    branch with the bit first meets the members with coordinate 1 before
    those without it, and so on down, which among sets of one size is
    the lexicographic order of their sorted coordinates; a stable sort
    by size finishes the order.
    """
    out, stack = [], [(interior((1 << s) - 1), 0)]
    while stack:
        top, must = stack.pop()
        while top != must:
            bit = (free := top & ~must) & -free
            rest = interior(top ^ bit)
            if not must & ~rest:
                stack.append((rest, must))
            must |= bit
        out.append(top)
        if len(out) > 1 << MAX_POWERSET_DIM:
            raise _too_many(stage, s)
    return sorted(out, key=int.bit_count)


def _union_interior(gens):
    """The interior operator of the unions of the supports of ``gens``,
    the supports of the members they generate: h goes to the union of
    the generator supports inside h."""
    supps = {_supp_mask(g) for g in gens}
    return lambda h: reduce(or_, (m for m in supps if not m & ~h), 0)


class SystemOfSupports(Record):
    """Immutable gluing data (S, {A_H}) with a chosen order-unit.

    ``families`` maps each H in S (sorted by size then lexicographically)
    to the Hilbert basis of A_H over the complement coordinates in
    ascending order, and ``S`` is the set of the H.  The record is its
    data: equality, hashing, repr, JSON and pickling see s, ``unit`` and
    ``families``, and nothing else.

    Every instance holds a lookup ``lookup(h, known)`` over support
    masks, which returns A_h, as a basis of dimension s - |h|, for a
    mask h below 2^s in S and None for any other, where ``known`` maps
    some masks to their lookups and may be read, not written; and a
    listing of S, the masks in the order of ``families``.  The
    validating constructor reads both off its checked input, whose S
    need not be closed under unions.  The systems the library builds
    (``extract``, ``a_plus_inf_a``, ``b_min``, ``b_max``) have
    union-closed S and pass ``_deferred`` its interior operator,
    interior(h) = the largest member of S inside h, so that h is in S
    iff interior(h) == h, with a builder of A_h for h in S and a lister
    that returns the listing.

    Library code reads an instance through its listing (``_masks``) and
    ``_family``; ``S`` and ``families`` are the boundary, where sets of
    coordinates are built, each once.  There are three memos, no part of
    the value.  ``_listing`` holds the lister until the first read of the
    listing, and from then on what it returned: the list of masks, or
    its refusal once it passes 2^MAX_POWERSET_DIM sets, which needs more
    than MAX_POWERSET_DIM coordinates and is raised again, with the same
    message, on every later read.  Each A_h is looked up on first use
    and memoized in ``_by_h``: ``member_via_supports`` and ``basis_for``
    list nothing and look up only the family they read, so they answer
    however many coordinates there are.  ``_sets`` holds ``S`` and
    ``families`` once read; ``S`` builds no family.  Each memo only
    stores what its function returns, so concurrent readers can at worst
    repeat work.
    """

    _fields = ("s", "unit", "families")
    __slots__ = ("s", "unit", "_lookup", "_listing", "_solution_backed", "_by_h", "_sets")

    def __init__(self, s: int, unit: Vec, families: tuple):
        check_dim(s)
        unit = check_vec(unit, "unit")
        if len(unit) != s:
            raise ValueError(f"unit has length {len(unit)}, expected {s}")
        if any(v is INF or v < 1 for v in unit):
            raise ValueError(f"unit must be strictly positive and finite, got {unit}")
        by_h = {}
        for H, basis in families:
            H = check_index_set(H, s)
            h = _mask(H)
            if h in by_h:
                raise ValueError(f"duplicate support set {sorted(H)}")
            if not isinstance(basis, HilbertBasis):
                raise ValueError("family entries must be HilbertBasis instances")
            if basis.dim != s - len(H):
                raise ValueError(
                    f"basis for H={sorted(H)} has dimension {basis.dim}, "
                    f"expected {s - len(H)}")
            by_h[h] = basis
        self._hold(s, unit, lambda h, _known: by_h.get(h), _in_order(by_h), False)

    @classmethod
    def _deferred(cls, s: int, unit: Vec, interior, build, listing,
                  solution_backed: bool = False) -> "SystemOfSupports":
        """A system the library builds itself, unvalidated: ``unit`` is a
        strictly positive int tuple of length s, and S is closed under
        unions with interior operator ``interior``.  Nothing is listed
        here, whatever s is.

        ``solution_backed`` marks a system extracted from equations and
        congruences, whose A_H are full by construction.  Only
        ``is_almost_free`` reads it, and it is no part of the value: a
        rebuilt, loaded or unpickled copy has it unset and checks
        fullness again."""
        self = object.__new__(cls)
        self._hold(s, unit, lambda h, known: build(h, known) if interior(h) == h else None,
                   listing, solution_backed)
        return self

    def _hold(self, *values) -> None:
        """Store the values in slot order, with empty memos."""
        for name, value in zip(self.__slots__, values + ({}, {}), strict=True):
            object.__setattr__(self, name, value)

    def _masks(self) -> list:
        """The masks of S in the order of ``families``, listed on the
        first read; a refused listing is raised again on every read."""
        listing = self._listing
        if callable(listing):
            try:
                listing = listing()
            except ResourceLimitError as refusal:
                listing = refusal
            object.__setattr__(self, "_listing", listing)
        if isinstance(listing, ResourceLimitError):
            raise ResourceLimitError(*listing.args)
        return listing

    def _families(self) -> list:
        """(h, A_h) for each mask h of S in the order of ``families``,
        every A_h built before the list is returned."""
        return [(h, self._family(h)) for h in self._masks()]

    @property
    def families(self) -> tuple:
        if "families" not in self._sets:
            self._sets["families"] = tuple((frozenset(_coords(h)), basis)
                                           for h, basis in self._families())
        return self._sets["families"]

    @property
    def S(self) -> frozenset:
        if "S" not in self._sets:
            self._sets["S"] = frozenset(map(frozenset, map(_coords, self._masks())))
        return self._sets["S"]

    def _family(self, h: int):
        """A_h for a mask h below 2^s, or None when h is not in S: one
        dict lookup, and the lookup function only on a miss."""
        try:
            return self._by_h[h]
        except KeyError:
            basis = self._by_h[h] = self._lookup(h, self._by_h)
            return basis

    def basis_for(self, H) -> HilbertBasis:
        H = frozenset(H)
        h = _mask(i for i in range(1, self.s + 1) if i in H)
        basis = self._family(h) if h.bit_count() == len(H) else None
        if basis is None:
            raise KeyError(H)
        return basis

    def to_json(self) -> dict:
        return {"s": self.s, "unit": vec_to_json(self.unit),
                "supports": [{"H": list(_coords(h)), "basis": basis.to_json()}
                             for h, basis in self._families()]}

    @classmethod
    def from_json(cls, obj: dict) -> "SystemOfSupports":
        if not isinstance(obj, dict) or "s" not in obj:
            raise ValueError("system-of-supports JSON needs keys s, unit, supports")
        s = check_dim(obj["s"])
        fams = []
        for entry in obj.get("supports", ()):
            H = frozenset(entry["H"])
            gens = tuple(tuple(g) for g in entry.get("basis", ()))
            fams.append((H, HilbertBasis.from_generators(s - len(H), gens)))
        return cls(s=s, unit=vec_from_json(obj["unit"]), families=tuple(fams))


# -- extraction from a defining system ---------------------------------------

def _row_masks(sys: DioSystem) -> tuple:
    """The support masks of the equation rows, as (F, G) pairs, and of the congruences."""
    return ([(_supp_mask(f), _supp_mask(g)) for f, g in zip(sys.F, sys.G)],
            [_supp_mask(d) for d in sys.D])


def _interior(equations, h: int) -> int:
    """The largest infinite support inside h, for the (F, G) support
    masks of the equation rows: a row that meets h on one side only
    forces that side out of every support inside h, so its coordinates
    are dropped until no such row is left.  A support takes one pass."""
    cut = True
    while cut:
        cut = False
        for f, g in equations:
            if (not f & h) != (not g & h):
                h &= ~(f | g)
                cut = True
    return h


def infinite_supports(sys: DioSystem) -> frozenset:
    """The exact set {inf-supp(b) : b solves sys}.

    Congruence rows never restrict infinite supports (inf is a multiple
    of everything); equation rows admit H exactly when the row misses H
    or both sides meet it.  The criterion is exact for every system, with
    or without an order unit: at a vector with infinite support H a side
    of a row is infinite iff it meets H, so a solution with infinite
    support H forces every row to miss H or meet it on both sides, and
    then z_H, inf on H and 0 elsewhere, solves the system.  The supports
    are closed under unions, and a walk over their interior operator
    lists them with at most s tests per support; it is refused once it
    passes 2^MAX_POWERSET_DIM of them, which needs more than
    MAX_POWERSET_DIM coordinates.  It is the lister of ``extract``, so
    a system of supports makes that refusal on the first read of its
    listing, not when it is built.
    """
    interior = partial(_interior, _row_masks(sys)[0])
    return frozenset(map(frozenset, map(_coords, _closed_masks(sys.s, interior,
                                                                "infinite_supports"))))


def _subsystem(sys: DioSystem, masks, h: int) -> DioSystem:
    if h.bit_count() == sys.s:
        raise ValueError("the complement of H is empty; the attached monoid is trivial")
    F, G = [], []
    for f, g, (mf, mg) in zip(sys.F, sys.G, masks[0]):
        if not (mf | mg) & h:
            F.append(f)
            G.append(g)
    D, moduli = [], []
    for d, m, md in zip(sys.D, sys.moduli, masks[1]):
        if not md & h:
            D.append(d)
            moduli.append(m)
    n, rows = len(F), tuple(_project_all(F + G + D, 0, h, sys.s))
    return DioSystem._trusted(sys.s - h.bit_count(), rows[:n], rows[n:2 * n], rows[2 * n:],
                              tuple(moduli))


def subsystem_for(sys: DioSystem, H) -> DioSystem:
    """The system over the complement of H whose N0-solutions are exactly
    the finite projections of the members with infinite support H.

    Deletion rules: congruence rows with a nonzero entry in H go away
    (an infinite coordinate satisfies them for free); equation rows in
    which either side meets H go away (for H an infinite support, both
    sides then meet H and the row holds with inf = inf); finally the H
    columns are removed.

    H alone is tested, by the zero-pattern criterion, so neither a system
    without an order unit nor one with many supports is refused.  A set
    that is not a support raises ValueError.
    """
    H = check_index_set(H, sys.s)
    h, masks = _mask(H), _row_masks(sys)
    if _interior(masks[0], h) != h:
        raise ValueError(f"{sorted(H)} is not an infinite support of the system")
    return _subsystem(sys, masks, h)


def extract(sys: DioSystem) -> SystemOfSupports:
    """Recover the full gluing data of the solution monoid of sys.

    The completion search of the finite part and a missing order unit
    are refused here.  The rest follows the one listing rule of
    ``SystemOfSupports``: each family is built on first use, and S is
    listed, by ``infinite_supports``, on the first read of its listing,
    which refuses past 2^MAX_POWERSET_DIM supports; a query
    that reads one family lists nothing, and reading S builds none.
    """
    basis0 = hilbert_basis(sys)
    unit = basis0.order_unit()
    if unit is None:
        raise MissingOrderUnitError("the system has no strictly positive finite solution")
    masks = _row_masks(sys)

    def build(h, _known):
        if not h:
            return basis0
        if h.bit_count() == sys.s:
            return HilbertBasis(0, ())
        return hilbert_basis(_subsystem(sys, masks, h))

    return SystemOfSupports._deferred(
        sys.s, unit, partial(_interior, masks[0]), build,
        lambda: _in_order(map(_mask, infinite_supports(sys))), solution_backed=True)


# -- membership, generators, validation --------------------------------------

def member_via_supports(sos: SystemOfSupports, x: Vec) -> bool:
    """x belongs to the glued monoid iff its infinite support is an
    admissible H and its finite projection lies in A_H.  x is checked in
    the pass that splits it; the basis of A_H goes to the search as it is.
    """
    if len(x) != sos.s:
        raise ValueError(f"vector has length {len(x)}, expected {sos.s}")
    h, finite = 0, []
    for j, v in enumerate(x):
        if v is INF:
            h |= 1 << j
        else:
            finite.append(check_int(v, "vector", 0))
    basis = sos._family(h)
    if basis is None:
        return False
    return _in_generated_finite(basis.gens, finite)


def generators(sos: SystemOfSupports) -> tuple:
    """A minimal generating set of the glued monoid under N0*-combinations,
    canonically sorted.

    The candidates are the generators of A_∅ and, for each nonempty H in
    S, z_H (inf on H, 0 elsewhere) and inject(g, H) for each generator g
    of A_H.  The answer is the set ``minimize_generators`` keeps from
    them, found with one test per candidate instead of a general sweep.

    Rank a vector by (|inf-supp|, sum of its finite entries).  Every
    N0*-expression of a candidate c with inf-supp H by other vectors
    uses only vectors of lower rank.  A summand v has inf-supp inside H.
    With an inf coefficient, supp(v) lies inside H, so v is z_H (below
    c, as c is not z_H) or has a smaller inf-supp.  With a finite one
    and inf-supp(v) = H, the finite part of v lies below that of c,
    strictly in sum, since v differs from c.  So removing a redundant
    candidate never changes the span of the candidates ranked below
    another, and the sweep, in any order, keeps exactly the candidates
    the lower-ranked ones do not generate.  Per kind of candidate:

    * g in A_∅: the summands are finite, so g is tested against the
      other generators of A_∅ (a public HilbertBasis need not be
      minimal).
    * z_H: the summands have support inside H, and inf times all of
      them is inf on the union of their supports, so z_H is redundant
      iff the other candidates with support inside H cover H.
    * inject(g, H), g nonzero: the summands with a finite coefficient
      have inf-supp inside H and add up to g outside H, and those with
      an inf coefficient vanish there.  Conversely inf·z_H fills H with
      inf.  So it is redundant iff g is in the N0-span of the nonzero
      projections outside H of the other candidates with inf-supp
      inside H.
    """
    s, fams = sos.s, sos._families()
    gen_supps = {_supp_mask(x) for h, basis in fams for x in _inject_all(basis.gens, h, s)}
    supps = gen_supps | {h for h, _ in fams}
    kept = []
    for i, (h, basis) in enumerate(fams):
        gens, lift = basis.gens, []
        if h and h not in gen_supps and h != reduce(
                or_, (m for m in supps if not m & ~h and m != h), 0):
            lift.append((0,) * (s - h.bit_count()))
        if gens:
            shadows = set()
            for k, basis_k in fams[:i]:  # the sets strictly inside h come before it
                if not k & ~h:
                    shadows.update(p for p in _project_all(basis_k.gens, k, h, s) if any(p))
            lift += [g for g in gens
                     if not _in_generated_finite([*shadows, *(o for o in gens if o is not g)], g)]
        kept += _inject_all(lift, h, s)
    return canonical_sorted(kept)


def truncated_members(sos: SystemOfSupports, bound: int) -> frozenset:
    """All members with coordinates in {0, ..., bound, inf}; bulk version
    of member_via_supports built from per-family closures.  Each h comes
    from the listing, so the points are placed without checking it again."""
    out = set()
    for h, basis in sos._families():
        fin = generated_upto(basis.gens, bound, sos.s - h.bit_count())
        out.update(_inject_all(fin, h, sos.s))
    return frozenset(out)


def _minimal(masks) -> list:
    """The inclusion-minimal nonzero masks among ``masks``, which come in
    the order of ``families``.  In that order a set comes after every set
    strictly inside it, and a set that is not minimal holds a minimal one,
    so a set is kept iff no set kept before it lies strictly inside it."""
    out = []
    for h in masks:
        if h and all(k & ~h or k == h for k in out):
            out.append(h)
    return out


def minimal_nonempty(S) -> list:
    """Inclusion-minimal elements of S minus the empty set, in the order
    of ``families``, for sets of coordinates in 1..MAX_DIM."""
    masks = [_mask(check_index_set(H, MAX_DIM)) for H in S]
    return [frozenset(_coords(h)) for h in _minimal(_in_order(masks))]


def validate(sos: SystemOfSupports) -> list:
    """All violations of the four axioms, as human-readable strings.

    Empty list means the data is a genuine system of supports.  The
    projection axiom (4) is checked on generators only, which suffices
    because projections are monoid maps.
    """
    issues = []
    fams = sos._families()
    S = {h for h, _ in fams}
    full = (1 << sos.s) - 1

    if 0 not in S:
        issues.append("(1) the empty set is missing from S")
    elif not _in_generated_finite(sos._family(0).gens, sos.unit):
        issues.append(f"(1) the unit {sos.unit} is not generated by the empty-set family")

    if full not in S:
        issues.append("(3) the full index set is missing from S")
    elif sos._family(full).gens:
        issues.append("(3) the family at the full index set must be trivial")

    for i, (h, _) in enumerate(fams):
        for k, _ in fams[i + 1:]:
            if h | k not in S:
                issues.append(f"(3) S is not closed under unions: "
                              f"{list(_coords(h))} ∪ {list(_coords(k))} missing")

    for h, basis in fams:
        for g, x in zip(basis.gens, _inject_all(basis.gens, h, sos.s)):
            if _supp_mask(x) not in S:
                issues.append(f"(3) H ∪ supp(x) escapes S for H={list(_coords(h))}, x={g}")

    # a set strictly inside another comes before it
    for i, (h, basis) in enumerate(fams):
        for k, basis_k in fams[i + 1:]:
            if h & ~k:
                continue
            for g, image in zip(basis.gens, _project_all(basis.gens, h, k, sos.s)):
                if any(image) and not _in_generated_finite(basis_k.gens, image):
                    issues.append(
                        f"(4) projection of {g} from H={list(_coords(h))} "
                        f"is not in the family at K={list(_coords(k))}")
    return issues


# -- fullness and almost-freeness (bounded verification) ---------------------

DEFAULT_FULLNESS_BOUND = 5


def _full_upto(basis: HilbertBasis, bound: int) -> bool:
    """Is the generated monoid full, verified on members up to bound?

    A monoid is full iff differences of comparable members stay inside;
    on the truncated closure it is enough that c - g stays in the
    closure for every generator g below a member c (peel one generator
    at a time).
    """
    if not basis.gens:
        return True
    closure = generated_upto(basis.gens, bound, basis.dim)
    for c in closure:
        for g in basis.gens:
            if all(a >= b for a, b in zip(c, g)):
                if tuple(a - b for a, b in zip(c, g)) not in closure:
                    return False
    return True


def is_full(sos: SystemOfSupports, bound: int = DEFAULT_FULLNESS_BOUND) -> bool:
    """Do all families embed divisor-homomorphically, verified up to bound?"""
    check_int(bound, "verification bound", 0)
    return all(_full_upto(basis, bound) for _, basis in sos._families())


def is_almost_free(sos: SystemOfSupports, bound: int = DEFAULT_FULLNESS_BOUND) -> bool:
    """Full at the empty set and free at every minimal nonempty H.

    A family is free when its generators hold every unit vector
    (``HilbertBasis.is_free``), minimal or not.  Freeness at the
    minimal supports propagates to all larger ones by the projection
    axiom, so only the minimal ones are inspected.  Fullness of the
    finite part is bounded verification unless the instance is one that
    ``extract`` returned, where it holds by construction; a copy rebuilt
    from its data is verified like any other.
    """
    check_int(bound, "verification bound", 0)
    masks = sos._masks()
    if not sos._solution_backed and (0 not in masks or not _full_upto(sos._family(0), bound)):
        return False
    return all(sos._family(h).is_free() for h in _minimal(masks))
