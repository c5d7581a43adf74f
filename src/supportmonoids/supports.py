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

import itertools
from functools import lru_cache

from .equations import DioSystem
from .errors import MissingOrderUnitError, ResourceLimitError
from .hilbert import (HilbertBasis, _in_generated_finite, find_order_unit,
                      generated_upto, hilbert_basis, in_generated)
from .semiring import (INF, IndexSet, Record, Vec, _inject_all, canonical_sorted,
                       check_index_set, check_vec, inf_supp, inject, project,
                       supp, vec_from_json, vec_to_json, zero_vec)

MAX_POWERSET_DIM = 16  # enumerating the 2^s subsets past this is refused


def _iset_key(H: IndexSet):
    return (len(H), tuple(sorted(H)))


@lru_cache(maxsize=1 << 12)
def _shared(H: IndexSet) -> IndexSet:
    """One object for equal support sets: the same few recur in every
    system of supports over the same coordinates."""
    return H


class SystemOfSupports(Record):
    """Immutable gluing data (S, {A_H}) with a chosen order-unit.

    ``families`` maps each H in S (sorted by size then lexicographically)
    to the Hilbert basis of A_H over the complement coordinates in
    ascending order.  ``solution_backed`` records that the instance was
    extracted from a system of equations and congruences, whose A_H are
    full by construction.  ``S`` is the set of the H.

    The systems the library builds (``extract``, ``a_plus_inf_a``,
    ``b_min``, ``b_max``) hold a test that admits H into S and a builder
    for A_H instead of the families, and build each A_H on first use.
    ``member_via_supports`` and ``basis_for`` build only the family they
    read; ``families`` and ``S`` build them all, in the same order and
    with the same values as the eager constructor, so equality, hashing,
    repr, JSON and pickling see the same record.  The memo ``_by_H``
    only stores what the builder returns, keyed by the ``_shared`` set
    (``None`` for an H outside S), so concurrent readers can at worst
    repeat work.
    """

    _fields = ("s", "unit", "families", "solution_backed")
    __slots__ = ("s", "unit", "solution_backed", "_families", "_S", "_by_H", "_lazy")

    def __init__(self, s: int, unit: Vec, families: tuple,
                 solution_backed: bool = False):
        unit = check_vec(unit, "unit")
        if len(unit) != s:
            raise ValueError(f"unit has length {len(unit)}, expected {s}")
        if any(v is INF or v < 1 for v in unit):
            raise ValueError(f"unit must be strictly positive and finite, got {unit}")
        fams = []
        seen = set()
        for H, basis in families:
            H = _shared(check_index_set(H, s))
            if H in seen:
                raise ValueError(f"duplicate support set {sorted(H)}")
            seen.add(H)
            if not isinstance(basis, HilbertBasis):
                raise ValueError("family entries must be HilbertBasis instances")
            if basis.dim != s - len(H):
                raise ValueError(
                    f"basis for H={sorted(H)} has dimension {basis.dim}, "
                    f"expected {s - len(H)}")
            fams.append((H, basis))
        fams.sort(key=lambda hb: _iset_key(hb[0]))
        self._init(s, unit, tuple(fams), solution_backed)

    def _init(self, s, unit, families, solution_backed) -> None:
        by_H = dict(families)
        self._set(s=s, unit=unit, solution_backed=solution_backed, _by_H=by_H,
                  _S=frozenset(by_H), _families=families, _lazy=None)

    def _set(self, **values) -> None:
        for name, value in values.items():  # in the order given, which readers rely on
            object.__setattr__(self, name, value)

    @classmethod
    def _deferred(cls, s: int, unit: Vec, admit, build, supports,
                  solution_backed: bool = False) -> "SystemOfSupports":
        """A system the library builds itself, unvalidated, whose families
        are built on first use.

        ``unit`` is a strictly positive int tuple of length s.
        ``admit(H)`` decides whether a subset H of 1..s lies in S.
        ``build(H, known)`` returns A_H for an admitted H, as a basis of
        dimension s - |H|; ``known`` maps some H to their families
        (``None`` for an H outside S) and may be read, not written.
        ``supports()`` lists S in the order of ``families``.
        """
        self = object.__new__(cls)
        self._set(s=s, unit=unit, solution_backed=solution_backed, _by_H={},
                  _S=None, _families=None, _lazy=(admit, build, supports))
        return self

    @property
    def families(self) -> tuple:
        fams = self._families
        if fams is None:
            fams = self._build_families()
        return fams

    @property
    def S(self) -> frozenset:
        if self._S is None:
            self._build_families()
        return self._S

    def _build_families(self) -> tuple:
        lazy = self._lazy
        if lazy is None:  # built meanwhile, and _families is set before _lazy clears
            return self._families
        _, build, supports = lazy
        known = self._by_H
        fams = []
        for H in supports():
            H = _shared(H)
            basis = known.get(H)
            if basis is None:
                basis = known[H] = build(H, known)
            fams.append((H, basis))
        fams = tuple(fams)
        by_H = dict(fams)
        # readers check _lazy first, then _by_H, _S or _families
        self._set(_by_H=by_H, _S=frozenset(by_H), _families=fams, _lazy=None)
        return fams

    def _family(self, H: IndexSet):
        """A_H, or None when H is not in S: one dict lookup, and the
        builder only on a miss.  ``_lazy`` is read first: once it is
        None, ``_by_H`` holds every family."""
        lazy = self._lazy
        try:
            return self._by_H[H]
        except KeyError:
            if lazy is None:
                return None
        key = frozenset(i for i in range(1, self.s + 1) if i in H)
        if len(key) != len(H):  # not a subset of the coordinates
            return None
        admit, build, _ = lazy
        key = _shared(key)
        basis = self._by_H[key] = build(key, self._by_H) if admit(key) else None
        return basis

    def basis_for(self, H) -> HilbertBasis:
        H = frozenset(H)
        basis = self._family(H)
        if basis is None:
            raise KeyError(H)
        return basis

    def complement(self, H) -> tuple:
        Hs = frozenset(H)
        return tuple(i for i in range(1, self.s + 1) if i not in Hs)

    def to_json(self) -> dict:
        return {
            "s": self.s,
            "unit": vec_to_json(self.unit),
            "supports": [
                {"H": sorted(H), "basis": basis.to_json()}
                for H, basis in self.families
            ],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "SystemOfSupports":
        if not isinstance(obj, dict) or "s" not in obj:
            raise ValueError("system-of-supports JSON needs keys s, unit, supports")
        s = obj["s"]
        fams = []
        for entry in obj.get("supports", ()):
            H = frozenset(entry["H"])
            gens = tuple(tuple(g) for g in entry.get("basis", ()))
            fams.append((H, HilbertBasis.from_generators(s - len(H), gens)))
        return cls(s=s, unit=vec_from_json(obj["unit"]), families=tuple(fams))


# -- extraction from a defining system ---------------------------------------

def _admits(sys: DioSystem, H: IndexSet) -> bool:
    """Is H an infinite support of sys?  Zero-pattern criterion, row by
    equation row: the all-inf-on-H vector solves a row iff the row
    misses H entirely or both sides meet H."""
    return all(any(f[i - 1] for i in H) == any(g[i - 1] for i in H)
               for f, g in zip(sys.F, sys.G))


def _check_powerset(s: int) -> None:
    """Refuse enumerating the subsets of s > MAX_POWERSET_DIM coordinates."""
    if s > MAX_POWERSET_DIM:
        raise ResourceLimitError(
            f"infinite_supports: enumerating the 2^{s} subsets of {s} "
            f"coordinates exceeds the cap MAX_POWERSET_DIM = {MAX_POWERSET_DIM}")


def _system_unit(unit: Vec | None) -> Vec:
    if unit is None:
        raise MissingOrderUnitError(
            "the system has no strictly positive finite solution")
    return unit


def require_order_unit(sys: DioSystem) -> Vec:
    return _system_unit(find_order_unit(sys))


def infinite_supports(sys: DioSystem, unit_checked: bool = False) -> frozenset:
    """The exact set {inf-supp(b) : b solves sys}, decided subset by subset.

    Congruence rows never restrict infinite supports (inf is a multiple
    of everything); equation rows admit H exactly when the row misses H
    or both sides meet it.  Past MAX_POWERSET_DIM coordinates the subset
    loop is refused before it starts.
    """
    if not unit_checked:
        require_order_unit(sys)
    _check_powerset(sys.s)
    coords = range(1, sys.s + 1)
    out = []
    for r in range(len(coords) + 1):
        for combo in itertools.combinations(coords, r):
            H = frozenset(combo)
            if _admits(sys, H):
                out.append(H)
    return frozenset(out)


def _subsystem(sys: DioSystem, H: IndexSet) -> DioSystem:
    keep = [i for i in range(1, sys.s + 1) if i not in H]
    if not keep:
        raise ValueError("the complement of H is empty; the attached monoid is trivial")
    drop = lambda row: tuple(row[i - 1] for i in keep)
    F, G = [], []
    for f, g in zip(sys.F, sys.G):
        if any(f[i - 1] for i in H) or any(g[i - 1] for i in H):
            continue
        F.append(drop(f))
        G.append(drop(g))
    D, moduli = [], []
    for d, m in zip(sys.D, sys.moduli):
        if any(d[i - 1] for i in H):
            continue
        D.append(drop(d))
        moduli.append(m)
    return DioSystem._trusted(len(keep), tuple(F), tuple(G), tuple(D), tuple(moduli))


def subsystem_for(sys: DioSystem, H) -> DioSystem:
    """The system over the complement of H whose N0-solutions are exactly
    the finite projections of the members with infinite support H.

    Deletion rules: congruence rows with a nonzero entry in H go away
    (an infinite coordinate satisfies them for free); equation rows in
    which either side meets H go away (for H an infinite support, both
    sides then meet H and the row holds with inf = inf); finally the H
    columns are removed.

    H alone is tested, by the zero-pattern criterion, so neither a system
    without an order unit nor one of more than MAX_POWERSET_DIM
    coordinates is refused.  A set that is not a support raises ValueError.
    """
    H = check_index_set(H, sys.s)
    if not _admits(sys, H):
        raise ValueError(f"{sorted(H)} is not an infinite support of the system")
    return _subsystem(sys, H)


def extract(sys: DioSystem) -> SystemOfSupports:
    """Recover the full gluing data of the solution monoid of sys.

    The families are built on first use.  The refusals come here, as
    when they were all built up front: the completion search of the
    finite part, a missing order unit, then more than MAX_POWERSET_DIM
    coordinates.
    """
    basis0 = hilbert_basis(sys)
    unit = _system_unit(basis0.order_unit())
    _check_powerset(sys.s)

    def build(H, _known):
        if not H:
            return basis0
        if len(H) == sys.s:
            return HilbertBasis(0, ())
        return hilbert_basis(_subsystem(sys, H))

    return SystemOfSupports._deferred(
        sys.s, unit, lambda H: _admits(sys, H), build,
        lambda: sorted(infinite_supports(sys, unit_checked=True), key=_iset_key),
        solution_backed=True)


# -- membership, generators, validation --------------------------------------

def member_via_supports(sos: SystemOfSupports, x: Vec) -> bool:
    """x belongs to the glued monoid iff its infinite support is an
    admissible H and its finite projection lies in A_H."""
    if len(x) != sos.s:
        raise ValueError(f"vector has length {len(x)}, expected {sos.s}")
    H = inf_supp(x)
    basis = sos._family(H)
    if basis is None:
        return False
    return in_generated(basis.gens, project(x, H))


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

    Supports are int bitmasks, bit i - 1 for coordinate i.
    """
    bits = [1 << i for i in range(sos.s)]
    fams = []
    for H, basis in sos.families:
        outside = [bits[i - 1] for i in range(1, sos.s + 1) if i not in H]
        fams.append((H, sum(bits[i - 1] for i in H), outside, basis.gens))
    gen_supps = {h | sum(b for b, v in zip(outside, g) if v)
                 for _, h, outside, gens in fams for g in gens}
    supps = gen_supps | {h for _, h, _, _ in fams}
    kept = []
    for H, h, outside, gens in fams:
        if h and h not in gen_supps:
            cover = 0
            for m in supps:
                if not m & ~h and m != h:
                    cover |= m
            if cover != h:
                kept.append(inject(zero_vec(sos.s - len(H)), H))
        if not gens:
            continue
        shadows = set()
        for _, k, outside_k, gens_k in fams:
            if k & ~h or k == h:
                continue
            keep = [j for j, b in enumerate(outside_k) if not b & h]
            for g in gens_k:
                p = tuple(g[j] for j in keep)
                if any(p):
                    shadows.add(p)
        for g in gens:
            pool = [*shadows, *(o for o in gens if o is not g)]
            if not _in_generated_finite(pool, g):
                kept.append(inject(g, H))
    return canonical_sorted(kept)


def truncated_members(sos: SystemOfSupports, bound: int) -> frozenset:
    """All members with coordinates in {0, ..., bound, inf}; bulk version
    of member_via_supports built from per-family closures.  H comes from
    ``sos.families``, so the points are placed without checking it again."""
    out = set()
    for H, basis in sos.families:
        fin = generated_upto(basis.gens, bound, sos.s - len(H))
        out.update(_inject_all(fin, H, sos.s))
    return frozenset(out)


def support_closure(gens) -> frozenset:
    """All unions of generator supports, the empty set included: the
    supports of the members of the generated monoid.

    There are at most 2^min(u, d) of them, for u coordinates in the
    union of the supports and d distinct supports.  Past
    2^MAX_POWERSET_DIM the loop is refused before it starts, so no
    input with at most MAX_POWERSET_DIM coordinates is refused.
    """
    supps = _capped_supports(gens)
    out = {frozenset()}
    for H in supps:
        out |= {K | H for K in out}
    return frozenset(out)


def _capped_supports(gens) -> set:
    """The distinct generator supports, refused as ``support_closure``
    refuses them: before any union is formed."""
    supps = {_shared(supp(g)) for g in gens}
    size = min(len(frozenset().union(*supps)), len(supps))
    if size > MAX_POWERSET_DIM:
        raise ResourceLimitError(
            f"support_closure: up to 2^{size} unions of generator supports "
            f"exceed the cap 2^MAX_POWERSET_DIM = 2^{MAX_POWERSET_DIM}")
    return supps


def minimal_nonempty(S) -> list:
    """Inclusion-minimal elements of S minus the empty set."""
    nonempty = [H for H in S if H]
    return sorted((H for H in nonempty
                   if not any(K < H for K in nonempty)), key=_iset_key)


def validate(sos: SystemOfSupports) -> list:
    """All violations of the four axioms, as human-readable strings.

    Empty list means the data is a genuine system of supports.  The
    projection axiom (4) is checked on generators only, which suffices
    because projections are monoid maps.
    """
    issues = []
    S = sos.S
    full = frozenset(range(1, sos.s + 1))

    if frozenset() not in S:
        issues.append("(1) the empty set is missing from S")
    else:
        if not in_generated(sos.basis_for(frozenset()).gens, sos.unit):
            issues.append(f"(1) the unit {sos.unit} is not generated by the empty-set family")

    if full not in S:
        issues.append("(3) the full index set is missing from S")
    elif sos.basis_for(full).gens:
        issues.append("(3) the family at the full index set must be trivial")

    for H, K in itertools.combinations(sorted(S, key=_iset_key), 2):
        if (H | K) not in S:
            issues.append(f"(3) S is not closed under unions: "
                          f"{sorted(H)} ∪ {sorted(K)} missing")

    for H, basis in sos.families:
        comp = sos.complement(H)
        for g in basis.gens:
            lifted = H | frozenset(comp[j] for j in range(len(comp)) if g[j])
            if lifted not in S:
                issues.append(f"(3) H ∪ supp(x) escapes S for H={sorted(H)}, x={g}")

    for H, basis_H in sos.families:
        for K, basis_K in sos.families:
            if not H < K:
                continue
            comp_H = sos.complement(H)
            positions = [j for j in range(len(comp_H)) if comp_H[j] not in K]
            for g in basis_H.gens:
                image = tuple(g[j] for j in positions)
                if any(image) and not in_generated(basis_K.gens, image):
                    issues.append(
                        f"(4) projection of {g} from H={sorted(H)} "
                        f"is not in the family at K={sorted(K)}")
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
    return all(_full_upto(basis, bound) for _, basis in sos.families)


def is_almost_free(sos: SystemOfSupports, bound: int = DEFAULT_FULLNESS_BOUND) -> bool:
    """Full at the empty set and free at every minimal nonempty H.

    Freeness at the minimal supports propagates to all larger ones by
    the projection axiom, so only the minimal ones are inspected.
    Fullness of the finite part is bounded verification unless the
    instance was extracted from a defining system, where it holds by
    construction.
    """
    if not sos.solution_backed:
        empty = frozenset()
        if empty not in sos.S or not _full_upto(sos.basis_for(empty), bound):
            return False
    return all(sos.basis_for(H) == HilbertBasis.free(sos.s - len(H))
               for H in minimal_nonempty(sos.S))
