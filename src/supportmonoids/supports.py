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
from dataclasses import dataclass
from functools import cached_property, lru_cache

from .equations import DioSystem
from .errors import MissingOrderUnitError
from .hilbert import (HilbertBasis, find_order_unit, generated_upto,
                      hilbert_basis, in_generated, minimize_generators)
from .semiring import (INF, IndexSet, Vec, check_index_set, check_vec,
                       inf_supp, inject, project, supp, vec_from_json,
                       vec_to_json, zero_vec)


def _iset_key(H: IndexSet):
    return (len(H), tuple(sorted(H)))


@lru_cache(maxsize=1 << 12)
def _shared(H: IndexSet) -> IndexSet:
    """One object for equal support sets: the same few recur in every
    system of supports over the same coordinates."""
    return H


@dataclass(frozen=True)
class SystemOfSupports:
    """Immutable gluing data (S, {A_H}) with a chosen order-unit.

    ``families`` maps each H in S (sorted by size then lexicographically)
    to the Hilbert basis of A_H over the complement coordinates in
    ascending order.  ``solution_backed`` records that the instance was
    extracted from a system of equations and congruences, whose A_H are
    full by construction.
    """

    s: int
    unit: Vec
    families: tuple  # tuple of (frozenset H, HilbertBasis) pairs
    solution_backed: bool = False

    def __post_init__(self):
        unit = check_vec(self.unit, "unit")
        if len(unit) != self.s:
            raise ValueError(f"unit has length {len(unit)}, expected {self.s}")
        if any(v is INF or v < 1 for v in unit):
            raise ValueError(f"unit must be strictly positive and finite, got {unit}")
        fams = []
        seen = set()
        for H, basis in self.families:
            H = _shared(check_index_set(H, self.s))
            if H in seen:
                raise ValueError(f"duplicate support set {sorted(H)}")
            seen.add(H)
            if not isinstance(basis, HilbertBasis):
                raise ValueError("family entries must be HilbertBasis instances")
            if basis.dim != self.s - len(H):
                raise ValueError(
                    f"basis for H={sorted(H)} has dimension {basis.dim}, "
                    f"expected {self.s - len(H)}")
            fams.append((H, basis))
        fams.sort(key=lambda hb: _iset_key(hb[0]))
        object.__setattr__(self, "unit", unit)
        object.__setattr__(self, "families", tuple(fams))

    @cached_property
    def S(self) -> frozenset:
        return frozenset(H for H, _ in self.families)

    @cached_property
    def _by_H(self) -> dict:
        return dict(self.families)

    def basis_for(self, H) -> HilbertBasis:
        return self._by_H[frozenset(H)]

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

def _row_allows(frow, grow, H: IndexSet) -> bool:
    """Zero-pattern criterion for one equation row: the all-inf-on-H vector
    solves it iff the row misses H entirely or both sides meet H."""
    f_hits = any(frow[i - 1] for i in H)
    g_hits = any(grow[i - 1] for i in H)
    return (not f_hits and not g_hits) or (f_hits and g_hits)


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
    or both sides meet it.
    """
    if not unit_checked:
        require_order_unit(sys)
    coords = range(1, sys.s + 1)
    out = []
    for r in range(len(coords) + 1):
        for combo in itertools.combinations(coords, r):
            H = frozenset(combo)
            if all(_row_allows(f, g, H) for f, g in zip(sys.F, sys.G)):
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
    return DioSystem(s=len(keep), F=tuple(F), G=tuple(G), D=tuple(D), moduli=tuple(moduli))


def subsystem_for(sys: DioSystem, H) -> DioSystem:
    """The system over the complement of H whose N0-solutions are exactly
    the finite projections of the members with infinite support H.

    Deletion rules: congruence rows with a nonzero entry in H go away
    (an infinite coordinate satisfies them for free); equation rows in
    which either side meets H go away (for H an infinite support, both
    sides then meet H and the row holds with inf = inf); finally the H
    columns are removed.
    """
    H = check_index_set(H, sys.s)
    if H not in infinite_supports(sys):
        raise ValueError(f"{sorted(H)} is not an infinite support of the system")
    return _subsystem(sys, H)


def extract(sys: DioSystem) -> SystemOfSupports:
    """Recover the full gluing data of the solution monoid of sys."""
    basis0 = hilbert_basis(sys)
    unit = _system_unit(basis0.order_unit())
    fams = []
    full = frozenset(range(1, sys.s + 1))
    for H in infinite_supports(sys, unit_checked=True):
        if H == full:
            fams.append((H, HilbertBasis(0, ())))
        elif not H:
            fams.append((H, basis0))
        else:
            fams.append((H, hilbert_basis(_subsystem(sys, H))))
    return SystemOfSupports(s=sys.s, unit=unit, families=tuple(fams),
                            solution_backed=True)


# -- membership, generators, validation --------------------------------------

def member_via_supports(sos: SystemOfSupports, x: Vec) -> bool:
    """x belongs to the glued monoid iff its infinite support is an
    admissible H and its finite projection lies in A_H."""
    if len(x) != sos.s:
        raise ValueError(f"vector has length {len(x)}, expected {sos.s}")
    H = inf_supp(x)
    if H not in sos.S:
        return False
    return in_generated(sos.basis_for(H).gens, project(x, H))


def generators(sos: SystemOfSupports) -> tuple:
    """A minimal generating set of the glued monoid under N0*-combinations.

    Candidates are the injected family generators and the injections of
    zero (inf exactly on H); redundant ones are swept out in canonical
    order, so the first listed generator is the canonically smallest.
    """
    candidates = set()
    for H, basis in sos.families:
        candidates.add(inject(zero_vec(sos.s - len(H)), H) if H else zero_vec(sos.s))
        for g in basis.gens:
            candidates.add(inject(g, H) if H else g)
    candidates.discard(zero_vec(sos.s))
    return minimize_generators(candidates)


def truncated_members(sos: SystemOfSupports, bound: int) -> frozenset:
    """All members with coordinates in {0, ..., bound, inf}; bulk version
    of member_via_supports built from per-family closures."""
    out = set()
    for H, basis in sos.families:
        k = sos.s - len(H)
        fin = generated_upto(basis.gens, bound, k) if k else {()}
        for y in fin:
            out.add(inject(y, H) if H else y)
    return frozenset(out)


def support_closure(gens) -> frozenset:
    """All unions of generator supports, the empty set included: the
    supports of the members of the generated monoid."""
    out = {frozenset()}
    for g in gens:
        H = supp(g)
        out |= {K | H for K in out}
    return frozenset(out)


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
