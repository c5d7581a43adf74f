"""Decision procedures: is every member of the glued monoid a sum of a
finite member and an inf-scaled finite member?

For the monoids arising from one-dimensional situations this is the
question "is every pure-projective a direct sum of finitely generated
modules", and the answer is yes exactly when the glued monoid equals
A + inf·A for its finite part A.  The workhorse criterion compares the
extracted supports against the supports of the finite part and checks
that the finite part projects onto everything at each minimal nonempty
support; together these say precisely that the monoid is A + inf·A
*and* its system of supports is almost-free.  Witnesses are members
that provably lie outside A + inf·A.

For a single equation a·t = b·t there is a closed form: positive
solutions exist iff a - b changes sign; the system of supports is
almost-free iff supp(a) ∪ supp(b) covers everything; and (for
primitive data) the monoid is A + inf·A iff additionally the supports
of a and b are disjoint and gcd(a_i, b_j) = 1 across them.
"""

from __future__ import annotations

import math

from .equations import DioSystem, is_member
from .hilbert import _in_generated_finite, find_order_unit
from .semiring import (Record, _inject_all, _project_all, canonical_sorted, check_int, supp,
                       unit_vec, vec_to_json)
from .supports import (DEFAULT_FULLNESS_BOUND, SystemOfSupports, _closed_masks, _minimal,
                       _union_interior, extract, is_almost_free, is_full)


class ClassReport(Record):
    """Aggregate answer for one defining system.

    ``full`` is a bounded verification up to ``verification_bound``.
    So is ``almost_free``, except on the system ``extract`` returns,
    which ``verdict`` uses: there freeness is read from the generators
    and fullness at the empty set is not checked.  ``all_fg_sums`` restates
    ``equals_a_plus_inf_a`` in module language.  ``witnesses`` lists
    members provably outside A + inf·A, canonically sorted (so the
    first is the canonically smallest found); it can only be nonempty
    when ``equals_a_plus_inf_a`` is False.
    """

    __slots__ = _fields = ("has_order_unit", "full", "almost_free",
                           "equals_a_plus_inf_a", "all_fg_sums", "witnesses",
                           "verification_bound")

    def __init__(self, has_order_unit: bool, full: bool | None,
                 almost_free: bool | None, equals_a_plus_inf_a: bool | None,
                 all_fg_sums: bool | None, witnesses: tuple,
                 verification_bound: int):
        self._init(has_order_unit, full, almost_free, equals_a_plus_inf_a,
                   all_fg_sums, witnesses, verification_bound)

    def to_json(self) -> dict:
        return {
            "order_unit": self.has_order_unit,
            "full": self.full,
            "almost_free": self.almost_free,
            "equals_a_plus_inf_a": self.equals_a_plus_inf_a,
            "all_fg_sums": self.all_fg_sums,
            "witnesses": [vec_to_json(w) for w in self.witnesses],
            "verification_bound": self.verification_bound,
        }


def equals_a_plus_inf_a(sys: DioSystem, sos: SystemOfSupports | None = None):
    """Decide B = A + inf·A (with B almost-free), returning (flag, witnesses).

    Checks, on the extracted system of supports:
      * the support sets equal the supports of members of the finite
        part (unions of its generator supports, plus the empty set);
      * at every minimal nonempty support, the projected finite part
        generates every unit vector.
    Both hold iff the monoid is A + inf·A and almost-free.  Witness
    candidates come from supports outside the finite support set
    (inject zero), from missing unit vectors (inject them), and from
    family generators not generated by the projected finite part; each
    candidate is kept only if it provably lies in B and outside
    A + inf·A, so the list can be empty in the degenerate case where
    B = A + inf·A without being almost-free.

    The finite part's supports are listed first, so that a refusal there
    names this function, and then compared, as masks in the order of
    ``families``, with the listing of ``sos``.
    """
    if sos is None:
        sos = extract(sys)
    s = sos.s
    gens0 = sos._family(0).gens
    supps = _closed_masks(s, _union_interior(gens0), "equals_a_plus_inf_a")
    masks = sos._masks()
    projected = lambda h: [p for p in _project_all(gens0, 0, h, s) if any(p)]

    witnesses = set()
    cond_supports = masks == supps
    for h in set(masks).difference(supps):
        # inf exactly on H is a member but its infinite support is not a
        # support of the finite part, so it cannot be a1 + inf·a2
        witnesses.update(_inject_all([(0,) * (s - h.bit_count())], h, s))

    cond_projections = True
    for h in _minimal(masks):
        k = s - h.bit_count()
        shadow = projected(h)
        for j in range(k):
            e = unit_vec(k, j + 1)
            # a unit vector is an atom: generated only if it is a generator
            if e not in shadow:
                cond_projections = False
                [w] = _inject_all([e], h, s)
                if is_member(sys, w):
                    witnesses.add(w)

    flag = cond_supports and cond_projections
    if not flag and not witnesses:
        # exhaustive pass: any family generator outside the projected
        # finite part lifts to a genuine member of B \ (A + inf·A)
        for h, basis in sos._families():
            if h:
                shadow = projected(h)
                witnesses.update(_inject_all(
                    [g for g in basis.gens if not _in_generated_finite(shadow, g)], h, s))
    return flag, canonical_sorted(witnesses)


class SingleEquationReport(Record):
    """Closed-form answers for one equation a·t = b·t.

    ``closed_form_applicable`` is False when gcd of all entries
    exceeds 1; the A + inf·A criterion is then left undecided (None)
    and only the general pathway applies.
    """

    __slots__ = _fields = ("has_positive_solution", "almost_free",
                           "equals_a_plus_inf_a", "closed_form_applicable")

    def __init__(self, has_positive_solution: bool, almost_free: bool | None,
                 equals_a_plus_inf_a: bool | None, closed_form_applicable: bool):
        self._init(has_positive_solution, almost_free, equals_a_plus_inf_a,
                   closed_form_applicable)

    def to_json(self) -> dict:
        return {
            "has_positive_solution": self.has_positive_solution,
            "almost_free": self.almost_free,
            "equals_a_plus_inf_a": self.equals_a_plus_inf_a,
            "closed_form_applicable": self.closed_form_applicable,
        }


def analyze_single_equation(a, b) -> SingleEquationReport:
    a, b = tuple(a), tuple(b)
    if len(a) != len(b):
        raise ValueError(f"length mismatch: {len(a)} vs {len(b)}")
    for v in a + b:
        check_int(v, "coefficient", 0)
    if not any(a) or not any(b):
        raise ValueError("both coefficient vectors must be nonzero")
    if a == b:
        raise ValueError("the two sides must differ")
    s = len(a)
    positive = any(x > y for x, y in zip(a, b)) and any(x < y for x, y in zip(a, b))
    almost_free = None
    equals = None
    primitive = math.gcd(*(a + b)) == 1
    if positive:
        almost_free = supp(a) | supp(b) == frozenset(range(1, s + 1))
        if primitive:
            disjoint = not (supp(a) & supp(b))
            all_positive = all(x + y > 0 for x, y in zip(a, b))
            coprime = all(math.gcd(a[i - 1], b[j - 1]) == 1
                          for i in supp(a) for j in supp(b))
            equals = all_positive and disjoint and coprime
    return SingleEquationReport(
        has_positive_solution=positive,
        almost_free=almost_free,
        equals_a_plus_inf_a=equals,
        closed_form_applicable=primitive,
    )


def verdict(sys: DioSystem, bound: int = DEFAULT_FULLNESS_BOUND) -> ClassReport:
    """Full classification of one defining system.

    A missing order-unit is reported in-band (all structural fields
    None).  For single-equation systems the closed form is computed as
    well and any disagreement with the general pathway is an internal
    error.  A negative bound is refused.
    """
    check_int(bound, "verification bound", 0)
    unit = find_order_unit(sys)
    if unit is None:
        return ClassReport(
            has_order_unit=False, full=None, almost_free=None,
            equals_a_plus_inf_a=None, all_fg_sums=None, witnesses=(),
            verification_bound=bound)
    sos = extract(sys)
    full = is_full(sos, bound)
    almost_free = is_almost_free(sos, bound)
    equals, witnesses = equals_a_plus_inf_a(sys, sos)
    report = ClassReport(
        has_order_unit=True, full=full, almost_free=almost_free,
        equals_a_plus_inf_a=equals, all_fg_sums=equals,
        witnesses=witnesses, verification_bound=bound)
    _crosscheck_single_equation(sys, report)
    return report


def _crosscheck_single_equation(sys: DioSystem, report: ClassReport) -> None:
    if sys.n_eq != 1 or sys.n_cg != 0:
        return
    a, b = sys.F[0], sys.G[0]
    if a == b or not any(a) or not any(b):
        return
    closed = analyze_single_equation(a, b)
    if not closed.has_positive_solution:
        return
    if closed.almost_free != report.almost_free:
        raise RuntimeError(
            f"single-equation closed form disagrees on almost_free for {a} = {b}")
    if closed.closed_form_applicable and \
            closed.equals_a_plus_inf_a != report.equals_a_plus_inf_a:
        raise RuntimeError(
            f"single-equation closed form disagrees on A+inf·A for {a} = {b}")
