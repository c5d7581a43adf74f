"""Completion-side data: local ranks of indecomposables over minimal primes.

A rank matrix records, for each minimal prime of the completed base and
each indecomposable summand, the local rank of that summand.  A
countably generated direct sum with multiplicity vector x descends to
the base exactly when its weighted rank a_j·x agrees over all primes j,
so the descendable multiplicity vectors form the solution monoid of the
pairwise-equality system; one row per prime beyond the first suffices
because equality in N0* is transitive.

``realize_wiegand`` runs the construction the other way: given an
integer matrix E it produces a rank matrix whose descendable vectors
form the largest monoid with finite part {x in N0^s : E·x = 0}.

These computations take the rank data at face value; that the
completion is reduced and the module torsion-free are assumptions
recorded in serialized output, not checkable from a matrix.
"""

from __future__ import annotations

from .equations import DioSystem, from_integer_matrix, is_member
from .errors import MissingOrderUnitError
from .hilbert import find_order_unit
from .semiring import Record, Vec, check_matrix

ASSUMPTIONS = ("reduced completion", "finitely generated torsion-free module")


class RankMatrix(Record):
    """a[j][i] = rank at minimal prime j of the i-th indecomposable.

    At least two primes; no indecomposable may vanish at every prime.
    """

    __slots__ = _fields = ("a", "labels")

    def __init__(self, a: tuple, labels: tuple | None = None):
        rows = tuple(tuple(r) for r in a)
        if len(rows) < 2:
            raise ValueError("a rank matrix needs at least two minimal primes")
        width = len(rows[0])
        if width < 1:
            raise ValueError("a rank matrix needs at least one indecomposable")
        rows = check_matrix(rows, width, "rank")
        for i in range(width):
            if all(row[i] == 0 for row in rows):
                raise ValueError(f"column {i + 1} is zero: every summand must be nonzero")
        if labels is not None:
            labels = tuple(str(x) for x in labels)
            if len(labels) != width:
                raise ValueError("one label per indecomposable required")
        self._init(rows, labels)

    @property
    def primes(self) -> int:
        return len(self.a)

    @property
    def s(self) -> int:
        return len(self.a[0])

    def to_json(self) -> dict:
        out = {"s": self.s, "primes": self.primes, "a": [list(r) for r in self.a]}
        if self.labels is not None:
            out["labels"] = list(self.labels)
        return out

    @classmethod
    def from_json(cls, obj: dict) -> "RankMatrix":
        if not isinstance(obj, dict) or "a" not in obj:
            raise ValueError("rank-matrix JSON needs key 'a'")
        # tuple() refuses a null "labels", which would otherwise mean none
        rm = cls(a=obj["a"], labels=tuple(obj["labels"]) if "labels" in obj else None)
        if "s" in obj and obj["s"] != rm.s:
            raise ValueError(f"declared s={obj['s']} but matrix has {rm.s} columns")
        if "primes" in obj and obj["primes"] != rm.primes:
            raise ValueError(f"declared primes={obj['primes']} but matrix has {rm.primes} rows")
        return rm


def vstar_system(rm: RankMatrix) -> DioSystem:
    """The equations a_1·x = a_k·x (k = 2, ..., primes) cutting out the
    descendable multiplicity vectors; trivially equal row pairs are
    dropped."""
    F, G = [], []
    first = rm.a[0]
    for row in rm.a[1:]:
        if row == first:
            continue
        F.append(first)
        G.append(row)
    return DioSystem(s=rm.s, F=tuple(F), G=tuple(G))


def is_extended(rm: RankMatrix, x: Vec) -> bool:
    """Do the weighted ranks of x, a vector over N0* of length s, agree
    at every minimal prime, that is, does x solve ``vstar_system(rm)``?"""
    if len(x) != rm.s:
        raise ValueError(f"vector has length {len(x)}, expected {rm.s}")
    return is_member(vstar_system(rm), x)


def realize_wiegand(E) -> tuple[RankMatrix, DioSystem]:
    """Rank data realizing the largest monoid over the finite part
    {x in N0^s : E·x = 0}.

    With M = 1 + max(0, -min(E)) and pairwise distinct shifts
    h_i = M + i, the rank of summand i is e_{ji} + h_i at prime
    j <= rows(E) and h_i at one extra prime; all ranks are strictly
    positive, so any vector with an infinite entry descends.
    Requires a strictly positive finite solution of E·x = 0.
    """
    rows = tuple(tuple(r) for r in E)
    finite_part = from_integer_matrix(rows)
    s = finite_part.s
    if find_order_unit(finite_part) is None:
        raise MissingOrderUnitError("E·x = 0 has no strictly positive solution")
    M = 1 + max(0, -min(v for row in rows for v in row))
    h = tuple(M + i for i in range(1, s + 1))
    rank_rows = [tuple(v + h[i] for i, v in enumerate(row)) for row in rows]
    rank_rows.append(h)
    rm = RankMatrix(a=tuple(rank_rows))
    return rm, vstar_system(rm)
