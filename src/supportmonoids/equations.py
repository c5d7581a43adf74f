"""Solution monoids of linear equations and congruences over N0*.

A system consists of equation rows F·t = G·t and congruence rows
D_i·t ∈ m_i·N0*, all coefficients nonnegative integers and every
modulus m_i > 1.  Its solution set inside (N0*)^s is a submonoid: it
contains 0, is closed under addition, and is closed under scaling
by inf.  A congruence row is satisfied by an infinite value because
inf lies in m·N0* for every m.

The truncated enumerator here is the brute-force oracle the rest of
the package is checked against.
"""

from __future__ import annotations

import itertools

from .errors import ResourceLimitError
from .semiring import (INF, Record, Vec, check_dim, check_int, check_matrix, check_vec, dot,
                       sort_key)

Matrix = tuple  # tuple of row tuples

ENUMERATION_GUARD = 10_000_000  # refuse truncated enumerations beyond this


class DioSystem(Record):
    """A homogeneous system F·t = G·t, D·t ∈ diag(moduli)·N0* over s variables.

    Zero equation and congruence rows are allowed; the solution set is
    then all of (N0*)^s.
    """

    __slots__ = _fields = ("s", "F", "G", "D", "moduli")

    def __init__(self, s: int, F: Matrix = (), G: Matrix = (), D: Matrix = (),
                 moduli: tuple = ()):
        check_dim(s)
        F = check_matrix(F, s, "F")
        G = check_matrix(G, s, "G")
        D = check_matrix(D, s, "D")
        moduli = tuple(moduli)
        if len(F) != len(G):
            raise ValueError("F and G must have the same number of rows")
        if len(D) != len(moduli):
            raise ValueError("one modulus per congruence row required")
        for m in moduli:
            check_int(m, "modulus", 2)
        self._init(s, F, G, D, moduli)

    @property
    def n_eq(self) -> int:
        return len(self.F)

    @property
    def n_cg(self) -> int:
        return len(self.D)

    def to_json(self) -> dict:
        out = {"s": self.s}
        if self.F:
            out["equations"] = {"F": [list(r) for r in self.F],
                                "G": [list(r) for r in self.G]}
        if self.D:
            out["congruences"] = {"D": [list(r) for r in self.D],
                                  "moduli": list(self.moduli)}
        return out

    @classmethod
    def from_json(cls, obj: dict) -> "DioSystem":
        if not isinstance(obj, dict) or "s" not in obj:
            raise ValueError("system JSON must be an object with an 's' key")
        eq, cg = (_rows_object(obj, key) for key in ("equations", "congruences"))
        return cls(s=obj["s"], F=eq.get("F", ()), G=eq.get("G", ()), D=cg.get("D", ()),
                   moduli=cg.get("moduli", ()))


def _rows_object(obj: dict, key: str) -> dict:
    """The object at obj[key] of a system JSON, {} when the key is absent
    or null."""
    rows = obj.get(key)
    if rows is None:
        return {}
    if not isinstance(rows, dict):
        raise ValueError(f"system JSON '{key}' must be an object or null, "
                         f"got {type(rows).__name__}")
    return rows


def is_member(sys: DioSystem, x: Vec) -> bool:
    """Does x solve every equation and congruence row?

    Each side of an equation is evaluated independently in N0* and then
    compared; no cancellation is ever attempted (N0* has none).  A
    congruence row holds when its value is inf or a finite multiple of
    the modulus.  x must be a vector over N0* of length s.
    """
    if len(x) != sys.s:
        raise ValueError(f"vector has length {len(x)}, system has s={sys.s}")
    x = check_vec(x)
    for f, g in zip(sys.F, sys.G):
        if dot(f, x) != dot(g, x):
            return False
    for d, m in zip(sys.D, sys.moduli):
        v = dot(d, x)
        if v is not INF and v % m != 0:
            return False
    return True


def lift_congruences(sys: DioSystem) -> DioSystem:
    """Trade each congruence D_i·t ∈ m_i·N0* for an equation D_i·t = m_i·y_i
    with its own fresh variable y_i.

    The result is an equations-only system over s + n_cg variables whose
    solution set projects onto the original one; on finite solutions
    y_i = (D_i·x) / m_i.
    """
    if not sys.D:
        return sys
    n = sys.n_cg
    pad = (0,) * n
    F = [row + pad for row in sys.F]
    G = [row + pad for row in sys.G]
    for i, (d, m) in enumerate(zip(sys.D, sys.moduli)):
        F.append(d + pad)
        G.append((0,) * sys.s + tuple(m if j == i else 0 for j in range(n)))
    # the rows come from a valid system; only the dimension cap can fail
    return DioSystem._trusted(check_dim(sys.s + n), tuple(F), tuple(G), (), ())


def intersect(sys1: DioSystem, sys2: DioSystem) -> DioSystem:
    """Concatenate rows; the solution set is the intersection of both."""
    if sys1.s != sys2.s:
        raise ValueError(f"dimension mismatch: {sys1.s} vs {sys2.s}")
    return DioSystem(
        s=sys1.s,
        F=sys1.F + sys2.F,
        G=sys1.G + sys2.G,
        D=sys1.D + sys2.D,
        moduli=sys1.moduli + sys2.moduli,
    )


def from_integer_matrix(E, mode: str = "shift-uniform") -> DioSystem:
    """Turn an integer matrix E (negative entries allowed) into a system
    whose finite solutions are exactly {x in N0^s : E·x = 0}.

    Both modes produce rows with every entry strictly positive, so every
    nonempty subset of coordinates is an infinite support and the full
    solution set in (N0*)^s is the largest monoid with that finite part.

    shift-uniform adds the constant h = 1 + max(0, -min entry) to one
    side: (E + h)·t = h·t.  shift-allones splits E into positive and
    negative parts and adds 1 to both: (E⁺ + 1)·t = (E⁻ + 1)·t.
    """
    rows = tuple(tuple(row) for row in E)
    if not rows:
        raise ValueError("E must have at least one row")
    s = len(rows[0])
    rows = check_matrix(rows, s, "E", None)
    if mode == "shift-uniform":
        h = 1 + max(0, -min(v for row in rows for v in row))
        F = tuple(tuple(v + h for v in row) for row in rows)
        G = tuple((h,) * s for _ in rows)
    elif mode == "shift-allones":
        F = tuple(tuple(max(v, 0) + 1 for v in row) for row in rows)
        G = tuple(tuple(max(-v, 0) + 1 for v in row) for row in rows)
    else:
        raise ValueError(f"unknown mode {mode!r}")
    return DioSystem(s=s, F=F, G=G)


def truncated_domain(s: int, bound: int):
    """All vectors with every coordinate in {0, ..., bound, inf}."""
    check_int(bound, "bound", 0)
    size = (bound + 2) ** s
    if size > ENUMERATION_GUARD:
        raise ResourceLimitError(
            f"truncated_domain: (bound+2)^s = {bound + 2}^{s} = {size} points exceed the "
            f"enumeration guard ENUMERATION_GUARD = {ENUMERATION_GUARD}")
    values = tuple(range(bound + 1)) + (INF,)
    return itertools.product(values, repeat=s)


def enumerate_truncated(sys: DioSystem, bound: int) -> list:
    """All solutions with coordinates in {0, ..., bound, inf}, in canonical
    order.  This is the oracle the structural machinery is tested against."""
    return sorted((x for x in truncated_domain(sys.s, bound) if is_member(sys, x)),
                  key=sort_key)
