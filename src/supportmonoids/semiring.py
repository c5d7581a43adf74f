"""Exact arithmetic over the extended naturals N0* = {0, 1, 2, ...} ∪ {inf}.

Addition and multiplication extend the usual ones on the nonnegative
integers by the absorption rules

    x + inf = inf + x = inf        for every x,
    x * inf = inf * x = inf        for every x != 0,
    0 * inf = inf * 0 = 0.

With these rules N0* is a commutative semiring; there is no subtraction
and no cancellation (x + inf = y + inf for all x, y).

Values are plain Python ints (arbitrary precision, so no overflow) or
the unique sentinel ``INF``:

>>> INF + 3
INF
>>> 0 * INF
0
>>> 4 * INF
INF

Vectors over N0* are plain tuples, coordinates indexed 1..s in every
user-facing index set.  Index sets are frozensets of 1-based ints:

>>> vec_add((1, 0, 0), (0, 1, 1))
(1, 1, 1)
>>> scale(INF, (0, 1, 1))
(0, INF, INF)
>>> supports((INF, 1, 0))
(frozenset({1, 2}), frozenset({1}))

The text encoding uses the token "inf" (case-insensitive) and commas:

>>> parse_vec("1,inf,0")
(1, INF, 0)
>>> format_vec((1, INF, 0))
'1,inf,0'

Everything in this module is immutable and pure; values can be shared
freely between threads.

``check_vec`` and its list form ``check_vecs`` hold the one entry test
that every public query of the other modules applies to outside input;
``check_matrix`` is the one test of integer rows (equations, shadow
maps, rank data), and ``check_int`` of a count, every bound included.
The arithmetic and format helpers (``vec_add``, ``scale``, ``divides``,
``supp``, ``project``, ``inject``, ...) leave entries unchecked, not
shapes: ``project`` and ``inject`` test their index set, and
``vec_add``, ``dot`` and ``divides`` refuse vectors of unequal lengths.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Iterable, Union

MAX_DIM = 24  # subset enumeration must stay tractable; rejected at parse time


class _Infinity:
    """The unique infinite element of N0*.  Use the module constant INF."""

    __slots__ = ()

    def __add__(self, other):
        if isinstance(other, int) or other is self:
            return self
        return NotImplemented

    __radd__ = __add__

    def __mul__(self, other):
        if other is self:
            return self
        if isinstance(other, int):
            return 0 if other == 0 else self
        return NotImplemented

    __rmul__ = __mul__

    # Total order with every finite value below INF.
    def __lt__(self, other):
        return False

    def __le__(self, other):
        return other is self

    def __gt__(self, other):
        return isinstance(other, int)

    def __ge__(self, other):
        return isinstance(other, int) or other is self

    def __eq__(self, other):
        return other is self

    # Equality is identity, so the identity hash agrees with it, and it
    # runs in C on every set or dict lookup of a vector with an inf entry.
    __hash__ = object.__hash__

    def __repr__(self):
        return "INF"

    def __str__(self):
        return "inf"

    def __reduce__(self):  # pickle back to the singleton
        return (_restore_inf, ())


def _restore_inf():
    return INF


INF = _Infinity()

ExtNat = Union[int, _Infinity]
Vec = tuple  # tuple of ExtNat
IndexSet = frozenset  # frozenset of 1-based ints


class Record:
    """Base of the package's immutable value classes.

    A subclass names its fields in ``_fields`` and stores them, once
    validated, with ``_init`` at the end of its own ``__init__``.  Equal
    means same class and equal fields; the hash and the
    ``Name(field=...)`` repr follow the fields too.  Assignment raises
    AttributeError.

    Input is validated once, at the boundary.  The public constructor,
    pickling and copying go through ``__init__``, which checks every
    field, and the loaders (``from_json``, ``from_generators``) check
    every raw entry they are given.  ``_trusted`` skips the checks; it
    is only for objects the library builds itself from values already
    in normal form (subsystems, computed bases), so every such object
    equals ``type(r)(*r._values())``.  A ``SystemOfSupports`` is stored
    the same way by both kinds of constructor (see its docstring).
    """

    __slots__ = ()
    _fields: tuple = ()

    @classmethod
    def _trusted(cls, *values):
        """An instance holding ``values`` as they are, without validation."""
        self = object.__new__(cls)
        self._init(*values)
        return self

    def _init(self, *values) -> None:
        for name, value in zip(self._fields, values, strict=True):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        body = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({body})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return (self.__class__, self._values())


def add(a: ExtNat, b: ExtNat) -> ExtNat:
    """a + b in N0*; any infinite operand makes the sum infinite."""
    return a + b


def mul(a: ExtNat, b: ExtNat) -> ExtNat:
    """a * b in N0*; note 0 * inf = 0 while inf * x = inf for x != 0."""
    return a * b


def check_int(v, what: str, least: int | None = None) -> int:
    """Return v after checking that it is an int (a bool is refused) and,
    when ``least`` is given, that it is at least ``least``."""
    if isinstance(v, bool) or not isinstance(v, int):
        raise ValueError(f"{what}: expected an integer, got {v!r}")
    if least is not None and v < least:
        raise ValueError(f"{what}: expected at least {least}, got {v}")
    return v


def check_dim(s, least: int = 1) -> int:
    """Return s after checking that it is an int in least..MAX_DIM."""
    if check_int(s, "dimension", least) > MAX_DIM:
        raise ValueError(f"dimension {s} exceeds the supported maximum {MAX_DIM}")
    return s


def _check_entries(t: tuple, what: str) -> tuple:
    """t, after checking that every entry is inf or an int >= 0 (no bool)."""
    for v in t:
        if v is not INF and (type(v) is not int or v < 0):
            check_int(v, what, 0)  # raises, or accepts an int subclass
    return t


def check_vec(x: Iterable, what="vector") -> Vec:
    """Validate and normalize a vector over N0* to a tuple."""
    t = _check_entries(tuple(x), what)
    if not t:
        raise ValueError(f"{what} must have length >= 1")
    if len(t) > MAX_DIM:
        raise ValueError(f"{what} longer than the supported maximum of {MAX_DIM}")
    return t


def check_vecs(vecs: Iterable, n: int, what="generator") -> list:
    """The list form of ``check_vec``: vectors over N0*, each of length n
    in 0..MAX_DIM, as tuples; a vector of another length is named."""
    check_dim(n, 0)
    out = []
    for x in vecs:
        t = tuple(x)
        if len(t) != n:
            raise ValueError(f"{what} {t} has length {len(t)}, expected {n}")
        out.append(_check_entries(t, f"{what} entry"))
    return out


def check_matrix(rows: Iterable, s: int, what: str, least: int | None = 0) -> tuple:
    """Integer rows of length s, as a tuple of tuples, each entry at
    least ``least`` (any int when it is None); the row and the entry
    that fail are named."""
    entry, out = f"{what} entry", []
    for r, row in enumerate(rows):
        row = tuple(row)
        if len(row) != s:
            raise ValueError(f"{what} row {r} has length {len(row)}, expected {s}")
        for v in row:
            check_int(v, entry, least)
        out.append(row)
    return tuple(out)


def check_index_set(H: Iterable[int], s: int) -> IndexSet:
    """Validate a subset of {1, ..., s}."""
    Hs = frozenset(H)
    for i in Hs:
        if isinstance(i, bool) or not isinstance(i, int) or not 1 <= i <= s:
            raise ValueError(f"index {i!r} outside 1..{s}")
    return Hs


def vec_add(x: Vec, y: Vec) -> Vec:
    if len(x) != len(y):
        raise ValueError(f"length mismatch: {len(x)} vs {len(y)}")
    return tuple(add(a, b) for a, b in zip(x, y))


def scale(c: ExtNat, x: Vec) -> Vec:
    return tuple(mul(c, v) for v in x)


def dot(row: tuple, x: Vec) -> ExtNat:
    """Row of nonnegative int coefficients times a vector, in N0*."""
    if len(row) != len(x):
        raise ValueError(f"length mismatch: {len(row)} vs {len(x)}")
    total = 0
    for r, v in zip(row, x):
        if r == 0:
            continue
        if v is INF:
            return INF
        total += r * v
    return total


def supp(x: Vec) -> IndexSet:
    """Indices (1-based) where x is nonzero."""
    return frozenset(i for i, v in enumerate(x, 1) if v != 0)


def _mask(H) -> int:
    """The mask of a set of coordinates: bit i - 1 for coordinate i."""
    return sum(1 << (i - 1) for i in H)


def _supp_mask(x) -> int:
    """Where x is nonzero, as an int mask: bit i - 1 for coordinate i."""
    return sum(1 << j for j, v in enumerate(x) if v)


def inf_supp(x: Vec) -> IndexSet:
    """Indices (1-based) where x is infinite."""
    return frozenset(i for i, v in enumerate(x, 1) if v is INF)


def supports(x: Vec) -> tuple[IndexSet, IndexSet]:
    """(support, infinite support); the second is contained in the first."""
    return supp(x), inf_supp(x)


def divides(x: Vec, y: Vec) -> bool:
    """True iff some z in (N0*)^s has x + z = y.

    Coordinatewise: y_i infinite (anything absorbs), or both finite
    with x_i <= y_i.
    """
    if len(x) != len(y):
        raise ValueError(f"length mismatch: {len(x)} vs {len(y)}")
    for a, b in zip(x, y):
        if b is INF:
            continue
        if a is INF or a > b:
            return False
    return True


def project(x: Vec, H: Iterable[int]) -> Vec:
    """Drop the coordinates in H (1-based), keeping the rest in order."""
    x = tuple(x)
    [out] = _project_all([x], 0, _mask(check_index_set(H, len(x))), len(x))
    return out


def inject(x: Vec, H: Iterable[int]) -> Vec:
    """Place inf on the coordinates in H and x on the complement.

    The ambient length is len(x) + len(H); project(inject(x, H), H) == x.
    """
    Hs = frozenset(H)
    s = len(x) + len(Hs)
    [out] = _inject_all([tuple(x)], _mask(check_index_set(Hs, s)), s)
    return out


def _inject_all(xs, h: int, s: int) -> list:
    """[inject(x, H) for x in xs], for the set H of coordinates of the
    mask h < 2^s (bit i - 1 for coordinate i) and xs of length s - |H|."""
    k = s - h.bit_count()
    if not h:
        return list(xs)
    if not k:
        return [(INF,) * s for _ in xs]
    slots = iter(range(k))
    # s >= 2 here, so the getter returns a tuple; index k is the pad
    pick = itemgetter(*(k if h >> j & 1 else next(slots) for j in range(s)))
    pad = (INF,)
    return [pick(x + pad) for x in xs]


def _project_all(xs, k: int, h: int, s: int) -> list:
    """The vectors xs over the complement of the mask k with the
    coordinates of the mask h dropped, for masks k ⊆ h < 2^s: each x
    lists the coordinates outside k in ascending order, and each result
    those outside h.  [project(x, H) for x in xs] when k is 0."""
    if h == k or not xs:
        return list(xs)
    # coordinate j + 1 sits at entry j minus the bits of k below bit j
    keep = [j - (k & ~(-1 << j)).bit_count() for j in range(s) if not h >> j & 1]
    if not keep:
        return [() for _ in xs]
    if len(keep) == 1:  # a getter of one index returns the entry, not a tuple
        [p] = keep
        return [(x[p],) for x in xs]
    pick = itemgetter(*keep)
    return [pick(x) for x in xs]


def unit_vec(s: int, i: int) -> Vec:
    return tuple(1 if j == i else 0 for j in range(1, s + 1))


def sort_key(x: Vec):
    """Canonical total order: coordinatewise, every finite value below inf,
    ties broken left to right.  Used everywhere output must be deterministic."""
    return tuple((1, 0) if v is INF else (0, v) for v in x)


def canonical_sorted(vecs: Iterable[Vec]) -> tuple[Vec, ...]:
    return tuple(sorted(set(vecs), key=sort_key))


# -- text and JSON encoding -------------------------------------------------

def parse_extnat(token: str) -> ExtNat:
    t = token.strip()
    if t.lower() == "inf":
        return INF
    if not (t.isascii() and t.isdigit()):
        raise ValueError(f"cannot parse {token!r} as a nonnegative integer or 'inf'")
    return int(t)


def format_extnat(a: ExtNat) -> str:
    return "inf" if a is INF else str(a)


def parse_vec(text: str) -> Vec:
    return check_vec(parse_extnat(tok) for tok in text.split(","))


def format_vec(x: Vec) -> str:
    return ",".join(format_extnat(v) for v in x)


def vec_to_json(x: Vec) -> list:
    return ["inf" if v is INF else v for v in x]


def vec_from_json(obj) -> Vec:
    """A JSON array of nonnegative ints and "inf" tokens as a vector.

    One pass accepts plain nonnegative ints and the exact token "inf";
    an array holding anything else (other spellings of inf, digit
    strings, invalid entries), or of a length out of range, takes the
    general parse, which raises the same errors as ever.
    """
    if not isinstance(obj, (list, tuple)):
        raise ValueError(f"vector must be a JSON array, got {obj!r}")
    out = []
    for v in obj:
        if v.__class__ is int and v >= 0:
            out.append(v)
        elif v.__class__ is str and v == "inf":
            out.append(INF)
        else:
            return _parse_json_vec(obj)
    if not out or len(out) > MAX_DIM:
        return _parse_json_vec(obj)
    return tuple(out)


def _parse_json_vec(obj) -> Vec:
    return check_vec(parse_extnat(v) if isinstance(v, str) else v for v in obj)
