"""Reference answers the benchmark checks the library against.

Nothing here imports ``supportmonoids``.  The brute-force evaluators come
from ``tests/oracles.py`` (loaded read-only, infinity encoded as None);
the rest restates closed forms and definitions from the package's
docstrings so that a wrong library answer cannot also be the reference.
"""

from __future__ import annotations

import importlib.util
import itertools
import math
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _load_oracles():
    spec = importlib.util.spec_from_file_location(
        "perfbench_oracles", ROOT / "tests" / "oracles.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


oracles = _load_oracles()


def from_json_vec(v):
    """JSON vector ("inf" for infinity) to the oracle encoding (None)."""
    return tuple(None if x == "inf" else x for x in v)


def to_json_vec(v):
    return ["inf" if x is None else x for x in v]


def supp(v):
    return frozenset(i for i, x in enumerate(v, 1) if x != 0)


# -- order units --------------------------------------------------------------

def has_positive_solution(sysdict) -> bool:
    """Does the system have a strictly positive finite solution?

    Congruences never matter (scale any solution by the product of the
    moduli), so this is feasibility of (F - G)·t = 0, t >= 1, decided
    exactly by a phase-1 simplex over the rationals with Bland's rule.
    """
    eq = sysdict.get("equations") or {}
    rows = [[f - g for f, g in zip(fr, gr)]
            for fr, gr in zip(eq.get("F", ()), eq.get("G", ()))]
    rows = [r for r in rows if any(r)]
    if not rows:
        return True
    n, m = len(rows[0]), len(rows)
    # t = 1 + u with u >= 0, so rows·u = -rows·1; make every right side >= 0
    tab = []
    for i, r in enumerate(rows):
        b = -sum(r)
        sign = -1 if b < 0 else 1
        tab.append([Fraction(sign * v) for v in r]
                   + [Fraction(int(j == i)) for j in range(m)]
                   + [Fraction(sign * b)])
    basis = [n + i for i in range(m)]
    width = n + m
    cost = [-sum(tab[i][j] for i in range(m)) for j in range(width + 1)]
    for j in range(n, width):
        cost[j] = Fraction(0)
    while True:
        enter = next((j for j in range(width) if cost[j] < 0), None)
        if enter is None:
            return cost[width] == 0
        best = None
        for i in range(m):
            if tab[i][enter] > 0:
                key = (tab[i][width] / tab[i][enter], basis[i])
                if best is None or key < best[0]:
                    best = (key, i)
        if best is None:  # unbounded is impossible for a phase-1 objective
            return cost[width] == 0
        p = best[1]
        pivot = tab[p][enter]
        tab[p] = [v / pivot for v in tab[p]]
        for i in range(m):
            if i != p and tab[i][enter] != 0:
                f = tab[i][enter]
                tab[i] = [a - f * b for a, b in zip(tab[i], tab[p])]
        f = cost[enter]
        cost = [a - f * b for a, b in zip(cost, tab[p])]
        basis[p] = enter


# -- single equations ---------------------------------------------------------

def single_equation_closed_form(a, b) -> dict:
    """The closed form of ``classify.analyze_single_equation`` for a
    primitive pair whose difference changes sign: positive solutions
    exist, the supports are almost-free iff supp(a) ∪ supp(b) covers
    every coordinate, and B = A + inf·A iff in addition supp(a) and
    supp(b) are disjoint and gcd(a_i, b_j) = 1 across them."""
    s = len(a)
    sa, sb = supp(a), supp(b)
    almost_free = sa | sb == frozenset(range(1, s + 1))
    equals = (almost_free and not (sa & sb)
              and all(math.gcd(a[i - 1], b[j - 1]) == 1 for i in sa for j in sb))
    return {"order_unit": True, "full": True, "almost_free": almost_free,
            "equals_a_plus_inf_a": equals}


# -- truncated member sets of systems of supports ----------------------------

def _inject(y, H, s):
    it = iter(y)
    return tuple(None if i in H else next(it) for i in range(1, s + 1))


def _free_box(k, bound):
    return itertools.product(range(bound + 1), repeat=k)


def sos_members(sos_json, bound) -> frozenset:
    """Members of a serialized system of supports with every coordinate
    in {0, ..., bound, inf}: inf on H, a member of A_H elsewhere."""
    s = sos_json["s"]
    out = set()
    for fam in sos_json["supports"]:
        H = frozenset(fam["H"])
        k = s - len(H)
        for y in oracles.o_finite_closure([tuple(g) for g in fam["basis"]], bound, k):
            out.add(_inject(y, H, s))
    return frozenset(out)


def _support_unions(gens):
    out = {frozenset()}
    for g in gens:
        out |= {H | supp(g) for H in out}
    return out


def construction_members(cmd, gens, bound) -> frozenset:
    """Truncated members of A + inf·A, b_min(A) or b_max(A) from their
    definitions, A generated by ``gens``.

    A + inf·A: supports are unions of generator supports, and the
    family at H is generated by the projections of the generators.
    b_min: supports are the empty set and every superset of a generator
    support; every nonempty family is free.  b_max: every subset is a
    support and every nonempty family is free.
    """
    s = len(gens[0])
    full = range(1, s + 1)
    out = set(oracles.o_finite_closure(gens, bound, s))
    if cmd == "aplusinfa":
        for H in _support_unions(gens) - {frozenset()}:
            keep = [i for i in full if i not in H]
            proj = [tuple(g[i - 1] for i in keep) for g in gens]
            for y in oracles.o_finite_closure(proj, bound, len(keep)):
                out.add(_inject(y, H, s))
        return frozenset(out)
    for r in range(1, s + 1):
        for combo in itertools.combinations(full, r):
            H = frozenset(combo)
            if cmd == "bmin" and not any(H >= supp(g) for g in gens):
                continue
            for y in _free_box(s - r, bound):
                out.add(_inject(y, H, s))
    return frozenset(out)


# -- completion descent -------------------------------------------------------

def wiegand_ranks(E):
    """The rank matrix ``ranks.realize_wiegand`` documents: shifts
    h_i = M + i with M = 1 + max(0, -min E), rows e_j + h, then h."""
    s = len(E[0])
    M = 1 + max(0, -min(v for row in E for v in row))
    h = [M + i for i in range(1, s + 1)]
    return [[v + h[i] for i, v in enumerate(row)] for row in E] + [h]


def descent_system(ranks):
    """a_1·x = a_k·x for every prime k whose row differs from the first."""
    first = ranks[0]
    rows = [r for r in ranks[1:] if r != first]
    out = {"s": len(first)}
    if rows:
        out["equations"] = {"F": [list(first)] * len(rows),
                            "G": [list(r) for r in rows]}
    return out


def descends(ranks, x) -> bool:
    values = [oracles.o_row_value(row, x) for row in ranks]
    return all(v == values[0] for v in values)
