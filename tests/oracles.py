"""Independent brute-force evaluators the library is checked against.

Everything here is deliberately written from scratch: infinity is the
Python value None, evaluation walks the matrices directly, and closures
are plain breadth-first searches.  Nothing imports the library's
arithmetic, so agreement between the two paths is meaningful.
"""

import itertools
from fractions import Fraction


def o_row_value(row, x):
    """row · x with None as infinity (coefficients are plain ints >= 0)."""
    total = 0
    for c, v in zip(row, x):
        if c == 0:
            continue
        if v is None:
            return None
        total += c * v
    return total


def o_is_member(sysdict, x):
    eq = sysdict.get("equations") or {}
    cg = sysdict.get("congruences") or {}
    for f, g in zip(eq.get("F", ()), eq.get("G", ())):
        if o_row_value(f, x) != o_row_value(g, x):
            return False
    for d, m in zip(cg.get("D", ()), cg.get("moduli", ())):
        v = o_row_value(d, x)
        if v is not None and v % m != 0:
            return False
    return True


def o_domain(s, bound):
    values = tuple(range(bound + 1)) + (None,)
    return itertools.product(values, repeat=s)


def o_solutions(sysdict, bound):
    """All truncated solutions, infinity encoded as None."""
    return {x for x in o_domain(sysdict["s"], bound) if o_is_member(sysdict, x)}


def o_finite_solutions(sysdict, bound):
    return {x for x in o_solutions(sysdict, bound) if None not in x}


def o_minimal(vectors):
    """Inclusion-minimal nonzero elements under the componentwise order."""
    nonzero = [v for v in vectors if any(v)]
    return {v for v in nonzero
            if not any(w != v and all(a <= b for a, b in zip(w, v)) for w in nonzero)}


def o_add(x, y):
    return tuple(None if (a is None or b is None) else a + b for a, b in zip(x, y))


def o_inf_scale(x):
    return tuple(None if v != 0 else 0 for v in x)


def o_in_box(x, bound):
    return all(v is None or v <= bound for v in x)


def o_closure(gens, bound, s):
    """Truncated closure of {0} under adding g and adding inf·g."""
    moves = []
    for g in gens:
        moves.append(tuple(g))
        moves.append(o_inf_scale(g))
    seen = {(0,) * s}
    frontier = [(0,) * s]
    while frontier:
        nxt = []
        for t in frontier:
            for g in moves:
                t2 = o_add(t, g)
                if t2 in seen or not o_in_box(t2, bound):
                    continue
                seen.add(t2)
                nxt.append(t2)
        frontier = nxt
    return seen


def o_finite_closure(gens, bound, s):
    """Truncated closure under plain addition of all-finite generators."""
    seen = {(0,) * s}
    frontier = [(0,) * s]
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
    return seen


def o_has_positive_solution(rows):
    """Do the integer rows have a rational solution t with every t_j >= 1?

    Phase 1 of the simplex method over Fractions with Bland's rule:
    write t = 1 + u with u >= 0, so rows·u = -rows·1, flip each row to a
    nonnegative right side, add one artificial variable per row, and
    minimize their sum; the system is feasible iff that minimum is 0.
    """
    rows = [list(r) for r in rows if any(r)]
    if not rows:
        return True
    n, m = len(rows[0]), len(rows)
    tableau = []
    for i, r in enumerate(rows):
        rhs = -sum(r)
        sign = -1 if rhs < 0 else 1
        tableau.append([Fraction(sign * v) for v in r]
                       + [Fraction(1 if j == i else 0) for j in range(m)]
                       + [Fraction(sign * rhs)])
    basic = list(range(n, n + m))
    width = n + m
    # reduced costs of the artificial objective, its value in the last slot
    reduced = [-sum(row[j] for row in tableau) for j in range(width + 1)]
    for j in range(n, width):
        reduced[j] = Fraction(0)
    while True:
        entering = next((j for j in range(width) if reduced[j] < 0), None)
        if entering is None:
            break
        choice = None
        for i, row in enumerate(tableau):
            if row[entering] > 0:
                key = (row[width] / row[entering], basic[i])
                if choice is None or key < choice[0]:
                    choice = (key, i)
        if choice is None:
            break
        p = choice[1]
        pivot = tableau[p][entering]
        tableau[p] = [v / pivot for v in tableau[p]]
        for i in range(m):
            f = tableau[i][entering]
            if i != p and f:
                tableau[i] = [a - f * b for a, b in zip(tableau[i], tableau[p])]
        f = reduced[entering]
        reduced = [a - f * b for a, b in zip(reduced, tableau[p])]
        basic[p] = entering
    return reduced[width] == 0


def _o_rows(sysdict):
    eq = sysdict.get("equations") or {}
    cg = sysdict.get("congruences") or {}
    diffs = [[f - g for f, g in zip(fr, gr)]
             for fr, gr in zip(eq.get("F", ()), eq.get("G", ()))]
    return diffs, list(zip(cg.get("D", ()), cg.get("moduli", ())))


def o_finite_supports(sysdict):
    """The supports of the finite solutions, as frozensets of 0-based
    columns: H is one iff the columns of H alone have a strictly
    positive rational solution of the equations.  Congruences never
    matter, since scaling by the moduli keeps a solution and its support.
    """
    diffs, _ = _o_rows(sysdict)
    out = []
    for r in range(sysdict["s"] + 1):
        for H in itertools.combinations(range(sysdict["s"]), r):
            if not H or o_has_positive_solution([[d[j] for j in H] for d in diffs]):
                out.append(frozenset(H))
    return out


def o_rank(rows):
    """The rank of integer rows over Q, by Gauss-Jordan elimination on
    Fractions."""
    a = [[Fraction(v) for v in r] for r in rows]
    rank = 0
    for c in range(len(a[0]) if a else 0):
        p = next((i for i in range(rank, len(a)) if a[i][c]), None)
        if p is None:
            continue
        a[rank], a[p] = a[p], a[rank]
        for i in range(len(a)):
            if i != rank and a[i][c]:
                f = a[i][c] / a[rank][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[rank])]
        rank += 1
    return rank


def o_integer_solvable(rows, rhs):
    """Is there an integer vector x (entries of any sign) with rows·x = rhs?

    Unimodular column operations (Euclid on each row in turn) bring the
    matrix to echelon form without changing the lattice its columns
    span; rhs is then peeled off one pivot at a time.
    """
    a = [list(r) for r in rows]
    n = len(a[0]) if a else 0
    pivots = []  # (row, column) of each pivot, in order
    col = 0
    for i, row in enumerate(a):
        for j in range(col + 1, n):
            while row[j]:
                q = row[col] // row[j]
                for r in a:
                    r[col], r[j] = r[j], r[col] - q * r[j]
        if col < n and row[col]:
            pivots.append((i, col))
            col += 1
    res = list(rhs)
    done = 0
    for i in range(len(a)):
        if done < len(pivots) and pivots[done][0] == i:
            c = pivots[done][1]
            q, r = divmod(res[i], a[i][c])
            if r:
                return False
            res = [v - q * row[c] for v, row in zip(res, a)]
            done += 1
        elif res[i]:
            return False
    return True


def o_a_plus_inf_a(sysdict, bound):
    """{a1 + inf·a2 : a1, a2 finite solutions} inside the box.

    Such a vector is inf exactly on H = supp(a2), a support of the
    finite solutions, and equals a1 elsewhere.  A vector y on the other
    coordinates extends to a finite solution iff some integer x_H (any
    sign) completes it to a solution over Z of the equations and the
    congruences: adding a large multiple of a2, which is positive on H
    and zero elsewhere, makes x_H nonnegative.  Both a1 and a2 may need
    entries above the bound on H, so neither is taken from the box.
    """
    s = sysdict["s"]
    diffs, congruences = _o_rows(sysdict)
    out = set()
    for H in o_finite_supports(sysdict):
        rest = [j for j in range(s) if j not in H]
        hs = sorted(H)
        # one fresh integer variable w per congruence: d·x - m·w = 0
        rows = [[d[j] for j in hs] + [0] * len(congruences) for d in diffs]
        rows += [[d[j] for j in hs] + [-m if k == c else 0 for k in range(len(congruences))]
                 for c, (d, m) in enumerate(congruences)]
        lhs = diffs + [d for d, _ in congruences]
        for y in itertools.product(range(bound + 1), repeat=len(rest)):
            rhs = [-sum(r[j] * v for j, v in zip(rest, y)) for r in lhs]
            if o_integer_solvable(rows, rhs):
                z = [None] * s
                for j, v in zip(rest, y):
                    z[j] = v
                out.add(tuple(z))
    return out


# converters at the oracle/library boundary

def from_lib(x, INF):
    return tuple(None if v is INF else v for v in x)


def to_lib(x, INF):
    return tuple(INF if v is None else v for v in x)
