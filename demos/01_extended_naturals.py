"""A tour of arithmetic in the extended naturals N0* = N0 ∪ {inf}.

The whole library runs on this little semiring: addition absorbs into
inf, multiplication by inf keeps everything infinite except 0, and
0·inf = 0.  That last rule is what lets "inf copies of nothing" be
nothing.
"""

from supportmonoids import INF, add, divides, mul, parse_vec, scale, support_pair, vec_add

print("-- scalars ------------------------------------------------")
print("2 + 3      =", add(2, 3))
print("inf + 3    =", add(INF, 3))
print("0 * inf    =", mul(0, INF))
print("4 * inf    =", mul(4, INF))

print()
print("-- vectors ------------------------------------------------")
x = parse_vec("1,0,0")
y = parse_vec("0,1,1")
print("x + y         =", vec_add(x, y))
print("inf * y       =", scale(INF, y))
print("inf*x + y     =", vec_add(scale(INF, x), y))

print()
print("-- supports -----------------------------------------------")
z = parse_vec("inf,1,0")
s, infs = support_pair(z)
print("vector        =", z)
print("support       =", sorted(s))
print("inf-support   =", sorted(infs))

print()
print("-- divisibility (x | y iff some z has x + z = y) ----------")
print("(1,2) | (3,2)   ->", divides((1, 2), (3, 2)))
print("(5,inf)|(3,inf) ->", divides((5, INF), (3, INF)))
print("(7,0) | (inf,0) ->", divides((7, 0), (INF, 0)), " (use z = (inf, 0))")
