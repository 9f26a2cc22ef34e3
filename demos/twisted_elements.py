"""The twisted group M(q^2) at the smallest size, q = 3.

Elements are pairs [A, i]: a projective matrix over GF(q^2) together with
a twist bit recording whether det(A) is a non-square.  Multiplying twists
the right factor by the field automorphism, which is what makes the
twisted part behave so differently from PGL.
"""

from collections import Counter
from itertools import product

from twistedmaps import group_order, make_field, order
from twistedmaps.twisted_group import TwElem, in_G, mat_det

F = make_field(3, 2)

# every nonsingular matrix once up to scalars: first nonzero entry 1
matrices = [(1, b, c, d) for b, c, d in product(F.elements(), repeat=3)]
matrices += [(0, 1, c, d) for c, d in product(F.elements(), repeat=2)]
matrices = [A for A in matrices if mat_det(F, A) != 0]

print("|M(9)|     =", group_order(F, "G"))
print("|PSL-type| =", group_order(F, "G0"))
print("|extension by sigma| =", group_order(F, "Gbar"))
print()

# the square of a twisted element is the plain matrix A * A^sigma
A = (4, 1, 0, 2)
x = TwElem(F, A, 1)
sq = x * x
frob = tuple(F.frobenius(e, 1) for e in A)
manual = TwElem(F, (
    F.add(F.mul(A[0], frob[0]), F.mul(A[1], frob[2])),
    F.add(F.mul(A[0], frob[1]), F.mul(A[1], frob[3])),
    F.add(F.mul(A[2], frob[0]), F.mul(A[3], frob[2])),
    F.add(F.mul(A[2], frob[1]), F.mul(A[3], frob[3]))), 0)
assert sq == manual
print("square of a twisted element is A A^sigma, twist bit cleared")

# every twisted element has order divisible by four; at q = 3 only 4 and 8
# occur, split evenly
orders = Counter(order(TwElem(F, A, 1)) for A in matrices
                 if not F.is_square(mat_det(F, A)))
print("orders on the twisted side of M(9):", dict(sorted(orders.items())))
assert set(orders) == {4, 8}

# scalars are invisible: scaling the matrix gives the same element
c = 5
scaled = TwElem(F, tuple(F.mul(c, e) for e in A), 1)
assert scaled == x
print("projective scaling is invisible, as it must be")

# membership bookkeeping: the twist bit is forced by the determinant class
count = sum(1 for A in matrices for i in (0, 1) if in_G(TwElem(F, A, i)))
print("elements of Gbar lying in M(9):", count)
