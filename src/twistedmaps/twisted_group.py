"""The twisted linear fractional group M(q^2) and its degree-two extension.

Work happens in Gbar = {[A, i]} with A an invertible 2x2 matrix over
F = GF(q^2) up to scalars and i in {0, 1} a twist bit; multiplication is
(A, i)(B, j) = (A B^{sigma^i}, i + j) where sigma is the order-two
automorphism x -> x^q of F.  Inside Gbar sit

    G0 = {[A, 0] : det A a square}   (the linear fractional group over F),
    G  = {[A, iota(A)]}              (twist bit tied to the square class of det),

with |G0| = q^2(q^4-1)/2, |G| = q^2(q^4-1), |Gbar| = 2 q^2(q^4-1).  G is the
twisted group; its elements with twist bit 1 are the "twisted" elements.

Matrices are 4-tuples (a, b, c, d) of field ints, row-major.
"""

from math import gcd


# ---------------------------------------------------------------------------
# 2x2 matrix helpers over a Field

def mat_mul(F, X, Y):
    a, b, c, d = X
    e, f_, g, h = Y
    return (
        F.add(F.mul(a, e), F.mul(b, g)),
        F.add(F.mul(a, f_), F.mul(b, h)),
        F.add(F.mul(c, e), F.mul(d, g)),
        F.add(F.mul(c, f_), F.mul(d, h)),
    )


def mat_det(F, X):
    a, b, c, d = X
    return F.sub(F.mul(a, d), F.mul(b, c))


def mat_inv(F, X):
    a, b, c, d = X
    det = mat_det(F, X)
    di = F.inv(det)
    return (F.mul(d, di), F.mul(F.neg(b), di), F.mul(F.neg(c), di), F.mul(a, di))


def mat_frob(F, X, k):
    return tuple(F.frobenius(x, k) for x in X)


def char_roots(x):
    """(M, roots): a twisted x = [A, 1] squares to [M, 0], M = A A^sigma,
    and roots are the roots (l1, l2) of M's characteristic polynomial, or
    None if repeated.  Its coefficients lie in GF(q), so its roots lie in F."""
    F = x.F
    M = mat_mul(F, x.matrix, mat_frob(F, x.matrix, F.m // 2))
    tr = F.add(M[0], M[3])
    disc = F.sub(F.mul(tr, tr), F.mul(4 % F.p, mat_det(F, M)))
    if disc == 0:
        return M, None
    s = F.sqrt(disc)
    assert s is not None, "characteristic roots must lie in the field"
    half = F.inv(2 % F.p)
    return M, (F.mul(F.add(tr, s), half), F.mul(F.sub(tr, s), half))


# ---------------------------------------------------------------------------

class TwElem:
    """An element [A, i] of Gbar, stored with A scaled so its first nonzero
    entry (row-major) is 1.  The field must have even extension degree."""

    __slots__ = ("F", "matrix", "i")

    def __init__(self, F, A, i):
        assert F.m % 2 == 0, "Gbar needs a quadratic extension field"
        a, b, c, d = A
        lead = a or b or c or d
        if lead == 0:
            raise ValueError("zero matrix")
        if lead != 1:
            s = F.inv(lead)
            a, b, c, d = F.mul(a, s), F.mul(b, s), F.mul(c, s), F.mul(d, s)
        if F.sub(F.mul(a, d), F.mul(b, c)) == 0:
            raise ValueError("singular matrix")
        self.F = F
        self.matrix = (a, b, c, d)
        self.i = i & 1

    def __mul__(self, other):
        F = self.F
        Y = other.matrix
        if self.i:
            Y = mat_frob(F, Y, F.m // 2)
        return TwElem(F, mat_mul(F, self.matrix, Y), self.i ^ other.i)

    def inv(self):
        F = self.F
        P = self.matrix
        if self.i:
            P = mat_frob(F, P, F.m // 2)
        return TwElem(F, mat_inv(F, P), self.i)

    def is_identity(self):
        return self.i == 0 and self.matrix == (1, 0, 0, 1)

    def __eq__(self, other):
        return (self.F is other.F and self.i == other.i
                and self.matrix == other.matrix)

    def __hash__(self):
        return hash((self.matrix, self.i))

    def __repr__(self):
        F = self.F
        return f"[{tuple(F.coeffs(x) for x in self.matrix)}, {self.i}]"


def iota(F, A):
    """Twist bit forced on matrix part A inside the twisted group: 0 for
    square determinant, 1 for non-square."""
    det = mat_det(F, A)
    if det == 0:
        raise ValueError("singular matrix")
    return 0 if F.is_square(det) else 1


def conjugate(x, g):
    return g.inv() * x * g


def in_G(x):
    return x.i == iota(x.F, x.matrix)


def group_order(F, which="G"):
    s = F.size  # q^2
    base = s * (s * s - 1)
    return {"G0": base // 2, "G": base, "Gbar": 2 * base}[which]


def order(x):
    """Order of a twisted x = [A, 1].  x squares to [M, 0], M = A A^sigma,
    and when the characteristic roots l1, l2 of M are distinct, M is
    projectively dia(l1/l2, 1), so order(x) = 2 ord(l1/l2).  An untwisted x
    or a repeated root, which only elements of Gbar outside G have, raises
    ValueError; tests/reference.py::naive_order takes any element."""
    F = x.F
    if not x.i:
        raise ValueError("order needs a twisted element")
    _, roots = char_roots(x)
    if roots is None:
        raise ValueError("A A^sigma has a repeated root")
    n = F.size - 1
    return 2 * n // gcd(n, F.dlog(F.div(*roots)))
