"""Canonical forms of twisted elements under conjugation in Gbar.

Every twisted element x = [A, 1] of M(q^2) is Gbar-conjugate to exactly one
of the representatives

    dia-form:  [dia(xi^i, 1), 1],  i odd,  1 <= i <= (q-1)/2,
    off-form:  [off(xi^i, 1), 1],  i odd,  1 <= i <= (q+1)/2,

where dia(x, y) is the diagonal and off(x, y) the antidiagonal matrix with
those entries and xi generates GF(q^2)^*.  Which form applies is decided by
M = A A^sigma: its characteristic polynomial has coefficients in F0 = GF(q),
so its two (always distinct) roots either both lie in F0 (dia) or form a
sigma-conjugate pair (off).

The classes i = (q-1)/2 (dia, q = 3 mod 4) and i = (q+1)/2 (off, q = 1 mod 4)
are exceptional: the representative has order 4 and its centralizer in Gbar
is twice the generic size.
"""

from dataclasses import dataclass
from math import gcd

from .twisted_group import (TwElem, char_roots, conjugate, in_G, mat_frob,
                            mat_inv, mat_mul)


@dataclass(frozen=True, order=True)
class CanonClass:
    form: str  # "dia" or "off"
    i: int

    def __post_init__(self):
        assert self.form in ("dia", "off") and self.i % 2 == 1


def _modulus_for(c, q):
    return q - 1 if c.form == "dia" else q + 1


def all_classes(q):
    out = [CanonClass("dia", i) for i in range(1, (q - 1) // 2 + 1, 2)]
    out += [CanonClass("off", i) for i in range(1, (q + 1) // 2 + 1, 2)]
    return out


def is_exceptional(c, q):
    return 2 * c.i == _modulus_for(c, q)


def canonical_rep(c, F):
    lam = F.pow(F.xi, c.i)
    if c.form == "dia":
        return TwElem(F, (lam, 0, 0, 1), 1)
    return TwElem(F, (0, lam, 1, 0), 1)


def canonical_order(c, q):
    m0 = _modulus_for(c, q)
    return 2 * m0 // gcd(m0, c.i)


def stabilizer_size(c, q):
    m0 = _modulus_for(c, q)
    return 4 * m0 if is_exceptional(c, q) else 2 * m0


def class_size(c, q):
    return 2 * q * q * (q ** 4 - 1) // stabilizer_size(c, q)


# ---------------------------------------------------------------------------

def _eigenvector(F, M, lam):
    a, b, c, d = M
    v = (b, F.sub(lam, a))
    if v == (0, 0):
        v = (F.sub(lam, d), c)
    assert v != (0, 0)
    return v


def _class_of_square(x):
    """(class, M, roots): M = A A^sigma of a twisted x = [A, 1], its
    characteristic roots l1, l2, and the class they name.  dia(lam, 1)
    squares to dia(lam^(q+1), 1) and off(lam, 1) to dia(lam, lam^q), so
    r = dlog(l1/l2) is +-j(q+1) with roots in F0 and -+j(q-1) otherwise,
    lam = xi^j; j mod m0 and -j fold to one i."""
    F = x.F
    assert x.i == 1 and in_G(x), "canonical form needs a twisted group element"
    f = F.m // 2
    q = F.p ** f
    M, roots = char_roots(x)
    assert roots is not None, "characteristic roots must be distinct"
    l1, l2 = roots
    dia = F.frobenius(l1, f) == l1
    m0, step = (q - 1, q + 1) if dia else (q + 1, q - 1)
    r = F.dlog(F.div(l1, l2))
    assert r % step == 0, "root ratio must be a power of lam^(q-+1)"
    j = r // step % m0
    return CanonClass("dia" if dia else "off", min(j, m0 - j)), M, roots


def twisted_class(x):
    """canonical_form's class of x, read from the roots of A A^sigma alone."""
    return _class_of_square(x)[0]


def canonical_form(x):
    """(CanonClass, witness) with conjugate(x, witness) == canonical_rep.

    Defined for twisted elements of the twisted group (twist bit 1,
    non-square determinant).  The class is twisted_class(x).
    """
    c, M, (l1, l2) = _class_of_square(x)
    F = x.F
    f = F.m // 2
    n = F.size - 1
    m0 = _modulus_for(c, F.p ** f)

    u1 = _eigenvector(F, M, l1)
    u2 = _eigenvector(F, M, l2)
    P = (u1[0], u2[0], u1[1], u2[1])
    B = mat_mul(F, mat_inv(F, P), mat_mul(F, x.matrix, mat_frob(F, P, f)))

    if c.form == "dia":
        assert F.frobenius(l2, f) == l2
        assert B[1] == 0 and B[2] == 0, "dia case must diagonalize"
        lam_b = F.div(B[0], B[3])
    else:
        assert F.frobenius(l1, f) == l2
        assert B[0] == 0 and B[3] == 0, "off case must antidiagonalize"
        lam_b = F.div(B[1], B[2])

    j = F.dlog(lam_b)
    assert j % 2 == 1, "twisted canonical parameter must be a non-square"

    # second-stage conjugator moving exponent j onto the representative i
    # (diagonal when j = i mod m0, antidiagonal when j = -i mod m0)
    i = c.i
    same = (j - i) % m0 == 0
    assert same or (j + i) % m0 == 0, "exponent must fold to the root class"
    t = ((i - j) if same else -(i + j)) // m0
    if c.form == "off":
        t = -t
    e = F.pow(F.xi, t % n)
    g2 = TwElem(F, (e, 0, 0, 1) if same else (0, e, 1, 0), 0)

    witness = TwElem(F, P, 0) * g2
    assert conjugate(x, witness) == canonical_rep(c, F)
    return c, witness


# ---------------------------------------------------------------------------

def stabilizer_elements(c, F):
    """The centralizer of y = canonical_rep(c, F) in Gbar, built as a group:
    the torus T of [dia(eta, 1), 0] with eta^m0 = 1, m0 = q -+ 1 (dia/off),
    and its coset T y, 2 m0 elements.  An exceptional class adds s T and
    s T y, where s = [off(z, 1), 0] swaps y's eigenlines, z the least root
    of z^m0 = lam^-2 (dia) or lam^2 (off), lam = xi^i: 4 m0 elements."""
    q = F.p ** (F.m // 2)
    m0 = _modulus_for(c, q)
    y = canonical_rep(c, F)
    out = [TwElem(F, (eta, 0, 0, 1), 0) for eta in F.nth_roots(1, m0)]
    out += [t * y for t in out]
    if is_exceptional(c, q):
        lam2 = F.pow(F.xi, 2 * c.i)
        z = min(F.nth_roots(F.inv(lam2) if c.form == "dia" else lam2, m0))
        s = TwElem(F, (0, z, 1, 0), 0)
        assert conjugate(y, s) == y, "the eigenline swap must centralize y"
        out += [s * g for g in out]
    assert len(out) == len(set(out)) == stabilizer_size(c, q)
    return out
