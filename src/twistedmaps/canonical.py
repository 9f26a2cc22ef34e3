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


def canonical_form(x):
    """(CanonClass, witness) with conjugate(x, witness) == canonical_rep.

    Defined for twisted elements of the twisted group (twist bit 1,
    non-square determinant).
    """
    F = x.F
    assert x.i == 1 and in_G(x), "canonical form needs a twisted group element"
    f = F.m // 2
    q = F.p ** f
    n = F.size - 1

    A = x.matrix
    M = mat_mul(F, A, mat_frob(F, A, f))
    roots = char_roots(F, M)
    assert roots is not None, "characteristic roots must be distinct"
    l1, l2 = roots

    u1 = _eigenvector(F, M, l1)
    u2 = _eigenvector(F, M, l2)
    P = (u1[0], u2[0], u1[1], u2[1])
    B = mat_mul(F, mat_inv(F, P), mat_mul(F, A, mat_frob(F, P, f)))

    if F.frobenius(l1, f) == l1:
        assert F.frobenius(l2, f) == l2
        form, m0 = "dia", q - 1
        assert B[1] == 0 and B[2] == 0, "dia case must diagonalize"
        lam_b = F.div(B[0], B[3])
    else:
        assert F.frobenius(l1, f) == l2
        form, m0 = "off", q + 1
        assert B[0] == 0 and B[3] == 0, "off case must antidiagonalize"
        lam_b = F.div(B[1], B[2])

    j = F.dlog(lam_b)
    assert j % 2 == 1, "twisted canonical parameter must be a non-square"

    r = j % m0
    i = m0 - r if r > m0 // 2 else r
    c = CanonClass(form, i)

    # second-stage conjugator moving exponent j onto the representative i
    # (diagonal when j = i mod m0, antidiagonal when j = -i mod m0)
    same = (j - i) % m0 == 0
    t = ((i - j) if same else -(i + j)) // m0
    if form == "off":
        t = -t
    e = F.pow(F.xi, t % n)
    g2 = TwElem(F, (e, 0, 0, 1) if same else (0, e, 1, 0), 0)

    witness = TwElem(F, P, 0) * g2
    assert conjugate(x, witness) == canonical_rep(c, F)
    return c, witness


# ---------------------------------------------------------------------------

def stabilizer_elements(c, F):
    """All elements of Gbar commuting with canonical_rep(c, F), listed
    explicitly: generic classes have 2(q -+ 1) of them, exceptional classes
    twice that (the extra elements swap the two eigenlines)."""
    f = F.m // 2
    q = F.p ** f
    lam = F.pow(F.xi, c.i)
    out = []
    if c.form == "dia":
        for eta in F.subfield_units(f):
            out.append(TwElem(F, (eta, 0, 0, 1), 0))
            out.append(TwElem(F, (F.mul(eta, lam), 0, 0, 1), 1))
        if is_exceptional(c, q):
            for z in F.nth_roots(F.pow(lam, -2), q - 1):
                out.append(TwElem(F, (0, z, 1, 0), 0))
            for w in F.nth_roots(F.pow(lam, q + 1), q - 1):
                out.append(TwElem(F, (0, w, 1, 0), 1))
    else:
        for eta in F.nth_roots(1, q + 1):
            out.append(TwElem(F, (eta, 0, 0, 1), 0))
            out.append(TwElem(F, (0, F.mul(eta, lam), 1, 0), 1))
        if is_exceptional(c, q):
            for z in F.nth_roots(F.pow(lam, 2), q + 1):
                out.append(TwElem(F, (0, z, 1, 0), 0))
            for eta in F.nth_roots(F.neg(1), q + 1):
                out.append(TwElem(F, (eta, 0, 0, 1), 1))
    assert len(out) == len(set(out)) == stabilizer_size(c, q)
    return out
