"""Exact arithmetic in GF(p^m) for odd p, table-driven.

Elements are plain ints packing the coefficient vector of the residue
polynomial base p (least significant digit = constant term), so 0 and 1 are
the field's zero and one and every int in range(p**m) is an element.  A Field
instance owns exp/log tables over a deterministic primitive element plus a
Zech-logarithm table, giving O(1) mul/add/inv/pow/frobenius.

The tower used elsewhere is GF(p) < GF(p^f) = F0 < GF(p^{2f}) = F with
sigma: x -> x^{p^f} the order-two automorphism of F over F0.
"""

from functools import lru_cache
from math import gcd

from .numth import checked_power, factorize

# p^m above this would need ~10^6+ table entries; everything in scope is far
# smaller (census closed forms never build a field at all).
TABLE_LIMIT = 2 ** 20


class ResourceLimitError(Exception):
    """Requested computation exceeds the configured table/enumeration bounds."""


# ---------------------------------------------------------------------------
# dense polynomial helpers over GF(p), coefficient lists low-degree-first

def _ptrim(a):
    while a and a[-1] == 0:
        a.pop()
    return a


def _pmulmod(a, b, g, p):
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    # reduce by monic g
    dg = len(g) - 1
    for i in range(len(out) - 1, dg - 1, -1):
        c = out[i]
        if c:
            out[i] = 0
            for j in range(dg):
                out[i - dg + j] = (out[i - dg + j] - c * g[j]) % p
    return _ptrim(out)


def _ppowmod(a, e, g, p):
    r = [1]
    a = list(a)
    while e:
        if e & 1:
            r = _pmulmod(r, a, g, p)
        a = _pmulmod(a, a, g, p)
        e >>= 1
    return r


def _irreducible(g, p):
    """Irreducibility of monic g of degree m over GF(p).

    x^(p^m) = x mod g makes g squarefree with every irreducible factor of
    degree dividing m.  g is then irreducible iff, for each prime r | m,
    h = x^(p^(m/r)) - x is prime to g, that is a unit mod g.  Modulo such a
    g the residues form a product of fields GF(p^d) with d | m, so the
    units are exactly the h with h^(p^m - 1) = 1 mod g."""
    m = len(g) - 1
    if m == 1:
        return True
    x = [0, 1]
    if _ppowmod(x, p ** m, g, p) != x:
        return False
    for r, _ in factorize(m):
        h = _ppowmod(x, p ** (m // r), g, p) + [0, 0]
        h[1] = (h[1] - 1) % p
        if _ppowmod(h, p ** m - 1, g, p) != [1]:
            return False
    return True


# ---------------------------------------------------------------------------

class Field:
    """GF(p^m) with packed-int elements and full exp/log/Zech tables.

    Do not construct directly; use make_field(p, m) so tables are shared.
    """

    def __init__(self, p, m):
        # 3^21 > TABLE_LIMIT, so for p >= 3 this is exact without building
        # a huge p^m; checked_power then refuses any p or m out of scope
        if p ** max(0, min(m, 21)) > TABLE_LIMIT:
            raise ResourceLimitError(f"GF({p}^{m}) exceeds the table limit {TABLE_LIMIT}")
        self.size = checked_power(p, m)
        self.p = p
        self.m = m
        self.modulus = self._find_modulus()
        self.xi = self._find_xi()
        self._build_tables()

    def _find_modulus(self):
        # first monic irreducible of degree m in packed-integer order on the
        # coefficient vector (c_0 + c_1 p + ...); deterministic across runs
        p, m = self.p, self.m
        for packed in range(p ** m):
            coeffs = self.coeffs(packed)
            if _irreducible(list(coeffs) + [1], p):
                return coeffs
        raise AssertionError("no irreducible polynomial found")  # impossible

    def _find_xi(self):
        # first element in packed scan order generating the full unit group
        p, n = self.p, self.size - 1
        g = list(self.modulus) + [1]
        return next(c for c in range(2, self.size)
                    if all(_ppowmod(list(self.coeffs(c)), n // r, g, p) != [1]
                           for r, _ in factorize(n)))

    def _build_tables(self):
        p, n, xi = self.p, self.size - 1, self.xi
        g = list(self.modulus) + [1]

        def packed_mul(a, b):
            prod = _pmulmod(list(self.coeffs(a)), list(self.coeffs(b)), g, p)
            return sum(c * p ** i for i, c in enumerate(prod))

        exp = [0] * n
        log = [-1] * self.size
        acc = 1
        for k in range(n):
            exp[k] = acc
            log[acc] = k
            acc = packed_mul(acc, xi)
        assert acc == 1, "primitive element chain did not close"
        self.exp = exp
        self.log = log

        # Zech logarithms: zech[k] = log(1 + xi^k), sentinel -1 when the sum is 0
        zech = [0] * n
        for k in range(n):
            v = exp[k]
            d0 = v % p
            w = v - d0 + (d0 + 1) % p  # v + 1 in packed form
            zech[k] = log[w] if w else -1
        self.zech = zech
        self._half = n // 2  # dlog of -1 (n is even for odd p)

    # -- basic ring ops ------------------------------------------------------

    def add(self, a, b):
        if a == 0:
            return b
        if b == 0:
            return a
        log = self.log
        n = self.size - 1
        i, j = log[a], log[b]
        z = self.zech[(j - i) % n]
        if z < 0:
            return 0
        return self.exp[(i + z) % n]

    def neg(self, a):
        if a == 0:
            return 0
        return self.exp[(self.log[a] + self._half) % (self.size - 1)]

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def mul(self, a, b):
        if a == 0 or b == 0:
            return 0
        n = self.size - 1
        return self.exp[(self.log[a] + self.log[b]) % n]

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of 0")
        n = self.size - 1
        return self.exp[(n - self.log[a]) % n]

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def pow(self, a, e):
        if a == 0:
            if e > 0:
                return 0
            if e == 0:
                return 1
            raise ZeroDivisionError("0 to a negative power")
        n = self.size - 1
        return self.exp[(self.log[a] * e) % n]

    # -- field structure -----------------------------------------------------

    def frobenius(self, x, k):
        """x^{p^k}; with m = 2f, frobenius(x, f) realizes sigma."""
        if x == 0:
            return x
        n = self.size - 1
        return self.exp[(self.log[x] * pow(self.p, k, n)) % n]

    def is_square(self, x):
        if x == 0:
            raise ValueError("0 is neither a square nor a non-square")
        return self.log[x] % 2 == 0

    def dlog(self, x):
        if x == 0:
            raise ValueError("dlog of 0")
        return self.log[x]

    def sqrt(self, x):
        """A square root of x, or None if x is a non-square (0 -> 0)."""
        if x == 0:
            return 0
        k = self.log[x]
        if k % 2:
            return None
        return self.exp[k // 2]

    def nth_roots(self, w, r):
        """{z : z^r = w} as a set (possibly empty)."""
        if w == 0:
            raise ValueError("nth_roots of 0")
        if r < 1:
            raise ValueError("root degree must be >= 1")
        n = self.size - 1
        g = gcd(r, n)
        s = self.log[w]
        if s % g:
            return set()
        t0 = (s // g) * pow(r // g, -1, n // g) % (n // g)
        step = n // g
        return {self.exp[(t0 + k * step) % n] for k in range(g)}

    def embed_from(self, sub, x):
        """Image of x under the canonical field embedding of sub = GF(p^d)
        into this field (a ring homomorphism; its image is the GF(p^d) copy
        here), which sends sub's generator to the least root here of sub's
        modulus polynomial.  Requires d | m."""
        assert sub.p == self.p and self.m % sub.m == 0
        g = list(sub.modulus) + [1]
        # the GF(p^d) copy is 0 and the roots of z^(p^d - 1) = 1; 0 is a
        # root only of GF(p)'s modulus x
        root = next((c for c in sorted({0} | self.nth_roots(1, sub.size - 1))
                     if self._horner(g, c) == 0), None)
        assert root is not None, "modulus must split in the extension"
        return self._horner(sub.coeffs(x), root)

    def _horner(self, coeffs, z):
        """Value at z of the polynomial with coefficients low degree first."""
        acc = 0
        for coef in reversed(coeffs):
            acc = self.add(self.mul(acc, z), coef)
        return acc

    # -- element plumbing ----------------------------------------------------

    def coeffs(self, x):
        """Coefficient vector of x, low degree first, length m."""
        out = []
        for _ in range(self.m):
            x, r = divmod(x, self.p)
            out.append(r)
        return tuple(out)

    def elements(self):
        return range(self.size)

    def units(self):
        return self.exp

    def __repr__(self):
        return f"GF({self.p}^{self.m})"


@lru_cache(maxsize=None)
def make_field(p: int, m: int) -> Field:
    """The canonical GF(p^m): deterministic modulus and primitive element."""
    return Field(p, m)
