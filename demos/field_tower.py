"""A walk up a small field tower.

GF(9) sits inside GF(729) because 2 divides 6; the embedding used here is
a genuine ring homomorphism, so matrix arithmetic transports verbatim.
"""

from twistedmaps import make_field

F9 = make_field(3, 2)
F729 = make_field(3, 6)

print("GF(9):   modulus coefficients", F9.modulus, "(low degree first)")
print("GF(729): modulus coefficients", F729.modulus)
print()

xi = F9.xi
print("primitive element of GF(9):", xi, "with powers:")
print("  ", [F9.pow(xi, k) for k in range(9)])
print()

# Frobenius x -> x^3 generates the Galois group; applying it twice walks
# back to the identity on GF(9)
a = 5
print("a =", a, " a^sigma =", F9.frobenius(a, 1),
      " a^(sigma^2) =", F9.frobenius(a, 2))
assert F9.frobenius(a, 2) == a

# the copy of GF(9) inside GF(729) is cut out by x^9 = x
copy = sorted(x for x in range(F729.size) if F729.frobenius(x, 2) == x)
print("GF(729) holds a GF(9) copy of size", len(copy))

embedded = sorted(F729.embed_from(F9, x) for x in range(9))
assert embedded == copy
print("embedding lands exactly on that copy")

# and the embedding respects both operations
b = 7
lhs = F729.embed_from(F9, F9.mul(a, b))
rhs = F729.mul(F729.embed_from(F9, a), F729.embed_from(F9, b))
assert lhs == rhs
lhs = F729.embed_from(F9, F9.add(a, b))
rhs = F729.add(F729.embed_from(F9, a), F729.embed_from(F9, b))
assert lhs == rhs
print("products and sums agree before and after embedding")
