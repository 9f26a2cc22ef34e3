"""Self-dual maps, and what changes at the first composite exponent.

A map with equal vertex and face orders may be isomorphic to its dual with
the same orientation (positive) or the opposite one (negative).  At q = 9
the map classes are Frobenius bundles of two pair orbits each, so the
census counts bundles, not orbits.
"""

from twistedmaps import (count_maps, enumerate_orbits, fused_records,
                         galois_fuse, orbit_records, selfdual_cells)
from twistedmaps.oracle import SELFDUAL_TABLE

# records and fused records, built once per q
built = {}
for q, (p, f) in ((3, (3, 1)), (5, (5, 1)), (7, (7, 1)), (9, (3, 2))):
    plain = orbit_records(q, enumerate_orbits(q))
    fused = plain
    if f > 1:
        fused = fused_records(galois_fuse(plain, p, f))
    built[q] = plain, [r for r in fused if r.level == f]

print("%4s %5s %8s %8s %8s %8s" % ("q", "form", "k=l", "pos", "neg", "both"))
for q, (_, maps) in built.items():
    table = selfdual_cells(maps)
    for form in ("dia", "off"):
        row = table[form]
        print("%4d %5s %8d %8d %8d %8d" % (q, form, *row))
        assert row == SELFDUAL_TABLE[q][form], "reference row disagrees"
        # negatives are exactly the maps that are both; negative-but-not-
        # positive self-duality has never shown up
        assert row[2] == row[3]
print("every computed row matches the stored reference table")
print()
print("observed: negatively self-dual always came with positively")
print()

# the q = 9 bundle structure explicitly
plain, fused = built[9]
print("q=9: %d pair orbits fuse to %d map classes (census says %d)"
      % (len(plain), len(fused), count_maps(3, 2)))
assert len(fused) == count_maps(3, 2)

odd_selfdual = [r for r in fused if r.k == r.l and r.pos_selfdual]
print("positively self-dual classes at q=9:", len(odd_selfdual))
some = odd_selfdual[0]
print("one of them: form %s, type (%d,%d), %s"
      % (some.form, some.k, some.l,
         "reflexible" if some.reflexible else "chiral"))
