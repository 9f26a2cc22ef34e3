"""Formulas against brute force at q = 5, end to end.

Nothing here trusts the closed forms: pairs are enumerated explicitly and
partitioned into orbits under materialized stabilizers.  An orbit is
reflexible when the pair of inverses lands in the same orbit, which the
orbit records test by lookup; for one pair that lookup is also made by
hand.  The numbers have to agree with the census.
"""

import sys
from pathlib import Path

from twistedmaps import (make_field, orbit_counts, reflexible_orbit_counts)
from twistedmaps.canonical import stabilizer_size
from twistedmaps.oracle import (closure_order, enumerate_orbits,
                                orbit_count_summary, orbit_records, quad_pair)

# the lookup by hand uses the test reference that names one image pair by
# its own canonical form
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
from reference import pair_key  # noqa: E402

q = 5
F = make_field(5, 2)
orbits = enumerate_orbits(q)

print("orbit partition at q = %d" % q)
for cls, cls_orbits in orbits.items():
    sizes = {len(o) for o in cls_orbits}
    print("  %s i=%d: %3d orbits, every orbit of size %s (stabilizer %d)"
          % (cls.form, cls.i, len(cls_orbits), sorted(sizes),
             stabilizer_size(cls, q)))
    assert sizes == {stabilizer_size(cls, q)}
print()

summary = orbit_count_summary(q, orbits)
expected = orbit_counts(q)
print("%-18s %10s %10s" % ("kind", "formula", "oracle"))
for key in ("dia_generic", "dia_exceptional", "off_generic",
            "off_exceptional", "total"):
    print("%-18s %10d %10d" % (key, expected[key], summary[key]))
    assert expected[key] == summary[key]
print()

records = orbit_records(q, orbits)
tally = {form: sum(1 for r in records if r.form == form and r.reflexible)
         for form in ("dia", "off")}
rexpected = reflexible_orbit_counts(q)
print("reflexible: formula dia %d / off %d, oracle dia %d / off %d"
      % (rexpected["dia_total"], rexpected["off_total"],
         tally["dia"], tally["off"]))
assert tally["dia"] == rexpected["dia_total"]
assert tally["off"] == rexpected["off_total"]
print()

# one concrete pair: its inverted pair's orbit, and full generation
cls = next(iter(orbits))
orbit = orbits[cls][0]
pair = quad_pair(F, cls, orbit[0])
inv_cls, inv_quad = pair_key(F, pair[0].inv(), pair[1].inv())
reflexible = inv_cls == cls and inv_quad in orbit
rec = next(r for r in records
           if (r.form, r.i, r.key) == (cls.form, cls.i, orbit[0]))
assert rec.reflexible == reflexible
print("first orbit of", cls, "is", "reflexible" if reflexible else "chiral")
print("its pair generates a subgroup of order", closure_order(pair),
      "= |M(25)|")
assert closure_order(pair) == 15600
