"""Twisted linear fractional groups over GF(q^2) and their regular maps.

The census module carries the closed-form counts; the oracle module
recomputes the same numbers by explicit enumeration at small q so the two
can be played against each other.
"""

from .canonical import (CanonClass, all_classes, canonical_form,
                        canonical_order, canonical_rep, class_size,
                        is_exceptional, stabilizer_elements, stabilizer_size)
from .census import (count_generating_orbits, count_maps,
                     count_reflexible_maps, orbit_counts,
                     reflexible_orbit_counts, total_orbits,
                     total_reflexible_orbits, twisted_divisors,
                     type_obstruction)
from .gfield import Field, ResourceLimitError, make_field
from .oracle import (OrbitRec, enumerate_orbits, fused_records, galois_fuse,
                     generated_level, orbit_records, selfdual_cells)
from .twisted_group import TwElem, conjugate, group_order, order

__all__ = [
    "CanonClass", "Field", "OrbitRec", "ResourceLimitError", "TwElem",
    "all_classes", "canonical_form", "canonical_order", "canonical_rep",
    "class_size", "conjugate", "count_generating_orbits", "count_maps",
    "count_reflexible_maps", "enumerate_orbits", "fused_records",
    "galois_fuse", "generated_level", "group_order", "is_exceptional",
    "make_field", "orbit_counts", "orbit_records", "order",
    "reflexible_orbit_counts", "selfdual_cells", "stabilizer_elements",
    "stabilizer_size", "total_orbits", "total_reflexible_orbits",
    "twisted_divisors", "type_obstruction",
]
