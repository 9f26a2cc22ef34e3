"""Closed-form censuses of orientably-regular maps with automorphism
group M(q^2).

A map corresponds to a generating pair (x, y) of twisted elements whose
product is an involution; pairs are counted up to group automorphisms.  The
counting proceeds in two stages:

  1. per-class orbit counts over GF(q^2), summed into a polynomial total
     (q^2-1)(q^2-2)/8 that also absorbs pairs generating twisted subgroups
     over subfields;
  2. Moebius inversion over the admissible subfield levels (of index odd in
     the exponent) isolates pairs generating the full group, and division by
     the free Galois action yields map counts.

Reflexible maps admit the same treatment with total (q^2-1)(3q-2)/8.
"""

from .numth import (checked_power, divisors, mobius, odd_part,
                    odd_prime_power)


def n_F(q):
    """For a fixed non-square v of GF(q^2), the number of non-squares u != v
    with u - v a square.  Independent of the choice of v; feeds the
    exceptional-class corrections below."""
    odd_prime_power(q)
    return (q * q - 1) // 4


def orbits_per_class(form, exceptional, q):
    """Number of stabilizer-orbits of admissible pairs against one canonical
    class of the given form."""
    odd_prime_power(q)
    if form == "dia":
        full = (q + 1) * (q * q - 3)
    elif form == "off":
        full = (q - 1) * (q * q + 1)
    else:
        raise ValueError(form)
    if exceptional:
        return (full - 4 * n_F(q)) // 8
    return full // 4


def orbit_counts(q):
    """Pair-orbit counts split by class kind; the grand total is the
    polynomial (q^2-1)(q^2-2)/8 independent of the residue of q mod 4."""
    odd_prime_power(q)
    dia_classes = (q - 1) // 4   # generic dia classes (floor)
    off_classes = (q + 1) // 4   # generic off classes (floor)
    counts = {
        "dia_generic": dia_classes * orbits_per_class("dia", False, q),
        "dia_exceptional": orbits_per_class("dia", True, q) if q % 4 == 3 else 0,
        "off_generic": off_classes * orbits_per_class("off", False, q),
        "off_exceptional": orbits_per_class("off", True, q) if q % 4 == 1 else 0,
    }
    counts["total"] = sum(counts.values())
    return counts


def total_orbits(q):
    odd_prime_power(q)
    return (q * q - 1) * (q * q - 2) // 8


def reflexible_orbit_counts(q):
    """Reflexible pair-orbit counts, split by class form and by whether the
    reversing conjugator carries the twist bit."""
    odd_prime_power(q)
    counts = {
        "dia_plain": (q * q - 1) * (q - 2) // 8,
        "dia_twisted": (q * q - 1) * (q - 1) // 16,
        "off_plain": q * (q * q - 1) // 8,
        "off_twisted": (q + 1) * (q * q - 1) // 16,
    }
    counts["dia_total"] = counts["dia_plain"] + counts["dia_twisted"]
    counts["off_total"] = counts["off_plain"] + counts["off_twisted"]
    counts["total"] = counts["dia_total"] + counts["off_total"]
    return counts


def total_reflexible_orbits(q):
    odd_prime_power(q)
    return (q * q - 1) * (3 * q - 2) // 8


# ---------------------------------------------------------------------------
# Moebius inversion over subfield levels

def twisted_divisors(f):
    """Exponents e with M(p^{2e}) <= M(p^{2f}): e | f with f/e odd."""
    if f < 1:
        raise ValueError("exponent must be positive")
    alpha, o = odd_part(f)
    return sorted(2 ** alpha * d for d in divisors(o))


def count_generating_orbits(p, f):
    """Orbits of admissible pairs over GF(p^{2f}) generating the full twisted
    group (not a twisted subgroup over a subfield)."""
    return sum(mobius(f // e) * total_orbits(checked_power(p, e))
               for e in twisted_divisors(f))


def count_maps(p, f):
    """Isomorphism classes of orientably-regular maps on M(p^{2f})."""
    orb = count_generating_orbits(p, f)
    assert orb % f == 0, "Galois action must be free on generating orbits"
    return orb // f


def count_reflexible_generating_orbits(p, f):
    return sum(mobius(f // e) * total_reflexible_orbits(checked_power(p, e))
               for e in twisted_divisors(f))


def count_reflexible_maps(p, f):
    orb = count_reflexible_generating_orbits(p, f)
    assert orb % f == 0, "Galois action must be free on reflexible orbits"
    return orb // f


# ---------------------------------------------------------------------------

def type_obstruction(k, l):
    """True when no orientably-regular map of type (k, l) can live on any
    M(q^2): both entries divisible by 8 but not congruent mod 16."""
    return k % 8 == 0 and l % 8 == 0 and (k - l) % 16 != 0

