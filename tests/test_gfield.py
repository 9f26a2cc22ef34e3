"""Field layer: construction determinism, axioms, frobenius, roots, subfields."""

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from twistedmaps import gfield
from twistedmaps.gfield import Field, ResourceLimitError, make_field
from twistedmaps.numth import divisors, mobius

# (p, m) -> (modulus, xi) of GF(q^2) for every q an enumerating command
# accepts (q <= 27), plus GF(3^12); modulus low-to-high, leading 1 implicit
CHOICES = {
    (3, 2): ((1, 0), 4), (5, 2): ((2, 0), 6), (7, 2): ((1, 0), 9),
    (3, 4): ((2, 1, 0, 0), 3), (11, 2): ((1, 0), 15),
    (13, 2): ((2, 0), 15), (17, 2): ((3, 0), 19), (19, 2): ((1, 0), 22),
    (23, 2): ((1, 0), 25), (5, 4): ((2, 0, 0, 0), 6),
    (3, 6): ((2, 1, 0, 0, 0, 0), 3),
    (3, 12): ((2, 0, 1) + (0,) * 9, 14),
}


def test_modulus_choices_are_the_documented_ones(F9, F25):
    assert F9.modulus == (1, 0)      # x^2 + 1
    assert F25.modulus == (2, 0)     # x^2 + 2
    assert make_field(3, 1).modulus == (0,)  # x
    for (p, m), choice in CHOICES.items():
        # the choices need no tables, which take GF(3^12) about 18 s
        F = Field.__new__(Field)
        F.p, F.m, F.size = p, m, p ** m
        F.modulus = F._find_modulus()
        assert (F.modulus, F._find_xi()) == choice, (p, m)
        if p ** m <= 3 ** 6:
            built = make_field(p, m)
            assert (built.modulus, built.xi) == choice


def test_irreducible_counts_match_gauss():
    # monic irreducibles of degree m over GF(p): (1/m) sum_{d|m} mu(d) p^(m/d)
    for p, top in ((3, 7), (5, 4), (7, 3), (11, 2)):
        for m in range(1, top + 1):
            found = sum(
                gfield._irreducible([c // p ** i % p for i in range(m)] + [1],
                                    p)
                for c in range(p ** m))
            gauss = sum(mobius(d) * p ** (m // d) for d in divisors(m)) // m
            assert found == gauss, (p, m)


def test_primitive_element_is_first_generator_in_scan_order(F9):
    assert F9.xi == 4  # 1 + x, packed as 1 + 1 * 3
    # nothing below it generates: orders of 1, 2, x are 1, 2, 4
    n = F9.size - 1
    for c in range(1, F9.xi):
        k = 1
        acc = c
        while acc != 1:
            acc = F9.mul(acc, c)
            k += 1
        assert k < n


def test_field_axioms_exhaustive_gf9(F9):
    F = F9
    els = list(F.elements())
    for a in els:
        assert F.add(a, 0) == a
        assert F.mul(a, 1) == a
        assert F.add(a, F.neg(a)) == 0
        if a:
            assert F.mul(a, F.inv(a)) == 1
        for b in els:
            assert F.add(a, b) == F.add(b, a)
            assert F.mul(a, b) == F.mul(b, a)
            for c in els:
                assert F.add(F.add(a, b), c) == F.add(a, F.add(b, c))
                assert F.mul(F.mul(a, b), c) == F.mul(a, F.mul(b, c))
                assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))


def test_field_axioms_sampled_gf729():
    F = make_field(3, 6)
    rng = random.Random(20260823)
    for _ in range(500):
        a, b, c = (rng.randrange(F.size) for _ in range(3))
        assert F.add(F.add(a, b), c) == F.add(a, F.add(b, c))
        assert F.mul(F.mul(a, b), c) == F.mul(a, F.mul(b, c))
        assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))
        assert F.sub(F.add(a, b), b) == a
        if b:
            assert F.mul(F.div(a, b), b) == a


def test_frobenius_is_a_field_automorphism(F25):
    F = F25
    rng = random.Random(7)
    for _ in range(300):
        a, b = rng.randrange(F.size), rng.randrange(F.size)
        assert F.frobenius(F.add(a, b), 1) == F.add(F.frobenius(a, 1), F.frobenius(b, 1))
        assert F.frobenius(F.mul(a, b), 1) == F.mul(F.frobenius(a, 1), F.frobenius(b, 1))
    # order two over the prime field when m = 2
    for a in F.elements():
        assert F.frobenius(F.frobenius(a, 1), 1) == a
    # fixes exactly GF(5)
    fixed = [a for a in F.elements() if F.frobenius(a, 1) == a]
    assert len(fixed) == 5


def test_frobenius_on_gf9_negates_x_coefficient(F9):
    # with modulus x^2 + 1, (c0 + c1 x)^3 = c0 - c1 x
    for a in F9.elements():
        c0, c1 = F9.coeffs(a)
        assert F9.coeffs(F9.frobenius(a, 1)) == (c0, (-c1) % 3)


def test_squares_split_units_in_half():
    for (p, m) in [(3, 2), (5, 2), (3, 4), (7, 2)]:
        F = make_field(p, m)
        units = list(F.units())
        squares = [u for u in units if F.is_square(u)]
        assert len(squares) == len(units) // 2
        for u in squares:
            assert F.sqrt(u) is not None and F.pow(F.sqrt(u), 2) == u
    with pytest.raises(ValueError):
        F.is_square(0)


def test_nth_roots_counts_and_membership(F49):
    F = F49
    n = F.size - 1
    rng = random.Random(11)
    from math import gcd
    for _ in range(100):
        w = F.exp[rng.randrange(n)]
        r = rng.randrange(1, 13)
        roots = F.nth_roots(w, r)
        for z in roots:
            assert F.pow(z, r) == w
        g = gcd(r, n)
        assert len(roots) in (0, g)
        # solvable iff dlog divisible by gcd
        assert (len(roots) == g) == (F.dlog(w) % g == 0)


def test_subfield_membership_and_units(F81):
    F = F81
    inside = [x for x in F.elements() if F.frobenius(x, 2) == x]
    assert len(inside) == 9
    assert F.nth_roots(1, 8) == {x for x in inside if x != 0}
    # GF(3) sits in everything
    assert [x for x in F.elements() if F.frobenius(x, 1) == x] == [0, 1, 2]


def test_embedding_is_a_field_homomorphism_onto_subfield_copy():
    # a prime subfield's modulus is x, whose one root is 0
    for p, d, m in [(3, 1, 2), (5, 1, 4), (3, 3, 6), (3, 2, 6)]:
        big = make_field(p, m)
        small = make_field(p, d)
        img = {x: big.embed_from(small, x) for x in small.elements()}
        assert len(set(img.values())) == small.size
        for x, y in img.items():
            assert big.frobenius(y, d) == y
        for a in small.elements():
            for b in small.elements():
                assert img[small.mul(a, b)] == big.mul(img[a], img[b])
                assert img[small.add(a, b)] == big.add(img[a], img[b])
        assert img[1] == 1 and img[0] == 0
        # the subfield copy is exactly the image
        assert ({x for x in big.elements() if big.frobenius(x, d) == x}
                == set(img.values()))


def test_pow_and_dlog_agree(F25):
    F = F25
    for k in range(F.size - 1):
        u = F.exp[k]
        assert F.dlog(u) == k
        assert F.pow(F.xi, k) == u
    assert F.pow(F.xi, -1) == F.inv(F.xi)


def test_zero_handling():
    F = make_field(3, 2)
    with pytest.raises(ZeroDivisionError):
        F.inv(0)
    with pytest.raises(ValueError):
        F.dlog(0)
    with pytest.raises(ValueError):
        F.nth_roots(0, 3)
    assert F.pow(0, 5) == 0 and F.pow(0, 0) == 1
    assert F.sqrt(0) == 0


def test_construction_guards():
    with pytest.raises(ValueError):
        make_field(4, 2)
    with pytest.raises(ValueError):
        make_field(2, 3)
    with pytest.raises(ResourceLimitError):
        make_field(3, 13)  # 3^13 > 2^20
    assert make_field(3, 2) is make_field(3, 2)  # cached


def test_oversized_field_refused_without_building_its_size():
    # run apart so that building 3^(10^8) fails on the timeout, not the suite
    code = ("from twistedmaps.gfield import ResourceLimitError, make_field\n"
            "try:\n"
            "    make_field(3, 10 ** 8)\n"
            "except ResourceLimitError:\n"
            "    raise SystemExit(0)\n"
            "raise SystemExit('make_field(3, 10**8) did not refuse')\n")
    src = str(Path(gfield.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=30)
    assert proc.returncode == 0, proc.stdout + proc.stderr
