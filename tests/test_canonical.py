"""Canonical forms: representatives, orders, stabilizers, conjugacy tests."""

import random
from collections import Counter

import pytest

from twistedmaps import canonical as cn
from twistedmaps import twisted_group as tg
from twistedmaps.gfield import make_field

from reference import all_group_elements, naive_order


def _random_twisted(F, rng):
    while True:
        A = tuple(rng.randrange(F.size) for _ in range(4))
        try:
            x = tg.TwElem(F, A, 1)
        except ValueError:
            continue
        if tg.in_G(x):
            return x


def test_class_inventory_small_q():
    assert [(c.form, c.i) for c in cn.all_classes(3)] == [("dia", 1), ("off", 1)]
    assert [(c.form, c.i) for c in cn.all_classes(5)] == [
        ("dia", 1), ("off", 1), ("off", 3)]
    assert [(c.form, c.i) for c in cn.all_classes(7)] == [
        ("dia", 1), ("dia", 3), ("off", 1), ("off", 3)]
    # counts: floor((q-1)/4) + ceil(...) pattern, checked directly
    for q in (9, 11, 13, 25, 27):
        cs = cn.all_classes(q)
        assert len({(c.form, c.i) for c in cs}) == len(cs)
        for c in cs:
            assert c.i % 2 == 1
            assert 1 <= c.i <= (q - 1) // 2 if c.form == "dia" else c.i <= (q + 1) // 2


def test_exceptional_classes_exist_on_the_right_side():
    for q in (3, 5, 7, 9, 11, 13, 25, 27):
        exc = [c for c in cn.all_classes(q) if cn.is_exceptional(c, q)]
        assert len(exc) == 1
        c = exc[0]
        if q % 4 == 3:
            assert c.form == "dia" and c.i == (q - 1) // 2
        else:
            assert c.form == "off" and c.i == (q + 1) // 2
        assert cn.canonical_order(c, q) == 4


def test_representative_orders_match_formula():
    # iterative group-element order against the closed form
    for (p, f) in [(3, 1), (5, 1), (7, 1), (3, 2), (5, 2), (3, 3)]:
        q = p ** f
        F = make_field(p, 2 * f)
        for c in cn.all_classes(q):
            rep = cn.canonical_rep(c, F)
            assert naive_order(rep) == cn.canonical_order(c, q)
            assert cn.canonical_order(c, q) % 4 == 0
    # the class read from the roots names each representative and its
    # inverse at every odd prime power q <= 27
    for (p, f) in [(3, 1), (5, 1), (7, 1), (3, 2), (11, 1), (13, 1), (17, 1),
                   (19, 1), (23, 1), (5, 2), (3, 3)]:
        F = make_field(p, 2 * f)
        for c in cn.all_classes(p ** f):
            rep = cn.canonical_rep(c, F)
            assert cn.twisted_class(rep) == cn.twisted_class(rep.inv()) == c


def test_canonical_form_partitions_twisted_coset_q3(F9):
    tally = Counter()
    for x in all_group_elements(F9, "G"):
        if x.i == 1:
            c, _ = cn.canonical_form(x)
            assert cn.twisted_class(x) == c
            tally[c] += 1
    assert tally == {c: cn.class_size(c, 3) for c in cn.all_classes(3)}


def test_canonical_form_partitions_twisted_coset_q5(F25):
    tally = Counter()
    for x in all_group_elements(F25, "G"):
        if x.i == 1:
            c, _ = cn.canonical_form(x)
            assert cn.twisted_class(x) == c
            tally[c] += 1
    assert tally == {c: cn.class_size(c, 5) for c in cn.all_classes(5)}


def test_witness_conjugates_onto_representative():
    rng = random.Random(101)
    for (p, f) in [(3, 1), (5, 1), (3, 2)]:
        F = make_field(p, 2 * f)
        for _ in range(350):
            x = _random_twisted(F, rng)
            c, w = cn.canonical_form(x)
            assert tg.conjugate(x, w) == cn.canonical_rep(c, F)


def test_canonical_form_rejects_untwisted(F9):
    # twist bit 1 but square determinant: lies outside the twisted group
    x = tg.TwElem(F9, (1, 0, 0, 1), 1)
    for classify in (cn.canonical_form, cn.twisted_class):
        with pytest.raises(AssertionError):
            classify(tg.TwElem(F9, (1, 0, 0, 1), 0))  # the identity
        with pytest.raises(AssertionError):
            classify(x)


def test_stabilizer_elements_fix_representative():
    # generic and exceptional classes of both forms at f = 1, 2 and 3
    for (p, f) in [(3, 1), (5, 1), (7, 1), (3, 2), (11, 1), (13, 1), (5, 2),
                   (3, 3)]:
        q = p ** f
        F = make_field(p, 2 * f)
        for c in cn.all_classes(q):
            rep = cn.canonical_rep(c, F)
            stab = cn.stabilizer_elements(c, F)
            assert len(stab) == cn.stabilizer_size(c, q)
            for g in stab:
                assert tg.conjugate(rep, g) == rep


def test_stabilizer_exhaustive_scan_q3(F9):
    for c in cn.all_classes(3):
        rep = cn.canonical_rep(c, F9)
        brute = {g for g in all_group_elements(F9, "Gbar")
                 if tg.conjugate(rep, g) == rep}
        assert brute == set(cn.stabilizer_elements(c, F9))


def test_stabilizer_exhaustive_scan_q5(F25):
    for c in cn.all_classes(5):
        rep = cn.canonical_rep(c, F25)
        brute = {g for g in all_group_elements(F25, "Gbar")
                 if tg.conjugate(rep, g) == rep}
        assert brute == set(cn.stabilizer_elements(c, F25))


def test_orbit_stabilizer_accounting():
    # class sizes sum to the size of the twisted coset of G
    for q in (3, 5, 7, 9, 11, 13, 25, 27):
        total = sum(cn.class_size(c, q) for c in cn.all_classes(q))
        assert total == q * q * (q ** 4 - 1) // 2


def test_distinct_eigenvalue_dichotomy_sampled():
    # tr(A A^sigma)^2 - 4 det lies in F0 and decides the form
    rng = random.Random(55)
    F = make_field(3, 4)
    f = 2
    for _ in range(200):
        x = _random_twisted(F, rng)
        A = x.matrix
        M = tg.mat_mul(F, A, tg.mat_frob(F, A, f))
        tr = F.add(M[0], M[3])
        det = tg.mat_det(F, M)
        disc = F.sub(F.mul(tr, tr), F.mul(4 % 3, det))
        assert disc != 0
        assert F.frobenius(tr, f) == tr and F.frobenius(det, f) == det
        c, _ = cn.canonical_form(x)
        root = F.sqrt(disc)
        in_f0 = disc != 0 and F.frobenius(disc, f) == disc and \
            F.is_square(disc) and F.frobenius(root, f) == root
        assert (c.form == "dia") == in_f0
        assert cn.canonical_order(cn.twisted_class(x), 9) == tg.order(x)


def test_twisted_conjugate_test_full_q3(F9):
    # x and y are Gbar-conjugate exactly when they share a canonical class,
    # and then the two witnesses compose into a conjugator
    everything = list(all_group_elements(F9, "Gbar"))
    gbar_class = {c: {tg.conjugate(cn.canonical_rep(c, F9), g)
                      for g in everything} for c in cn.all_classes(3)}
    twisted = [x for x in all_group_elements(F9, "G") if x.i == 1]
    rng = random.Random(77)
    for _ in range(400):
        x, y = rng.choice(twisted), rng.choice(twisted)
        cx, wx = cn.canonical_form(x)
        cy, wy = cn.canonical_form(y)
        assert (cx == cy) == (y in gbar_class[cx])
        if cx == cy:
            assert tg.conjugate(x, wx * wy.inv()) == y
