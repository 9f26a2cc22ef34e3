"""Group layer: sizes, multiplication law, orders, twist-bit bookkeeping."""

import random

import pytest

from twistedmaps import twisted_group as tg
from twistedmaps.gfield import make_field

from reference import all_group_elements, naive_order


def test_group_sizes_q3(F9):
    assert sum(1 for _ in all_group_elements(F9, "G")) == 720
    assert sum(1 for _ in all_group_elements(F9, "G0")) == 360
    assert sum(1 for _ in all_group_elements(F9, "Gbar")) == 1440


def test_group_size_q5(F25):
    assert sum(1 for _ in all_group_elements(F25, "G")) == 15600


def test_elements_distinct_and_in_claimed_group(F9):
    els = list(all_group_elements(F9, "G"))
    assert len(set(els)) == len(els)
    assert all(tg.in_G(x) for x in els)
    assert all(x.i == 0 and F9.is_square(tg.mat_det(F9, x.matrix))
               for x in all_group_elements(F9, "G0"))


def test_twisted_group_closed_under_product(F9):
    els = list(all_group_elements(F9, "G"))
    rng = random.Random(3)
    for _ in range(1000):
        x, y = rng.choice(els), rng.choice(els)
        assert tg.in_G(x * y)
        assert tg.in_G(x.inv())


def test_associativity_and_inverses_sampled(F25):
    els = []
    it = all_group_elements(F25, "Gbar")
    rng = random.Random(4)
    for x in it:
        if rng.random() < 0.02:
            els.append(x)
    for _ in range(300):
        x, y, z = (rng.choice(els) for _ in range(3))
        assert (x * y) * z == x * (y * z)
    for x in els[:100]:
        assert (x * x.inv()).is_identity()
        # inverse formula: (P, i)^-1 = ((P^{sigma^i})^-1, i)
        P = x.matrix
        if x.i:
            P = tg.mat_frob(F25, P, 1)
        assert x.inv() == tg.TwElem(F25, tg.mat_inv(F25, P), x.i)


def test_twisted_square_is_a_times_sigma_a(F9):
    rng = random.Random(5)
    els = [x for x in all_group_elements(F9, "Gbar") if x.i == 1]
    for _ in range(200):
        x = rng.choice(els)
        M = tg.mat_mul(F9, x.matrix, tg.mat_frob(F9, x.matrix, 1))
        assert x * x == tg.TwElem(F9, M, 0)


def test_projective_scaling_is_invisible(F25):
    A = (6, 1, 0, 2)
    for s in F25.units():
        scaled = tuple(F25.mul(a, s) for a in A)
        assert tg.TwElem(F25, scaled, 1) == tg.TwElem(F25, A, 1)


def test_iota_tracks_square_class_of_det(F9):
    xi = F9.xi
    assert tg.iota(F9, (1, 0, 0, 1)) == 0
    assert tg.iota(F9, (xi, 0, 0, 1)) == 1  # det = xi, a non-square
    with pytest.raises(ValueError):
        tg.iota(F9, (1, 1, 1, 1))


def test_singular_and_zero_matrices_rejected(F9):
    with pytest.raises(ValueError):
        tg.TwElem(F9, (0, 0, 0, 0), 0)
    with pytest.raises(ValueError):
        tg.TwElem(F9, (1, 1, 1, 1), 0)


def _check_order(x):
    """order(x) equals naive_order(x) on a twisted x, and an untwisted x
    raises ValueError."""
    if x.i:
        assert tg.order(x) == naive_order(x)
    else:
        with pytest.raises(ValueError, match="twisted element"):
            tg.order(x)


def test_order_matches_naive_everywhere_q3(F9):
    for x in all_group_elements(F9, "G"):
        _check_order(x)


def test_order_matches_naive_sampled_q5(F25):
    rng = random.Random(6)
    pool = [x for x in all_group_elements(F25, "G") if rng.random() < 0.03]
    assert {x.i for x in pool} == {0, 1}
    for x in pool:
        _check_order(x)


def test_twisted_order_from_eigenvalues_matches_naive(F9, F25):
    # every twisted element of Gbar at q = 3 and of G at q = 5; the 270 at
    # q = 3 whose A A^sigma has a repeated root all lie outside G and raise
    repeated = 0
    for F, which in ((F9, "Gbar"), (F25, "G")):
        for x in all_group_elements(F, which):
            if x.i == 0:
                continue
            M, roots = tg.char_roots(x)
            assert M == tg.mat_mul(F, x.matrix, tg.mat_frob(F, x.matrix, 1))
            if roots is None:
                assert not tg.in_G(x)
                with pytest.raises(ValueError, match="repeated root"):
                    tg.order(x)
                repeated += 1
            else:
                assert tg.order(x) == naive_order(x)
    assert repeated == 270


def test_twisted_element_orders_divisible_by_four_q3(F9):
    # exhaustive over the 360 twisted elements of M(9)
    for x in all_group_elements(F9, "G"):
        if x.i == 1:
            assert tg.order(x) % 4 == 0


def test_twisted_element_orders_divisible_by_four_sampled():
    rng = random.Random(7)
    for (p, m) in [(5, 2), (7, 2), (3, 4)]:
        F = make_field(p, m)
        count = 0
        while count < 200:
            A = tuple(rng.randrange(F.size) for _ in range(4))
            try:
                x = tg.TwElem(F, A, 1)
            except ValueError:
                continue
            if tg.in_G(x):
                assert tg.order(x) % 4 == 0
                count += 1


def test_sigma_conjugation_is_entrywise_frobenius(F9):
    s = tg.TwElem(F9, (1, 0, 0, 1), 1)  # [I, 1]
    rng = random.Random(8)
    els = list(all_group_elements(F9, "G"))
    for _ in range(100):
        x = rng.choice(els)
        assert tg.conjugate(x, s) == tg.TwElem(F9, tg.mat_frob(F9, x.matrix, 1), x.i)
