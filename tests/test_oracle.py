"""Brute-force layer: enumeration, partitions, searches, and the ways they
corroborate the closed-form counts."""

import hashlib
import json
import os
import random
import subprocess
import sys
import textwrap
from collections import Counter
from dataclasses import replace
from pathlib import Path

import pytest

from twistedmaps import canonical, oracle
from twistedmaps.canonical import (CanonClass, all_classes, canonical_order,
                                   is_exceptional, stabilizer_elements,
                                   stabilizer_size)
from twistedmaps.census import (count_maps, orbit_counts,
                                reflexible_orbit_counts, type_obstruction)
from twistedmaps.gfield import make_field
from twistedmaps.numth import odd_prime_power
from twistedmaps.oracle import (SELFDUAL_TABLE, act_quad, class_quads,
                                closure_order, enumerate_orbits,
                                fused_records, galois_fuse, generated_level,
                                matrix_quad, orbit_count_summary,
                                orbit_records, quad_pair, selfdual_cells)
from twistedmaps.twisted_group import (TwElem, conjugate, mat_frob, mat_mul,
                                       order)

from reference import (all_group_elements, brute_reflexible,
                       closure_by_products, image_walk_by_move,
                       is_reflexible, naive_order, pair_key,
                       records_by_pair_key, row_table_by_field_ops,
                       self_duality)


def _count_calls(monkeypatch, owner, name):
    """Wrap owner.name; the returned one-item list counts its calls."""
    calls = [0]
    real = getattr(owner, name)

    def counted(*args, **kwargs):
        calls[0] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def test_block_sizes_at_tiny_q(F9, F25):
    sizes3 = {(c.form, c.i): len(list(class_quads(F9, c)))
              for c in all_classes(3)}
    assert sizes3 == {("dia", 1): 16, ("off", 1): 40}
    sizes5 = {(c.form, c.i): len(list(class_quads(F25, c)))
              for c in all_classes(5)}
    assert sizes5 == {("dia", 1): 264, ("off", 1): 312, ("off", 3): 240}


def test_generic_block_sizes_match_polynomials(F9, F25, F49):
    # without the exceptional exclusion the block size depends only on form
    for F, q in ((F9, 3), (F25, 5), (F49, 7)):
        for cls in all_classes(q):
            if is_exceptional(cls, q):
                continue
            n = len(list(class_quads(F, cls)))
            if cls.form == "dia":
                assert n == (q * q - 1) * (q * q - 3) // 2
            else:
                assert n == (q * q - 1) * (q * q + 1) // 2


def test_quads_are_distinct_and_round_trip(F25):
    for cls in all_classes(5):
        quads = list(class_quads(F25, cls))
        assert len(set(quads)) == len(quads)
        for quad in quads[::7]:
            x, y = quad_pair(F25, cls, quad)
            assert matrix_quad(F25, cls, x.matrix) == quad


def test_quad_pair_rejects_inadmissible_quads(F25):
    cls = CanonClass("dia", 1)
    first, second, u = next(class_quads(F25, cls))
    ls = F25.sub(u, F25.mul(first, second))
    with pytest.raises(ValueError):
        quad_pair(F25, cls, (1, 1, 1))  # u is not first*second + lam^sigma
    square = F25.mul(3, 3)
    with pytest.raises(ValueError):
        quad_pair(F25, cls, (1, F25.sub(square, ls), square))


def test_matrix_quad_asserts_a_nonsingular_twisted_partner(F25):
    # a product in the dia shape (-1, 1, u - ls, ls) has determinant -u
    cls = CanonClass("dia", 1)
    first, second, u = next(class_quads(F25, cls))
    ls = F25.sub(u, F25.mul(first, second))
    assert matrix_quad(F25, cls, (F25.neg(1), 1, F25.sub(u, ls), ls)) == (
        1, F25.sub(u, ls), u)
    for bad in (0, F25.mul(3, 3)):  # singular, then a square determinant
        with pytest.raises(AssertionError):
            matrix_quad(F25, cls, (F25.neg(1), 1, F25.sub(bad, ls), ls))


def test_partition_computes_lam_sigma_per_class_not_per_quad(monkeypatch):
    calls = []

    def counted(F, cls, _fn=oracle._lam_sigma):
        calls.append(cls)
        return _fn(F, cls)

    monkeypatch.setattr(oracle, "_lam_sigma", counted)
    orbits = oracle.enumerate_orbits(9)
    assert sum(len(o) for o in orbits.values()) == 790
    per_class = Counter(calls)
    assert set(per_class) == set(orbits)
    # one for the quads, one for the walker; 16,475 when it ran once per
    # quad and 790 more when each walk started from a partner matrix
    assert max(per_class.values()) <= 2


def test_partition_makes_no_matrix_product_per_quad(monkeypatch):
    # oracle.mat_mul is patched even when oracle does not import it, so a
    # walk that goes back to matrix products is counted
    products = [0]

    def counted(*args):
        products[0] += 1
        return mat_mul(*args)

    monkeypatch.setattr(oracle, "mat_mul", counted, raising=False)
    quads = _count_calls(monkeypatch, oracle, "matrix_quad")
    orbits = oracle.enumerate_orbits(9)
    assert sum(len(o) for o in orbits.values()) == 790
    assert products[0] == 0  # 31,360 with two products per quad
    assert quads[0] == 0  # 15,680 with one matrix_quad per quad


def test_quad_pair_rejects_inadmissible_quads_under_optimize():
    # the check must not be an assert, which -O strips
    code = textwrap.dedent("""
        from twistedmaps.canonical import CanonClass
        from twistedmaps.gfield import make_field
        from twistedmaps.oracle import quad_pair
        try:
            quad_pair(make_field(5, 2), CanonClass("dia", 1), (1, 1, 1))
        except ValueError:
            raise SystemExit(0)
        raise SystemExit("quad_pair accepted an inadmissible quad")
    """)
    src = str(Path(oracle.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_pairs_have_involutory_product_and_canonical_y(F9, F25):
    for F, q in ((F9, 3), (F25, 5)):
        for cls in all_classes(q):
            for quad in list(class_quads(F, cls))[::11]:
                x, y = quad_pair(F, cls, quad)
                assert x.i == 1 and y.i == 1
                xy = x * y
                assert not xy.is_identity()
                assert (xy * xy).is_identity()
                assert order(y) == canonical_order(cls, q)


def test_exceptional_blocks_drop_order4_partners(F9, F25, F49, F81):
    # in an exceptional class y itself has order 4, so quads whose x also
    # has order 4 are not admissible and must be filtered out; q = 7 adds a
    # dia exceptional class, q = 9 an off one and the only q != p, where a
    # residue built from p instead of q drops the wrong quads
    checked = 0
    for F, q in ((F9, 3), (F25, 5), (F49, 7), (F81, 9)):
        for cls in all_classes(q):
            # the block before the filter: u = ab + lam^sigma a non-square,
            # with ab != 0 (dia) or (a, b) != (0, 0) (off)
            ls = oracle._lam_sigma(F, cls)
            admissible = [(a, b, u) for a in range(F.size)
                          for b in range(F.size)
                          for u in [F.add(F.mul(a, b), ls)]
                          if (a and b or cls.form == "off" and (a or b))
                          and u and not F.is_square(u)]
            orders = {quad: order(quad_pair(F, cls, quad)[0])
                      for quad in admissible}
            quads = list(class_quads(F, cls))
            if is_exceptional(cls, q):
                assert canonical_order(cls, q) == 4
                assert sorted(quads) == sorted(quad for quad in admissible
                                               if orders[quad] != 4)
                checked += 1
            else:  # the filter bites only where y forces it
                assert sorted(quads) == sorted(admissible)
                assert 4 in orders.values()
    assert checked == 4


def test_orbit_counts_match_closed_forms_small_q(orbits3, orbits5, orbits7):
    for q, orbits in ((3, orbits3), (5, orbits5), (7, orbits7)):
        summary = orbit_count_summary(q, orbits)
        assert summary == orbit_counts(q)


def test_orbit_sizes_are_the_stabilizer_sizes(orbits3, orbits5):
    for q, orbits in ((3, orbits3), (5, orbits5)):
        for cls, cls_orbits in orbits.items():
            expect = stabilizer_size(cls, q)
            assert all(len(orbit) == expect for orbit in cls_orbits)


def test_orbits_cover_every_quad_once(F25, orbits5):
    assert list(orbits5) == all_classes(5)
    for cls, cls_orbits in orbits5.items():
        seen = [quad for orbit in cls_orbits for quad in orbit]
        assert sorted(seen) == sorted(class_quads(F25, cls))
        assert len(set(seen)) == len(seen)


def test_act_quad_keeps_each_orbit(F9, F25, F49, F81, orbits3, orbits5,
                                  orbits7, orbits9):
    # act_quad is the TwElem one-step reference for orbit_walker: its
    # images of each first quad are the whole orbit, and a walk started at
    # any member, as fusion starts one at a Frobenius image, is that
    # member's image set; every member at q <= 7, one seeded member per
    # orbit at q = 9 and 11, where q = 11 adds a dia exceptional class.
    # Sorted lists, not sets, so a walk that repeats an image fails
    rng = random.Random(11)
    for F, orbits, every in ((F9, orbits3, True), (F25, orbits5, True),
                             (F49, orbits7, True), (F81, orbits9, False),
                             (make_field(11, 2), enumerate_orbits(11), False)):
        for cls, cls_orbits in orbits.items():
            stab = stabilizer_elements(cls, F)
            walk = oracle.orbit_walker(F, cls)
            for orbit in cls_orbits:
                assert orbit == sorted(act_quad(F, cls, g, orbit[0])
                                       for g in stab)
                for quad in orbit if every else [rng.choice(orbit)]:
                    assert sorted(walk(quad)[0]) == sorted(
                        act_quad(F, cls, g, quad) for g in stab)


def test_partition_walk_rejects_a_move_outside_the_stabilizer(F25,
                                                             monkeypatch):
    # [dia(xi, 1), 0] in place of the identity gives a monomial move like
    # every other, but it scales one row and one column, so its family is
    # no longer a coset and the walker refuses it when it is built.  Every
    # element skewed by [dia(xi, 1), 0] keeps each family a coset, so the
    # walk's shape check must refuse those moves
    real = oracle.stabilizer_elements
    skew = TwElem(F25, (F25.xi, 0, 0, 1), 0)

    def skewed_identity(cls, F):
        return [skew if g.is_identity() else g for g in real(cls, F)]

    def skewed_all(cls, F):
        return [skew * g for g in real(cls, F)]

    for stabilizer, message in ((skewed_identity, "coset of one size"),
                                (skewed_all, "involution shape")):
        monkeypatch.setattr(oracle, "stabilizer_elements", stabilizer)
        for cls in all_classes(5):
            with pytest.raises(AssertionError, match=message):
                oracle.orbit_partition(F25, cls)


# sha256 of repr(list(enumerate_orbits(q).items())), which holds the orbit
# order that _closure_checks samples by; recorded at dd4ae24, before moves
# were applied by family and the class block scanned on its log grid
_PARTITION_SHA256 = {
    3: "245fe70f5a6bd6903e755dcc01414ff01e2aff4b3b7b82aab5b1556cdb6fb97d",
    5: "6e07d5bc362d8407b9812e94e06f5969a368fc7fd15c1170eed95f6098db8c2a",
    7: "d9a0c559a9dbcd906ff30c2d8bf442fc248b8934ef1c43b6e7fe07aa87f1b92f",
    9: "b7af77bbef81da6fafca9b6b26ba664140931008dc90b75c3ddc42ebc853d00a",
    11: "6db05dc07694cc7bbe78f6cda7d5375bf39e624d7ec6b11300353e618191588b",
    13: "7dd1504197de033ef70e0281dd5d136449139277ded6b757e06d9658291c3a0c",
    17: "9fddaa00e9ecb6a0c845869d96e655538a698bc027066daade52ebe18777edcb",
    19: "51c5b4a355644bb3a1fbd380d3f06258a7641d48c688ab8bbf17897a4689a217",
    23: "b1696c599243d0255cf4d858581c4d9f0c2b3fc9b2cca5418fd9baef45593b88",
    25: "c5e0a386c5b5084a32f056ae6e982163e7842021984b4d3c07b84ad9a17a6f45",
    27: "af2698ccb8499ddfef88ecf4bba64a7c410c14a246ea810416e4ccd22a7a86e9",
}


@pytest.mark.parametrize("q", [3, 5, 7, 9, 11, 13, 17, 19, 23,
                               pytest.param(25, marks=pytest.mark.extended),
                               pytest.param(27, marks=pytest.mark.stretch)])
def test_partition_matches_its_pinned_digest(q):
    assert _partition_digest(enumerate_orbits(q)) == _PARTITION_SHA256[q]


def _partition_digest(orbits):
    """sha256 of repr(list(orbits.items())), hashed one orbit at a time:
    at q = 27 the whole repr is 61 MB, twice that with its encoding, which
    this process would keep resident for the fresh-process memory test
    after it.  The digests were recorded from the whole repr."""
    h = hashlib.sha256(b"[")
    for i, (cls, block) in enumerate(orbits.items()):
        h.update(("%s(%r, [" % (", " if i else "", cls)).encode())
        for j, orbit in enumerate(block):
            h.update(("%s%r" % (", " if j else "", orbit)).encode())
        h.update(b"])")
    h.update(b"]")
    return h.hexdigest()


def _cell(F, s, quad):
    """The cell a walk reports for the family holding a quad: log(u) s +
    rho, rho = log(first) mod s, or -1 - rho (second = 0) or -1 - s - rho
    (first = 0, rho = log(second) mod s) on a zero row."""
    first, second, u = quad
    if not second:
        return -1 - F.log[first] % s
    if not first:
        return -1 - s - F.log[second] % s
    return F.log[u] * s + F.log[first] % s


def _walks_against_the_per_move_reference(monkeypatch, F, quads):
    """Run the stabilizer, inverse and Frobenius walks of every class from
    each of quads(cls), drawn from class_quads and not from the partition,
    each _image_walk checked against the per-move reference walk on the
    same moves as sorted lists, so repeated images fail, and its cells
    against the cells of its images; returns the number of walks
    compared."""
    compared = [0]
    real = oracle._image_walk

    def checked(F, src, dst, moves):
        walk, ref = real(F, src, dst, moves), image_walk_by_move(F, src, dst,
                                                                 moves)
        s = (F.size - 1) // walk.family_size

        def both(quad):
            images, cells = walk(quad)
            assert sorted(images) == sorted(ref(quad))
            assert sorted(cells) == sorted({_cell(F, s, i) for i in images})
            compared[0] += 1
            return images, cells

        both.family_size = walk.family_size
        return both

    monkeypatch.setattr(oracle, "_image_walk", checked)
    f = F.m // 2
    for cls in all_classes(F.p ** f):
        walks = [oracle.orbit_walker(F, cls), oracle._inverse_quad(F, cls)]
        walks += [oracle._frobenius_walk(F, cls, j)[1] for j in range(1, f)]
        for quad in quads(cls):
            for walk in walks:
                walk(quad)
    return compared[0]


def test_image_walk_matches_the_per_move_reference(monkeypatch, F9, F25, F49,
                                                   F81):
    # every quad at q <= 9: dia and off, generic and exceptional classes,
    # and the Frobenius moves of f = 2 at q = 9, each one fixed move and
    # the image class's stabilizer walk, which alone make 31,360 walks
    compared = [_walks_against_the_per_move_reference(
        monkeypatch, F, lambda cls, F=F: class_quads(F, cls))
        for F in (F9, F25, F49, F81)]
    assert compared == [2 * 56, 2 * 816, 2 * 4464, 4 * 15680]


@pytest.mark.parametrize("q", [11, pytest.param(25,
                                                marks=pytest.mark.extended)])
def test_image_walk_matches_the_per_move_reference_sampled(monkeypatch, q):
    # a seeded sample of a fixed number of quads per class; q = 11 adds a
    # dia exceptional class and q = 25 the Frobenius moves of a second
    # f = 2 field
    size = {11: 300, 25: 4000}[q]
    p, f = odd_prime_power(q)
    F = make_field(p, 2 * f)
    rng = random.Random(q)
    compared = _walks_against_the_per_move_reference(
        monkeypatch, F, lambda cls: rng.sample(list(class_quads(F, cls)),
                                               size))
    assert compared == 2 * f * size * len(all_classes(q))


@pytest.mark.parametrize("q", [3, 5, 7, 9, 11, 13, 17, 19, 23, 25, 27, 49,
                               81])
def test_move_families_are_cosets_of_one_size(monkeypatch, q):
    # regrouped here as _image_walk groups them, every family of the
    # stabilizer's, the inverse's and each Frobenius power's moves has
    # first offsets {r + t s : 0 <= t < m}, s = n/m, one m per walker, which
    # lets a walk take a family's images, and the partition its seen
    # bytes, as slices
    built = []
    real = oracle._image_walk

    def recorded(F, src, dst, moves):
        walk = real(F, src, dst, moves)
        built.append((walk.family_size, moves))
        return walk

    monkeypatch.setattr(oracle, "_image_walk", recorded)
    p, f = odd_prime_power(q)
    F = make_field(p, 2 * f)
    n = F.size - 1
    for cls in all_classes(q):
        oracle.orbit_walker(F, cls)
        oracle._inverse_quad(F, cls)
        for j in range(1, f):
            oracle._frobenius_walk(F, cls, j)
    # per class the stabilizer's and the inverse's walkers, and per
    # Frobenius power one fixed move and the image class's stabilizer walker
    assert len(built) == 2 * f * len(all_classes(q))
    for m, moves in built:
        families = {}
        for k, ic, i1, i2, ish, o1, o2, osh in moves:
            key = (k, ic, i1, i2, ish, (o1 + o2) % n, osh)
            families.setdefault(key, []).append(o1)
        assert {len(o1s) for o1s in families.values()} == {m}
        sizes = (1,) if len(moves) == 1 else (q - 1, q + 1)
        assert n % m == 0 and m in sizes
        for o1s in families.values():
            r = min(o1s)
            assert r < n // m
            assert sorted(o1s) == list(range(r, n, n // m))


@pytest.mark.parametrize("form", ["dia", "off"])
def test_partition_asserts_each_walk_reaches_its_start(monkeypatch, F25,
                                                       form):
    # every walk leaves out the family of m images holding its start quad;
    # a dia class has only the log grid, and an off class's scan starts at
    # a zero row, so both places must fail
    real = oracle._image_walk

    def dropping(F, src, dst, moves):
        walk = real(F, src, dst, moves)
        m = walk.family_size

        def dropped(quad):
            images, cells = walk(quad)
            i = images.index(quad) // m  # family i is images[i m:(i + 1) m]
            return (images[:i * m] + images[(i + 1) * m:],
                    cells[:i] + cells[i + 1:])

        dropped.family_size = m
        return dropped

    monkeypatch.setattr(oracle, "_image_walk", dropping)
    cls = next(c for c in all_classes(5) if c.form == form)
    with pytest.raises(AssertionError, match="a walk must reach its own quad"):
        oracle.orbit_partition(F25, cls)


def test_partition_asserts_zero_row_orbits_disjoint(monkeypatch, F25):
    # every zero-row walk after the first also reports the first one's
    # first family, its m images and its cell; the zero rows of class
    # off 1 at q = 5 hold four orbits, so the second walk must fail
    real = oracle._image_walk

    def leaking(F, src, dst, moves):
        walk = real(F, src, dst, moves)
        m = walk.family_size
        earlier = []

        def leaked(quad):
            images, cells = walk(quad)
            if 0 in quad[:2]:  # a zero row
                if earlier:
                    return images + earlier[0], cells + earlier[1]
                earlier[:] = images[:m], cells[:1]
            return images, cells

        leaked.family_size = m
        return leaked

    monkeypatch.setattr(oracle, "_image_walk", leaking)
    with pytest.raises(AssertionError, match="orbits must be disjoint"):
        oracle.orbit_partition(F25, CanonClass("off", 1))


def test_row_tables_match_the_field_operation_reference():
    # random matrices over GF(3^6), zero entries and singular ones included
    F = make_field(3, 6)
    rng = random.Random(36)
    for _ in range(200):
        B = tuple(rng.choice((0, 1, rng.randrange(F.size))) for _ in range(4))
        assert oracle._row_table(F, B) == row_table_by_field_ops(F, B)


def test_partition_builds_no_partner_matrix(monkeypatch):
    calls = _count_calls(monkeypatch, oracle, "quad_matrix")
    orbits = enumerate_orbits(5)
    assert sum(len(o) for o in orbits.values()) == 69
    assert calls[0] == 0  # 69, one per orbit, when walks started from one


def test_partition_walks_quad_logs(monkeypatch):
    conjugations = _count_calls(monkeypatch, oracle, "conjugate")
    inverses = _count_calls(monkeypatch, TwElem, "inv")
    starts = _count_calls(monkeypatch, oracle, "quad_matrix")
    orbits = enumerate_orbits(9)
    assert sum(len(o) for o in orbits.values()) == 790
    assert sum(len(orbit) for o in orbits.values() for orbit in o) == 15680
    assert conjugations[0] == 0  # one per quad (15,680) before the walk
    assert inverses[0] <= sum(stabilizer_size(cls, 9) for cls in orbits) == 112
    assert starts[0] == 0  # 790, one partner matrix per walk, before


def test_fusion_looks_up_images_once_per_bundle(records9, monkeypatch):
    calls = {name: _count_calls(monkeypatch, oracle, name)
             for name in ("canonical_form", "quad_pair", "conjugate",
                          "matrix_quad")}
    lam_sigma = []

    def counted(F, cls, _fn=oracle._lam_sigma):
        lam_sigma.append(cls)
        return _fn(F, cls)

    monkeypatch.setattr(oracle, "_lam_sigma", counted)
    assert len(galois_fuse(records9, 3, 2)) == 395
    # one canonical form per class and Frobenius power (395 when each image
    # took its own), and each key walked through log-form moves: 395
    # quad_pair, conjugate and matrix_quad calls and 795 _lam_sigma calls
    # when each image went through a TwElem
    assert {name: c[0] for name, c in calls.items()} == {
        "canonical_form": len(all_classes(9)), "quad_pair": 0,
        "conjugate": 0, "matrix_quad": 0}
    # one Frobenius power at q = 9: phi fixes off 5 and swaps dia 1 with
    # dia 3 and off 1 with off 3.  A class c's lam^sigma is taken once as
    # the source of its own fixed move and, by each class phi carries onto
    # c, once as that move's destination (only when it differs) and once
    # for c's stabilizer walker: 1 + 1 = 2 for off 5 and 1 + 1 + 1 = 3
    # for each swapped class (at most 2 when each (class, j) took one
    # walker of its own)
    per_class = Counter(lam_sigma)
    assert set(per_class) == set(all_classes(9))
    assert [per_class[c] for c in all_classes(9)] == [3, 3, 3, 3, 2]


def _check_frobenius_images(F, orbits, j, members):
    """The image orbit _frobenius_walk gives for each chosen member of each
    orbit is the walked orbit of the reference key of (phi^j(x), phi^j(y)),
    and the same for every member of one orbit."""
    for cls, cls_orbits in orbits.items():
        c, images = oracle._frobenius_walk(F, cls, j)
        walk = oracle.orbit_walker(F, c)
        for orbit in cls_orbits:
            image = sorted(images(orbit[0]))
            for quad in members(orbit):
                phi_pair = (TwElem(F, mat_frob(F, g.matrix, j), g.i)
                            for g in quad_pair(F, cls, quad))
                ref_cls, ref = pair_key(F, *phi_pair)
                assert ref_cls == c
                assert sorted(walk(ref)[0]) == sorted(images(quad)) == image


def test_frobenius_images_match_the_reference_keys_q9(F81, orbits9):
    _check_frobenius_images(F81, orbits9, 1, lambda orbit: orbit)


@pytest.mark.stretch
def test_frobenius_images_match_the_reference_keys_q27():
    # one seeded member per orbit, 132,314 reference keys in about 45 s;
    # every one of the 3.7 million quads, twice, would take about 40 min
    rng = random.Random(27)
    F, orbits = make_field(3, 6), enumerate_orbits(27)
    for j in (1, 2):
        _check_frobenius_images(F, orbits, j,
                                lambda orbit: [rng.choice(orbit)])


def test_reflexible_tallies_match_formulas(orbits3, orbits5, orbits7):
    for q, orbits in ((3, orbits3), (5, orbits5), (7, orbits7)):
        recs = orbit_records(q, orbits)
        expect = reflexible_orbit_counts(q)
        for form in ("dia", "off"):
            got = sum(1 for r in recs if r.form == form and r.reflexible)
            assert got == expect[form + "_total"]
        assert sum(r.reflexible for r in recs) == expect["total"]


def test_record_flags_agree_with_conjugator_witnesses(orbits3, orbits5,
                                                      orbits7, records9):
    # the records test orbit membership of the inverted and swapped pairs,
    # named through per-class witnesses; the references search the
    # stabilizer for an explicit conjugator, with no per-class shortcut
    for F, records in ((make_field(3, 2), orbit_records(3, orbits3)),
                       (make_field(5, 2), orbit_records(5, orbits5)),
                       (make_field(7, 2), orbit_records(7, orbits7)),
                       (make_field(3, 4), records9)):
        for r in records:
            pair = quad_pair(F, CanonClass(r.form, r.i), r.key)
            assert r.reflexible == (is_reflexible(pair) is not None)
            if r.k == r.l:
                pos, neg = self_duality(pair)
                assert (r.pos_selfdual, r.neg_selfdual) == (
                    pos is not None, neg is not None)
            else:
                assert not r.pos_selfdual and not r.neg_selfdual


def test_inverse_quad_names_the_inverse_pair_of_every_quad():
    # records apply the map to the dual quad of (y, x) as well as to orbit
    # heads, so check it on every quad: dia and off, generic and
    # exceptional classes, and f = 2 at q = 9.  The map is the move of
    # [D, 0], D = off(1, 1/lam), after inversion, quad for quad, and names
    # the orbit pair_key names
    kinds = set()
    for p, f in ((3, 1), (5, 1), (7, 1), (3, 2)):
        q, F = p ** f, make_field(p, 2 * f)
        for cls in all_classes(q):
            kinds.add((cls.form, is_exceptional(cls, q)))
            walk = oracle.orbit_walker(F, cls)
            inverse = oracle._inverse_quad(F, cls)
            D = TwElem(F, (0, 1, F.inv(F.pow(F.xi, cls.i)), 0), 0)
            for quad in class_quads(F, cls):
                x, y = quad_pair(F, cls, quad)
                c, ref = pair_key(F, x.inv(), y.inv())
                inv = inverse(quad)
                assert inv == matrix_quad(F, cls, conjugate(x.inv(), D).matrix)
                assert c == cls and inv in walk(ref)[0]
                assert inverse(inv) in walk(quad)[0]
    assert len(kinds) == 4


def test_records_name_inverse_pairs_without_conjugation(monkeypatch,
                                                        orbits9):
    # only the 162 diagonal orbits conjugate: canonical_form checks its
    # witness, and the witness names (y, x); inverse pairs take none, and
    # read no partner matrix (1,114 matrix_quad calls when they did)
    calls = [_count_calls(monkeypatch, module, "conjugate")
             for module in (oracle, canonical)]
    quads = _count_calls(monkeypatch, oracle, "matrix_quad")
    orbit_records(9, orbits9)
    assert [c[0] for c in calls] == [162, 162]
    assert quads[0] == 162


def test_records_take_lam_sigma_per_walker_key_and_dual_quad(monkeypatch,
                                                             orbits9):
    # lam^sigma is computed where it is read, in 0.3 us: once per class's
    # inverse walker, once per record key (quad_pair) and once per dual
    # quad (matrix_quad) of the 162 diagonal orbits
    calls = _count_calls(monkeypatch, oracle, "_lam_sigma")
    orbit_records(9, orbits9)
    assert len(orbits9) == 5
    assert sum(map(len, orbits9.values())) == 790
    assert calls[0] == 5 + 790 + 162 == 957


_RECORDS_SHA256 = {
    3: "dcac0d0ac2be231ff341f7d9e808878998bd7dc5725775737e2b82065491b528",
    5: "2b34826633fd9c752be8b36411cb6b5b981c5de63890dbaa3a0fbe30f28cbd0d",
    7: "80fed82a4288f385fe0a3de4172e0a0145d32e39c3116a8b0574a1cbc0a55269",
    9: "3b71758f4ff5c3f1202439b9e4f92641f40518470757f5af63ea82ed411f8d90",
    11: "23c971c25c3b22febf447baae8f25471bf0cc5e7499e33f6258064ba83be05d0",
    13: "81ee66a9e25715d2416015181f38193a9cdefdebc638da5559874b96c4e68827",
    17: "1f06593c5cbaff1bd84e111a4719201f556677b623002de5866f782d6415c2a9",
    19: "3290a18a9f415e246f566b7b2441211944d815f1c73daa598f81182f5f364c80",
    25: "b7415b2e1b5a7852d2573c6af824451ef7c2dfb2f6fbc19b1f07c4395f9ad28e",
    27: "ab4d4ad696e81b420806ae0b9256f9b9954fa073b633928699f7575614b1fa4b",
}


@pytest.mark.parametrize("q", [3, 5, 7, 9, 11, 13,
                               pytest.param(17, marks=pytest.mark.extended),
                               pytest.param(19, marks=pytest.mark.extended),
                               pytest.param(25, marks=pytest.mark.extended),
                               pytest.param(27, marks=pytest.mark.stretch)])
def test_records_equal_the_three_lookup_reference(q):
    # the reference names each image pair by its own canonical form; the
    # records name inverse pairs by one fixed conjugator and run a
    # canonical form only on x in y's class.  The digests pin the records'
    # repr as built at 65ff854, before inverse pairs took that conjugator
    orbits = enumerate_orbits(q)
    recs = orbit_records(q, orbits)
    assert recs == records_by_pair_key(q, orbits)
    digest = hashlib.sha256(repr(recs).encode()).hexdigest()
    assert digest == _RECORDS_SHA256[q]


# sha256 of repr(galois_fuse(records, p, f)), recorded at a3aca1b, before
# fusion walked Frobenius images through log-form moves
_FUSION_SHA256 = {
    9: "ee3d2d04a3885d63d4d7c0d10379eacddef9614e3110271943b42f903a14b5e6",
    25: "1df187595cb25a0178b2bd5ee36f3fb2e201aefa54c723238048b9be7182588b",
    27: "05fccef137791ef75479a574060ac0112cac81992dc16bf649d0bce09d36e4e2",
}


@pytest.mark.parametrize("q", [9, pytest.param(25, marks=pytest.mark.extended),
                               pytest.param(27, marks=pytest.mark.stretch)])
def test_fusion_bundles_match_their_pinned_digest(q):
    p, f = odd_prime_power(q)
    bundles = galois_fuse(orbit_records(q, enumerate_orbits(q)), p, f)
    digest = hashlib.sha256(repr(bundles).encode()).hexdigest()
    assert digest == _FUSION_SHA256[q]


def test_reflexible_search_agrees_with_element_scan_q3(F9, orbits3):
    everything = list(all_group_elements(F9, "Gbar"))
    for cls, cls_orbits in orbits3.items():
        for orbit in cls_orbits:
            pair = quad_pair(F9, cls, orbit[0])
            fast = is_reflexible(pair)
            slow = brute_reflexible(pair, everything)
            assert (fast is None) == (slow is None)


def test_reflexible_search_agrees_with_involution_scan_q5(F25, orbits5):
    invs = [g for g in all_group_elements(F25, "Gbar")
            if not g.is_identity() and (g * g).is_identity()]
    assert len(invs) == 755
    for cls, cls_orbits in orbits5.items():
        for orbit in cls_orbits:
            pair = quad_pair(F25, cls, orbit[0])
            fast = is_reflexible(pair)
            slow = brute_reflexible(pair, invs)
            assert (fast is None) == (slow is None)


def test_reflexible_witness_actually_inverts(F25, orbits5):
    rng = random.Random(20260823)
    picks = [(cls, orbit) for cls, cls_orbits in orbits5.items()
             for orbit in cls_orbits]
    for cls, orbit in rng.sample(picks, 12):
        x, y = quad_pair(F25, cls, orbit[0])
        g = is_reflexible((x, y))
        if g is not None:
            assert conjugate(x, g) == x.inv()
            assert conjugate(y, g) == y.inv()


def test_selfduality_requires_equal_orders(F9, orbits3):
    cls = CanonClass("dia", 1)
    pair = quad_pair(F9, cls, orbits3[cls][0][0])
    x, y = pair
    assert order(x) != order(y)
    with pytest.raises(ValueError):
        self_duality(pair)


def test_selfdual_table_matches_reference_rows(orbits3, orbits5, orbits7):
    # at prime q fusion is trivial, so the fused records at level f are
    # the level-1 orbit records
    for q, orbits in ((3, orbits3), (5, orbits5), (7, orbits7)):
        maps = [r for r in orbit_records(q, orbits) if r.level == 1]
        assert selfdual_cells(maps) == {"dia": SELFDUAL_TABLE[q]["dia"],
                                        "off": SELFDUAL_TABLE[q]["off"]}
        assert len(maps) == count_maps(q, 1)


def test_selfdual_search_agrees_with_element_scan_q3(F9, orbits3):
    everything = list(all_group_elements(F9, "Gbar"))
    for cls, cls_orbits in orbits3.items():
        for orbit in cls_orbits:
            x, y = quad_pair(F9, cls, orbit[0])
            if order(x) != order(y):
                continue
            pos, neg = self_duality((x, y))
            slow_pos = any(conjugate(x, g) == y and conjugate(y, g) == x
                           for g in everything)
            slow_neg = any(conjugate(x, g) == y.inv()
                           and conjugate(y, g) == x.inv()
                           for g in everything)
            assert (pos is not None) == slow_pos
            assert (neg is not None) == slow_neg


def test_selfdual_witnesses_swap_q5(F25, orbits5):
    seen = 0
    for cls, cls_orbits in orbits5.items():
        for orbit in cls_orbits:
            x, y = quad_pair(F25, cls, orbit[0])
            if order(x) != order(y):
                continue
            pos, neg = self_duality((x, y))
            if pos is not None:
                assert conjugate(x, pos) == y and conjugate(y, pos) == x
                seen += 1
            if neg is not None:
                assert conjugate(x, neg) == y.inv()
                assert conjugate(y, neg) == x.inv()
    assert seen == 15 + 10  # positives across both forms at q=5


def test_closure_reaches_the_whole_group_q3(F9, orbits3):
    for cls, cls_orbits in orbits3.items():
        for orbit in cls_orbits:
            pair = quad_pair(F9, cls, orbit[0])
            assert closure_order(pair) == 720  # |M(9)| = 9 * 80


def _row_element(F, z):
    """The TwElem of an element in closure_order's row form."""
    p0, p1, s1, i = z

    def row(p, lead):  # |F| stands for the point (0, 1)
        return (0, lead) if p == F.size else (lead, F.mul(lead, p))

    return TwElem(F, row(p0, 1) + row(p1, F.exp[s1]), i)


def test_closure_rows_are_the_subgroup_of_products(F9, F25, orbits3,
                                                   orbits5):
    # |PGL(2, q^2)| = |M(q^2)|, so a size alone would pass a kernel that
    # ignores sigma or never flips the twist bit; compare the element sets.
    # M(q^2) is {[A, iota(A)]} as a set, which a kernel that ignores sigma
    # also reaches, so the cyclic subgroups of x and y are compared too
    cls5 = CanonClass("off", 1)
    pairs = [quad_pair(F9, cls, orbit[0])
             for cls, cls_orbits in orbits3.items() for orbit in cls_orbits]
    pairs.append(quad_pair(F25, cls5, orbits5[cls5][0][0]))
    assert len(pairs) == 7 + 1
    for x, y in pairs:
        F = x.F
        rows = oracle._closure_rows((x, y), 10 ** 6)
        assert len(rows) == F.size * (F.size ** 2 - 1)
        assert ({_row_element(F, z) for z in rows}
                == closure_by_products((x, y)))
        for g in (x, y):
            rows = oracle._closure_rows((g, g), 10 ** 6)
            assert len(rows) == order(g)
            assert ({_row_element(F, z) for z in rows}
                    == closure_by_products((g, g)))


def test_closure_cap_is_exceeded_past_the_subgroup_order(F9, orbits3):
    cls = CanonClass("dia", 1)
    pair = quad_pair(F9, cls, orbits3[cls][0][0])
    with pytest.raises(RuntimeError, match="exceeds cap"):
        closure_order(pair, cap=719)
    assert closure_order(pair, cap=720) == 720


def test_closure_of_untwisted_generators_trips_the_half_twisted_check(
        F9, orbits3):
    cls = CanonClass("off", 1)
    x, y = quad_pair(F9, cls, orbits3[cls][0][0])
    with pytest.raises(AssertionError, match="half twisted"):
        closure_order((x * x, y * y))


def test_closure_reaches_the_whole_group_q5_sampled(F25, orbits5):
    rng = random.Random(7)
    picks = [(cls, orbit) for cls, cls_orbits in orbits5.items()
             for orbit in cls_orbits]
    for cls, orbit in rng.sample(picks, 2):
        pair = quad_pair(F25, cls, orbit[0])
        assert closure_order(pair) == 15600  # |M(25)| = 25 * 624


def test_levels_are_the_only_admissible_ones(orbits3, records9):
    recs3 = orbit_records(3, orbits3)
    assert all(r.level == 1 for r in recs3)
    assert len(recs3) == 7
    # f = 2 admits no proper twisted level, so everything generates
    assert all(r.level == 2 for r in records9)
    assert len(records9) == 790


def test_embedded_subfield_pairs_sit_at_level_one(F9, orbits3):
    Fbig = make_field(3, 6)

    def lift(g):
        M = tuple(Fbig.embed_from(F9, e) for e in g.matrix)
        return TwElem(Fbig, M, g.i)

    for cls, cls_orbits in orbits3.items():
        for orbit in cls_orbits:
            x, y = quad_pair(F9, cls, orbit[0])
            pair = (lift(x), lift(y))
            assert generated_level(pair, [order(z) for z in pair]) == 1
            assert closure_order(pair) == 720


def test_generic_pair_at_q27_sits_at_level_three(monkeypatch):
    Fbig = make_field(3, 6)
    cls = CanonClass("dia", 1)
    quad = next(iter(class_quads(Fbig, cls)))
    pair = quad_pair(Fbig, cls, quad)
    # orders 52 and 52, neither a twisted order over GF(9): no closure
    assert [order(z) for z in pair] == [52, 52]
    calls = _count_calls(monkeypatch, oracle, "closure_order")
    assert generated_level(pair, (52, 52)) == 3
    assert calls[0] == 0


@pytest.mark.parametrize("form, i, index, quad, level", [
    ("dia", 13, 7, (1, 134, 32), 3),   # orders 8 and 4: closure past cap
    ("off", 7, 20, (0, 567, 160), 1),  # orders 8 and 8: closure of 720
], ids=["closure-past-cap", "closure-at-level-one"])
def test_orders_screen_and_the_closure_decides_at_q27(
        monkeypatch, form, i, index, quad, level):
    # at q = 27 the one proper level is e = 1, whose twisted elements have
    # orders 4 and 8; a pair with both orders there passes the screen, and
    # only the capped closure tells a level-one pair from a level-three one
    Fbig = make_field(3, 6)
    assert {canonical_order(c, 3) for c in all_classes(3)} == {4, 8}
    cls = CanonClass(form, i)
    quads = list(class_quads(Fbig, cls))
    assert quads[index] == quad
    assert index == min(k for k, qd in enumerate(quads)
                        if order(quad_pair(Fbig, cls, qd)[0]) in (4, 8))
    calls = _count_calls(monkeypatch, oracle, "closure_order")
    pair = quad_pair(Fbig, cls, quad)
    assert generated_level(pair, [order(z) for z in pair]) == level
    assert calls[0] == 1


def test_records_hand_the_level_screen_their_element_orders(monkeypatch,
                                                           orbits9):
    # every q <= 25 returns before the screen reads the orders, so check
    # the orders each record passes against the root formula
    real = oracle.generated_level
    calls = []

    def checked(pair, orders):
        assert list(orders) == [order(z) for z in pair]
        calls.append(pair)
        return real(pair, orders)

    monkeypatch.setattr(oracle, "generated_level", checked)
    orbit_records(9, orbits9)
    assert len(calls) == 790


def test_galois_fusion_at_q9(records9):
    bundles = galois_fuse(records9, 3, 2)
    assert len(bundles) == 395
    assert all(len(b) == 2 for b in bundles)
    fused = fused_records(bundles)
    assert len(fused) == 395
    assert sum(r.size for r in fused) == sum(r.size for r in records9)
    assert selfdual_cells(fused) == {"dia": SELFDUAL_TABLE[9]["dia"],
                                     "off": SELFDUAL_TABLE[9]["off"]}


def test_fusion_bundles_name_orbits_by_record_key(F81, orbits9, records9):
    bundles = galois_fuse(records9, 3, 2)
    assert sorted(m for b in bundles for m in b) == records9
    assert bundles == sorted(bundles) and all(b == sorted(b) for b in bundles)
    # the positional fusion this replaces: orbits named (class, index), the
    # Frobenius image of every orbit located through a quad -> name dict,
    # and members aggregated after looking their keys up by index
    locate = {(cls, quad): (cls, idx) for cls, cls_orbits in orbits9.items()
              for idx, orbit in enumerate(cls_orbits) for quad in orbit}
    old = set()
    for cls, cls_orbits in orbits9.items():
        for idx, orbit in enumerate(cls_orbits):
            phi_x, phi_y = (TwElem(F81, mat_frob(F81, g.matrix, 1), g.i)
                            for g in quad_pair(F81, cls, orbit[0]))
            image = locate[pair_key(F81, phi_x, phi_y)]
            old.add(frozenset({(cls, idx), image}))
    by_key = {(r.form, r.i, r.key): r for r in records9}

    def aggregate(members):
        least = min(members, key=lambda m: (m.i, m.key))
        return replace(members[0], i=least.i, key=least.key,
                       size=sum(m.size for m in members))

    old_fused = [aggregate([by_key[(cls.form, cls.i, orbits9[cls][idx][0])]
                            for cls, idx in b]) for b in old]
    old_fused.sort(key=lambda r: (r.form, r.i, r.key))
    assert fused_records(bundles) == old_fused


@pytest.mark.stretch
def test_fusion_at_q27_stays_below_400_mb():
    # partition, records and fusion in a fresh process, which reads its own
    # high-water mark, VmHWM: its ru_maxrss would start at the resident size
    # of this process, inherited across fork and exec
    code = textwrap.dedent("""
        import json
        from collections import Counter
        from twistedmaps.oracle import (enumerate_orbits, galois_fuse,
                                        orbit_records)
        bundles = galois_fuse(orbit_records(27, enumerate_orbits(27)), 3, 3)
        with open("/proc/self/status") as status:
            hwm = next(line for line in status if line.startswith("VmHWM:"))
        print(json.dumps({
            "sizes": sorted(Counter(len(b) for b in bundles).items()),
            "maxrss_kb": int(hwm.split()[1])}))
    """)
    src = str(Path(oracle.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=1800)
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout)
    assert got["sizes"] == [[1, 7], [3, 22050]]
    assert count_maps(3, 3) == 22050
    assert got["maxrss_kb"] < 400 * 1024, got["maxrss_kb"]


def test_fusion_is_trivial_at_prime_q(orbits3):
    recs = orbit_records(3, orbits3)
    assert fused_records(galois_fuse(recs, 3, 1)) == recs


def test_records_are_sorted_and_unique(records9):
    keys = [(r.form, r.i, r.key) for r in records9]
    assert keys == sorted(keys)
    assert len(set(keys)) == len(keys)


def test_record_types_respect_the_order_obstruction(orbits3, orbits5,
                                                    records9):
    recs = (orbit_records(3, orbits3)
            + orbit_records(5, orbits5) + list(records9))
    for r in recs:
        assert not type_obstruction(r.k, r.l)


def test_record_types_agree_with_map_type(F9, F25, F81, orbits3, orbits5,
                                         records9):
    # the type (k, l) is read from the orders of the two classes; recompute
    # both orders of every representative pair by repeated products
    for F, recs in ((F9, orbit_records(3, orbits3)),
                    (F25, orbit_records(5, orbits5)), (F81, records9)):
        for r in recs:
            x, y = quad_pair(F, CanonClass(r.form, r.i), r.key)
            assert (r.k, r.l) == (naive_order(x), naive_order(y))
            xy = x * y
            assert not xy.is_identity() and (xy * xy).is_identity()


def test_reflexible_counts_at_q9_split_by_form(records9):
    expect = reflexible_orbit_counts(9)
    for form in ("dia", "off"):
        got = sum(1 for r in records9 if r.form == form and r.reflexible)
        assert got == expect[form + "_total"]
