"""Brute-force layer: enumeration, partitions, searches, and the ways they
corroborate the closed-form counts."""

import json
import os
import random
import subprocess
import sys
import textwrap
from dataclasses import replace
from pathlib import Path

import pytest

from twistedmaps import oracle
from twistedmaps.canonical import (CanonClass, all_classes, canonical_order,
                                   is_exceptional, stabilizer_elements,
                                   stabilizer_size)
from twistedmaps.census import (count_maps, orbit_counts,
                                reflexible_orbit_counts, type_obstruction)
from twistedmaps.gfield import make_field
from twistedmaps.oracle import (SELFDUAL_TABLE, act_quad, class_quads,
                                closure_order, enumerate_orbits,
                                fused_records, galois_fuse, generated_level,
                                matrix_quad, orbit_count_summary,
                                orbit_records, quad_pair, selfdual_cells)
from twistedmaps.twisted_group import (TwElem, conjugate, mat_frob, mat_mul,
                                       order)

from reference import (all_group_elements, brute_reflexible, is_reflexible,
                       self_duality)


def _count_calls(monkeypatch, owner, name):
    """Wrap owner.name; the returned one-item list counts its calls."""
    calls = [0]
    real = getattr(owner, name)

    def counted(*args):
        calls[0] += 1
        return real(*args)

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
    assert len(calls) < 1000  # 16,475 when it ran once per quad


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
    # orbit at q = 9 and 11, where q = 11 adds a dia exceptional class
    rng = random.Random(11)
    for F, orbits, every in ((F9, orbits3, True), (F25, orbits5, True),
                             (F49, orbits7, True), (F81, orbits9, False),
                             (make_field(11, 2), enumerate_orbits(11), False)):
        for cls, cls_orbits in orbits.items():
            stab = stabilizer_elements(cls, F)
            walk = oracle.orbit_walker(F, cls)
            for orbit in cls_orbits:
                assert set(orbit) == {act_quad(F, cls, g, orbit[0])
                                      for g in stab}
                for quad in orbit if every else [rng.choice(orbit)]:
                    assert walk(quad) == {act_quad(F, cls, g, quad)
                                          for g in stab}


def test_partition_walk_rejects_a_move_outside_the_stabilizer(F25,
                                                             monkeypatch):
    # dia(xi, 1) L A^(sigma^j) R is monomial like every move, but scales one
    # row, so the walk's shape check must refuse it
    moves = oracle._stabilizer_moves

    def skewed(F, cls):
        (L, R, j), *rest = moves(F, cls)
        return [(mat_mul(F, (F.xi, 0, 0, 1), L), R, j)] + rest

    monkeypatch.setattr(oracle, "_stabilizer_moves", skewed)
    for cls in all_classes(5):
        with pytest.raises(AssertionError, match="involution shape"):
            oracle.orbit_partition(F25, cls)


def test_partition_builds_one_pair_per_orbit(monkeypatch):
    calls = _count_calls(monkeypatch, oracle, "quad_matrix")
    orbits = enumerate_orbits(5)
    assert sum(len(o) for o in orbits.values()) == 69
    assert calls[0] == 69


def test_partition_walks_raw_matrices(monkeypatch):
    conjugations = _count_calls(monkeypatch, oracle, "conjugate")
    inverses = _count_calls(monkeypatch, TwElem, "inv")
    starts = _count_calls(monkeypatch, oracle, "quad_matrix")
    orbits = enumerate_orbits(9)
    assert sum(len(o) for o in orbits.values()) == 790
    assert sum(len(orbit) for o in orbits.values() for orbit in o) == 15680
    assert conjugations[0] == 0  # one per quad (15,680) before the walk
    assert inverses[0] <= sum(stabilizer_size(cls, 9) for cls in orbits) == 112
    assert starts[0] == 790


def test_fusion_looks_up_images_once_per_bundle(orbits9, monkeypatch):
    calls = _count_calls(monkeypatch, oracle, "pair_key")
    assert len(galois_fuse(orbits9, 3, 2)) == 395
    assert calls[0] == 395  # one image per bundle of two, not per orbit


def test_reflexible_tallies_match_formulas(orbits3, orbits5, orbits7):
    for q, orbits in ((3, orbits3), (5, orbits5), (7, orbits7)):
        recs = orbit_records(q, orbits)
        expect = reflexible_orbit_counts(q)
        for form in ("dia", "off"):
            got = sum(1 for r in recs if r.form == form and r.reflexible)
            assert got == expect[form + "_total"]
        assert sum(r.reflexible for r in recs) == expect["total"]


def test_record_flags_agree_with_conjugator_witnesses(orbits3, orbits5,
                                                      orbits7):
    # the records test orbit membership of the inverted and swapped pairs;
    # the references search the stabilizer for an explicit conjugator
    for q, orbits in ((3, orbits3), (5, orbits5), (7, orbits7)):
        F = make_field(q, 2)
        for r in orbit_records(q, orbits):
            pair = quad_pair(F, CanonClass(r.form, r.i), r.key)
            assert r.reflexible == (is_reflexible(pair) is not None)
            if r.k == r.l:
                pos, neg = self_duality(pair)
                assert (r.pos_selfdual, r.neg_selfdual) == (
                    pos is not None, neg is not None)
            else:
                assert not r.pos_selfdual and not r.neg_selfdual


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


def test_closure_multiplies_by_positive_generators_only(F9, orbits3,
                                                         monkeypatch):
    cls = CanonClass("off", 1)
    pair = quad_pair(F9, cls, orbits3[cls][0][0])
    calls = _count_calls(monkeypatch, TwElem, "__mul__")
    assert closure_order(pair) == 720
    assert calls[0] == 2 * 720  # each element times x and times y


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
            assert generated_level(pair) == 1
            assert closure_order(pair) == 720


def test_generic_pair_at_q27_sits_at_level_three():
    Fbig = make_field(3, 6)
    cls = CanonClass("dia", 1)
    quad = next(iter(class_quads(Fbig, cls)))
    pair = quad_pair(Fbig, cls, quad)
    assert generated_level(pair) == 3


def test_fusion_reads_only_orbit_heads(orbits9):
    # fusion names each Frobenius image by walking it, not through an index
    # of every partitioned quad, so orbits cut to their least quad suffice
    heads = {cls: [orbit[:1] for orbit in cls_orbits]
             for cls, cls_orbits in orbits9.items()}
    assert galois_fuse(heads, 3, 2) == galois_fuse(orbits9, 3, 2)


def test_galois_fusion_at_q9(orbits9, records9):
    bundles = galois_fuse(orbits9, 3, 2)
    assert len(bundles) == 395
    assert all(len(b) == 2 for b in bundles)
    fused = fused_records(records9, bundles)
    assert len(fused) == 395
    assert sum(r.size for r in fused) == sum(r.size for r in records9)
    assert selfdual_cells(fused) == {"dia": SELFDUAL_TABLE[9]["dia"],
                                     "off": SELFDUAL_TABLE[9]["off"]}


def test_fusion_bundles_name_orbits_by_record_key(F81, orbits9, records9):
    bundles = galois_fuse(orbits9, 3, 2)
    heads = {(cls, orbit[0]) for cls, cls_orbits in orbits9.items()
             for orbit in cls_orbits}
    assert all(member in heads for b in bundles for member in b)
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
            image = locate[oracle.pair_key(F81, phi_x, phi_y)]
            old.add(frozenset({(cls, idx), image}))
    by_key = {(r.form, r.i, r.key): r for r in records9}

    def aggregate(members):
        least = min(members, key=lambda m: (m.i, m.key))
        return replace(members[0], i=least.i, key=least.key,
                       size=sum(m.size for m in members))

    old_fused = [aggregate([by_key[(cls.form, cls.i, orbits9[cls][idx][0])]
                            for cls, idx in b]) for b in old]
    old_fused.sort(key=lambda r: (r.form, r.i, r.key))
    assert fused_records(records9, bundles) == old_fused


@pytest.mark.stretch
def test_fusion_at_q27_stays_below_400_mb():
    # partition plus fusion in a fresh process, so ru_maxrss is theirs
    code = textwrap.dedent("""
        import json, resource
        from collections import Counter
        from twistedmaps.oracle import enumerate_orbits, galois_fuse
        bundles = galois_fuse(enumerate_orbits(27), 3, 3)
        print(json.dumps({
            "sizes": sorted(Counter(len(b) for b in bundles).items()),
            "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}))
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
    assert fused_records(recs, galois_fuse(orbits3, 3, 1)) == recs


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
    # the type (k, l) is read from a per-class order table; recompute both
    # orders of every representative pair by exponent descent
    for F, recs in ((F9, orbit_records(3, orbits3)),
                    (F25, orbit_records(5, orbits5)), (F81, records9)):
        for r in recs:
            x, y = quad_pair(F, CanonClass(r.form, r.i), r.key)
            assert (r.k, r.l) == (order(x), order(y))
            xy = x * y
            assert not xy.is_identity() and (xy * xy).is_identity()


def test_reflexible_counts_at_q9_split_by_form(records9):
    expect = reflexible_orbit_counts(9)
    for form in ("dia", "off"):
        got = sum(1 for r in records9 if r.form == form and r.reflexible)
        assert got == expect[form + "_total"]
