"""Acceptance gate: one test per contract criterion.  Each prints a single
pass/fail line with its runtime; stated budgets are asserted, the rest are
informational."""

import random
import time

import pytest

from twistedmaps import census
from twistedmaps.canonical import (all_classes, canonical_order,
                                   canonical_rep, stabilizer_elements,
                                   stabilizer_size)
from twistedmaps.gfield import make_field
from twistedmaps.numth import prime_power
from twistedmaps.oracle import (SELFDUAL_TABLE, closure_order,
                                enumerate_orbits, fused_records, galois_fuse,
                                generated_level, orbit_count_summary,
                                orbit_partition, orbit_records, quad_pair,
                                selfdual_cells)
from twistedmaps.twisted_group import TwElem, conjugate, in_G, order

from reference import all_group_elements, naive_order

# one line per criterion; rendered by the terminal-summary hook in conftest
_RESULTS = []


def _criterion(label, desc, t0, failures, budget=None):
    elapsed = time.time() - t0
    over = budget is not None and elapsed >= budget
    verdict = "FAIL" if failures or over else "pass"
    clock = "%.1fs" % elapsed
    if budget is not None:
        clock += " of %ds" % budget
    _RESULTS.append("criterion %-3s %-4s %s (%s)"
                    % (label, verdict, desc, clock))
    assert not failures, "; ".join(failures)
    assert not over, "over budget: %.1fs >= %ds" % (elapsed, budget)


def test_criterion_01_smallest_census_formula_equals_enumeration():
    t0 = time.time()
    bad = []
    if census.count_maps(3, 1) != 7:
        bad.append("formula gives %d maps" % census.count_maps(3, 1))
    total = orbit_count_summary(3, enumerate_orbits(3))["total"]
    if total != 7:
        bad.append("enumeration gives %d orbits" % total)
    _criterion("1", "q=3 census: 7 = 7", t0, bad, budget=5)


def test_criterion_02_q5_totals_and_reflexible():
    t0 = time.time()
    bad = []
    orbits = enumerate_orbits(5)
    total = orbit_count_summary(5, orbits)["total"]
    if (census.count_maps(5, 1), total) != (69, 69):
        bad.append("totals %d vs %d"
                    % (census.count_maps(5, 1), total))
    refl = sum(r.reflexible for r in orbit_records(5, orbits))
    if (census.count_reflexible_maps(5, 1), refl) != (39, 39):
        bad.append("reflexible %d vs %d"
                    % (census.count_reflexible_maps(5, 1), refl))
    _criterion("2", "q=5 census: 69 = 69 and 39 = 39", t0, bad, budget=60)


def test_criterion_03_q7_per_form_counts():
    t0 = time.time()
    bad = []
    orbits = enumerate_orbits(7)
    summary = orbit_count_summary(7, orbits)
    expected = census.orbit_counts(7)
    for key in ("dia_generic", "dia_exceptional", "off_generic",
                "off_exceptional", "total"):
        if summary[key] != expected[key]:
            bad.append("%s %d vs %d" % (key, expected[key], summary[key]))
    recs = orbit_records(7, orbits)
    rexp = census.reflexible_orbit_counts(7)
    for form in ("dia", "off"):
        got = sum(1 for r in recs if r.form == form and r.reflexible)
        if got != rexp[form + "_total"]:
            bad.append("reflexible %s %d vs %d"
                       % (form, rexp[form + "_total"], got))
    _criterion("3", "q=7 per-form orbit and reflexible counts", t0, bad,
               budget=600)


def test_criterion_04_q9_fusion():
    t0 = time.time()
    bad = []
    orbits = enumerate_orbits(9)
    total = sum(len(v) for v in orbits.values())
    if total != 790:
        bad.append("%d orbits" % total)
    bundles = galois_fuse(orbit_records(9, orbits), 3, 2)
    if len(bundles) != 395 or len(bundles) != census.count_maps(3, 2):
        bad.append("%d bundles" % len(bundles))
    if any(len(b) != 2 for b in bundles):
        bad.append("bundle of size != 2")
    _criterion("4", "q=9: 790 orbits fuse into 395 size-2 bundles", t0, bad,
               budget=900)


def _map_records(q, orbits, records=None):
    """Fused records at level f: one per map class over GF(q^2)."""
    p, f = prime_power(q)
    if records is None:
        records = orbit_records(q, orbits)
    if f > 1:
        records = fused_records(galois_fuse(records, p, f))
    return [r for r in records if r.level == f]


def test_criterion_05_reference_table_small_q(orbits3, orbits5, orbits7,
                                              orbits9, records9):
    t0 = time.time()
    bad = []
    for q, orbits, records in ((3, orbits3, None), (5, orbits5, None),
                               (7, orbits7, None), (9, orbits9, records9)):
        table = selfdual_cells(_map_records(q, orbits, records))
        for form in ("dia", "off"):
            if table[form] != SELFDUAL_TABLE[q][form]:
                bad.append("q=%d %s %s vs %s"
                           % (q, form, SELFDUAL_TABLE[q][form], table[form]))
    _criterion("5", "self-duality table rows q in {3,5,7,9}", t0, bad)


@pytest.mark.parametrize("q", [11, 13,
                               pytest.param(17, marks=pytest.mark.extended),
                               pytest.param(19, marks=pytest.mark.extended)])
def test_criterion_05_reference_table_extended(q):
    t0 = time.time()
    bad = []
    maps = _map_records(q, enumerate_orbits(q))
    table = selfdual_cells(maps)
    for form in ("dia", "off"):
        if table[form] != SELFDUAL_TABLE[q][form]:
            bad.append("%s %s vs %s"
                       % (form, SELFDUAL_TABLE[q][form], table[form]))
    if len(maps) != census.count_maps(q, 1):
        bad.append("map total %d" % len(maps))
    _criterion("5+%d" % q, "self-duality table row q=%d" % q, t0, bad)


def test_criterion_06_count_identity_all_small_prime_powers():
    t0 = time.time()
    bad = []
    seen = 0
    for q in range(3, 10 ** 4, 2):
        pf = prime_power(q)
        if pf is None or pf[0] == 2:
            continue
        seen += 1
        counts = census.orbit_counts(q)
        parts = (counts["dia_generic"] + counts["dia_exceptional"]
                 + counts["off_generic"] + counts["off_exceptional"])
        if parts != census.total_orbits(q):
            bad.append("q=%d: %d != %d"
                       % (q, parts, census.total_orbits(q)))
    if seen < 1200:
        bad.append("only %d prime powers scanned" % seen)
    _criterion("6", "class-count identity for %d odd prime powers < 10^4"
               % seen, t0, bad, budget=1)


def test_criterion_07_orders_and_stabilizers():
    t0 = time.time()
    bad = []
    for q in (3, 5, 7, 9, 25, 27):
        p, f = prime_power(q)
        F = make_field(p, 2 * f)
        for cls in all_classes(q):
            rep = canonical_rep(cls, F)
            if naive_order(rep) != canonical_order(cls, q):
                bad.append("order q=%d %s" % (q, cls))
            stab = stabilizer_elements(cls, F)
            if len(stab) != stabilizer_size(cls, q):
                bad.append("stab size q=%d %s" % (q, cls))
            if any(conjugate(rep, s) != rep for s in stab):
                bad.append("stab does not fix q=%d %s" % (q, cls))
    for q in (3, 5):
        F = make_field(q, 2)
        everything = list(all_group_elements(F, "Gbar"))
        for cls in all_classes(q):
            rep = canonical_rep(cls, F)
            fixing = sum(1 for g in everything if conjugate(rep, g) == rep)
            if fixing != stabilizer_size(cls, q):
                bad.append("extra fixing elements q=%d %s" % (q, cls))
    _criterion("7", "order formulas and stabilizers, exhaustive at q=3,5",
               t0, bad)


def test_criterion_08_twisted_orders_divisible_by_four():
    t0 = time.time()
    bad = []
    F9 = make_field(3, 2)
    twisted = [x for x in all_group_elements(F9, "G") if x.i == 1]
    if len(twisted) != 360:
        bad.append("%d twisted elements at q=3" % len(twisted))
    if any(order(x) % 4 for x in twisted):
        bad.append("q=3 violation")
    rng = random.Random(20260823)
    for p, m in ((5, 2), (7, 2), (3, 4)):
        F = make_field(p, m)
        count = 0
        while count < 10 ** 4:
            A = tuple(rng.randrange(F.size) for _ in range(4))
            try:
                x = TwElem(F, A, 1)
            except ValueError:
                continue
            if not in_G(x):
                continue
            if order(x) % 4:
                bad.append("violation at p^m=%d^%d" % (p, m))
                break
            count += 1
    _criterion("8", "twisted element orders divisible by 4", t0, bad)


def test_criterion_09_no_obstructed_types():
    t0 = time.time()
    bad = []
    for q in (3, 5, 7, 9):
        p, f = prime_power(q)
        F = make_field(p, 2 * f)
        for cls, cls_orbits in enumerate_orbits(q).items():
            for orbit in cls_orbits:
                x, y = quad_pair(F, cls, orbit[0])
                k, l = order(x), order(y)
                if census.type_obstruction(k, l):
                    bad.append("q=%d type (%d,%d)" % (q, k, l))
    _criterion("9", "no enumerated pair has an obstructed type", t0, bad)


def test_criterion_10_property_suites():
    t0 = time.time()
    bad = []
    rng = random.Random(97)

    F = make_field(3, 6)
    els = list(range(F.size))
    for _ in range(300):
        a, b, c = (rng.choice(els) for _ in range(3))
        if F.mul(a, F.add(b, c)) != F.add(F.mul(a, b), F.mul(a, c)):
            bad.append("distributivity")
        if F.mul(F.mul(a, b), c) != F.mul(a, F.mul(b, c)):
            bad.append("associativity")
        if a and F.mul(a, F.inv(a)) != 1:
            bad.append("inverses")
        fa, fb = F.frobenius(a, 1), F.frobenius(b, 1)
        if F.frobenius(F.add(a, b), 1) != F.add(fa, fb):
            bad.append("frobenius additivity")
        if F.frobenius(F.mul(a, b), 1) != F.mul(fa, fb):
            bad.append("frobenius multiplicativity")
        if F.frobenius(a, F.m) != a:
            bad.append("frobenius order")

    F9 = make_field(3, 2)
    for _ in range(100):
        A = tuple(rng.randrange(9) for _ in range(4))
        c = rng.randrange(1, 9)
        try:
            x = TwElem(F9, A, 1)
        except ValueError:
            continue
        scaled = TwElem(F9, tuple(F9.mul(c, e) for e in A), 1)
        if x != scaled:
            bad.append("projective scaling")

    orbits = enumerate_orbits(5)
    for cls, cls_orbits in orbits.items():
        expect = stabilizer_size(cls, 5)
        if any(len(orbit) != expect for orbit in cls_orbits):
            bad.append("semiregularity")

    for p in (3, 5, 7):
        for f in range(1, 65):
            back = sum(census.count_generating_orbits(p, e)
                       for e in census.twisted_divisors(f))
            if back != census.total_orbits(p ** f):
                bad.append("mobius p=%d f=%d" % (p, f))

    _criterion("10", "field, group, orbit and lattice property suites",
               t0, bad)


@pytest.mark.stretch
def test_stretch_q27_partition_strata():
    t0 = time.time()
    bad = []
    F = make_field(3, 6)
    summary = {"dia_generic": 0, "dia_exceptional": 0,
               "off_generic": 0, "off_exceptional": 0}
    from twistedmaps.canonical import is_exceptional
    level_one = []
    for cls in all_classes(27):
        kind = "exceptional" if is_exceptional(cls, 27) else "generic"
        orbits = orbit_partition(F, cls)
        summary["%s_%s" % (cls.form, kind)] += len(orbits)
        for orbit in orbits:
            pair = quad_pair(F, cls, orbit[0])
            if generated_level(pair, [order(z) for z in pair]) == 1:
                level_one.append(pair)

    expected = census.orbit_counts(27)
    for key in summary:
        if summary[key] != expected[key]:
            bad.append("%s %d vs %d" % (key, expected[key], summary[key]))
    total = sum(summary.values())
    if total != 66157:
        bad.append("total %d" % total)
    if len(level_one) != 7:
        bad.append("%d level-one orbits" % len(level_one))
    if total - len(level_one) != census.count_generating_orbits(3, 3):
        bad.append("generating count mismatch")
    for pair in level_one:
        if closure_order(pair) != 720:
            bad.append("level-one closure is not M(9)")
            break
    _criterion("S", "q=27 partition strata: 66157 orbits, 7 from M(9)",
               t0, bad, budget=1800)
