"""Closed-form counting layer: orbit counts, inversion, reflexible counts."""

import ast
import os
import random
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from twistedmaps import census as cs
from twistedmaps.numth import divisors, is_prime, mobius


def test_nf_values():
    assert cs.n_F(3) == 2
    assert cs.n_F(5) == 6
    assert cs.n_F(7) == 12
    assert cs.n_F(9) == 20


def test_orbit_counts_small_q():
    oc = cs.orbit_counts(3)
    assert (oc["dia_generic"], oc["dia_exceptional"],
            oc["off_generic"], oc["off_exceptional"]) == (0, 2, 5, 0)
    oc = cs.orbit_counts(5)
    assert (oc["dia_generic"], oc["dia_exceptional"],
            oc["off_generic"], oc["off_exceptional"]) == (33, 0, 26, 10)
    oc = cs.orbit_counts(7)
    assert (oc["dia_generic"], oc["dia_exceptional"],
            oc["off_generic"], oc["off_exceptional"]) == (92, 40, 150, 0)


def test_exceptional_side_tracks_residue():
    for q in (3, 5, 7, 9, 11, 13, 25, 27, 31, 49):
        oc = cs.orbit_counts(q)
        if q % 4 == 3:
            assert oc["dia_exceptional"] > 0 and oc["off_exceptional"] == 0
        else:
            assert oc["dia_exceptional"] == 0 and oc["off_exceptional"] > 0


def test_orbit_sum_identity_all_odd_prime_powers_below_ten_thousand():
    qs = [q for q in range(3, 10 ** 4, 2)
          if any(q == p ** k for p in range(3, 101, 2) if is_prime(p)
                 for k in range(1, 9) if p ** k <= q)]
    assert 3 in qs and 9 in qs and 6561 in qs and 9409 in qs
    for q in qs:
        assert cs.orbit_counts(q)["total"] == cs.total_orbits(q)


def test_total_orbit_values():
    assert cs.total_orbits(3) == 7
    assert cs.total_orbits(9) == 790
    assert cs.total_orbits(27) == 66157


def test_map_counts_tower_of_three():
    assert cs.count_maps(3, 1) == 7
    assert cs.count_generating_orbits(3, 2) == 790
    assert cs.count_maps(3, 2) == 395
    assert cs.count_generating_orbits(3, 3) == 66150
    assert cs.count_maps(3, 3) == 22050


def test_twisted_divisors():
    assert cs.twisted_divisors(1) == [1]
    assert cs.twisted_divisors(2) == [2]
    assert cs.twisted_divisors(3) == [1, 3]
    assert cs.twisted_divisors(4) == [4]
    assert cs.twisted_divisors(6) == [2, 6]
    assert cs.twisted_divisors(12) == [4, 12]
    assert cs.twisted_divisors(45) == [1, 3, 5, 9, 15, 45]


def test_mobius_round_trip():
    # summing exact-level counts over the admissible sublevels recovers the
    # plain total, for every exponent up to 64 and small p
    for p in (3, 5, 7):
        for f in range(1, 65):
            total = sum(cs.count_generating_orbits(p, e)
                        for e in cs.twisted_divisors(f))
            assert total == cs.total_orbits(p ** f), (p, f)
            rtotal = sum(cs.count_reflexible_generating_orbits(p, e)
                         for e in cs.twisted_divisors(f))
            assert rtotal == cs.total_reflexible_orbits(p ** f), (p, f)


def test_map_count_divisibility_sampled():
    rng = random.Random(13)
    for _ in range(40):
        p = rng.choice([3, 5, 7, 11, 13])
        f = rng.randrange(1, 30)
        orb = cs.count_generating_orbits(p, f)
        assert orb % f == 0
        assert cs.count_maps(p, f) == orb // f


def test_reflexible_orbit_counts_small_q():
    rc = cs.reflexible_orbit_counts(3)
    assert (rc["dia_plain"], rc["dia_twisted"],
            rc["off_plain"], rc["off_twisted"]) == (1, 1, 3, 2)
    rc = cs.reflexible_orbit_counts(5)
    assert (rc["dia_plain"], rc["dia_twisted"],
            rc["off_plain"], rc["off_twisted"]) == (9, 6, 15, 9)
    assert cs.total_reflexible_orbits(7) == 114
    assert cs.total_reflexible_orbits(9) == 250


def test_reflexible_split_identities():
    for q in (3, 5, 7, 9, 11, 13, 25, 27):
        rc = cs.reflexible_orbit_counts(q)
        assert rc["dia_total"] == (q * q - 1) * (3 * q - 5) // 16
        assert rc["off_total"] == (q * q - 1) * (3 * q + 1) // 16
        assert rc["total"] == cs.total_reflexible_orbits(q)
        # every reflexible orbit is an orbit
        assert rc["total"] <= cs.orbit_counts(q)["total"]


def test_reflexible_map_counts():
    assert cs.count_reflexible_maps(3, 1) == 7   # everything reflexible at q=3
    assert cs.count_reflexible_maps(3, 2) == 125


def test_type_obstruction():
    assert cs.type_obstruction(8, 16)
    assert cs.type_obstruction(16, 8)
    assert cs.type_obstruction(24, 16)
    assert not cs.type_obstruction(8, 24)   # congruent mod 16
    assert not cs.type_obstruction(8, 8)
    assert not cs.type_obstruction(8, 12)   # 12 not divisible by 8
    assert not cs.type_obstruction(12, 20)


def test_bad_inputs_rejected():
    with pytest.raises(ValueError):
        cs.orbit_counts(4)
    with pytest.raises(ValueError):
        cs.n_F(1)
    with pytest.raises(ValueError):
        cs.count_maps(4, 2)
    with pytest.raises(ValueError):
        cs.twisted_divisors(0)


def test_nonpositive_exponents_rejected_without_hanging():
    # run apart so that an endless loop fails on the timeout, not the suite
    code = textwrap.dedent("""
        from twistedmaps import census
        for name in ("count_maps", "count_generating_orbits",
                     "count_reflexible_generating_orbits",
                     "count_reflexible_maps"):
            for f in (0, -1):
                try:
                    getattr(census, name)(3, f)
                except ValueError:
                    continue
                raise SystemExit("%s(3, %d) did not raise" % (name, f))
    """)
    src = str(Path(cs.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=30)
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_census_imports_nothing_but_numth_from_the_package():
    # formulas and oracle share only arithmetic helpers; group code in the
    # census would let a formula and its check fail together
    tree = ast.parse(Path(cs.__file__).read_text(encoding="utf-8"))
    local = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level:
                local.add("." + (node.module or ""))
            elif node.module.split(".")[0] == "twistedmaps":
                local.add(node.module)
        elif isinstance(node, ast.Import):
            local.update(a.name for a in node.names
                         if a.name.split(".")[0] == "twistedmaps")
    assert local == {".numth"}


@pytest.mark.parametrize("q", [1, 12, 15, 21, 45])
def test_non_prime_powers_rejected(q):
    for fn in (cs.orbit_counts, cs.total_orbits, cs.reflexible_orbit_counts,
               cs.n_F):
        with pytest.raises(ValueError):
            fn(q)
