"""How far a passing verify can be trusted: census mutants against the CLI.

Each mutant replaces one census function with a plausible slip.  Every
mutant is run through cli.main on `verify --level bruteforce` at
q in {3, 5, 7, 9} and on `verify --level formulas` at every odd prime power
up to 243, and the table says which runs catch it, with which exit code.
The oracle reads nothing from census, so its results are computed once per
q and shared by all mutants.
"""

import pytest

from twistedmaps import census, cli, oracle
from twistedmaps.numth import divisors, mobius, prime_power

BRUTE_Q = (3, 5, 7, 9)
FORMULA_Q = tuple(q for q in range(3, 244, 2) if prime_power(q))
RUNS = ([("bruteforce", q) for q in BRUTE_Q]
        + [("formulas", q) for q in FORMULA_Q])


def _n_f_off_by_one(q):
    return (q * q - 1) // 4 + 1


def _mobius_over_all_divisors(p, f):
    return sum(mobius(f // e) * census.total_orbits(p ** e)
               for e in divisors(f))


def _no_generating_inversion(p, f):
    return census.total_orbits(p ** f)


def _flipped_proper_terms(p, f):
    return sum((1 if e == f else -1) * mobius(f // e)
               * census.total_orbits(p ** e)
               for e in census.twisted_divisors(f))


def _no_reflexible_inversion(p, f):
    return census.total_reflexible_orbits(p ** f)


# Bruteforce runs stop at q = 9, where f <= 2 and twisted_divisors(f) is
# [f]: no oracle check reaches an odd f > 1, so the odd-part inversion is
# checked only by the formulas' own round trip and divisibility.
ODD_F_UNREACHED = "no bruteforce run reaches an odd f > 1"

# name: (census attribute, replacement, {run: exit code} of the runs that
#        catch it, why it survives every bruteforce run or None)
MUTANTS = {
    "n_F off by one": (
        "n_F", _n_f_off_by_one, dict.fromkeys(RUNS, 1), None),
    # count_maps asserts the Galois action divides the generating orbits
    "Moebius over divisors(f)": (
        "count_generating_orbits", _mobius_over_all_divisors,
        {("bruteforce", 9): 4,
         **{("formulas", q): 1 for q in (9, 25, 49, 81, 121, 169)}},
        None),
    "no inversion for generating orbits": (
        "count_generating_orbits", _no_generating_inversion,
        {("formulas", q): 1 for q in (27, 125, 243)}, ODD_F_UNREACHED),
    "sign-flipped proper Moebius terms": (
        "count_generating_orbits", _flipped_proper_terms,
        {("formulas", q): 1 for q in (27, 125, 243)}, ODD_F_UNREACHED),
    "no inversion for reflexible orbits": (
        "count_reflexible_generating_orbits", _no_reflexible_inversion,
        {("formulas", q): 1 for q in (27, 243)}, ODD_F_UNREACHED),
}


@pytest.fixture(scope="module")
def oracle_cache():
    return {}


@pytest.fixture
def caught_by(monkeypatch, capsys, oracle_cache):
    """Runs the table's invocations; returns {run: exit code} of those that
    do not pass."""
    for owner, name in ((cli, "_oracle_compute"), (oracle, "closure_order")):
        real = getattr(owner, name)

        def shared(*args, _real=real, _name=name):
            key = (_name,) + args
            if key not in oracle_cache:
                oracle_cache[key] = _real(*args)
            return oracle_cache[key]

        monkeypatch.setattr(owner, name, shared)

    def run_all():
        out = {}
        for level, q in RUNS:
            code = cli.main(["verify", "--q", str(q), "--level", level])
            stdout = capsys.readouterr().out
            if code:
                # an invariant failure ends the run before any check prints
                assert bool(stdout) == (code == 1), (level, q, code)
                out[(level, q)] = code
        return out

    return run_all


def test_unmutated_census_passes_every_run(caught_by):
    assert len(RUNS) == 65
    assert caught_by() == {}


@pytest.mark.parametrize("name", MUTANTS)
def test_mutant_is_caught_where_the_table_says(name, caught_by, monkeypatch):
    attr, replacement, caught, survives_bruteforce = MUTANTS[name]
    monkeypatch.setattr(census, attr, replacement)
    assert caught_by() == caught
    reaches_oracle = any(level == "bruteforce" for level, _ in caught)
    assert reaches_oracle == (survives_bruteforce is None)
