"""How far a passing verify can be trusted: census mutants against the CLI.

Each mutant replaces one census function with a plausible slip.  Every
mutant is run through cli.main on `verify --level bruteforce` at
q in {3, 5, 7, 9} and on `verify --level formulas` at every odd prime power
up to 243, and the table says which runs catch it, with which exit code.
The `extended` marker adds `verify --level bruteforce` at q = 27, the first
q whose f (3) has a proper level below it, where the odd-part inversion
meets the oracle.  The oracle reads nothing from census, so its results
are computed once per q and shared by all mutants.
"""

import pytest

from twistedmaps import census, cli, oracle
from twistedmaps.numth import divisors, mobius, prime_power

BRUTE_Q = (3, 5, 7, 9)
FORMULA_Q = tuple(q for q in range(3, 244, 2) if prime_power(q))
RUNS = ([("bruteforce", q) for q in BRUTE_Q]
        + [("formulas", q) for q in FORMULA_Q])
ODD_F_RUN = ("bruteforce", 27)   # about a minute and 0.5 GB: extended only


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


# name: (census attribute, replacement, {run: exit code} of the runs that
#        catch it, ODD_F_RUN included)
# count_maps and count_reflexible_maps assert that f divides the generating
# orbits they are given; ODD_F_RUN reads both, so it exits 4 on each
# inversion mutant.
MUTANTS = {
    "n_F off by one": (
        "n_F", _n_f_off_by_one, dict.fromkeys(RUNS + [ODD_F_RUN], 1)),
    "Moebius over divisors(f)": (
        "count_generating_orbits", _mobius_over_all_divisors,
        {("bruteforce", 9): 4,
         **{("formulas", q): 1 for q in (9, 25, 49, 81, 121, 169)}}),
    "no inversion for generating orbits": (
        "count_generating_orbits", _no_generating_inversion,
        {ODD_F_RUN: 4, **{("formulas", q): 1 for q in (27, 125, 243)}}),
    "sign-flipped proper Moebius terms": (
        "count_generating_orbits", _flipped_proper_terms,
        {ODD_F_RUN: 4, **{("formulas", q): 1 for q in (27, 125, 243)}}),
    "no inversion for reflexible orbits": (
        "count_reflexible_generating_orbits", _no_reflexible_inversion,
        {ODD_F_RUN: 4, **{("formulas", q): 1 for q in (27, 243)}}),
}


@pytest.fixture(scope="module")
def oracle_cache():
    return {}


@pytest.fixture
def caught_by(monkeypatch, capsys, oracle_cache):
    """Runs the table's invocations; returns {run: exit code} of those that
    do not pass."""
    for owner, name in ((cli, "_oracle_pass"), (oracle, "closure_order")):
        real = getattr(owner, name)

        # generated_level passes closure_order a cap only when f has a
        # proper twisted level: q = 27 here, and not f = 4
        def shared(*args, _real=real, _name=name, **kwargs):
            key = (_name,) + args + tuple(sorted(kwargs.items()))
            if key not in oracle_cache:
                oracle_cache[key] = _real(*args, **kwargs)
            return oracle_cache[key]

        monkeypatch.setattr(owner, name, shared)

    def run_all(runs):
        out = {}
        for level, q in runs:
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
    assert caught_by(RUNS) == {}


@pytest.mark.parametrize("name", MUTANTS)
def test_mutant_is_caught_where_the_table_says(name, caught_by, monkeypatch):
    attr, replacement, caught = MUTANTS[name]
    monkeypatch.setattr(census, attr, replacement)
    assert caught_by(RUNS) == {run: code for run, code in caught.items()
                               if run != ODD_F_RUN}
    # no mutant survives every bruteforce run (ODD_F_RUN is checked below)
    assert any(level == "bruteforce" for level, _ in caught)


@pytest.mark.extended
def test_unmutated_census_passes_at_odd_f(caught_by):
    assert caught_by([ODD_F_RUN]) == {}


@pytest.mark.extended
@pytest.mark.parametrize("name", MUTANTS)
def test_mutant_is_caught_at_odd_f_where_the_table_says(name, caught_by,
                                                        monkeypatch):
    attr, replacement, caught = MUTANTS[name]
    monkeypatch.setattr(census, attr, replacement)
    assert caught_by([ODD_F_RUN]) == {run: code for run, code in caught.items()
                                      if run == ODD_F_RUN}
