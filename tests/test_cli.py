"""Front-end behavior: commands, formats, exit codes, determinism."""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
import venv
from dataclasses import replace
from pathlib import Path

import pytest

from twistedmaps import census, oracle
from twistedmaps.canonical import all_classes
from twistedmaps.cli import ENUM_BOUND, _build_parser, main
from twistedmaps.numth import divisors, mobius

ROOT = Path(__file__).resolve().parent.parent


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_count_prints_map_total_and_lattice(capsys):
    code, out, _ = run(capsys, ["count", "--p", "3", "--f", "2"])
    assert code == 0
    assert "maps               395" in out
    assert "e=2" in out and "790" in out


def test_count_composite_level_shows_mobius_terms(capsys):
    code, out, _ = run(capsys, ["count", "--p", "3", "--f", "3"])
    assert code == 0
    assert "mobius -1" in out          # the e=1 layer is subtracted
    assert "generating orbits  66150" in out
    assert "maps               22050" in out


def test_count_reflexible_flag_adds_sections(capsys):
    code, out, _ = run(capsys, ["count", "--p", "3", "--f", "1",
                                "--reflexible"])
    assert code == 0
    assert "reflexible maps               7" in out
    code, out, _ = run(capsys, ["count", "--p", "3", "--f", "1"])
    assert "reflexible" not in out


def test_count_json_serializes_integers_as_strings(capsys):
    code, out, _ = run(capsys, ["--format", "json", "count",
                                "--p", "5", "--f", "1", "--reflexible"])
    assert code == 0
    doc = json.loads(out)
    assert doc["maps"] == "69"
    assert doc["reflexible_maps"] == "39"

    def leaves(node):
        if isinstance(node, dict):
            for v in node.values():
                yield from leaves(v)
        elif isinstance(node, list):
            for v in node:
                yield from leaves(v)
        else:
            yield node

    for leaf in leaves(doc):
        assert isinstance(leaf, str)
        int(leaf)  # every leaf is a decimal string


def test_count_csv_has_header_and_lf_endings(capsys):
    code, out, _ = run(capsys, ["--format", "csv", "count",
                                "--p", "3", "--f", "2"])
    assert code == 0
    assert "\r" not in out
    lines = out.splitlines()
    assert lines[0] == "key,value"
    assert "maps,395" in lines


COUNT_Q9 = """\
census p=3 f=2 (q=9)
orbit counts over GF(9^2)
  dia generic        390
  dia exceptional    0
  off generic        328
  off exceptional    72
  total              790
divisor lattice (twisted levels e | f, f/e odd)
  e=2   orbits 790          mobius +1  term 790
generating orbits  790
maps               395
"""


def test_count_too_long_to_print_is_a_resource_error(capsys):
    # 3^2500 orbit counts exceed the interpreter's default conversion limit
    # of 4300 digits; nothing may be written before the refusal
    limit = "%d decimal digits" % sys.get_int_max_str_digits()
    for fmt in ("text", "json", "csv"):
        code, out, err = run(capsys, ["--format", fmt, "count",
                                      "--p", "3", "--f", "2500"])
        assert (code, out) == (3, "")
        assert limit in err
    code, out, _ = run(capsys, ["count", "--p", "3", "--f", "2"])
    assert (code, out) == (0, COUNT_Q9)


def test_count_refuses_long_counts_without_an_interpreter_limit(
        capsys, monkeypatch):
    # Python 3.10.0-3.10.6 have no sys.get_int_max_str_digits; the guard
    # falls back to the default limit of 4300 digits
    monkeypatch.delattr(sys, "get_int_max_str_digits")
    code, out, err = run(capsys, ["count", "--p", "3", "--f", "2500"])
    assert (code, out) == (3, "")
    assert "4300 decimal digits" in err


def test_count_refuses_long_counts_when_the_limit_is_switched_off():
    # PYTHONINTMAXSTRDIGITS=0 lifts the interpreter's limit; without the
    # fallback, building and printing 3^(10^8) outlasts the timeout
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
               PYTHONINTMAXSTRDIGITS="0")
    proc = subprocess.run(
        [sys.executable, "-m", "twistedmaps.cli", "count", "--p", "3",
         "--f", "100000000"], env=env, capture_output=True, text=True,
        timeout=30)
    assert (proc.returncode, proc.stdout) == (3, "")


def test_count_does_not_factor_the_q_it_builds(capsys):
    # q = 999983^716 has 4,296 digits: trial-dividing it took 1.3 s, where
    # checking p and f takes microseconds; its counts are too long to print
    start = time.perf_counter()
    code, out, _ = run(capsys, ["count", "--p", "999983", "--f", "716"])
    assert (code, out) == (3, "")
    assert time.perf_counter() - start < 0.3


def test_count_rejects_bad_parameters(capsys):
    for argv in (["count", "--p", "9", "--f", "1"],
                 ["count", "--p", "2", "--f", "3"],
                 ["count", "--p", "3", "--f", "0"]):
        code, _, err = run(capsys, argv)
        assert code == 2
        assert "error:" in err


def test_verify_formulas_pass(capsys):
    for q in ("5", "9", "27"):
        code, out, _ = run(capsys, ["verify", "--q", q,
                                    "--level", "formulas"])
        assert code == 0
        assert "6/6 checks passed" in out


def test_verify_rejects_oversized_q_as_usage(capsys):
    code, _, err = run(capsys, ["verify", "--q", "1000003",
                                "--level", "formulas"])
    assert code == 2
    assert "supported range" in err


def test_verify_rejects_non_prime_powers(capsys):
    for q in ("12", "15", "8", "1"):
        code, _, err = run(capsys, ["verify", "--q", q,
                                    "--level", "formulas"])
        assert code == 2


def test_verify_orbits_small_q(capsys):
    code, out, _ = run(capsys, ["verify", "--q", "3", "--level", "orbits"])
    assert code == 0
    assert "orbits-total" in out


def test_verify_orbits_beyond_bound_is_a_resource_error(capsys):
    code, _, err = run(capsys, ["verify", "--q", "29", "--level", "orbits"])
    assert code == 3
    assert "capped" in err


def test_verify_bruteforce_q3_includes_closure_samples(capsys):
    code, out, _ = run(capsys, ["verify", "--q", "3",
                                "--level", "bruteforce"])
    assert code == 0
    assert "closure-sample-0" in out
    assert "selfdual-off-both" in out


def test_bruteforce_output_matches_benchmark_record(capsys):
    # the benchmark byte-checks these legs too; here drift shows in Tier-1
    expected = json.loads(
        (ROOT / "perfbench" / "expected.json").read_text(encoding="utf-8"))
    for q in (3, 5, 7, 9):
        key = "verify --q %d --level bruteforce" % q
        code, out, _ = run(capsys, key.split())
        assert (code, out) == (expected[key]["exit"], expected[key]["stdout"])


def test_verify_bruteforce_gate_and_force(capsys):
    code, out, _ = run(capsys, ["verify", "--q", "11",
                                "--level", "bruteforce"])
    assert code == 0
    assert out.endswith("q=11 level=bruteforce: 16/16 checks passed\n")
    code, out, _ = run(capsys, ["verify", "--q", "11",
                                "--level", "bruteforce", "--force"])
    assert code == 0
    assert "orbits-total" in out       # partition-only comparison set
    assert "selfdual" not in out
    code, _, err = run(capsys, ["verify", "--q", "29",
                                "--level", "bruteforce", "--force"])
    assert code == 3
    assert "capped at q <= 27" in err
    # the other levels have no partition-only variant to force
    for level in ("formulas", "orbits", "selfdual"):
        code, out, err = run(capsys, ["verify", "--q", "11",
                                      "--level", level, "--force"])
        assert (code, out) == (2, "")
        assert "--force applies only to --level bruteforce" in err


# the first q with a level f that has proper levels below it (f = 3), and
# the prime square just before it; each takes up to a minute and 0.5 GB
@pytest.mark.extended
@pytest.mark.parametrize("q, checks", [(25, 10), (27, 12)])
def test_verify_bruteforce_at_the_cap(capsys, q, checks):
    code, out, _ = run(capsys, ["verify", "--q", str(q),
                                "--level", "bruteforce"])
    assert code == 0, out
    assert out.endswith("q=%d level=bruteforce: %d/%d checks passed\n"
                        % (q, checks, checks))
    if q == 27:
        rows = {w[1]: w[3] for w in map(str.split, out.splitlines()[:-1])}
        assert rows["fusion-bundles"] == "22050"
        assert rows["reflexible-maps"] == "2394"


def test_bruteforce_runs_each_oracle_stage_once(capsys, monkeypatch):
    calls = dict.fromkeys(("enumerate_orbits", "orbit_partition",
                           "_record_for", "galois_fuse", "canonical_form",
                           "twisted_class"), 0)
    for name in calls:
        def counted(*args, _fn=getattr(oracle, name), _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(oracle, name, counted)

    code, _, _ = run(capsys, ["verify", "--q", "9", "--level", "bruteforce"])
    assert code == 0
    # one canonical form per orbit whose x shares y's class (162 of 790)
    # and in fusion one per class and Frobenius power; one twisted_class
    # per record, whose class order the record and its level screen both
    # read.  Inverse pairs take no canonical form.
    assert calls == {"enumerate_orbits": 1,
                     "orbit_partition": len(all_classes(9)),
                     "_record_for": 790, "galois_fuse": 1,
                     "canonical_form": 162 + len(all_classes(9)),
                     "twisted_class": 790}

    calls.update(dict.fromkeys(calls, 0))
    code, out, _ = run(capsys, ["verify", "--q", "3", "--level",
                                "bruteforce"])
    assert code == 0
    assert "closure-sample-0" in out
    assert calls == {"enumerate_orbits": 1,
                     "orbit_partition": len(all_classes(3)),
                     "_record_for": 7, "galois_fuse": 0,
                     "canonical_form": 3,
                     "twisted_class": 7}


def test_fusion_size_violations_are_counted(capsys, monkeypatch):
    # at q=9 every orbit generates (level 2) and every bundle has two
    # members; records that claim level 1 make each bundle one too large
    monkeypatch.setattr(oracle, "generated_level", lambda pair, orders: 1)
    code, out, err = run(capsys, ["verify", "--q", "9", "--level",
                                  "bruteforce"])
    # a failed oracle invariant, not a formula mismatch: exit 4 after the
    # check lines, which print the count
    assert code == 4
    assert "FAIL fusion-size-violations  expected 0  actual 395\n" in out
    assert "395 Galois bundles differ in size from their level" in err
    # every other command that fuses prints no such check, so it fails as
    # an internal invariant and prints nothing
    for argv in ("verify --q 9 --level selfdual", "selfdual --q 9",
                 "orbits --q 9 --fuse"):
        code, out, err = run(capsys, argv.split())
        assert (code, out) == (4, ""), argv
        assert "395 Galois bundles differ in size from their level" in err


def test_bundle_with_differing_flags_is_an_internal_failure(capsys,
                                                            monkeypatch):
    flipped = []

    def record_for(*args, _real=oracle._record_for):
        rec = _real(*args)
        if not flipped:
            flipped.append(rec)
            rec = replace(rec, reflexible=not rec.reflexible)
        return rec

    monkeypatch.setattr(oracle, "_record_for", record_for)
    code, out, err = run(capsys, ["verify", "--q", "9", "--level",
                                  "bruteforce"])
    assert (code, out) == (4, "")
    assert flipped
    assert "internal invariant failed: bundle flags differ" in err


def test_verify_selfdual_against_embedded_row(capsys):
    code, out, _ = run(capsys, ["verify", "--q", "3", "--level", "selfdual"])
    assert code == 0
    assert "8/8 checks passed" in out


def test_verify_selfdual_without_reference_row_is_usage(capsys):
    code, _, err = run(capsys, ["verify", "--q", "25",
                                "--level", "selfdual"])
    assert code == 2
    assert "reference row" in err


def test_every_selfdual_reference_row_is_within_the_cap():
    # verify --level selfdual checks for a row, not for the cap
    assert max(oracle.SELFDUAL_TABLE) <= ENUM_BOUND


@pytest.mark.extended
def test_verify_selfdual_q17_against_embedded_row(capsys):
    code, out, _ = run(capsys, ["verify", "--q", "17",
                                "--level", "selfdual"])
    assert code == 0
    assert "8/8 checks passed" in out


def test_selfdual_csv_column_contract(capsys):
    code, out, _ = run(capsys, ["--format", "csv", "selfdual", "--q", "3"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "q,form,k_eq_l,pos_sd,neg_sd,both"
    assert lines[1] == "3,dia,0,0,0,0"
    assert lines[2] == "3,off,3,3,3,3"


def test_selfdual_notes_negatively_but_not_positively_self_dual(
        capsys, monkeypatch):
    # no q so far has such classes; the command reports them on stderr
    # and still prints the table
    cells = {"dia": (4, 2, 3, 1), "off": (5, 5, 2, 2)}
    monkeypatch.setattr(oracle, "selfdual_cells", lambda records: cells)
    code, out, err = run(capsys, ["selfdual", "--q", "3"])
    assert code == 0
    assert out == ("self-dual map classes at q=3\n"
                   "  form      k=l      pos      neg     both\n"
                   "  dia         4        2        3        1\n"
                   "  off         5        5        2        2\n")
    assert err == ("note: 2 negatively self-dual classes are not "
                   "positively self-dual\n")


def test_selfdual_infeasible_exit(capsys):
    code, _, err = run(capsys, ["selfdual", "--q", "29"])
    assert code == 3


def test_orbits_listing_q3(capsys):
    code, out, _ = run(capsys, ["--format", "csv", "orbits", "--q", "3"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("form,i,e1,e2,u,size,level,k,l,")
    rows = lines[1:]
    assert len(rows) == 7
    assert all(row.split(",")[6] == "1" for row in rows)  # level column


def test_orbits_type_filter(capsys):
    code, out, _ = run(capsys, ["--format", "csv", "orbits", "--q", "3",
                                "--type", "8,8"])
    assert code == 0
    assert len(out.splitlines()) == 1 + 3
    code, _, err = run(capsys, ["orbits", "--q", "3", "--type", "8x8"])
    assert code == 2


def test_orbits_fused_q9(capsys):
    code, out, _ = run(capsys, ["--format", "csv", "orbits", "--q", "9",
                                "--fuse"])
    assert code == 0
    assert len(out.splitlines()) == 1 + 395


def test_orbits_bound_is_resource_guard(capsys):
    code, _, err = run(capsys, ["orbits", "--q", "29"])
    assert code == 3


def test_output_matches_golden_file(capsys):
    # stdout bytes and exit codes of 16 invocations in each format, error
    # cases included, plus the bruteforce run at q=9 in json and csv and at
    # q=17 in text; the file is data, never regenerated from this code
    cases = json.loads((ROOT / "tests" / "data" / "cli_golden.json")
                       .read_text(encoding="utf-8"))
    assert len(cases) == 51
    for case in cases:
        code, out, _ = run(capsys, case["argv"])
        assert (code, out) == (case["exit"], case["stdout"]), case["argv"]


def test_every_option_is_listed():
    # a new option has to be added here, so a review sees it
    def options(parser):
        return [s for a in parser._actions
                if not isinstance(a, argparse._HelpAction)
                for s in a.option_strings]

    parser = _build_parser()
    sub = next(a for a in parser._actions
               if isinstance(a, argparse._SubParsersAction))
    assert options(parser) == ["--format", "--seed"]
    assert {name: options(p) for name, p in sub.choices.items()} == {
        "count": ["--p", "--f", "--reflexible"],
        "verify": ["--q", "--level", "--force"],
        "selfdual": ["--q"],
        "orbits": ["--q", "--type", "--fuse"],
    }


BIG = "1000000000000000009"  # a prime far past the range trial division suits


REFUSED = [
    (["count", "--p", BIG, "--f", "1"], 2),
    (["count", "--p", "1000003", "--f", "1"], 2),
    (["count", "--p", "3", "--f", "3000000"], 3),
    (["count", "--p", "3", "--f", "1000000000000"], 3),
    (["count", "--p", "3", "--f", "2500"], 3),
    (["selfdual", "--q", BIG], 2),
    (["orbits", "--q", BIG], 2),
]


@pytest.mark.parametrize("argv, code", REFUSED,
                         ids=[" ".join(argv) for argv, _ in REFUSED])
def test_out_of_range_inputs_are_refused_at_once(argv, code):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-m", "twistedmaps.cli", *argv],
                          env=env, capture_output=True, text=True, timeout=10)
    assert (proc.returncode, proc.stdout) == (code, "")
    assert proc.stderr.startswith("error: ")


def test_largest_prime_in_range_still_counts():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "twistedmaps.cli", "count", "--p", "999983",
         "--f", "1"], env=env, capture_output=True, text=True, timeout=10)
    assert proc.returncode == 0
    assert proc.stdout.startswith("census p=999983 f=1 (q=999983)\n")
    assert proc.stdout.endswith(
        "maps               %d\n" % census.count_maps(999983, 1))


def test_unexpected_exception_exits_4(capsys, monkeypatch):
    def broken(bundles):
        raise KeyError("bundle")

    monkeypatch.setattr(oracle, "fused_records", broken)
    code, out, err = run(capsys, ["verify", "--q", "9", "--level",
                                  "bruteforce"])
    assert (code, out) == (4, "")
    assert "Traceback" in err
    assert err.endswith("error: internal failure: KeyError('bundle')\n")


def test_value_error_inside_a_computation_exits_4(capsys, monkeypatch):
    # only the input checks exit 2; a ValueError from the oracle is a defect
    def broken(F, cls, quad):
        raise ValueError("quad is not admissible")

    monkeypatch.setattr(oracle, "quad_matrix", broken)
    code, out, err = run(capsys, ["verify", "--q", "3", "--level",
                                  "bruteforce"])
    assert (code, out) == (4, "")
    assert "Traceback" in err
    assert err.endswith("error: internal failure: "
                        "ValueError('quad is not admissible')\n")


def test_verify_json_uses_string_integers(capsys):
    code, out, _ = run(capsys, ["--format", "json", "verify", "--q", "3",
                                "--level", "orbits"])
    assert code == 0
    doc = json.loads(out)
    assert doc["passed"] is True
    for check in doc["checks"]:
        assert isinstance(check["expected"], str)
        assert isinstance(check["actual"], str)


def test_help_and_missing_subcommand(capsys):
    assert main(["--help"]) == 0
    capsys.readouterr()
    assert main([]) == 2
    capsys.readouterr()


def test_refuses_to_run_under_optimize():
    # -O strips every assert the oracle checks its invariants with
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "twistedmaps.cli", "verify", "--q", "3",
         "--level", "bruteforce"],
        env=env, capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert "-O" in proc.stderr


def test_internal_invariant_failure_exits_4(capsys, monkeypatch):
    # Moebius over every divisor of f (not only those with f/e odd) leaves
    # a generating-orbit count that count_maps asserts f divides
    def all_divisors(p, f):
        return sum(mobius(f // e) * census.total_orbits(p ** e)
                   for e in divisors(f))

    monkeypatch.setattr(census, "count_generating_orbits", all_divisors)
    code, out, err = run(capsys, ["count", "--p", "3", "--f", "2"])
    assert (code, out) == (4, "")
    assert err.startswith("error: internal invariant failed: Galois action "
                          "must be free on generating orbits (census.py:")


def test_console_script_is_installed(tmp_path):
    """Install this checkout into a throwaway venv and run its script.

    The install goes through setuptools' own ``develop`` command, which
    needs neither ``wheel`` nor a download. Only the script in that venv
    is run, so another ``twistedmaps`` on PATH cannot decide the result.
    """
    pytest.importorskip("setuptools")
    checkout = tmp_path / "checkout"
    shutil.copytree(ROOT / "src", checkout / "src",
                    ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    shutil.copy(ROOT / "pyproject.toml", checkout)
    venv_dir = tmp_path / "venv"
    venv.create(venv_dir, system_site_packages=True, with_pip=False)
    bindir = venv_dir / ("Scripts" if os.name == "nt" else "bin")
    python = shutil.which("python", path=bindir)
    # With src on PYTHONPATH setuptools would see the package as already
    # importable, write no path entry, and the script could import the
    # checkout instead of the install.
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [python, "-c", "from setuptools import setup; setup()", "develop"],
        cwd=checkout, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    exe = shutil.which("twistedmaps", path=bindir)
    assert exe is not None
    proc = subprocess.run([exe, "count", "--p", "3", "--f", "1"], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert "maps               7" in proc.stdout
