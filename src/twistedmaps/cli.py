"""Batch front end: census computation, formula-vs-oracle verification,
self-duality tables and orbit listings.

Exit codes: 0 success / all comparisons pass, 1 at least one mismatch,
2 usage error, raised only by the input checks below (also any run under
python -O, which would strip the oracle's invariant asserts), 3 resource
guard tripped, 4 an internal invariant failed or an unexpected exception
escaped, a ValueError from inside a computation included.  Output is
deterministic for a fixed invocation.
"""

import argparse
import json
import math
import os
import random
import sys
import traceback

from . import census, oracle
from .canonical import all_classes, is_exceptional
from .gfield import ResourceLimitError, make_field
from .numth import checked_power, is_prime, mobius, odd_part, odd_prime_power

ENUM_BOUND = 27        # q at or below which every enumerating command runs
MAX_Q = 10 ** 6        # range of --q and count --p, checked before factoring


# ---------------------------------------------------------------------------
# input validation, run before anything is computed

class UsageError(Exception):
    """A bad command line (exit 2); a ValueError raised inside a
    computation is a defect (exit 4)."""


def _verify_q(q):
    if q > MAX_Q:
        raise UsageError(
            "q=%d is outside the supported range (3 <= q <= %d)" % (q, MAX_Q))
    if q < 3:
        raise UsageError("q must be at least 3, got %d" % q)
    try:
        return odd_prime_power(q)
    except ValueError as exc:
        raise UsageError(exc) from None


def _cap_enumeration(q, what):
    if q > ENUM_BOUND:
        raise ResourceLimitError(what + " is capped at q <= %d" % ENUM_BOUND)


# ---------------------------------------------------------------------------
# output helpers

def _write(text):
    sys.stdout.write(text)


def _emit_json(obj):
    _write(json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _emit_rows(fmt, header, rows, name="rows", **top):
    """json or csv from one header and one row list.  json nests the rows
    as objects under name beside the fields top; both print ints as
    strings and bools as true/false."""
    if fmt == "json":
        _emit_json(dict(top, **{name: [
            {h: v if isinstance(v, (bool, str)) else str(v)
             for h, v in zip(header, row)} for row in rows]}))
    else:
        lines = [header] + [[("true" if v else "false")
                             if isinstance(v, bool) else str(v) for v in row]
                            for row in rows]
        _write("".join(",".join(line) + "\n" for line in lines))


# ---------------------------------------------------------------------------
# check lists (verify)

def _render_checks(args, label, checks):
    """checks: list of (name, expected, actual); returns the exit code."""
    failed = [c for c in checks if c[1] != c[2]]
    if args.format != "text":
        _emit_rows(args.format, ("name", "expected", "actual", "ok"),
                   [(n, e, a, e == a) for n, e, a in checks], "checks",
                   label=label, passed=not failed)
    else:
        width = max(len(c[0]) for c in checks)
        for n, e, a in checks:
            mark = "ok  " if e == a else "FAIL"
            _write("%s %s  expected %s  actual %s\n"
                   % (mark, n.ljust(width), e, a))
        _write("%s: %d/%d checks passed\n"
               % (" ".join("%s=%s" % kv for kv in label.items()),
                  len(checks) - len(failed), len(checks)))
    return 1 if failed else 0


# ---------------------------------------------------------------------------
# count

# fixed rendering orders so output bytes do not depend on dict round-trips
ORBIT_KEYS = ("dia_generic", "dia_exceptional", "off_generic",
              "off_exceptional", "total")
REFLEX_KEYS = ("dia_plain", "dia_twisted", "off_plain", "off_twisted",
               "dia_total", "off_total", "total")


def _digit_limit():
    """The interpreter's cap on the decimal digits of a printed int
    (sys.get_int_max_str_digits, Python 3.10.7+), or Python's default cap
    of 4300 where it sets none, so count never builds an unbounded
    number to print."""
    return getattr(sys, "get_int_max_str_digits", lambda: 0)() or 4300


def _check_printable(values):
    """Counts are exact, but the interpreter refuses to print an int with
    more decimal digits than _digit_limit(); refuse up front so no output
    is half written."""
    limit = _digit_limit()
    if any(abs(v) >= 10 ** limit for v in values):
        raise ResourceLimitError(
            "a count has more than %d decimal digits, the limit for "
            "integer string conversion" % limit)


def cmd_count(args):
    p, f = args.p, args.f
    if p > MAX_Q:
        raise UsageError(
            "p=%d is outside the supported range (3 <= p <= %d)" % (p, MAX_Q))
    if p == 2 or not is_prime(p):
        raise UsageError("p must be an odd prime, got %d" % p)
    if f < 1:
        raise UsageError("f must be a positive integer, got %d" % f)
    # q = p^f is a printed row itself: refuse an overlong q before any
    # census call, building no power of p beyond the first past the limit
    _check_printable([p ** min(f, int(_digit_limit() / math.log10(p)) + 2)])

    q = checked_power(p, f)
    counts = census.orbit_counts(q)
    lattice = []
    for e in census.twisted_divisors(f):
        orb = census.total_orbits(checked_power(p, e))
        mu = mobius(f // e)
        lattice.append((e, orb, mu, mu * orb))
    generating = census.count_generating_orbits(p, f)
    maps = census.count_maps(p, f)

    rows = [("p", p), ("f", f), ("q", q)]
    rows += [("orbits_%s" % k, counts[k]) for k in ORBIT_KEYS]
    for e, orb, mu, term in lattice:
        rows += [("lattice_e%d_orbits" % e, orb),
                 ("lattice_e%d_mobius" % e, mu),
                 ("lattice_e%d_term" % e, term)]
    rows += [("generating_orbits", generating), ("maps", maps)]
    if args.reflexible:
        rcounts = census.reflexible_orbit_counts(q)
        rgenerating = census.count_reflexible_generating_orbits(p, f)
        rmaps = census.count_reflexible_maps(p, f)
        rows += [("reflexible_%s" % k, rcounts[k]) for k in REFLEX_KEYS]
        rows += [("reflexible_generating_orbits", rgenerating),
                 ("reflexible_maps", rmaps)]
    _check_printable(v for _, v in rows)

    if args.format == "json":
        out = {
            "p": str(p), "f": str(f), "q": str(q),
            "orbit_counts": {k: str(v) for k, v in counts.items()},
            "divisor_lattice": [
                {"level": str(e), "orbits": str(orb), "mobius": str(mu),
                 "term": str(term)} for e, orb, mu, term in lattice],
            "generating_orbits": str(generating),
            "maps": str(maps),
        }
        if args.reflexible:
            out["reflexible_orbit_counts"] = {
                k: str(v) for k, v in rcounts.items()}
            out["reflexible_generating_orbits"] = str(rgenerating)
            out["reflexible_maps"] = str(rmaps)
        _emit_json(out)
        return 0

    if args.format == "csv":
        _emit_rows("csv", ("key", "value"), rows)
        return 0

    lines = ["census p=%d f=%d (q=%d)\n" % (p, f, q),
             "orbit counts over GF(%d^2)\n" % q]
    lines += ["  %-18s %d\n" % (k.replace("_", " "), counts[k])
              for k in ORBIT_KEYS]
    lines.append("divisor lattice (twisted levels e | f, f/e odd)\n")
    lines += ["  e=%-3d orbits %-12d mobius %+d  term %d\n"
              % (e, orb, mu, term) for e, orb, mu, term in lattice]
    lines.append("generating orbits  %d\n" % generating)
    lines.append("maps               %d\n" % maps)
    if args.reflexible:
        lines.append("reflexible orbit counts over GF(%d^2)\n" % q)
        lines += ["  %-18s %d\n" % (k.replace("_", " "), rcounts[k])
                  for k in REFLEX_KEYS]
        lines.append("reflexible generating orbits  %d\n" % rgenerating)
        lines.append("reflexible maps               %d\n" % rmaps)
    _write("".join(lines))
    return 0


# ---------------------------------------------------------------------------
# verify

def _formula_checks(q, p, f):
    counts = census.orbit_counts(q)
    parts = [counts[k] for k in ORBIT_KEYS[:4]]      # the four class kinds
    rcounts = census.reflexible_orbit_counts(q)
    rparts = [rcounts[k] for k in REFLEX_KEYS[:4]]
    roundtrip = sum(census.count_generating_orbits(p, e)
                    for e in census.twisted_divisors(f))
    exc_forms = sorted({cls.form for cls in all_classes(q)
                        if is_exceptional(cls, q)})
    return [
        ("orbit-sum", census.total_orbits(q), sum(parts)),
        ("reflexible-sum", census.total_reflexible_orbits(q), sum(rparts)),
        ("mobius-roundtrip", census.total_orbits(q), roundtrip),
        ("maps-divisibility", 0, census.count_generating_orbits(p, f) % f),
        ("reflexible-maps-divisibility", 0,
         census.count_reflexible_generating_orbits(p, f) % f),
        ("exceptional-side", "dia" if q % 4 == 3 else "off",
         ",".join(exc_forms)),
    ]


def _count_checks(q, orbits):
    expected = census.orbit_counts(q)
    summary = oracle.orbit_count_summary(q, orbits)
    return [("orbits-" + k, expected[k], summary[k]) for k in ORBIT_KEYS]


def _fuse(records, p, f, checked=False):
    """records fused into one record per Galois bundle when f > 1, and the
    number of bundles whose size is not their members' level (a level-e
    orbit has e Galois images).  A nonzero count is an internal failure
    (exit 4); a caller that prints it as a check (checked) exits 4 after
    printing its checks."""
    if f == 1:
        return records, 0
    bundles = oracle.galois_fuse(records, p, f)
    violations = sum(1 for b in bundles if len(b) != b[0].level)
    assert checked or not violations, \
        "%d Galois bundles differ in size from their level" % violations
    return oracle.fused_records(bundles), violations


def _oracle_pass(q, p, f, checked=False):
    """One oracle pass: partition once, build each orbit record once and
    fuse once when f > 1.  Returns the partition, its records, the maps
    (level-f records, fused when f > 1, since like the census a map is a
    level-f orbit up to Galois conjugacy) and _fuse's violation count."""
    orbits = oracle.enumerate_orbits(q)
    records = oracle.orbit_records(q, orbits)
    maps, violations = _fuse(records, p, f, checked)
    return orbits, records, [r for r in maps if r.level == f], violations


def _selfdual_checks(q, cells):
    checks = []
    for form in ("dia", "off"):
        expect = oracle.SELFDUAL_TABLE[q][form]
        for col, name in enumerate(("k_eq_l", "pos_sd", "neg_sd", "both")):
            checks.append(("selfdual-%s-%s" % (form, name),
                           expect[col], cells[form][col]))
    return checks


def _closure_checks(args, q, p, f, orbits):
    """Spot-check that sampled representative pairs generate the whole
    group, by explicit closure.  Only run where |M(q^2)| is tiny."""
    F = make_field(p, 2 * f)
    reps = [(cls, orbit[0]) for cls, cls_orbits in orbits.items()
            for orbit in cls_orbits]
    rng = random.Random(args.seed)
    sample = rng.sample(reps, min(3, len(reps)))
    expected = q * q * (q ** 4 - 1)
    out = []
    for j, (cls, quad) in enumerate(sample):
        pair = oracle.quad_pair(F, cls, quad)
        out.append(("closure-sample-%d" % j, expected,
                    oracle.closure_order(pair)))
    return out


def cmd_verify(args):
    if args.force and args.level != "bruteforce":
        raise UsageError("--force applies only to --level bruteforce")
    q = args.q
    p, f = _verify_q(q)
    label = {"q": str(q), "level": args.level}

    if args.level == "formulas":
        return _render_checks(args, label, _formula_checks(q, p, f))

    if args.level == "selfdual":   # every reference row is within the cap
        if q not in oracle.SELFDUAL_TABLE:
            raise UsageError("no embedded reference row for q=%d" % q)
        cells = oracle.selfdual_cells(_oracle_pass(q, p, f)[2])
        return _render_checks(args, label, _selfdual_checks(q, cells))

    _cap_enumeration(q, "orbit enumeration")
    if args.level == "orbits" or args.force:   # partition only
        return _render_checks(args, label,
                              _count_checks(q, oracle.enumerate_orbits(q)))

    orbits, records, maps, violations = _oracle_pass(q, p, f, checked=True)
    generating = [r for r in records if r.level == f]
    checks = _count_checks(q, orbits)

    rcounts = census.reflexible_orbit_counts(q)
    for form in ("dia", "off"):
        checks.append(("reflexible-" + form, rcounts[form + "_total"],
                       sum(1 for r in records
                           if r.form == form and r.reflexible)))

    checks.append(("generating-orbits",
                   census.count_generating_orbits(p, f), len(generating)))
    if f > 1:
        checks.append(("fusion-bundles", census.count_maps(p, f), len(maps)))
        checks.append(("fusion-size-violations", 0, violations))
    if odd_part(f)[1] > 1:   # a proper level exists; else these repeat above
        checks.append(("reflexible-generating-orbits",
                       census.count_reflexible_generating_orbits(p, f),
                       sum(1 for r in generating if r.reflexible)))
        checks.append(("reflexible-maps", census.count_reflexible_maps(p, f),
                       sum(1 for r in maps if r.reflexible)))

    if q in oracle.SELFDUAL_TABLE:
        checks.extend(_selfdual_checks(q, oracle.selfdual_cells(maps)))

    if q <= 5:
        checks.extend(_closure_checks(args, q, p, f, orbits))

    code = _render_checks(args, label, checks)
    assert not violations, \
        "%d Galois bundles differ in size from their level" % violations
    return code


# ---------------------------------------------------------------------------
# selfdual

def cmd_selfdual(args):
    q = args.q
    p, f = _verify_q(q)
    _cap_enumeration(q, "self-duality enumeration")
    cells = oracle.selfdual_cells(_oracle_pass(q, p, f)[2])

    surplus = sum(cells[form][2] - cells[form][3] for form in ("dia", "off"))
    if surplus > 0:
        # observed so far: negatively self-dual maps are also positively
        # self-dual; report any counterexample, never assert it away
        print("note: %d negatively self-dual classes are not positively "
              "self-dual" % surplus, file=sys.stderr)

    header = ("form", "k_eq_l", "pos_sd", "neg_sd", "both")
    rows = [(form, *cells[form]) for form in ("dia", "off")]
    if args.format == "json":
        _emit_rows("json", header, rows, q=str(q))
    elif args.format == "csv":
        _emit_rows("csv", ("q",) + header, [(q, *row) for row in rows])
    else:
        _write("self-dual map classes at q=%d\n" % q)
        _write("  %-4s %8s %8s %8s %8s\n"
               % ("form", "k=l", "pos", "neg", "both"))
        for form, a, b, c, d in rows:
            _write("  %-4s %8d %8d %8d %8d\n" % (form, a, b, c, d))
    return 0


# ---------------------------------------------------------------------------
# orbits

def _parse_type(text):
    try:
        k, l = (int(part) for part in text.split(","))
    except ValueError:
        raise UsageError("--type wants two comma-separated integers, "
                         "got %r" % text) from None
    return k, l


def cmd_orbits(args):
    q = args.q
    p, f = _verify_q(q)
    _cap_enumeration(q, "orbit listing")
    kl = _parse_type(args.type) if args.type else None
    records = oracle.orbit_records(q, oracle.enumerate_orbits(q))
    if args.fuse:
        records = _fuse(records, p, f)[0]
    if kl:
        records = [r for r in records if (r.k, r.l) == kl]

    if args.format != "text":
        _emit_rows(args.format,
                   ("form", "i", "e1", "e2", "u", "size", "level", "k", "l",
                    "reflexible", "pos_sd", "neg_sd"),
                   [(r.form, r.i, *r.key, r.size, r.level, r.k, r.l,
                     r.reflexible, r.pos_selfdual, r.neg_selfdual)
                    for r in records], q=str(q), fused=bool(args.fuse))
    else:
        for r in records:
            flags = "".join((
                "R" if r.reflexible else "-",
                "+" if r.pos_selfdual else "-",
                "x" if r.neg_selfdual else "-"))
            _write("%-3s i=%-2d key=(%d,%d,%d) size=%-4d level=%d "
                   "type=(%d,%d) %s\n"
                   % (r.form, r.i, r.key[0], r.key[1], r.key[2], r.size,
                      r.level, r.k, r.l, flags))
        _write("%d rows\n" % len(records))
    return 0


# ---------------------------------------------------------------------------

def _build_parser():
    parser = argparse.ArgumentParser(
        prog="twistedmaps",
        description="Censuses of orientably-regular maps on twisted "
                    "linear fractional groups, with brute-force "
                    "verification at small field sizes.")
    parser.add_argument("--format", choices=("text", "json", "csv"),
                        default="text", help="output format")
    parser.add_argument("--seed", type=int, default=0,
                        help="seed for sampled spot checks")
    sub = parser.add_subparsers(dest="command", required=True)

    c = sub.add_parser("count", help="closed-form census for one (p, f)")
    c.add_argument("--p", type=int, required=True, help="odd prime")
    c.add_argument("--f", type=int, required=True, help="field exponent")
    c.add_argument("--reflexible", action="store_true",
                   help="include the reflexible census")

    v = sub.add_parser("verify", help="compare formulas against the oracle")
    v.add_argument("--q", type=int, required=True, help="odd prime power")
    v.add_argument("--level", required=True,
                   choices=("formulas", "orbits", "bruteforce", "selfdual"))
    v.add_argument("--force", action="store_true",
                   help="bruteforce compares the orbit partition only")

    s = sub.add_parser("selfdual", help="self-duality table for one q")
    s.add_argument("--q", type=int, required=True, help="odd prime power")

    o = sub.add_parser("orbits", help="list pair orbits at one q")
    o.add_argument("--q", type=int, required=True, help="odd prime power")
    o.add_argument("--type", default=None, metavar="K,L",
                   help="only orbits of vertex/face orders (K, L)")
    o.add_argument("--fuse", action="store_true",
                   help="aggregate orbits into Galois bundles")
    return parser


def main(argv=None):
    if sys.flags.optimize:
        print("error: refusing to run under python -O, which strips the "
              "oracle's invariant checks", file=sys.stderr)
        return 2
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    handlers = {"count": cmd_count, "verify": cmd_verify,
                "selfdual": cmd_selfdual, "orbits": cmd_orbits}
    try:
        return handlers[args.command](args)
    except UsageError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except ResourceLimitError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 3
    except AssertionError as exc:
        where = traceback.extract_tb(exc.__traceback__)[-1]
        print("error: internal invariant failed: %s (%s:%d)"
              % (exc or "assert", os.path.basename(where.filename),
                 where.lineno), file=sys.stderr)
        return 4
    except Exception as exc:
        traceback.print_exc()
        print("error: internal failure: %r" % exc, file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
