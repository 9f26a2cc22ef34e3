"""Benchmark of the twistedmaps batch verifier.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
`src`, never from an installed copy.  Each sample is a fresh interpreter
(perfbench/worker.py) that calls `twistedmaps.cli.main(argv)` in process,
single-threaded and without `--cache-dir`, so neither `make_field`'s cache
nor a result cache carries over between samples.

Workloads (enumeration is exhaustive; the seed sets the CLI `--seed`, the
interpreters' PYTHONHASHSEED and the probe operands):

  brute-small    verify --level bruteforce at q = 3, 5, 7, 9: 72 checks in
                 four short calls.  The only workload with Galois fusion
                 (q = 9), fused_records and closure sampling (q <= 5).
  selfdual-q13   selfdual --q 13: mostly orbit_records (order,
                 reflexibility and self-duality searches).
  partition-q19  verify --q 19 --level bruteforce --force: partition only,
                 644,760 quads through act_quad and no records; the bypass
                 case for any record-level change.

--trace 0 repeats the workload in fresh interpreters for about S seconds
(at least once) and prints the end-to-end metrics, each the median over
samples:

  wall_s        first CLI call to last output byte, set-up excluded
  orbits_per_s  pair orbits the oracle partitioned, divided by wall_s
  setup_s       import twistedmaps + make_field of the workload's fields
                (median over all samples plus SETUP_SAMPLES extra ones)
  cpu_s         user + sys CPU of the calls, child processes included
  peak_rss_mb   peak resident memory of the sample process

--trace 1 runs the workload once untraced and once traced (perfbench/
spans.py), runs the layer probes (perfbench/probes.py), prints the
per-layer metrics, and writes every span to perfbench/out/.  Stage
seconds are inclusive: fused_records_s contains the galois_fuse it calls.

Every call's stdout and exit code are compared with perfbench/expected.json,
recorded from the CLI at the commit that added this benchmark.  Attempted
checks are each verify check line, each of the 8 self-duality cells, and
four whole-call checks (stdout bytes, exit code, oracle orbits equal to
census.total_orbits(q), quads equal to the recorded count).  A FAIL line, a
mismatch, a crash or a non-zero exit each count as failed, and the result
line's failed / attempted is the run's fail ratio.  (An end-to-end metric
must never read 0, so the fail ratio is carried by those two counts.)

Machine details go to stderr with every result; the last stdout line is
the JSON result.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKER = os.path.join(HERE, "worker.py")
RUN_BUDGET_S = 170     # a whole run ends within this, hung workers included
SETUP_SAMPLES = 25


def _leg(p, f, *argv):
    return {"q": p ** f, "field": [p, 2 * f], "key": " ".join(argv),
            "argv": list(argv)}


# name -> (legs, q of the field the layer probes run in)
WORKLOADS = {
    "brute-small": ([_leg(p, f, "verify", "--q", str(p ** f), "--level",
                          "bruteforce") for p, f in ((3, 1), (5, 1), (7, 1),
                                                      (3, 2))], 9),
    "selfdual-q13": ([_leg(13, 1, "selfdual", "--q", "13")], 13),
    "partition-q19": ([_leg(19, 1, "verify", "--q", "19", "--level",
                            "bruteforce", "--force")], 19),
}

# ROADMAP baseline stage seconds (one un-repeated run each), printed next to
# the traced stage seconds for reporting only.
ROADMAP_BASELINE = {9: {"partition": 0.27, "records": 1.42,
                        "selfdual_table": 0.73},
                    13: {"partition": 1.45, "records": 8.12,
                         "selfdual_table": 5.69},
                    19: {"partition": 9.90}}
# (traced span, ROADMAP column): the CLI builds its q=9 self-duality table
# from fused_records, and at prime q from the records themselves.
STAGE_SPANS = (("oracle.enumerate_orbits", "partition"),
               ("oracle.orbit_records", "records"),
               ("oracle.fused_records", "selfdual_table"))


class BenchError(Exception):
    """The benchmark cannot produce a result (no program, a worker died)."""


def _log(msg):
    print(msg, file=sys.stderr, flush=True)


def machine_info():
    info = {"nproc": os.cpu_count(),
            "python": platform.python_version(),
            "cpu_model": platform.processor() or "unknown",
            "loadavg": list(os.getloadavg())}
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    info["cpu_model"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return info


def _worker(mode, spec, deadline):
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("PYTHON")}
    env["PYTHONPATH"] = SRC
    env["PYTHONHASHSEED"] = str(spec["seed"] % 4294967296)
    try:
        proc = subprocess.run(
            [sys.executable, WORKER, mode, json.dumps(spec)],
            cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
            timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError("%s worker did not finish within the run's %d s "
                         "budget" % (mode, RUN_BUDGET_S))
    if proc.returncode != 0:
        raise BenchError("%s worker exited with code %d"
                         % (mode, proc.returncode))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _cells(stdout):
    """The 8 numbers of the selfdual table rows, in print order."""
    out = []
    for line in stdout.splitlines():
        parts = line.split()
        if parts and parts[0] in ("dia", "off"):
            out.extend(int(v) for v in parts[1:])
    return out


def check_legs(legs, results, expected):
    """(attempted, failed) over one sample's calls."""
    attempted = failed = 0
    for leg, got in zip(legs, results):
        want = expected[leg["key"]]
        lines = want["stdout"].splitlines()
        if leg["argv"][0] == "selfdual":
            want_cells = _cells(want["stdout"])
            got_cells = _cells(got["stdout"])
            attempted += len(want_cells)
            failed += sum(1 for i, v in enumerate(want_cells)
                          if i >= len(got_cells) or got_cells[i] != v)
        else:
            attempted += sum(1 for ln in lines
                             if ln.startswith(("ok ", "FAIL ")))
            failed += sum(1 for ln in got["stdout"].splitlines()
                          if ln.startswith("FAIL"))
        whole = (got["stdout"] == want["stdout"],
                 got["exit"] == want["exit"],
                 got["orbits"] is not None
                 and got["orbits"] == got["census_orbits"],
                 got["quads"] == want["quads"])
        attempted += len(whole)
        failed += whole.count(False)
    return attempted, failed


def _metric(value, unit):
    return {"value": value, "unit": unit}


def _spec(workload, legs, seed, **extra):
    spec = {"workload": workload, "seed": seed,
            "fields": [leg["field"] for leg in legs],
            "legs": [dict(leg, argv=["--seed", str(seed)] + leg["argv"])
                     for leg in legs]}
    spec.update(extra)
    return spec


def measure(workload, legs, expected, seed, seconds, deadline):
    """End-to-end metrics over fresh-interpreter samples for `seconds`."""
    spec = _spec(workload, legs, seed)
    setups = [_worker("setup", spec, deadline)["setup_s"]
              for _ in range(SETUP_SAMPLES)]
    samples = []
    attempted = failed = 0
    start = time.monotonic()
    # start another sample only if it should end within `seconds`, so a run
    # lasts about as long on a slow machine as on a fast one
    while not samples or (time.monotonic() - start) * (len(samples) + 1) \
            / len(samples) <= seconds:
        got = _worker("run", spec, deadline)
        a, f = check_legs(legs, got["legs"], expected)
        attempted += a
        failed += f
        samples.append(got)
        setups.append(got["setup_s"])
        _log("sample %d: wall %.3f s, cpu %.3f s, rss %.1f MB, %d/%d failed"
             % (len(samples), got["wall_s"], got["cpu_s"],
                got["peak_rss_mb"], f, a))

    def med(key):
        return statistics.median(s[key] for s in samples)

    wall = med("wall_s")
    orbits = sum(leg["orbits"] or 0 for leg in samples[0]["legs"])
    metrics = {"wall_s": _metric(wall, "s"),
               "orbits_per_s": _metric(orbits / wall, "1/s"),
               "setup_s": _metric(statistics.median(setups), "s"),
               "cpu_s": _metric(med("cpu_s"), "s"),
               "peak_rss_mb": _metric(med("peak_rss_mb"), "MB")}
    return attempted, failed, metrics


def _stage_table(legs, trace):
    rows = []
    for run, leg in enumerate(legs):
        per = trace["per_run"].get(str(run), {})
        base = ROADMAP_BASELINE.get(leg["q"], {})
        for span, stage in STAGE_SPANS:
            if span in per or stage in base:
                got, ref = per.get(span), base.get(stage)
                rows.append("  q=%-3d %-24s %10s   roadmap %-14s %s"
                            % (leg["q"], span,
                               "%.3f s" % got[1] if got else "-", stage,
                               "%.2f s" % ref if ref is not None else "-"))
    return "\n".join(rows)


def layer_metrics(workload, legs, probe_q, expected, seed, machine,
                  deadline):
    """Per-layer metrics: one untraced and one traced sample, then probes."""
    trace_path = os.path.join(HERE, "out", "%s.trace.json" % workload)
    spec = _spec(workload, legs, seed, trace_path=trace_path,
                 machine=machine, probe_q=probe_q)
    plain = _worker("run", spec, deadline)
    traced = _worker("trace", spec, deadline)
    probed = _worker("probe", spec, deadline)
    make_field = [s["make_field_s"] for s in (plain, traced, probed)]
    make_field += [_worker("setup", spec, deadline)["make_field_s"]
                   for _ in range(SETUP_SAMPLES)]
    attempted = failed = 0
    for got in (plain, traced):
        a, f = check_legs(legs, got["legs"], expected)
        attempted += a
        failed += f

    trace = traced["trace"]
    names = trace["names"]

    def calls(name):
        return names.get(name, [0, 0.0, 0.0])[0]

    def total(name):
        return names.get(name, [0, 0.0, 0.0])[1]

    orbits = sum(leg["orbits"] or 0 for leg in traced["legs"])
    quads = sum(leg["quads"] or 0 for leg in traced["legs"])
    wall = traced["wall_s"]
    m = {"gfield.make_field_s": _metric(statistics.median(make_field), "s")}
    for name, st in probed["probes"].items():
        m[name] = _metric(st["median"], "us")
        m[name + "_p90"] = _metric(st["p90"], "us")
    m["probe.samples"] = _metric(min(st["n"] for st in
                                     probed["probes"].values()), "count")
    m.update({
        "twisted_group.mul_calls": _metric(
            calls("twisted_group.TwElem.__mul__"), "count"),
        "twisted_group.order_calls": _metric(
            calls("twisted_group.order"), "count"),
        "twisted_group.order_s": _metric(total("twisted_group.order"), "s"),
        "canonical.canonical_form_calls": _metric(
            calls("canonical.canonical_form"), "count"),
        "canonical.canonical_form_s": _metric(
            total("canonical.canonical_form"), "s"),
        "canonical.stabilizer_elements_calls": _metric(
            calls("canonical.stabilizer_elements"), "count"),
        "oracle.partition_s": _metric(total("oracle.enumerate_orbits"), "s"),
        "oracle.quads": _metric(quads, "count"),
        "oracle.orbits": _metric(orbits, "count"),
        "oracle.records_s": _metric(total("oracle.orbit_records"), "s"),
        "oracle.reflexible_calls": _metric(
            calls("oracle.is_reflexible"), "count"),
        "oracle.self_duality_calls": _metric(
            calls("oracle.self_duality"), "count"),
        "oracle.fuse_s": _metric(total("oracle.galois_fuse"), "s"),
        "oracle.fused_records_s": _metric(total("oracle.fused_records"), "s"),
        "oracle.closure_s": _metric(total("oracle.closure_order"), "s"),
        "oracle.records_per_orbit": _metric(
            calls("oracle.generated_level") / orbits if orbits else 0.0,
            "ratio"),
        "census.s": _metric(trace["outer"].get("census", 0.0), "s"),
        "cli.self_s": _metric(wall - trace["top_s"], "s"),
        "trace.wall_s": _metric(wall, "s"),
        "trace.overhead_s": _metric(wall - plain["wall_s"], "s"),
        "trace.coverage": _metric(trace["top_s"] / wall, "ratio"),
    })
    _log("traced stage seconds next to the ROADMAP baseline:\n"
         + _stage_table(legs, trace))
    _log("spans written to %s" % os.path.relpath(trace_path, ROOT))
    return attempted, failed, m


def _parse(argv, workloads):
    ap = argparse.ArgumentParser(prog="perfbench/run.py")
    ap.add_argument("--workload", required=True, choices=sorted(workloads))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    return args


def main(argv=None, workloads=WORKLOADS, expected=None):
    args = _parse(argv, workloads)
    deadline = time.monotonic() + RUN_BUDGET_S
    if sys.flags.optimize:
        _log("error: refusing to run under -O, which strips the oracle's "
             "assert checks")
        return 2
    if not os.path.isfile(os.path.join(SRC, "twistedmaps", "cli.py")):
        _log("error: no twistedmaps sources under %s" % SRC)
        return 2
    if expected is None:
        with open(os.path.join(HERE, "expected.json"), encoding="utf-8") as fh:
            expected = json.load(fh)

    machine = machine_info()
    _log("machine: " + json.dumps(machine, sort_keys=True))
    legs, probe_q = workloads[args.workload]
    try:
        if args.trace:
            attempted, failed, metrics = layer_metrics(
                args.workload, legs, probe_q, expected, args.seed, machine,
                deadline)
        else:
            attempted, failed, metrics = measure(
                args.workload, legs, expected, args.seed, args.seconds,
                deadline)
    except BenchError as exc:
        _log("error: %s" % exc)
        return 1
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
