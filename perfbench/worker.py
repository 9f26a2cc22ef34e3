"""One sample of the benchmark, in a fresh interpreter.

    python3 perfbench/worker.py MODE SPEC_JSON

run.py starts this with `src` on PYTHONPATH and reads one JSON object from
its stdout.  Every mode first times set-up: importing `twistedmaps` plus
`make_field` for each field in SPEC["fields"].  Then:

  setup  stops there;
  run    calls `twistedmaps.cli.main(argv)` for each leg in SPEC["legs"],
         capturing stdout, and reports wall, CPU and peak RSS of the calls;
  trace  does the same with spans.Tracer installed, and writes the spans
         to SPEC["trace_path"];
  probe  runs the layer micro-timings in GF(SPEC["probe_q"]^2).
"""

import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback


def _cpu_s():
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        ru = resource.getrusage(who)
        total += ru.ru_utime + ru.ru_stime
    return total


def _run_legs(legs, tracer):
    from twistedmaps import census, cli, oracle

    # Orbit and quad totals of each leg come from the partition the oracle
    # returns; a wrapper this thin costs nothing measurable.
    partitions = []
    enumerate_orbits = oracle.enumerate_orbits

    def counted(*args, **kwargs):
        orbits = enumerate_orbits(*args, **kwargs)
        partitions.append((sum(len(o) for o in orbits.values()),
                           sum(len(orb) for o in orbits.values()
                               for orb in o)))
        return orbits

    oracle.enumerate_orbits = counted
    total_orbits = census.total_orbits  # the check's own call stays untraced
    if tracer is not None:
        tracer.install()

    outs = []
    cpu0 = _cpu_s()
    start = time.perf_counter()
    for run, leg in enumerate(legs):
        if tracer is not None:
            tracer.run = run
        del partitions[:]
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            try:
                code = cli.main(leg["argv"])
            except Exception:
                traceback.print_exc()
                code = None
        orbits, quads = partitions[-1] if partitions else (None, None)
        outs.append({"stdout": buf.getvalue(), "exit": code,
                     "orbits": orbits, "quads": quads})
    wall = time.perf_counter() - start
    cpu = _cpu_s() - cpu0

    for leg, out in zip(legs, outs):
        out["census_orbits"] = total_orbits(leg["q"])
    return {"wall_s": wall, "cpu_s": cpu,
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "legs": outs}


def main():
    if sys.flags.optimize:
        sys.exit("worker: refusing to run under -O, which strips the "
                 "oracle's assert checks")
    mode, spec = sys.argv[1], json.loads(sys.argv[2])

    t0 = time.perf_counter()
    from twistedmaps import gfield
    t1 = time.perf_counter()
    for p, m in spec["fields"]:
        gfield.make_field(p, m)
    t2 = time.perf_counter()
    result = {"setup_s": t2 - t0, "make_field_s": t2 - t1}

    if mode == "run":
        result.update(_run_legs(spec["legs"], None))
    elif mode == "trace":
        import spans
        tracer = spans.Tracer()
        result.update(_run_legs(spec["legs"], tracer))
        result["trace"] = tracer.summary()
        os.makedirs(os.path.dirname(spec["trace_path"]), exist_ok=True)
        tracer.write(spec["trace_path"],
                     {"workload": spec["workload"], "seed": spec["seed"],
                      "runs": [leg["argv"] for leg in spec["legs"]],
                      "machine": spec["machine"]})
    elif mode == "probe":
        import probes
        result["probes"] = probes.run(spec["probe_q"], spec["seed"])
    elif mode != "setup":
        sys.exit("worker: unknown mode %r" % mode)

    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main()
