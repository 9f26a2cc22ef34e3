"""Self-test of the benchmark on a q = 3 workload (a few seconds).

    python3 perfbench/selftest.py

Checks that both modes print every metric named in BENCHMARK.json with its
unit and all checks passing, and that a corrupted expected output is
counted as failed.  Exits 0 when all of that holds.
"""

import contextlib
import copy
import io
import json
import os
import sys

import run

LEGS = [run._leg(3, 1, "verify", "--q", "3", "--level", "bruteforce")]
WORKLOADS = {"selftest-q3": (LEGS, 3)}


def _result(trace, expected):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(["--workload", "selftest-q3", "--seed", "7",
                         "--seconds", "1", "--trace", str(trace)],
                        WORKLOADS, expected)
    if code != 0:
        raise AssertionError("run.main exited with %d" % code)
    return json.loads(out.getvalue().strip().splitlines()[-1])


def _same_metrics(result, declared, label):
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    want = {m["name"]: m["unit"] for m in declared}
    if got != want:
        raise AssertionError("%s metrics differ from BENCHMARK.json: "
                             "printed %s, declared %s" % (label, got, want))


def main():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"),
              encoding="utf-8") as fh:
        bench = json.load(fh)
    with open(os.path.join(run.HERE, "expected.json"), encoding="utf-8") as fh:
        expected = json.load(fh)

    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        result = _result(trace, expected)
        _same_metrics(result, bench[key], key)
        if not result["correct"] or result["failed"]:
            raise AssertionError("%s run failed checks: %r" % (key, result))

    corrupted = copy.deepcopy(expected)
    entry = corrupted[LEGS[0]["key"]]
    entry["stdout"] = entry["stdout"].replace("actual 7", "actual 8", 1)
    result = _result(0, corrupted)
    ratio = result["failed"] / result["attempted"]
    if result["correct"] or ratio <= 0:
        raise AssertionError("corrupted expected output was not caught: %r"
                             % result)
    print("selftest ok: corrupted run fail_ratio %.4f (%d/%d)"
          % (ratio, result["failed"], result["attempted"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
