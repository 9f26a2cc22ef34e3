"""Integer helpers, the only code census and oracle share: each is checked
against a plain definition, so a defect here cannot skew both sides alike."""

import os
import subprocess
import sys
from math import prod
from pathlib import Path

from twistedmaps import numth
from twistedmaps.numth import divisors, factorize, is_prime, mobius


def test_is_prime_matches_a_sieve():
    n = 10 ** 5
    sieve = bytearray([1]) * n
    sieve[0] = sieve[1] = 0
    for d in range(2, int(n ** 0.5) + 1):
        if sieve[d]:
            sieve[d * d::d] = bytearray(len(range(d * d, n, d)))
    assert [is_prime(k) for k in range(n)] == [bool(b) for b in sieve]
    assert not any(is_prime(k) for k in range(-50, 2))


def test_primality_queries_keep_no_memory():
    # a memo on factorize would keep every query for the life of the
    # process: about 33 MB for these 10^5, where the plain calls keep none.
    # The child reads its own high-water mark, VmHWM: its ru_maxrss would
    # start at the resident size of this process, inherited across fork
    # and exec, and hide the growth
    code = ("from twistedmaps.numth import is_prime\n"
            "def rss_kb():\n"
            "    with open('/proc/self/status') as status:\n"
            "        return int(next(line for line in status\n"
            "                        if line.startswith('VmHWM:')).split()[1])\n"
            "before = rss_kb()\n"
            "for k in range(10 ** 5):\n"
            "    is_prime(k)\n"
            "print(rss_kb() - before)\n")
    src = str(Path(numth.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=30)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert int(proc.stdout) < 8 * 1024, proc.stdout


def test_factorize_is_sorted_prime_and_complete():
    for n in range(1, 10 ** 4):
        fac = factorize(n)
        assert prod(p ** e for p, e in fac) == n
        assert all(is_prime(p) and e >= 1 for p, e in fac)
        assert [p for p, _ in fac] == sorted({p for p, _ in fac})


def test_divisors_match_a_scan():
    for n in range(1, 2000):
        assert divisors(n) == [d for d in range(1, n + 1) if n % d == 0]


def test_mobius_sums_to_the_unit_over_divisors():
    for n in range(1, 10 ** 4):
        assert sum(mobius(d) for d in divisors(n)) == (n == 1)
