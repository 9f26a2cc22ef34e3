"""Small integer helpers: primality, factorization, divisors, Mobius.

Everything here runs on inputs far below 2^64 (the largest factored value in
practice is 2*q^2*(q^4-1) for q <= a few hundred), so plain trial division is
the right tool.
"""


def is_prime(n: int) -> bool:
    return n >= 2 and factorize(n) == ((n, 1),)


def factorize(n: int) -> tuple:
    """Prime factorization of n >= 1 as a sorted tuple of (prime, exponent)."""
    assert n >= 1
    out = []
    for p in (2, 3):
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        if e:
            out.append((p, e))
    d = 5
    while d * d <= n:
        for p in (d, d + 2):
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            if e:
                out.append((p, e))
        d += 6
    if n > 1:
        out.append((n, 1))
    return tuple(out)


def divisors(n: int) -> list:
    """All positive divisors of n, ascending."""
    out = [1]
    for p, e in factorize(n):
        out = [d * p ** k for k in range(e + 1) for d in out]
    return sorted(out)


def mobius(n: int) -> int:
    if n == 1:
        return 1
    fac = factorize(n)
    if any(e > 1 for _, e in fac):
        return 0
    return -1 if len(fac) % 2 else 1


def prime_power(q: int):
    """Return (p, f) with q = p^f, or None if q is not a prime power."""
    if q < 2:
        return None
    fac = factorize(q)
    if len(fac) != 1:
        return None
    return fac[0]


_CHECKED = {}  # q -> (p, f) for each q that checked_power built


def checked_power(p: int, f: int) -> int:
    """q = p^f for an odd prime p and f >= 1, else ValueError.  The checks
    on p and f stand for odd_prime_power(q) from then on, which would
    otherwise trial-divide q: seconds for a q of thousands of digits."""
    if p == 2 or not is_prime(p):
        raise ValueError(f"p must be an odd prime, got {p}")
    if f < 1:
        raise ValueError("exponent must be positive")
    q = p ** f
    _CHECKED[q] = (p, f)
    return q


def odd_prime_power(q: int):
    """Return (p, f) with q = p^f for an odd prime p; raise ValueError for
    any other q.  The one validator of q shared by census, oracle and CLI."""
    pf = _CHECKED.get(q) or prime_power(q)
    if pf is None or pf[0] == 2:
        raise ValueError("q must be a power of an odd prime, got %d" % q)
    return pf


def odd_part(n: int):
    """Split n = 2^alpha * o with o odd; returns (alpha, o)."""
    alpha = 0
    while n % 2 == 0:
        n //= 2
        alpha += 1
    return alpha, n
