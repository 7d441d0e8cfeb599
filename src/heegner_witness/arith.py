"""Small shared integer arithmetic helpers (sieves, factoring, phi)."""

from __future__ import annotations

import math

import numpy as np

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MR_PROVEN_BELOW = 3317044064679887385961981  # the least strong pseudoprime to every base 2-41


def prime_mask(n: int) -> np.ndarray:
    """Boolean array of length n + 1 (at least 2) that is True exactly at the primes <= n."""
    n = max(n, 1)
    sieve = np.ones(n + 1, dtype=bool)
    sieve[:2] = False
    for i in range(2, math.isqrt(n) + 1):
        if sieve[i]:
            sieve[i * i :: i] = False
    return sieve


def primes_upto(n: int) -> list[int]:
    """All primes <= n, by sieve."""
    return np.flatnonzero(prime_mask(n)).tolist()


def primes_between(lo: int, hi: int) -> np.ndarray:
    """The primes p with lo <= p <= hi, ascending, as an int64 array; only
    the segment [lo, hi] is sieved, by the primes up to sqrt(hi)."""
    lo = max(lo, 2)
    if hi < lo:
        return np.zeros(0, dtype=np.int64)
    segment = np.ones(hi - lo + 1, dtype=bool)
    for p in np.flatnonzero(prime_mask(math.isqrt(hi))).tolist():
        segment[max(p * p, -(-lo // p) * p) - lo :: p] = False
    return np.flatnonzero(segment) + lo


def is_prime(n: int) -> bool:
    """Whether n is prime, proven: `_is_probable_prime` is exact below
    MR_PROVEN_BELOW. ValueError from there on, where no test here proves it."""
    if n >= MR_PROVEN_BELOW:
        raise ValueError(f"{n} is not below {MR_PROVEN_BELOW}, where Miller-Rabin "
                         "to the bases 2-41 proves primality")
    return _is_probable_prime(n)


def _pollard_rho(n: int) -> int:
    # Brent's variant; n odd composite, no factors below trial bound.
    if n % 2 == 0:
        return 2
    for c in range(1, 50):
        x, y, d = 2, 2, 1
        f = lambda v: (v * v + c) % n
        while d == 1:
            x = f(x)
            y = f(f(y))
            d = math.gcd(abs(x - y), n)
        if d != n:
            return d
    raise ArithmeticError(f"pollard rho failed on {n}")


def factorize(n: int, trial_bound: int = 100_000) -> list[tuple[int, int]]:
    """Prime factorization of |n| as sorted (p, e) pairs.

    Every prime up to trial_bound is divided out first, so a cofactor below
    the next odd d squared is prime. Larger cofactors are split by Pollard
    rho until `_is_probable_prime` passes them, which proves them prime below
    MR_PROVEN_BELOW. At or above it the bases 2-41 pass composites too,
    MR_PROVEN_BELOW itself among them, so a cofactor there that passes is
    kept only when `_pocklington` proves it prime; otherwise a ValueError
    names it and the bound.
    """
    n = abs(n)
    if n <= 1:
        return []
    out: dict[int, int] = {}
    for p in (2, 3, 5):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    d = 7
    while d * d <= n and d <= trial_bound:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 2
    # every prime below d is divided out, so each m left below d^2 is prime
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if m < d * d or _is_probable_prime(m):
            if m >= MR_PROVEN_BELOW and not _pocklington(m):
                raise ValueError(f"cofactor {m} is not below {MR_PROVEN_BELOW}, where "
                                 "Miller-Rabin to the bases 2-41 proves primality, "
                                 "and Pocklington's test does not prove it prime")
            out[m] = out.get(m, 0) + 1
        else:
            d0 = _pollard_rho(m)
            stack.extend([d0, m // d0])
    return sorted(out.items())


def _pocklington(n: int) -> bool:
    """Whether Pocklington's theorem proves prime an n that passed
    `_is_probable_prime`: n - 1 factors in full, and for each of its primes
    q some base a of that test has gcd(a^((n-1)/q) - 1, n) = 1 (Crandall
    and Pomerance, Prime Numbers, 2nd ed., 4.1). a^(n-1) = 1 mod n, the
    theorem's other condition, holds at each base, as n is a strong probable
    prime to it. False when no base serves some q, as at every composite n,
    or when `factorize` refuses a cofactor of n - 1.
    """
    try:
        qs = [q for q, _ in factorize(n - 1)]
    except ValueError:
        return False
    return all(any(math.gcd(pow(a, (n - 1) // q, n) - 1, n) == 1 for a in _MR_BASES) for q in qs)


def _is_probable_prime(n: int) -> bool:
    """Whether n is prime or a strong pseudoprime to every base 2-41.

    Trial division by those bases decides every n < 43^2; above, one
    Miller-Rabin test to the 13 bases. No composite below MR_PROVEN_BELOW
    passes it (Sorenson-Webster, "Strong pseudoprimes to twelve prime
    bases", Math. Comp. 86, 2017), so the answer is exact there; the bases
    2-37 alone pass 318665857834031151167461 = 399165290221 * 798330580441.
    """
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    if n < 43 * 43:
        return True
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def prime_divisors(n: int) -> list[int]:
    return [p for p, _ in factorize(n)]


def euler_phi(n: int) -> int:
    n = abs(n)
    if n == 0:
        return 0
    out = n
    for p, _ in factorize(n):
        out = out // p * (p - 1)
    return out


def is_squarefree(n: int) -> bool:
    n = abs(n)
    if n == 0:
        return False
    return all(e == 1 for _, e in factorize(n))


def valuation(n: int, p: int) -> int:
    """v_p(n) for n != 0."""
    if n == 0:
        raise ValueError("valuation of 0 is infinite")
    n = abs(n)
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v

