import math
import random

import numpy as np
import pytest

from heegner_witness import arith
from heegner_witness.arith import (
    MR_PROVEN_BELOW,
    euler_phi,
    factorize,
    is_prime,
    is_squarefree,
    primes_between,
    primes_upto,
    valuation,
)
from oracles import crt_pair


def test_primes_upto():
    assert primes_upto(20) == [2, 3, 5, 7, 11, 13, 17, 19]
    assert primes_upto(1) == []
    ps = primes_upto(10**4)
    assert len(ps) == 1229
    assert all(type(p) is int for p in ps)  # Python ints, not numpy scalars
    for n in (-3, 0, 1, 2, 3, 4, 97, 1000):
        assert primes_upto(n) == [p for p in range(n + 1) if is_prime(p)], n


def test_primes_between_sieves_one_segment():
    ps = primes_upto(5000)
    rng = random.Random(20)
    cases = [(0, 1), (0, 2), (2, 2), (4, 4), (5, 4), (90, 96), (97, 97), (1, 5000), (4900, 5000)]
    cases += [tuple(sorted(rng.sample(range(5001), 2))) for _ in range(40)]
    for lo, hi in cases:
        got = primes_between(lo, hi)
        assert got.dtype == np.int64
        assert got.tolist() == [p for p in ps if lo <= p <= hi], (lo, hi)


def test_is_prime():
    assert is_prime(2) and is_prime(97) and is_prime(389)
    assert not is_prime(1) and not is_prime(91)
    assert is_prime(10**18 + 3)  # trial division never finished this one


def test_is_prime_agrees_with_trial_division_below_10_5():
    want = [n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1)) for n in range(10**5)]
    assert [is_prime(n) for n in range(10**5)] == want


def test_a_strong_pseudoprime_to_the_bases_2_to_37_is_composite():
    # the least such number (Sorenson-Webster 2017); base 41 exposes it
    n = 318665857834031151167461
    assert not arith._is_probable_prime(n) and not is_prime(n)
    assert factorize(n) == [(399165290221, 1), (798330580441, 1)]


def test_is_prime_refuses_what_it_cannot_prove():
    # the least strong pseudoprime to every base 2-41 passes the test
    assert arith._is_probable_prime(MR_PROVEN_BELOW)
    with pytest.raises(ValueError, match="is not below"):
        is_prime(MR_PROVEN_BELOW)


def test_factorize_refuses_a_cofactor_it_cannot_prove_prime():
    # MR_PROVEN_BELOW passes the bases 2-41, and factorize returned it as prime
    assert MR_PROVEN_BELOW == 1287836182261 * 2575672364521
    for n in (MR_PROVEN_BELOW, 4 * MR_PROVEN_BELOW):
        with pytest.raises(ValueError, match=f"cofactor {MR_PROVEN_BELOW} is not below "
                                             f"{MR_PROVEN_BELOW}"):
            factorize(n)


def test_factorize_proves_a_prime_cofactor_at_or_above_the_bound():
    # Pocklington's test on the factored n - 1; its own cofactors recurse
    for p in (2**89 - 1, 2**127 - 1, 63999999999999999999899533):
        assert p >= MR_PROVEN_BELOW
        assert factorize(p) == [(p, 1)] and factorize(6 * p) == [(2, 1), (3, 1), (p, 1)]


def test_factorize_roundtrip():
    rng = random.Random(1)
    for _ in range(200):
        n = rng.randrange(2, 10**6)
        f = factorize(n)
        assert math.prod(p**e for p, e in f) == n
        assert all(is_prime(p) for p, _ in f)


def test_factorize_large_prime_factors():
    # exercises the rho fallback past the trial bound
    n = 1_000_003 * 1_000_033
    f = factorize(n, trial_bound=1000)
    assert f == [(1_000_003, 1), (1_000_033, 1)]


def test_factorize_takes_a_cofactor_below_the_trial_bound_squared_as_prime(monkeypatch):
    # every prime up to the trial bound 10^5 is divided out first, so a
    # cofactor below 10^10 is prime with no test
    want = {2 * 9999999967: [(2, 1), (9999999967, 1)],
            100003 * 100019: [(100003, 1), (100019, 1)]}  # past 10^10: rho, then two primes
    rng = random.Random(35)

    def is_prime(n):
        raise AssertionError(f"is_prime({n}) called")

    monkeypatch.setattr(arith, "is_prime", is_prime)
    for n, f in want.items():
        assert factorize(n) == f
    for n in [rng.randrange(2, 10**12) for _ in range(200)]:
        f = factorize(n)
        assert math.prod(p**e for p, e in f) == n, n
        assert all(arith._is_probable_prime(p) for p, _ in f), n  # Miller-Rabin, exact here


def test_euler_phi():
    assert euler_phi(1) == 1
    assert euler_phi(7) == 6
    assert euler_phi(12) == 4
    assert euler_phi(-15) == 8


def test_is_squarefree():
    assert is_squarefree(-7) and is_squarefree(30)
    assert not is_squarefree(12) and not is_squarefree(0)


def test_valuation():
    assert valuation(48, 2) == 4
    assert valuation(-27, 3) == 3
    with pytest.raises(ValueError):
        valuation(0, 5)


def test_crt_pair():
    b = crt_pair(2, 3, 3, 7)
    assert b % 3 == 2 and b % 7 == 3
    with pytest.raises(ValueError):
        crt_pair(1, 6, 1, 9)
