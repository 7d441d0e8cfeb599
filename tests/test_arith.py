import math
import random

import pytest

from heegner_witness.arith import (
    crt_pair,
    euler_phi,
    factorize,
    is_prime,
    is_squarefree,
    primes_upto,
    valuation,
)


def test_primes_upto():
    assert primes_upto(20) == [2, 3, 5, 7, 11, 13, 17, 19]
    assert primes_upto(1) == []
    ps = primes_upto(10**4)
    assert len(ps) == 1229
    assert all(type(p) is int for p in ps)  # Python ints, not numpy scalars
    for n in (-3, 0, 1, 2, 3, 4, 97, 1000):
        assert primes_upto(n) == [p for p in range(n + 1) if is_prime(p)], n


def test_is_prime():
    assert is_prime(2) and is_prime(97) and is_prime(389)
    assert not is_prime(1) and not is_prime(91)


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
