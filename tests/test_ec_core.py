import math
import random

import pytest

from heegner_witness.arith import primes_upto
from heegner_witness.ec_core import (
    BadReductionError,
    CurveQ,
    PointCountBoundError,
    _ap_bsgs,
    an_series,
    ap,
    count_points,
    discriminant,
    good_reduction,
    reduce_mod,
    reduction_type,
)
from heegner_witness.lseries import twist
from oracles import an_recursive, brute_count, count_points_ext


def test_discriminant_37a(e37a):
    assert discriminant(e37a) == 37


def test_discriminant_j0_curve():
    # y^2 = x^3 + 1: Delta = -16(4*0 + 27) = -432
    assert discriminant((0, 0, 0, 0, 1)) == -432


def test_discriminant_cuspidal_rejected():
    assert discriminant((0, 0, 0, 0, 0)) == 0
    with pytest.raises(ValueError):
        CurveQ(0, 0, 0, 0, 0, 1)


def test_conductor_validation():
    with pytest.raises(ValueError):
        CurveQ(0, 0, 1, -1, 0, 36)  # 36 has primes not dividing Delta = 37
    with pytest.raises(ValueError):
        CurveQ(0, 0, 1, -1, 0, 5)


def test_good_reduction(e37a, e11a):
    assert not good_reduction(e37a, 37)
    assert good_reduction(e37a, 2)
    assert not good_reduction(e11a, 11)


def test_count_points_37a_small(e37a):
    assert count_points(reduce_mod(e37a, 2)) == 5
    assert count_points(reduce_mod(e37a, 5)) == 8


def test_count_points_matches_brute_force(e37a, e11a, e_ss):
    for curve in (e37a, e11a, e_ss):
        for p in primes_upto(60):
            if good_reduction(curve, p):
                assert count_points(reduce_mod(curve, p)) == brute_count(curve, p)


def test_supersingular_a7(e_ss):
    # p = 3 mod 4 pairs off affine points of y^2 = x^3 + x
    assert count_points(reduce_mod(e_ss, 7)) == 8
    assert ap(e_ss, 7) == 0


def test_ap_37a(e37a):
    assert ap(e37a, 2) == -2
    with pytest.raises(BadReductionError):
        ap(e37a, 37)


def test_count_points_ext_consistency(e37a, e_ss):
    assert count_points_ext(e37a, 2, 1) == 5
    assert count_points_ext(e_ss, 3, 1) == 4
    # #E(F_{p^2}) = p^2 + 1 - (a_p^2 - 2p)
    for curve in (e37a, e_ss):
        for p in primes_upto(50):
            if good_reduction(curve, p):
                a = ap(curve, p)
                assert count_points_ext(curve, p, 2) == p * p + 1 - (a * a - 2 * p)


def test_bsgs_matches_enumerator(e11a, e37a, e_ss):
    j0 = CurveQ(0, 0, 1, 0, 0, 27)
    j1728 = CurveQ(0, 0, 0, -1, 0, 32)
    big = twist(e37a, -2503).curve  # a6 = -3920329382, 2503 | N
    for curve in (e11a, e37a, e_ss, j0, j1728, big):
        for p in primes_upto(5000):
            if p >= 230 and good_reduction(curve, p):
                assert _ap_bsgs(curve, p) == p + 1 - count_points(reduce_mod(curve, p)), (curve, p)
    for curve in (e37a, big):
        for p in (99989, 99991, 100003, 999961, 999979, 999983):
            assert _ap_bsgs(curve, p) == p + 1 - count_points(reduce_mod(curve, p)), (curve, p)
    with pytest.raises(BadReductionError):
        ap(big, 2503)
    with pytest.raises(PointCountBoundError):
        ap(e37a, 1000003)  # the first prime above POINT_COUNT_CEILING


def test_hasse_bound_to_1e4(e11a, e37a, e_ss):
    for curve in (e11a, e37a, e_ss):
        for p in primes_upto(10**4):
            if good_reduction(curve, p):
                a = ap(curve, p)
                assert a * a <= 4 * p


def test_an_series_basics(e37a):
    s = an_series(e37a, 1)
    assert s[1] == 1
    s = an_series(e37a, 12)
    assert s[1] == 1
    assert s[2] == -2
    assert s[4] == s[2] * s[2] - 2  # a_4 = a_2^2 - 2
    assert s[6] == s[2] * s[3]
    assert s[4] == 2


def test_an_series_matches_recursive_oracle(e11a, e37a):
    for curve in (e11a, e37a):
        s = an_series(curve, 200)
        memo = {}
        for n in range(1, 201):
            assert s[n] == an_recursive(curve, n, memo)


def test_an_multiplicativity_random(e37a):
    rng = random.Random(7)
    s = an_series(e37a, 4000)
    for _ in range(200):
        m = rng.randrange(2, 60)
        n = rng.randrange(2, 60)
        if math.gcd(m, n) == 1:
            assert s[m * n] == s[m] * s[n]


def test_ap_squared_recursion_vs_extension_count(e11a, e37a, e_ss):
    for curve in (e11a, e37a, e_ss):
        nmax = 53 * 53
        s = an_series(curve, nmax)
        for p in primes_upto(50):
            if good_reduction(curve, p):
                a = ap(curve, p)
                apsq = a * a - p  # Euler recursion value of a_{p^2}
                assert s[p * p] == apsq
                assert count_points_ext(curve, p, 2) == p * p + 1 - (a * a - 2 * p)


def test_ap_deterministic_and_cache_consistent(e37a):
    assert ap(e37a, 101) == ap(e37a, 101)


def test_bad_prime_types(e11a, e37a):
    # prime conductor: a_N equals the functional equation sign
    kind, s = reduction_type(e11a, 11)
    assert kind == "multiplicative" and s == 1
    kind, s = reduction_type(e37a, 37)
    assert kind == "multiplicative" and s == -1
