import functools
import itertools
import math
import random
import types

import pytest

import numpy as np

from heegner_witness import ec_core
from heegner_witness.arith import is_prime, prime_divisors, primes_upto
from heegner_witness.quadforms import kronecker
from heegner_witness.ec_core import (
    BadReductionError,
    CurveQ,
    PointCountBoundError,
    _add,
    _ap_bsgs,
    _lane_isqrt,
    _lockstep_orders,
    _lockstep_point,
    _mul,
    _padd,
    _window_mul,
    an_series,
    BSGS_MIN_P,
    LOCKSTEP_MIN_P,
    POINT_COUNT_CEILING,
    ap,
    ap_flat,
    ap_lockstep,
    ap_many,
    c_invariants,
    count_points,
    discriminant,
    good_reduction,
    reduce_mod,
    reduction_type,
)
from oracles import (
    an_per_prime_ap,
    an_recursive,
    brute_count,
    count_points_ext,
    lockstep_point_eager,
    padd_reduced,
    reduction_type_search,
    twist,
)


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


LARGE_PRIMES = (99989, 99991, 100003, 999961, 999979, 999983)


def _bsgs_curves(e11a, e37a, e_ss):
    j0 = CurveQ(0, 0, 1, 0, 0, 27)
    j1728 = CurveQ(0, 0, 0, -1, 0, 32)
    big = twist(e37a, -2503).curve  # a6 = -3920329382, 2503 | N
    return e11a, e37a, e_ss, j0, j1728, big


@functools.cache
def _recount_one(curve, p):
    return p + 1 - count_points(reduce_mod(curve, p))


def _recount(curve, primes):
    """a_p by enumeration, shared by the tests of the scalar and lockstep paths."""
    return [_recount_one(curve, p) for p in primes]


def test_bsgs_matches_enumerator(e11a, e37a, e_ss):
    *_, big = curves = _bsgs_curves(e11a, e37a, e_ss)
    for curve in curves:
        for p in primes_upto(5000):
            if p >= 230 and good_reduction(curve, p):
                assert _ap_bsgs(curve, p) == _recount_one(curve, p), (curve, p)
    for curve in (e37a, big):
        for p in LARGE_PRIMES:
            assert _ap_bsgs(curve, p) == _recount_one(curve, p), (curve, p)
    with pytest.raises(BadReductionError):
        ap(big, 2503)
    with pytest.raises(PointCountBoundError):
        ap(e37a, 1000003)  # the first prime above POINT_COUNT_CEILING


def test_lockstep_kernel_matches_enumerator(e11a, e37a, e_ss):
    # every good p from the floor, where a table growth's block takes primes from ap_flat,
    # to 5000, and large primes in the same blocks
    for curve in _bsgs_curves(e11a, e37a, e_ss):
        primes = [p for p in primes_upto(5000) if p >= LOCKSTEP_MIN_P and good_reduction(curve, p)]
        assert primes[0] < 520
        primes += LARGE_PRIMES
        got = ap_lockstep(curve, primes)
        assert isinstance(got, np.ndarray) and got.dtype == np.int64
        assert got.tolist() == _recount(curve, primes), curve


def test_lockstep_decisions_do_not_depend_on_the_block(e37a, e_ss, monkeypatch):
    # each prime's #E (0 if undecided) in both passes is the same at every block width, and
    # in blocks of shuffled primes, whose baby-step tables and giant-step loops run for
    # primes up to 60 times larger; y^2 = x^3 - x at p = 3301 (point of order 534) once
    # depended on its block, through a (0:0:0) giant step past its own Hasse interval
    outputs = {}
    real_orders = ec_core._lockstep_orders

    def orders(c4, c6, p, twist=False):
        n = real_orders(c4, c6, p, twist)
        for q, k in zip(p.tolist(), n.tolist()):
            assert outputs.setdefault((twist, q), k) == k, (twist, q)
        return n

    monkeypatch.setattr(ec_core, "_lockstep_orders", orders)
    rng = random.Random(16)
    x3mx = CurveQ(0, 0, 0, -1, 0, 32)
    for curve in (e37a, CurveQ(0, 0, 1, 0, 0, 27), x3mx, e_ss):
        primes = [p for p in primes_upto(30000) if p >= LOCKSTEP_MIN_P and good_reduction(curve, p)]
        outputs.clear()
        for lanes, order in ((256, primes), (640, primes), (1024, primes),
                             (640, rng.sample(primes, len(primes)))):
            monkeypatch.setattr(ec_core, "_LANES", lanes)
            ap_lockstep(curve, order)
        if curve is x3mx:
            assert outputs[False, 3301] == 3302 - _recount_one(x3mx, 3301)
        assert sum(twist for twist, _ in outputs) >= ec_core._BLOCK_MIN, curve


def test_lockstep_kernel_decides_j0_lanes():
    # x = 0 gives (0, 108) of order 3 at every prime; the kernel skips roots of psi_3
    j0 = CurveQ(0, 0, 1, 0, 0, 27)
    primes = [p for p in primes_upto(30000) if p >= 2500 and good_reduction(j0, p)]
    c4, c6 = c_invariants(j0)
    n = np.concatenate([_lockstep_orders(c4, c6, np.array(primes[i : i + 256]))
                        for i in range(0, len(primes), 256)])
    assert np.count_nonzero(n) >= 0.9 * len(primes)
    for p, k in zip(primes, n.tolist()):
        if k:
            assert p + 1 - k == _ap_bsgs(j0, p), p
    assert ap_lockstep(j0, primes[:200]).tolist() == _recount(j0, primes[:200])


def test_twist_pass_leaves_few_lanes_to_the_scalar_path(e_ss, monkeypatch):
    # lanes the first pass leaves undecided run again with a point on the other curve
    scalar = []
    real_bsgs = ec_core._ap_bsgs

    def spy(curve, p):
        scalar.append(p)
        return real_bsgs(curve, p)

    twists = []  # the twist argument of every kernel call
    real_orders = ec_core._lockstep_orders

    def orders(c4, c6, p, twist=False):
        twists.append(twist)
        return real_orders(c4, c6, p, twist)

    monkeypatch.setattr(ec_core, "_ap_bsgs", spy)
    monkeypatch.setattr(ec_core, "_lockstep_orders", orders)
    for curve in (CurveQ(0, 0, 1, 0, 0, 27), e_ss):
        primes = [p for p in primes_upto(30000) if p >= 2500 and good_reduction(curve, p)]
        twists.clear()
        scalar.clear()
        got = ap_lockstep(curve, primes).tolist()
        assert True in twists and len(scalar) <= 0.01 * len(primes), (curve, len(scalar))
        assert got == [real_bsgs(curve, p) for p in primes], curve
        # fewer than _BLOCK_MIN undecided lanes skip the twist pass
        twists.clear()
        scalar.clear()
        assert ap_lockstep(curve, primes[:60]).tolist() == got[:60]
        assert twists == [False] and 0 < len(scalar) < ec_core._BLOCK_MIN, (curve, len(scalar))


@pytest.mark.parametrize("case", ["j0", "j1728", "p | c4 c6"])
def test_lazy_point_search_picks_the_eager_point(case, monkeypatch):
    # every lane takes the same x and curve as when all tries are evaluated at once
    if case == "p | c4 c6":  # 2503 | c4, 2521 and 2531 | c6, 2539 | both, among other primes
        c4, c6 = 2503 * 2539 * 7, 2521 * 2531 * 2539 * 11
        primes = [p for p in primes_upto(3200) if p >= 2500]
    else:
        curve = CurveQ(0, 0, 1, 0, 0, 27) if case == "j0" else CurveQ(0, 0, 0, -1, 0, 32)
        c4, c6 = c_invariants(curve)
        primes = [p for p in primes_upto(12000) if p >= 2500 and good_reduction(curve, p)]
    p = np.array(primes, dtype=np.int64)
    A = np.array([-27 * c4 % q for q in primes], dtype=np.int64)
    B = np.array([-54 * c6 % q for q in primes], dtype=np.int64)
    assert ((A == 0) | (B == 0)).any()  # lanes where x = 0 is not usable
    default = ec_core._POINT_TRIES
    for tries in (1, 2, default):  # few tries leave lanes with no x
        monkeypatch.setattr(ec_core, "_POINT_TRIES", tries)
        for twist_pass in (False, True):
            x0, f, on_e, found = _lockstep_point(A, B, p, twist_pass)
            want_x, want_f, want_on_e, want_found = lockstep_point_eager(A, B, p, twist_pass, tries)
            assert found.tolist() == want_found.tolist(), (tries, twist_pass)
            assert x0[found].tolist() == want_x[found].tolist(), (tries, twist_pass)
            assert f[found].tolist() == want_f[found].tolist(), (tries, twist_pass)
            assert on_e[found].tolist() == want_on_e[found].tolist(), (tries, twist_pass)
            if tries == default:
                assert found.all() and (x0 > 0).any()


def test_window_mul_matches_affine_multiplication():
    # windows of w = 3 bits over the kernel's baby-step tables, s = isqrt(isqrt(4p)) + 1 rows:
    # s = 7 at p = 503, the least the kernel takes, 19 at p = 29989 and 45 at p = 999983
    rng = random.Random(13)
    w = 3
    for p in (503, 29989, 999983):
        s = math.isqrt(math.isqrt(4 * p)) + 1
        lanes = []  # (a, b, P) with P on y^2 = x^3 + a x + b
        while len(lanes) < 12:
            a, x, y = (rng.randrange(p) for _ in range(3))
            b = (y * y - x ** 3 - a * x) % p
            if (4 * a ** 3 + 27 * b * b) % p:
                lanes.append((a, b, (x, y)))
        rows = [[(0, 1, 0) if Q is None else (*Q, 1)
                 for Q in [None] + [_mul(j, P, a, p) for j in range(1, s + 1)]] for a, b, P in lanes]
        table = np.array(rows, dtype=np.int64).transpose(2, 1, 0)  # table[:, j] = [j]P
        a_, b3, p_ = (np.array(v, dtype=np.int64) for v in
                      ([a for a, _, _ in lanes], [3 * b % p for _, b, _ in lanes], [p] * len(lanes)))
        calls = [[m] * len(lanes) for m in (
            1, (1 << w) - 1,  # a single window
            1 << 2 * w,  # zero digits below the top one
            (1 << 3 * w) + 1,  # a zero digit between nonzero ones
            (1 << 2 * w + 1) + 3,  # a top window of 2 bits
            p + 1 - math.isqrt(4 * p) + s,  # the kernel's first giant step
        )]
        calls.append([0, 1] + [rng.randrange(1, 2**20) for _ in lanes[2:]])  # m per lane
        for ms in calls:
            X, Y, Z = (v.tolist() for v in _window_mul(table, np.array(ms), a_, b3, p_))
            for (a, _, P), m, x, y, z in zip(lanes, ms, X, Y, Z):
                want = _mul(m, P, a, p) if m else None
                if want is None:
                    assert x == z == 0 and y != 0, (p, m)
                else:
                    assert z != 0 and (x - want[0] * z) % p == 0 and (y - want[1] * z) % p == 0, (p, m)


class _CountingNumpy:
    """numpy for `ec_core`, recording how many giant-step matches each
    `_lockstep_orders` call keeps (the counts it passes to np.repeat)."""

    def __init__(self):
        self.kept = []

    def __getattr__(self, name):
        return getattr(np, name)

    def repeat(self, a, repeats):
        self.kept.append(sum(repeats))
        return np.repeat(a, repeats)


def test_lockstep_keeps_one_match_for_a_giant_step_on_O(g427, monkeypatch):
    # a giant step with Z = 0 ([m]P = O, or a (0:0:0) sum) matches every baby
    # step; only the match against [1]P is kept. In g427.1's first block
    # (primes 500-5,600) 1,634 matches were kept before, 865 of them from the
    # 85 giant steps with Z = 0 (48 of those (0:0:0) sums)
    primes = [p for p in primes_upto(6000) if p >= LOCKSTEP_MIN_P and good_reduction(g427, p)]
    block = np.array(primes[: ec_core._LANES], dtype=np.int64)
    assert (block[0], block[-1]) == (503, 5569)
    counting = _CountingNumpy()
    monkeypatch.setattr(ec_core, "np", counting)
    n = _lockstep_orders(*c_invariants(g427), block)
    monkeypatch.undo()
    assert counting.kept == [1634 - 865 + 85]
    decided = n != 0
    assert int((~decided).sum()) == 45
    want = np.array([p + 1 - ap(g427, p) for p in primes[: ec_core._LANES]])
    assert (n[decided] == want[decided]).all()


def test_lockstep_kernel_blocks_and_fallback(e37a, monkeypatch):
    # blocks of 7 lanes, in ascending and in shuffled order; some lanes are undecided
    primes = [p for p in primes_upto(3300) if p >= 2500 and good_reduction(e37a, p)]
    want = _recount(e37a, primes)
    monkeypatch.setattr(ec_core, "_LANES", 7)
    assert ap_lockstep(e37a, primes).tolist() == want
    rng = random.Random(3)
    order = rng.sample(range(len(primes)), len(primes))
    got = ap_lockstep(e37a, [primes[i] for i in order]).tolist()
    assert got == [want[i] for i in order]
    # no lane finds a point: every lane falls back to the scalar path
    monkeypatch.setattr(ec_core, "_POINT_TRIES", 0)
    assert ap_lockstep(e37a, primes).tolist() == want
    assert ap_lockstep(e37a, []).tolist() == []


def test_ap_many_matches_ap_in_the_order_given(e11a, e37a, monkeypatch):
    blocks, flats = [], []
    real_lockstep, real_flat = ec_core.ap_lockstep, ec_core.ap_flat

    def ap_lockstep(curve, primes):
        blocks.append(len(primes))
        return real_lockstep(curve, primes)

    def ap_flat(curve, primes):
        flats.append(len(primes))
        return real_flat(curve, primes)

    monkeypatch.setattr(ec_core, "ap_lockstep", ap_lockstep)
    monkeypatch.setattr(ec_core, "ap_flat", ap_flat)
    rng = random.Random(8)
    short, long = ec_core._BLOCK_MIN - 1, ec_core._LANES + 40
    for curve in (e11a, e37a):
        good = [p for p in primes_upto(12000) if good_reduction(curve, p)]  # > long above 2500
        small = [p for p in good if p < BSGS_MIN_P]
        large = [p for p in good if p >= BSGS_MIN_P]
        for n_small, n_large in ((0, 0), (5, 0), (3, 2), (4, short), (1, short + 1), (30, long)):
            primes = rng.sample(small, n_small) + rng.sample(large, n_large)
            rng.shuffle(primes)
            blocks.clear()
            flats.clear()
            got = ap_many(curve, primes)
            assert isinstance(got, np.ndarray) and got.dtype == np.int64
            assert got.tolist() == [ap(curve, p) for p in primes], (n_small, n_large)
            # a block runs for > short primes >= BSGS_MIN_P and takes every prime from LOCKSTEP_MIN_P up
            floor = LOCKSTEP_MIN_P if n_large > short else BSGS_MIN_P
            n_block = sum(p >= LOCKSTEP_MIN_P for p in primes) if n_large > short else 0
            assert blocks == ([n_block] if n_block else [])
            n_flat = sum(5 <= p < floor for p in primes)  # one call for all of them
            assert flats == ([n_flat] if n_flat else [])
    # two growths of 37a's table from 1000 terms: 40 primes in [2500, 2800) start a block,
    # which takes the primes in [1000, 2500) too; 11 in [2500, 2600) start none
    for n_max in (2800, 2600):
        primes = [p for p in primes_upto(n_max) if p > 1000 and good_reduction(e37a, p)]
        n_large = sum(p >= BSGS_MIN_P for p in primes)
        blocks.clear()
        flats.clear()
        assert ap_many(e37a, primes).tolist() == [ap(e37a, p) for p in primes]
        if n_max == 2800:
            assert n_large >= ec_core._BLOCK_MIN and blocks == [len(primes)] and flats == []
        else:
            assert 0 < n_large < ec_core._BLOCK_MIN and blocks == [] and flats == [len(primes) - n_large]
    assert ap_many(e37a, [3001, 5, 3001]).tolist() == [ap(e37a, 3001), -2, ap(e37a, 3001)]
    for primes in ([5, 37], large[: ec_core._BLOCK_MIN] + [37]):
        with pytest.raises(BadReductionError):
            ap_many(e37a, primes)


def _flat_curves(e11a, e37a, e_ss, e14a):
    j0 = CurveQ(0, 0, 1, 0, 0, 27)
    j1728 = CurveQ(0, 0, 0, -1, 0, 32)
    big = twist(e37a, -2503).curve  # c6 = 3387164585832 > 2^31
    assert max(abs(c) for c in c_invariants(big)) > 2**31
    return e11a, e37a, e_ss, e14a, j0, j1728, big


def test_ap_flat_matches_enumerator(e11a, e37a, e_ss, e14a, monkeypatch):
    rng = random.Random(10)
    for curve in _flat_curves(e11a, e37a, e_ss, e14a):
        primes = [p for p in primes_upto(BSGS_MIN_P - 1) if p >= 5 and good_reduction(curve, p)]
        want = _recount(curve, primes)
        got = ap_flat(curve, primes)
        assert isinstance(got, np.ndarray) and got.dtype == np.int64
        assert got.tolist() == want, curve
        order = rng.sample(range(len(primes)), len(primes))
        assert ap_flat(curve, [primes[i] for i in order]).tolist() == [want[i] for i in order]
    # runs of at most 40 pairs: a run ends between primes, and every prime
    # above 81 is wider than a run and is counted alone; at 2 pairs, every prime is
    for chunk in (40, 2):
        monkeypatch.setattr(ec_core, "_FLAT_CHUNK", chunk)
        for curve in (e37a, _flat_curves(e11a, e37a, e_ss, e14a)[-1]):
            primes = [p for p in primes_upto(300) if p >= 5 and good_reduction(curve, p)]
            assert ap_flat(curve, primes).tolist() == _recount(curve, primes)
    assert ap_flat(e37a, []).tolist() == []


def test_ap_flat_rows_of_widely_different_primes(e11a, e37a, e_ss, e14a):
    # one run holds rows as wide as its largest prime, whatever the order: a small
    # prime's row is mostly padding, and the widest row may come first, last or
    # between; j0 has A = 0 and j1728 B = 0 at every p
    rng = random.Random(30)
    for curve in _flat_curves(e11a, e37a, e_ss, e14a):
        good = [p for p in primes_upto(BSGS_MIN_P - 1) if p >= 5 and good_reduction(curve, p)]
        small, wide = good[0], good[-1]
        assert wide // 2 * 3 <= ec_core._FLAT_CHUNK  # three widest rows share one run
        mixed = rng.sample(good[:40], 10) + rng.sample(good[-40:], 3)
        rng.shuffle(mixed)
        for primes in ([small, wide], [wide, small], [wide, small, wide], mixed, mixed[::-1]):
            assert ap_flat(curve, primes).tolist() == _recount(curve, primes), (curve, primes)


def test_ap_flat_checks_its_inputs(e37a, monkeypatch):
    for primes in ([3, 5], [5, 2503]):
        with pytest.raises(ValueError, match="BSGS_MIN_P"):
            ap_flat(e37a, primes)
    with pytest.raises(BadReductionError):
        ap_flat(e37a, [5, 37])

    class Numpy:  # numpy as ec_core sees it, with every segment sum 100 too large
        add = types.SimpleNamespace(reduceat=lambda *a, **k: np.add.reduceat(*a, **k) + 100)

        def __getattr__(self, name):
            return getattr(np, name)

    monkeypatch.setattr(ec_core, "np", Numpy())
    with pytest.raises(ArithmeticError, match="Hasse"):
        ap_flat(e37a, [5, 7])


def test_ap_many_refuses_bad_and_singular_primes_below_bsgs(e11a, e37a):
    # y^2 = x^3 + 53^4 x is y^2 = x^3 + x scaled by u = 53: its discriminant
    # -64 * 53^12 has 53, a prime that does not divide N = 32. CurveQ refuses
    # the model, so it is built here without the constructor's check
    with pytest.raises(ValueError, match="prime to N = 32 is 491258904256726154641, not 1"):
        CurveQ(0, 0, 0, 53**4, 0, 32)
    scaled = object.__new__(CurveQ)
    scaled.a1, scaled.a2, scaled.a3, scaled.a4, scaled.a6 = 0, 0, 0, 53**4, 0
    scaled.N, scaled.label = 32, None
    assert discriminant(scaled) % 53 == 0 and good_reduction(scaled, 53)
    with pytest.raises(BadReductionError):
        ap(scaled, 53)
    large = [p for p in primes_upto(4000) if p >= BSGS_MIN_P][: ec_core._BLOCK_MIN]
    for primes in ([3, 5, 53, 7], [53], [5, 7] + large + [53]):
        with pytest.raises(BadReductionError):
            ap_many(scaled, primes)
    for primes in ([2, 37], [5, 37, 7], [3, 41] + large + [37], [37] + large):
        with pytest.raises(BadReductionError):
            ap_many(e37a, primes)
    with pytest.raises(BadReductionError):
        ap_many(e11a, [5, 7, 2, 11, 13])
    # p = 2 and 3 are counted by `ap`, in any position of a batch
    for curve in (e11a, e37a):
        primes = [3, 13, 2, 5, 3] + large[:3] + [2]
        assert ap_many(curve, primes).tolist() == [ap(curve, p) for p in primes]


def test_complete_addition_matches_affine_law():
    # y^2 = x^3 - x mod 2503 has the 2-torsion points (0, 0) and (+-1, 0)
    p, a = 2503, -1
    pts = [None] + [(x, y) for x in range(40) for y in range(p) if (y * y - x ** 3 + x) % p == 0]
    lanes = [(P, Q) for P in pts for Q in pts]

    def proj(P):
        return (0, 1, 0) if P is None else (P[0], P[1], 1)

    one = np.ones(len(lanes), dtype=np.int64)
    cols = [np.array(c, dtype=np.int64) for c in zip(*(proj(P) + proj(Q) for P, Q in lanes))]
    X, Y, Z = _padd(cols[:3], cols[3:], a % p * one, 0 * one, p * one)
    degenerate = 0
    for (P, Q), x, y, z in zip(lanes, X.tolist(), Y.tolist(), Z.tolist()):
        diff = _add(P, None if Q is None else (Q[0], -Q[1] % p), a, p)  # P - Q
        if diff is not None and diff[1] == 0:
            assert (x, y, z) == (0, 0, 0), (P, Q)
            degenerate += 1
            continue
        S = _add(P, Q, a, p)
        if S is None:
            assert x == z == 0 and y != 0, (P, Q)
        else:
            assert z != 0 and (x - S[0] * z) % p == 0 and (y - S[1] * z) % p == 0, (P, Q)
    assert degenerate > 0


class _RemainderCounter(np.ndarray):
    """An int64 array that counts the np.remainder calls taking it."""

    calls = 0

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        if ufunc is np.remainder:
            _RemainderCounter.calls += 1
        inputs = tuple(x.view(np.ndarray) if isinstance(x, _RemainderCounter) else x for x in inputs)
        return getattr(ufunc, method)(*inputs, **kwargs)


def test_padd_equals_the_fully_reduced_law_at_the_int64_limit():
    # 640-lane blocks at the largest primes the kernel takes and at random ones from
    # LOCKSTEP_MIN_P, inputs read-only: an in-place write to a table row raises here
    rng = np.random.default_rng(25)
    primes = np.array(primes_upto(POINT_COUNT_CEILING), dtype=np.int64)
    primes = primes[primes >= LOCKSTEP_MIN_P]
    assert primes[-1] > 999_000
    for p in (primes[-640:], rng.choice(primes, 640)):
        top = [p - 1] * 8  # X1, Y1, Z1, X2, Y2, Z2, a, b3
        rand = list(rng.integers(0, p, (8, len(p))))
        mixed = [np.where(rng.random(len(p)) < 0.5, p - 1, v) for v in rand]
        mixed[0][:64], mixed[1][:64], mixed[2][:64] = 0, 1, 0  # P = O
        mixed[3][32:96], mixed[4][32:96], mixed[5][32:96] = 0, 1, 0  # Q = O
        mixed[0][96:128], mixed[1][96:128], mixed[2][96:128] = 0, 0, 0  # P = (0:0:0)
        mixed[3][112:160], mixed[4][112:160], mixed[5][112:160] = 0, 0, 0  # Q = (0:0:0)
        for v in (*top, *rand, *mixed, p):
            v.flags.writeable = False
        for X in (top, rand, mixed):
            for P, Q in ((X[:3], X[3:6]), (X[:3], X[:3])):  # a sum and a doubling
                want = padd_reduced(P, Q, X[6], X[7], p)
                got = _padd(P, Q, X[6], X[7], p)
                for g, w in zip(got, want):
                    assert g.dtype == np.int64 and (g == w).all()
    _RemainderCounter.calls = 0
    _padd(mixed[:3], mixed[3:6], mixed[6], mixed[7], p.view(_RemainderCounter))
    assert _RemainderCounter.calls == 8


def test_padd_headroom_covers_the_point_count_ceiling():
    # `_padd`'s largest intermediate, w s + u ga in Z3, lies below 6 p^3; numpy wraps
    # int64 products silently, so a ceiling above about 1.15 * 10^6 must fail here
    assert 6 * POINT_COUNT_CEILING**3 < 2**63


def test_lane_isqrt_is_exact():
    n = np.arange(2**20 + 1, dtype=np.int64)
    assert _lane_isqrt(n).tolist() == [math.isqrt(k) for k in range(2**20 + 1)]
    ps = [p for p in primes_upto(POINT_COUNT_CEILING) if p >= LOCKSTEP_MIN_P]
    for m in (ps, [4 * p for p in ps]):
        assert _lane_isqrt(np.array(m, dtype=np.int64)).tolist() == [math.isqrt(k) for k in m]
    # either side of large squares, where a float root may round across an integer
    k = np.arange(2**25, 2**26, 4099, dtype=np.int64)
    near = np.concatenate((k * k - 1, k * k, k * k + 1))
    assert _lane_isqrt(near).tolist() == [math.isqrt(v) for v in near.tolist()]


def test_lockstep_kernel_reaches_both_ends_of_the_hasse_interval(e_ss):
    # p = alpha^2 + 4, alpha odd: a_p = +-2 alpha = +-isqrt(4p) on y^2 = x^3 + x, so #E is
    # an end of [lo, hi]; one lane per call, so no wider block covers for a short scan
    c4, c6 = c_invariants(e_ss)
    ends = set()
    for p in (al * al + 4 for al in range(51, 200, 2)):
        if is_prime(p):
            n = _lockstep_orders(c4, c6, np.array([p]))[0]
            want = _recount_one(e_ss, p)
            assert abs(want) == math.isqrt(4 * p) and n in (0, p + 1 - want), p
            if n:
                ends.add(want > 0)
    assert ends == {True, False}


def test_lockstep_kernel_checks_hasse_and_inputs(e37a, monkeypatch):
    with pytest.raises(PointCountBoundError):
        ap_lockstep(e37a, [2503, 1000003])
    with pytest.raises(BadReductionError):
        ap_lockstep(twist(e37a, -2503).curve, [2503])
    with pytest.raises(ValueError):
        ap_lockstep(e37a, [2503, 491])  # below LOCKSTEP_MIN_P
    monkeypatch.setattr(ec_core, "_lockstep_orders", lambda c4, c6, p: 2 * p)
    with pytest.raises(ArithmeticError, match="Hasse"):
        ap_lockstep(e37a, [2503, 2521])


def test_an_series_matches_per_prime_ap(e11a):
    n_max = 3 * 10**4  # crosses 14 blocks of _AN_BLOCK = 2^11 n
    assert an_series(e11a, n_max).values.tolist() == an_per_prime_ap(e11a, n_max)


@functools.cache
def _an_oracle(curve, n_max):
    return an_per_prime_ap(curve, n_max)


def _reduction_curves(e11a, e37a, e_ss, e14a):
    # 11a split and 37a nonsplit multiplicative; 14a split at 7, nonsplit at 2;
    # 27a (j = 0) and 32a additive, so a_{p^k} = 0 at 3^k and 2^k
    return e11a, e37a, e14a, e_ss, CurveQ(0, 0, 1, 0, -7, 27, "27a")


def test_an_series_blocks_match_per_prime_ap(e11a, e37a, e_ss, e14a, monkeypatch):
    curves = _reduction_curves(e11a, e37a, e_ss, e14a)
    assert [reduction_type(c, p)[1] for c, p in zip(curves, (11, 37, 7, 2, 3))] == [1, -1, 1, 0, 0]
    assert reduction_type(e14a, 2)[1] == -1
    for block in (ec_core._AN_BLOCK, 64, 7):
        monkeypatch.setattr(ec_core, "_AN_BLOCK", block)
        for curve in curves:
            for n_max in (1, 2, 3, 4, 64, 65, 2 * block + 1, 3000):
                want = _an_oracle(curve, n_max)
                assert an_series(curve, n_max).values.tolist() == want, (curve.label, block, n_max)


def test_an_series_grown_at_awkward_splits_matches_per_prime_ap(e11a, e37a, e_ss, e14a,
                                                               monkeypatch):
    # split points: 1, 2, one below a prime power (25 = 5^2, 128 = 2^7, 243 = 3^5),
    # one below and at a block edge, and the whole table
    n_max = 3000
    for block in (ec_core._AN_BLOCK, 64):
        monkeypatch.setattr(ec_core, "_AN_BLOCK", block)
        for curve in _reduction_curves(e11a, e37a, e_ss, e14a):
            want = _an_oracle(curve, n_max)
            for split in (1, 2, 24, 127, 242, block - 1, block, block + 1, n_max):
                known = an_series(curve, split)
                grown = an_series(curve, n_max, known)
                assert grown.values.tolist() == want, (curve.label, block, split)
                assert known.values.tolist() == want[: split + 1]


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


def _singular_pairs_of_the_box():
    # every model a1 in {0, 1}, a2 in {-1, 0, 1}, a3 in {0, 1}, |a4|, |a6| <= 6,
    # with N the product of the primes of Delta (all CurveQ asks), at each
    # p <= 7 | N; non-minimal models included
    pairs = []
    for ainvs in itertools.product((0, 1), (-1, 0, 1), (0, 1), range(-6, 7), range(-6, 7)):
        d = discriminant(ainvs)
        if d:
            curve = CurveQ(*ainvs, math.prod(prime_divisors(abs(d))))
            pairs += [(curve, p) for p in (2, 3, 5, 7) if curve.N % p == 0]
    return pairs


def test_reduction_type_closed_form_matches_the_search(corpus_curves):
    box = _singular_pairs_of_the_box()
    kinds = {(p, reduction_type_search(c, p)[0]) for c, p in box}
    assert len(box) == 2325 and {(2, "additive"), (3, "additive")} <= kinds
    for curve, p in box:
        assert reduction_type(curve, p) == reduction_type_search(curve, p), (curve.ainvs, p)
    assert len(corpus_curves) == 347
    for curve in corpus_curves:
        for p in prime_divisors(curve.N):
            assert reduction_type(curve, p) == reduction_type_search(curve, p), (curve.label, p)


def test_cm_field_is_read_from_j():
    # y^2 = x^3 + 3j(1728 - j)x + 2j(1728 - j)^2 has j-invariant j; with CM by
    # the field d_F it is supersingular, #E(F_p) = p + 1, at each good p inert
    # in Q(sqrt(d_F)), counted here by Legendre sums
    for j, d_F in ec_core.CM_FIELD_OF_J.items():
        k = 1728 - j
        ainvs = {0: (0, 0, 0, 0, 1), 1728: (0, 0, 0, 1, 0)}.get(j, (0, 0, 0, 3 * j * k, 2 * j * k * k))
        assert ec_core.cm_field(ainvs) == d_F, j
        _, _, _, a, b = ainvs
        inert = [p for p in primes_upto(80)
                 if p > 3 and ec_core.discriminant(ainvs) % p and kronecker(d_F, p) == -1]
        assert len(inert) >= 5, j
        for p in inert:
            legendre = [pow((x**3 + a * x + b) % p, (p - 1) // 2, p) for x in range(p)]
            assert p + 1 + sum(1 if v == 1 else -1 if v else 0 for v in legendre) == p + 1, (j, p)
    for ainvs in ((0, -1, 1, -10, -20), (0, 0, 1, -1, 0), (0, 0, 0, 3 * 1727, 2 * 1727**2)):
        assert ec_core.cm_field(ainvs) is None  # 11a, 37a, and j = 1
