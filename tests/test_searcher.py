import functools
import math
import os

import numpy as np
import pytest

from heegner_witness import ec_core, searcher
from heegner_witness.arith import euler_phi, primes_upto
from heegner_witness.ec_core import CurveQ
from heegner_witness.pipeline import Config, parse_curve_file
from heegner_witness.quadforms import kronecker
from heegner_witness.searcher import (
    FieldSearchExhausted,
    PrimeSearchExhausted,
    PrimeSeqItem,
    choose_q,
    find_K,
    heegner_hypothesis,
    prime_sequence,
    verify_prime_item,
)
from oracles import (
    CartanCountProblem,
    cartan_counts,
    cartan_group_order,
    crt_target,
    prime_sequence_per_prime,
)


def test_find_K_37a(e37a):
    res = find_K(e37a)
    assert res.d_K == -7
    assert res.cong4 and res.coprime and res.heegner and res.lprime_nonzero
    assert res.accepted


def test_find_K_11a(e11a):
    res = find_K(e11a)
    assert res.d_K == -7
    assert kronecker(-7, 11) == 1  # 11 splits


def test_find_K_stable_under_larger_bound(e37a):
    assert find_K(e37a, scan_bound=200).d_K == find_K(e37a, scan_bound=400).d_K


def test_find_K_exhaustion(e37a):
    with pytest.raises(FieldSearchExhausted):
        find_K(e37a, scan_bound=5)


def test_choose_q(e37a, e11a):
    assert choose_q(e37a, -7) == 3
    assert choose_q(e11a, -7) == 3


def test_choose_q_cm_bound():
    # toy CM constraint check: |d_K| = 7 forces q > 1 + 2*7^4/6 = 801.33
    from heegner_witness.ec_core import CurveQ

    e_cm = CurveQ(0, 0, 0, 1, 0, 32, "32a")  # CM by Q(i), d_F = -4
    q = choose_q(e_cm, -7)  # the CM field -4 is read from j = 1728
    assert q >= 809
    assert q > 1 + 2 * 7**4 / 6
    assert kronecker(-4, q) == 1
    assert math.gcd(q, 2 * 7 * 32) == 1


def test_prime_sequence_37a(e37a):
    items = prime_sequence(e37a, -7, 3, 3)
    assert items[0].p == 5
    assert all(it.accepted for it in items)
    # 11 must have been rejected: it is split in Q(sqrt(-7))
    assert 11 not in [it.p for it in items]
    assert kronecker(-7, 11) == 1
    for it in items:
        assert verify_prime_item(e37a, -7, 3, it)
        assert it.p % 3 == 2
        assert it.a_p % 3 != 0


def test_verify_prime_item_recounts_a_p(e11a):
    # a_p = -2 is 37a's a_5 and agrees with ap_mod_q; only a recount sees 11a's a_5 = 1
    poisoned = PrimeSeqItem(5, True, True, True, True, a_p=-2, ap_mod_q=1)
    assert not verify_prime_item(e11a, -7, 3, poisoned)
    assert verify_prime_item(e11a, -7, 3, PrimeSeqItem(5, True, True, True, True, 1, 1))


def test_verify_prime_item_catches_a_flipped_ap_flat_value(e37a, monkeypatch):
    # prime_sequence takes a_p below BSGS_MIN_P from ap_flat; flip the sign of
    # one accepted a_p there (q does not divide -a_p either, so it is accepted)
    real = ec_core.ap_flat
    items = prime_sequence(e37a, -7, 3, 4)
    target = items[2]
    assert target.p < ec_core.BSGS_MIN_P and target.a_p != 0

    def flipped(curve, primes):
        out = real(curve, primes)
        out[np.asarray(primes) == target.p] *= -1
        return out

    monkeypatch.setattr(ec_core, "ap_flat", flipped)
    poisoned = prime_sequence(e37a, -7, 3, 4)
    assert [it.p for it in poisoned] == [it.p for it in items]
    assert poisoned[2].a_p == -target.a_p
    assert not verify_prime_item(e37a, -7, 3, poisoned[2])
    assert all(verify_prime_item(e37a, -7, 3, it) for i, it in enumerate(poisoned) if i != 2)


def test_verify_prime_item_recounts_p2_without_count_points(monkeypatch):
    # 89a's sequence for d_K = -11, q = 3 starts at p = 2, whose a_p ap_many
    # takes from count_points; a wrong, Hasse-valid count there (3 does not
    # divide it either) must not pass re-verification
    e89a = CurveQ(1, 1, 1, -1, 0, 89, "89a")
    real = ec_core.count_points
    wrong = real(ec_core.reduce_mod(e89a, 2)) - 3  # a_2 -> -a_2

    def count_points(cfp):
        return 3 - wrong if cfp.p == 2 else real(cfp)

    for mod in (ec_core, searcher):
        monkeypatch.setattr(mod, "count_points", count_points)
    items = prime_sequence(e89a, -11, 3, 3)
    assert items[0].p == 2 and items[0].a_p == wrong != 0
    assert not verify_prime_item(e89a, -11, 3, items[0])
    assert all(verify_prime_item(e89a, -11, 3, it) for it in items[1:])


def test_prime_sequence_never_contains_q(e37a):
    # p = q fails p = -1 mod q for q > 2
    items = prime_sequence(e37a, -7, 3, 5)
    assert 3 not in [it.p for it in items]


def test_prime_sequence_exhaustion(e37a):
    with pytest.raises(PrimeSearchExhausted) as ei:
        prime_sequence(e37a, -7, 3, 50, p_bound=100)
    assert 0 < len(ei.value.partial) < 50


E14A = CurveQ(1, 0, 1, 4, -6, 14, "14a")  # rational 3-torsion: 3 | a_p at every good p > 3
SCANS = [  # (curve, d_K, q, count, p_bound)
    (CurveQ(0, 0, 1, -1, 0, 37, "37a"), -7, 3, 3, 10**5),
    (CurveQ(0, 0, 1, -1, 0, 37, "37a"), -7, 3, 60, 10**5),  # chunks reach large p
    (CurveQ(0, 0, 1, -1, 0, 37, "37a"), -7, 101, 3, 10**5),
    (CurveQ(0, 0, 1, -1, 0, 37, "37a"), -7, 211, 3, 10**5),
    (CurveQ(0, 0, 1, -1, 0, 37, "37a"), -7, 1009, 3, 10**5),
    (CurveQ(0, 0, 1, -1, 0, 37, "37a"), -7, 3, 50, 100),  # exhausts with a partial list
    (CurveQ(0, -1, 1, -10, -20, 11, "11a"), -7, 3, 40, 10**5),
    (E14A, -31, 3, 2, 10**5),  # the doomed scan: exhausts with no prime
]


@functools.lru_cache(maxsize=None)
def _per_prime(i):
    try:
        return prime_sequence_per_prime(*SCANS[i]), None
    except PrimeSearchExhausted as e:
        return None, (e.bound, e.partial, e.candidates)


@pytest.mark.parametrize("lanes", [None, 7])
@pytest.mark.parametrize("i", range(len(SCANS)))
def test_prime_sequence_matches_per_prime_scan(i, lanes, monkeypatch):
    if lanes is not None:  # short chunks that still go through lockstep blocks
        monkeypatch.setattr(ec_core, "_LANES", lanes)
        monkeypatch.setattr(ec_core, "_BLOCK_MIN", 2)
    want, exhausted = _per_prime(i)
    if exhausted is None:
        assert prime_sequence(*SCANS[i]) == want
    else:
        with pytest.raises(PrimeSearchExhausted) as ei:
            prime_sequence(*SCANS[i])
        assert (ei.value.bound, ei.value.partial, ei.value.candidates) == exhausted
        assert f"; {exhausted[2]} of the primes p <= {exhausted[0]} have" in str(ei.value)


# d_K of every pinned curve (perfbench/data/pinned.txt) that reaches step 3
PINNED_STEP3 = {"11a": -7, "37a": -7, "14a": -31, "15a": -11, "17a": -15, "19a": -15,
                "43a": -7, "53a": -7, "57a": -59, "61a": -15, "65a": -51, "79a": -7,
                "83a": -15, "89a": -11, "91a": -55, "131a": -19}


def test_prime_sequence_matches_per_prime_scan_on_the_pinned_curves():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    curves = parse_curve_file(os.path.join(root, "perfbench", "data", "pinned.txt"))
    config = Config()
    count = max(config.depth, config.tower_m + config.tower_r + 1)
    scans = 0
    for curve in curves:
        if curve.label not in PINNED_STEP3:
            continue
        d_K = PINNED_STEP3[curve.label]
        q = choose_q(curve, d_K)
        if curve.label == "14a":  # its scan exhausts: one of SCANS
            assert (d_K, q, count) == SCANS[-1][1:4]
            continue
        want = prime_sequence_per_prime(curve, d_K, q, count, config.prime_bound)
        assert prime_sequence(curve, d_K, q, count, config.prime_bound) == want, curve.label
        scans += 1
    assert scans == 15


def _segments(monkeypatch):
    """Record each (lo, hi) that `prime_sequence` sieves."""
    seen = []
    real = searcher.primes_between

    def primes_between(lo, hi):
        seen.append((lo, hi))
        return real(lo, hi)

    monkeypatch.setattr(searcher, "primes_between", primes_between)
    return seen


@pytest.mark.parametrize("q", [3, 5, 7, 11])
def test_prime_sequence_sieves_doubling_segments_only_as_far_as_needed(e37a, q, monkeypatch):
    seen, chunks = _segments(monkeypatch), []
    real = searcher.ap_many

    def ap_many(curve, ps):
        chunks.append(ps)
        return real(curve, ps)

    monkeypatch.setattr(searcher, "ap_many", ap_many)
    count = 12
    items = prime_sequence(e37a, -7, q, count)
    assert items == prime_sequence_per_prime(e37a, -7, q, count)
    assert len(seen) >= 4  # at least 3 doublings
    his = [hi for _, hi in seen]
    assert his == [count * q * 2**k for k in range(len(his))]
    assert [lo for lo, _ in seen] == [1] + [hi + 1 for hi in his[:-1]]
    # the sieve stops in the segment that holds the last candidate of the last chunk
    assert his[-2] < chunks[-1][-1] <= his[-1]


def test_prime_sequence_exhausts_at_its_bound_and_never_sieves_past_it(monkeypatch):
    seen = _segments(monkeypatch)
    scan = SCANS[5]  # 37a, q = 3, 50 primes wanted below 100
    with pytest.raises(PrimeSearchExhausted) as ei:
        prime_sequence(*scan)
    assert seen == [(1, 100)]  # 50 * 3 > 100: one segment, cut at the bound
    bound, partial, candidates = _per_prime(5)[1]
    assert (ei.value.partial, ei.value.candidates) == (partial, candidates)
    seen.clear()
    with pytest.raises(PrimeSearchExhausted) as ei:
        prime_sequence(E14A, -31, 3, 2, 10**4)
    assert [hi for _, hi in seen] == [6 * 2**k for k in range(11)] + [10**4]
    assert ei.value.partial == []
    assert ei.value.candidates == sum(  # every candidate below the bound was scanned
        1 for p in primes_upto(10**4)
        if p % 3 == 2 and kronecker(-31, p) == -1 and E14A.N % p
    )


def test_prime_sequence_counts_in_doubling_chunks(monkeypatch):
    chunks = []
    real = searcher.ap_many

    def ap_many(curve, ps):
        chunks.append(len(ps))
        return real(curve, ps)

    monkeypatch.setattr(searcher, "ap_many", ap_many)
    with pytest.raises(PrimeSearchExhausted):
        prime_sequence(E14A, -31, 3, 2, 10**5)
    want = [min(2 ** (k + 1), ec_core._LANES) for k in range(len(chunks))]
    assert len(chunks) > 9 and chunks[:-1] == want[:-1] and 0 < chunks[-1] <= want[-1]
    chunks.clear()
    with pytest.raises(PrimeSearchExhausted):
        prime_sequence(E14A, -31, 3, 300, 2 * 10**4)  # count > _LANES
    assert len(chunks) > 1 and set(chunks[:-1]) == {300}


def test_crt_target():
    b = crt_target(3, -7, 3)
    assert b == 17
    assert b % 3 == 2 and b % 7 == 3
    b = crt_target(5, -7, -1)
    assert b % 5 == 4 and b % 7 == 6
    with pytest.raises(ValueError):
        crt_target(7, -7, 1)


def test_cartan_counts_examples():
    dc, _ = cartan_counts(CartanCountProblem(5, ("split",), 2))
    assert dc == 4 == euler_phi(5)
    dc, _ = cartan_counts(CartanCountProblem(3, ("nonsplit",), 2))
    assert dc == 4  # norm fibers of F_9^* -> F_3^* have size 4
    # trace-0 fiber: diag(x,-x) with -x^2 = b; -2 = 3 is a non-residue mod 5,
    # -4 = 1 is a residue with roots +-1
    dc, tc = cartan_counts(CartanCountProblem(5, ("split",), 2, trace_zero_mod=5))
    assert dc == 4 and tc == 0
    dc, tc = cartan_counts(CartanCountProblem(5, ("split",), 4, trace_zero_mod=5))
    assert dc == 4 and tc == 2


def test_cartan_lower_bound_and_partition():
    for m in range(2, 51):
        from heegner_witness.arith import is_squarefree

        if not is_squarefree(m):
            continue
        ps = [p for p in primes_upto(m) if m % p == 0]
        for assignment in (("split",) * len(ps), ("nonsplit",) * len(ps)):
            total = 0
            units = [b for b in range(1, m) if math.gcd(b, m) == 1]
            for b in units:
                dc, _ = cartan_counts(CartanCountProblem(m, assignment, b))
                assert dc >= euler_phi(m)
                total += dc
            assert total == cartan_group_order(m, assignment)


def test_cartan_mixed_types():
    # m = 15, split at 3 and nonsplit at 5
    dc, _ = cartan_counts(CartanCountProblem(15, ("split", "nonsplit"), 2))
    assert dc >= euler_phi(15)
    total = sum(
        cartan_counts(CartanCountProblem(15, ("split", "nonsplit"), b))[0]
        for b in range(1, 15)
        if math.gcd(b, 15) == 1
    )
    assert total == cartan_group_order(15, ("split", "nonsplit"))


def test_cartan_validation():
    with pytest.raises(ValueError):
        CartanCountProblem(12, ("split", "split"), 1)  # not squarefree
    with pytest.raises(ValueError):
        CartanCountProblem(15, ("split", "split"), 3)  # det not invertible
    with pytest.raises(ValueError):
        cartan_counts(CartanCountProblem(211, ("split",), 2))  # beyond bound


def test_heegner_hypothesis(e37a, e11a):
    assert heegner_hypothesis(e37a, -7)
    assert heegner_hypothesis(e37a, -11)
    assert heegner_hypothesis(e11a, -7)
    assert not heegner_hypothesis(e37a, -19)  # 37 inert in Q(sqrt(-19))
    # 2 is inert in Q(sqrt(-11)) (d = 5 mod 8), so conductor 32 fails
    from heegner_witness.ec_core import CurveQ

    e_cm = CurveQ(0, 0, 0, 1, 0, 32, "32a")
    assert not heegner_hypothesis(e_cm, -11)
