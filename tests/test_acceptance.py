"""Acceptance suite: one test per shipped criterion, tolerances pinned here.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per criterion.
"""

import itertools
import json
import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest

from heegner_witness.arith import euler_phi, is_squarefree, primes_upto
from heegner_witness.ec_core import an_series, ap, good_reduction
from heegner_witness.galois_tower import FormalMWModel, divisibility_contradiction
from heegner_witness.heegner import (
    canonical_height,
    gz_correspondence,
    heegner_orbit,
    is_torsion,
    orbit_z,
    period_lattice,
    trace_relation_check,
)
from heegner_witness.lseries import gate_from_leval, l_eval, l_over_K
from heegner_witness.quadforms import kronecker
from heegner_witness.searcher import (
    choose_q,
    find_K,
    prime_sequence,
    verify_prime_item,
)
from oracles import (
    CartanCountProblem,
    canonical_invariants,
    cartan_counts,
    cartan_group_order,
    count_points_ext,
    height_doubling_oracle,
    index_bound_bruteforce,
    involution_check,
    l_derivative_straight,
    l_value_straight,
    unit_quotient_structure,
)

FUNDAMENTALS = (-7, -11, -19, -43, -67, -163)


def _report(num, name, elapsed=None, budget=None):
    extra = ""
    if elapsed is not None:
        extra = f"  [{elapsed:.2f}s" + (f" / budget {budget}s]" if budget else "]")
    print(f"criterion {num:2d} PASS: {name}{extra}")
    if budget is not None:
        assert elapsed < budget, f"criterion {num} exceeded runtime budget"


def test_criterion_01_ring_class_structure_exact():
    t0 = time.perf_counter()
    cases = 0
    for d in FUNDAMENTALS:
        inert = [p for p in primes_upto(200) if kronecker(d, p) == -1]
        stack = [(0, 1, [])]
        while stack:
            i, c, ps = stack.pop()
            for j in range(i, len(inert)):
                p = inert[j]
                if c * p > 200:
                    break
                sub = ps + [p]
                got = unit_quotient_structure(d, c * p)
                want = canonical_invariants([pp + 1 for pp in sub])
                assert got == want, (d, sub, got, want)
                cases += 1
                stack.append((j + 1, c * p, sub))
    elapsed = time.perf_counter() - t0
    assert cases > 100
    _report(1, f"ring class invariants exact on {cases} conductors", elapsed, 30)


def test_criterion_02_point_counting(e11a, e37a, e_ss):
    t0 = time.perf_counter()
    for curve in (e11a, e37a, e_ss):
        for p in primes_upto(10**4):
            if good_reduction(curve, p):
                a = ap(curve, p)
                assert a * a <= 4 * p, (curve.label, p)
        s = an_series(curve, 53 * 53)
        for p in primes_upto(50):
            if good_reduction(curve, p):
                a = ap(curve, p)
                assert s[p * p] == a * a - p
                assert count_points_ext(curve, p, 2) == p * p + 1 - (a * a - 2 * p)
    _report(2, "Hasse bound to 1e4 and a_{p^2} recursion vs F_{p^2} counts",
            time.perf_counter() - t0)


def test_criterion_03_l_values(e11a, e37a):
    t0 = time.perf_counter()
    le11 = l_eval(e11a)
    assert abs(le11.value_at_1 - l_value_straight(e11a, 2000)) < 1e-6
    le37 = l_eval(e37a)
    assert abs(le37.derivative_at_1 - l_derivative_straight(e37a, 2000)) < 1e-6
    assert le11.epsilon == 1 and le11.split_defect < 1e-8
    assert le37.epsilon == -1 and le37.split_defect < 1e-8
    elapsed = time.perf_counter() - t0
    _report(3, "L(11a,1), L'(37a,1) vs straight-sum oracles; root numbers", elapsed, 10)


def test_criterion_04_rank_gate(e11a, e37a, e389a):
    t0 = time.perf_counter()
    assert gate_from_leval(l_eval(e11a)) == "rank0"
    assert gate_from_leval(l_eval(e37a)) == "rank1"
    assert gate_from_leval(l_eval(e389a)) == "not_eligible"
    _report(4, "gate: 11a rank0, 37a rank1, 389a not_eligible", time.perf_counter() - t0)


def test_criterion_05_field_and_prime_search(e37a):
    t0 = time.perf_counter()
    fs = find_K(e37a)
    assert fs.d_K == -7
    assert fs.l_value_data.nonzero
    q = choose_q(e37a, fs.d_K)
    assert q == 3
    items = prime_sequence(e37a, fs.d_K, q, 3)
    assert len(items) == 3
    for it in items:
        assert verify_prime_item(e37a, fs.d_K, q, it)
        assert it.p % q == q - 1
        assert kronecker(fs.d_K, it.p) == -1
        assert e37a.N % it.p != 0
        assert it.a_p % q != 0
    _report(5, f"find_K = -7, q = 3, primes {[it.p for it in items]} re-verified",
            time.perf_counter() - t0)


def test_criterion_06_cartan_counts():
    t0 = time.perf_counter()
    checked = 0
    for m in range(2, 51):
        if not is_squarefree(m):
            continue
        ps = [p for p in primes_upto(m) if m % p == 0]
        for types in itertools.product(("split", "nonsplit"), repeat=len(ps)):
            total = 0
            for b in range(1, m):
                if math.gcd(b, m) != 1:
                    continue
                dc, _ = cartan_counts(CartanCountProblem(m, types, b))
                assert dc >= euler_phi(m)
                total += dc
                checked += 1
            assert total == cartan_group_order(m, types), (m, types)
    elapsed = time.perf_counter() - t0
    _report(6, f"Cartan det fibers >= phi(m), partition exact ({checked} fibers)",
            elapsed, 60)


def test_criterion_07_trace_relation(e37a):
    t0 = time.perf_counter()
    orbit = heegner_orbit(e37a, -11, 2)
    assert orbit.class_count == 3
    base = heegner_orbit(e37a, -11, 1)
    precision = 1e-9  # min(lseries_precision, heegner_residual * 1e-3) at the default Config
    trace = trace_relation_check(base, orbit, orbit_z(base, precision),
                                 orbit_z(orbit, precision), period_lattice(e37a))
    assert trace["residual"] <= trace["bound"]
    _report(7, f"trace relation (37a, -11, ell=2): residual {trace['residual']:.2e} "
               f"<= bound {trace['bound']:.2e}, orbit 3", time.perf_counter() - t0)


def test_criterion_08_gross_zagier(e37a):
    t0 = time.perf_counter()
    orbit, precision = heegner_orbit(e37a, -7, 1), 1e-9  # the default step-5 precision
    rep = gz_correspondence(orbit, orbit_z(orbit, precision), l_over_K(e37a, -7),
                            period_lattice(e37a), precision)
    assert rep.recognized is not None
    assert not is_torsion(e37a, rep.recognized)
    assert rep.pk_nontorsion
    assert rep.height_side > 0.01
    assert rep.l_nonzero
    assert rep.biconditional_holds
    h = canonical_height(e37a, (Fraction(0), Fraction(0)))
    oracle = height_doubling_oracle(e37a, (Fraction(0), Fraction(0)), k=10)
    assert abs(h - oracle) < 1e-4
    _report(8, f"GZ correspondence holds; height {h:.6f} vs doubling oracle {oracle:.6f}",
            time.perf_counter() - t0)


def test_criterion_09_index_bound():
    t0 = time.perf_counter()
    for q, n in ((2, 2), (2, 3), (3, 2), (3, 3)):
        for r in range(n + 1):
            assert index_bound_bruteforce(q, n, r) == q ** (n - r), (q, n, r)
    _report(9, "minimal index over r-generated subgroups = q^(n-r), exhaustive",
            time.perf_counter() - t0)


def _matrices_of_order(ell, orders):
    rng = np.arange(ell, dtype=np.int64)
    A, B, C, D = (g.ravel() for g in np.meshgrid(rng, rng, rng, rng, indexing="ij"))
    mask = (A * D - B * C) % ell != 0
    A, B, C, D = A[mask], B[mask], C[mask], D[mask]

    def mul(m1, m2):
        a1, b1, c1, d1 = m1
        a2, b2, c2, d2 = m2
        return (
            (a1 * a2 + b1 * c2) % ell,
            (a1 * b2 + b1 * d2) % ell,
            (c1 * a2 + d1 * c2) % ell,
            (c1 * b2 + d1 * d2) % ell,
        )

    def is_ident(m):
        return (m[0] == 1) & (m[1] == 0) & (m[2] == 0) & (m[3] == 1)

    T = (A, B, C, D)
    T3 = mul(mul(T, T), T)
    T9 = mul(mul(T3, T3), T3)
    out = {}
    if 3 in orders:
        sel = is_ident(T3) & ~is_ident(T)
        out[3] = list(zip(A[sel].tolist(), B[sel].tolist(), C[sel].tolist(), D[sel].tolist()))
    if 9 in orders:
        sel = is_ident(T9) & ~is_ident(T3)
        out[9] = list(zip(A[sel].tolist(), B[sel].tolist(), C[sel].tolist(), D[sel].tolist()))
    return out


def test_criterion_10_contradiction_engine():
    t0 = time.perf_counter()
    rng = random.Random(2024)
    for _ in range(100):
        q = rng.choice((3, 5, 7))
        k = rng.randrange(1, 5)
        m, r = rng.randrange(0, 3), rng.randrange(0, 3)
        v = rng.randrange(0, 4)
        c = [0] * k
        j = rng.randrange(k)
        unit = rng.choice([u for u in range(-6, 7) if u != 0 and u % q != 0])
        c[j] = q**v * unit
        depth = m + r + v + 1
        aps = tuple(rng.choice([a for a in range(-9, 10) if a % q != 0]) for _ in range(depth))
        res = divisibility_contradiction(FormalMWModel(q, k, tuple(c), aps, m, r))
        assert res.derivable and res.witness_n == m + r + v + 1
    # q | a_p must yield 'no contradiction derivable'
    res = divisibility_contradiction(FormalMWModel(3, 1, (1,), (6, 1), 0, 0))
    assert not res.derivable
    # involution argument: exhaustive over 2x2 matrices of order 3 and 9
    total = 0
    for ell, orders in ((7, (3,)), (17, (3, 9)), (19, (3, 9))):
        S = ((ell - 1, 0), (0, ell - 1))
        found = _matrices_of_order(ell, orders)
        for order, mats in found.items():
            assert mats, (ell, order)
            for a, b, c_, d in mats:
                T = ((a, b), (c_, d))
                assert involution_check(3, T, S, modulus=ell) == "relation_violated"
                total += 1
    elapsed = time.perf_counter() - t0
    _report(10, f"witness formula on 100 random models; involution on {total} matrices",
            elapsed)


def test_criterion_11_end_to_end(tmp_path, capsys):
    from heegner_witness.cli import main

    t0 = time.perf_counter()
    curves = tmp_path / "testdata.txt"
    curves.write_text(
        "11a  0 -1 1 -10 -20  11\n37a  0 0 1 -1 0  37\n389a 0 1 1 -2 0 389\n"
    )
    out1, out2 = str(tmp_path / "r1"), str(tmp_path / "r2")
    rc1 = main(["--curves", str(curves), "--out", out1])
    rc2 = main(["--curves", str(curves), "--out", out2])
    text = capsys.readouterr().out
    assert rc1 == rc2 == 1  # 389a fails its gate, so the run is not all-pass
    assert "[11a] => PASS" in text
    assert "[37a] => PASS" in text
    assert "[389a] => FAIL (at analytic_rank_gate)" in text
    for label in ("11a", "37a", "389a"):
        d1 = json.load(open(f"{out1}/{label}.json"))
        d2 = json.load(open(f"{out2}/{label}.json"))
        assert d1["canonical_hash"] == d2["canonical_hash"], label
    d37 = json.load(open(f"{out1}/37a.json"))
    assert d37["passed"] and d37["gate"] == "rank1"
    d389 = json.load(open(f"{out1}/389a.json"))
    assert not d389["passed"] and d389["failed_at"] == "analytic_rank_gate"
    elapsed = time.perf_counter() - t0
    _report(11, "witness CLI: 11a PASS, 37a PASS, 389a gate-FAIL, deterministic",
            elapsed, 120)
