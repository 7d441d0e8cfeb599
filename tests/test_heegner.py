import cmath
import math
import random
from fractions import Fraction

import pytest

from heegner_witness.heegner import (
    CPoint,
    PrecisionUnreachable,
    canonical_height,
    elliptic_exp,
    elliptic_log,
    gz_correspondence,
    heegner_orbit,
    is_torsion,
    modular_param,
    on_curve,
    orbit_sum,
    period_lattice,
    rational_add,
    rational_multiple,
    recognize_rational,
    trace_relation_check,
    trace_to_K,
)
from heegner_witness import heegner, lseries
from heegner_witness.ec_core import CurveQ, ap, b_invariants
from heegner_witness.lseries import l_over_K
from heegner_witness.quadforms import kronecker
from oracles import (
    heegner_forms_unbounded,
    height_doubling_oracle,
    modular_param_per_term,
    torsion_translates_fraction,
)


def test_period_lattice_37a(e37a):
    lat = period_lattice(e37a)
    assert abs(lat.omega1 - 2.9934586462319595) < 1e-10
    assert abs(lat.omega2.real) < 1e-10
    assert (lat.omega2 / lat.omega1).imag > 0


def test_period_lattice_11a(e11a):
    lat = period_lattice(e11a)
    assert abs(lat.omega1 - 1.2692093042795538) < 1e-10
    # rhombic: Re(omega2) = omega1 / 2
    assert abs(lat.omega2.real - lat.omega1 / 2) < 1e-10


def test_period_half_gives_two_torsion(e37a):
    lat = period_lattice(e37a)
    P = elliptic_exp(lat, lat.omega1 / 2)
    x, y = P.xy
    assert abs(x.imag) < 1e-9
    # 2-torsion: 2y + a1 x + a3 = 0
    assert abs(2 * y + 0 * x + 1) < 1e-9
    b2, b4, b6, _ = b_invariants(e37a)
    assert abs(4 * x**3 + b2 * x**2 + 2 * b4 * x + b6) < 1e-8


def test_exp_identity(e37a):
    lat = period_lattice(e37a)
    assert elliptic_exp(lat, 0j).is_identity
    assert elliptic_exp(lat, lat.omega1 + lat.omega2).is_identity


def test_exp_log_roundtrip_random(e37a, e11a):
    rng = random.Random(19)
    for curve in (e37a, e11a):
        lat = period_lattice(curve)
        for _ in range(12):
            a, b = rng.uniform(0.05, 0.95), rng.uniform(0.05, 0.95)
            z = a * lat.omega1 + b * lat.omega2
            P = elliptic_exp(lat, z)
            if P.is_identity:
                continue
            z2 = elliptic_log(lat, P.xy[0], P.xy[1])
            assert lat.dist(z2 - z) < 1e-9


def test_log_of_rational_generator(e37a):
    lat = period_lattice(e37a)
    z = elliptic_log(lat, 0.0 + 0j, 0.0 + 0j)
    P = elliptic_exp(lat, z)
    assert abs(P.xy[0]) < 1e-9 and abs(P.xy[1]) < 1e-9


def test_heegner_orbit_37a_disc7(e37a):
    orb = heegner_orbit(e37a, -7, 1)
    assert orb.class_count == 1
    t = orb.taus[0]
    assert t.A % 37 == 0
    assert (t.B * t.B - (-7)) % (4 * 37) == 0
    assert t.tau.imag > 0


def test_heegner_orbit_37a_disc11_level2(e37a):
    orb = heegner_orbit(e37a, -11, 2)
    assert orb.D == -44
    assert orb.class_count == 3  # = ell + 1 for ell = 2 inert, h(-11) = 1
    for t in orb.taus:
        assert t.A % 37 == 0
        assert (t.B * t.B - t.D) % (4 * t.A) == 0


def test_heegner_orbit_rejects_bad_inputs(e37a, e_ss):
    with pytest.raises(ValueError):
        heegner_orbit(e37a, -19, 1)  # 37 inert: Heegner hypothesis fails
    with pytest.raises(ValueError):
        heegner_orbit(e37a, -7, 37)  # level shares a factor with N
    with pytest.raises(ValueError):
        heegner_orbit(e37a, -7, 11)  # 11 splits in Q(sqrt(-7)), not inert


def _forms_or_raise(fn, *args):
    try:
        return fn(*args)
    except PrecisionUnreachable:
        return "PrecisionUnreachable"


def test_heegner_orbit_matches_unbounded_scan(e37a, e11a, g427):
    # the scan that stops at the Im tau floor keeps exactly the forms of the
    # full 60h scan, and fails exactly where the full scan plus floor fails
    cases = [(e37a, d, level) for d in (-7, -11) for level in (1, 2, 3, 5)]
    cases += [(e11a, -7, 1)] + [(g427, -19, ell) for ell in (2, 3, 13)]
    compared = failed = 0
    for curve, d, level in cases:
        if level > 1 and kronecker(d, level) != -1:
            continue  # not a Heegner level; the input checks reject it
        want = _forms_or_raise(heegner_forms_unbounded, curve, d, level)
        orbit = _forms_or_raise(heegner_orbit, curve, d, level)
        got = orbit if isinstance(orbit, str) else [(t.A, t.B, t.C) for t in orbit.taus]
        assert got == want, (curve.label, d, level)
        compared += 1
        failed += want == "PrecisionUnreachable"
    assert compared == 9 and failed == 3


def test_heegner_orbit_names_the_limit(e37a, g427, monkeypatch):
    with pytest.raises(PrecisionUnreachable, match="Im tau floor 0.005 at A = 42700"):
        heegner_orbit(g427, -19, 97)
    # a class count no scan can reach, with the floor off, runs into the cap
    monkeypatch.setattr(heegner, "MIN_IM_TAU", 0.0)
    monkeypatch.setattr(heegner, "class_number", lambda D: 2)
    with pytest.raises(PrecisionUnreachable, match="60h cap at A = 4440"):
        heegner_orbit(e37a, -7, 1)


def test_modular_param_periodicity(e37a):
    orb = heegner_orbit(e37a, -7, 1)
    tau = orb.taus[0].tau
    z1 = modular_param(e37a, tau, n_terms=400)
    z2 = modular_param(e37a, tau + 1, n_terms=400)
    assert abs(z1.z - z2.z) < 1e-12


def test_modular_param_matches_per_term_oracle(e37a, monkeypatch):
    taus = [t.tau for t in heegner_orbit(e37a, -7, 1).taus]
    # 1024 and 1025 end on and just past the first block boundary
    cases = [(t, n) for t in taus for n in (10, 1024, 1025, 3000)]
    got = [modular_param(e37a, t, n_terms=n).z for t, n in cases]
    for (t, n), z in zip(cases, got):
        assert abs(z - modular_param_per_term(e37a, t, n)) <= 1e-13, (t, n)
    for block in (7, 10**6):
        monkeypatch.setattr(lseries, "_SUM_BLOCK", block)
        for (t, n), z in zip(cases, got):
            assert abs(modular_param(e37a, t, n_terms=n).z - z) <= 1e-13, (block, t, n)


def test_modular_param_cusp_limit(e37a):
    z = modular_param(e37a, 40j, n_terms=50)
    assert abs(z.z) < 1e-30


def test_modular_param_term_ceiling(e37a):
    with pytest.raises(PrecisionUnreachable):
        modular_param(e37a, 1e-9j + 0.5, precision=1e-9)


def test_trace_sum_order_independent(e37a):
    orb = heegner_orbit(e37a, -11, 2)
    z = orbit_sum(orb, precision=1e-11)
    zs = [modular_param(e37a, t, precision=1e-11).z for t in orb.taus]
    for perm in ([2, 0, 1], [1, 2, 0], [2, 1, 0]):
        alt = sum(zs[i] for i in perm)
        assert abs(alt - z.z) < 1e-10


def test_trace_to_K_37a_recognizes_generator(e37a):
    pk, recognized = trace_to_K(heegner_orbit(e37a, -7, 1))
    assert recognized is not None
    assert recognized == (Fraction(0), Fraction(0))
    assert not is_torsion(e37a, recognized)


def test_rational_group_law(e37a):
    P = (Fraction(0), Fraction(0))
    assert on_curve(e37a, P)
    twoP = rational_add(e37a, P, P)
    assert twoP == (Fraction(1), Fraction(0))
    fourP = rational_multiple(e37a, P, 4)
    assert fourP == (Fraction(2), Fraction(-3))
    assert rational_add(e37a, P, (Fraction(0), Fraction(-1))) is None  # P + (-P)


def test_is_torsion_rational(e37a, e11a):
    assert is_torsion(e37a, None)
    assert not is_torsion(e37a, (Fraction(0), Fraction(0)))
    # (5, 5) on 11a is the 5-torsion generator
    P = (Fraction(5), Fraction(5))
    assert on_curve(e11a, P)
    assert is_torsion(e11a, P)


def test_is_torsion_cpoint(e37a):
    lat = period_lattice(e37a)
    assert is_torsion(e37a, CPoint(0j, None))
    z2 = CPoint(lat.omega1 / 2, (0.0, 0.0), 1e-12)
    assert is_torsion(e37a, z2, lattice=lat)
    gen = elliptic_log(lat, 0j, 0j)
    assert not is_torsion(e37a, CPoint(gen, (0.0, 0.0), 1e-12), lattice=lat)


def test_canonical_height_generator_37a(e37a):
    h = canonical_height(e37a, (0, 0))
    oracle = height_doubling_oracle(e37a, (Fraction(0), Fraction(0)), k=10)
    assert abs(h - oracle) < 1e-4
    assert abs(h - 0.05111140823996884) < 1e-9


def test_canonical_height_torsion_and_identity(e37a, e11a):
    assert canonical_height(e37a, None) == 0.0
    assert canonical_height(e11a, (Fraction(5), Fraction(5))) == 0.0


def test_canonical_height_quadraticity(e37a):
    P = (Fraction(0), Fraction(0))
    h1 = canonical_height(e37a, P)
    h2 = canonical_height(e37a, rational_multiple(e37a, P, 2))
    h3 = canonical_height(e37a, rational_multiple(e37a, P, 3))
    assert abs(h2 - 4 * h1) < 1e-6
    assert abs(h3 - 9 * h1) < 1e-6


def test_canonical_height_parallelogram(e37a):
    rng = random.Random(23)
    P = (Fraction(0), Fraction(0))
    pts = [rational_multiple(e37a, P, k) for k in (1, 2, 3, 4, 5)]
    for _ in range(5):
        i, j = rng.randrange(5), rng.randrange(5)
        A, B = pts[i], pts[j]
        hs = canonical_height
        s = rational_add(e37a, A, B)
        a1, _, a3, _, _ = e37a.ainvs
        negB = (B[0], -B[1] - a1 * B[0] - a3)
        d = rational_add(e37a, A, negB)
        lhs = hs(e37a, s) + hs(e37a, d)
        rhs = 2 * hs(e37a, A) + 2 * hs(e37a, B)
        assert abs(lhs - rhs) < 1e-5


def test_height_oracle_self_consistency(e37a):
    o9 = height_doubling_oracle(e37a, (Fraction(0), Fraction(0)), k=9)
    o10 = height_doubling_oracle(e37a, (Fraction(0), Fraction(0)), k=10)
    assert abs(o9 - o10) < 5e-5


def test_trace_relation_37a_disc11_ell2(e37a):
    res = trace_relation_check(heegner_orbit(e37a, -11, 1), heegner_orbit(e37a, -11, 2), precision=1e-6)
    assert res < 1e-6


def test_trace_relation_monotone_terms(e37a):
    # residual already tiny at the default budget; a sharper target cannot hurt
    base, up = heegner_orbit(e37a, -11, 1), heegner_orbit(e37a, -11, 2)
    r1 = trace_relation_check(base, up, precision=1e-5)
    r2 = trace_relation_check(base, up, precision=1e-7)
    assert r2 < max(r1 * 10, 1e-7)


def test_torsion_translates_match_fraction_oracle(e37a):
    lattice = period_lattice(e37a)
    for bound in (1, 2, 6, heegner.DEFAULT_TORSION_BOUND):
        got = heegner._torsion_translates(lattice, bound)
        assert got == torsion_translates_fraction(lattice, bound)
    assert len(got) == 1224


def test_trace_relation_rejects_non_inert(e37a):
    with pytest.raises(ValueError):
        trace_relation_check(heegner_orbit(e37a, -7, 1), heegner_orbit(e37a, -7, 2))  # 2 splits in Q(sqrt(-7))


def test_step5_rejects_orbits_that_do_not_match(e37a):
    base, up = heegner_orbit(e37a, -11, 1), heegner_orbit(e37a, -11, 2)
    with pytest.raises(ValueError):
        trace_to_K(up)  # the trace to K starts at level 1
    with pytest.raises(ValueError):
        trace_relation_check(up, base)  # base and level-ell orbits swapped
    with pytest.raises(ValueError):
        trace_relation_check(heegner_orbit(e37a, -7, 1), up)  # two fields
    with pytest.raises(ValueError):
        gz_correspondence(heegner_orbit(e37a, -7, 1), l_over_K(e37a, -11))


def test_gz_correspondence_37a(e37a):
    rep = gz_correspondence(heegner_orbit(e37a, -7, 1), l_over_K(e37a, -7))
    assert rep.recognized == (Fraction(0), Fraction(0))
    assert not rep.height_is_proxy
    assert rep.pk_nontorsion
    assert rep.l_nonzero
    assert rep.biconditional_holds
    assert rep.height_side > 0.01
    assert rep.ratio is not None and rep.ratio != 0


def test_gz_correspondence_11a(e11a):
    rep = gz_correspondence(heegner_orbit(e11a, -7, 1), l_over_K(e11a, -7))
    assert rep.l_nonzero
    assert rep.biconditional_holds


def test_recognize_rational():
    assert recognize_rational(0.5) == Fraction(1, 2)
    assert recognize_rational(float(Fraction(22, 7))) == Fraction(22, 7)
    assert recognize_rational(math.pi, max_den=10**6, tol=1e-12) is None
