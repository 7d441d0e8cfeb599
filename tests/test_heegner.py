import cmath
import math
import os
import random
from fractions import Fraction

import pytest

from heegner_witness.heegner import (
    CPoint,
    PrecisionUnreachable,
    canonical_height,
    elliptic_exp,
    fricke_diagnostic,
    gz_correspondence,
    heegner_orbit,
    is_torsion,
    modular_param,
    on_curve,
    orbit_z,
    period_lattice,
    rational_add,
    rational_multiple,
    rational_torsion_point,
    recognize_rational,
    trace_relation_check,
    trace_to_K,
)
from heegner_witness import heegner, lseries
from heegner_witness.arith import factorize
from heegner_witness.ec_core import CurveQ, ap, b_invariants, discriminant
from heegner_witness.lseries import l_eval, l_over_K
from heegner_witness.pipeline import parse_curve_file
from heegner_witness.quadforms import kronecker
from heegner_witness.searcher import find_K
from oracles import (
    canonical_height_every_prime,
    elliptic_log,
    fricke_direct,
    heegner_forms_unbounded,
    height_doubling_oracle,
    modular_param_per_term,
    torsion_translates_fraction,
    trace_relation_scalar,
)

STEP5_PRECISION = 1e-9  # the step-5 precision of a witness run at the default Config


def _trace_relation(base, up, precision=STEP5_PRECISION):
    return trace_relation_check(base, up, orbit_z(base, precision), orbit_z(up, precision),
                                period_lattice(base.curve))


def _gz(curve, d_K, precision=STEP5_PRECISION):
    orbit = heegner_orbit(curve, d_K, 1)
    return gz_correspondence(orbit, orbit_z(orbit, precision), l_over_K(curve, d_K),
                             period_lattice(curve), precision)


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


def test_period_lattice_check_keeps_its_tolerance(monkeypatch):
    # the Eisenstein sums stop where their tails are below a thousandth of the
    # 1e-6 tolerance: invariants off by half the tolerance still pass, and
    # off by twice it fail, on every curve of the pinned table
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    curves = parse_curve_file(os.path.join(root, "perfbench", "data", "pinned.txt"))
    real = heegner.c_invariants
    for curve in curves:
        c4, c6 = real(curve)
        ref = max(abs(c4), abs(c6), 1.0)
        for s4, s6 in ((0.5, 0), (0, -0.5), (2, 0), (0, -2)):
            shifted = (c4 + s4 * 1e-6 * ref, c6 + s6 * 1e-6 * ref)
            monkeypatch.setattr(heegner, "c_invariants", lambda c, shifted=shifted: shifted)
            if abs(s4 + s6) < 1:
                period_lattice(curve)
            else:
                with pytest.raises(ArithmeticError, match="fails invariant check"):
                    period_lattice(curve)


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


def test_heegner_orbit_matches_unbounded_scan(e37a, e11a, g427):
    # the scan keeps exactly the forms of the plain scan run to the end, also
    # where it must reach Im tau < 5e-3 (g427 at ell = 2, 3, 13)
    cases = [(e37a, d, level) for d in (-7, -11) for level in (1, 2, 3, 5)]
    cases += [(e11a, -7, 1)] + [(g427, -19, ell) for ell in (2, 3, 13)]
    compared = low = 0
    for curve, d, level in cases:
        if level > 1 and kronecker(d, level) != -1:
            continue  # not a Heegner level; the input checks reject it
        orbit = heegner_orbit(curve, d, level)
        got = [(t.A, t.B, t.C) for t in orbit.taus]
        assert got == heegner_forms_unbounded(curve, d, level), (curve.label, d, level)
        compared += 1
        low += min(t.tau.imag for t in orbit.taus) < 5e-3
    assert compared == 9 and low == 3


def test_heegner_orbit_names_the_limit():
    # the orbit scan has no limit of its own; the series' TERM_CEILING is the
    # limit that remains, and the error names it
    g91707 = CurveQ(0, -1, 1, -22, -36, 91707, "g91707.1")
    orbit = heegner_orbit(g91707, -83, 2)
    lowest = min(orbit.taus, key=lambda t: t.tau.imag)
    with pytest.raises(PrecisionUnreachable, match="^1434738 terms needed, TERM_CEILING is 1000000"):
        modular_param(g91707, lowest)


def test_fricke_read_from_the_orbit_matches_direct_evaluation():
    # every level-1 class of the pinned curves that reach step 5, each in turn
    # the orbit's first form, against z summed at W_N tau = -1/(N tau) itself
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    curves = parse_curve_file(os.path.join(root, "perfbench", "data", "pinned.txt"))
    classes = 0
    for curve in curves:
        if curve.label in ("389a", "14a"):  # stop at the gate and at the prime scan
            continue
        le = l_eval(curve)
        orbit = heegner_orbit(curve, find_K(curve).d_K)
        zs = orbit_z(orbit, STEP5_PRECISION)
        lattice = period_lattice(curve)
        for k, t in enumerate(orbit.taus):
            first = orbit._replace(taus=orbit.taus[k:] + orbit.taus[:k])
            got = fricke_diagnostic(first, zs[k:] + zs[:k], lattice, le)
            want = fricke_direct(curve, t.tau, le.epsilon, le.value_at_1, lattice)
            assert got["w_N"] == -le.epsilon
            assert abs(got["residual"] - want) <= 1e-10, (curve.label, t)
            assert max(got["residual"], want) <= got["bound"], (curve.label, t)
            classes += 1
    assert classes == 25


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
    zs = [cp.z for cp in orbit_z(orb, precision=1e-11)]
    assert zs == [modular_param(e37a, t, precision=1e-11).z for t in orb.taus]
    z = sum(zs)
    for perm in ([2, 0, 1], [1, 2, 0], [2, 1, 0]):
        alt = sum(zs[i] for i in perm)
        assert abs(alt - z) < 1e-10


def test_trace_to_K_37a_recognizes_generator(e37a):
    orbit = heegner_orbit(e37a, -7, 1)
    pk, recognized = trace_to_K(orbit, orbit_z(orbit, STEP5_PRECISION), period_lattice(e37a),
                                STEP5_PRECISION)
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


E11A = (0, -1, 1, -10, -20, 11)


@pytest.mark.parametrize("ainvs, q", [
    ((1, 0, 1, 4, -6, 14), 3),  # 14a: Z/6
    (E11A, 5),  # 11a: Z/5
    ((0, 1, 1, -9, -15, 19), 3),  # 19a: Z/3
    ((0, -1, 1, 0, 0, 11), 5),  # 11a3: Z/5
    ((1, -1, 1, -3, 3, 26), 7),  # 26b1: Z/7
    ((0, 1, 1, -23, -50, 37), 3),  # 37b1: Z/3, discriminant 37^3 > 0
])
def test_rational_torsion_point_finds_exact_order_q(ainvs, q):
    curve = CurveQ(*ainvs)
    P = rational_torsion_point(curve, q)
    assert P is not None and all(isinstance(c, Fraction) for c in P)
    assert on_curve(curve, P) and rational_multiple(curve, P, q) is None


@pytest.mark.parametrize("ainvs, q", [
    ((0, 0, 1, -1, 0, 37), 3),  # 37a: trivial torsion
    ((0, 0, 1, -1, 0, 37), 5),
    ((0, 0, 1, -1, 0, 37), 7),
    (E11A, 3),  # Z/5 has no 3-torsion
    (E11A, 11),  # above Mazur's bound
    ((0, -1, 1, -7820, -263580, 11), 5),  # 11a2: 5-isogenous to 11a, trivial torsion
])
def test_rational_torsion_point_none_without_q_torsion(ainvs, q):
    assert rational_torsion_point(CurveQ(*ainvs), q) is None


def test_is_torsion_cpoint(e37a):
    lat = period_lattice(e37a)
    m_K = heegner.torsion_bound(e37a, -7)  # E(K), K = Q(sqrt(-7)), has no torsion but O
    assert m_K == 1
    assert is_torsion(e37a, CPoint(0j, None))
    z2 = CPoint(lat.omega1 / 2, (0.0, 0.0), 1e-12)
    with pytest.raises(ValueError, match="needs d_K"):  # no field given
        is_torsion(e37a, z2, lattice=lat)
    assert not is_torsion(e37a, z2, lattice=lat, d_K=-7)  # order 2 does not divide m_K
    gen = elliptic_log(lat, 0j, 0j)
    assert not is_torsion(e37a, CPoint(gen, (0.0, 0.0), 1e-12), lattice=lat, d_K=-7)
    # tol = 50 prec must stay below lambda_min/(2 m_K), where balls about the
    # points of order dividing m_K stop overlapping
    limit = lat.lambda_min / (2 * m_K)
    assert not is_torsion(e37a, CPoint(gen, (0.0, 0.0), 0.99 * limit / 50), lattice=lat, d_K=-7)
    with pytest.raises(PrecisionUnreachable, match="^torsion tolerance .* is not below"):
        is_torsion(e37a, CPoint(gen, (0.0, 0.0), limit / 49), lattice=lat, d_K=-7)


@pytest.mark.parametrize("ainvs, divides_m", [
    ((0, 0, 1, -1, 0, 37), 1),  # 37a: m = 1
    (E11A, 5),  # 11a: Z/5
    ((1, 0, 1, 4, -6, 14), 6),  # 14a: Z/6
    ((1, 1, 1, -10, -10, 15), 8),  # 15a: Z/4 x Z/2
    ((1, -1, 1, -1, -14, 17), 4),  # 17a: Z/4
    ((0, 1, 1, -9, -15, 19), 3),  # 19a: Z/3
    ((1, 0, 0, -1, 0, 65), 2),  # 65a: Z/2
])
def test_torsion_bound_is_a_multiple_of_the_rational_torsion(ainvs, divides_m):
    curve = CurveQ(*ainvs)
    m = heegner.torsion_bound(curve)
    assert m == 1 if divides_m == 1 else m % divides_m == 0
    # over a field of the Heegner hypothesis, m_K is a multiple of m
    d_K = find_K(curve).d_K
    assert heegner.torsion_bound(curve, d_K) % m == 0


def test_torsion_points_stay_torsion_under_the_bound(e11a):
    assert heegner.torsion_bound(e11a) == heegner.torsion_bound(e11a, -7) == 5
    P = (Fraction(5), Fraction(5))  # of order 5
    assert is_torsion(e11a, P) and canonical_height(e11a, P) == 0.0
    e65a = CurveQ(1, 0, 0, -1, 0, 65, "65a")  # m = 2: (0, 0) has order 2, (1, -1) infinite order
    assert heegner.torsion_bound(e65a) == 2
    assert is_torsion(e65a, (Fraction(0), Fraction(0)))
    assert not is_torsion(e65a, (Fraction(1), Fraction(-1)))
    lat = period_lattice(e11a)
    for k in range(1, 5):
        assert is_torsion(e11a, CPoint(k * lat.omega1 / 5, (0.0, 0.0), 1e-12), lattice=lat, d_K=-7)
    assert not is_torsion(e11a, CPoint(lat.omega1 / 3, (0.0, 0.0), 1e-12), lattice=lat, d_K=-7)


def test_canonical_height_generator_37a(e37a):
    h = canonical_height(e37a, (0, 0))
    oracle = height_doubling_oracle(e37a, (Fraction(0), Fraction(0)), k=10)
    assert abs(h - oracle) < 1e-4
    assert abs(h - 0.05111140823996884) < 1e-9


# the points the pinned and pins.json witness runs recognize, and 57a's
# (-1, 1), which reduces to the singular point mod 3: (label, a-invariants,
# N, x, y, the primes whose gcd canonical_height tracks)
HEIGHT_POINTS = [
    ("37a", (0, 0, 1, -1, 0), 37, 0, 0, set()),
    ("43a", (0, 1, 1, 0, 0), 43, 0, 0, set()),
    ("53a", (1, -1, 1, 0, 0), 53, 0, -1, set()),
    ("57a", (0, -1, 1, -2, 2), 57, 1, -1, set()),
    ("61a", (1, 0, 0, -2, 1), 61, 1, 0, set()),
    ("65a", (1, 0, 0, -1, 0), 65, 1, -1, set()),
    ("79a", (1, 1, 1, -2, 0), 79, 0, 0, set()),
    ("83a", (1, 1, 1, 1, 0), 83, 0, 0, set()),
    ("89a", (1, 1, 1, -1, 0), 89, 0, -1, set()),
    ("91a", (0, 0, 1, 1, 0), 91, 0, -1, set()),
    ("131a", (0, -1, 1, 1, 0), 131, 0, 0, set()),
    ("g12283.1", (0, -1, 1, -3, -5), 12283, Fraction(25, 9), Fraction(8, 27), set()),
    ("g4429.1", (0, 1, 1, -4, -3), 4429, Fraction(-3, 4), Fraction(-9, 8), set()),
    ("g18469.1", (0, 0, 1, -16, -24), 18469, 20, -88, set()),
    ("g427.2", (1, 0, 1, -8, 7), 427, 1, 0, set()),
    ("57a (-1, 1)", (0, -1, 1, -2, 2), 57, -1, 1, {3}),
]


@pytest.mark.parametrize("label, ainvs, N, x, y, tracked", HEIGHT_POINTS,
                         ids=[row[0] for row in HEIGHT_POINTS])
def test_canonical_height_equals_the_every_prime_oracle(label, ainvs, N, x, y, tracked):
    # the gcd is tracked only where P reduces to the singular point; the
    # heights of P, ..., 6P equal, bit for bit, those with every prime of
    # Delta tracked
    curve = CurveQ(*ainvs, N, label)
    P = (Fraction(x), Fraction(y))
    assert on_curve(curve, P)
    assert tracked == {p for p, _ in factorize(discriminant(curve))
                       if heegner._reduces_to_singular_point(curve, *P, p)}
    for k in range(1, 7):
        Q = rational_multiple(curve, P, k)
        assert canonical_height(curve, Q) == canonical_height_every_prime(curve, Q), (label, k)


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
    res = _trace_relation(heegner_orbit(e37a, -11, 1), heegner_orbit(e37a, -11, 2))
    assert res < 1e-6


def test_trace_relation_monotone_terms(e37a):
    # residual already tiny at the default budget; a sharper target cannot hurt
    base, up = heegner_orbit(e37a, -11, 1), heegner_orbit(e37a, -11, 2)
    r1 = _trace_relation(base, up, precision=1e-8)
    r2 = _trace_relation(base, up, precision=1e-10)
    assert r2 < max(r1 * 10, 1e-7)


def test_torsion_translates_match_fraction_oracle(e37a):
    lattice = period_lattice(e37a)
    for bound in (1, 2, 6, heegner.DEFAULT_TORSION_BOUND):
        s, t = heegner._torsion_fractions(bound)
        got = [a * lattice.omega1 + b * lattice.omega2 for a, b in zip(s.tolist(), t.tolist())]
        assert got == torsion_translates_fraction(lattice, bound)
    assert len(got) == 1224


def test_torsion_fractions_are_built_once_and_read_only():
    s, t = heegner._torsion_fractions()
    again = heegner._torsion_fractions()
    assert again[0] is s and again[1] is t
    for a in (s, t):
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[0] = 0.5


@pytest.mark.parametrize(
    "curve, d_K, ell",
    [
        (CurveQ(0, 0, 1, -1, 0, 37, "37a"), -11, 2),
        # two pinned curves at the auxiliary ell their witness runs pick
        (CurveQ(1, -1, 1, -1, -14, 17, "17a"), -15, 7),
        (CurveQ(0, -1, 1, -2, 2, 57, "57a"), -59, 2),
    ],
    ids=lambda v: v.label if isinstance(v, CurveQ) else str(v),
)
def test_trace_relation_equals_scalar_oracle(curve, d_K, ell, monkeypatch):
    # the array pass makes the scalar loop's float operations, so the minima are equal
    base, up = heegner_orbit(curve, d_K, 1), heegner_orbit(curve, d_K, ell)
    want = trace_relation_scalar(base, up, STEP5_PRECISION)
    assert want < 1e-6
    assert _trace_relation(base, up) == want
    # both signs are tried: with a_ell negated the other sign gives the same minimum
    real = heegner.cached_an

    def flipped(c, n):
        table = real(c, n)
        return {ell: -table[ell]} if n == ell else table

    monkeypatch.setattr(heegner, "cached_an", flipped)
    assert _trace_relation(base, up) == want


def test_trace_relation_rejects_non_inert(e37a):
    with pytest.raises(ValueError):
        _trace_relation(heegner_orbit(e37a, -7, 1), heegner_orbit(e37a, -7, 2))  # 2 splits in Q(sqrt(-7))


def test_step5_rejects_orbits_that_do_not_match(e37a):
    base, up = heegner_orbit(e37a, -11, 1), heegner_orbit(e37a, -11, 2)
    other = heegner_orbit(e37a, -7, 1)
    lattice, p = period_lattice(e37a), STEP5_PRECISION
    z_base, z_up, z_other = orbit_z(base, p), orbit_z(up, p), orbit_z(other, p)
    with pytest.raises(ValueError):
        trace_to_K(up, z_up, lattice, p)  # the trace to K starts at level 1
    with pytest.raises(ValueError):
        trace_relation_check(up, base, z_up, z_base, lattice)  # base and level-ell orbits swapped
    with pytest.raises(ValueError):
        trace_relation_check(other, up, z_other, z_up, lattice)  # two fields
    with pytest.raises(ValueError):
        gz_correspondence(other, z_other, l_over_K(e37a, -11), lattice, p)


def test_gz_correspondence_37a(e37a):
    rep = _gz(e37a, -7)
    assert rep.recognized == (Fraction(0), Fraction(0))
    assert not rep.height_is_proxy
    assert rep.pk_nontorsion
    assert rep.l_nonzero
    assert rep.biconditional_holds
    assert rep.height_side > 0.01
    assert rep.ratio is not None and rep.ratio != 0


def test_gz_correspondence_11a(e11a):
    rep = _gz(e11a, -7)
    assert rep.l_nonzero
    assert rep.biconditional_holds


def test_recognize_rational():
    assert recognize_rational(0.5) == Fraction(1, 2)
    assert recognize_rational(float(Fraction(22, 7))) == Fraction(22, 7)
    assert recognize_rational(math.pi, max_den=10**6, tol=1e-12) is None
