import cmath
import json
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
    duplication_resultant,
    elliptic_log,
    fricke_direct,
    heegner_forms_unbounded,
    height_doubling_oracle,
    modular_param_per_term,
    torsion_translates_fraction,
    trace_relation_scalar,
    two_division_roots_np,
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


def _g_sign(curve, x) -> int:
    """The sign of 4x^3 + b2 x^2 + 2 b4 x + b6 at x, in Fractions."""
    b2, b4, b6, _ = b_invariants(curve)
    x = Fraction(x)
    v = 4 * x**3 + b2 * x**2 + 2 * b4 * x + b6
    return (v > 0) - (v < 0)


def _real_roots(curve):
    """(root, g rises through it) for each real 2-division root."""
    e = [r.real for r in heegner._two_division_roots(curve)]
    return list(zip(e, (True, False, True))) if discriminant(curve) > 0 else [(e[0], True)]


def test_two_division_roots_agree_with_the_np_roots_oracle(corpus_curves):
    # the oracle's float polish is good to a root's condition, u sum |g_i x^i| / |g'(x)|,
    # plus an ulp: the two differ by up to 24 ulps where roots crowd (g67.1's complex
    # pair), and by at most 0.55 of that allowance on these 347 models
    for curve in corpus_curves:
        b2, b4, b6, _ = b_invariants(curve)
        got, want = heegner._two_division_roots(curve), two_division_roots_np(curve)
        for x, y in zip(got, want):
            size = 4 * abs(x) ** 3 + abs(b2) * abs(x) ** 2 + 2 * abs(b4) * abs(x) + abs(b6)
            slope = abs(12 * x**2 + 2 * b2 * x + 2 * b4)
            assert abs(x - y) <= size * 2.0**-52 / slope + math.ulp(abs(x)), curve.label
        if discriminant(curve) > 0:
            assert all(r.imag == 0 for r in got) and got[0].real > got[1].real > got[2].real
        else:  # the real root, then the root with Im > 0, then its conjugate
            assert got[0].imag == 0 and got[1].imag > 0 and got[2] == got[1].conjugate()


def test_each_real_two_division_root_is_correctly_rounded(corpus_curves):
    # g changes sign between the double and one neighbour, and its sign at their
    # midpoint puts the root on the double's side
    for curve in corpus_curves:
        for x, _ in _real_roots(curve):
            s = _g_sign(curve, x)
            if s == 0:
                continue
            other = [n for n in (math.nextafter(x, -math.inf), math.nextafter(x, math.inf))
                     if _g_sign(curve, n) == -s]
            assert len(other) == 1, curve.label
            assert _g_sign(curve, (Fraction(x) + Fraction(other[0])) / 2) != s, curve.label


def test_a_real_two_division_root_does_not_depend_on_its_start(corpus_curves):
    for curve in corpus_curves:
        b2, b4, b6, _ = b_invariants(curve)
        for x, rising in _real_roots(curve):
            for k in range(-8, 9):
                start = x + k * math.ulp(x)
                assert heegner._rounded_root((4, b2, 2 * b4, b6), start, rising) == x, curve.label


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


def _pinned_curves():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    return parse_curve_file(os.path.join(root, "perfbench", "data", "pinned.txt"))


def test_lambda_min_is_the_shortest_nonzero_period():
    # min(|w1|, |w2|, |w1 + w2|, |w1 - w2|) is the shortest period only for a
    # reduced basis: it read 43a, 57a, 61a and 89a 1.12 to 1.62 times too long
    for curve in _pinned_curves():
        lat = period_lattice(curve)
        brute = min(abs(m * lat.omega1 + n * lat.omega2)
                    for m in range(-6, 7) for n in range(-6, 7) if (m, n) != (0, 0))
        assert abs(lat.lambda_min - brute) <= 1e-12 * brute, curve.label


def _scaled_residual(curve, x, y) -> float:
    """|y^2 + a1 xy + a3 y - x^3 - a2 x^2 - a4 x - a6| / H^6, H the largest of
    |x|^(1/2), |y|^(1/3) and |a_i|^(1/i): a measure no change of scale moves."""
    a1, a2, a3, a4, a6 = curve.ainvs
    H = max(abs(x) ** (1 / 2), abs(y) ** (1 / 3), abs(a1), abs(a2) ** (1 / 2),
            abs(a3) ** (1 / 3), abs(a4) ** (1 / 4), abs(a6) ** (1 / 6))
    return abs(y * y + a1 * x * y + a3 * y - x**3 - a2 * x * x - a4 * x - a6) / H**6


def test_elliptic_exp_meets_the_curve_equation_across_the_parallelogram():
    # a 16 x 16 grid over the period parallelogram, and z = 10^-k lambda_min
    # e^(i theta) down to k = 8; halving into a Laurent series and doubling
    # back reached 3.3e-7 on 61a, whose lambda_min was 1.62 times too long
    for curve in _pinned_curves():
        lat = period_lattice(curve)
        zs = [i / 16 * lat.omega1 + j / 16 * lat.omega2
              for i in range(16) for j in range(16) if (i, j) != (0, 0)]
        zs += [10.0**-k * lat.lambda_min * cmath.exp(1j * theta)
               for k in range(1, 9) for theta in (0.0, 0.7, 1.6, 2.9)]
        for z in zs:
            P = elliptic_exp(lat, z)
            assert not P.is_identity
            assert _scaled_residual(curve, *P.xy) < 1e-12, (curve.label, z)


@pytest.mark.parametrize("ainvs, N, d_K, x, y", [
    ((0, 0, 1, -10, 12), 827, -7, 0, 3),
    ((0, -1, 1, -15, 28), 1315, -19, 2, 1),
    ((0, 1, 1, -14, 16), 1883, -87, Fraction(7, 9), Fraction(-82, 27)),
])
def test_trace_to_K_reads_p_k_exactly_where_q_is_large(ainvs, N, d_K, x, y):
    # |q| = 0.43-0.46 on these lattices, and x(P_K) came out 1.3e-5 to
    # 7.7e-4 off when wp was a Laurent series trusted out to a lambda_min
    # too long; then recognition failed and the run fell back to the proxy
    curve = CurveQ(*ainvs, N)
    gz = _gz(curve, d_K)
    assert gz.recognized == (x, y) and not gz.height_is_proxy
    lat = period_lattice(curve)
    covolume = lat.omega1 * lat.omega2.imag
    assert abs(gz.ratio * covolume / math.sqrt(-d_K) - 0.25) < 1e-10


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
    assert rational_multiple(e37a, P, 0) is None
    with pytest.raises(ValueError, match="must be >= 0"):
        rational_multiple(e37a, P, -1)


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


# the points the pinned, pins.json and three band-1 witness runs recognize,
# and 57a's (-1, 1), which reduces to the singular point mod 3: (label,
# a-invariants, N, x, y, the primes of Delta where P reduces to the singular
# point)
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
    ("g827.1", (0, 0, 1, -10, 12), 827, 0, 3, set()),
    ("g1315.1", (0, -1, 1, -15, 28), 1315, 2, 1, set()),
    ("g1883.1", (0, 1, 1, -14, 16), 1883, Fraction(7, 9), Fraction(-82, 27), set()),
    ("57a (-1, 1)", (0, -1, 1, -2, 2), 57, -1, 1, {3}),
]


def _singular_primes(curve, Q):
    return {p for p, _ in factorize(discriminant(curve))
            if heegner._reduces_to_singular_point(curve, *Q, p)}


@pytest.mark.parametrize("label, ainvs, N, x, y, singular", HEIGHT_POINTS,
                         ids=[row[0] for row in HEIGHT_POINTS])
def test_canonical_height_equals_the_every_prime_oracle(label, ainvs, N, x, y, singular):
    # the oracle tracks gcd(F, G) at every prime of Delta on P itself. A
    # multiple in E_0 at every bad prime has gcd 1, so both sum the same
    # floats and agree bit for bit. 57a's P, 3P and 5P lie outside E_0(Q_3):
    # the package sums 2P, 6P and 10P and divides, which agrees within tol
    curve = CurveQ(*ainvs, N, label)
    P = (Fraction(x), Fraction(y))
    assert on_curve(curve, P)
    assert singular == _singular_primes(curve, P)
    outside = []
    for k in range(1, 7):
        Q = rational_multiple(curve, P, k)
        h, oracle = canonical_height(curve, Q), canonical_height_every_prime(curve, Q)
        if _singular_primes(curve, Q):
            outside.append(k)
            assert abs(h - oracle) < 1e-11, (label, k)
        else:
            assert h == oracle, (label, k)
    assert outside == ([1, 3, 5] if singular else [])


# points P outside E_0 at some bad prime, on three models with N = rad Delta
# and no p | N dividing c4, so minimal, and on 57a: (label, a-invariants, N,
# x, y, the least k with kP in E_0 at every bad prime, the height of P from
# a 60-digit evaluation)
OUTSIDE_E0_POINTS = [
    ("123", (0, 1, 1, -10, 10), 123, -4, -2, 5, 0.840521417531475387),
    ("141", (0, 1, 1, -12, 2), 141, 0, -2, 7, 0.310380975157971835),
    ("142", (1, -1, 1, -12, 15), 142, -1, -5, 9, 0.844728565951665776),
    ("57a", (0, -1, 1, -2, 2), 57, -1, 1, 2, 0.338171334631413775),
]


@pytest.mark.parametrize("label, ainvs, N, x, y, k, reference", OUTSIDE_E0_POINTS,
                         ids=[row[0] for row in OUTSIDE_E0_POINTS])
def test_canonical_height_of_a_point_outside_E0_is_that_of_its_multiple(label, ainvs, N, x, y,
                                                                        k, reference):
    curve = CurveQ(*ainvs, N, label)
    P = (Fraction(x), Fraction(y))
    assert on_curve(curve, P) and not is_torsion(curve, P)
    multiples = [rational_multiple(curve, P, j) for j in range(1, k + 1)]
    assert [j for j, Q in enumerate(multiples, 1) if not _singular_primes(curve, Q)] == [k]
    h = canonical_height(curve, P)
    assert abs(h - reference) < 5e-14
    assert h == canonical_height(curve, multiples[-1]) / k**2


def test_duplication_resultant_is_the_discriminant_squared():
    # Res_x(F, G) = Delta^2 is what makes gcd(F, G) 1 at every p not dividing
    # Delta; on the pinned table, the pins.json pools and the models above
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    data = os.path.join(root, "perfbench", "data")
    with open(os.path.join(data, "pins.json")) as fh:
        pins = json.load(fh)
    curves = parse_curve_file(os.path.join(data, "pinned.txt"))
    curves += [CurveQ(*c["ainvs"], c["N"], c["label"])
               for c in pins["field-search"] + pins["aux-search"]]
    curves += [CurveQ(*row[1], row[2], row[0]) for row in OUTSIDE_E0_POINTS[:3]]
    assert len(curves) == 28
    for curve in curves:
        assert duplication_resultant(curve) == discriminant(curve) ** 2, curve.label


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
    assert res["residual"] <= res["bound"] < 1e-8 and "order" not in res


def test_trace_relation_monotone_terms(e37a):
    # residual already tiny at the default budget; a sharper target cannot hurt
    base, up = heegner_orbit(e37a, -11, 1), heegner_orbit(e37a, -11, 2)
    r1 = _trace_relation(base, up, precision=1e-8)["residual"]
    r2 = _trace_relation(base, up, precision=1e-10)["residual"]
    assert r2 < max(r1 * 10, 1e-7)


def test_torsion_translates_match_fraction_oracle(e37a):
    # the m_K^2 points of (1/m_K) Lambda mod Lambda, at the m_K of the pinned
    # runs: 1 (most), 2 (65a), 5 (11a) and 8 (15a)
    lattice = period_lattice(e37a)
    for m in (1, 2, 5, 8):
        got = lattice.torsion(m)
        assert got.shape == (m * m,)
        assert got.tolist() == torsion_translates_fraction(lattice, m)
    assert lattice.torsion(1).tolist() == [0j]


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
    got = _trace_relation(base, up)
    assert got["residual"] == want <= got["bound"]
    # both signs are tried: with a_ell negated the other sign gives the same minimum
    real = heegner.cached_an

    def flipped(c, n):
        table = real(c, n)
        return {ell: -table[ell]} if n == ell else table

    monkeypatch.setattr(heegner, "cached_an", flipped)
    assert _trace_relation(base, up)["residual"] == want


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
