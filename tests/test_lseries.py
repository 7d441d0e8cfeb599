import math
import os

import numpy as np
import pytest

from heegner_witness import ec_core, lseries
from heegner_witness.lseries import (
    DEFAULT_NONVANISHING_THRESHOLD,
    DEFAULT_PRECISION,
    cached_an,
    LSeriesInconclusiveError,
    gate_from_leval,
    exp1,
    l_eval,
    l_over_K,
    twist_sign,
)
from heegner_witness.arith import primes_upto
from heegner_witness.ec_core import CurveQ, an_series, good_reduction
from heegner_witness.pipeline import parse_curve_file
from heegner_witness.searcher import find_K
from heegner_witness.quadforms import kronecker
from oracles import (
    exp1_scalar,
    l_derivative_straight,
    l_eval_per_term,
    l_value_straight,
    root_number_per_term,
    split_defect_per_term,
    twist,
)


def test_exp1_against_scipy():
    from scipy.special import exp1 as scipy_exp1

    near_one = [0.999, np.nextafter(1.0, 0.0), 1.0, np.nextafter(1.0, 2.0), 1.001]
    x = np.concatenate((np.geomspace(1e-6, 700.0, 500), near_one, [0.01, 0.5, 13.7, 40.0]))
    got = exp1(x)
    assert got.shape == x.shape and got.dtype == np.float64
    assert np.all(np.abs(got - scipy_exp1(x)) <= 1e-12 * scipy_exp1(x))
    # lanes are independent: any order and shape gives the same values
    assert exp1(x[::-1]).tolist() == got[::-1].tolist()
    assert exp1(x[:500].reshape(20, 25)).ravel().tolist() == got[:500].tolist()
    assert exp1(1.0) == got[502]
    # e^{-x} is subnormal past x = 708.4 and 0 past 745.2: E1 goes to 0 without a warning
    x = np.array([700.0, 708.0, 710.0, 730.0, 745.0, 746.0, 800.0])
    assert np.all(np.abs(exp1(x) - scipy_exp1(x)) <= 1e-12 * np.maximum(scipy_exp1(x), 1e-300))
    with pytest.raises(ValueError):
        exp1(np.array([1.0, 0.0]))


def test_exp1_matches_the_scalar_oracle():
    x = np.concatenate((np.geomspace(1e-6, 700.0, 2000), np.linspace(0.9, 1.1, 401)))
    want = np.array([exp1_scalar(t) for t in x.tolist()])
    assert np.all(np.abs(exp1(x) - want) <= 1e-15 * want)


def test_exp1_refuses_every_x_not_above_zero():
    # NaN is neither <= 1 nor > 1: no kernel would write its lane
    for bad in (np.nan, 0.0, -0.0, -1.0, -np.inf):
        with pytest.raises(ValueError, match="^E1 needs x > 0$"):
            exp1(np.array([bad, 2.0]))
    with pytest.raises(ValueError, match="^E1 needs x > 0$"):
        exp1(np.full((2, 2), np.nan))


def test_exp1_scalar_tail_moves_no_bit(monkeypatch):
    # each kernel finishes its last _SCALAR_LANES live lanes in Python floats
    # by the numpy loop's own steps: all lanes in numpy (0), the default and
    # all lanes in Python floats (10^9) give the same bytes
    K = lseries._SCALAR_LANES
    rng = np.random.default_rng(24)
    grids = [np.array([])]
    for n in (1, K - 1, K, K + 1, 1024, 2048):
        grids += [rng.uniform(1e-6, 1.0, n), rng.uniform(1.0, 40.0, n), rng.uniform(1e-6, 40.0, n)]
    near_one = [1.0]
    for toward in (0.0, 2.0):
        x = 1.0
        for _ in range(4):
            x = np.nextafter(x, toward)
            near_one.append(x)
    grids += [np.array(near_one), np.linspace(700.0, 800.0, 201)]  # e^-x subnormal or 0
    for curve, d_K in _pinned_twists():  # the pinned gate and twist grids x = c n
        for d in (1, d_K):
            c = 2.0 * math.pi / math.sqrt(curve.N * d * d)
            T = lseries._tail_terms(c, DEFAULT_PRECISION / 4.0)
            grids.append(c * np.arange(1, T + 1, dtype=np.float64))
    inputs = grids + [g[::-1] for g in grids] + [g.reshape(2, -1) for g in grids if g.size % 2 == 0]
    want = [exp1(x) for x in inputs]
    for k in (0, 10**9):
        monkeypatch.setattr(lseries, "_SCALAR_LANES", k)
        for x, w in zip(inputs, want):
            got = exp1(x)
            assert got.shape == w.shape and got.tobytes() == w.tobytes(), (k, x.shape)


# the twists the kernel tests run: d = 1 and d in (-3, -7, -103) coprime to N
def _twists(curve):
    return [d for d in (1, -3, -7, -103) if math.gcd(d, curve.N) == 1]


def _close(got, want, tol=1e-13):
    """Relative above the gate threshold; absolute below it, where an L-value
    is zero to the series precision and both sums are rounding noise."""
    return abs(got - want) <= tol * (abs(want) if abs(want) > DEFAULT_NONVANISHING_THRESHOLD else 1.0)


def test_l_eval_and_root_number_match_per_term_oracles(e11a, e37a, e389a, e14a):
    # the sign the split identity keeps is the reference Fricke search's for
    # E, and Atkin-Li's for a twist
    for curve in (e11a, e37a, e389a, e14a):
        for d in _twists(curve):
            le = l_eval(curve, d=d)
            o_eps, o_resid, o_scale, o_val, o_T, o_tail = l_eval_per_term(
                curve, DEFAULT_PRECISION, d)
            assert (le.epsilon, le.terms_used, le.tail_bound) == (o_eps, o_T, o_tail)
            assert abs(le.split_defect - o_resid) <= 1e-13 * o_scale, (curve.label, d)
            val = le.value_at_1 if le.epsilon == 1 else le.derivative_at_1
            assert _close(val, o_val), (curve.label, d, val, o_val)


def test_series_sums_do_not_depend_on_the_block_length(e11a, e37a, e14a, monkeypatch):
    cases = [(curve, d) for curve in (e11a, e37a, e14a) for d in _twists(curve)]
    want = [l_eval(curve, d=d) for curve, d in cases]
    for block in (7, 10**6):
        monkeypatch.setattr(lseries, "_SUM_BLOCK", block)
        assert [l_eval(curve, d=d) for curve, d in cases] == want, block


def test_root_numbers(e11a, e37a, e389a):
    for curve, eps in ((e11a, 1), (e37a, -1), (e389a, 1)):
        le = l_eval(curve)
        assert le.epsilon == eps == root_number_per_term(curve)[0]
        assert le.split_defect < DEFAULT_PRECISION
        # the other sign misses its bound, so it is not a near tie
        with pytest.raises(LSeriesInconclusiveError, match=f"sign {-eps} of E fails"):
            l_eval(curve, sign=-eps)


def test_l_value_11a(e11a):
    le = l_eval(e11a)
    oracle = l_value_straight(e11a, 2000)
    assert le.epsilon == 1
    assert abs(le.value_at_1 - oracle) < 1e-6
    assert abs(le.value_at_1 - 0.2538418608559107) < 1e-6  # classical value
    assert le.tail_bound < 1e-8


def test_l_derivative_37a(e37a):
    le = l_eval(e37a)
    oracle = l_derivative_straight(e37a, 2000)
    assert le.epsilon == -1
    assert le.value_at_1 == 0.0
    assert abs(le.derivative_at_1 - oracle) < 1e-6
    assert abs(le.derivative_at_1 - 0.3059997738340523) < 1e-6  # classical value


def test_tail_refinement_stability(e11a):
    le1 = l_eval(e11a, precision=1e-8)
    le2 = l_eval(e11a, precision=1e-11)
    assert abs(le1.value_at_1 - le2.value_at_1) <= le1.tail_bound + 1e-12


def test_twist_identity(e37a):
    tw = twist(e37a, 1)
    assert tw.curve.ainvs == e37a.ainvs
    assert tw.conductor == 37


def test_twist_conductor_and_coefficients(e37a):
    tw = twist(e37a, -7)
    assert tw.conductor == 37 * 49
    s = an_series(e37a, 1000)
    st = an_series(tw.curve, 1000)
    for n in range(1, 1001):
        if math.gcd(n, 7 * 37) == 1:
            assert st[n] == s[n] * kronecker(-7, n), n


def test_twist_rejects_bad_inputs(e37a):
    with pytest.raises(ValueError):
        twist(e37a, -5)  # not fundamental
    with pytest.raises(ValueError):
        twist(e37a, -37 * 4 + 1) if kronecker(-147, 37) else None
    with pytest.raises(ValueError):
        twist(e37a, -7 * 37)  # shares a factor with N (and not fundamental)


def test_double_twist_is_identity_on_coefficients(e11a):
    # twisting twice multiplies a_n by kronecker(d,n)^2 = 1 away from d*N;
    # the second twist op itself is blocked by its own coprimality precondition
    tw = twist(e11a, -7)
    with pytest.raises(ValueError):
        twist(tw.curve, -7)
    s = an_series(e11a, 500)
    st = an_series(tw.curve, 500)
    for n in range(1, 501):
        if math.gcd(n, 7 * 11) == 1:
            assert st[n] * kronecker(-7, n) == s[n]


def test_twists_by_character_match_twisted_models(e11a, e37a, e389a):
    e14a = CurveQ(1, 0, 1, 4, -6, 14, "14a")
    for curve in (e11a, e37a, e389a, e14a):
        s = an_series(curve, 3000)
        for d in (-3, -4, -7, -8, 5, -103):
            if math.gcd(d, curve.N) != 1:
                continue
            model = twist(curve, d).curve
            st = an_series(model, 3000)
            assert st.values.tolist() == [
                kronecker(d, n) * s[n] if n else 0 for n in range(3001)
            ], (curve.label, d)
            # the model's sign and the character's are both kept by the split
            # identity; given that sign, the model's L-value and split defect
            # are the character's to the bit
            le = l_eval(curve, d=d)
            assert le.epsilon == l_eval(model).epsilon, (curve.label, d)
            assert le == l_eval(model, sign=le.epsilon), (curve.label, d)


def test_twist_row_is_built_once_per_l_eval_and_read_only(e37a, monkeypatch):
    # the passes of one l_eval share one row; the values are the ones a
    # fresh row per pass gives, bit for bit
    calls = []
    real = lseries.kronecker

    def counted(d, n):
        calls.append(d)
        return real(d, n)

    lseries._twist_row.cache_clear()
    fresh = l_eval(e37a, d=-11)
    monkeypatch.setattr(lseries, "kronecker", counted)
    lseries._twist_row.cache_clear()
    assert l_eval(e37a, d=-11) == fresh
    assert calls == [-11] * 11  # one row of |d| values for all the passes
    row = lseries._twist_row(-11)
    assert row.tolist() == [real(-11, n) for n in range(11)]
    with pytest.raises(ValueError):
        row[0] = 1


def test_cached_an_grows_in_place_counting_each_prime_once(e37a, monkeypatch):
    counted = []
    real_ap, real_flat, real_lockstep = ec_core.ap, ec_core.ap_flat, ec_core.ap_lockstep

    def ap(curve, p):
        counted.append(p)
        return real_ap(curve, p)

    def ap_flat(curve, primes):
        counted.extend(int(p) for p in primes)
        return real_flat(curve, primes)

    def ap_lockstep(curve, primes):
        counted.extend(int(p) for p in primes)
        return real_lockstep(curve, primes)

    fresh = an_series(e37a, 30000)
    monkeypatch.setattr(lseries, "_AN_CACHE", {})
    monkeypatch.setattr(ec_core, "ap", ap)
    monkeypatch.setattr(ec_core, "ap_flat", ap_flat)
    monkeypatch.setattr(ec_core, "ap_lockstep", ap_lockstep)
    for n_max in (64, 3000, 30000):
        grown = cached_an(e37a, n_max)
    assert [s.n_max for s in lseries._AN_CACHE.values()] == [30000]
    assert grown.values.tolist() == fresh.values.tolist()
    # every good prime up to 30000 is counted once, by whichever path serves it
    assert sorted(counted) == [p for p in primes_upto(30000) if good_reduction(e37a, p)]


def test_l_over_K_rejects_bad_discriminants(e37a):
    with pytest.raises(ValueError):
        l_over_K(e37a, -5)  # not fundamental
    with pytest.raises(ValueError):
        l_over_K(e37a, -7 * 37)  # fundamental, but shares a factor with N


def test_l_over_K_examples(e37a, e11a):
    r = l_over_K(e37a, -7)
    assert r.nonzero
    assert r.l_curve.epsilon == -1 and r.l_twist.epsilon == 1
    r = l_over_K(e11a, -7)
    assert r.nonzero
    assert r.l_curve.epsilon == 1 and r.l_twist.epsilon == -1


def test_analytic_rank_gate(e11a, e37a, e389a):
    assert gate_from_leval(l_eval(e11a)) == "rank0"
    assert gate_from_leval(l_eval(e37a)) == "rank1"
    assert gate_from_leval(l_eval(e389a)) == "not_eligible"


# d_K of every curve in perfbench/data/pinned.txt that passes the gate
PINNED_D_K = {"11a": -7, "37a": -7, "14a": -31, "15a": -11, "17a": -15, "19a": -15,
              "43a": -7, "53a": -7, "57a": -59, "61a": -15, "65a": -51, "79a": -7,
              "83a": -15, "89a": -11, "91a": -55, "131a": -19}
G12283 = CurveQ(0, -1, 1, -3, -5, 12283, "g12283.1")  # a field-search curve, d_K = -23


def _pinned_twists():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    curves = parse_curve_file(os.path.join(root, "perfbench", "data", "pinned.txt"))
    return [(c, PINNED_D_K[c.label]) for c in curves if c.label in PINNED_D_K]


def test_twist_sign_matches_the_numeric_root_number(e11a, e37a, e389a, e14a, g427):
    # Atkin-Li from E's sign against the one sign the twist's own split
    # identity keeps, on the twist's own terms
    cases = [(curve, d) for curve in (e11a, e37a, e389a, e14a) for d in _twists(curve)]
    cases += _pinned_twists() + [(g427, -19), (G12283, -23)]
    assert len(cases) == 33
    for curve, d in cases:
        eps = l_eval(curve).epsilon
        assert twist_sign(eps, curve, d) == l_eval(curve, d=d).epsilon, (curve.label, d)


def test_split_defect_matches_per_term_oracle_and_stays_in_its_bound():
    for curve, d in _pinned_twists():
        r = l_over_K(curve, d)
        te = r.l_twist
        assert te.epsilon == -r.l_curve.epsilon
        want, scale = split_defect_per_term(curve, d, te.terms_used, te.epsilon, te.value_at_1)
        assert abs(te.split_defect - want) <= 1e-13 * scale, curve.label
        # the bound is about the tails of the three sums; the right sign sits far below
        c = 2.0 * math.pi / math.sqrt(curve.N * d * d)
        bound = sum(w * lseries._f_bound(x, te.terms_used)
                    for w, x in ((1, c * 1.07), (1, c / 1.07), (1 + te.epsilon, c)))
        assert te.split_defect <= 0.05 * bound and bound < 2e-8, curve.label


def test_l_over_K_rejects_a_flipped_gate_sign(e11a, e37a, g427):
    for curve, d in ((e11a, -7), (e37a, -7), (g427, -19), (G12283, -23)):
        le = l_eval(curve)
        flipped = le._replace(epsilon=-le.epsilon)
        with pytest.raises(LSeriesInconclusiveError,
                           match=r"fails the split identity .* defect .* exceeds the bound"):
            l_over_K(curve, d, le=flipped)


def test_split_identity_catches_one_altered_a_p(e37a, monkeypatch):
    # 37a, d = -7: every good p < T/2; g12283.1, d = -23: the smallest good
    # primes and the largest below T/4, where a change still weighs e^{-c p}
    monkeypatch.setattr(lseries, "_AN_CACHE", {})
    for curve, d, pick in ((e37a, -7, lambda ps, T: ps),
                           (G12283, -23, lambda ps, T: ps[:3] + [p for p in ps if p < T / 4][-2:])):
        le = l_eval(curve)
        sign = twist_sign(le.epsilon, curve, d)
        T = l_eval(curve, d=d, sign=sign).terms_used
        table = cached_an(curve, T).values
        good = [p for p in primes_upto(T // 2) if math.gcd(p, curve.N * d) == 1]
        for p in pick(good, T):
            table[p] += 1
            with pytest.raises(LSeriesInconclusiveError, match="split identity"):
                l_over_K(curve, d, le=le)
            table[p] -= 1
        assert l_over_K(curve, d, le=le).l_twist.terms_used == T  # restored


def test_find_K_grows_the_table_only_to_the_twist_terms(monkeypatch):
    # the twist's sign used to be searched numerically, on 26,643 terms here
    monkeypatch.setattr(lseries, "_AN_CACHE", {})
    fs = find_K(G12283)
    assert fs.d_K == -23 and fs.l_value_data.l_twist.terms_used == 12126
    assert [s.n_max for s in lseries._AN_CACHE.values()] == [12126]
