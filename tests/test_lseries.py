import math

import pytest

from heegner_witness import ec_core, lseries
from heegner_witness.lseries import (
    cached_an,
    LSeriesInconclusiveError,
    analytic_rank_gate,
    exp1,
    l_eval,
    l_over_K,
    root_number,
)
from heegner_witness.ec_core import CurveQ, an_series
from heegner_witness.quadforms import kronecker
from oracles import l_derivative_straight, l_value_straight, twist


def test_exp1_against_scipy():
    from scipy.special import exp1 as scipy_exp1

    for x in [0.01, 0.1, 0.5, 0.999, 1.0, 1.001, 2.0, 5.0, 13.7, 40.0]:
        assert abs(exp1(x) - float(scipy_exp1(x))) <= 1e-12 * max(1.0, abs(float(scipy_exp1(x))))


def test_root_numbers(e11a, e37a, e389a):
    eps, res = root_number(e11a)
    assert eps == 1 and res < 1e-8
    eps, res = root_number(e37a)
    assert eps == -1 and res < 1e-8
    eps, res = root_number(e389a)
    assert eps == 1 and res < 1e-8


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
            assert l_eval(curve, d=d) == l_eval(model), (curve.label, d)


def test_cached_an_grows_in_place_counting_each_prime_once(e37a, monkeypatch):
    counted = []
    real_ap, real_lockstep = ec_core.ap, ec_core.ap_lockstep

    def ap(curve, p):
        counted.append(p)
        return real_ap(curve, p)

    def ap_lockstep(curve, primes):
        counted.extend(int(p) for p in primes)
        return real_lockstep(curve, primes)

    fresh = an_series(e37a, 30000)
    monkeypatch.setattr(lseries, "_AN_CACHE", {})
    monkeypatch.setattr(ec_core, "ap", ap)
    monkeypatch.setattr(ec_core, "ap_lockstep", ap_lockstep)
    for n_max in (64, 3000, 30000):
        grown = cached_an(e37a, n_max)
    assert [s.n_max for s in lseries._AN_CACHE.values()] == [30000]
    assert grown.values.tolist() == fresh.values.tolist()
    assert len(counted) == len(set(counted))
    assert max(counted) > 29000


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
    assert analytic_rank_gate(e11a) == "rank0"
    assert analytic_rank_gate(e37a) == "rank1"
    assert analytic_rank_gate(e389a) == "not_eligible"
