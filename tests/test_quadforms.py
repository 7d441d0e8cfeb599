import math
import random

import pytest

from heegner_witness.arith import is_squarefree, primes_upto
from heegner_witness import quadforms
from heegner_witness.quadforms import (
    _cyclic_order,
    _elementary_divisors,
    InvalidDiscriminantError,
    canonical_invariants,
    class_number,
    is_fundamental,
    kronecker,
    reduce_form,
    reduced_forms,
    ring_class_levels,
)
from oracles import (
    UNIT_QUOTIENT_CEILING,
    _invariants_of,
    abelian_invariants,
    class_group,
    compose,
    form_inverse,
    local_unit_quotient_grid,
    principal_form,
    splitting_type,
    unit_quotient_structure,
    unit_quotient_whole_ring,
)

FUNDAMENTALS = [-7, -11, -19, -43, -67, -163]

# (d_K, p) for every level prime of the pinned curves that reach step 4
PINNED_LEVEL_PRIMES = [
    (-7, 5), (-7, 17), (-7, 41), (-7, 47), (-7, 59), (-11, 2), (-11, 13),
    (-11, 41), (-11, 107), (-15, 13), (-15, 41), (-19, 59), (-19, 71),
    (-51, 83), (-51, 97), (-55, 29), (-55, 47), (-59, 89), (-59, 109),
]


def test_kronecker_examples():
    assert kronecker(-7, 37) == 1
    assert kronecker(-7, 7) == 0
    assert kronecker(-11, 2) == -1


def test_kronecker_euler_criterion():
    for d in (-7, -11, -15, -20, -24, 5, 12, -163):
        for p in primes_upto(200):
            if p == 2:
                continue
            want = pow(d % p, (p - 1) // 2, p)
            want = {0: 0, 1: 1, p - 1: -1}[want]
            assert kronecker(d, p) == want, (d, p)


def test_kronecker_at_two():
    # (d/2) = 0 for even d, +1 for d = +-1 mod 8, -1 for d = +-3 mod 8
    for d in range(-50, 50):
        got = kronecker(d, 2)
        if d % 2 == 0:
            assert got == 0
        elif d % 8 in (1, 7):
            assert got == 1
        else:
            assert got == -1


def test_kronecker_multiplicative_in_n():
    rng = random.Random(11)
    for _ in range(300):
        d = rng.choice((-7, -11, -15, -43, 8, 21))
        m = rng.randrange(1, 400)
        n = rng.randrange(1, 400)
        assert kronecker(d, m * n) == kronecker(d, m) * kronecker(d, n)


def test_splitting_type():
    assert splitting_type(-7, 37) == "split"
    assert splitting_type(-7, 7) == "ramified"
    assert splitting_type(-7, 5) == "inert"
    with pytest.raises(InvalidDiscriminantError):
        splitting_type(-12, 5)  # -12 not fundamental


def test_discriminant_type():
    assert is_fundamental(-7)
    assert not is_fundamental(-44)
    assert is_fundamental(-163)
    assert not is_fundamental(-175)


def test_reduced_forms_small():
    assert reduced_forms(-7) == [(1, 1, 2)]
    assert sorted(reduced_forms(-44)) == [(1, 0, 11), (3, -2, 4), (3, 2, 4)]
    assert reduced_forms(-3) == [(1, 1, 1)]
    assert class_number(-163) == 1
    assert class_number(-23) == 3


def test_compose_identity_and_inverse():
    D = -44
    e = reduce_form(*principal_form(D))
    for f in reduced_forms(D):
        assert compose(e, f, D) == f
        assert compose(f, form_inverse(f, D), D) == e
    assert compose((3, 2, 4), (3, -2, 4), D) == (1, 0, 11)


def test_compose_associativity_exhaustive_small():
    for D in range(-250, 0):
        if D % 4 not in (0, -3):
            continue
        forms = reduced_forms(D)
        for f in forms:
            for g in forms:
                for h in forms:
                    assert compose(compose(f, g, D), h, D) == compose(f, compose(g, h, D), D)


def test_group_axioms_sampled_to_2000():
    rng = random.Random(3)
    for D in range(-2000, 0):
        if D % 4 not in (0, -3):
            continue
        forms = reduced_forms(D)
        e = reduce_form(*principal_form(D))
        for f in forms:
            assert compose(e, f, D) == f
            assert compose(f, form_inverse(f, D), D) == e
        h = len(forms)
        for _ in range(min(40, h * h)):
            f, g, k = rng.choice(forms), rng.choice(forms), rng.choice(forms)
            assert compose(compose(f, g, D), k, D) == compose(f, compose(g, k, D), D)
            assert compose(f, g, D) == compose(g, f, D)


def test_compose_rejects_mismatched_discriminants():
    with pytest.raises(ValueError):
        compose((1, 1, 2), (1, 0, 11), -44)


def test_class_group_structures():
    g = class_group(-7)
    assert g.order == 1 and g.invariants == []
    g = class_group(-44)
    assert g.order == 3 and g.invariants == [3]
    g = class_group(-175)  # order of conductor 5 in Q(sqrt(-7)), 5 inert
    assert g.order == 6 and g.invariants == [6]


def test_canonical_invariants():
    assert canonical_invariants([4, 6]) == [2, 12]
    assert canonical_invariants([4]) == [4]
    assert canonical_invariants([]) == []
    assert canonical_invariants([2, 2, 3]) == [2, 6]


def test_abelian_invariants_from_orders():
    def elt_order(i, m):
        return m // math.gcd(i, m)

    orders = [
        math.lcm(elt_order(i, 2), elt_order(j, 4)) for i in range(2) for j in range(4)
    ]
    assert abelian_invariants(8, orders) == [2, 4]
    orders = [
        math.lcm(elt_order(i, 6), elt_order(j, 4)) for i in range(6) for j in range(4)
    ]
    assert abelian_invariants(24, orders) == [2, 12]


def test_unit_quotient_examples():
    assert unit_quotient_structure(-7, 3) == [4]
    assert unit_quotient_structure(-7, 1) == []
    assert unit_quotient_structure(-7, 15) == canonical_invariants([4, 6])


def test_unit_quotient_matches_whole_ring_oracle():
    # the CRT product of local quotients against one enumeration of O_K/c:
    # small c (split, inert and 2 | c), prime powers, and the two-prime
    # conductors step 4 checks; 533 only with the d_K it meets there, as the
    # oracle needs 0.6 s per call at 533
    cs = list(range(1, 61)) + [9, 25, 27, 49, 214, 295]
    prime_powers = [4, 8, 9, 27, 121]  # the local enumeration at e > 1
    cases = [(d, c) for d in (-7, -11, -15, -19, -51, -55, -59) for c in cs + prime_powers]
    cases += [(-11, 533), (-15, 533)]
    cases += PINNED_LEVEL_PRIMES
    for d, c in cases:
        if math.gcd(c, d) == 1:
            assert unit_quotient_structure(d, c) == unit_quotient_whole_ring(d, c), (d, c)


def test_unit_quotient_enumeration_bound():
    # the ceiling bounds each p^e || c: 1009 is prime and 1009^2 > 10^6
    with pytest.raises(ValueError, match="exceeds the enumeration ceiling"):
        unit_quotient_structure(-11, 1009)
    with pytest.raises(ValueError, match="exceeds the enumeration ceiling"):
        unit_quotient_structure(-11, 2 * 3**7)  # 3^7 = 2187
    # a squarefree c far past c^2 <= 10^6, made of small primes, enumerates;
    # (O_K/p)^*/(Z/p)^* is cyclic of order p - (d_K/p)
    c = 2 * 3 * 5 * 7 * 13 * 17 * 19 * 23 * 29
    assert c * c > UNIT_QUOTIENT_CEILING
    want = canonical_invariants([p - kronecker(-11, p) for p in (2, 3, 5, 7, 13, 17, 19, 23, 29)])
    assert unit_quotient_structure(-11, c) == want


def test_ring_class_structure_examples():
    s = ring_class_levels(-7, [3])[-1]
    assert s.factors == (4,) and s.degree == 4
    s = ring_class_levels(-7, [])[-1]
    assert s.factors == () and s.degree == 1
    s = ring_class_levels(-7, [3, 5])[-1]
    assert s.factors == (4, 6) and s.degree == 24
    assert s.invariants == (2, 12)
    levels = ring_class_levels(-7, [3, 5])
    assert [(t.conductor, t.invariants) for t in levels] == [(1, ()), (3, (4,)), (15, (2, 12))]
    assert levels[-1] == s


def test_ring_class_structure_rejects_non_inert():
    with pytest.raises(ValueError):
        ring_class_levels(-7, [37])[-1]  # 37 splits
    with pytest.raises(ValueError):
        ring_class_levels(-7, [7])[-1]  # ramified
    with pytest.raises(ValueError):
        ring_class_levels(-7, [3, 3])[-1]  # repeated


def test_ring_class_invariants_all_fundamentals_small():
    # every squarefree product c <= 60 of inert primes: enumeration == formula
    for d in FUNDAMENTALS:
        inert = [p for p in primes_upto(60) if kronecker(d, p) == -1]
        prods = [(p,) for p in inert] + [
            (p, q) for i, p in enumerate(inert) for q in inert[i + 1 :] if p * q <= 60
        ]
        for ps in prods:
            s = ring_class_levels(d, list(ps))[-1]  # asserts internally
            assert s.degree == math.prod(p + 1 for p in ps)


def test_class_number_formula_orders():
    # |Pic(O_c)| = h(d_K) * prod (p+1) for inert p, trivial unit quotient
    for d in FUNDAMENTALS:
        h = class_number(d)
        inert = [p for p in primes_upto(30) if kronecker(d, p) == -1]
        for p in inert:
            if p * p * abs(d) <= 20000:
                assert class_number(d * p * p) == h * (p + 1), (d, p)


def test_cyclic_order_is_certified_once_and_equals_a_fresh_certificate():
    for d, p in [(-7, 3), (-7, 2), (-15, 13), (-59, 89), (-19, 2), (-11, 7)]:
        got = _cyclic_order(d, p)
        assert type(got) is int and _cyclic_order(d, p) == got  # a fresh certificate


def test_local_certificate_matches_the_residue_grid():
    # every prime p < 700 not dividing d, split and inert alike: the coset count
    # and the generator give the cyclic group that enumerating all p^2 residues gives
    cases = [(d, p) for d in FUNDAMENTALS for p in primes_upto(700) if d % p]
    cases += PINNED_LEVEL_PRIMES
    for d, p in cases:
        n = _cyclic_order(d, p)
        assert _invariants_of(local_unit_quotient_grid(d, p, 1)) == ([n] if n > 1 else []), (d, p)


def test_a_tower_prime_past_the_grid_ceiling_is_cross_checked(monkeypatch):
    # 32a2's level: d_K = -7 and both primes have p^2 > 10^6, far past any grid
    ps = [56629, 66337]
    assert all(p * p > UNIT_QUOTIENT_CEILING for p in ps)
    certified = []

    def cyclic_order(d, p):
        certified.append((d, p))
        return _cyclic_order(d, p)

    monkeypatch.setattr(quadforms, "_cyclic_order", cyclic_order)
    levels = ring_class_levels(-7, ps)
    assert certified == [(-7, 56629), (-7, 66337)]
    assert [t.invariants for t in levels] == [(), (56630,), (1618, 2321830)]


def test_ring_class_levels_refuses_d_K_not_1_mod_4():
    # fundamental, but O_K is not Z[(1 + sqrt(d_K))/2], which the local
    # certificates count in: refused before any tower prime is looked at
    for d_K, ps in [(-4, [3]), (-20, [7])]:
        assert is_fundamental(d_K)
        with pytest.raises(InvalidDiscriminantError, match=f"{d_K} is not 1 mod 4"):
            ring_class_levels(d_K, ps)


def test_elementary_divisors_match_canonical_invariants():
    rng = random.Random(20261020)
    for _ in range(3000):
        orders = [rng.choice([1, 1, 2, 3, 4, 6, 8, 9, 12, 16, 25, 27, 30, 36, 60, 72,
                              rng.randint(1, 10**4)])
                  for _ in range(rng.randint(0, 6))]
        assert _elementary_divisors(orders) == canonical_invariants(orders), orders


def test_a_wrong_local_order_fails_its_own_level(monkeypatch):
    # 41's local quotient read as C_41 instead of C_42: levels 0 and 1 pass the
    # stand-in, level 2 (c = 3 * 41) is the first that names the mismatch
    def cyclic_order(d, p):
        return p if p == 41 else _cyclic_order(d, p)

    monkeypatch.setattr(quadforms, "_cyclic_order", cyclic_order)
    with pytest.raises(ArithmeticError, match=r"d_K=-7, c=123: enumeration \(164,\) vs formula \(2, 84\)"):
        ring_class_levels(-7, [3, 41, 5])
    assert [t.conductor for t in ring_class_levels(-7, [3, 5])] == [1, 3, 15]
