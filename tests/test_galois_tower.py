import itertools
import random

import pytest

from heegner_witness.galois_tower import (
    ContradictionResult,
    FormalMWModel,
    divisibility_contradiction,
    tower_structure,
)
from heegner_witness.quadforms import ring_class_levels
from oracles import (
    index_bound_bruteforce,
    involution_check,
    matrix_order,
    subgroup_index,
    subgroup_of,
)


def test_tower_structure_basic():
    t = tower_structure(3, [5, 17])
    assert t.full_factors == (6, 18)
    assert t.full_degree == 108
    assert t.quotient_degree == 9
    t = tower_structure(3, [])
    assert t.full_degree == 1 and t.quotient_degree == 1


def test_tower_structure_rejects():
    with pytest.raises(ValueError):
        tower_structure(3, [7])  # 3 does not divide 8
    with pytest.raises(ValueError):
        tower_structure(2, [3])  # q must be odd
    with pytest.raises(ValueError):
        tower_structure(3, [5, 5])


def test_tower_degree_matches_ring_class_factors():
    # quotient degree = prod (p_i + 1) / prod ((p_i + 1)/q)
    q = 3
    primes = [5, 17]
    t = tower_structure(q, primes)
    s = ring_class_levels(-7, primes)[-1]  # 5, 17 inert in Q(sqrt(-7))
    assert s.degree == t.full_degree
    reduced = 1
    for p in primes:
        reduced *= (p + 1) // q
    assert t.full_degree // reduced == t.quotient_degree


def test_subgroup_index():
    assert subgroup_index(3, 3, [(1, 0, 0), (0, 1, 0)]) == 3
    assert subgroup_index(3, 3, [(1, 1, 1)]) == 9
    assert subgroup_index(3, 2, []) == 9
    assert subgroup_index(2, 3, [(1, 1, 0), (0, 1, 1), (1, 0, 1)]) == 2  # rank 2 mod 2
    g = subgroup_of(3, 3, [(1, 0, 0), (2, 0, 0), (0, 1, 2)])
    assert g.rank == 2 and g.index == 3
    assert g.index * 3**g.rank == 27


def test_subgroup_index_row_operation_invariance():
    rng = random.Random(5)
    for _ in range(100):
        q = rng.choice((2, 3, 5))
        n = rng.randrange(1, 5)
        gens = [tuple(rng.randrange(q) for _ in range(n)) for _ in range(rng.randrange(1, 4))]
        idx = subgroup_index(q, n, gens)
        # add a random multiple of one generator to another: same span
        if len(gens) >= 2:
            i, j = rng.sample(range(len(gens)), 2)
            f = rng.randrange(q)
            gens2 = list(gens)
            gens2[i] = tuple((a + f * b) % q for a, b in zip(gens[i], gens[j]))
            assert subgroup_index(q, n, gens2) == idx
        # scaling by a unit: same span
        u = rng.randrange(1, q)
        gens3 = [tuple(a * u % q for a in gens[0])] + list(gens[1:])
        assert subgroup_index(q, n, gens3) == idx


def test_index_bound_bruteforce_examples():
    assert index_bound_bruteforce(2, 3, 1) == 4
    assert index_bound_bruteforce(3, 2, 1) == 3
    assert index_bound_bruteforce(3, 2, 2) == 1
    assert index_bound_bruteforce(5, 2, 0) == 25


def test_index_bound_exhaustive_small():
    for q, n in ((2, 2), (2, 3), (3, 2), (3, 3)):
        for r in range(n + 1):
            assert index_bound_bruteforce(q, n, r) == q ** (n - r)


def _random_valid_model(rng):
    q = rng.choice((3, 5, 7))
    k = rng.randrange(1, 5)
    m = rng.randrange(0, 3)
    r = rng.randrange(0, 3)
    c = [0] * k
    j = rng.randrange(k)
    v = rng.randrange(0, 4)
    c[j] = q ** v * rng.choice([u for u in range(-6, 7) if u % q != 0 and u != 0])
    for i in range(k):
        if i != j and rng.random() < 0.5:
            c[i] = q ** rng.randrange(v, v + 3) * rng.choice(
                [u for u in range(-6, 7) if u % q != 0 and u != 0]
            )
    depth = m + r + v + 2
    aps = tuple(rng.choice([a for a in range(-9, 10) if a % q != 0]) for _ in range(depth))
    return FormalMWModel(q, k, tuple(c), aps, m, r), v


def test_contradiction_witness_formula_randomized():
    rng = random.Random(42)
    for _ in range(100):
        model, v = _random_valid_model(rng)
        res = divisibility_contradiction(model)
        assert res.derivable
        assert res.witness_n == model.m + model.r + v + 1
        assert res.ledger[-1]["divisible"] is False
        assert all(row["divisible"] for row in res.ledger[:-1])


def test_contradiction_monotone_in_valuation():
    for v in range(4):
        model = FormalMWModel(3, 1, (2 * 3 ** v,), tuple([1] * 10), 1, 1)
        res = divisibility_contradiction(model)
        assert res.witness_n == 1 + 1 + v + 1


def test_contradiction_examples():
    res = divisibility_contradiction(FormalMWModel(3, 1, (9,), (1, 1, 1), 0, 0))
    assert res.derivable and res.witness_n == 3
    res = divisibility_contradiction(FormalMWModel(5, 1, (1,), (2, 2, 2, 2), 2, 1))
    assert res.derivable and res.witness_n == 4
    res = divisibility_contradiction(FormalMWModel(3, 2, (1, 0), (3, 1)))
    assert not res.derivable and "divides a_p" in res.reason
    res = divisibility_contradiction(FormalMWModel(3, 2, (0, 0), (1, 1)))
    assert not res.derivable and "torsion" in res.reason


def test_contradiction_needs_enough_primes():
    res = divisibility_contradiction(FormalMWModel(3, 1, (9,), (1,), 0, 0))
    assert not res.derivable and "tower primes" in res.reason


def test_involution_check_identity():
    assert involution_check(3, [(1, 0), (0, 1)], [(-1, 0), (0, -1)]) == "forces_identity"


def test_involution_check_order3_rational():
    # companion matrix of x^2 + x + 1 has order 3
    T = [(0, -1), (1, -1)]
    S = [(-1, 0), (0, -1)]
    assert matrix_order(T, None) == 3
    assert involution_check(3, T, S) == "relation_violated"


def test_involution_check_rejects():
    with pytest.raises(ValueError):
        involution_check(2, [(1, 0), (0, 1)], [(-1, 0), (0, -1)])
    with pytest.raises(ValueError):
        involution_check(3, [(1, 0), (0, 1)], [(1, 0), (0, -1)])  # S not -I
    with pytest.raises(ValueError):
        involution_check(3, [(2, 0), (0, 1)], [(-1, 0), (0, -1)])  # infinite order


def test_involution_exhaustive_mod_small_primes():
    # no 2x2 matrix of order 3 or 9 over F_ell satisfies the relation
    for ell in (7, 13):
        ident = ((1, 0), (0, 1))
        S = ((ell - 1, 0), (0, ell - 1))
        checked = 0
        for a, b, c, d in itertools.product(range(ell), repeat=4):
            if (a * d - b * c) % ell == 0:
                continue
            T = ((a, b), (c, d))
            T3 = _pow_mod(T, 3, ell)
            if T3 == ident and T != ident:
                assert involution_check(3, T, S, modulus=ell) == "relation_violated"
                checked += 1
        assert checked > 0


def _pow_mod(T, e, ell):
    out = ((1, 0), (0, 1))
    base = T
    while e:
        if e & 1:
            out = _mul2(out, base, ell)
        base = _mul2(base, base, ell)
        e >>= 1
    return out


def _mul2(A, B, ell):
    return tuple(
        tuple(sum(A[i][k] * B[k][j] for k in range(2)) % ell for j in range(2)) for i in range(2)
    )
