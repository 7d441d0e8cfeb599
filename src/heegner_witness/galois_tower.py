"""The quotient tower C_q^n and the divisibility contradiction engine.

`tower_structure` gives the tower's degrees, and `divisibility_contradiction`
finds the witness level; both are exact integer arithmetic. The
contradiction engine works at the level of q-adic valuations: with q not
dividing any a_{p_i}, the relation

    [index at level n] * c_{n,j} = a_{p_1} ... a_{p_n} * c_j

forces q^{n-m-r} | c_j once n, m, r are fixed, so the first level n with
n - m - r > v_q(c_j) certifies that the traced points cannot sit inside any
fixed finitely generated group. The index lower bound q^{n-m-r} is used at
equality from n = m + r + 1 on (worst case), making the witness conservative.
That bound is a theorem, not something a run computes: an r-generated
subgroup of C_q^n has index at least q^(n-r).
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .arith import is_prime, valuation


class TowerLevel(NamedTuple):
    q: int
    primes: tuple
    full_factors: tuple  # p_i + 1
    full_degree: int
    quotient_degree: int  # q^n

    @property
    def n(self) -> int:
        return len(self.primes)


def tower_structure(q: int, primes) -> TowerLevel:
    """The C_q^n quotient data for the tower over primes with q | p + 1."""
    if q == 2 or not is_prime(q):
        raise ValueError(f"q = {q} must be an odd prime")
    ps = tuple(primes)
    if len(set(ps)) != len(ps):
        raise ValueError("tower primes must be distinct")
    for p in ps:
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        if (p + 1) % q != 0:
            raise ValueError(f"q = {q} does not divide p + 1 = {p + 1}")
    factors = tuple(p + 1 for p in ps)
    return TowerLevel(q, ps, factors, math.prod(factors) if ps else 1, q ** len(ps))



class FormalMWModel:
    """Hypothetical finitely generated configuration to be contradicted.

    k formal generators Q_1..Q_k of the ambient group modulo torsion;
    c[j] are the coefficients of the fixed traced base point; ap_values are
    the a_{p_i} along the tower; m is the level where all traced points are
    assumed defined; r bounds the generator count of the acting subgroup.
    A slotted class whose constructor checks q, len(c) = k and m, r >= 0.
    """

    __slots__ = ("q", "k", "c", "ap_values", "m", "r")

    def __init__(self, q: int, k: int, c: tuple, ap_values: tuple, m: int = 0, r: int = 0):
        if not is_prime(q) or q == 2:
            raise ValueError("q must be an odd prime")
        if len(c) != k:
            raise ValueError("coefficient vector length must equal k")
        if m < 0 or r < 0:
            raise ValueError("m, r must be >= 0")
        self.q, self.k, self.c, self.ap_values, self.m, self.r = q, k, c, ap_values, m, r


class ContradictionResult:
    """The verdict of `divisibility_contradiction`; `ledger` is a fresh list
    per result unless one is given."""

    __slots__ = ("derivable", "reason", "witness_n", "j", "v_q_cj", "ledger")

    def __init__(self, derivable: bool, reason: str, witness_n: int | None = None,
                 j: int | None = None, v_q_cj: int | None = None, ledger: list | None = None):
        self.derivable, self.reason, self.witness_n = derivable, reason, witness_n
        self.j, self.v_q_cj = j, v_q_cj
        self.ledger = [] if ledger is None else ledger


def divisibility_contradiction(model: FormalMWModel) -> ContradictionResult:
    """Smallest level n at which q^(n-m-r) | c_j fails for the minimal-valuation
    nonzero coefficient; 'no contradiction derivable' if the preconditions
    that force full q-valuation on the right side do not hold."""
    q = model.q
    bad = [a for a in model.ap_values if a % q == 0]
    if bad:
        return ContradictionResult(
            False, f"q = {q} divides a_p for some tower prime (values {bad}); "
            "the right side can absorb q-powers"
        )
    nonzero = [(j, cj) for j, cj in enumerate(model.c) if cj != 0]
    if not nonzero:
        return ContradictionResult(
            False, "all base-point coefficients vanish (torsion base point); "
            "nothing forces a contradiction"
        )
    j, cj = min(nonzero, key=lambda t: valuation(t[1], q))
    v = valuation(cj, q)
    witness = model.m + model.r + v + 1
    if witness > len(model.ap_values):
        return ContradictionResult(
            False,
            f"witness level {witness} needs {witness} tower primes, only "
            f"{len(model.ap_values)} supplied",
            j=j,
            v_q_cj=v,
        )
    rows = []
    for n in range(model.m + 1, witness + 1):
        need = max(n - model.m - model.r, 0)
        prod_v = sum(valuation(a, q) for a in model.ap_values[:n])  # = 0 by check above
        rhs_v = prod_v + v
        rows.append(
            {
                "level": n,
                "required_power": need,
                "v_q_rhs": rhs_v,
                "divisible": need <= rhs_v,
            }
        )
    assert rows[-1]["divisible"] is False
    return ContradictionResult(True, "q-valuation overflow", witness, j, v, rows)

