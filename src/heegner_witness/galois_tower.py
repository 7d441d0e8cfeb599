"""Exact engine for the quotient tower C_q^n and the divisibility contradiction.

Everything here is exact integer / finite-field linear algebra. The
contradiction engine works at the level of q-adic valuations: with q not
dividing any a_{p_i}, the relation

    [index at level n] * c_{n,j} = a_{p_1} ... a_{p_n} * c_j

forces q^{n-m-r} | c_j once n, m, r are fixed, so the first level n with
n - m - r > v_q(c_j) certifies that the traced points cannot sit inside any
fixed finitely generated group. The index lower bound q^{n-m-r} is used at
equality from n = m + r + 1 on (worst case), making the witness conservative.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction

from .arith import is_prime, valuation

ENUMERATION_CEILING = 10**6


@dataclass(frozen=True)
class TowerLevel:
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


def _rank_mod_q(q: int, n: int, vectors) -> int:
    rows = [list(v) for v in vectors]
    for row in rows:
        if len(row) != n:
            raise ValueError("generator vectors must have length n")
    rank = 0
    col = 0
    while col < n and rank < len(rows):
        piv = next((i for i in range(rank, len(rows)) if rows[i][col] % q != 0), None)
        if piv is None:
            col += 1
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = pow(rows[rank][col] % q, -1, q)
        rows[rank] = [(x * inv) % q for x in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][col] % q != 0:
                f = rows[i][col] % q
                rows[i] = [(a - f * b) % q for a, b in zip(rows[i], rows[rank])]
        rank += 1
        col += 1
    return rank


@dataclass(frozen=True)
class SubgroupFq:
    """A subgroup of C_q^n given by generator vectors over F_q."""

    q: int
    n: int
    generators: tuple
    rank: int
    index: int

    def __post_init__(self):
        if self.index * self.q**self.rank != self.q**self.n:
            raise ValueError("index * order != q^n")


def subgroup_of(q: int, n: int, generators) -> SubgroupFq:
    if not is_prime(q):
        raise ValueError(f"q = {q} must be prime")
    r = _rank_mod_q(q, n, generators)
    return SubgroupFq(q, n, tuple(tuple(v) for v in generators), r, q ** (n - r))


def subgroup_index(q: int, n: int, generators) -> int:
    """[C_q^n : <generators>] = q^(n - rank), exact linear algebra over F_q."""
    return subgroup_of(q, n, generators).index


def index_bound_bruteforce(q: int, n: int, r: int) -> int:
    """Exhaustive minimum of [C_q^n : G] over subgroups G generated by r vectors."""
    if q ** n > ENUMERATION_CEILING:
        raise ValueError(f"q^n = {q ** n} exceeds enumeration ceiling")
    if r < 0 or n < 0:
        raise ValueError("need n, r >= 0")
    vectors = list(itertools.product(range(q), repeat=n))
    best = q ** n  # r = 0 or all-zero generators
    for gens in itertools.combinations_with_replacement(vectors, r):
        idx = subgroup_index(q, n, gens)
        if idx < best:
            best = idx
    if best < q ** max(n - r, 0):
        raise ArithmeticError("enumeration found an index below the q^(n-r) bound")
    return best


@dataclass(frozen=True)
class FormalMWModel:
    """Hypothetical finitely generated configuration to be contradicted.

    k formal generators Q_1..Q_k of the ambient group modulo torsion;
    c[j] are the coefficients of the fixed traced base point; ap_values are
    the a_{p_i} along the tower; m is the level where all traced points are
    assumed defined; r bounds the generator count of the acting subgroup.
    """

    q: int
    k: int
    c: tuple
    ap_values: tuple
    m: int = 0
    r: int = 0

    def __post_init__(self):
        if not is_prime(self.q) or self.q == 2:
            raise ValueError("q must be an odd prime")
        if len(self.c) != self.k:
            raise ValueError("coefficient vector length must equal k")
        if self.m < 0 or self.r < 0:
            raise ValueError("m, r must be >= 0")


@dataclass
class ContradictionResult:
    derivable: bool
    reason: str
    witness_n: int | None = None
    j: int | None = None
    v_q_cj: int | None = None
    ledger: list = field(default_factory=list)


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


def _mat_mul(A, B, modulus):
    n = len(A)
    out = [[sum(A[i][k] * B[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
    if modulus is not None:
        out = [[x % modulus for x in row] for row in out]
    return [tuple(r) for r in out]


def _mat_eq(A, B, modulus):
    if modulus is None:
        return all(Fraction(a) == Fraction(b) for ra, rb in zip(A, B) for a, b in zip(ra, rb))
    return all((a - b) % modulus == 0 for ra, rb in zip(A, B) for a, b in zip(ra, rb))


def _identity(n, modulus):
    return [tuple(1 if i == j else 0 for j in range(n)) for i in range(n)]


def _mat_inv(A, modulus):
    n = len(A)
    if n == 2:
        a, b = A[0]
        c, d = A[1]
        det = a * d - b * c
        if modulus is None:
            det = Fraction(det)
            if det == 0:
                raise ValueError("singular matrix")
            return [
                (d / det, Fraction(-b) / det),
                (Fraction(-c) / det, a / det),
            ]
        det %= modulus
        inv = pow(det, -1, modulus)
        return [
            ((d * inv) % modulus, (-b * inv) % modulus),
            ((-c * inv) % modulus, (a * inv) % modulus),
        ]
    # general size by Gauss-Jordan over Q or Z/modulus (modulus prime)
    M = [[Fraction(x) if modulus is None else x % modulus for x in row] for row in A]
    I = [[Fraction(int(i == j)) if modulus is None else int(i == j) for j in range(n)] for i in range(n)]
    for col in range(n):
        piv = next(
            (i for i in range(col, n) if (M[i][col] if modulus is None else M[i][col] % modulus)),
            None,
        )
        if piv is None:
            raise ValueError("singular matrix")
        M[col], M[piv] = M[piv], M[col]
        I[col], I[piv] = I[piv], I[col]
        inv = (1 / M[col][col]) if modulus is None else pow(M[col][col], -1, modulus)
        M[col] = [x * inv % modulus if modulus is not None else x * inv for x in M[col]]
        I[col] = [x * inv % modulus if modulus is not None else x * inv for x in I[col]]
        for i in range(n):
            if i != col and M[i][col]:
                f = M[i][col]
                M[i] = [
                    (a - f * b) % modulus if modulus is not None else a - f * b
                    for a, b in zip(M[i], M[col])
                ]
                I[i] = [
                    (a - f * b) % modulus if modulus is not None else a - f * b
                    for a, b in zip(I[i], I[col])
                ]
    return [tuple(r) for r in I]


def _mat_pow(A, e, modulus):
    out = _identity(len(A), modulus)
    while e:
        if e & 1:
            out = _mat_mul(out, A, modulus)
        A = _mat_mul(A, A, modulus)
        e >>= 1
    return out


def involution_check(q: int, T, S, modulus: int | None = None) -> str:
    """Test the conjugation relation S T S^(-1) = T^(-1) for T of odd q-power order.

    S must be an involution acting as -identity (the fixed-subspace-zero case).
    Returns 'forces_identity' when the relation holds (then T^2 = 1 and odd
    order forces T = 1), else 'relation_violated'.
    """
    if q == 2 or not is_prime(q):
        raise ValueError("q must be an odd prime")
    n = len(T)
    T = [tuple(row) for row in T]
    S = [tuple(row) for row in S]
    ident = _identity(n, modulus)
    if not _mat_eq(_mat_mul(S, S, modulus), ident, modulus):
        raise ValueError("S is not an involution")
    minus_ident = [tuple(-x if modulus is None else (-x) % modulus for x in row) for row in ident]
    if not _mat_eq(S, minus_ident, modulus):
        raise ValueError("S must act as -identity")
    # T has q-power order iff T^(q^k) = 1 for some q^k <= cap: k q-th powerings
    cap = 3 ** 12
    acc, qk = T, 1
    while not _mat_eq(acc, ident, modulus):
        if qk * q > cap:
            raise ValueError(f"T^(q^k) != 1 for all q^k <= {cap}: order not a power of {q}")
        acc = _mat_pow(acc, q, modulus)
        qk *= q
    lhs = _mat_mul(_mat_mul(S, T, modulus), _mat_inv(S, modulus), modulus)
    rhs = _mat_inv(T, modulus)
    if _mat_eq(lhs, rhs, modulus):
        # relation gives T^2 = 1; with odd q-power order only T = 1 remains
        if not _mat_eq(T, ident, modulus):
            raise ArithmeticError("relation held for a nontrivial odd-order T; impossible")
        return "forces_identity"
    return "relation_violated"
