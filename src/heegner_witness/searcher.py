"""Constructive searches: the field K, the prime q, the sequence {p_n}, Cartan counts.

Each candidate is tested directly against the defining conditions, so the
results are unconditional for the curve at hand; no effective Chebotarev
input and no open-image constant is ever needed. Search failures are
reported (bounded scans), never papered over.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

from .arith import crt_pair, euler_phi, is_prime, is_squarefree, prime_divisors, primes_upto
from . import ec_core
from .ec_core import CurveQ, ap_many, cm_field, count_points, good_reduction, reduce_mod
from .lseries import (
    DEFAULT_NONVANISHING_THRESHOLD,
    DEFAULT_PRECISION,
    LEval,
    LOverK,
    l_eval,
    l_over_K,
)
from .quadforms import kronecker

CARTAN_MODULUS_BOUND = 200


class FieldSearchExhausted(RuntimeError):
    def __init__(self, bound, rejected):
        super().__init__(f"no admissible imaginary quadratic field with |d_K| <= {bound}")
        self.bound = bound
        self.rejected = rejected


class PrimeSearchExhausted(RuntimeError):
    def __init__(self, bound, partial):
        super().__init__(
            f"prime scan bound {bound} reached with only {len(partial)} of the "
            "requested primes found"
        )
        self.bound = bound
        self.partial = partial


@dataclass
class FieldSearchResult:
    d_K: int
    cong4: bool
    coprime: bool
    heegner: bool
    lprime_nonzero: bool
    l_value_data: LOverK | None = None

    @property
    def accepted(self) -> bool:
        return self.cong4 and self.coprime and self.heegner and self.lprime_nonzero


def heegner_hypothesis(curve: CurveQ, d: int) -> bool:
    """Every prime dividing N splits in Q(sqrt(d))."""
    return all(kronecker(d, p) == 1 for p in prime_divisors(curve.N))


def find_K(
    curve: CurveQ,
    scan_bound: int = 499,
    threshold: float = DEFAULT_NONVANISHING_THRESHOLD,
    precision: float = DEFAULT_PRECISION,
    le: LEval | None = None,
) -> FieldSearchResult:
    """Smallest |d_K| with d_K = 1 mod 4, coprimality, Heegner hypothesis,
    and L'(E/K,1) != 0 at the truncation target `precision`; the scan is
    bounded, existence below the bound is not assumed.

    `le` is E's own `l_eval(curve, precision)`, which every candidate shares;
    it is computed once, before the scan, when not given."""
    if le is None:
        le = l_eval(curve, precision)
    rejected = []
    d = -7
    while -d <= scan_bound:
        if is_squarefree(d):
            cong4 = d % 4 == 1  # always true along this progression
            coprime = math.gcd(d, 2 * curve.N) == 1
            heegner = coprime and heegner_hypothesis(curve, d)
            res = FieldSearchResult(d, cong4, coprime, heegner, False)
            if cong4 and coprime and heegner:
                lk = l_over_K(curve, d, precision, threshold, le)
                res.l_value_data = lk
                res.lprime_nonzero = lk.nonzero
                if lk.nonzero:
                    return res
            rejected.append(res)
        d -= 4
    raise FieldSearchExhausted(scan_bound, rejected)


def cm_q_bound(d_K: int) -> float:
    """1 + 2 |d_K|^4 / phi(|d_K|), which q must exceed when E has CM."""
    return 1 + 2 * abs(d_K) ** 4 / euler_phi(abs(d_K))


def choose_q(curve: CurveQ, d_K: int) -> int:
    """Smallest admissible odd prime q.

    Non-CM: (q, 2 d_K N) = 1. CM by the field of discriminant d_F, read from
    j(E) by `ec_core.cm_field`: additionally (d_F/q) = 1 and q > `cm_q_bound`.
    The open-image constant is not enforced; the prime sequence is verified
    per prime instead.
    """
    d_F = cm_field(curve)
    lower = 3 if d_F is None else int(cm_q_bound(d_K)) + 1
    q = lower if lower % 2 == 1 else lower + 1
    while True:
        if is_prime(q) and math.gcd(q, 2 * d_K * curve.N) == 1:
            if d_F is None or (math.gcd(q, d_F) == 1 and kronecker(d_F, q) == 1):
                return q
        q += 2


@dataclass(frozen=True)
class PrimeSeqItem:
    p: int
    cong_q: bool
    inert: bool
    good_red: bool
    ap_ok: bool
    a_p: int
    ap_mod_q: int

    @property
    def accepted(self) -> bool:
        return self.cong_q and self.inert and self.good_red and self.ap_ok


def prime_sequence(
    curve: CurveQ,
    d_K: int,
    q: int,
    count: int,
    p_bound: int = 10**5,
) -> list[PrimeSeqItem]:
    """First `count` primes (ascending) with p = -1 mod q, p inert in K,
    good reduction, and q not dividing a_p.

    The three cheap conditions filter the primes up to `p_bound` lazily.
    `ap_many` counts the candidates' a_p in chunks, so the a_p above
    BSGS_MIN_P are counted in lockstep blocks, and a chunk with a block
    counts its candidates from LOCKSTEP_MIN_P = 500 up in it too: the first
    chunk has `count` candidates, and each later one doubles, up to
    _LANES = 640. The scan
    stops in the chunk that holds the count-th accepted prime, so the a_p of
    the rest of that chunk are counted but unused.
    """
    candidates = (
        p for p in primes_upto(p_bound)
        if p % q == q - 1 and kronecker(d_K, p) == -1 and good_reduction(curve, p)
    )
    items: list[PrimeSeqItem] = []
    size = count
    while len(items) < count:
        chunk = list(itertools.islice(candidates, size))
        if not chunk:
            raise PrimeSearchExhausted(p_bound, items)
        for p, a in zip(chunk, ap_many(curve, chunk).tolist()):
            if a % q == 0:
                continue
            items.append(PrimeSeqItem(p, True, True, True, True, a, a % q))
            if len(items) == count:
                break
        size = max(size, min(2 * size, ec_core._LANES))
    return items


def verify_prime_item(curve: CurveQ, d_K: int, q: int, item: PrimeSeqItem) -> bool:
    """Independent recomputation of all four flags for an accepted prime.

    a_p is recounted on the long model, by a different algorithm from the one
    `ap_many` used: `count_points` from p = 5 on (`ap_many` takes character
    sums on the short model below BSGS_MIN_P, or below LOCKSTEP_MIN_P in a
    chunk that runs a lockstep block, and BSGS above), and below 5, where
    `ap_many` itself calls `count_points`, by testing every (x, y) in
    F_p x F_p.
    """
    p = item.p
    if p < 5:
        a1, a2, a3, a4, a6 = curve.ainvs
        a = p - sum((y * y + a1 * x * y + a3 * y - x**3 - a2 * x * x - a4 * x - a6) % p == 0
                    for x in range(p) for y in range(p))
    else:
        a = p + 1 - count_points(reduce_mod(curve, p))
    return (
        p % q == q - 1
        and kronecker(d_K, p) == -1
        and curve.N % p != 0
        and a % q != 0
        and a == item.a_p
        and a % q == item.ap_mod_q
    )


def crt_target(q: int, d_K: int, a: int) -> int:
    """The residue b mod q|d_K| with b = -1 mod q and b = a mod |d_K|."""
    return crt_pair(q - 1, q, a % abs(d_K), abs(d_K))


@dataclass(frozen=True)
class CartanCountProblem:
    modulus: int
    types: tuple  # ('split' | 'nonsplit') per prime, aligned with sorted primes
    det_target: int
    trace_zero_mod: int | None = None  # count traces = 0 mod this divisor of m

    def __post_init__(self):
        m = self.modulus
        if m < 2 or not is_squarefree(m):
            raise ValueError(f"modulus {m} must be squarefree and > 1")
        if math.gcd(self.det_target, m) != 1:
            raise ValueError("determinant target must be invertible")
        ps = prime_divisors(m)
        if len(self.types) != len(ps):
            raise ValueError("one Cartan type per prime factor required")
        if self.trace_zero_mod is not None and m % self.trace_zero_mod != 0:
            raise ValueError("trace modulus must divide m")


def _local_cartan(p: int, kind: str):
    """(det, trace) multiset of the split/nonsplit Cartan subgroup of GL2(F_p)."""
    out = []
    if kind == "split":
        for x in range(1, p):
            for y in range(1, p):
                out.append(((x * y) % p, (x + y) % p))
    elif kind == "nonsplit":
        if p == 2:
            # F_4^*: elements 1, t, t+1 with t^2 = t + 1; matrix of u = a + bt
            # in basis (1, t) has det = norm, trace = 2a + b
            for a, b in ((1, 0), (0, 1), (1, 1)):
                det = (a * a + a * b + b * b) % 2
                tr = (2 * a + b) % 2
                out.append((det, tr))
        else:
            eps = next(e for e in range(2, p) if pow(e, (p - 1) // 2, p) == p - 1)
            for x in range(p):
                for y in range(p):
                    if (x, y) == (0, 0):
                        continue
                    det = (x * x - eps * y * y) % p
                    if det == 0:
                        continue
                    out.append((det, (2 * x) % p))
    else:
        raise ValueError(f"unknown Cartan type {kind!r}")
    return out


def cartan_counts(problem: CartanCountProblem) -> tuple[int, int]:
    """Exact (det_count, trace0_det_count) by enumerating the Cartan subgroup."""
    m = problem.modulus
    if m > CARTAN_MODULUS_BOUND:
        raise ValueError(f"modulus {m} exceeds brute-force bound {CARTAN_MODULUS_BOUND}")
    ps = prime_divisors(m)
    b = problem.det_target % m
    tz = problem.trace_zero_mod
    det_count, tr_count = 1, 1
    for p, kind in zip(ps, problem.types):
        loc = _local_cartan(p, kind)
        bp = b % p
        det_count *= sum(1 for d, _ in loc if d == bp)
        if tz is not None and tz % p == 0:
            tr_count *= sum(1 for d, t in loc if d == bp and t == 0)
        else:
            tr_count *= sum(1 for d, _ in loc if d == bp)
    if det_count < euler_phi(m):
        raise ArithmeticError(
            f"Cartan determinant fiber {det_count} below phi({m}) = {euler_phi(m)}"
        )
    return det_count, (tr_count if tz is not None else 0)


def cartan_group_order(m: int, types) -> int:
    order = 1
    for p, kind in zip(prime_divisors(m), types):
        order *= (p - 1) ** 2 if kind == "split" else p * p - 1
    return order
