"""Constructive searches: the field K, the prime q, the sequence {p_n}.

Each candidate is tested directly against the defining conditions, so the
results are unconditional for the curve at hand; no effective Chebotarev
input and no open-image constant is ever needed. Search failures are
reported (bounded scans), never papered over.
"""

from __future__ import annotations

import bisect
import itertools
import math
from typing import NamedTuple

from .arith import euler_phi, is_prime, is_squarefree, prime_divisors, primes_between
from . import ec_core
from .ec_core import AnSeries, CurveQ, ap_many, cm_field, count_points, good_reduction, reduce_mod
from .lseries import (
    DEFAULT_NONVANISHING_THRESHOLD,
    DEFAULT_PRECISION,
    LEval,
    LOverK,
    l_eval,
    l_over_K,
)
from .quadforms import kronecker


class FieldSearchExhausted(RuntimeError):
    """No candidate up to the bound was admissible; `rejected` lists each
    squarefree d tried, with its reason, as (d, reason) pairs."""

    def __init__(self, bound, rejected):
        super().__init__(f"no admissible imaginary quadratic field with |d_K| <= {bound}")
        self.bound = bound
        self.rejected = rejected


class PrimeSearchExhausted(RuntimeError):
    """The scan reached its bound; `candidates` counts the primes up to it
    that met the three cheap conditions, so had their a_p counted."""

    def __init__(self, bound, partial, candidates):
        super().__init__(
            f"prime scan bound {bound} reached with only {len(partial)} of the "
            f"requested primes found; {candidates} of the primes p <= {bound} have "
            "p = -1 mod q, are inert in K and have good reduction"
        )
        self.bound = bound
        self.partial = partial
        self.candidates = candidates


class FieldSearchResult(NamedTuple):
    d_K: int
    l_value_data: LOverK
    rejected: list  # (d, reason) for each squarefree d tried before d_K


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
    """Smallest |d_K| with d_K = 1 mod 4 squarefree, coprime to 2N, the
    Heegner hypothesis, and |L'(E/K,1)| > threshold at the truncation target
    `precision`; the scan is bounded, existence below the bound is not
    assumed, and `FieldSearchExhausted` lists every rejected d with its
    reason.

    `le` is E's own `l_eval(curve, precision)`, which every candidate shares;
    it is computed once, before the scan, when not given."""
    if le is None:
        le = l_eval(curve, precision)
    rejected = []
    for d in range(-7, -scan_bound - 1, -4):
        if not is_squarefree(d):
            continue
        if math.gcd(d, 2 * curve.N) != 1:
            rejected.append((d, f"not coprime to 2N = {2 * curve.N}"))
        elif not heegner_hypothesis(curve, d):
            rejected.append((d, "Heegner hypothesis fails: a prime dividing N does not split"))
        else:
            lk = l_over_K(curve, d, precision, threshold, le)
            if lk.nonzero:
                return FieldSearchResult(d, lk, rejected)
            rejected.append((d, f"L'(E/K,1) = {lk.value:.3e} is within the threshold {threshold:g} of 0"))
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


class PrimeSeqItem(NamedTuple):
    p: int
    a_p: int


def _candidates(curve: CurveQ, d_K: int, q: int, count: int, p_bound: int):
    """The primes p <= p_bound with p = -1 mod q, p inert in K and good
    reduction, ascending. Each segment (lo, hi] is sieved only when the one
    before it is used up. hi starts at count * q, as the k-th p = -1 mod q
    is k q - 1, so no smaller bound can hold `count` candidates; it doubles
    from there, and the last segment ends at p_bound."""
    lo, hi = 0, max(count, 1) * q
    while lo < p_bound:
        hi = min(hi, p_bound)
        ps = primes_between(lo + 1, hi)
        for p in ps[ps % q == q - 1].tolist():
            if kronecker(d_K, p) == -1 and good_reduction(curve, p):
                yield p
        lo, hi = hi, 2 * hi


def prime_sequence(
    curve: CurveQ,
    d_K: int,
    q: int,
    count: int,
    p_bound: int = 10**5,
    table: AnSeries | None = None,
) -> list[PrimeSeqItem]:
    """First `count` primes (ascending) with p = -1 mod q, p inert in K,
    good reduction, and q not dividing a_p.

    The three cheap conditions filter the primes lazily, in sieve segments
    whose end doubles from count * q and never passes `p_bound`
    (`_candidates`): a scan sieves only as far as the chunk it stops in.
    The candidates come in chunks: the first has `count` of them, and each
    later one doubles, up to _LANES = 640. A chunk's a_p up to the length
    of `table`, the curve's a_n table when one is held, are read from it;
    the table is never grown for the scan. `ap_many` counts the rest, so
    the a_p above BSGS_MIN_P are counted in lockstep blocks, and a chunk
    with a block counts its candidates from LOCKSTEP_MIN_P = 500 up in it
    too. The scan stops in the chunk that holds the count-th accepted
    prime, so the a_p of the rest of that chunk are counted but unused. A
    scan that runs out of candidates raises `PrimeSearchExhausted` with how
    many there were.
    """
    candidates = _candidates(curve, d_K, q, count, p_bound)
    known = 0 if table is None else table.n_max
    items: list[PrimeSeqItem] = []
    size, tried = count, 0
    while len(items) < count:
        chunk = list(itertools.islice(candidates, size))
        if not chunk:
            raise PrimeSearchExhausted(p_bound, items, tried)
        tried += len(chunk)
        held = bisect.bisect_right(chunk, known)
        a_ps = table.values[chunk[:held]].tolist() if held else []
        if held < len(chunk):
            a_ps += ap_many(curve, chunk[held:]).tolist()
        for p, a in zip(chunk, a_ps):
            if a % q == 0:
                continue
            items.append(PrimeSeqItem(p, a))
            if len(items) == count:
                break
        size = max(size, min(2 * size, ec_core._LANES))
    return items


def verify_prime_item(curve: CurveQ, d_K: int, q: int, item: PrimeSeqItem) -> bool:
    """Independent re-derivation of every condition on a sequence prime:
    p = -1 mod q, p inert in K, good reduction, q not dividing a_p, and
    a_p itself.

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
    )
