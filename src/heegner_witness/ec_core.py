"""Elliptic curves over Q: Weierstrass models, reduction mod p, point counts, a_n.

Curves are integral models y^2 + a1*x*y + a3*y = x^3 + a2*x^2 + a4*x + a6 with
the conductor N supplied and validated, not recomputed: every prime of N must
divide the discriminant, and reduction at small primes away from N must be
nonsingular. Models are assumed globally minimal.

a_p at a good prime p >= BSGS_MIN_P comes from Shanks-Mestre baby-step
giant-step on E and its quadratic twist (Cohen, GTM 138, 7.4.3), in
O(p^(1/4)) group operations per point, and below it from an O(p) sum of
quadratic characters, except where a batch runs BSGS blocks anyway: they
take its primes from LOCKSTEP_MIN_P up (`ap_many`). `ap` counts one prime:
with the enumerator `count_points` (a quadratic-residue table on the long
model) below BSGS_MIN_P, the measured crossover of the two scalar paths,
and with `_ap_bsgs` from there on. The enumerator has two more roles: it is the test
oracle for every batched path, and the independent recount that re-verifies
accepted primes p >= 5, a different model and algorithm from each of them.
Every path refuses p > POINT_COUNT_CEILING.

`ap_many` is the one batched path: the a_n table and the prime scan both
count through it. It sends p = 2 and 3 to `ap`, the primes 5 <= p <
BSGS_MIN_P to one `ap_flat` call, which sums the Legendre symbols of many
primes on the short model over the pairs {x, -x}, one numpy row per prime
in runs of consecutive primes, and the rest to one
`ap_lockstep` call: one prime per int64 numpy lane, _LANES lanes per block,
each lane running BSGS on one point with the complete projective addition of
Renes-Costello-Batina, so no lane needs an inversion or a case split, and
giant steps matched to baby steps by an exact float64 test of
p | X Z_j - X_j Z. When that block runs, it also takes every prime from
LOCKSTEP_MIN_P = 500 up, away from `ap_flat` (see below). A lane takes the
first x < _POINT_TRIES where f(x) and the 3-division polynomial are both
nonzero (`_lockstep_point`, which evaluates the tries in doubling windows
only on the lanes that have no x yet: x = 0 serves every lane unless
p | c4 c6), and one Legendre symbol chi_p(f) per lane says whether its point
(x f, f^2) lies on E or on the quadratic twist E', whose order 2p + 2 - #E
gives #E just as well. The point is never of order 2 or 3. The first giant
step [m]P is read off the baby-step table by fixed windows of 3 bits
(`_window_mul`): about bits + bits/3 additions and no select, where
double-and-add took 2 bits additions and 3 bits selects. A lane is decided
only when exactly one k in its Hasse interval has [k]P = O. Each lane sizes
its baby and giant steps by its own Hasse interval, and its decision depends
only on its prime and its point, never on the other lanes of its block. The
lanes that no block decides (no point, a degenerate sum in the lane's own
interval or several such k: 2.9-3.7% of the six field-search pool tables,
6.4% of the j = 0 curve [0,0,1,0,0], 7.7% of y^2 = x^3 + x and 9.3% of
y^2 = x^3 - x, primes 500 to 26,643) run once more, with the point on the
other curve of the pair, as Mestre's argument suggests (Cremona-Sutherland,
JTNB 22, 2010), when there are at least _BLOCK_MIN of them. Only the lanes
this twist pass leaves undecided, or fewer than _BLOCK_MIN, fall back to
`_ap_bsgs`, so every value equals the scalar one: 3 to 5 of 2,826 on those
pool tables, 8 on j = 0, 20 on y^2 = x^3 + x and 19 on y^2 = x^3 - x.
`_padd` reduces 8 of its values mod p, only where int64 needs it: with
p <= POINT_COUNT_CEILING = 10^6 its largest intermediate stays below
6 p^3 <= 6 * 10^18 < 2^63, and a higher ceiling fails a test, since numpy
wraps int64 products without a warning.

_LANES = 640. A block's memory is its baby-step table and giant-step
buffers, (3, s + 2, lanes) and (s, lanes) arrays; the point search, which
evaluated all _POINT_TRIES x at once as (tries, lanes) arrays, now adds
little. On g12283.1 near p = 26,000 the tracemalloc peak of one block is
390, 757, 944 and 1,506 KB at 256, 512, 640 and 1024 lanes (466 KB at 256
with the all-at-once search), while `_padd` costs 33-49, 47-72 and 53-77
us at 256, 512 and 640 lanes (47-75, 70-103 and 82-110 us with every value
reduced; medians of 300 calls, 5 alternated rounds, primes 2500 to
30,000), mostly per-call numpy overhead. So a wider block counts each
prime for less: `ap_lockstep` over the 2,554 good primes of g12283.1 in
[2500, 26,643] took 67, 50, 49 and 42 ms at 256, 512, 640 and 1024 lanes.
On the benchmark's field-search (8 s runs, 2-vCPU Xeon) wall_s was 0.160,
0.142 and 0.137 s at 256, 512 and 640 lanes, against 0.164 s for the
all-at-once search at 256 (medians over seeds 501-504 at 256, 501-510 at
512 and 640), and peak RSS rose over the all-at-once search by -0.1, 0.05
and 0.18 MB. (Those figures predate the per-lane search sizes.) Since no
decision depends on the block, _LANES moves no prime to or from
`_ap_bsgs`: 256, 640 and 1024 lanes give every prime the same output in
both passes over the good primes 500 to 30,000 of the pool tables, 37a,
[0,0,1,0,0] and y^2 = x^3 -+ x.

A block makes about 51 `_padd` calls of 41 numpy operations each, and
costs a few ms almost whatever its width: on 37a, the least of 15 runs in
each of two, on a loaded 2-vCPU Xeon, 1.9-2.4, 2.6-3.0, 5.4-5.5 and
7.2-9.5 ms for 4, 40, 256 and 640 primes from 2500, 2.2-4.0, 3.2-4.3,
6.2-6.3 and 8.7-10.1 ms from 2*10^4, and 2.7-5.1, 3.3-5.1, 9.8-10.9 and
10.4-14.9 ms from 10^5 (with the 13-remainder `_padd`), while `_ap_bsgs`
costs 0.10-0.27 ms per prime. So `ap_many` counts fewer than _BLOCK_MIN
primes >= BSGS_MIN_P with `_ap_bsgs`. _BLOCK_MIN is the measured
break-even of the kernel with the all-at-once point search: on 11a, 14a
and 37a, with 4 to 40 consecutive good primes from 2500, 2*10^4 and 10^5
(median of 9 runs, 2-vCPU Xeon), one `ap_lockstep` call became cheaper
than the scalar loop at 16 to 24 primes, median 20 in each of two runs
(the double-and-add kernel: median 28 and 32 on the same host, 32 when
first measured). The 8-remainder `_padd` moves it down a little: taken as
the first of 4, 6, ..., 40 primes where the block is cheaper, two runs
each, alternated with the 13-remainder law, it was median 16 and 14 (12 to
16 over the nine curve and start pairs) against 16 and 18 (14 to 22),
within this host's noise. _BLOCK_MIN stays 20 until the kernel is re-tuned
on the step-5 tables. The same break-even gates the twist pass: a twist
block for a few lanes costs more than counting them one by one.

A block that runs anyway takes the primes from LOCKSTEP_MIN_P up, but no
block is started for them. `ap_flat` cost about 30 p ns per prime when it
summed every x (about 13 p ns over the pairs {x, -x}, below), while
one more lane in a block that runs anyway costs 21-26 us, its share of the
twist pass and the scalar fallback included: on g12283.1, 37a and 57a
(medians of 11 and of 31 alternated calls in two runs, 2-vCPU Xeon),
`ap_flat` took 11.7-12.5 ms for the 272 good primes in [500, 2500), and
`ap_lockstep` 5.7-7.2 ms more for the primes 500 to 26,643 than for 2500
to 26,643 (with the 8-remainder `_padd`, 2.7-5.5 ms, 10-20 us per lane,
against 3.7-6.1 ms for the 13-remainder law in the same alternated runs,
while `ap_flat` took 8.1-11.4 ms). A block started for small primes alone
pays only for many of them: grown to 1000 terms, a table took 2.3-2.7 ms
with `ap_flat` alone against 4.4-5.9 ms with its 73 primes from 500 in a
block, and grown to 2500 terms 12.1-13.5 ms against 9.8-10.7 ms (one run).
Over the pairs, on 37a, 57a, 91a and g12283.1 (medians of 21 alternated
calls, two runs), `ap_flat` took 0.7-0.9 ms for those 73 primes against
1.3-2.1 ms for a block, and 4.3-6.2 ms for the 272 primes in [500, 2500)
against 3.3-6.0 ms; on the tables the pinned run grows, a block of their
own for the primes from 500 wins only on 91a (4.7 against 3.9 ms for its
call) and loses on 57a, 65a, 131a, 14a, 61a and 83a (12.8 against 16.2 ms
over all seven calls).
On the benchmark (20 s runs, 10 alternated pairs) the fill, with the
per-lane search sizes, took pinned-cold wall_s from 0.222 to 0.201 s and
aux-search from 0.032 to 0.026 s. BSGS_MIN_P itself does not move: moving
it to 1000, 1500 or 2500 for whole tables of 2,500 to 10^5 terms was
within 16% of the fastest setting, none of them best throughout, and up to
45% longer at 4000 (g25133.1, 37a and [0,0,1,0,0], median of 5, two runs,
before the fill). LOCKSTEP_MIN_P stays above 229, where `_ap_bsgs` is
proven (Cremona-Sutherland), and from 500 up every table has the rows
[0]P .. [7]P that `_window_mul` reads. a_p values depend on neither.

_FLAT_CHUNK = 2^12 pairs {x, -x} per run of `ap_flat`. Replaying the 58
`ap_flat` calls of one in-process run of the pinned table (1,878 primes;
median of 21 rounds, two runs, 2-vCPU Xeon), runs of 2^11, 2^12, 2^13, 2^14
and 2^15 pairs took 23.0-23.7, 18.3-18.4, 17.6-18.0, 18.1-18.6 and 20.3-20.5
ms, against 22.9-23.0 ms for the full-range kernel it replaced (2^13 x
values per chunk, four remainders per pair); on 37a's 364 good primes below
2500, 4.5-6.7 ms at 2^13 pairs against 7.0-7.2 ms (median of 41, four runs).
The tracemalloc peak of that 37a call is 228, 413 and 709 KB at 2^12, 2^13
and 2^14 pairs, against 598 KB for the full-range kernel. Runs of 2^12 pairs
take about 4% more time than 2^13 but keep peak RSS lower on the benchmark's
aux-search (3 s runs, three each, 2-vCPU Xeon): 32.75-32.82 MB on g427.2 at
2^12 and 32.95-32.96 MB at 2^13, against 32.82-32.85 MB for the full-range
kernel, and 32.93-32.97, 32.92-32.97 and 33.08-33.11 MB on g427.1. The
kernel stays int64, like the rest of this module, because int32 and int8
numpy loops fault in more of numpy's code and peak RSS is a benchmark
metric: a full-range int32 kernel (x, A, B < p < 2500 keep every value below
2^24) raised the benchmark's peak RSS by 0.15-0.38 MB over the per-prime
enumeration it replaced (10 alternating pairs per workload), against -0.02
to +0.18 MB for int64; a half-range int32 prototype measured 7% less time
than this kernel but 0.4 MB more peak RSS, and one that casts its columns to
int32 at entry took 18.9 ms against 16.2 ms on the replay (both at 2^13).

_AN_BLOCK = 2^11 n: blocks of 2^13 raised the peak RSS of a witness run on
the aux-search curve g427.1 by 0.23 MB over 2^11, while 2^11 costs 0.3 ms
more per 26,600-term table.
"""

from __future__ import annotations

import math

import numpy as np

from .arith import factorize, prime_divisors, prime_mask, primes_upto
from .quadforms import kronecker

POINT_COUNT_CEILING = 10**6
BSGS_MIN_P = 2500  # measured crossover: count_points is faster than _ap_bsgs below it
LOCKSTEP_MIN_P = 500  # ap_many's lockstep block, when one runs, takes the primes from here up
_LANES = 640  # primes per lockstep block
_BLOCK_MIN = 20  # fewer primes >= BSGS_MIN_P than this are counted one by one
_POINT_TRIES = 32  # x values a lane tries for a point before it falls back
_FLAT_CHUNK = 2**12  # pairs {x, -x} per run of ap_flat
_AN_BLOCK = 2**11  # n per block of the a_n recursion
_VALIDATION_PMAX = 50


class BadReductionError(ValueError):
    """Operation requires good reduction at p, but p divides the conductor."""


class PointCountBoundError(ValueError):
    """Requested field size exceeds POINT_COUNT_CEILING."""


class CurveQ:
    """A curve over Q by its a-invariants, conductor N and an optional label,
    checked at construction against its discriminant.

    A slotted class, not a tuple: `b_invariants` and `discriminant` tell a
    CurveQ from an a-invariant tuple by `isinstance(curve, tuple)`. Equal and
    hashed by all seven fields.
    """

    __slots__ = ("a1", "a2", "a3", "a4", "a6", "N", "label")

    def __init__(self, a1: int, a2: int, a3: int, a4: int, a6: int, N: int,
                 label: str | None = None):
        self.a1, self.a2, self.a3, self.a4, self.a6 = a1, a2, a3, a4, a6
        self.N, self.label = N, label
        if N <= 0:
            raise ValueError("conductor must be positive")
        d = discriminant(self)
        if d == 0:
            raise ValueError("singular model (discriminant 0)")
        for p in prime_divisors(N):
            if d % p != 0:
                raise ValueError(f"conductor prime {p} does not divide the discriminant")
        for p in primes_upto(_VALIDATION_PMAX):
            if N % p != 0 and d % p == 0:
                raise ValueError(
                    f"model is singular mod {p} but {p} does not divide N; "
                    "non-minimal model or wrong conductor"
                )

    @property
    def ainvs(self) -> tuple[int, int, int, int, int]:
        return (self.a1, self.a2, self.a3, self.a4, self.a6)

    def __eq__(self, other):
        if type(other) is not CurveQ:
            return NotImplemented
        return (self.ainvs, self.N, self.label) == (other.ainvs, other.N, other.label)

    def __hash__(self):
        return hash((self.ainvs, self.N, self.label))

    def __repr__(self):
        a1, a2, a3, a4, a6 = self.ainvs
        return (f"CurveQ(a1={a1!r}, a2={a2!r}, a3={a3!r}, a4={a4!r}, a6={a6!r}, "
                f"N={self.N!r}, label={self.label!r})")


def b_invariants(curve) -> tuple[int, int, int, int]:
    """b2, b4, b6, b8 of a CurveQ or of an a-invariant tuple."""
    a1, a2, a3, a4, a6 = curve if isinstance(curve, tuple) else curve.ainvs
    b2 = a1 * a1 + 4 * a2
    b4 = 2 * a4 + a1 * a3
    b6 = a3 * a3 + 4 * a6
    b8 = a1 * a1 * a6 + 4 * a2 * a6 - a1 * a3 * a4 + a2 * a3 * a3 - a4 * a4
    return b2, b4, b6, b8


def c_invariants(curve: CurveQ) -> tuple[int, int]:
    b2, b4, b6, _ = b_invariants(curve)
    c4 = b2 * b2 - 24 * b4
    c6 = -b2 ** 3 + 36 * b2 * b4 - 216 * b6
    return c4, c6


def discriminant(curve) -> int:
    """Discriminant of a CurveQ or an a-invariant tuple (0 for a singular tuple)."""
    b2, b4, b6, b8 = b_invariants(curve)
    return -b2 * b2 * b8 - 8 * b4 ** 3 - 27 * b6 * b6 + 9 * b2 * b4 * b6


# The 13 rational CM j-invariants with their CM fields' discriminants; the orders
# -12, -27 have field -3, -16 has -4, -28 has -7 (Silverman, Advanced Topics, A.3)
CM_FIELD_OF_J = {
    0: -3, 54000: -3, -12288000: -3, 1728: -4, 287496: -4, -3375: -7, 16581375: -7,
    8000: -8, -32768: -11, -884736: -19, -884736000: -43, -147197952000: -67,
    -262537412640768000: -163,
}


def cm_field(curve: CurveQ) -> int | None:
    """Discriminant of the CM field of E, or None: E has CM iff j(E) = c4^3 / Delta
    is an integer among the 13 rational CM j-invariants."""
    c4, delta = c_invariants(curve)[0], discriminant(curve)
    return CM_FIELD_OF_J.get(c4**3 // delta) if c4**3 % delta == 0 else None


def good_reduction(curve: CurveQ, p: int) -> bool:
    return curve.N % p != 0


class CurveFp:
    """A curve with good reduction at p, coefficients reduced mod p; a
    singular reduction raises BadReductionError at construction."""

    __slots__ = ("p", "a1", "a2", "a3", "a4", "a6")

    def __init__(self, p: int, a1: int, a2: int, a3: int, a4: int, a6: int):
        self.p, self.a1, self.a2, self.a3, self.a4, self.a6 = p, a1, a2, a3, a4, a6
        if discriminant((a1, a2, a3, a4, a6)) % p == 0:
            raise BadReductionError(f"singular reduction mod {p}")


def reduce_mod(curve: CurveQ, p: int) -> CurveFp:
    if not good_reduction(curve, p):
        raise BadReductionError(f"{curve.label or curve.ainvs} has bad reduction at {p}")
    a1, a2, a3, a4, a6 = (a % p for a in curve.ainvs)
    return CurveFp(p, a1, a2, a3, a4, a6)


def count_points(curve_fp: CurveFp) -> int:
    """#E(F_p) including the point at infinity."""
    p = curve_fp.p
    if p > POINT_COUNT_CEILING:
        raise PointCountBoundError(f"p = {p} exceeds enumeration ceiling {POINT_COUNT_CEILING}")
    a1, a2, a3, a4, a6 = curve_fp.a1, curve_fp.a2, curve_fp.a3, curve_fp.a4, curve_fp.a6
    if p == 2:
        cnt = 1
        for x in (0, 1):
            for y in (0, 1):
                if (y * y + a1 * x * y + a3 * y - (x ** 3 + a2 * x * x + a4 * x + a6)) % 2 == 0:
                    cnt += 1
        return cnt
    # odd p: complete the square, (2y + a1 x + a3)^2 = 4*rhs + (a1 x + a3)^2
    x = np.arange(p, dtype=np.int64)
    x2 = (x * x) % p
    x3 = (x2 * x) % p
    rhs = (x3 + a2 * x2 + a4 * x + a6) % p
    lin = (a1 * x + a3) % p
    disc = (4 * rhs + lin * lin) % p
    chi = np.full(p, -1, dtype=np.int64)
    chi[(x * x) % p] = 1
    chi[0] = 0
    return int((1 + chi[disc]).sum()) + 1


def _add(P, Q, a, p):
    # affine group law on y^2 = x^3 + a*x + b over F_p; None is the point at infinity
    if P is None:
        return Q
    if Q is None:
        return P
    x1, y1 = P
    x2, y2 = Q
    if x1 == x2:
        if (y1 + y2) % p == 0:
            return None
        lam = (3 * x1 * x1 + a) * pow(2 * y1, -1, p) % p
    else:
        lam = (y2 - y1) * pow(x2 - x1, -1, p) % p
    x3 = (lam * lam - x1 - x2) % p
    return (x3, (lam * (x1 - x3) - y1) % p)


def _mul(k, P, a, p):
    # [k]P for k >= 1, left-to-right double-and-add
    R = P
    for bit in bin(k)[3:]:
        R = _add(R, R, a, p)
        if bit == "1":
            R = _add(R, P, a, p)
    return R


def _bsgs_multiple(P, a, p, lo, hi):
    """Some k >= 1 with [k]P = O, given that one lies in [lo, hi]."""
    s = math.isqrt(hi - lo) + 1
    baby = {}  # x(jP) -> (j, y(jP)) for 1 <= j <= s
    Q = P
    for j in range(1, s + 1):
        if Q is None:
            return j
        baby.setdefault(Q[0], (j, Q[1]))
        Q = _add(Q, P, a, p)
    # giant steps: R = [m]P covers the window [m - s, m + s] through +-jP
    step = 2 * s + 1
    G = _mul(step, P, a, p)
    m = lo + s
    R = _mul(m, P, a, p)
    while m - s <= hi:
        if R is None:
            return m
        hit = baby.get(R[0])
        if hit is not None:
            j, y = hit
            return m - j if y == R[1] else m + j
        R = _add(R, G, a, p)
        m += step
    raise ArithmeticError(f"no multiple of the point order in the Hasse interval mod {p}")


def _point_order(P, a, p, lo, hi):
    """Exact order of P, given that some multiple of it lies in [lo, hi]."""
    k = _bsgs_multiple(P, a, p, lo, hi)
    for ell, _ in factorize(k):
        while k % ell == 0 and _mul(k // ell, P, a, p) is None:
            k //= ell
    return k


def _ap_bsgs(curve: CurveQ, p: int) -> int:
    """a_p by Shanks-Mestre baby-step giant-step on E and its quadratic twist.

    Works on the short model y^2 = f(x) = x^3 - 27 c4 x - 54 c6 mod p, p > 3.
    For x = 0, 1, 2, ... with f(x) != 0, (x f, f^2) lies on
    Y^2 = X^3 + A f^2 X + B f^3, which is E when f is a square and the
    quadratic twist E' (#E' = 2p + 2 - #E) when it is not. The exact order of
    each point is found by BSGS over the Hasse interval and prime stripping;
    the answer is returned only once exactly one #E in the interval is
    divisible by the lcm of the orders on E, with 2p + 2 - #E divisible by
    the lcm on E'. Cremona-Sutherland (JTNB 22, 2010) prove this happens for
    every p > 229 before x runs out.
    """
    c4, c6 = c_invariants(curve)
    A, B = -27 * c4 % p, -54 * c6 % p
    amax = math.isqrt(4 * p)
    lo, hi = p + 1 - amax, p + 1 + amax
    half = (p - 1) // 2
    lam_e = lam_t = 1
    for x in range(p):
        f = ((x * x + A) * x + B) % p
        if f == 0:
            continue
        on_e = pow(f, half, p) == 1
        a = A * f * f % p
        P = (x * f % p, f * f % p)
        lam = lam_e if on_e else lam_t
        if _mul(lam, P, a, p) is None:
            continue  # the order of P divides lam: nothing new
        lam = math.lcm(lam, _point_order(P, a, p, lo, hi))
        if on_e:
            lam_e = lam
        else:
            lam_t = lam
        # n = lam_e t with lam_e t = 2p + 2 (mod lam_t): one class mod lcm, by CRT
        g = math.gcd(lam_e, lam_t)
        if (2 * p + 2) % g:
            continue
        mod_t = lam_t // g
        t = (2 * p + 2) // g * pow(lam_e // g, -1, mod_t) % mod_t
        step = lam_e * mod_t
        first = lo + (lam_e * t - lo) % step
        if first <= hi < first + step:
            return p + 1 - first
    raise ArithmeticError(f"BSGS found no unique group order mod {p}")


def _padd(P, Q, a, b3, p):
    """P + Q on Y^2 = X^3 + a X + b, b3 = 3b, lane-wise in projective coordinates.

    The complete formulas of Renes-Costello-Batina (EUROCRYPT 2016, eq. (1)):
    no inversion and no case split, with O = (0:1:0). The sum is the
    degenerate (0:0:0) exactly when P - Q has order 2, and (0:0:0) then
    propagates through every later sum.

    Inputs, a and b3 lie in [0, p), p <= POINT_COUNT_CEILING, and are never
    written (they are rows and views of the baby-step table). Only 8 values
    are reduced, where int64 needs it; with p <= 10^6 every bound is below
    6 p^3 <= 6 * 10^18 < 2^63:
      t0 = X1 X2, t2 = Z1 Z2           in [0, p^2), unreduced
      u, v, w = X1 Y2 + X2 Y1, ...     in [0, 2 p^2), unreduced
      t1 = Y1 Y2                       reduced from [0, p^2)
      at2 = a t2                       reduced from [0, p^3)
      al = a v + b3 t2                 reduced from [0, 3 p^3)
      s = t1 + al, d = t1 - al         in [0, 2p) and (-p, p)
      be = a (t0 - at2) + b3 v         reduced from (-p^2, 3 p^3)
      ga = 3 t0 + at2                  reduced from [0, 3 p^2 + p)
      X3 = u d - w be                  reduced from (-4 p^3, 2 p^3)
      Y3 = s d + ga be                 reduced from (-2 p^2, 3 p^2)
      Z3 = w s + u ga                  reduced from [0, 6 p^3)
    Each output is the residue in [0, p) the fully reduced law gives.
    """
    X1, Y1, Z1 = P
    X2, Y2, Z2 = Q
    t0 = X1 * X2
    t1 = Y1 * Y2
    t1 %= p
    t2 = Z1 * Z2
    u = X1 * Y2
    u += X2 * Y1
    v = X1 * Z2
    v += X2 * Z1
    w = Y1 * Z2
    w += Y2 * Z1
    at2 = a * t2
    at2 %= p
    al = a * v
    al += b3 * t2
    al %= p
    s, d = t1 + al, t1 - al
    be = t0 - at2
    be *= a
    be += b3 * v
    be %= p
    ga = t0  # t0 is not read again
    ga *= 3
    ga += at2
    ga %= p
    X3 = u * d
    X3 -= w * be
    X3 %= p
    Y3 = s * d
    Y3 += ga * be
    Y3 %= p
    Z3 = w * s
    Z3 += u * ga
    Z3 %= p
    return X3, Y3, Z3


def _lane_pow(x, e, p):
    """x^e mod p lane-wise; x reduced mod p, e >= 0 per lane."""
    r = np.ones_like(x)
    for bit in range(int(e.max(initial=0)).bit_length()):
        r = np.where((e >> bit) & 1 == 1, r * x % p, r)
        x = x * x % p
    return r


def _lane_isqrt(n):
    """isqrt(n) lane-wise for int64 n >= 0 below 2^52: the float64 root,
    moved by one where it is too large or too small, so it is exact."""
    r = np.sqrt(n.astype(np.float64)).astype(np.int64)
    r -= r * r > n
    r += (r + 1) * (r + 1) <= n
    return r


def _window_mul(table, m, a, b3, p):
    """[m]P lane-wise for m >= 0, from table[:, j] = [j]P (0 <= j <= s, [0]P = O).

    `table` is (3, rows, lanes) int64 with rows >= 8. Fixed windows of 3 bits,
    read from the top, so every digit 0 .. 7 is a row of the table: three
    doublings and one addition per window after the top one, and no select.
    The width is fixed, not read from the table, so each lane's chain of sums
    depends only on its own m and P: digits above a lane's top one are 0 and
    only add O to O. A (0:0:0) sum propagates to the result.
    """
    w = 3
    lanes = np.arange(table.shape[2])
    top = max(int(m.max()).bit_length() - 1, 0) // w * w  # the top window's low bit
    R = table[:, m >> top, lanes]
    for shift in range(top - w, -1, -w):
        for _ in range(w):
            R = _padd(R, R, a, b3, p)
        R = _padd(R, table[:, m >> shift & (1 << w) - 1, lanes], a, b3, p)
    return R


def _leads(ln: np.ndarray) -> np.ndarray:
    """True at the first entry of each run of equal values in `ln`.

    The point search reads each lane's first usable x this way, from the
    nonzero entries, rather than by argmax, whose numpy code no other path
    runs: it raised a pass's peak RSS by 64 KB.
    """
    lead = np.ones(len(ln), dtype=bool)
    lead[1:] = ln[1:] != ln[:-1]
    return lead


def _lockstep_point(A: np.ndarray, B: np.ndarray, p: np.ndarray, twist: bool = False):
    """(x, f, on_e, found) per lane: the lane's point P = (x f, f^2), f = f(x).

    On the short model y^2 = f(x) = x^3 + A x + B of `_ap_bsgs`, a lane takes
    the first x < _POINT_TRIES where f and the 3-division polynomial
    3x^4 + 6A x^2 + 12B x - A^2 are both nonzero. With `twist` it takes the
    first such x whose chi_p(f) differs from chi_p(f) at the first such x, so
    the point lies on the other curve of the pair. The tries are evaluated in
    windows that double, x = 0, then 1-2, 3-6, 7-14, ..., each as a
    (lanes, window) array over only the lanes that have no x yet: x = 0
    serves every lane unless p | c4 c6, so a first pass mostly ends after one
    round, and a twist pass, where each try about halves the lanes left,
    after 3 or 4 rounds (the field-search pool's twist blocks of 82 to 105
    lanes), each with one `_lane_pow` call. on_e is
    chi_p(f) == 1 at the lane's x; a lane with no x (found is False) keeps
    x = 0 and f = 1.
    """
    x0, f = np.zeros_like(p), np.ones_like(p)
    first = np.zeros_like(p)  # with `twist`: chi_p(f) at the lane's first usable x, 0 before it
    todo = np.arange(len(p))  # the lanes with no x yet
    start = 0
    while start < _POINT_TRIES and todo.size:
        x = np.arange(start, min(2 * start + 1, _POINT_TRIES))
        q, a, b = p[todo, None], A[todo, None], B[todo, None]
        F = ((x * x + a) * x + b) % q  # (lanes, window)
        ok = (F != 0) & (((3 * x * x + 6 * a) * x * x + 12 * b * x - a * a) % q != 0)
        ln, c = np.nonzero(ok)  # by lane, then by x
        if twist:
            chi = np.where(_lane_pow(F[ln, c], (q[ln, 0] - 1) // 2, q[ln, 0]) == 1, 1, -1)
            ref = first[todo]
            new = _leads(ln) & (ref[ln] == 0)  # the lane's first usable x sets ref
            ref[ln[new]] = chi[new]
            first[todo] = ref
            keep = chi == -ref[ln]
            ln, c = ln[keep], c[keep]
        lead = _leads(ln)  # the lane's first x left
        ln, c = ln[lead], c[lead]
        x0[todo[ln]], f[todo[ln]] = x[c], F[ln, c]
        left = np.ones(len(todo), dtype=bool)
        left[ln] = False
        todo = todo[left]
        start = 2 * start + 1
    found = np.ones(len(p), dtype=bool)
    found[todo] = False
    on_e = first < 0 if twist else _lane_pow(f, (p - 1) // 2, p) == 1
    return x0, f, on_e, found


def _lockstep_orders(c4: int, c6: int, p: np.ndarray, twist: bool = False) -> np.ndarray:
    """#E(F_p) for each prime of the int64 array `p`, one lane each; 0 where undecided.

    One point per lane, P = (x f, f^2) from `_lockstep_point`, on
    Y^2 = X^3 + A f^2 X + B f^3, which is E when chi_p(f) = 1 and its
    quadratic twist E' (#E' = 2p + 2 - #E) otherwise; with `twist`, on the
    other curve of the pair from the one the first pass used. The 3-division
    polynomial of the scaled model at x f is f^4 times its value at x, so P
    has order > 3 on either curve; on a j = 0 model with B a square, x = 0
    would give order 3 at every prime.

    Each lane sizes its own search by its own Hasse interval [lo, hi] =
    [p + 1 - a, p + 1 + a], a = isqrt(4p): baby steps jP for 1 <= j <= s,
    s = isqrt(a) + 1, then giant steps [m]P, m = lo + s, lo + 3s + 1, ...,
    whose windows [m - s, m + s] cover [lo, hi]. The block shares one
    baby-step table, as deep as its largest s, and each lane matches only its
    own first s rows. The first [m]P comes by fixed windows from that table
    (`_window_mul`). [m]P = +-jP when p | d = X Z_j - X_j Z, tested in
    float64 as d/p == rint(d/p): d and p are exact there (|d| < 2^40), a
    multiple gives an exact integer quotient below 2^30, and a non-multiple
    lies at least 1/p > 2^-20 from every integer while the division rounds
    by at most 2^-23, so the test is exact and needs no int64 remainder.
    Each giant step only records its matches, a sum with Z = 0 only at
    j = 1 (it matches every baby step); the signs, read by
    cross-multiplying Y, and the counts are resolved once after the loop.
    Every k in [lo, hi] with [k]P = O is counted, and a lane is decided when
    there is exactly one: the group order of P's curve is a multiple of the
    order of P in [lo, hi], so it is that k, and #E is k or 2p + 2 - k. A
    lane with no point, with ord P <= s, with two or more such k, or with a
    (0:0:0) sum while its window still lies in [lo, hi] reads 0. A (0:0:0)
    sum after that hides nothing, and the other lanes of the block, its
    width and its largest prime change none of these tests: a lane's output
    depends only on its prime, its point and `twist`.
    """
    if not _POINT_TRIES:  # no x to try: every lane is undecided
        return np.zeros_like(p)
    amax = _lane_isqrt(4 * p)
    lo, hi = p + 1 - amax, p + 1 + amax
    s = _lane_isqrt(amax) + 1
    A = np.array([-27 * c4 % q for q in p.tolist()], dtype=np.int64)
    B = np.array([-54 * c6 % q for q in p.tolist()], dtype=np.int64)
    x0, f, on_e, found = _lockstep_point(A, B, p, twist)
    a = A * f % p * f % p
    b3 = 3 * B * f % p * f % p * f % p
    P = (x0 * f % p, f * f % p, np.ones_like(p))

    depth, lanes = int(s.max()), np.arange(len(p))
    table = np.empty((3, depth + 2, len(p)), dtype=np.int64)  # table[:, j] = [j]P
    table[:, 0] = [[0], [1], [0]]
    table[:, 1] = Q = P
    for j in range(2, depth + 2):
        table[:, j] = Q = _padd(Q, P, a, b3, p)
    G = _padd(table[:, s + 1, lanes], table[:, s, lanes], a, b3, p)  # [2s + 1]P
    # X and Z of the baby steps are kept as float64 for the match
    Xb, Zb = table[0, 1 : depth + 1].astype(np.float64), table[2, 1 : depth + 1].astype(np.float64)
    own = np.arange(1, depth + 1)[:, None] <= s  # the lane's own baby steps
    # ord P <= s leaves several multiples in [lo, hi]: such a lane is undecided
    big = ~(own & (Zb == 0)).any(axis=0)
    if not big.any():
        return np.zeros_like(p)
    Xb[~(own & big)] = np.nan  # a NaN quotient matches nothing
    windows = 2 * amax // (2 * s + 1) + 1  # the last one reaches hi
    R = _window_mul(table, lo + s, a, b3, p)

    pf = p.astype(np.float64)
    quo, near = np.empty_like(Xb), np.empty_like(Xb)  # reused by every giant step
    steps = []  # (j, lane, Y, Z) of each giant step's matches
    for i in range(int(windows.max())):
        if i:
            R = _padd(R, G, a, b3, p)
        X, Y, Z = R
        np.multiply(X.astype(np.float64), Zb, out=quo)
        quo -= np.multiply(Xb, Z.astype(np.float64), out=near)
        quo /= pf
        j, ln = np.nonzero(quo == np.rint(quo, out=near))  # [m]P = +-[j + 1]P
        Zm = Z[ln]
        first = (Zm != 0) | (j == 0)  # a sum with Z = 0 matches every baby step: keep one
        j, ln = j[first], ln[first]
        steps.append((j, ln, Y[ln], Zm[first]))
    del Xb, Zb, quo, near  # the block's largest buffers, before the matches are resolved

    i = np.repeat(np.arange(len(steps)), [len(st[0]) for st in steps])
    j, ln, Y, Z = (np.concatenate(v) for v in zip(*steps))
    m = lo[ln] + s[ln] + i * (2 * s[ln] + 1)
    yz, zy, q = Y * table[2, j + 1, ln], table[1, j + 1, ln] * Z, p[ln]
    plus, minus = (yz - zy) % q == 0, (yz + zy) % q == 0
    o = Z == 0  # [m]P = O, recorded once, against [1]P
    ks = np.concatenate((m[plus] - j[plus] - 1, m[minus] + j[minus] + 1, m[o]))
    kl = np.concatenate((ln[plus], ln[minus], ln[o]))
    inside = (lo[kl] <= ks) & (ks <= hi[kl])
    hits = np.bincount(kl[inside], minlength=len(p))
    last_k = np.zeros_like(p)
    last_k[kl[inside]] = ks[inside]
    # a (0:0:0) sum matches every baby step too, and so does every later sum
    void = np.zeros(len(p), dtype=bool)
    void[ln[(Y == 0) & (Z == 0) & (i < windows[ln])]] = True
    decided = found & big & ~void & (hits == 1)
    return np.where(decided, np.where(on_e, last_k, 2 * p + 2 - last_k), 0)


def ap_lockstep(curve: CurveQ, primes) -> np.ndarray:
    """a_p for good primes LOCKSTEP_MIN_P <= p <= POINT_COUNT_CEILING, as `_ap_bsgs` gives.

    The primes run `_lockstep_orders` in blocks of _LANES, in the order
    given; a block's baby-step table is as deep as its largest prime needs,
    so ascending primes give tight blocks, and memory stays bounded. When at
    least _BLOCK_MIN lanes are left undecided by every block, they run once
    more, in blocks of _LANES, each with its point on the other curve of the
    pair E, E' (the twist pass). The lanes still undecided, or fewer than
    _BLOCK_MIN, fall back to `_ap_bsgs`. Every value is Hasse-checked. The
    ceiling keeps `_padd`'s largest intermediate, below 6 p^3, inside int64,
    and the floor gives every table the rows [0]P .. [7]P that `_window_mul`
    reads.
    """
    ps = np.array(primes, dtype=np.int64)
    for q in ps.tolist():
        if q > POINT_COUNT_CEILING:
            raise PointCountBoundError(f"p = {q} exceeds point count ceiling {POINT_COUNT_CEILING}")
        if q < LOCKSTEP_MIN_P:
            raise ValueError(f"p = {q} is below LOCKSTEP_MIN_P = {LOCKSTEP_MIN_P}")
        if not good_reduction(curve, q):
            raise BadReductionError(f"{curve.label or curve.ainvs} has bad reduction at {q}")
    c4, c6 = c_invariants(curve)
    n = np.empty_like(ps)
    for i in range(0, len(ps), _LANES):
        n[i : i + _LANES] = _lockstep_orders(c4, c6, ps[i : i + _LANES])
    undecided = np.flatnonzero(n == 0)
    if len(undecided) >= _BLOCK_MIN:  # fewer are cheaper one by one, as in `ap_many`
        for i in range(0, len(undecided), _LANES):
            at = undecided[i : i + _LANES]
            n[at] = _lockstep_orders(c4, c6, ps[at], twist=True)
    for k in np.flatnonzero(n == 0).tolist():
        n[k] = ps[k] + 1 - _ap_bsgs(curve, int(ps[k]))
    out = ps + 1 - n
    bad = np.flatnonzero(out * out > 4 * ps)
    if bad.size:
        raise ArithmeticError(f"Hasse bound violated at p={ps[bad[0]]}: a_p={out[bad[0]]}")
    return out


def ap(curve: CurveQ, p: int) -> int:
    """Trace of Frobenius a_p = p + 1 - #E(F_p) at a prime of good reduction.

    Counted by enumeration below BSGS_MIN_P and by `_ap_bsgs` from there on.
    """
    cfp = reduce_mod(curve, p)
    if p < BSGS_MIN_P:
        a = p + 1 - count_points(cfp)
    elif p > POINT_COUNT_CEILING:
        raise PointCountBoundError(f"p = {p} exceeds point count ceiling {POINT_COUNT_CEILING}")
    else:
        a = _ap_bsgs(curve, p)
    if a * a > 4 * p:
        raise ArithmeticError(f"Hasse bound violated at p={p}: a_p={a}")
    return a


def _flat_groups(ps: list[int]):
    """(i, j, top) for runs ps[i:j] of consecutive primes whose rows, each
    top // 2 pairs wide, top the run's largest prime, hold at most
    _FLAT_CHUNK pairs in all; a prime wider than that is a run alone."""
    i = 0
    while i < len(ps):
        top, j = ps[i], i + 1
        while j < len(ps) and (j + 1 - i) * (max(top, ps[j]) // 2) <= _FLAT_CHUNK:
            top = max(top, ps[j])
            j += 1
        yield i, j, top
        i = j


def ap_flat(curve: CurveQ, primes) -> np.ndarray:
    """a_p for good primes 5 <= p < BSGS_MIN_P, as int64 in the order given.

    `ap_many` sends it the primes below BSGS_MIN_P, or only those below
    LOCKSTEP_MIN_P when it runs a lockstep block, which counts the others
    for less.

    a_p = -sum_x chi_p(x^3 + A x + B) on the short model of `_ap_bsgs`
    (Cohen, GTM 138, 7.4), summed over the pairs {x, -x}: g(x) = x^3 + A x is
    odd, so
        a_p = -chi_p(B) - sum_{x=1}^{(p-1)/2} [chi_p(B + g(x)) + chi_p(B - g(x))].
    A pair costs two remainders, r = x^2 mod p and g = x (r + A) mod p, and
    two lookups, at B + g and B + p - g, in a quadratic-residue row of length
    2p that holds chi_p twice, so neither lookup needs a remainder. The r of
    x = 1..(p-1)/2 are the nonzero squares, each once, so they also write the
    row: 1 at r and r + p, 0 at 0 and p, -1 elsewhere.

    Consecutive primes of the input form runs of at most _FLAT_CHUNK pairs
    (`_flat_groups`), one row per prime as wide as the run's largest prime
    needs, with p, A and B as broadcast columns. The width is a running
    maximum, not a sort, so any order is counted right, and ascending
    primes, as the a_n table asks for them, leave little padding. A padded
    x of a narrower row writes only squares (0 and p are cleared after), and
    np.add.reduceat sums its lookups apart from the row's pairs, to be
    dropped. The arithmetic is int64 (see the module docstring for int32). A
    prime dividing N or the discriminant raises BadReductionError, and every
    value is Hasse-checked.
    """
    ps = np.array(primes, dtype=np.int64)
    if ps.size and (ps.min() < 5 or ps.max() >= BSGS_MIN_P):
        raise ValueError(f"ap_flat counts primes 5 <= p < BSGS_MIN_P = {BSGS_MIN_P}")
    c4, c6 = c_invariants(curve)
    N, A, B = (np.array([v % q for q in ps.tolist()], dtype=np.int64)
               for v in (curve.N, -27 * c4, -54 * c6))
    if (N == 0).any():
        p = ps[N == 0][0]
        raise BadReductionError(f"{curve.label or curve.ainvs} has bad reduction at {p}")
    singular = (4 * A * A % ps * A + 27 * B * B) % ps == 0  # for p >= 5: p | disc
    if singular.any():
        raise BadReductionError(f"singular reduction mod {ps[singular][0]}")
    out = np.empty_like(ps)
    for i, j, top in _flat_groups(ps.tolist()):
        k, w = j - i, top // 2
        p, a, b = ps[i:j, None], A[i:j, None], B[i:j, None]
        x = np.arange(1, w + 1)
        r = x * x % p  # x <= (p - 1)/2: each nonzero square once
        g = x * (r + a) % p
        row = np.arange(0, 2 * k * top, 2 * top)[:, None]
        chi = np.full(2 * k * top, -1, dtype=np.int8)  # each row chi_p twice over
        chi[row + r] = 1
        chi[row + p + r] = 1
        chi[row] = chi[row + p] = 0
        at = row + b
        pairs = np.empty(2 * k * w + 1, dtype=np.int8)  # 0 after the last row
        pairs[: k * w] = chi[at + g].reshape(-1)
        pairs[k * w : -1] = chi[at + p - g].reshape(-1)
        pairs[-1] = 0
        start = np.arange(0, 2 * k * w, w).reshape(2, k, 1)
        cut = np.concatenate((start, start + p // 2), axis=2).reshape(-1)
        sums = np.add.reduceat(pairs, cut, dtype=np.int64)[::2]  # the odd ones sum padding
        out[i:j] = -sums[:k] - sums[k:] - chi[at[:, 0]]
    hasse = np.flatnonzero(out * out > 4 * ps)
    if hasse.size:
        raise ArithmeticError(f"Hasse bound violated at p={ps[hasse[0]]}: a_p={out[hasse[0]]}")
    return out


def ap_many(curve: CurveQ, primes) -> np.ndarray:
    """a_p for each prime of good reduction in `primes`, as int64 in the order given.

    When at least _BLOCK_MIN primes are >= BSGS_MIN_P, every prime from
    LOCKSTEP_MIN_P up goes in one `ap_lockstep` call, which then runs anyway
    and counts a small prime for less than `ap_flat` does (see the module
    docstring). Otherwise the primes >= BSGS_MIN_P go through `ap` one by
    one. The primes 5 <= p left below that go through one `ap_flat` call,
    and p = 2 and 3 through `ap`. Ascending primes give tight blocks.
    """
    ps = np.asarray(primes, dtype=np.int64)
    out = np.empty_like(ps)
    block = np.count_nonzero(ps >= BSGS_MIN_P) >= _BLOCK_MIN
    batch = ps >= LOCKSTEP_MIN_P if block else np.zeros(len(ps), dtype=bool)
    flat = (ps >= 5) & (ps < BSGS_MIN_P) & ~batch
    for i in np.flatnonzero(~flat & ~batch).tolist():
        out[i] = ap(curve, int(ps[i]))
    if flat.any():
        out[flat] = ap_flat(curve, ps[flat])
    if batch.any():
        out[batch] = ap_lockstep(curve, ps[batch])
    return out


def reduction_type(curve: CurveQ, p: int) -> tuple[str, int]:
    """Classify bad reduction at p | N: ('multiplicative', +-1) or ('additive', 0).

    The sign is +1 for split multiplicative reduction, -1 for nonsplit. Tate's
    closed form holds at every p for an integral model singular at p (CurveQ
    checks p | Delta): additive iff p | c4, else the sign is (-c6/p) (AEC VII.5;
    Tate, "Algorithm for determining the type of a singular fiber", 1975). c4
    and c6 are unchanged by the translation moving the singular point to (0, 0),
    where b4 = b6 = 0 mod p. So for odd p, c4 = b2^2 and -c6 = b2^3 mod p, with
    b2 = a1^2 + 4 a2 the discriminant of the tangent cone y^2 + a1 x y - a2 x^2.
    At p = 2 a node has a1 odd, and -c6 = 1 + 4 a2 mod 8 is a square in Q_2 iff
    a2 is even, which is when the cone y^2 + x y + a2 x^2 splits over F_2.
    """
    if good_reduction(curve, p):
        raise ValueError(f"{p} is a prime of good reduction")
    c4, c6 = c_invariants(curve)
    if c4 % p == 0:
        return ("additive", 0)
    return ("multiplicative", kronecker(-c6, p))


class AnSeries:
    """a_1..a_{n_max} of one curve; `values` is indexed by n, values[0] unused."""

    __slots__ = ("n_max", "values")

    def __init__(self, n_max: int, values: np.ndarray):
        self.n_max, self.values = n_max, values

    def __getitem__(self, n: int) -> int:
        return int(self.values[n])


def _an_block(a: np.ndarray, lo: int, hi: int, small: np.ndarray, bad: dict[int, int]) -> None:
    """Fill a[lo:hi] by the Euler recursion, given a[:lo] and a[p] at every good prime < hi.

    `small` holds the primes up to at least sqrt(hi - 1), and `bad` the sign
    a_p of each bad prime. Write n = p^e m with p = spf(n), the smallest prime
    factor, found by sieving the block with `small`. The prime powers (m = 1)
    are filled in ascending e, and then a[n] = a[p^e] a[m] in passes, each
    pass taking the n whose m is already filled: one pass per extra distinct
    prime factor.
    """
    n = np.arange(lo, hi, dtype=np.int64)
    spf = np.zeros_like(n)
    for p in small[small * small < hi][::-1].tolist():  # the smallest factor is written last
        spf[-lo % p :: p] = p
    spf = np.where(spf == 0, n, spf)  # n is prime
    pe, e = spf.copy(), np.ones_like(n)
    more = np.flatnonzero(n // pe % spf == 0)
    while more.size:
        pe[more] *= spf[more]
        e[more] += 1
        more = more[n[more] // pe[more] % spf[more] == 0]
    m = n // pe
    power = m == 1
    for p, sign in bad.items():
        at = np.flatnonzero(power & (spf == p))
        a[n[at]] = sign ** e[at]
        power[at] = False
    for k in range(2, int(e[power].max(initial=1)) + 1):
        at = np.flatnonzero(power & (e == k))
        q, p = n[at], spf[at]
        a[q] = a[p] * a[q // p] - p * a[q // (p * p)]
    done = m == 1
    todo = np.flatnonzero(~done)
    while todo.size:
        mt = m[todo]
        ready = (mt < lo) | done[np.maximum(mt - lo, 0)]
        at = todo[ready]
        a[n[at]] = a[pe[at]] * a[m[at]]
        done[at] = True
        todo = todo[~ready]


def an_series(curve: CurveQ, n_max: int, known: AnSeries | None = None) -> AnSeries:
    """Fourier coefficients a_1..a_{n_max} via the Euler product recursion.

    Good p: a_{p^k} = a_p a_{p^{k-1}} - p a_{p^{k-2}}; multiplicative bad p:
    a_{p^k} = a_p^k with a_p = +-1; additive bad p: a_{p^k} = 0. Every new
    good a_p comes from one `ap_many` call, and the recursion then runs over
    blocks of _AN_BLOCK n (`_an_block`). `known`, a table of the same curve
    with at most n_max terms, is copied: only the primes and the n beyond it
    are computed.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    a = np.zeros(n_max + 1, dtype=np.int64)
    head = [0, 1] if known is None else known.values
    start = len(head)
    a[:start] = head
    bad = {p: reduction_type(curve, p)[1] for p in prime_divisors(curve.N) if p <= n_max}
    is_prime = prime_mask(n_max)
    small = np.flatnonzero(is_prime[: math.isqrt(n_max) + 1])
    is_prime[list(bad)] = False
    good = np.flatnonzero(is_prime[start:]) + start
    a[good] = ap_many(curve, good)
    for lo in range(start, n_max + 1, _AN_BLOCK):
        _an_block(a, lo, min(lo + _AN_BLOCK, n_max + 1), small, bad)
    return AnSeries(n_max, a)
