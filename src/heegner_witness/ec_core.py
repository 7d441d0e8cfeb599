"""Elliptic curves over Q: Weierstrass models, reduction mod p, point counts, a_n.

Curves are integral models y^2 + a1*x*y + a3*y = x^3 + a2*x^2 + a4*x + a6 with
the conductor N supplied and validated, not recomputed: every prime of N must
divide the discriminant, and reduction at small primes away from N must be
nonsingular. Models are assumed globally minimal.

a_p at a good prime p >= BSGS_MIN_P comes from Shanks-Mestre baby-step
giant-step on E and its quadratic twist (Cohen, GTM 138, 7.4.3), in
O(p^(1/4)) group operations per point. BSGS_MIN_P is the measured crossover
below which the O(p) enumerator `count_points` (a quadratic-residue table)
is faster, so it counts those primes. The enumerator has two more roles: it
is the test oracle for the BSGS kernel, and the independent recount that
re-verifies accepted primes. Both paths refuse p > POINT_COUNT_CEILING.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .arith import factorize, prime_divisors, primes_upto

POINT_COUNT_CEILING = 10**6
BSGS_MIN_P = 2500  # measured crossover: count_points is faster below it
_VALIDATION_PMAX = 50


class BadReductionError(ValueError):
    """Operation requires good reduction at p, but p divides the conductor."""


class PointCountBoundError(ValueError):
    """Requested field size exceeds POINT_COUNT_CEILING."""


@dataclass(frozen=True)
class CurveQ:
    a1: int
    a2: int
    a3: int
    a4: int
    a6: int
    N: int
    label: str | None = None

    def __post_init__(self):
        if self.N <= 0:
            raise ValueError("conductor must be positive")
        d = discriminant(self)
        if d == 0:
            raise ValueError("singular model (discriminant 0)")
        for p in prime_divisors(self.N):
            if d % p != 0:
                raise ValueError(f"conductor prime {p} does not divide the discriminant")
        for p in primes_upto(_VALIDATION_PMAX):
            if self.N % p != 0 and d % p == 0:
                raise ValueError(
                    f"model is singular mod {p} but {p} does not divide N; "
                    "non-minimal model or wrong conductor"
                )

    @property
    def ainvs(self) -> tuple[int, int, int, int, int]:
        return (self.a1, self.a2, self.a3, self.a4, self.a6)


def b_invariants(curve: CurveQ) -> tuple[int, int, int, int]:
    a1, a2, a3, a4, a6 = curve.ainvs
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
    """Discriminant of the given model (0 for a singular tuple)."""
    if isinstance(curve, tuple):
        a1, a2, a3, a4, a6 = curve
        b2 = a1 * a1 + 4 * a2
        b4 = 2 * a4 + a1 * a3
        b6 = a3 * a3 + 4 * a6
        b8 = a1 * a1 * a6 + 4 * a2 * a6 - a1 * a3 * a4 + a2 * a3 * a3 - a4 * a4
    else:
        b2, b4, b6, b8 = b_invariants(curve)
    return -b2 * b2 * b8 - 8 * b4 ** 3 - 27 * b6 * b6 + 9 * b2 * b4 * b6


def good_reduction(curve: CurveQ, p: int) -> bool:
    return curve.N % p != 0


@dataclass(frozen=True)
class CurveFp:
    """A curve with good reduction at p, coefficients reduced mod p."""

    p: int
    a1: int
    a2: int
    a3: int
    a4: int
    a6: int

    def __post_init__(self):
        d = discriminant((self.a1, self.a2, self.a3, self.a4, self.a6))
        if d % self.p == 0:
            raise BadReductionError(f"singular reduction mod {self.p}")


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
        first = -(-lo // lam_e) * lam_e
        cands = [n for n in range(first, hi + 1, lam_e) if (2 * p + 2 - n) % lam_t == 0]
        if len(cands) == 1:
            return p + 1 - cands[0]
    raise ArithmeticError(f"BSGS found no unique group order mod {p}")


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


def reduction_type(curve: CurveQ, p: int) -> tuple[str, int]:
    """Classify bad reduction at p | N: ('multiplicative', +-1) or ('additive', 0).

    The sign is +1 for split multiplicative reduction (tangent slopes at the
    node rational over F_p), -1 for nonsplit.
    """
    if good_reduction(curve, p):
        raise ValueError(f"{p} is a prime of good reduction")
    a1, a2, a3, a4, a6 = (a % p for a in curve.ainvs)
    sing = None
    if p == 2:
        for x in (0, 1):
            for y in (0, 1):
                f = (y * y + a1 * x * y + a3 * y - (x ** 3 + a2 * x * x + a4 * x + a6)) % 2
                fx = (a1 * y - (3 * x * x + 2 * a2 * x + a4)) % 2
                fy = (2 * y + a1 * x + a3) % 2
                if f == 0 and fx == 0 and fy == 0:
                    sing = (x, y)
    else:
        inv2 = pow(2, -1, p)
        for x in range(p):
            y = (-(a1 * x + a3) * inv2) % p
            f = (y * y + a1 * x * y + a3 * y - (x ** 3 + a2 * x * x + a4 * x + a6)) % p
            fx = (a1 * y - (3 * x * x + 2 * a2 * x + a4)) % p
            if f == 0 and fx == 0:
                sing = (x, y)
                break
    if sing is None:
        raise ArithmeticError(f"no singular point found mod {p} despite p | N")
    r, t = sing
    # translate the singular point to the origin
    a1s = a1 % p
    a2s = (a2 + 3 * r) % p
    a3s = (a3 + r * a1 + 2 * t) % p
    a4s = (a4 + 2 * r * a2 + 3 * r * r - t * a1) % p
    a6s = (a6 + r * a4 + r * r * a2 + r ** 3 - t * a3 - t * t - r * t * a1) % p
    if (a3s, a4s, a6s) != (0, 0, 0):
        raise ArithmeticError(f"translation to singular point failed mod {p}")
    # tangent cone y^2 + a1 x y - a2 x^2; node iff two distinct tangents
    if p == 2:
        if a1s == 0:
            return ("additive", 0)
        return ("multiplicative", 1 if a2s == 0 else -1)
    dq = (a1s * a1s + 4 * a2s) % p
    if dq == 0:
        return ("additive", 0)
    return ("multiplicative", 1 if pow(dq, (p - 1) // 2, p) == 1 else -1)


@dataclass
class AnSeries:
    n_max: int
    values: np.ndarray  # index n, values[0] unused

    def __getitem__(self, n: int) -> int:
        return int(self.values[n])


def _spf_sieve(n: int) -> np.ndarray:
    spf = np.arange(n + 1, dtype=np.int64)
    for i in range(2, math.isqrt(n) + 1):
        if spf[i] == i:
            sl = spf[i * i :: i]
            sl[sl == np.arange(i * i, n + 1, i)] = i
    return spf


def an_series(curve: CurveQ, n_max: int) -> AnSeries:
    """Fourier coefficients a_1..a_{n_max} via the Euler product recursion.

    Good p: a_{p^k} = a_p a_{p^{k-1}} - p a_{p^{k-2}}; multiplicative bad p:
    a_{p^k} = a_p^k with a_p = +-1; additive bad p: a_{p^k} = 0.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    a = np.zeros(n_max + 1, dtype=np.int64)
    a[1] = 1
    if n_max == 1:
        return AnSeries(1, a)
    spf = _spf_sieve(n_max)
    bad = {p: reduction_type(curve, p)[1] for p in prime_divisors(curve.N) if p <= n_max}
    for n in range(2, n_max + 1):
        p = int(spf[n])
        m, e = n, 0
        while m % p == 0:
            m //= p
            e += 1
        if m > 1:
            a[n] = a[n // m] * a[m]
        elif p in bad:
            a[n] = bad[p] ** e
        elif e == 1:
            a[n] = ap(curve, p)
        else:
            a[n] = a[p] * a[n // p] - p * a[n // (p * p)]
    return AnSeries(n_max, a)
