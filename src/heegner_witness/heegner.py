"""Numeric Heegner machinery: CM points on X_0(N), periods, traces, heights.

The modular parametrization is evaluated as z(tau) = sum a_n/n e^{2 pi i n tau}
into C/Lambda with the period lattice computed by the optimal complex AGM.
Heegner points at level c are represented by forms (A, B, C) with N | A and a
fixed square root of D = c^2 d_K mod 4N; the class group action is realized by
picking one such form per reduced class, the one of smallest A, by a scan
that runs until every class is found. Fricke reads W_N tau from the orbit.

All point identities are checked in C/Lambda up to sign and translation by
torsion of small order, which is exactly the ambiguity a Heegner system leaves
unpinned. The trace relation tries every sign and translate in one numpy
pass. The Manin constant is taken to be 1. The Gross-Zagier ratio and
biconditional would cancel any other; the Fricke check, which reads z(0) =
L(E,1) (Manin, Izv. 1972) modulo the lattice of E, assumes it.

A witness run sums each form once: `orbit_z` gives one z per class at the
run's one step-5 precision, and `gz_correspondence` (and so `trace_to_K`),
`fricke_diagnostic` and `trace_relation_check` read those z values with the
one period lattice the run builds. Only `trace_to_K` sums again, at a tenth
of that precision, to confirm a recognized point.
"""

from __future__ import annotations

import cmath
import functools
import math
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .arith import factorize, is_prime, is_squarefree
from .ec_core import CurveQ, b_invariants, c_invariants, discriminant
from .lseries import LEval, LOverK, cached_an, fsum_blocks, n_blocks
from .quadforms import class_number, kronecker, reduce_form
from .searcher import heegner_hypothesis

TERM_CEILING = 10**6
DEFAULT_TORSION_BOUND = 16
# the Fricke residual's allowance for rounding, which the z tails do not bound
FRICKE_ROUNDING = 1e-10


class PrecisionUnreachable(ArithmeticError):
    pass


# ---------------------------------------------------------------------------
# period lattice


def _agm_optimal(a: complex, b: complex) -> complex:
    for _ in range(300):
        if abs(a - b) <= 1e-15 * abs(a):
            return (a + b) / 2
        a1 = (a + b) / 2
        r = cmath.sqrt(a * b)
        if abs(a1 - r) > abs(a1 + r) or (
            abs(abs(a1 - r) - abs(a1 + r)) < 1e-18 * abs(a1) and (r / a1).imag <= 0
        ):
            r = -r
        a, b = a1, r
    raise ArithmeticError("AGM did not converge")


def _two_division_roots(curve: CurveQ):
    b2, b4, b6, _ = b_invariants(curve)
    rts = np.roots([4.0, float(b2), 2.0 * float(b4), float(b6)])
    # Newton polish on the exact cubic
    poly = lambda x: 4 * x**3 + b2 * x**2 + 2 * b4 * x + b6
    dpoly = lambda x: 12 * x**2 + 2 * b2 * x + 2 * b4
    rts = [complex(r) for r in rts]
    for _ in range(4):
        rts = [r - poly(r) / dpoly(r) for r in rts]
    if discriminant(curve) > 0:
        e1, e2, e3 = sorted((r.real for r in rts), reverse=True)
        return complex(e1), complex(e2), complex(e3)
    e1 = min(rts, key=lambda r: abs(r.imag)).real
    cpl = sorted((r for r in rts if abs(r.imag) > 1e-9), key=lambda r: -r.imag)
    return complex(e1), cpl[0], cpl[1]


class PeriodLattice(NamedTuple):
    curve: CurveQ
    omega1: float
    omega2: complex
    g2: float
    g3: float
    lambda_min: float
    wp_coeffs: tuple

    def coords(self, z):
        """(a, b) with z = a omega1 + b omega2, lane-wise over an array of z."""
        w1, w2 = self.omega1, self.omega2
        det = w1 * w2.imag  # w1 real
        b = z.imag * w1 / det
        a = (z.real - b * w2.real) / w1
        return a, b

    def reduce(self, z):
        """z moved by the nearest lattice point of the rounded basis, lane-wise."""
        a, b = self.coords(z)
        a = a - np.round(a)
        b = b - np.round(b)
        return a * self.omega1 + b * self.omega2

    def dist(self, z):
        """Distance from z to the nearest lattice point (rounded basis), lane-wise."""
        r = self.reduce(z)  # np.hypot, like abs of a Python complex, is libm's hypot
        return np.hypot(r.real, r.imag)


def period_lattice(curve: CurveQ) -> PeriodLattice:
    """Lattice of the real curve by the optimal AGM; validates against c4, c6.

    The check: with tau = w2/w1, q = e^{2 pi i tau} and u = 2 pi / w1,
    u^4 E4(tau) = c4 and u^6 E6(tau) = c6, where E4 = 1 + 240 S3 and
    E6 = 1 - 504 S5, S_k = sum n^k q^n / (1 - q^n), each within 1e-6 ref,
    ref = max(|c4|, |c6|, 1). The sums stop at the first n (at most 79)
    whose omitted tails move neither side by more than 1e-9 ref, a
    thousandth of the tolerance. With r = |q| < 1, each omitted term has
    |m^k q^m / (1 - q^m)| <= m^k r^m / (1 - r), and for m > n the ratio of
    consecutive m^k r^m is at most rho = ((n + 2)/(n + 1))^5 r, k <= 5.
    So while rho < 1, the tail of S_k past n is at most
    (n + 1)^k r^(n+1) / ((1 - r)(1 - rho)), and u^4 240 and u^6 504 times
    those tails are what the stop compares with 1e-9 ref.
    """
    e1, e2, e3 = _two_division_roots(curve)
    w1 = cmath.pi / _agm_optimal(cmath.sqrt(e1 - e3), cmath.sqrt(e1 - e2))
    w2 = cmath.pi / _agm_optimal(cmath.sqrt(e3 - e1), cmath.sqrt(e3 - e2))
    if abs(w1.imag) > 1e-10 * abs(w1):
        raise ArithmeticError("real period came out complex")
    w1 = abs(w1.real)
    if (w2 / w1).imag < 0:
        w2 = -w2
    q = cmath.exp(2j * cmath.pi * (w2 / w1))
    r = abs(q)
    c4, c6 = c_invariants(curve)
    ref = max(abs(c4), abs(c6), 1.0)
    u4, u6 = (2 * math.pi / w1) ** 4, (2 * math.pi / w1) ** 6
    s3 = s5 = 0j
    qn = 1.0 + 0j
    for n in range(1, 80):
        qn *= q
        t = qn / (1 - qn)
        s3 += n**3 * t
        s5 += n**5 * t
        rho = ((n + 2) / (n + 1)) ** 5 * r
        if rho < 1:
            tail = r ** (n + 1) / ((1 - r) * (1 - rho))
            if max(240 * u4 * (n + 1) ** 3, 504 * u6 * (n + 1) ** 5) * tail <= 1e-9 * ref:
                break
    scale = u4 * (1 + 240 * s3), u6 * (1 - 504 * s5)
    if abs(scale[0] - c4) > 1e-6 * ref or abs(scale[1] - c6) > 1e-6 * ref:
        raise ArithmeticError(
            f"period lattice fails invariant check: {scale} vs {(c4, c6)}"
        )
    g2 = c4 / 12.0
    g3 = c6 / 216.0
    K = 30
    c = [0.0] * (K + 1)
    c[1] = g2 / 20.0
    c[2] = g3 / 28.0
    for k in range(3, K + 1):
        c[k] = 3.0 * sum(c[m] * c[k - 1 - m] for m in range(1, k - 1)) / ((2 * k + 3) * (k - 2))
    lam = min(abs(w1), abs(w2), abs(w1 + w2), abs(w1 - w2))
    return PeriodLattice(curve, w1, w2, g2, g3, lam, tuple(c))


# ---------------------------------------------------------------------------
# exp / log between C/Lambda and the curve


class CPoint:
    """A point of E(C): z in C/Lambda (0 at the identity), (x, y) as a
    complex pair or None for the identity, and the precision of z.

    A slotted class, not a tuple: the point functions take an exact point as
    an (x, y) tuple, and `trace_to_K` raises `prec` in place.
    """

    __slots__ = ("z", "xy", "prec")

    def __init__(self, z: complex | None, xy: tuple | None, prec: float = 1e-12):
        self.z, self.xy, self.prec = z, xy, prec

    @property
    def is_identity(self) -> bool:
        return self.xy is None


def _wp(lattice: PeriodLattice, z: complex) -> tuple[complex, complex]:
    c = lattice.wp_coeffs
    z2 = z * z
    w = 1.0 / z2
    wd = -2.0 / (z2 * z)
    zp = 1.0 + 0j
    for k in range(1, len(c)):
        zp *= z2
        w += c[k] * zp
        wd += 2 * k * c[k] * zp / z
    return w, wd


def _add_complex(curve: CurveQ, P, Q):
    a1, a2, a3, a4, a6 = curve.ainvs
    if P is None:
        return Q
    if Q is None:
        return P
    x1, y1 = P
    x2, y2 = Q
    if abs(x1 - x2) < 1e-12 * (1 + abs(x1)):
        if abs(y2 - (-y1 - a1 * x1 - a3)) < 1e-9 * (1 + abs(y1)):
            return None
        lam = (3 * x1 * x1 + 2 * a2 * x1 + a4 - a1 * y1) / (2 * y1 + a1 * x1 + a3)
    else:
        lam = (y2 - y1) / (x2 - x1)
    x3 = lam * lam + a1 * lam - a2 - x1 - x2
    y3 = -(y1 + lam * (x3 - x1)) - a1 * x3 - a3
    return (x3, y3)


def _halve_and_double(lattice: PeriodLattice, z: complex):
    """(x, y) at z by halving into the wp series radius and doubling back; None at O."""
    curve = lattice.curve
    b2 = b_invariants(curve)[0]
    a1, _, a3, _, _ = curve.ainvs
    k = 0
    while abs(z) > 0.45 * lattice.lambda_min:
        z /= 2
        k += 1
    w, wd = _wp(lattice, z)
    x = w - b2 / 12.0
    y = (wd - a1 * x - a3) / 2.0
    P = (x, y)
    for _ in range(k):
        P = _add_complex(curve, P, P)
        if P is None:
            return None
    return P


def elliptic_exp(lattice: PeriodLattice, z: complex) -> CPoint:
    """Point of E(C) at z mod Lambda: x = wp(z) - b2/12, y from wp'."""
    zr = complex(lattice.reduce(z))
    if abs(zr) < 1e-13 * lattice.lambda_min:
        return CPoint(0j, None)
    P = _halve_and_double(lattice, zr)
    if P is None:
        return CPoint(zr, None)
    return CPoint(zr, P, 1e-12 * max(1.0, abs(P[0])))


# ---------------------------------------------------------------------------
# Heegner forms and the modular parametrization


class HeegnerTau(NamedTuple):
    A: int
    B: int
    C: int
    D: int
    level: int

    @property
    def tau(self) -> complex:
        return (-self.B + 1j * math.sqrt(-self.D)) / (2 * self.A)


class HeegnerOrbit(NamedTuple):
    curve: CurveQ
    d_K: int
    level: int
    D: int
    taus: list  # one HeegnerTau per class of Pic(O_c), in reduced-class order

    @property
    def class_count(self) -> int:
        return len(self.taus)


def heegner_orbit(curve: CurveQ, d_K: int, level: int = 1) -> HeegnerOrbit:
    """One Heegner form per class of disc D = level^2 d_K with N | A.

    Needs the Heegner hypothesis for (E, K), level squarefree and coprime to
    N d_K with every prime of the level inert in K; raises ValueError
    otherwise, and for nothing else.

    Scans A = N a for a = 1, 2, ... and keeps, per class, the first form
    found, i.e. the one of smallest A. The scan ends: every class of
    Pic(O_D) holds a primitive form (A, B, C) with N | A and B = beta
    (mod 2N) (Gross, "Heegner points on X_0(N)", 1984, section 1), and B
    can be moved into (-A, A] by B -> B + 2A without leaving that residue.
    """
    N = curve.N
    if not heegner_hypothesis(curve, d_K):
        raise ValueError(f"Heegner hypothesis fails for N = {N}, d_K = {d_K}")
    if level < 1 or not is_squarefree(level):
        raise ValueError("level must be a positive squarefree integer")
    if math.gcd(level, N * d_K) != 1:
        raise ValueError("level must be coprime to N d_K")
    for p, _ in factorize(level):
        if kronecker(d_K, p) != -1:
            raise ValueError(f"level prime {p} is not inert in Q(sqrt({d_K}))")
    D = level * level * d_K
    beta = next((B for B in range(2 * N) if (B * B - D) % (4 * N) == 0), None)
    if beta is None:
        raise ValueError(f"no square root of {D} mod {4 * N}; Heegner hypothesis violated")
    h = class_number(D)
    found: dict = {}
    A = 0
    while len(found) < h:
        A += N
        B = beta - 2 * N * ((beta + A) // (2 * N))
        while B <= A:
            if (B * B - D) % (4 * A) == 0:
                C = (B * B - D) // (4 * A)
                if math.gcd(math.gcd(A, B), C) == 1:
                    cls = reduce_form(A, B, C)
                    if cls not in found:
                        found[cls] = HeegnerTau(A, B, C, D, level)
            B += 2 * N
    return HeegnerOrbit(curve, d_K, level, D, [found[k] for k in sorted(found)])


def modular_param(
    curve: CurveQ,
    tau,
    n_terms: int | None = None,
    precision: float = 1e-9,
) -> CPoint:
    """z = sum a_n / n e^{2 pi i n tau} with a proven tail below `precision`.

    The terms are made in blocks of `lseries._SUM_BLOCK`: q^n is
    q^(lo - 1) q^k, from one cumulative product q^1, ..., q^k over the first
    block and the running q^(lo - 1) carried from block to block. Like the
    plain running product, q^n is then good to about n ulps. The real and
    the imaginary parts are each one correctly rounded fsum; the terms are
    made once for each rather than kept.
    """
    t = tau.tau if isinstance(tau, HeegnerTau) else complex(tau)
    if t.imag <= 0:
        raise ValueError("tau must lie in the upper half plane")
    q = cmath.exp(2j * cmath.pi * t)
    aq = abs(q)
    if n_terms is None:
        if aq >= 1.0:
            raise PrecisionUnreachable("q on the unit circle")
        n_terms = max(10, int(math.log(precision * (1 - aq) / math.sqrt(3)) / math.log(aq)) + 2)
    if n_terms > TERM_CEILING:
        raise PrecisionUnreachable(
            f"{n_terms} terms needed, TERM_CEILING is {TERM_CEILING} (Im tau = {t.imag:.2e})"
        )
    v = cached_an(curve, n_terms).values

    def terms():
        qn, powers = 1.0 + 0j, None  # qn = q^(lo - 1)
        for lo, hi in n_blocks(n_terms):
            if powers is None:  # q^1, ..., q^k over the first block, the longest
                powers = np.cumprod(np.full(hi - lo, q))
            qpow = qn * powers[: hi - lo]
            qn = complex(qpow[-1])
            yield v[lo:hi] / np.arange(lo, hi, dtype=np.float64) * qpow

    z = complex(fsum_blocks(t.real for t in terms()), fsum_blocks(t.imag for t in terms()))
    tail = math.sqrt(3) * aq ** (n_terms + 1) / (1 - aq)
    return CPoint(z, None, max(tail, 1e-15))


def orbit_z(orbit: HeegnerOrbit, precision: float) -> list[CPoint]:
    """z(tau) of every form of the orbit, in class order, each summed by
    `modular_param` with its tail below `precision`."""
    return [modular_param(orbit.curve, t, precision=precision) for t in orbit.taus]


def _trace(zs: list[CPoint]) -> CPoint:
    """The sum of the z values in class order, with the sum of their tails."""
    z, prec = 0j, 0.0
    for cp in zs:
        z += cp.z
        prec += cp.prec
    return CPoint(z, None, prec)


def fricke_diagnostic(orbit: HeegnerOrbit, zs: list[CPoint], lattice: PeriodLattice,
                      le: LEval) -> dict:
    """Manin's z(W_N tau) = w_N z(tau) + L(E,1) mod Lambda at the orbit's
    first form, with w_N = -eps the eigenvalue of W_N: tau -> -1/(N tau).

    z(tau) integrates 2 pi i f from i infinity to tau, f | W_N = w_N f, and
    the integral from i infinity to 0 is L(E,1) (Manin, Izv. 1972). With tau
    the root of (A, B, C), W_N tau is the root of (N C, -B, A/N), so
    -conj(W_N tau) is the root of (N C, B, A/N): a Heegner form with the
    orbit's residue B = beta (mod 2N). It is Gamma_0(N)-equivalent to the
    orbit's form tau_m of its class, and a_n is real, so z(W_N tau) =
    conj(z(tau_m)) mod Lambda. No series is summed at W_N tau itself, whose
    Im can be as small as 1e-9, nor anywhere: `zs` are the orbit's z values
    (`orbit_z`) and `le` is E's own L-value from the gate.

    Returns w_N, the residual, the distance of r = conj(z_m) + eps z_0 - L(E,1)
    to `lattice`, and its bound: the two z tails, the tail of L(E,1) when
    eps = +1 (at eps = -1 it is 0 exactly) and FRICKE_ROUNDING.

    A residual over its bound is named when k r lies within k times the
    bound of the lattice for some k <= 163, which bounds the degree of a
    cyclic rational isogeny (Mazur; Kenku): then r is a k-torsion point of
    C/Lambda_E, a period of f outside Lambda_E, and the model is not
    X_0(N)-optimal. The smallest such k is returned as `order`, with r's
    lattice coordinates and the `error` that names it.
    """
    curve, t = orbit.curve, orbit.taus[0]
    cls = reduce_form(curve.N * t.C, t.B, t.A // curve.N)
    m = next(i for i, u in enumerate(orbit.taus) if reduce_form(u.A, u.B, u.C) == cls)
    eps = le.epsilon
    r = lattice.reduce(zs[m].z.conjugate() + eps * zs[0].z - le.value_at_1)
    residual = float(np.hypot(r.real, r.imag))  # lattice.dist, with r kept
    l_tail = le.tail_bound if eps == 1 else 0.0
    bound = zs[0].prec + zs[m].prec + l_tail + FRICKE_ROUNDING
    out = {"w_N": -eps, "residual": residual, "bound": bound}
    if residual > bound:
        k = np.arange(2, 164)
        hit = np.flatnonzero(lattice.dist(k * r) <= k * bound)
        if hit.size:
            order = int(k[hit[0]])
            out.update(order=order, coordinates=[float(c) for c in lattice.coords(r)],
                       error=f"model is not X_0({curve.N})-optimal: the Fricke residual has "
                             f"order {order} mod Lambda_E")
    return out


# ---------------------------------------------------------------------------
# exact rational points, torsion, canonical height


def rational_add(curve: CurveQ, P, Q):
    """Exact group law on E(Q); points are (Fraction, Fraction), None = identity."""
    if P is None:
        return Q
    if Q is None:
        return P
    a1, a2, a3, a4, a6 = curve.ainvs
    x1, y1 = P
    x2, y2 = Q
    if x1 == x2:
        if y2 == -y1 - a1 * x1 - a3:
            return None
        lam = (3 * x1 * x1 + 2 * a2 * x1 + a4 - a1 * y1) / (2 * y1 + a1 * x1 + a3)
    else:
        lam = (y2 - y1) / (x2 - x1)
    x3 = lam * lam + a1 * lam - a2 - x1 - x2
    y3 = -(y1 + lam * (x3 - x1)) - a1 * x3 - a3
    return (x3, y3)


def rational_multiple(curve: CurveQ, P, k: int):
    if k < 0:
        a1, _, a3, _, _ = curve.ainvs
        P = (P[0], -P[1] - a1 * P[0] - a3)
        k = -k
    out = None
    base = P
    while k:
        if k & 1:
            out = rational_add(curve, out, base)
        k >>= 1
        if k == 0 or base is None:
            break
        base = rational_add(curve, base, base)
    return out


def on_curve(curve: CurveQ, P) -> bool:
    if P is None:
        return True
    a1, a2, a3, a4, a6 = curve.ainvs
    x, y = P
    return y * y + a1 * x * y + a3 * y == x**3 + a2 * x * x + a4 * x + a6


def rational_torsion_point(curve: CurveQ, q: int):
    """A point of E(Q) of exact order q, the odd prime q, checked in Fractions,
    or None: then none was found, which does not prove that none exists.

    Mazur allows q <= 7 only, and #E(Q)_tors divides m = `torsion_bound`, so
    q not dividing m rules it out. Otherwise the point lies at some
    k*omega_1/q on E(R), with 4x, 8y in Z (Nagell-Lutz; AEC VIII.7).
    """
    if q > 7 or torsion_bound(curve) % q:
        return None
    try:
        lattice = period_lattice(curve)
    except ArithmeticError:
        return None
    for k in range(1, (q + 1) // 2):
        pt = elliptic_exp(lattice, k * lattice.omega1 / q)
        if pt.is_identity:
            continue
        x, y = pt.xy
        P = (Fraction(round(4 * x.real), 4), Fraction(round(8 * y.real), 8))
        if on_curve(curve, P) and rational_multiple(curve, P, q) is None:
            return P
    return None


_ODD_PRIMES_TO_64 = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61)


def torsion_bound(curve: CurveQ, d_K: int | None = None) -> int:
    """m, a multiple of #E(Q)_tors, or with `d_K` m_K, a multiple of
    #E(K)_tors for K = Q(sqrt(d_K)), read from the curve's a_n table.

    At a prime of good reduction over an odd p, reduction embeds the torsion
    of E over Q_p or its unramified quadratic extension in the points of the
    residue field (AEC VII.3.1; e = 1 < p - 1). m is the gcd of
    #E(F_p) = p + 1 - a_p over the odd p < 64 with p not dividing N, and m_K
    the gcd over those that do not divide d_K either, of p + 1 - a_p where p
    splits in K and of #E(F_{p^2}) = (p + 1)^2 - a_p^2 where it is inert.
    The gate leaves a table of at least 64 terms, so the table never grows.
    """
    table = cached_an(curve, 64)
    m = 0
    for p in _ODD_PRIMES_TO_64:
        if curve.N % p == 0 or (d_K is not None and d_K % p == 0):
            continue
        a = table[p]
        m = math.gcd(m, p + 1 - a if d_K is None or kronecker(d_K, p) == 1
                     else (p + 1) ** 2 - a * a)
    if m == 0:
        raise ValueError("no prime of good reduction among the odd p < 64")
    return m


def is_torsion(curve: CurveQ, P, lattice: PeriodLattice | None = None,
               d_K: int | None = None) -> bool:
    """Whether P is torsion: exact for rational P, mod the run's `lattice`
    for a CPoint.

    A rational P is torsion if and only if [m]P = O, m = `torsion_bound`.
    A CPoint of E(K), K = Q(sqrt(d_K)), is torsion when it lies within tol
    of a point of order dividing m_K = torsion_bound(curve, d_K), that is
    when m_K z lies within m_K tol of the lattice. Those points, the
    (1/m_K) Lambda mod Lambda, lie at least lambda_min / m_K apart, so tol
    must stay below lambda_min / (2 m_K). A CPoint other than O needs
    `d_K`: ValueError without it.
    """
    if P is None:
        return True
    if isinstance(P, CPoint):
        if P.is_identity:
            return True
        if d_K is None:
            raise ValueError("is_torsion needs d_K, the field K = Q(sqrt(d_K)), for a CPoint")
        tol = max(1e-7, 50 * P.prec)
        m = torsion_bound(curve, d_K)
        limit = lattice.lambda_min / (2 * m)
        if tol >= limit:
            raise PrecisionUnreachable(f"torsion tolerance {tol:.3g} is not below lambda_min/"
                                       f"(2 m_K) = {limit:.3g}, m_K = {m}")
        return lattice.dist(m * P.z) < tol * m
    Pf = (Fraction(P[0]), Fraction(P[1]))
    if not on_curve(curve, Pf):
        raise ValueError("point is not on the curve")
    return rational_multiple(curve, Pf, torsion_bound(curve)) is None


def _duplication_polys(curve: CurveQ):
    b2, b4, b6, b8 = b_invariants(curve)

    def F(A, B):
        return A**4 - b4 * A * A * B * B - 2 * b6 * A * B**3 - b8 * B**4

    def G(A, B):
        return 4 * A**3 * B + b2 * A * A * B * B + 2 * b4 * A * B**3 + b6 * B**4

    return F, G


def _duplication_resultant(curve: CurveQ) -> int:
    """Res_x of the duplication numerator/denominator; equals Delta^2."""
    b2, b4, b6, b8 = b_invariants(curve)
    Fc = [1, 0, -b4, -2 * b6, -b8]
    Gc = [4, b2, 2 * b4, b6]
    n = 7
    M = [[0] * n for _ in range(n)]
    for i in range(3):
        for j, cf in enumerate(Fc):
            M[i][i + j] = cf
    for i in range(4):
        for j, cf in enumerate(Gc):
            M[3 + i][i + j] = cf
    sign, prev = 1, 1
    for k in range(n - 1):
        if M[k][k] == 0:
            piv = next((i for i in range(k + 1, n) if M[i][k] != 0), None)
            if piv is None:
                return 0
            M[k], M[piv] = M[piv], M[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                M[i][j] = (M[i][j] * M[k][k] - M[i][k] * M[k][j]) // prev
            M[i][k] = 0
        prev = M[k][k]
    res = sign * M[n - 1][n - 1]
    if res != discriminant(curve) ** 2:
        raise ArithmeticError("duplication resultant != Delta^2; algebra bug")
    return res


def _reduces_to_singular_point(curve: CurveQ, x: Fraction, y: Fraction, p: int) -> bool:
    """Whether (x, y) reduces mod p to a singular point of the model: x is
    p-integral (then so is y) and both partial derivatives vanish mod p."""
    if x.denominator % p == 0:
        return False  # it reduces to O
    a1, a2, a3, a4, _ = curve.ainvs
    xm = x.numerator * pow(x.denominator, -1, p) % p
    ym = y.numerator * pow(y.denominator, -1, p) % p
    return (2 * ym + a1 * xm + a3) % p == 0 and (3 * xm * xm + 2 * a2 * xm + a4 - a1 * ym) % p == 0


def canonical_height(curve: CurveQ, P, tol: float = 1e-11) -> float:
    """Neron-Tate height, normalized as lim h(x(2^n P)) / 4^n.

    Computed without exact big-integer blowup: the naive height telescopes
    under duplication with corrections log max(|F|,|G|) on the normalized
    coordinate pair (bounded, evaluated in floats) minus log gcd (supported
    on primes of Delta^2, tracked exactly by bounded modular arithmetic).

    The gcd is tracked only at the primes p | Delta where P reduces to the
    singular point of the model mod p. Elsewhere P lies in E_0(Q_p), a
    subgroup (AEC VII.2.1), so every 2^n P does too. On E_0(Q_p) the local
    height is max(0, -v(x))/2 + v(Delta)/12 for any integral model, so the
    duplication formula for local heights gives v(x(2Q)) = -v(G(x_Q)) at
    p-integral x_Q, so F(x_Q) is a p-adic unit whenever p | G(x_Q); at
    x_Q = a/b with p | b, F(a, b) = a^4 mod p. Either way p never divides
    both, and such a tracker would add exactly 0.0 at every step
    (Silverman, "Computing heights on elliptic curves", Math. Comp. 51, 1988).
    """
    if P is None:
        return 0.0
    x = Fraction(P[0])
    y = Fraction(P[1])
    if not on_curve(curve, (x, y)):
        raise ValueError("point is not on the curve")
    if is_torsion(curve, (x, y)):
        return 0.0
    F, G = _duplication_polys(curve)
    res = abs(_duplication_resultant(curve))
    n_steps = 40
    trackers = {}
    for p, e in factorize(discriminant(curve)):
        if _reduces_to_singular_point(curve, x, y, p):
            v_res = 2 * e
            k0 = v_res * (n_steps + 2) + 8
            trackers[p] = [x.numerator % p**k0, x.denominator % p**k0, k0, v_res]
    scale0 = max(abs(x.numerator), x.denominator)
    height = math.log(scale0)
    ra, rb = x.numerator / scale0, x.denominator / scale0
    logp = {p: math.log(p) for p in trackers}
    c_bound = 10.0
    for n in range(n_steps):
        fa, gb = F(ra, rb), G(ra, rb)
        cn = math.log(max(abs(fa), abs(gb)))
        glog = 0.0
        for p, st in trackers.items():
            a_, b_, kp, v_res = st
            if kp <= v_res + 1:
                continue  # precision spent; tail bound covers the remainder
            mod = p**kp
            fm = F(a_, b_) % mod
            gm = G(a_, b_) % mod

            def vp(val):
                if val == 0:
                    return kp
                v = 0
                while val % p == 0:
                    val //= p
                    v += 1
                return v

            v = min(vp(fm), vp(gm))
            glog += v * logp[p]
            pv = p**v
            st[0], st[1], st[2] = (fm // pv) % p ** (kp - v), (gm // pv) % p ** (kp - v), kp - v
        height += (cn - glog) / 4 ** (n + 1)
        c_bound = max(c_bound, abs(cn) + math.log(res))
        sc = max(abs(fa), abs(gb))
        ra, rb = fa / sc, gb / sc
        if n > 8 and c_bound / 4 ** (n + 1) < tol:
            break
    return height


# ---------------------------------------------------------------------------
# rational recognition


def _cf_convergents(v: float, max_den: int):
    a = math.floor(v)
    p0, q0, p1, q1 = 1, 0, a, 1
    x = v - a
    while q1 <= max_den:
        yield Fraction(p1, q1)
        if abs(x) < 1e-15:
            return
        x = 1.0 / x
        a = math.floor(x)
        x -= a
        p0, q0, p1, q1 = p1, q1, p0 + a * p1, q0 + a * q1


def recognize_rational(v: float, max_den: int = 10**6, tol: float = 1e-9):
    """Best small-denominator fraction within tol, else None."""
    for f in _cf_convergents(v, max_den):
        if abs(v - float(f)) < tol:
            return f
    return None


def _recognize_point(curve: CurveQ, x_c: complex, y_c: complex, max_den=10**6, tol=1e-7):
    """Try to read (x_c, y_c) as an exact rational point on the curve."""
    if abs(x_c.imag) > tol or abs(y_c.imag) > tol:
        return None
    x = recognize_rational(x_c.real, max_den, tol)
    if x is None:
        return None
    a1, a2, a3, a4, a6 = curve.ainvs
    # y^2 + (a1 x + a3) y - rhs = 0 over Q
    lin = a1 * x + Fraction(a3)
    rhs = x**3 + a2 * x * x + a4 * x + a6
    disc = lin * lin + 4 * rhs
    if disc < 0:
        return None
    num_r = math.isqrt(disc.numerator)
    den_r = math.isqrt(disc.denominator)
    if num_r * num_r != disc.numerator or den_r * den_r != disc.denominator:
        return None
    sq = Fraction(num_r, den_r)
    for sgn in (1, -1):
        y = (-lin + sgn * sq) / 2
        if abs(float(y) - y_c.real) < max(tol, 1e-6 * (1 + abs(float(y)))):
            if on_curve(curve, (x, y)):
                return (x, y)
    return None


# ---------------------------------------------------------------------------
# the headline operations


def trace_to_K(orbit: HeegnerOrbit, zs: list[CPoint], lattice: PeriodLattice,
               precision: float):
    """Trace of the basic Heegner point to K: the sum of `zs`, the z values of
    `orbit`, the level-1 orbit of Pic(O_K) conjugates, summed at `precision`.

    Returns (CPoint, recognized) where recognized is an exact rational point
    when the x-coordinate survives continued-fraction recognition both from
    `zs` and from the orbit summed again at precision / 10, else None.
    """
    if orbit.level != 1:
        raise ValueError(f"trace to K needs the level-1 orbit, got level {orbit.level}")
    curve = orbit.curve
    zsum = _trace(zs)
    pk = elliptic_exp(lattice, zsum.z)
    pk.prec = max(pk.prec, zsum.prec)
    recognized = None
    if not pk.is_identity:
        cand = _recognize_point(curve, pk.xy[0], pk.xy[1])
        if cand is not None:
            pk2 = elliptic_exp(lattice, _trace(orbit_z(orbit, precision / 10)).z)
            cand2 = None if pk2.is_identity else _recognize_point(curve, pk2.xy[0], pk2.xy[1])
            if cand2 == cand:
                recognized = cand
    return pk, recognized


@functools.cache
def _torsion_fractions(bound: int = DEFAULT_TORSION_BOUND):
    """Lattice coordinates (i/k, j/k), 0 <= i, j < k <= bound, of the torsion
    translates, each taken once: at the k with gcd(i, j, k) = 1. Ordered by
    k, then i, then j. Built on the first call and returned, read-only, by
    every later one."""
    k, i, j = np.indices((bound, bound, bound))
    k += 1
    new = (i < k) & (j < k) & (np.gcd(np.gcd(i, j), k) == 1)
    s, t = i[new] / k[new], j[new] / k[new]
    s.flags.writeable = t.flags.writeable = False
    return s, t


def trace_relation_check(base: HeegnerOrbit, up: HeegnerOrbit, z_base: list[CPoint],
                         z_up: list[CPoint], lattice: PeriodLattice) -> float:
    """Residual of Tr_{H_ell/H}(P_ell) = a_ell P_1 in C/Lambda, with `base` the
    level-1 orbit and `up` the orbit at a prime level ell of the same (E, K),
    and `z_base`, `z_up` their z values (`orbit_z`).

    Minimized over the sign and small torsion translates, the ambiguity left
    by the choice of Heegner system. The conjugate count is the class number
    of the order of conductor ell.

    Every sign and translate t = (i/k) omega1 + (j/k) omega2 is tried in one
    lane-wise `lattice.dist` call, which makes each lane's float operations
    in the scalar call's order, so the minimum equals the scalar loop's bit
    for bit.
    """
    curve, ell = base.curve, up.level
    if base.level != 1 or (up.curve, up.d_K) != (curve, base.d_K):
        raise ValueError("needs the level-1 and level-ell orbits of one curve and field")
    if not is_prime(ell):
        raise ValueError("ell must be prime")
    w_base, w_up = _trace(z_base).z, _trace(z_up).z
    a_ell = cached_an(curve, ell)[ell]
    s, t = _torsion_fractions()
    translates = s * lattice.omega1 + t * lattice.omega2
    cands = np.concatenate([w_up - sgn * a_ell * w_base - translates for sgn in (1, -1)])
    return float(lattice.dist(cands).min())


class GZReport(NamedTuple):
    d_K: int
    z_K: complex
    recognized: tuple | None
    height_side: float
    height_is_proxy: bool
    l_prime_K: float
    l_nonzero: bool
    pk_nontorsion: bool
    biconditional_holds: bool
    ratio: float | None


def gz_correspondence(orbit: HeegnerOrbit, zs: list[CPoint], lk: LOverK,
                      lattice: PeriodLattice, precision: float) -> GZReport:
    """Both sides of the height/L'-derivative correspondence, plus the
    nontorsion <=> nonvanishing biconditional, from the level-1 orbit, its z
    values `zs` summed at `precision`, and the L'(E/K,1) of the same field.
    The proportionality constant is reported (as `ratio`), never asserted."""
    if orbit.d_K != lk.d_K:
        raise ValueError(f"orbit over d_K = {orbit.d_K}, L-value over d_K = {lk.d_K}")
    curve = orbit.curve
    pk, recognized = trace_to_K(orbit, zs, lattice, precision)
    if recognized is not None:
        height = canonical_height(curve, recognized)
        nontorsion = height > 0.0  # canonical_height is 0.0 exactly on torsion points
        proxy = False
    else:
        nontorsion = not is_torsion(curve, pk, lattice=lattice, d_K=orbit.d_K)
        height = (lattice.dist(pk.z) / lattice.omega1) ** 2 if pk.z is not None else 0.0
        proxy = True
    holds = nontorsion == lk.nonzero
    ratio = None
    if nontorsion and lk.nonzero and height > 0:
        ratio = height / lk.value
    return GZReport(
        lk.d_K, pk.z, recognized, height, proxy, lk.value, lk.nonzero, nontorsion, holds, ratio
    )
