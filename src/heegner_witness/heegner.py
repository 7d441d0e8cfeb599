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
pass. The Manin constant is taken to be 1; every shipped check is a ratio
or a biconditional, so a nontrivial constant would cancel anyway.

A witness run builds the period lattice once and passes it as `lattice=` to
`gz_correspondence` (and so `trace_to_K`), `fricke_diagnostic` and
`trace_relation_check`; each builds its own when called without one.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .arith import factorize, is_prime, is_squarefree, primes_upto, valuation
from .ec_core import CurveQ, b_invariants, c_invariants, discriminant
from .lseries import LOverK, cached_an, fsum_blocks, n_blocks
from .quadforms import class_number, kronecker, reduce_form
from .searcher import heegner_hypothesis

TERM_CEILING = 10**6
DEFAULT_TORSION_BOUND = 16


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


@dataclass
class PeriodLattice:
    curve: CurveQ
    omega1: float
    omega2: complex
    g2: float
    g3: float
    lambda_min: float
    wp_coeffs: tuple

    def coords(self, z: complex) -> tuple[float, float]:
        w1, w2 = self.omega1, self.omega2
        det = w1 * w2.imag  # w1 real
        b = z.imag * w1 / det
        a = (z.real - b * w2.real) / w1
        return a, b

    def reduce(self, z: complex) -> complex:
        a, b = self.coords(z)
        a -= round(a)
        b -= round(b)
        return a * self.omega1 + b * self.omega2

    def dist(self, z: complex) -> float:
        """Distance from z to the nearest lattice point (rounded-basis metric)."""
        return abs(self.reduce(z))


def period_lattice(curve: CurveQ) -> PeriodLattice:
    """Lattice of the real curve by the optimal AGM; validates against c4, c6."""
    e1, e2, e3 = _two_division_roots(curve)
    w1 = cmath.pi / _agm_optimal(cmath.sqrt(e1 - e3), cmath.sqrt(e1 - e2))
    w2 = cmath.pi / _agm_optimal(cmath.sqrt(e3 - e1), cmath.sqrt(e3 - e2))
    if abs(w1.imag) > 1e-10 * abs(w1):
        raise ArithmeticError("real period came out complex")
    w1 = abs(w1.real)
    if (w2 / w1).imag < 0:
        w2 = -w2
    # validate lattice invariants through Eisenstein series at tau = w2/w1
    tau = w2 / w1
    q = cmath.exp(2j * cmath.pi * tau)
    e4 = 1 + 240 * sum(n**3 * q**n / (1 - q**n) for n in range(1, 80))
    e6 = 1 - 504 * sum(n**5 * q**n / (1 - q**n) for n in range(1, 80))
    c4, c6 = c_invariants(curve)
    scale = (2 * cmath.pi / w1) ** 4 * e4, (2 * cmath.pi / w1) ** 6 * e6
    ref = max(abs(c4), abs(c6), 1.0)
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


@dataclass
class CPoint:
    z: complex | None  # None only if unset; identity has z = 0
    xy: tuple | None  # (x, y) complex pair, None for the identity
    prec: float = 1e-12

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
    zr = lattice.reduce(z)
    if abs(zr) < 1e-13 * lattice.lambda_min:
        return CPoint(0j, None)
    P = _halve_and_double(lattice, zr)
    if P is None:
        return CPoint(lattice.reduce(z), None)
    return CPoint(lattice.reduce(z), P, 1e-12 * max(1.0, abs(P[0])))


# ---------------------------------------------------------------------------
# Heegner forms and the modular parametrization


@dataclass(frozen=True)
class HeegnerTau:
    A: int
    B: int
    C: int
    D: int
    level: int

    @property
    def tau(self) -> complex:
        return (-self.B + 1j * math.sqrt(-self.D)) / (2 * self.A)

    @property
    def im_tau(self) -> float:
        return math.sqrt(-self.D) / (2 * self.A)


@dataclass
class HeegnerOrbit:
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


def orbit_sum(orbit: HeegnerOrbit, precision: float = 1e-9) -> CPoint:
    """Trace over the orbit: sum of z(tau) over the classes, fixed order."""
    z = 0j
    prec = 0.0
    for t in orbit.taus:
        cp = modular_param(orbit.curve, t, precision=precision)
        z += cp.z
        prec += cp.prec
    return CPoint(z, None, prec)


def fricke_diagnostic(
    orbit: HeegnerOrbit, precision: float = 1e-9, lattice: PeriodLattice | None = None
) -> dict:
    """Stability of z under the level involution W_N: tau -> -1/(N tau), at
    the orbit's first form, read from the orbit's own forms.

    With tau the root of (A, B, C), W_N tau is the root of (N C, -B, A/N), so
    -conj(W_N tau) is the root of (N C, B, A/N): a Heegner form with the
    orbit's residue B = beta (mod 2N). It is Gamma_0(N)-equivalent to the
    orbit's form tau_m of its class, and a_n is real, so z(W_N tau) =
    conj(z(tau_m)) mod Lambda. No series is summed at W_N tau itself, whose
    Im can be as small as 1e-9.

    Reported as the distance of z(W tau) -+ z(tau) to the lattice for both
    signs; recorded for diagnostics, never asserted (the eigenvalue is
    curve-dependent). `lattice` is the curve's period lattice, built here
    when not given.
    """
    curve, t = orbit.curve, orbit.taus[0]
    lattice = lattice or period_lattice(curve)
    cls = reduce_form(curve.N * t.C, t.B, t.A // curve.N)
    t_m = next(u for u in orbit.taus if reduce_form(u.A, u.B, u.C) == cls)
    z1 = modular_param(curve, t, precision=precision).z
    z2 = modular_param(curve, t_m, precision=precision).z.conjugate()
    return {"dist_w_plus": lattice.dist(z2 - z1), "dist_w_minus": lattice.dist(z2 + z1)}


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

    Mazur allows q <= 7 only. E(Q)[q] injects into E(F_p) at good p != q, so a
    good p < 64 with q not dividing p + 1 - a_p rules it out. Otherwise the
    point lies at some k*omega_1/q on E(R), with 4x, 8y in Z (Nagell-Lutz; AEC VIII.7).
    """
    if q > 7:
        return None
    table = cached_an(curve, 64)
    if any((p + 1 - table[p]) % q for p in primes_upto(64) if p != q and curve.N % p):
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


def is_torsion(curve: CurveQ, P, multiple_bound: int = DEFAULT_TORSION_BOUND, lattice=None) -> bool:
    """kP = O for some k <= bound; exact for rational points, mod-Lambda for CPoints.

    A rational P is not torsion as soon as some kP != O has 4x or 8y outside Z:
    every torsion point of an integral model has 4x, 8y in Z (AEC VIII.7.1).
    """
    if P is None:
        return True
    if isinstance(P, CPoint):
        if P.is_identity:
            return True
        lattice = lattice or period_lattice(curve)
        tol = max(1e-7, 50 * P.prec)
        for k in range(1, multiple_bound + 1):
            if lattice.dist(k * P.z) < tol * k:
                return True
        return False
    Pf = (Fraction(P[0]), Fraction(P[1]))
    if not on_curve(curve, Pf):
        raise ValueError("point is not on the curve")
    acc = None
    for _ in range(multiple_bound):
        acc = rational_add(curve, acc, Pf)
        if acc is None:
            return True
        if (4 * acc[0]).denominator != 1 or (8 * acc[1]).denominator != 1:
            return False
    return False


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


def canonical_height(curve: CurveQ, P, tol: float = 1e-11) -> float:
    """Neron-Tate height, normalized as lim h(x(2^n P)) / 4^n.

    Computed without exact big-integer blowup: the naive height telescopes
    under duplication with corrections log max(|F|,|G|) on the normalized
    coordinate pair (bounded, evaluated in floats) minus log gcd (supported
    on primes of Delta^2, tracked exactly by bounded modular arithmetic).
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
    primes = [p for p, _ in factorize(res)]
    n_steps = 40
    trackers = {}
    for p in primes:
        v_res = valuation(res, p)
        k0 = v_res * (n_steps + 2) + 8
        trackers[p] = [x.numerator % p**k0, x.denominator % p**k0, k0, v_res]
    scale0 = max(abs(x.numerator), x.denominator)
    height = math.log(scale0)
    ra, rb = x.numerator / scale0, x.denominator / scale0
    logp = {p: math.log(p) for p in primes}
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
    best = None
    for f in _cf_convergents(v, max_den):
        if f.denominator > max_den:
            break
        err = abs(v - float(f))
        if err < tol:
            best = f
            break
    return best


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


def trace_to_K(orbit: HeegnerOrbit, precision: float = 1e-9, lattice: PeriodLattice | None = None):
    """Trace of the basic Heegner point to K: the sum over `orbit`, the
    level-1 orbit of Pic(O_K) conjugates.

    Returns (CPoint, recognized) where recognized is an exact rational point
    when the x-coordinate survives continued-fraction recognition at two
    precisions, else None. `lattice` is the curve's period lattice, built
    here when not given.
    """
    if orbit.level != 1:
        raise ValueError(f"trace to K needs the level-1 orbit, got level {orbit.level}")
    curve = orbit.curve
    lattice = lattice or period_lattice(curve)
    zsum = orbit_sum(orbit, precision=precision)
    pk = elliptic_exp(lattice, zsum.z)
    pk.prec = max(pk.prec, zsum.prec)
    recognized = None
    if not pk.is_identity:
        cand = _recognize_point(curve, pk.xy[0], pk.xy[1])
        if cand is not None:
            # confirm at a sharper precision
            zsum2 = orbit_sum(orbit, precision=precision * 1e-2)
            pk2 = elliptic_exp(lattice, zsum2.z)
            cand2 = None if pk2.is_identity else _recognize_point(curve, pk2.xy[0], pk2.xy[1])
            if cand2 == cand:
                recognized = cand
    return pk, recognized


def _torsion_fractions(bound: int = DEFAULT_TORSION_BOUND):
    """Lattice coordinates (i/k, j/k), 0 <= i, j < k <= bound, of the torsion
    translates, each taken once: at the k with gcd(i, j, k) = 1. Ordered by
    k, then i, then j."""
    k, i, j = np.indices((bound, bound, bound))
    k += 1
    new = (i < k) & (j < k) & (np.gcd(np.gcd(i, j), k) == 1)
    return i[new] / k[new], j[new] / k[new]


def trace_relation_check(
    base: HeegnerOrbit,
    up: HeegnerOrbit,
    precision: float = 1e-6,
    lattice: PeriodLattice | None = None,
) -> float:
    """Residual of Tr_{H_ell/H}(P_ell) = a_ell P_1 in C/Lambda, with `base` the
    level-1 orbit and `up` the orbit at a prime level ell of the same (E, K).

    Minimized over the sign and small torsion translates, the ambiguity left
    by the choice of Heegner system. The conjugate count is the class number
    of the order of conductor ell. `lattice` is the curve's period lattice,
    built here when not given.

    Every sign and translate t = (i/k) omega1 + (j/k) omega2 is tried in one
    array pass that makes, lane by lane, the float operations of
    `lattice.dist(w - t)`: real and imaginary parts apart, one ufunc per
    operation, so the minimum equals the scalar loop's bit for bit.
    """
    curve, ell = base.curve, up.level
    if base.level != 1 or (up.curve, up.d_K) != (curve, base.d_K):
        raise ValueError("needs the level-1 and level-ell orbits of one curve and field")
    if not is_prime(ell):
        raise ValueError("ell must be prime")
    lattice = lattice or period_lattice(curve)
    target_prec = min(precision * 1e-3, 1e-9)
    z_base = orbit_sum(base, precision=target_prec)
    z_up = orbit_sum(up, precision=target_prec)
    a_ell = cached_an(curve, ell)[ell]
    w1, w2 = lattice.omega1, lattice.omega2
    s, t = _torsion_fractions()
    t_re = s * w1 + t * w2.real
    t_im = t * w2.imag
    ws = [z_up.z - sgn * a_ell * z_base.z for sgn in (1, -1)]
    re = np.concatenate([w.real - t_re for w in ws])
    im = np.concatenate([w.imag - t_im for w in ws])
    b = im * w1 / (w1 * w2.imag)  # PeriodLattice.coords
    a = (re - b * w2.real) / w1
    a -= np.round(a)
    b -= np.round(b)
    return float(np.hypot(a * w1 + b * w2.real, b * w2.imag).min())


@dataclass
class GZReport:
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


def gz_correspondence(
    orbit: HeegnerOrbit,
    lk: LOverK,
    precision: float = 1e-9,
    lattice: PeriodLattice | None = None,
) -> GZReport:
    """Both sides of the height/L'-derivative correspondence, plus the
    nontorsion <=> nonvanishing biconditional, from the level-1 orbit and
    the L'(E/K,1) of the same field. The proportionality constant is
    reported (as `ratio`), never asserted. `lattice` is the curve's period
    lattice, built here when not given."""
    if orbit.d_K != lk.d_K:
        raise ValueError(f"orbit over d_K = {orbit.d_K}, L-value over d_K = {lk.d_K}")
    curve = orbit.curve
    lattice = lattice or period_lattice(curve)
    pk, recognized = trace_to_K(orbit, precision=precision, lattice=lattice)
    if recognized is not None:
        height = canonical_height(curve, recognized)
        nontorsion = height > 0.0  # canonical_height is 0.0 exactly on torsion points
        proxy = False
    else:
        nontorsion = not is_torsion(curve, pk, lattice=lattice)
        height = (lattice.dist(pk.z) / lattice.omega1) ** 2 if pk.z is not None else 0.0
        proxy = True
    holds = nontorsion == lk.nonzero
    ratio = None
    if nontorsion and lk.nonzero and height > 0:
        ratio = height / lk.value
    return GZReport(
        lk.d_K, pk.z, recognized, height, proxy, lk.value, lk.nonzero, nontorsion, holds, ratio
    )
