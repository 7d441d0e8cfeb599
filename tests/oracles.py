"""Independent oracles the test suite checks the package against.

Everything here deliberately takes the dumb route: brute-force enumeration,
straight partial sums at a fixed term count, exact rational arithmetic.
What the oracles still share with the package paths they judge:

- `ap`: the a_n oracles, the per-prime scan and the scalar trace relation
  take each good a_p from it. It is `count_points` below BSGS_MIN_P, so they
  judge the batched paths there, but at p = 2 and 3 `ap_many` calls `ap`
  too. `brute_count` is the oracle for `ap` itself.
- `an_series` gives the table of `twisted_an`, `l_eval_per_term`,
  `modular_param_per_term` and `modular_param_decimal`, which judge the
  sums, not the table.
- `lseries._tail_terms` gives `l_eval_per_term` its term count.
- `modular_param` and `period_lattice` feed the Fricke and trace-relation
  references; `elliptic_exp` and `_wp`, the package's q-expansion of wp,
  feed `elliptic_log`. `two_division_roots_np`, the oracle for the lattice's
  roots, shares only `b_invariants` and `discriminant` with them.
- `canonical_height_every_prime` takes the duplication polynomials and the
  exact torsion test from `heegner`; it tracks gcd(F, G) exactly at every
  prime of the resultant, where the package's `canonical_height` steps to a
  multiple of P in E_0 at every bad prime and tracks none.
- `quadforms.kronecker`, `reduce_form` and `class_number`. The
  element-order multisets live here: `class_group` and the unit quotient
  oracles take their invariants with `abelian_invariants`, and
  `unit_quotient_structure` in the last section folds its local grids
  with `_fold_orders`. Its grids, `local_unit_quotient_grid`, enumerate
  every residue and share nothing with the coset count, the generator and
  the gcd/lcm exchange that check `ring_class_levels`, and
  `unit_quotient_whole_ring` checks the grids with no CRT split.
  `canonical_invariants`, the Smith form by primary decomposition, is the
  reference for the gcd/lcm exchange; it shares `arith.factorize` with it.

Bad-prime a_p comes from `reduction_type_search`, a search for the singular
point mod p, and not from the package's closed form.
"""

from __future__ import annotations

import cmath
import decimal
import functools
import itertools
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from heegner_witness.ec_core import (
    POINT_COUNT_CEILING,
    CurveQ,
    PointCountBoundError,
    an_series,
    ap,
    b_invariants,
    count_points,
    discriminant,
    reduce_mod,
)
from heegner_witness.arith import (
    euler_phi,
    factorize,
    is_prime,
    is_squarefree,
    prime_divisors,
    primes_upto,
    valuation,
)
from heegner_witness.heegner import (
    PeriodLattice,
    PrecisionUnreachable,
    _duplication_polys,
    _wp,
    elliptic_exp,
    is_torsion,
    modular_param,
    on_curve,
    period_lattice,
)
from heegner_witness.lseries import _tail_terms
from heegner_witness.quadforms import (
    InvalidDiscriminantError,
    _check_disc,
    class_number,
    is_fundamental,
    kronecker,
    reduce_form,
    reduced_forms,
)
from heegner_witness.searcher import PrimeSearchExhausted, PrimeSeqItem


def brute_count(curve: CurveQ, p: int) -> int:
    """#E(F_p) by the full double loop over affine pairs, plus infinity."""
    a1, a2, a3, a4, a6 = (a % p for a in curve.ainvs)
    cnt = 1
    for x in range(p):
        rhs = (x ** 3 + a2 * x * x + a4 * x + a6) % p
        for y in range(p):
            if (y * y + a1 * x * y + a3 * y) % p == rhs:
                cnt += 1
    return cnt


def prime_sequence_per_prime(curve: CurveQ, d_K: int, q: int, count: int, p_bound: int = 10**5):
    """The prime scan one prime at a time, each a_p from the scalar `ap`,
    stopping at the count-th accepted prime: the oracle for the chunked
    `searcher.prime_sequence`."""
    items, candidates = [], 0
    for p in primes_upto(p_bound):
        if len(items) == count:
            return items
        if p % q != q - 1 or kronecker(d_K, p) != -1 or curve.N % p == 0:
            continue
        candidates += 1
        a = ap(curve, p)
        if a % q == 0:
            continue
        items.append(PrimeSeqItem(p, a))
    if len(items) >= count:
        return items
    raise PrimeSearchExhausted(p_bound, items, candidates)


def lockstep_point_eager(A, B, p, twist: bool = False, tries: int = 32):
    """The lockstep kernel's point choice with every x < tries evaluated on
    every lane at once, as (tries, lanes) arrays: (x, f, on_e, found) per lane.

    A lane takes the first x where f(x) = x^3 + A x + B and the 3-division
    polynomial are both nonzero; with `twist`, the first such x whose
    Legendre symbol differs from the first one's. A lane with none reads
    found = False.
    """
    lanes = np.arange(len(p))
    x = np.arange(tries, dtype=np.int64)[:, None]
    F = ((x * x + A) * x + B) % p
    usable = (F != 0) & (((3 * x * x + 6 * A) * x * x + 12 * B * x - A * A) % p != 0)
    square = np.array([[pow(int(v), (int(q) - 1) // 2, int(q)) == 1 for v, q in zip(row, p)]
                       for row in F], dtype=bool)
    if twist:
        usable &= square != square[usable.argmax(axis=0), lanes]
    x0 = usable.argmax(axis=0)
    return x0, F[x0, lanes], square[x0, lanes], usable[x0, lanes]


def padd_reduced(P, Q, a, b3, p):
    """The complete addition of `ec_core._padd` with every intermediate reduced
    mod p: 13 remainders, every product below 4 p^2 < 2^42.

    The reference for the kernel's law, which reduces only 8 values.
    """
    X1, Y1, Z1 = P
    X2, Y2, Z2 = Q
    t0 = X1 * X2 % p
    t1 = Y1 * Y2 % p
    t2 = Z1 * Z2 % p
    u = ((X1 + Y1) * (X2 + Y2) - t0 - t1) % p  # X1 Y2 + X2 Y1
    v = ((X1 + Z1) * (X2 + Z2) - t0 - t2) % p  # X1 Z2 + X2 Z1
    w = ((Y1 + Z1) * (Y2 + Z2) - t1 - t2) % p  # Y1 Z2 + Y2 Z1
    at2 = a * t2 % p
    al = (a * v + b3 * t2) % p
    s, d = t1 + al, t1 - al
    be = (a * (t0 - at2) + b3 * v) % p
    ga = (3 * t0 + at2) % p
    return (u * d - w * be) % p, (s * d + ga * be) % p, (w * s + u * ga) % p


def _fp2_mul(u, v, p, eps):
    # elements of F_{p^2} = F_p(sqrt(eps)) as pairs (a, b) = a + b*sqrt(eps)
    return ((u[0] * v[0] + eps * u[1] * v[1]) % p, (u[0] * v[1] + u[1] * v[0]) % p)


def _fp2_pow(u, e, p, eps):
    r = (1, 0)
    while e:
        if e & 1:
            r = _fp2_mul(r, u, p, eps)
        u = _fp2_mul(u, u, p, eps)
        e >>= 1
    return r


def count_points_ext(curve: CurveQ, p: int, k: int) -> int:
    """#E(F_{p^k}) by enumeration, k <= 2. Oracle-grade, small p only."""
    if k == 1:
        return count_points(reduce_mod(curve, p))
    if k != 2:
        raise ValueError("only k = 1 or 2 supported")
    if p * p > POINT_COUNT_CEILING:
        raise PointCountBoundError(f"p^2 = {p * p} exceeds ceiling {POINT_COUNT_CEILING}")
    cfp = reduce_mod(curve, p)
    a1, a2, a3, a4, a6 = cfp.a1, cfp.a2, cfp.a3, cfp.a4, cfp.a6
    if p == 2:
        # F_4 = F_2[t]/(t^2 + t + 1), elements (a, b) = a + b t
        def mul(u, v):
            # (a+bt)(c+dt) = ac + (ad+bc)t + bd t^2, t^2 = t + 1
            a, b = u
            c, d = v
            return ((a * c + b * d) % 2, (a * d + b * c + b * d) % 2)

        def add(*els):
            return (sum(e[0] for e in els) % 2, sum(e[1] for e in els) % 2)

        elems = [(0, 0), (1, 0), (0, 1), (1, 1)]
        cnt = 1
        const = [(a6 % 2, 0), (a4 % 2, 0), (a2 % 2, 0), (a3 % 2, 0), (a1 % 2, 0)]
        c6_, c4_, c2_, c3_, c1_ = const
        for x in elems:
            x2 = mul(x, x)
            x3 = mul(x2, x)
            rhs = add(x3, mul(c2_, x2), mul(c4_, x), c6_)
            for y in elems:
                lhs = add(mul(y, y), mul(c1_, mul(x, y)), mul(c3_, y))
                if lhs == rhs:
                    cnt += 1
        return cnt
    # odd p: find a quadratic non-residue for the extension
    eps = next(e for e in range(2, p) if pow(e, (p - 1) // 2, p) == p - 1)
    half = (p * p - 1) // 2
    cnt = 1
    for u0 in range(p):
        for u1 in range(p):
            x = (u0, u1)
            x2 = _fp2_mul(x, x, p, eps)
            x3 = _fp2_mul(x2, x, p, eps)
            rhs = ((x3[0] + a2 * x2[0] + a4 * x[0] + a6) % p, (x3[1] + a2 * x2[1] + a4 * x[1]) % p)
            lin = ((a1 * x[0] + a3) % p, (a1 * x[1]) % p)
            lin2 = _fp2_mul(lin, lin, p, eps)
            d = ((4 * rhs[0] + lin2[0]) % p, (4 * rhs[1] + lin2[1]) % p)
            if d == (0, 0):
                cnt += 1
            else:
                s = _fp2_pow(d, half, p, eps)
                cnt += 2 if s == (1, 0) else 0
    return cnt


def reduction_type_search(curve: CurveQ, p: int) -> tuple[str, int]:
    """`ec_core.reduction_type` by search: find the singular point of E mod p,
    translate it to (0, 0) and read the tangent cone y^2 + a1 x y - a2 x^2,
    a node iff its two tangents are distinct, split iff they are rational."""
    if curve.N % p != 0:
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
    a2s = (a2 + 3 * r) % p
    a3s = (a3 + r * a1 + 2 * t) % p
    a4s = (a4 + 2 * r * a2 + 3 * r * r - t * a1) % p
    a6s = (a6 + r * a4 + r * r * a2 + r ** 3 - t * a3 - t * t - r * t * a1) % p
    if (a3s, a4s, a6s) != (0, 0, 0):
        raise ArithmeticError(f"translation to singular point failed mod {p}")
    if p == 2:
        if a1 == 0:
            return ("additive", 0)
        return ("multiplicative", 1 if a2s == 0 else -1)
    dq = (a1 * a1 + 4 * a2s) % p
    if dq == 0:
        return ("additive", 0)
    return ("multiplicative", 1 if pow(dq, (p - 1) // 2, p) == 1 else -1)


def an_recursive(curve: CurveQ, n: int, _memo=None) -> int:
    """a_n by direct factorization and the prime-power recursion, no sieving."""
    if _memo is None:
        _memo = {}
    key = (curve.ainvs, n)
    if key in _memo:
        return _memo[key]
    if n == 1:
        val = 1
    else:
        p = 2
        while n % p != 0:
            p += 1
        e = 0
        m = n
        while m % p == 0:
            m //= p
            e += 1
        if m > 1:
            val = an_recursive(curve, p ** e, _memo) * an_recursive(curve, m, _memo)
        elif curve.N % p == 0:
            val = reduction_type_search(curve, p)[1] ** e
        elif e == 1:
            val = ap(curve, p)
        else:
            val = ap(curve, p) * an_recursive(curve, p ** (e - 1), _memo) - p * an_recursive(
                curve, p ** (e - 2), _memo
            )
    _memo[key] = val
    return val


def an_per_prime_ap(curve: CurveQ, n_max: int) -> list[int]:
    """a_0..a_{n_max} (a_0 = 0) by the Euler recursion, calling `ap` once per good prime."""
    spf = list(range(n_max + 1))
    for i in range(2, math.isqrt(n_max) + 1):
        if spf[i] == i:
            for j in range(i * i, n_max + 1, i):
                if spf[j] == j:
                    spf[j] = i
    a = [0, 1] + [0] * (n_max - 1)
    for n in range(2, n_max + 1):
        p, m, e = spf[n], n, 0
        while m % p == 0:
            m //= p
            e += 1
        if m > 1:
            a[n] = a[n // m] * a[m]
        elif curve.N % p == 0:
            a[n] = reduction_type_search(curve, p)[1] ** e
        elif e == 1:
            a[n] = ap(curve, p)
        else:
            a[n] = a[p] * a[n // p] - p * a[n // (p * p)]
    return a


@dataclass(frozen=True)
class TwistSpec:
    base: CurveQ
    d: int
    curve: CurveQ
    conductor: int


def twist(curve: CurveQ, d: int) -> TwistSpec:
    """Quadratic twist by a fundamental discriminant d coprime to N, as a model.

    The twisted model keeps b-invariants (d b2, d^2 b4, d^3 b6), so its
    discriminant is d^6 Delta and point counting on it is valid at every
    prime not dividing d * Delta. The package reads twists from E's own a_n
    table by the character kronecker(d, .); this model is what it is checked
    against.
    """
    if d != 1 and not is_fundamental(d):
        raise ValueError(f"{d} is not a fundamental discriminant")
    if math.gcd(d, curve.N) != 1:
        raise ValueError(f"twisting discriminant {d} shares a factor with N = {curve.N}")
    a1, a2, a3, a4, a6 = curve.ainvs
    if d % 2 == 1:
        tw = (
            a1,
            a2 * d + a1 * a1 * (d - 1) // 4,
            a3,
            a4 * d * d + a1 * a3 * (d * d - 1) // 2,
            a6 * d ** 3 + a3 * a3 * (d ** 3 - 1) // 4,
        )
    else:
        b2, b4, b6, _ = b_invariants(curve)
        tw = (0, d * b2 // 4, 0, d * d * b4 // 2, d ** 3 * b6 // 4)
    n_tw = curve.N * d * d
    label = curve.label and f"{curve.label}.tw{d}"
    return TwistSpec(curve, d, CurveQ(*tw, n_tw, label), n_tw)


def l_value_straight(curve: CurveQ, terms: int = 2000) -> float:
    """L(E,1) as the plain 2 * sum a_n/n exp(-2 pi n / sqrt(N)), fixed term count."""
    memo = {}
    c = 2.0 * math.pi / math.sqrt(curve.N)
    return 2.0 * sum(
        an_recursive(curve, n, memo) / n * math.exp(-c * n) for n in range(1, terms + 1)
    )


def l_derivative_straight(curve: CurveQ, terms: int = 2000) -> float:
    """L'(E,1) for root number -1, straight sum with scipy's exponential integral."""
    from scipy.special import exp1

    memo = {}
    c = 2.0 * math.pi / math.sqrt(curve.N)
    return 2.0 * sum(
        an_recursive(curve, n, memo) / n * float(exp1(c * n)) for n in range(1, terms + 1)
    )


def twisted_an(curve: CurveQ, d: int, T: int) -> list[int]:
    """a_0..a_T of the twist by d as Python ints: kronecker(d, n) a_n(E)."""
    s = an_series(curve, T)
    return [0] + [kronecker(d, n) * s[n] for n in range(1, T + 1)]


def exp1_scalar(x: float) -> float:
    """E1(x) for one x > 0: the power series for x <= 1, else the modified
    Lentz continued fraction; the scalar form of `lseries.exp1`."""
    if x <= 1.0:
        s, term, k = 0.0, 1.0, 1
        while True:
            term *= x / k
            add = term / k
            s += add if k % 2 == 1 else -add
            if add < 1e-18:
                return -0.5772156649015328606 - math.log(x) + s
            k += 1
    b = x + 1.0
    c = 1.0 / 1e-300
    d = 1.0 / b
    h = d
    for i in range(1, 200):
        a = -i * i
        b += 2.0
        d = 1.0 / (a * d + b)
        c = b + a / c
        delta = c * d
        h *= delta
        if abs(delta - 1.0) < 1e-16:
            break
    return h * math.exp(-x)


def g_sum_per_term(v: list[int], T: int, x: float) -> float:
    """sum_{n<=T} a_n e^{-x n}, one term at a time, largest n first."""
    return float(sum(v[n] * math.exp(-x * n) for n in range(T, 0, -1)))


def _tail_terms_linear(x: float, target: float) -> int:
    """The first rung of the ladder T = 8, int(1.3 T) + 1, ... whose tail
    bound for sum |a_n| r^n, r = e^-x, with |a_n| <= sqrt(3) n, is below
    target: the reference root number's own term count, which shares
    nothing with `lseries._tail_terms`'s smallest T."""
    r = math.exp(-x)
    T = 8
    while T < 10**7:
        if math.sqrt(3.0) * r ** (T + 1) * ((T + 1) * (1 - r) + r) / (1 - r) ** 2 < target:
            return T
        T = int(T * 1.3) + 1
    raise ArithmeticError("series tail will not reach target")


def root_number_per_term(curve: CurveQ, precision: float = 1e-10, d: int = 1):
    """(sign, residual) from the Fricke symmetry g(1/t) = eps t^2 g(t) of
    g(t) = sum a_n(E_d) e^{-c n t}, c = 2 pi / sqrt(N d^2), at t = 1.07 and
    1.23, per-term sums on their own, longer ladder: the reference numeric
    root number, a different identity from the package's split identity."""
    c = 2.0 * math.pi / math.sqrt(curve.N * d * d)
    ts = (1.07, 1.23)
    T = _tail_terms_linear(c / max(ts), precision * 1e-2)
    v = twisted_an(curve, d, T)
    vals = {}
    for t in ts:
        vals[t] = g_sum_per_term(v, T, c * t)
        vals[1.0 / t] = g_sum_per_term(v, T, c / t)
    scale = max(abs(g) for g in vals.values()) + 1e-300
    best = {eps: max(abs(vals[1.0 / t] - eps * t * t * vals[t]) / scale for t in ts)
            for eps in (1, -1)}
    eps = 1 if best[1] <= best[-1] else -1
    return eps, best[eps]


def split_defect_per_term(curve: CurveQ, d: int, T: int, sign: int, value_at_1: float):
    """(defect, scale) of `lseries.l_eval`'s split defect: |F(A) + sign F(1/A) - value_at_1|
    at A = 1.07 with F(A) = sum_{n<=T} a_n(E_d)/n e^{-c n A}, one term at a time,
    largest n first; scale is the sum of |term| over both sums and the value."""
    c = 2.0 * math.pi / math.sqrt(curve.N * d * d)
    v = twisted_an(curve, d, T)
    A = 1.07
    terms_a = [v[n] / n * math.exp(-c * A * n) for n in range(T, 0, -1)]
    terms_b = [v[n] / n * math.exp(-c / A * n) for n in range(T, 0, -1)]
    defect = abs(float(sum(terms_a)) + sign * float(sum(terms_b)) - value_at_1)
    scale = sum(map(abs, terms_a)) + sum(map(abs, terms_b)) + abs(value_at_1)
    return defect, scale


def l_eval_per_term(curve: CurveQ, precision: float, d: int = 1):
    """(sign, split defect, defect scale, L(1) or L'(1), terms, tail) of
    `lseries.l_eval`, summed one term at a time with `exp1_scalar`. The sign
    is `root_number_per_term`'s for E, and eps(E) kronecker(d, -N) for a
    twist."""
    eps = root_number_per_term(curve)[0] * kronecker(d, -curve.N)
    c = 2.0 * math.pi / math.sqrt(curve.N * d * d)
    T = _tail_terms(c, precision / 4.0)
    v = twisted_an(curve, d, T)
    r = math.exp(-c)
    if eps == 1:
        val = 2.0 * float(sum(v[n] / n * math.exp(-c * n) for n in range(T, 0, -1)))
        tail = 2.0 * math.sqrt(3.0) * math.exp(-c * (T + 1)) / (1 - r)
    else:
        val = 2.0 * float(sum(v[n] / n * exp1_scalar(c * n) for n in range(T, 0, -1)))
        tail = 2.0 * math.sqrt(3.0) * r ** (T + 1) / (c * (T + 1) * (1 - r))
    resid, scale = split_defect_per_term(curve, d, T, eps, val if eps == 1 else 0.0)
    return eps, resid, scale, val, T, tail


def modular_param_per_term(curve: CurveQ, tau: complex, n_terms: int) -> complex:
    """z = sum_{n<=n_terms} a_n/n q^n, q^n by a running product, one term at a time."""
    v = an_series(curve, n_terms)
    q = cmath.exp(2j * cmath.pi * tau)
    z, qn = 0j, 1.0 + 0j
    for n in range(1, n_terms + 1):
        qn *= q
        if v[n]:
            z += v[n] / n * qn
    return z


_PI_DIGITS = "3.14159265358979323846264338327950288419716939937510582097494459230781640629"


def modular_param_decimal(curve: CurveQ, form, n_terms: int, digits: int = 50):
    """(z, tail) for a Heegner form (A, B, C) of disc D: z = sum_{n<=n_terms}
    a_n/n q^n at its exact tau = (-B + sqrt(D))/(2A), and the exact tail
    bound sqrt(3) r^(n_terms+1)/(1 - r), r = |q|, each carried in `decimal`
    at `digits` digits and rounded to floats at the end.

    q = r (cos(pi B/A) - i sin(pi B/A)), r = e^{-pi sqrt(-D)/A}, with pi
    from its digits and cos and sin from their Taylor series, so nothing of
    the package's float path is shared but the a_n table. Each of the
    n_terms steps rounds by about 10^-digits relative, so at 50 digits the
    result is good to far below a double's rounding.
    """
    a = an_series(curve, n_terms)
    with decimal.localcontext() as ctx:
        ctx.prec = digits
        pi = decimal.Decimal(_PI_DIGITS)
        theta = pi * form.B / form.A
        cos = sin = decimal.Decimal(0)
        term, k = decimal.Decimal(1), 0
        while k < 8 or abs(term) > decimal.Decimal(10) ** -(digits + 2):
            if k % 2 == 0:
                cos += term if k % 4 == 0 else -term
            else:
                sin += term if k % 4 == 1 else -term
            k += 1
            term = term * theta / k
        r = (-pi * decimal.Decimal(-form.D).sqrt() / form.A).exp()
        qr, qi = r * cos, -r * sin
        zr = zi = decimal.Decimal(0)
        pr, pim = decimal.Decimal(1), decimal.Decimal(0)  # q^n
        for n in range(1, n_terms + 1):
            pr, pim = pr * qr - pim * qi, pr * qi + pim * qr
            if a[n]:
                c = decimal.Decimal(a[n]) / n
                zr += c * pr
                zi += c * pim
        tail = decimal.Decimal(3).sqrt() * r ** (n_terms + 1) / (1 - r)
        return complex(float(zr), float(zi)), float(tail)


def two_division_roots_np(curve: CurveQ):
    """The roots of 4x^3 + b2 x^2 + 2 b4 x + b6 by `np.roots` (LAPACK's
    companion-matrix eigenvalues) and four complex Newton steps on the exact
    cubic, in `heegner._two_division_roots`'s order: the oracle for its
    LAPACK-free roots."""
    b2, b4, b6, _ = b_invariants(curve)
    rts = [complex(r) for r in np.roots([4.0, float(b2), 2.0 * float(b4), float(b6)])]
    poly = lambda x: 4 * x**3 + b2 * x**2 + 2 * b4 * x + b6
    dpoly = lambda x: 12 * x**2 + 2 * b2 * x + 2 * b4
    for _ in range(4):
        rts = [r - poly(r) / dpoly(r) for r in rts]
    if discriminant(curve) > 0:
        e1, e2, e3 = sorted((r.real for r in rts), reverse=True)
        return complex(e1), complex(e2), complex(e3)
    e1 = min(rts, key=lambda r: abs(r.imag)).real
    cpl = sorted((r for r in rts if abs(r.imag) > 1e-9), key=lambda r: -r.imag)
    return complex(e1), cpl[0], cpl[1]


def elliptic_log(lattice: PeriodLattice, x: complex, y: complex) -> complex:
    """Inverse of `elliptic_exp` by coarse grid + Newton on wp."""
    curve = lattice.curve
    b2 = b_invariants(curve)[0]
    a1, _, a3, _, _ = curve.ainvs
    target = x + b2 / 12.0
    best = None
    for aa in np.linspace(0.03, 0.97, 31):
        for bb in np.linspace(0.03, 0.97, 31):
            z = aa * lattice.omega1 + bb * lattice.omega2
            zr = lattice.reduce(z)
            if abs(zr) < 0.05 * lattice.lambda_min:
                continue
            w, _ = _wp(lattice, zr)
            d = abs(w - target)
            if best is None or d < best[0]:
                best = (d, z)
    z = best[1]
    for _ in range(80):
        zr = lattice.reduce(z)
        if abs(zr) < 1e-14:
            break
        w, wd = _wp(lattice, zr)
        step = (w - target) / wd
        if abs(step) > 0.3 * lattice.lambda_min:
            step *= 0.3 * lattice.lambda_min / abs(step)
        z = z - step
        if abs(step) < 1e-15 * lattice.lambda_min:
            break
    zr = lattice.reduce(z)
    p = elliptic_exp(lattice, zr)
    if p.is_identity:
        return zr
    yc = p.xy[1]
    y_neg = -yc - a1 * p.xy[0] - a3
    if abs(yc - y) > abs(y_neg - y):
        zr = lattice.reduce(-zr)
        p = elliptic_exp(lattice, zr)
    if abs(p.xy[0] - x) > 1e-6 * (1 + abs(x)):
        raise PrecisionUnreachable(f"elliptic_log failed to converge at x = {x}")
    return zr


def _double_exact(curve: CurveQ, P):
    a1, a2, a3, a4, a6 = curve.ainvs
    x, y = P
    den = 2 * y + a1 * x + a3
    if den == 0:
        return None
    lam = (3 * x * x + 2 * a2 * x + a4 - a1 * y) / den
    x3 = lam * lam + a1 * lam - a2 - 2 * x
    y3 = -(y + lam * (x3 - x)) - a1 * x3 - a3
    return (x3, y3)


def add_exact(curve: CurveQ, P, Q):
    """Exact group law on E(Q); points are (Fraction, Fraction) or None for O."""
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
        return _double_exact(curve, P)
    lam = (y2 - y1) / (x2 - x1)
    x3 = lam * lam + a1 * lam - a2 - x1 - x2
    y3 = -(y1 + lam * (x3 - x1)) - a1 * x3 - a3
    return (x3, y3)


def height_doubling_oracle(curve: CurveQ, P, k: int = 10) -> float:
    """Canonical height as lim h(x(2^k P))/4^k with exact arithmetic.

    Truncation error is O(C/4^k) with C a curve constant of moderate size,
    so k = 10 gives ~1e-5 for desk-scale curves.
    """
    Q = (Fraction(P[0]), Fraction(P[1]))
    for _ in range(k):
        Q = _double_exact(curve, Q)
        if Q is None:
            return 0.0
    x = Q[0]
    return math.log(max(abs(x.numerator), x.denominator)) / 4 ** k


def duplication_resultant(curve: CurveQ) -> int:
    """Res_x(F, G) of the duplication numerator F = x^4 - b4 x^2 - 2 b6 x - b8
    and denominator G = 4 x^3 + b2 x^2 + 2 b4 x + b6: the determinant of
    their 7 x 7 Sylvester matrix by fraction-free (Bareiss) elimination. It
    equals Delta^2."""
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
    return sign * M[n - 1][n - 1]


def canonical_height_every_prime(curve: CurveQ, P, tol: float = 1e-11) -> float:
    """Neron-Tate height, normalized as lim h(x(2^n P)) / 4^n.

    Computed without exact big-integer blowup: the naive height telescopes
    under duplication with corrections log max(|F|,|G|) on the normalized
    coordinate pair (bounded, evaluated in floats) minus log gcd (supported
    on primes of Delta^2, tracked exactly by bounded modular arithmetic).

    The gcd is tracked exactly at every prime of the resultant Delta^2, on P
    itself, where the package's `canonical_height` tracks none and sums a
    multiple of P in E_0 at every bad prime instead.
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
    res = abs(duplication_resultant(curve))
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


def naive_height(x: Fraction) -> float:
    return math.log(max(abs(x.numerator), x.denominator))


def matrix_order(T, modulus, cap: int = 3 ** 12) -> int:
    """Order of a square matrix by stepping T, T^2, T^3, ... one product at a
    time, over Q (modulus None, exact Fractions) or Z/modulus."""
    n = len(T)
    reduce = (lambda x: x % modulus) if modulus is not None else Fraction
    T = [[reduce(x) for x in row] for row in T]
    ident = [[reduce(int(i == j)) for j in range(n)] for i in range(n)]
    acc = T
    order = 1
    while acc != ident:
        acc = [[reduce(sum(acc[i][k] * T[k][j] for k in range(n))) for j in range(n)]
               for i in range(n)]
        order += 1
        if order > cap:
            raise ValueError("matrix order exceeds cap")
    return order


def heegner_forms_unbounded(curve: CurveQ, d: int, level: int = 1) -> list:
    """Heegner forms (A, B, C) by the plain scan over A = N a, a = 1, 2, ...,
    run until every class is found; one form per class, the first found, in
    sorted reduced-class order. Expects valid (curve, d, level) input: no
    hypothesis checks."""
    N = curve.N
    D = level * level * d
    beta = next(B for B in range(2 * N) if (B * B - D) % (4 * N) == 0)
    h = class_number(D)
    found: dict = {}
    for a_mult in itertools.count(1):
        if len(found) == h:
            break
        A = N * a_mult
        for B in range(-A + 1, A + 1):
            if (B - beta) % (2 * N) == 0 and (B * B - D) % (4 * A) == 0:
                C = (B * B - D) // (4 * A)
                if math.gcd(math.gcd(A, B), C) == 1:
                    found.setdefault(reduce_form(A, B, C), (A, B, C))
    return [found[k] for k in sorted(found)]


def fricke_direct(curve: CurveQ, tau: complex, epsilon: int, l_1: float,
                  lattice: PeriodLattice, precision: float = 1e-9) -> float:
    """The distance of z(W_N tau) + eps z(tau) - L(E,1) to the lattice, with
    z summed at W_N tau = -1/(N tau) itself, however small its Im."""
    z1 = modular_param(curve, tau, precision=precision).z
    z2 = modular_param(curve, -1.0 / (curve.N * tau), precision=precision).z
    return lattice.dist(z2 + epsilon * z1 - l_1)


def unit_quotient_whole_ring(d: int, c: int) -> list[int]:
    """Abelian invariants of (O_K/c)^* / (Z/c)^*, d = 1 mod 4, gcd(c, d) = 1,
    by enumerating all c^2 residues of O_K/c at once, with no CRT split:
    cosets by multiplying each unit through (Z/c)^*, orders by repeated
    multiplication."""
    if c == 1:
        return []
    w2 = (d - 1) // 4  # w^2 = w2 + w

    def mul(u, v):
        x1, y1 = u
        x2, y2 = v
        yy = y1 * y2
        return ((x1 * x2 + yy * w2) % c, (x1 * y2 + x2 * y1 + yy) % c)

    nf = (1 - d) // 4
    xs = np.arange(c, dtype=np.int64)
    X, Y = np.meshgrid(xs, xs, indexing="ij")
    norms = (X * X + X * Y + nf * (Y * Y)) % c
    mask = np.gcd(norms, c) == 1
    units = list(zip(X[mask].tolist(), Y[mask].tolist()))
    rational = [(t, 0) for t in range(c) if math.gcd(t, c) == 1]
    coset_id: dict = {}
    next_id = 0
    for u in units:
        if u in coset_id:
            continue
        for t in rational:
            coset_id[mul(u, t)] = next_id
        next_id += 1
    id0 = coset_id[(1, 0)]
    n_cosets = next_id
    reps: list = [None] * n_cosets
    for u in units:
        if reps[coset_id[u]] is None:
            reps[coset_id[u]] = u
    orders = []
    for rep in reps:
        acc, o = rep, 1
        while coset_id[acc] != id0:
            acc = mul(acc, rep)
            o += 1
            if o > n_cosets:
                raise ArithmeticError("quotient order bug")
        orders.append(o)
    return abelian_invariants(n_cosets, orders) if n_cosets > 1 else []


def torsion_translates_fraction(lattice, m: int) -> list[complex]:
    """The m^2 points (i/m) omega1 + (j/m) omega2, 0 <= i, j < m, i-major,
    each coordinate a Fraction rounded to a float."""
    return [float(Fraction(i, m)) * lattice.omega1 + float(Fraction(j, m)) * lattice.omega2
            for i in range(m) for j in range(m)]


def torsion_bound_over_K(curve, d_K: int) -> int:
    """m_K, a multiple of #E(K)_tors, K = Q(sqrt(d_K)), from point counts:
    the gcd over the odd p < 64 prime to N d_K of p + 1 - a_p where p splits
    in K and (p + 1)^2 - a_p^2 where it is inert, each a_p counted by `ap`."""
    m = 0
    for p in primes_upto(63)[1:]:
        if curve.N % p and d_K % p:
            a = ap(curve, p)
            m = math.gcd(m, p + 1 - a if kronecker(d_K, p) == 1 else (p + 1) ** 2 - a * a)
    return m


def trace_relation_scalar(base, up, precision: float = 1e-9) -> float:
    """Residual of Tr_{H_ell/K}(P_ell) = a_ell Tr_{H/K}(P_1) by the scalar
    loop: each orbit's z summed class by class at `precision`, one
    `lattice.dist` call per sign and translate, the translates the m_K^2
    points of (1/m_K) Lambda from Fractions, m_K and a_ell counted afresh."""
    curve, ell = base.curve, up.level
    lattice = period_lattice(curve)
    z_base = z_up = 0j
    for t in base.taus:
        z_base += modular_param(curve, t, precision=precision).z
    for t in up.taus:
        z_up += modular_param(curve, t, precision=precision).z
    a_ell = ap(curve, ell)
    translates = torsion_translates_fraction(lattice, torsion_bound_over_K(curve, base.d_K))
    best = math.inf
    for sgn in (1, -1):
        w = z_up - sgn * a_ell * z_base
        for t in translates:
            best = min(best, lattice.dist(w - t))
    return best


# ---------------------------------------------------------------------------
# References that tests call and a witness run does not. Four of them check
# claims the pipeline relies on: the ring class group by residue enumeration
# (acceptance criterion 01), Cartan counts (06), the index bound of an
# r-generated subgroup of C_q^n (09) and the involution relation (10). The
# form class group by Gaussian composition is tested in its own right.

CARTAN_MODULUS_BOUND = 200
ENUMERATION_CEILING = 10**6
UNIT_QUOTIENT_CEILING = 10**6  # bounds (p^e)^2, the residues of one local grid


def crt_pair(r1: int, m1: int, r2: int, m2: int) -> int:
    """Unique residue mod m1*m2 matching r1 mod m1 and r2 mod m2 (coprime moduli)."""
    if math.gcd(m1, m2) != 1:
        raise ValueError(f"moduli {m1}, {m2} are not coprime")
    inv = pow(m1 % m2, -1, m2)
    return (r1 + m1 * ((r2 - r1) * inv % m2)) % (m1 * m2)


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


def splitting_type(d_K: int, p: int) -> str:
    """'split', 'inert' or 'ramified' for the prime p in Q(sqrt(d_K))."""
    if not is_fundamental(d_K):
        raise InvalidDiscriminantError(f"{d_K} is not a fundamental discriminant")
    s = kronecker(d_K, p)
    return {1: "split", -1: "inert", 0: "ramified"}[s]


def principal_form(D: int) -> tuple[int, int, int]:
    _check_disc(D)
    k = D % 2
    return (1, k, (k * k - D) // 4)


def _solve_linmod(a: int, b: int, m: int) -> tuple[int, int]:
    # solutions of a x = b (mod m) as x = u + v k
    g, d, _ = _gcdext(a, m)
    if b % g != 0:
        raise ArithmeticError("no solution in composition step")
    u = (b // g) * d % m
    v = m // g
    return u, v


def _gcdext(a: int, b: int) -> tuple[int, int, int]:
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def compose(f, g, D: int) -> tuple[int, int, int]:
    """Gaussian composition of primitive forms of discriminant D, reduced output."""
    a1, b1, c1 = f
    a2, b2, c2 = g
    for (a, b, c) in (f, g):
        if b * b - 4 * a * c != D:
            raise ValueError(f"form {(a, b, c)} does not have discriminant {D}")
    s = (b1 + b2) // 2
    h = (b2 - b1) // 2
    w = math.gcd(math.gcd(a1, a2), s)
    j = w
    sa = a1 // w
    t = a2 // w
    u = s // w
    mu, nu = _solve_linmod(t * u, h * u + sa * c1, sa * t)
    lam = _solve_linmod(t * nu, h - t * mu, sa)[0]
    k = mu + nu * lam
    ell = (k * t - h) // sa
    m = (t * u * k - h * u - c1 * sa) // (sa * t)
    A = sa * t
    B = j * u - (k * t + ell * sa)
    C = k * ell - j * m
    return reduce_form(A, B, C)


def form_inverse(f, D: int) -> tuple[int, int, int]:
    a, b, c = f
    return reduce_form(a, -b, c)


def _pow_divides(o: int, p: int, j: int) -> bool:
    # does x of order o satisfy x^(p^j) = 1, i.e. o | p^j
    while o % p == 0:
        o //= p
        j -= 1
        if j < 0:
            return False
    return o == 1


def _exact_plog(n: int, p: int) -> int:
    e = 0
    while n > 1:
        if n % p != 0:
            raise ArithmeticError(f"count {n} is not a power of {p}")
        n //= p
        e += 1
    return e


def canonical_invariants(orders) -> list[int]:
    """Elementary divisor form (each divides the next) of prod C_{n} over orders."""
    primary: dict[int, list[int]] = {}
    for n in orders:
        if n < 1:
            raise ValueError("cyclic orders must be positive")
        for p, e in factorize(n):
            primary.setdefault(p, []).append(e)
    slots: dict[int, dict[int, int]] = {}
    width = 0
    for p, exps in primary.items():
        exps.sort(reverse=True)
        width = max(width, len(exps))
        slots[p] = dict(enumerate(exps))
    divisors = []
    for i in range(width):
        d = 1
        for p, byrank in slots.items():
            if i in byrank:
                d *= p ** byrank[i]
        divisors.append(d)
    divisors.sort()
    return divisors


def abelian_invariants(n: int, element_orders) -> list[int]:
    """Elementary divisors of an abelian group of order n given all element orders."""
    cnt = Counter(element_orders)
    if sum(cnt.values()) != n:
        raise ValueError("element order multiset does not match group order")
    partitions: dict[int, list[int]] = {}
    for p, e_max in factorize(n):
        s = [0]
        for j in range(1, e_max + 1):
            cj = sum(c for o, c in cnt.items() if _pow_divides(o, p, j))
            s.append(_exact_plog(cj, p))
        # number of cyclic p-factors of exponent >= j is s[j] - s[j-1]
        ranks = [s[j] - s[j - 1] for j in range(1, e_max + 1)]
        part = []
        for j, r in enumerate(ranks, start=1):
            nxt = ranks[j] if j < len(ranks) else 0
            for _ in range(r - nxt):
                part.append(p ** j)
        partitions[p] = sorted(part, reverse=True)
    width = max((len(v) for v in partitions.values()), default=0)
    out = []
    for i in range(width):
        d = 1
        for p, part in partitions.items():
            if i < len(part):
                d *= part[i]
        out.append(d)
    out.sort()
    return out


def _fold_orders(orders: Counter, local: Counter) -> Counter:
    """Order multiset of a direct product: an element's order is the lcm of its parts'."""
    combined: Counter = Counter()
    for o1, n1 in orders.items():
        for o2, n2 in local.items():
            combined[math.lcm(o1, o2)] += n1 * n2
    return combined


def _invariants_of(orders: Counter) -> list[int]:
    n = sum(orders.values())
    return abelian_invariants(n, orders) if n > 1 else []


@dataclass
class ClassGroup:
    D: int
    forms: list
    table: dict
    invariants: list

    @property
    def order(self) -> int:
        return len(self.forms)


def class_group(D: int) -> ClassGroup:
    """Form class group of discriminant D: representatives, table, invariants."""
    forms = reduced_forms(D)
    h = len(forms)
    table = {}
    for f in forms:
        for g in forms:
            table[(f, g)] = compose(f, g, D)
    ident = reduce_form(*principal_form(D))
    orders = []
    for f in forms:
        acc, o = f, 1
        while acc != ident:
            acc = table[(acc, f)]
            o += 1
            if o > h:
                raise ArithmeticError("element order exceeds group order; composition bug")
        orders.append(o)
    inv = abelian_invariants(h, orders) if h > 1 else []
    return ClassGroup(D, forms, table, inv)


@functools.cache
def local_unit_quotient_grid(d: int, p: int, e: int) -> Counter:
    """Element-order multiset of (O_K/p^e)^* / (Z/p^e)^*, d = 1 mod 4, by
    enumerating all (p^e)^2 residues of O_K/p^e at once in numpy.

    The units x + y w (norm prime to p) are keyed by their coset: x y^-1
    when y is a unit, else m + y x^-1, as x is then a unit. The keys marked
    in a boolean array of length 2m are the cosets; key r < m stands for
    r + w and key m + s for 1 + s w. The coset count n is the group order.
    An element lies in the identity coset when its w-coordinate is zero,
    and its order is found for every coset at once by Lagrange: for each
    l^a || n, the order of the (n / l^a)-th power is the l-part of the
    order. Cached, so the tests that fold the same local grid share it.
    """
    m = p**e
    w2 = ((d - 1) // 4) % m  # w^2 = w2 + w
    nf = ((1 - d) // 4) % m  # norm of x + y w is x^2 + x y + nf y^2

    def mul(u, v):
        (x1, y1), (x2, y2) = u, v
        yy = y1 * y2 % m
        return (x1 * x2 + yy * w2) % m, (x1 * y2 + x2 * y1 + yy) % m

    def power(u, k: int):
        out = (np.ones_like(u[0]), np.zeros_like(u[1]))
        while k:
            if k & 1:
                out = mul(out, u)
            k >>= 1
            if k:
                u = mul(u, u)
        return out

    X, Y = np.divmod(np.arange(m * m, dtype=np.int64), m)
    unit = (X * X + X * Y + nf * (Y * Y)) % p != 0
    x, y = X[unit], Y[unit]
    phi = m - m // p
    inv = power((np.arange(m, dtype=np.int64), np.zeros(m, dtype=np.int64)), phi - 1)[0]
    keys = np.where(y % p != 0, x * inv[y] % m, m + y * inv[x] % m)
    marked = np.zeros(2 * m, dtype=bool)
    marked[keys] = True
    cosets = np.flatnonzero(marked)
    n = cosets.size
    if n * phi != x.size:
        raise ArithmeticError(f"{x.size} units do not split into {n} cosets of {phi} (m = {m})")
    lo = cosets < m
    reps = (np.where(lo, cosets, 1), np.where(lo, 1, cosets - m))
    orders = np.ones(n, dtype=np.int64)
    for ell, a in factorize(n):
        u = power(reps, n // ell**a)
        for _ in range(a):
            moved = u[1] != 0
            orders[moved] *= ell
            u = power(u, ell)
        if u[1].any():
            raise ArithmeticError(f"a coset order does not divide the coset count {n}")
    return Counter(orders.tolist())


def unit_quotient_structure(d_K: int, c: int) -> list[int]:
    """Abelian invariants of (O_K/c)^* / (Z/c)^* by residue enumeration.

    By CRT the quotient is the direct product of the local quotients
    (O_K/p^e)^* / (Z/p^e)^* over the prime powers p^e || c. Each local
    quotient is enumerated residue by residue (`local_unit_quotient_grid`);
    an element of the product has order lcm of its local orders. The p + 1 formula is never used, so this
    checks the invariants `ring_class_levels` gives by that formula.

    Requires d_K = 1 mod 4 (so O_K = Z[w], w = (1+sqrt(d_K))/2), gcd(c, d_K) = 1,
    and (p^e)^2 within the enumeration ceiling for every p^e || c.
    """
    if d_K % 4 != 1:
        raise InvalidDiscriminantError("residue enumeration needs d_K = 1 mod 4")
    if c < 1:
        raise ValueError("conductor must be positive")
    if math.gcd(c, d_K) != 1:
        raise ValueError("conductor must be coprime to d_K")
    local = factorize(c)
    for p, e in local:
        if p ** (2 * e) > UNIT_QUOTIENT_CEILING:
            raise ValueError(
                f"({p}^{e})^2 = {p ** (2 * e)} exceeds the enumeration ceiling "
                f"{UNIT_QUOTIENT_CEILING}"
            )
    orders = Counter({1: 1})
    for p, e in local:
        orders = _fold_orders(orders, local_unit_quotient_grid(d_K, p, e))
    return _invariants_of(orders)
