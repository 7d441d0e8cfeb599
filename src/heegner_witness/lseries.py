"""Numeric L-values at s = 1: root numbers, L(1), L'(1), twists, L'(E/K,1).

E's own root number is read off numerically from the Fricke symmetry of the
exponential sum g(t) = sum a_n exp(-2 pi n t / sqrt(N)), which must satisfy
g(1/t) = eps * t^2 * g(t); the residual of the better sign is reported and a
result is accepted only if it beats the tolerance.

A twist's sign is not searched: for a fundamental d coprime to N,
eps(E_d) = eps(E) kronecker(d, -N) (Atkin-Li, "Twists of newforms and
pseudo-eigenvalues of W-operators", Invent. Math. 48, 1978). It is checked
on the terms the twist's L-value already sums, by the split identity
    L(E_d,1) = F(A) + eps F(1/A),  F(A) = sum a_n(E_d)/n exp(-c n A),
c = 2 pi / (|d| sqrt(N)), which holds for every A > 0: the value at A = 1
and the split at A = 1.07 must agree within the three series' tails plus
a rounding allowance (`split_defect`). On the 27 twists the tests run
(the pinned curves' fields and d = -3, -7, -103 of 11a, 37a, 389a and 14a)
the right sign's defect is at most 2% of that bound and the wrong sign's at
least 3*10^4 times it. An a_p off by one fails it too where the sums weigh
it: at every good prime below T/4 of 11a, 37a and 389a twisted by -7 and of
g12283.1 by -23. E's own root number still takes the numeric search; the
package runs it only at d = 1, and the tests run it at twists as the
reference for the closed form.

Central values use the classical rapidly convergent series
    L(E,1)  = 2 sum a_n/n exp(-2 pi n / sqrt(N))            (eps = +1)
    L'(E,1) = 2 sum a_n/n E1(2 pi n / sqrt(N))              (eps = -1)
with E1 the exponential integral, evaluated by a series / continued fraction
hybrid. Tail bounds use |a_n| <= d(n) sqrt(n) <= sqrt(3) n.

Every series here, and the modular parametrization in `heegner`, is summed
by numpy kernels over blocks of _SUM_BLOCK consecutive n: each block's terms
are made as float64 arrays (`exp1` lane-wise, each lane stopping where the
scalar recurrence would) and every block feeds one `math.fsum` through a
generator. The sum is therefore correctly rounded, equal for every block
length, and no array as long as the series is ever made. _SUM_BLOCK = 1024
was measured on the three field-search twists g8446.1 (d = -31), g4429.1
(-39) and g18469.1 (-19), 12,126 terms each, with the a_n table warm (median
of 7 in each of two runs, 2-vCPU Xeon): blocks of 64, 256, 1024, 4096 and
the whole series took 86-117, 45-55, 29-36, 26-31 and 25-29 ms for the
three `l_eval` calls, with a tracemalloc peak of 15, 50, 177, 659 and
1,831 KB. 1024 keeps the peak under 0.2 MB at about a fifth more time than
one block.

The quadratic twist of E by a fundamental discriminant d coprime to N has
conductor N d^2 and coefficients kronecker(d, n) a_n(E), so every function
here reads a twist from E's own a_n table; no twisted model is built.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .ec_core import CurveQ, an_series
from .quadforms import is_fundamental, kronecker

_SQRT3 = math.sqrt(3.0)
_EULER_GAMMA = 0.5772156649015328606
_SUM_BLOCK = 1024  # terms per numpy block of a series sum (measured, see above)

DEFAULT_NONVANISHING_THRESHOLD = 1e-3
DEFAULT_PRECISION = 1e-8


class LSeriesInconclusiveError(ArithmeticError):
    """Neither functional equation sign fits within tolerance, or a given
    sign fails its split identity."""


_AN_CACHE: dict = {}


def cached_an(curve: CurveQ, n_max: int):
    """The one a_n table of a curve, shared by the curve and all its twists.

    A request beyond the cached table grows it to exactly max(n_max, 64)
    terms, counting only the primes beyond the old end; it never grows ahead.
    """
    key = (curve.ainvs, curve.N)
    cur = _AN_CACHE.get(key)
    if cur is None or cur.n_max < n_max:
        cur = an_series(curve, max(n_max, 64), cur)
        _AN_CACHE[key] = cur
    return cur


def _twist_conductor(curve: CurveQ, d: int) -> int:
    """N d^2, the conductor of the twist by d; d must be fundamental and coprime to N."""
    if d != 1 and not is_fundamental(d):
        raise ValueError(f"{d} is not a fundamental discriminant")
    if math.gcd(d, curve.N) != 1:
        raise ValueError(f"twisting discriminant {d} shares a factor with N = {curve.N}")
    return curve.N * d * d


def n_blocks(T: int):
    """(lo, hi) with lo <= n < hi covering n = 1..T in blocks of _SUM_BLOCK."""
    for lo in range(1, T + 1, _SUM_BLOCK):
        yield lo, min(lo + _SUM_BLOCK, T + 1)


def fsum_blocks(parts) -> float:
    """The correctly rounded sum of every float in an iterable of arrays.

    One fsum reads the blocks through a generator, so the result does not
    depend on how the terms were blocked and no whole-length array is kept.
    """
    return math.fsum(itertools.chain.from_iterable(part.tolist() for part in parts))


def _blocks(curve: CurveQ, d: int, T: int):
    """(n, a_n) of the twist by d for n = 1..T, block by block, as float64 arrays.

    a_n(E_d) = kronecker(d, n) a_n(E), a character periodic mod |d|, read
    from E's one table. Both are integers far below 2^53, so exact.
    """
    v = cached_an(curve, T).values
    if d != 1:
        chi = np.array([kronecker(d, n) for n in range(abs(d))], dtype=np.int64)
    for lo, hi in n_blocks(T):
        a = v[lo:hi] if d == 1 else v[lo:hi] * chi[np.arange(lo, hi) % abs(d)]
        yield np.arange(lo, hi, dtype=np.float64), a.astype(np.float64)


def exp1(x) -> np.ndarray:
    """Exponential integral E1(x), lane-wise over an array of x > 0, ~1e-14 relative.

    x <= 1 sums the power series and x > 1 runs the modified Lentz continued
    fraction. Each lane stops at its own convergence test, so its value does
    not depend on the other lanes.
    """
    x = np.asarray(x, dtype=np.float64)
    if np.count_nonzero(x <= 0):
        raise ValueError("E1 needs x > 0")
    flat = x.ravel()
    out = np.empty_like(flat)
    small = np.flatnonzero(flat <= 1.0)
    out[small] = _exp1_series(flat[small])
    large = np.flatnonzero(flat > 1.0)
    out[large] = _exp1_fraction(flat[large])
    return out.reshape(x.shape)


def _exp1_series(x: np.ndarray) -> np.ndarray:
    """-gamma - ln x + sum (-1)^(k+1) x^k / (k k!) for 0 < x <= 1, each lane
    stopping after its first term below 1e-18."""
    s, term, x_live = np.zeros_like(x), np.ones_like(x), x
    out, lane = np.empty_like(x), np.arange(len(x))
    k = 1
    while lane.size:
        term *= x_live / k
        add = term / k
        s += add if k % 2 == 1 else -add
        done = add < 1e-18
        if np.count_nonzero(done):
            out[lane[done]] = s[done]
            keep = ~done
            lane, s, term, x_live = lane[keep], s[keep], term[keep], x_live[keep]
        k += 1
    return -_EULER_GAMMA - np.log(x) + out


def _exp1_fraction(x: np.ndarray) -> np.ndarray:
    """e^{-x}/(x+1- 1/(x+3- 4/(x+5- ...))) for x > 1 by modified Lentz, each
    lane stopping at its first factor delta with |delta - 1| < 1e-16, which
    in float64 means delta == 1, or after 199 factors."""
    b = x + 1.0
    c = np.full_like(x, 1.0 / 1e-300)
    d = 1.0 / b
    h = d.copy()
    out, lane = np.empty_like(x), np.arange(len(x))
    for i in range(1, 200):
        if not lane.size:
            break
        a = float(-i * i)
        b += 2.0
        d *= a
        d += b
        np.divide(1.0, d, out=d)  # d = 1/(a d + b)
        np.divide(a, c, out=c)
        c += b  # c = b + a/c
        delta = c * d
        h *= delta
        done = delta == 1.0
        if np.count_nonzero(done):
            out[lane[done]] = h[done]
            keep = ~done
            lane, b, c, d, h = lane[keep], b[keep], c[keep], d[keep], h[keep]
    out[lane] = h
    return out * np.exp(-x)


def _tail_terms(x: float, target: float, linear_weight: bool) -> int:
    """A T with the tail bound below target for sum w(n) r^n, r = e^-x: the
    first rung of the ladder T = 8, int(1.3 T) + 1, ... that meets it.

    The bound falls with T, so the smallest such T lies between the rung
    returned and the rung below it: the ladder overshoots by up to 30%.
    linear_weight=True bounds |a_n| r^n with a_n <= sqrt(3) n; otherwise
    bounds sqrt(3) r^n (the a_n/n series).
    """
    r = math.exp(-x)
    T = 8
    while T < 10**7:
        if linear_weight:
            bound = _SQRT3 * r ** (T + 1) * ((T + 1) * (1 - r) + r) / (1 - r) ** 2
        else:
            bound = _SQRT3 * r ** (T + 1) / (1 - r)
        if bound < target:
            return T
        T = int(T * 1.3) + 1
    raise ArithmeticError("series tail will not reach target")


def _g_sum(curve: CurveQ, d: int, T: int, x: float) -> float:
    """sum_{n<=T} a_n(E_d) e^{-x n}, correctly rounded by one fsum over the blocks."""
    return fsum_blocks(a * np.exp(-x * n) for n, a in _blocks(curve, d, T))


def _f_sum(curve: CurveQ, d: int, T: int, x: float) -> float:
    """sum_{n<=T} a_n(E_d)/n e^{-x n}, correctly rounded by one fsum over the blocks."""
    return fsum_blocks(a / n * np.exp(-x * n) for n, a in _blocks(curve, d, T))


def _f_bound(x: float, T: int) -> float:
    """Tail plus rounding bound of a computed `_f_sum(curve, d, T, x)`.

    The tail is sum_{n>T} sqrt(3) r^n, r = e^-x. Each term a/n e^{-xn}, with
    |a/n| <= sqrt(3), takes one rounding in a/n, one in x n (an error x n u
    in the exponent), at most 4 ulp in np.exp and one in the product; one
    more for the fsum and two for combining the sums: (x T + 10) u per unit
    of sum sqrt(3) r^n <= sqrt(3)/(1 - r), u = 2^-52.
    """
    r = math.exp(-x)
    return _SQRT3 * (r ** (T + 1) + (x * T + 10) * 2.0**-52) / (1 - r)


def root_number(curve: CurveQ, precision: float = 1e-10, d: int = 1) -> tuple[int, float]:
    """Sign of the functional equation of E twisted by d, and the residual it
    leaves, from Fricke symmetry."""
    sqN = math.sqrt(_twist_conductor(curve, d))
    c = 2.0 * math.pi / sqN
    ts = (1.07, 1.23)
    x_min = c / max(ts)
    T = _tail_terms(x_min, precision * 1e-2, linear_weight=True)
    vals = {}
    for t in ts:
        vals[t] = _g_sum(curve, d, T, c * t)
        vals[1.0 / t] = _g_sum(curve, d, T, c / t)
    scale = max(abs(v) for v in vals.values()) + 1e-300
    best = {}
    for eps in (1, -1):
        best[eps] = max(
            abs(vals[1.0 / t] - eps * t * t * vals[t]) / scale for t in ts
        )
    eps = 1 if best[1] <= best[-1] else -1
    if best[eps] > precision * 1e4:  # sign must fit far better than the tolerance floor
        raise LSeriesInconclusiveError(
            f"no functional equation sign fits: residuals {best}"
        )
    return eps, best[eps]


def twist_sign(epsilon: int, curve: CurveQ, d: int) -> int:
    """eps(E_d) = eps(E) kronecker(d, -N) for a fundamental d coprime to N
    (Atkin-Li, Invent. Math. 48, 1978), from E's sign `epsilon`."""
    return epsilon * kronecker(d, -curve.N)


def split_defect(curve: CurveQ, d: int, T: int, sign: int, value_at_1: float) -> float:
    """|F(A) + sign F(1/A) - L(E_d,1)| at A = 1.07, F(A) = sum_{n<=T}
    a_n(E_d)/n e^{-c n A}, c = 2 pi / sqrt(N d^2), and L(E_d,1) as `l_eval`
    summed it on the same T terms: 2 F(1) for sign +1, 0 for sign -1.

    The identity holds for the full series at every A > 0 with the right
    sign, so the defect is bounded by the tails and rounding of the three
    sums (`_f_bound`). LSeriesInconclusiveError, naming both, when it is not.
    """
    c = 2.0 * math.pi / math.sqrt(_twist_conductor(curve, d))
    A = 1.07
    split = _f_sum(curve, d, T, c * A) + sign * _f_sum(curve, d, T, c / A)
    defect = abs(split - value_at_1)
    bound = _f_bound(c * A, T) + _f_bound(c / A, T) + (1 + sign) * _f_bound(c, T)
    if not defect <= bound:
        raise LSeriesInconclusiveError(
            f"sign {sign} of the twist by {d} fails the split identity at A = {A}: "
            f"defect {defect:.3e} exceeds the bound {bound:.3e} on {T} terms"
        )
    return defect


@dataclass
class LEval:
    value_at_1: float
    derivative_at_1: float | None
    epsilon: int
    terms_used: int
    tail_bound: float
    fe_residual: float


def l_eval(
    curve: CurveQ, precision: float = DEFAULT_PRECISION, d: int = 1, sign: int | None = None
) -> LEval:
    """L(1) and, for odd sign, L'(1) of E twisted by d (E itself for d = 1),
    with explicit truncation bounds.

    With d = 1 and no `sign`, the sign is `root_number`'s and fe_residual
    its Fricke residual. Otherwise the sign is `sign`, or for a twist
    `twist_sign` of E's own, and fe_residual is its `split_defect`, checked
    on the T terms the value sums.
    """
    resid = None
    if sign is None:
        sign, resid = root_number(curve)
        if d != 1:
            sign, resid = twist_sign(sign, curve, d), None
    sqN = math.sqrt(_twist_conductor(curve, d))
    c = 2.0 * math.pi / sqN
    T = _tail_terms(c, precision / 4.0, linear_weight=False)
    if sign == 1:
        val, der = 2.0 * _f_sum(curve, d, T, c), None
        tail = 2.0 * _SQRT3 * math.exp(-c * (T + 1)) / (1 - math.exp(-c))
    else:
        val = 0.0
        der = 2.0 * fsum_blocks(a / n * exp1(c * n) for n, a in _blocks(curve, d, T))
        r = math.exp(-c)
        tail = 2.0 * _SQRT3 * r ** (T + 1) / (c * (T + 1) * (1 - r))
    if resid is None:
        resid = split_defect(curve, d, T, sign, val)
    return LEval(val, der, sign, T, tail, resid)


@dataclass
class LOverK:
    """L'(E/K, 1) through the factorization L(E/K,s) = L(E,s) L(E_d,s)."""

    d_K: int
    value: float
    nonzero: bool
    l_curve: LEval
    l_twist: LEval


def l_over_K(
    curve: CurveQ,
    d_K: int,
    precision: float = DEFAULT_PRECISION,
    threshold: float = DEFAULT_NONVANISHING_THRESHOLD,
    le: LEval | None = None,
) -> LOverK:
    """L'(E/K,1) = L(E,1) L'(E_d,1) or L'(E,1) L(E_d,1), from E's one a_n table.

    The twist's sign is `twist_sign` of le.epsilon, so the twist reads no
    more a_n than its own L-value sums, and `l_eval` checks it by
    `split_defect`. It must be -le.epsilon (Heegner parity:
    kronecker(d_K, -N) = -1), or LSeriesInconclusiveError. `le` is
    `l_eval(curve, precision)` when the caller already has it, as the field
    search does; it is computed here otherwise. ValueError if d_K is not
    fundamental or not coprime to N.
    """
    _twist_conductor(curve, d_K)  # ValueError before any sum
    if le is None:
        le = l_eval(curve, precision)
    sign = twist_sign(le.epsilon, curve, d_K)
    if le.epsilon * sign != -1:
        raise LSeriesInconclusiveError(
            f"twist by {d_K} does not flip the sign ({le.epsilon}, {sign}): "
            f"kronecker({d_K}, -{curve.N}) = {le.epsilon * sign}, Heegner parity violated"
        )
    te = l_eval(curve, precision, d_K, sign)
    if le.epsilon == -1:
        value = le.derivative_at_1 * te.value_at_1
    else:
        value = le.value_at_1 * te.derivative_at_1
    return LOverK(d_K, value, abs(value) > threshold, le, te)


def gate_from_leval(le: LEval, threshold: float = DEFAULT_NONVANISHING_THRESHOLD) -> str:
    if le.epsilon == 1 and abs(le.value_at_1) > threshold:
        return "rank0"
    if le.epsilon == -1 and abs(le.derivative_at_1) > threshold:
        return "rank1"
    return "not_eligible"

