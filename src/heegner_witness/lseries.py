"""Numeric L-values at s = 1: signs, L(1), L'(1), twists, L'(E/K,1).

One mechanism fixes every sign, the split identity
    L(E_d,1) = F(A) + eps F(1/A),  F(A) = sum a_n(E_d)/n exp(-c n A),
c = 2 pi / (|d| sqrt(N)), which the full series meets for every A > 0 with
the right sign eps (and L(E_d,1) = 2 F(1) for eps = +1, 0 for eps = -1).
`l_eval` sums F(1), F(1.07) and F(1/1.07) on the T terms its L-value sums,
the smallest T whose tail bound meets precision/4 (`_tail_terms`); a sign
fits when its defect is within the three series' tails plus a rounding
allowance. E's own sign is the one sign that fits: on the 25 curves of
`perfbench/data/pinned.txt` and `pins.json`, at the default precision, the
right sign's defect is at most 0.11 of its bound and the wrong sign's at
least 2.1*10^4 times it. At coarse precision the smallest T can leave both
signs inside their bounds: on 16, 11, 1 and 0 of the 25 at 1e-2, 3e-3, 1e-3
and 1e-4. The gate then grows T to int(1.3 T) + 1 and sums again while both
fit, which settles every one of the 25 at all four precisions (43a at 1e-2
on 10 terms, not 7); it cannot pick a wrong sign, since the right sign's
bound is proven. It fails by name when neither sign fits, or when both
still fit and the next T would pass POINT_COUNT_CEILING.

A twist's sign is not chosen: for a fundamental d coprime to N,
eps(E_d) = eps(E) kronecker(d, -N) (Atkin-Li, "Twists of newforms and
pseudo-eigenvalues of W-operators", Invent. Math. 48, 1978), and the split
identity checks it on the twist's own terms, whose T never grows. On the
27 twists the tests run (the pinned curves' fields and d = -3, -7, -103 of
11a, 37a, 389a and 14a) the right sign's defect is at most 2% of its bound
and the wrong sign's at least 1.6*10^4 times it. An a_p off by one fails it
too where the sums weigh it: at every good prime below T/4 of 11a, 37a and
389a twisted by -7 and of g12283.1 by -23.

Central values use the classical rapidly convergent series
    L(E,1)  = 2 sum a_n/n exp(-2 pi n / sqrt(N))            (eps = +1)
    L'(E,1) = 2 sum a_n/n E1(2 pi n / sqrt(N))              (eps = -1)
with E1 the exponential integral, evaluated by a series / continued fraction
hybrid. Tail bounds use |a_n| <= d(n) sqrt(n) <= sqrt(3) n.

Every series here, and the modular parametrization in `heegner`, is summed
by numpy kernels over blocks of _SUM_BLOCK consecutive n: `an_over_n_blocks`
reads each block's a_n/n from the one table as float64, each sum multiplies
it by its weight (`exp1` lane-wise, each lane stopping where the scalar
recurrence would) and every block feeds one `math.fsum` through a
generator. The sum is therefore correctly rounded, equal for every block
length, and no array as long as the series is ever made. _SUM_BLOCK = 1024
was measured on the three field-search twists g8446.1 (d = -31), g4429.1
(-39) and g18469.1 (-19), on the 12,126 terms each that the old rung
ladder of T gave, with the a_n table warm (median of 7 in each of two runs,
2-vCPU Xeon): blocks of 64, 256, 1024, 4096 and the whole series took
86-117, 45-55, 29-36, 26-31 and 25-29 ms for the three `l_eval` calls,
with a tracemalloc peak of 15, 50, 177, 659 and 1,831 KB. 1024 keeps the
peak under 0.2 MB at about a fifth more time than one block.

`exp1`'s two kernels step their lanes in numpy only while more than
_SCALAR_LANES = 32 are live, and finish the rest in Python floats by the
same IEEE operations in the same order, so every E1 value, L'(1) and report
is bit for bit what an all-numpy loop gives. The Lentz fraction runs 90
rounds for x just above 1 and 4 at x = 700, and an all-numpy loop pays ~10
numpy calls per round however few lanes are left: 37a's 27 gate terms took
0.96 ms against 1.43 ms for a 1024-lane block. Over the gate grids of the
11 pinned rank-1 curves, three twist grids of 81-518 terms and two
1024-lane blocks (minimum of 3 per grid, median of 9 rounds, 2-vCPU Xeon),
thresholds of 0, 16, 24, 32, 48 and 64 lanes took 22.2, 9.6, 9.0, 8.5, 8.5
and 8.5 ms in total; 37a's grid alone takes 0.16 ms at 32.

The quadratic twist of E by a fundamental discriminant d coprime to N has
conductor N d^2 and coefficients kronecker(d, n) a_n(E), so every function
here reads a twist from E's own a_n table; no twisted model is built.
"""

from __future__ import annotations

import itertools
import math
from typing import NamedTuple

import numpy as np

from .ec_core import POINT_COUNT_CEILING, CurveQ, an_series
from .quadforms import is_fundamental, kronecker

_SQRT3 = math.sqrt(3.0)
_EULER_GAMMA = 0.5772156649015328606
_SUM_BLOCK = 1024  # terms per numpy block of a series sum (measured, see above)
_SPLIT_A = 1.07  # the split point of the sign check
_SCALAR_LANES = 32  # live E1 lanes at which a kernel goes on in Python floats (measured, see above)

DEFAULT_NONVANISHING_THRESHOLD = 1e-3
DEFAULT_PRECISION = 1e-8


class LSeriesInconclusiveError(ArithmeticError):
    """No sign, or both signs, meet the split identity, or a given sign
    fails it, or the series needs more terms than an a_n table can hold."""


_AN_CACHE: dict = {}  # the current curve's table only, by (ainvs, N)


def cached_an(curve: CurveQ, n_max: int):
    """The one a_n table of a curve, shared by the curve and all its twists.

    A request beyond the cached table grows it to exactly max(n_max, 64)
    terms, counting only the primes beyond the old end; it never grows ahead.
    A request for another curve drops the table held, so a process keeps
    one table however many curves it runs.
    """
    key = (curve.ainvs, curve.N)
    cur = _AN_CACHE.get(key)
    if cur is None or cur.n_max < n_max:
        cur = an_series(curve, max(n_max, 64), cur)
        _AN_CACHE.clear()
        _AN_CACHE[key] = cur
    return cur


def held_an(curve: CurveQ):
    """The table `cached_an` holds for `curve`, as long as it is, or None;
    it never counts a prime."""
    return _AN_CACHE.get((curve.ainvs, curve.N))


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


def an_over_n_blocks(curve: CurveQ, chi: np.ndarray | None, T: int):
    """(n, a_n/n) of the twist with character row chi for n = 1..T, block by
    block, as float64 arrays; E itself for chi None. The one place a series
    reads the a_n table.

    a_n(E_d) = kronecker(d, n) a_n(E), a character periodic mod |d|, read
    from E's one table. `l_eval` builds chi = kronecker(d, n) for n = 0..|d|-1
    once and passes it to each of its sums. a_n and n are integers far below
    2^53, so both are exact in float64 and a_n/n takes one rounding.
    """
    v = cached_an(curve, T).values
    for lo, hi in n_blocks(T):
        a = v[lo:hi] if chi is None else v[lo:hi] * chi[np.arange(lo, hi) % len(chi)]
        n = np.arange(lo, hi, dtype=np.float64)
        yield n, a.astype(np.float64) / n


def exp1(x) -> np.ndarray:
    """Exponential integral E1(x), lane-wise over an array of x > 0, ~1e-14 relative.

    x <= 1 sums the power series and x > 1 runs the modified Lentz continued
    fraction. Each lane stops at its own convergence test, so its value does
    not depend on the other lanes. Both kernels step their lanes in numpy
    while more than _SCALAR_LANES are live and finish the rest in Python
    floats, with the same IEEE operations in the same order: the tail moves
    no value by a bit, it only stops paying numpy's per-call cost for the
    few slowest lanes. ValueError for any x that is not > 0, NaN included.
    """
    x = np.asarray(x, dtype=np.float64)
    if np.count_nonzero(~(x > 0)):
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
    stopping after its first term below 1e-18.

    The last _SCALAR_LANES live lanes take the steps term *= x/k, add =
    term/k and s +- add in Python floats; -gamma - ln x stays lane-wise."""
    s, term, x_live = np.zeros_like(x), np.ones_like(x), x
    out, lane = np.empty_like(x), np.arange(len(x))
    k = 1
    while lane.size > _SCALAR_LANES:
        term *= x_live / k
        add = term / k
        s += add if k % 2 == 1 else -add
        done = add < 1e-18
        if np.count_nonzero(done):
            out[lane[done]] = s[done]
            keep = ~done
            lane, s, term, x_live = lane[keep], s[keep], term[keep], x_live[keep]
        k += 1
    for j, sj, tj, xj in zip(lane.tolist(), s.tolist(), term.tolist(), x_live.tolist()):
        kj = k
        while True:
            tj *= xj / kj
            add = tj / kj
            sj += add if kj % 2 == 1 else -add
            if add < 1e-18:
                break
            kj += 1
        out[j] = sj
    return -_EULER_GAMMA - np.log(x) + out


def _exp1_fraction(x: np.ndarray) -> np.ndarray:
    """e^{-x}/(x+1- 1/(x+3- 4/(x+5- ...))) for x > 1 by modified Lentz, each
    lane stopping at its first factor delta with |delta - 1| < 1e-16, which
    in float64 means delta == 1, or after 199 factors.

    Lanes just above 1 take up to 90 factors and lanes near 700 a handful, so the
    loop runs lane-wise only while more than _SCALAR_LANES lanes are live;
    the rest take d = 1/(d a + b), c = a/c + b and h *= c d, with the same
    stop and cap, in Python floats. e^{-x} stays lane-wise."""
    b = x + 1.0
    c = np.full_like(x, 1.0 / 1e-300)
    d = 1.0 / b
    h = d.copy()
    out, lane = np.empty_like(x), np.arange(len(x))
    i = 1
    while i < 200 and lane.size > _SCALAR_LANES:
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
        i += 1
    for j, bj, cj, dj, hj in zip(lane.tolist(), b.tolist(), c.tolist(), d.tolist(), h.tolist()):
        for ij in range(i, 200):
            a = float(-ij * ij)
            bj += 2.0
            dj = 1.0 / (dj * a + bj)
            cj = a / cj + bj
            delta = cj * dj
            hj *= delta
            if delta == 1.0:
                break
        out[j] = hj
    return out * np.exp(-x)


def _tail_terms(x: float, target: float) -> int:
    """The smallest T >= 1 with sqrt(3) r^(T+1)/(1 - r) < target, r = e^-x:
    the fewest terms whose tail bound for an a_n/n series sum a_n/n r^n,
    |a_n/n| <= sqrt(3), meets target.

    The bound falls with T, so T = floor(ln(sqrt(3) / ((1 - r) target)) /
    -ln r) in closed form. It takes ln r of the rounded r, not -x: for x
    near 1e-13 the two differ by 1e-3 relative, and T by 10^11. The bound
    is then tested in float64 as written above, and T steps down or up
    until it is the smallest that passes, in case rounding moved the closed
    form (over x in [1e-5, 5] and targets down to 1e-200 it never did).
    T can exceed what any table holds: `l_eval` checks it before it sums.
    ValueError, naming the target, unless it is finite and > 0;
    LSeriesInconclusiveError when r rounds to 1.
    """
    if not 0 < target < math.inf:  # NaN fails too
        raise ValueError(f"the tail target must be finite and > 0, got {target!r}")
    r = math.exp(-x)
    if r == 1.0:
        raise LSeriesInconclusiveError(f"e^-x rounds to 1 at x = {x:.3e}: no T bounds the tail")

    def meets(T: int) -> bool:
        return _SQRT3 * r ** (T + 1) / (1 - r) < target

    T = max(1, math.floor((math.log(_SQRT3 / (1 - r)) - math.log(target)) / -math.log(r)))
    while T > 1 and meets(T - 1):
        T -= 1
    while not meets(T):
        T += 1
    return T


def _f_sum(curve: CurveQ, chi: np.ndarray | None, T: int, x: float) -> float:
    """sum_{n<=T} a_n(E_d)/n e^{-x n}, correctly rounded by one fsum over the blocks."""
    return fsum_blocks(a_over_n * np.exp(-x * n) for n, a_over_n in an_over_n_blocks(curve, chi, T))


def _f_bound(x: float, T: int) -> float:
    """Tail plus rounding bound of a computed `_f_sum(curve, chi, T, x)`.

    The tail is sum_{n>T} sqrt(3) r^n, r = e^-x. Each term a/n e^{-xn}, with
    |a/n| <= sqrt(3), takes one rounding in a/n, one in x n (an error x n u
    in the exponent), at most 4 ulp in np.exp and one in the product; one
    more for the fsum and two for combining the sums: (x T + 10) u per unit
    of sum sqrt(3) r^n <= sqrt(3)/(1 - r), u = 2^-52.
    """
    r = math.exp(-x)
    return _SQRT3 * (r ** (T + 1) + (x * T + 10) * 2.0**-52) / (1 - r)


def twist_sign(epsilon: int, curve: CurveQ, d: int) -> int:
    """eps(E_d) = eps(E) kronecker(d, -N) for a fundamental d coprime to N
    (Atkin-Li, Invent. Math. 48, 1978), from E's sign `epsilon`."""
    return epsilon * kronecker(d, -curve.N)


class LEval(NamedTuple):
    """L(1) or L'(1) of E or a twist, its sign, and the bounds `l_eval` kept."""

    value_at_1: float
    derivative_at_1: float | None
    epsilon: int
    terms_used: int
    tail_bound: float
    split_defect: float


def l_eval(
    curve: CurveQ, precision: float = DEFAULT_PRECISION, d: int = 1, sign: int | None = None
) -> LEval:
    """L(1) and, for odd sign, L'(1) of E twisted by d (E itself for d = 1),
    with explicit truncation bounds, and the sign's split defect.

    On the T terms the value sums, F(1), F(A) and F(1/A), A = 1.07, give
    the defect |F(A) + s F(1/A) - (1 + s) F(1)| of a sign s, which the full
    series meets exactly for the right sign; its bound is the three sums'
    tails and rounding (`_f_bound`). With `sign` given (a twist's
    `twist_sign`, from `l_over_K`), that sign must meet its bound; with none,
    both are tried and the one that meets it is kept. T is `_tail_terms`'s
    smallest count for precision/4; while both signs fit, T grows to
    int(1.3 T) + 1 and the sums are redone, as long as that T stays within
    POINT_COUNT_CEILING. A given sign never grows T.
    LSeriesInconclusiveError, naming the defects and bounds, when the given
    sign fails, or when no sign or both signs fit on the last T; naming T,
    before any a_n is counted, when T passes POINT_COUNT_CEILING, since the
    table would need a_p at primes past it.
    """
    c = 2.0 * math.pi / math.sqrt(_twist_conductor(curve, d))
    of = "E" if d == 1 else f"the twist by {d}"
    T = _tail_terms(c, precision / 4.0)
    if T > POINT_COUNT_CEILING:  # before the a_n table grows to T
        raise LSeriesInconclusiveError(
            f"the L-series of {of} needs T = {T} terms at precision {precision:g}, "
            f"past the point count ceiling {POINT_COUNT_CEILING}"
        )
    chi = None if d == 1 else np.array([kronecker(d, n) for n in range(abs(d))], dtype=np.int64)
    while True:
        f1 = 0.0 if sign == -1 else _f_sum(curve, chi, T, c)  # only sign +1 reads F(1)
        fa, fb = _f_sum(curve, chi, T, c * _SPLIT_A), _f_sum(curve, chi, T, c / _SPLIT_A)
        tails = _f_bound(c * _SPLIT_A, T) + _f_bound(c / _SPLIT_A, T)
        tried = {s: (abs(fa + s * fb - (1 + s) * f1), tails + (1 + s) * _f_bound(c, T))
                 for s in ((1, -1) if sign is None else (sign,))}
        fits = [s for s, (defect, bound) in tried.items() if defect <= bound]
        # both signs fit: on more terms the wrong sign's bound falls below its defect
        grown = int(T * 1.3) + 1
        if len(fits) < 2 or grown > POINT_COUNT_CEILING:
            break
        T = grown
    if len(fits) != 1:
        if sign is not None:
            defect, bound = tried[sign]
            raise LSeriesInconclusiveError(
                f"sign {sign} of {of} fails the split identity at A = {_SPLIT_A}: "
                f"defect {defect:.3e} exceeds the bound {bound:.3e} on {T} terms"
            )
        raise LSeriesInconclusiveError(
            f"{'both signs' if fits else 'neither sign'} of {of} "
            f"{'meet' if fits else 'meets'} the split identity at A = {_SPLIT_A} on {T} terms: "
            + ", ".join(f"sign {s:+d} has defect {defect:.3e} against the bound {bound:.3e}"
                        for s, (defect, bound) in tried.items())
        )
    sign = fits[0]
    if sign == 1:
        val, der = 2.0 * f1, None
        tail = 2.0 * _SQRT3 * math.exp(-c * (T + 1)) / (1 - math.exp(-c))
    else:
        val = 0.0
        der = 2.0 * fsum_blocks(a_over_n * exp1(c * n)
                                for n, a_over_n in an_over_n_blocks(curve, chi, T))
        r = math.exp(-c)
        tail = 2.0 * _SQRT3 * r ** (T + 1) / (c * (T + 1) * (1 - r))
    return LEval(val, der, sign, T, tail, tried[sign][0])


class LOverK(NamedTuple):
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

