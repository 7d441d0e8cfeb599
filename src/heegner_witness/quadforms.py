"""Imaginary quadratic discriminants, reduced forms, ring class structure.

Binary quadratic forms (a, b, c) of discriminant D = b^2 - 4ac < 0 model ideal
classes of the order of discriminant D; `reduced_forms` lists one reduced
form per class, so `class_number` counts them. The Galois group of the ring
class field H_c over the Hilbert class field, (O_K/c)^* / (Z/c)^* for
squarefree c with all p | c inert and d_K = 1 mod 4, is by CRT the product
of the local quotients (O_K/p)^* / (Z/p)^*, and the formula says each is
C_{p+1}. Each local quotient is counted by its O(p) cosets of F_p^* and
certified cyclic of that order n_p by a generator, once per (d, p) in every
run; `ring_class_levels` requires n_p = p + 1 of each tower prime and takes
each level's elementary divisors from the certified C_{n_p} by one gcd/lcm
exchange.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as _np

from .arith import factorize, is_prime, is_squarefree

class InvalidDiscriminantError(ValueError):
    pass


def kronecker(d: int, n: int) -> int:
    """Kronecker symbol (d/n), fully multiplicative extension of Legendre."""
    if n == 0:
        return 1 if d in (1, -1) else 0
    if d % 2 == 0 and n % 2 == 0:
        return 0
    result = 1
    if n < 0:
        n = -n
        if d < 0:
            result = -result
    while n % 2 == 0:
        n //= 2
        if d % 8 in (3, 5):
            result = -result
    # n odd positive; jacobi-style reciprocity loop
    d %= n
    while d != 0:
        while d % 2 == 0:
            d //= 2
            if n % 8 in (3, 5):
                result = -result
        d, n = n, d
        if d % 4 == 3 and n % 4 == 3:
            result = -result
        d %= n
    return result if n == 1 else 0


def is_fundamental(d: int) -> bool:
    if d == 1:
        return True
    if d == 0:
        return False
    if d % 4 == 1 or (d < 0 and d % 4 == -3):
        return is_squarefree(d)
    if d % 4 == 0:
        m = d // 4
        return m % 4 in (2, 3, -2, -1) and is_squarefree(m)
    return False


def _check_disc(D: int):
    if D >= 0 or D % 4 not in (0, 1):
        raise InvalidDiscriminantError(f"invalid form discriminant {D}")


def reduce_form(a: int, b: int, c: int) -> tuple[int, int, int]:
    """Reduced representative of the class of the positive definite form (a,b,c)."""
    while True:
        if -a < b <= a <= c:
            if a == c and b < 0:
                b = -b
            return (a, b, c)
        if a > c:
            a, b, c = c, -b, a
            continue
        # normalize b into (-a, a]
        bn = b % (2 * a)
        if bn > a:
            bn -= 2 * a
        r = (bn - b) // (2 * a)
        c = a * r * r + b * r + c
        b = bn


def reduced_forms(D: int) -> list[tuple[int, int, int]]:
    """All reduced primitive forms of discriminant D < 0; one per class."""
    _check_disc(D)
    forms = []
    a = 1
    while 3 * a * a <= -D:
        for b in range(-a + 1, a + 1):
            q = b * b - D
            if q % (4 * a) == 0:
                c = q // (4 * a)
                if c >= a and math.gcd(math.gcd(a, b), c) == 1:
                    if a == c and b < 0:
                        continue
                    forms.append((a, b, c))
        a += 1
    return sorted(forms)


def class_number(D: int) -> int:
    return len(reduced_forms(D))


def _elementary_divisors(orders) -> list[int]:
    """Elementary divisors, each dividing the next, of prod C_n over orders: the
    Smith form of diag(orders). Each n is carried along the chain, trading
    places with every m for gcd(m, n) and lcm(m, n), as C_m x C_n = C_gcd x C_lcm."""
    chain: list[int] = []
    for n in orders:
        for i, m in enumerate(chain):
            chain[i], n = math.gcd(m, n), math.lcm(m, n)
        chain.append(n)
    return [m for m in chain if m > 1]


def _cyclic_order(d: int, p: int) -> int:
    """Order n of (O_K/p)^* / (Z/p)^*, O_K = Z[w] with w^2 = w + (d - 1)/4,
    once a generator certifies that the group is cyclic; certified afresh in
    every run, as `ring_class_levels` reaches each (d, p) once per call.

    A unit x + y w with y != 0 is y (r + w), r = x/y, so the cosets of F_p^*
    are F_p^* itself and r + w for each r in F_p with N(r + w) = r^2 + r +
    (1 - d)/4 != 0 mod p: counting those r gives n. A generator is an
    r + w whose n-th power lies in F_p^* and whose (n/l)-th does not, for
    every prime l | n; x + y w lies in F_p^* iff y = 0. By Lagrange a power
    (r + w)^n outside F_p^* disproves the count, so it raises at once.
    """
    w2, nf = (d - 1) // 4 % p, (1 - d) // 4 % p
    r = _np.arange(p, dtype=_np.int64)
    norms = (r * r + r + nf) % p  # N(r + w)
    n = 1 + int(_np.count_nonzero(norms))
    if n == 1:
        return 1
    ells = [ell for ell, _ in factorize(n)]

    def w_part(x: int, k: int) -> int:
        # the w-coordinate of (x + w)^k
        a, b, y = 1, 0, 1
        while k:
            if k & 1:
                a, b = (a * x + w2 * b * y) % p, (a * y + b * x + b * y) % p
            k >>= 1
            x, y = (x * x + w2 * y * y) % p, (2 * x * y + y * y) % p
        return b

    for r in map(int, _np.flatnonzero(norms)):
        if w_part(r, n):
            break
        if all(w_part(r, n // ell) for ell in ells):
            return n
    raise ArithmeticError(
        f"no generator certifies (O_K/p)^*/(Z/p)^* as cyclic of order {n} for d_K={d}, p={p}"
    )


class RingClassStructure(NamedTuple):
    d_K: int
    conductor: int
    primes: tuple
    factors: tuple  # cyclic orders p_i + 1, in prime order
    invariants: tuple  # elementary divisors, each dividing the next
    degree: int


def ring_class_levels(d_K: int, primes) -> list[RingClassStructure]:
    """Gal(H_c/H) at every level c = p_1 ... p_n, n = 0, ..., len(primes),
    for squarefree c with every p_i inert in K and d_K = 1 mod 4.

    The group is C_{p_1+1} x ... x C_{p_n+1}. Each p_i's local quotient is
    certified cyclic of order n_i once per call (`_cyclic_order`); an n_i
    other than p_i + 1 raises ArithmeticError naming d_K, the level where
    p_i enters, p_i, n_i and p_i + 1. Each level's invariants are the
    elementary divisors of C_{n_1} x ... x C_{n_k} (`_elementary_divisors`).
    """
    if not is_fundamental(d_K):
        raise InvalidDiscriminantError(f"{d_K} is not fundamental")
    if d_K % 4 != 1:
        raise InvalidDiscriminantError(f"{d_K} is not 1 mod 4, so O_K is not Z[(1 + sqrt(d_K))/2]")
    ps = list(primes)
    if len(set(ps)) != len(ps):
        raise ValueError("tower primes must be distinct")
    for p in ps:
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        if kronecker(d_K, p) != -1:
            raise ValueError(f"{p} is not inert in Q(sqrt({d_K}))")
    orders: list[int] = []
    levels = []
    for n in range(len(ps) + 1):
        c = math.prod(ps[:n])
        if n:
            p = ps[n - 1]
            n_p = _cyclic_order(d_K, p)
            if n_p != p + 1:
                raise ArithmeticError(
                    f"ring class structure mismatch for d_K={d_K}, c={c}: p={p} is certified "
                    f"cyclic of order n_p={n_p}, not p + 1 = {p + 1}"
                )
            orders.append(n_p)
        levels.append(RingClassStructure(d_K, c, tuple(ps[:n]), tuple(orders),
                                         tuple(_elementary_divisors(orders)), math.prod(orders)))
    return levels
