"""Imaginary quadratic discriminants, reduced forms, ring class structure.

Binary quadratic forms (a, b, c) of discriminant D = b^2 - 4ac < 0 model ideal
classes of the order of discriminant D; `reduced_forms` lists one reduced
form per class, so `class_number` counts them. The Galois group of the ring
class field H_c over the Hilbert class field, (O_K/c)^* / (Z/c)^* for
squarefree c with all p | c inert, is found two ways: by the product of
C_{p+1} it must have, and, for d_K = 1 mod 4, prime by prime from the
local quotients (O_K/p)^* / (Z/p)^*. Each local quotient is counted by its
O(p) cosets of F_p^* and certified cyclic by a generator, so its element
orders are phi(k) of each order k dividing the count. The local order
multisets are combined by CRT (an element's order is the lcm of its local
orders). A local certificate runs once per (d, p) in a process, on first
use, and its order multiset is kept as a read-only mapping, so towers that
share K and a prime share it. `ring_class_levels` folds the local orders of
each prime of a tower into every level that contains it, and compares every
level with the formula.
"""

from __future__ import annotations

import functools
import math
from collections import Counter
from collections.abc import Mapping
from types import MappingProxyType
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


def pow_divides(o: int, p: int, j: int) -> bool:
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


def abelian_invariants(n: int, element_orders) -> list[int]:
    """Elementary divisors of an abelian group of order n given all element orders."""
    cnt = Counter(element_orders)
    if sum(cnt.values()) != n:
        raise ValueError("element order multiset does not match group order")
    partitions: dict[int, list[int]] = {}
    for p, e_max in factorize(n):
        s = [0]
        for j in range(1, e_max + 1):
            cj = sum(c for o, c in cnt.items() if pow_divides(o, p, j))
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


def class_number(D: int) -> int:
    return len(reduced_forms(D))


def _cyclic_order(d: int, p: int) -> int:
    """Order n of (O_K/p)^* / (Z/p)^*, O_K = Z[w] with w^2 = w + (d - 1)/4,
    once a generator certifies that the group is cyclic.

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
    n = 1 + _np.count_nonzero(norms)
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


@functools.cache
def _local_unit_quotient_orders(d: int, p: int) -> MappingProxyType:
    """Element-order multiset of (O_K/p)^* / (Z/p)^*, d = 1 mod 4, as a
    read-only order -> count mapping, certified once per (d, p) in a process:
    every later call returns the same mapping.

    The group is cyclic of order n = `_cyclic_order(d, p)`, so it has phi(k)
    elements of order k for each k | n.
    """
    orders = {1: 1}
    for ell, a in factorize(_cyclic_order(d, p)):
        orders = {
            k * ell**j: c * (ell**j - ell ** (j - 1) if j else 1)
            for k, c in orders.items()
            for j in range(a + 1)
        }
    return MappingProxyType(orders)


def _fold_orders(orders: Counter, local: Mapping[int, int]) -> Counter:
    """Order multiset of a direct product: an element's order is the lcm of its parts'."""
    combined: Counter = Counter()
    for o1, n1 in orders.items():
        for o2, n2 in local.items():
            combined[math.lcm(o1, o2)] += n1 * n2
    return combined


def _invariants_of(orders: Counter) -> list[int]:
    n = sum(orders.values())
    return abelian_invariants(n, orders) if n > 1 else []


class RingClassStructure(NamedTuple):
    d_K: int
    conductor: int
    primes: tuple
    factors: tuple  # cyclic orders p_i + 1, in prime order
    invariants: tuple  # canonical elementary divisors
    degree: int


def ring_class_levels(d_K: int, primes) -> list[RingClassStructure]:
    """Gal(H_c/H) at every level c = p_1 ... p_n, n = 0, ..., len(primes),
    for squarefree c with every p_i inert in K.

    The group is C_{p_1+1} x ... x C_{p_n+1}; invariants are returned in
    elementary divisor form. When d_K = 1 mod 4 every level is cross-checked:
    each p_i's local quotient is counted coset by coset and certified cyclic
    by a generator, once, and its order multiset is folded into the previous
    level's.
    """
    if not is_fundamental(d_K):
        raise InvalidDiscriminantError(f"{d_K} is not fundamental")
    ps = list(primes)
    if len(set(ps)) != len(ps):
        raise ValueError("tower primes must be distinct")
    for p in ps:
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        if kronecker(d_K, p) != -1:
            raise ValueError(f"{p} is not inert in Q(sqrt({d_K}))")
    orders = Counter({1: 1}) if d_K % 4 == 1 else None
    levels = []
    for n in range(len(ps) + 1):
        if n and orders is not None:
            orders = _fold_orders(orders, _local_unit_quotient_orders(d_K, ps[n - 1]))
        factors = tuple(p + 1 for p in ps[:n])
        inv = tuple(canonical_invariants(factors))
        c = math.prod(ps[:n])
        if orders is not None:
            enum = tuple(_invariants_of(orders))
            if enum != inv:
                raise ArithmeticError(
                    f"ring class structure mismatch for d_K={d_K}, c={c}: "
                    f"enumeration {enum} vs formula {inv}"
                )
        levels.append(RingClassStructure(d_K, c, tuple(ps[:n]), factors, inv, math.prod(factors)))
    return levels

