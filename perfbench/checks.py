"""Correctness checks on one pass's outputs, independent of the package.

What the curve determines is pinned: the gate, d_K, L(E,1) or L'(E,1), and
L'(E/K,1), to REL_TOL relative. Two values are anchored to the literature.
For q and the prime sequence only invariants are checked, since a better
choice of q is a legitimate change. Reports of one label must carry one
canonical_hash across every pass of a run (cold, rerun and traced).
"""

from __future__ import annotations

import math

REL_TOL = 1e-8
# L-values below the gate's nonvanishing threshold are zero to the series
# precision and are not pinned.
PIN_FLOOR = 1e-3
LITERATURE = {
    ("11a", "L_1"): 0.2538418608559107,
    ("37a", "L_prime_1"): 0.3059997738340523,
}


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    return all(n % d for d in range(2, math.isqrt(n) + 1))


def inert(d: int, p: int) -> bool:
    """p inert in Q(sqrt(d)) for a fundamental d = 1 mod 4."""
    if p == 2:
        return d % 8 == 5
    return pow(d % p, (p - 1) // 2, p) == p - 1


def close(a, b) -> bool:
    return a is not None and abs(a - b) <= REL_TOL * abs(b)


def pinned_values(outcome: dict) -> dict:
    """The values of an outcome that pins record."""
    pin = {"gate": outcome["gate"], "d_K": outcome["d_K"]}
    eps = outcome.get("epsilon")
    if eps is not None:
        pin["epsilon"] = eps
        key = "L_1" if eps == 1 else "L_prime_1"
        if outcome.get(key) is not None and abs(outcome[key]) > PIN_FLOOR:
            pin[key] = outcome[key]
    if outcome.get("L_over_K") is not None:
        pin["L_over_K"] = outcome["L_over_K"]
    return pin


def from_report(report: dict) -> dict:
    """The checked fields of a witness report."""
    lv = report.get("l_values") or {}
    return {
        "gate": report.get("gate"),
        "d_K": report.get("d_K"),
        "epsilon": lv.get("epsilon"),
        "L_1": lv.get("L_1"),
        "L_prime_1": lv.get("L_prime_1"),
        "L_over_K": lv.get("L_over_K"),
        "q": report.get("q"),
        "primes": [it["p"] for it in report.get("prime_seq") or []],
        "N": report["curve"]["N"],
        "hash": report.get("canonical_hash"),
        "timing": report.get("timing"),
    }


def problems(label: str, outcome: dict | None, pin: dict) -> list[str]:
    """Everything wrong with one curve's outcome; empty when it is correct."""
    if outcome is None:
        return ["no output"]
    if "error" in outcome:
        return [f"raised {outcome['error']}"]
    bad = []
    for key, want in pin.items():
        got = outcome.get(key)
        ok = close(got, want) if isinstance(want, float) else got == want
        if not ok:
            bad.append(f"{key} = {got!r}, pinned {want!r}")
    for (lab, key), want in LITERATURE.items():
        if lab == label and not close(outcome.get(key), want):
            bad.append(f"{key} = {outcome.get(key)!r}, literature {want!r}")
    q, d, n = outcome.get("q"), outcome.get("d_K"), outcome.get("N")
    if q is not None:
        if not (q % 2 == 1 and is_prime(q) and math.gcd(q, 2 * d * n) == 1):
            bad.append(f"q = {q} is not an odd prime coprime to 2 d_K N")
        for p in outcome.get("primes", []):
            if not (is_prime(p) and p % q == q - 1 and inert(d, p) and n % p != 0):
                bad.append(f"p = {p} is not a good-reduction inert prime = -1 mod {q}")
    return bad
