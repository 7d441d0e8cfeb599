"""Benchmark inputs: the pinned table, the generated semistable curves, the
pinned values, and the seeded choice of curves for each workload.

Generated curves come from a fixed box of a-invariants. A model whose
discriminant has squarefree absolute value is minimal and semistable with
conductor N = |Delta|, so no curve table has to be fetched. make_pins.py
screened the generated curves for the rank gate and for auxiliary-ell
exhaustion, each curve in its own process; the screened pools and all pinned
values live in data/pins.json.
"""

from __future__ import annotations

import itertools
import json
import random
from pathlib import Path

DATA = Path(__file__).resolve().parent / "data"
PINNED_TABLE = DATA / "pinned.txt"
PINS = DATA / "pins.json"

# The box: the normalised a1, a2, a3 of a minimal model, small a4 and a6.
BOX_A4_A6 = 40
FIELD_SEARCH_N = (1_000, 20_000)
AUX_SEARCH_N = (10, 499)

# Curves per timed pass of the generated workloads.
FIELD_SEARCH_CURVES = 2
AUX_SEARCH_CURVES = 1


def read_table() -> list[dict]:
    """The pinned table: lines 'label a1 a2 a3 a4 a6 N'; '#' starts a comment."""
    out = []
    for raw in PINNED_TABLE.read_text().splitlines():
        parts = raw.split("#", 1)[0].split()
        if parts:
            nums = [int(t) for t in parts[1:]]
            out.append({"label": parts[0], "ainvs": nums[:5], "N": nums[5]})
    return out


def write_table(curves, path):
    with open(path, "w") as fh:
        for c in curves:
            fh.write(" ".join([c["label"], *map(str, c["ainvs"]), str(c["N"])]) + "\n")


def discriminant(a1, a2, a3, a4, a6) -> int:
    b2 = a1 * a1 + 4 * a2
    b4 = 2 * a4 + a1 * a3
    b6 = a3 * a3 + 4 * a6
    b8 = a1 * a1 * a6 + 4 * a2 * a6 - a1 * a3 * a4 + a2 * a3 * a3 - a4 * a4
    return -b2 * b2 * b8 - 8 * b4 ** 3 - 27 * b6 * b6 + 9 * b2 * b4 * b6


def squarefree(n: int) -> bool:
    n = abs(n)
    p = 2
    while p * p <= n:
        if n % (p * p) == 0:
            return False
        if n % p == 0:
            n //= p
        p += 1
    return n > 0


def generated(n_lo: int, n_hi: int) -> list[dict]:
    """Box models with squarefree |Delta| in [n_lo, n_hi], N = |Delta|, labelled
    'g<N>.<k>' in box order."""
    out = []
    seen: dict[int, int] = {}
    r = range(-BOX_A4_A6, BOX_A4_A6 + 1)
    for ainvs in itertools.product((0, 1), (-1, 0, 1), (0, 1), r, r):
        n = abs(discriminant(*ainvs))
        if n_lo <= n <= n_hi and squarefree(n):
            k = seen[n] = seen.get(n, 0) + 1
            out.append({"label": f"g{n}.{k}", "ainvs": list(ainvs), "N": n})
    return out


def load_pins() -> dict:
    return json.loads(PINS.read_text())


def select(workload: str, seed: int, pins: dict) -> list[dict]:
    """The curves one pass of `workload` runs, in order, each with its pinned
    values under "pin"; the same seed gives the same list.

    From a generated pool the seed draws k curves in random order;
    make_pins.py keeps only curves of about equal cost in a pool, so the draw
    changes the inputs but not the size of the pass. The pinned table keeps
    its file order whatever the seed: its wall time depends on the order by
    up to 45%. 14a's prime scan allocates arrays of about 800 KB per point
    count. Until some curve has freed a larger ring-class array, glibc's
    initial mmap and trim thresholds hand each one back to the kernel and
    fault it in afresh, and the scan takes 7.3 s instead of 4.1 s (4.1 s also
    when it runs first with MALLOC_MMAP_THRESHOLD_ and MALLOC_TRIM_THRESHOLD_
    raised).
    """
    rng = random.Random(seed)
    if workload in ("pinned-cold", "pinned-rerun"):
        return [{**c, "pin": pins["pinned"][c["label"]]} for c in read_table()]
    if workload == "field-search":
        pool, k = pins["field-search"], FIELD_SEARCH_CURVES
    elif workload == "aux-search":
        pool, k = pins["aux-search"], AUX_SEARCH_CURVES
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return [{key: c[key] for key in ("label", "ainvs", "N", "pin")} for c in rng.sample(pool, k)]
