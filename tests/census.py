"""Verdict census: run every curve of a band and diff the verdicts of two runs.

    python tests/census.py run LO HI OUT.json
    python tests/census.py diff OLD.json NEW.json

`run` calls `run_witness` at the default Config, in this one process, on
`corpus.generated(LO, HI)` and then on the pinned table, `testdata.txt` and
the field-search and aux-search curves of `pins.json` (a label already run
is skipped). It prints how many curves pass and how many fail at each stage,
and writes each curve's verdict to OUT.json: pass/fail, `failed_at`, gate,
d_K, q, the prime sequence, the recognized P_K and `pk_nontorsion`, plus
the canonical hash. `diff` prints every curve whose verdict differs between
two such files, or that only one of them has, and counts the hashes that
moved; it exits 1 when a verdict differs and 0 otherwise.

Run from the repository root. The script is not a test: pytest does not
collect it, and band 2 (LO = 3001, HI = 20000, 1,051 curves) takes minutes.
"""

from __future__ import annotations

import collections
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "src")]

import corpus  # noqa: E402
from heegner_witness.ec_core import CurveQ  # noqa: E402
from heegner_witness.pipeline import canonical_json, parse_curve_file, run_witness  # noqa: E402


def curves(lo: int, hi: int) -> list[CurveQ]:
    """The band's generated curves, then the fixed ones, each label once."""
    pins = corpus.load_pins()
    rows = corpus.generated(lo, hi) + pins["field-search"] + pins["aux-search"]
    out = [CurveQ(*c["ainvs"], c["N"], c["label"]) for c in rows]
    out += parse_curve_file(str(corpus.PINNED_TABLE)) + parse_curve_file(str(ROOT / "testdata.txt"))
    seen: dict[str, CurveQ] = {}
    for c in out:
        if seen.setdefault(c.label, c) != c:
            raise ValueError(f"label {c.label} names two curves")
    return list(seen.values())


def verdict(report) -> dict:
    data = json.loads(canonical_json(report))
    heegner = data["heegner"] or {}
    return {
        "passed": data["passed"], "failed_at": data["failed_at"], "gate": data["gate"],
        "d_K": data["d_K"], "q": data["q"], "primes": [it["p"] for it in data["prime_seq"]],
        "recognized": [heegner.get("recognized_x"), heegner.get("recognized_y")],
        "pk_nontorsion": heegner.get("pk_nontorsion"), "hash": data["canonical_hash"],
    }


def run(lo: int, hi: int, out: str) -> int:
    verdicts = {c.label: verdict(run_witness(c)) for c in curves(lo, hi)}
    census = collections.Counter(v["failed_at"] or "pass" for v in verdicts.values())
    print(f"{len(verdicts)} curves: " + ", ".join(f"{n} {k}" for k, n in census.most_common()))
    with open(out, "w") as fh:
        json.dump(verdicts, fh, indent=1, sort_keys=True)
    return 0


def diff(old_path: str, new_path: str) -> int:
    with open(old_path) as fh:
        old = json.load(fh)
    with open(new_path) as fh:
        new = json.load(fh)
    changed = 0
    for label in sorted(old.keys() | new.keys()):
        a = {k: v for k, v in old.get(label, {}).items() if k != "hash"}
        b = {k: v for k, v in new.get(label, {}).items() if k != "hash"}
        if a != b:
            changed += 1
            print(f"{label}: {a or 'absent'} -> {b or 'absent'}")
    moved = sum(old[k]["hash"] != new[k]["hash"] for k in old.keys() & new.keys())
    print(f"{changed} verdicts differ; {moved} of {len(old.keys() & new.keys())} hashes moved")
    return 1 if changed else 0


def main(argv: list[str]) -> int:
    if len(argv) == 4 and argv[0] == "run":
        return run(int(argv[1]), int(argv[2]), argv[3])
    if len(argv) == 3 and argv[0] == "diff":
        return diff(argv[1], argv[2])
    print(__doc__.split("\n\n")[1], file=sys.stderr)
    return 2


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
