"""Regenerate data/pins.json: screen the generated curves and pin their values.

    python3 perfbench/make_pins.py

Every curve is run in its own fresh worker process with an empty a_p cache,
one process at a time. The pinned table is pinned from one cold witness pass.
Generated curves are screened in a fixed order:

  field-search  find_K succeeds after the rank gate passes, and `work`, the
                sum of p over the curve's point counts read from a traced
                pass, lies in FIELD_WORK_BAND. Wall time is close to
                proportional to it (about 70 ns per unit on a 2-CPU x86
                machine); the narrow band keeps every pair of curves at about
                the same cost.
  aux-search    the witness run fails closed at trace_relation with no
                feasible auxiliary inert prime, and raises nowhere. The orbit
                scans depend on N and d_K alone, and exhaustion costs 0.2 s to
                over 40 s across the box, so only the largest group of such
                curves sharing one (N, d_K) is kept: its curves cost the same.

Run this only at a commit whose outputs are trusted: the values it writes are
the reference every later run is checked against.
"""

from __future__ import annotations

import json
import random
import subprocess
import sys
from pathlib import Path

import checks
import corpus
import passes

FIELD_POOL_SIZE = 6
FIELD_WORK_BAND = (30_000_000, 40_000_000)
FIELD_SCREEN_TIMEOUT_S = 15
AUX_SCREEN_TIMEOUT_S = 40


def screen_field(work: Path) -> list[dict]:
    candidates = corpus.generated(*corpus.FIELD_SEARCH_N)
    random.Random(0).shuffle(candidates)
    pool = []
    for c in candidates:
        if len(pool) == FIELD_POOL_SIZE:
            break
        try:
            res = passes.run_pass(work, "find_K", [c], trace=True, timeout=FIELD_SCREEN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            print(f"field-search: {c['label']} over {FIELD_SCREEN_TIMEOUT_S} s", file=sys.stderr)
            continue
        out = res["outcomes"][c["label"]]
        if "error" in out or out["gate"] not in ("rank0", "rank1"):
            continue
        work_p = sum(s[4]["p"] for s in res["spans"] if s[0] == "ec_core.count_points")
        if not FIELD_WORK_BAND[0] <= work_p <= FIELD_WORK_BAND[1]:
            continue
        pool.append({**c, "pin": checks.pinned_values(out), "work": work_p})
        print(f"field-search: {c['label']} d_K={out['d_K']} work={work_p} "
              f"wall={res['wall_s']:.2f}s", file=sys.stderr)
    return pool


def screen_aux(work: Path) -> list[dict]:
    pool = []
    for c in corpus.generated(*corpus.AUX_SEARCH_N):
        try:
            res = passes.run_pass(work, "witness", [c], timeout=AUX_SCREEN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            print(f"aux-search: {c['label']} over {AUX_SCREEN_TIMEOUT_S} s", file=sys.stderr)
            continue
        report_path = res["dir"] / "reports" / f"{c['label']}.json"
        if res["error"] or not report_path.exists():
            continue
        report = json.loads(report_path.read_text())
        tr = (report.get("heegner") or {}).get("trace_relation") or {}
        if report["failed_at"] != "trace_relation" or "auxiliary" not in tr.get("error", ""):
            continue
        out = res["outcomes"][c["label"]]
        pool.append({**c, "pin": checks.pinned_values(out)})
        print(f"aux-search: {c['label']} wall={res['wall_s']:.2f}s", file=sys.stderr)
    groups: dict[tuple, list] = {}
    for c in pool:
        groups.setdefault((c["N"], c["pin"]["d_K"]), []).append(c)
    return max(groups.values(), key=lambda g: (len(g), g[0]["N"]))


def main() -> int:
    with passes.work_area("pins-") as work:
        table = corpus.read_table()
        res = passes.run_pass(work, "witness", table)
        pinned = {c["label"]: checks.pinned_values(res["outcomes"][c["label"]]) for c in table}
        pins = {"pinned": pinned, "field-search": screen_field(work),
                "aux-search": screen_aux(work)}
    corpus.PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    print(f"wrote {corpus.PINS}: {len(pins['field-search'])} field-search, "
          f"{len(pins['aux-search'])} aux-search curves", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
