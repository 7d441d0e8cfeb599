"""heegner-witness benchmark: time to verdict on four curve workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the package is imported from ./src. Workloads:

  pinned-cold   `witness run` over the pinned table, empty a_p cache
  pinned-rerun  the same, against the cache an untimed cold pass left
  field-search  searcher.find_K on generated semistable curves, N in [1e3, 2e4]
  aux-search    `witness run` on a generated curve, N < 500, whose
                auxiliary-ell search exhausts every inert ell < 100

The seed picks the generated curves (corpus.select). Each timed pass runs in
a fresh interpreter with its own HW_CACHE_DIR, one worker at a time, with
set-up-only processes between passes. Passes repeat while another one should
end within S seconds plus half a pass, and every pass is checked against
data/pins.json (checks.py). With --trace 0 the last line reports, as medians
over the run:

  wall_s       seconds of the timed pass, at the default Config precision
  setup_s      interpreter start, import and input loading, per process
  peak_rss_mb  peak RSS of the timed process
  ok_frac      1 - failed/attempted; one operation is one curve in one pass

wall_s and setup_s are rescaled to a reference CPU speed: each process times
a fixed reference loop while it runs (calib.py), and its time is scaled by
REF_UNIT_S over the loop's unit time. On a shared host the speed one process
gets drifts by 10-40% within minutes; the rescaled times cancel that drift
and still move with any change to the package. The unscaled medians and
per-pass times are in the run record.

With --trace 1 one more pass runs with every traced public function wrapped
(spans.py), and the last line reports the per-layer metrics and
trace.overhead_s, traced minus untraced wall_s. Earlier lines print a run
record (nproc, Python and numpy versions, seed, commit, per-pass times), any
failed checks, and every metric by name with its unit.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import calib
import checks
import corpus
import passes
import spans

WORKLOADS = ("pinned-cold", "pinned-rerun", "field-search", "aux-search")
SETUP_PER_PASS = 2
TIMING_STAGES = ("gate", "find_K", "prime_sequence", "heegner", "tower")


class Tally:
    """Operations attempted and failed over every pass of a run; one
    operation is one curve in one pass."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.hashes: dict[str, str] = {}

    def add(self, what: str, res: dict, curves: list[dict]):
        for c in curves:
            label = c["label"]
            out = res["outcomes"].get(label)
            bad = checks.problems(label, out, c["pin"])
            if out is None and res.get("error"):
                bad.append(f"the pass raised {res['error']}")
            if out is not None and out.get("hash") is not None:
                ref = self.hashes.setdefault(label, out["hash"])
                if out["hash"] != ref:
                    bad.append(f"canonical_hash {out['hash'][:12]} differs from {ref[:12]}")
            self.attempted += 1
            if bad:
                self.failed += 1
                self.problems.append(f"{what} {label}: " + "; ".join(bad))


def git_commit() -> str | None:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=passes.ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "ok_frac": "ratio"}


def unit_of(name: str) -> str:
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def timing_metrics(timed: list[dict]) -> dict[str, float]:
    """Report `timing` blocks summed over curves, median over passes."""
    per_pass = []
    for res in timed:
        sums = {f"pipeline.timing.{k}_s": 0.0 for k in (*TIMING_STAGES, "untimed")}
        for out in res["outcomes"].values():
            t = out.get("timing") or {}
            staged = sum(t.get(f"{k}_s", 0.0) for k in TIMING_STAGES)
            for k in TIMING_STAGES:
                sums[f"pipeline.timing.{k}_s"] += t.get(f"{k}_s", 0.0)
            sums["pipeline.timing.untimed_s"] += t.get("total_s", 0.0) - staged
        per_pass.append(sums)
    return {k: statistics.median(p[k] for p in per_pass) for k in per_pass[0]}


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    pins = corpus.load_pins()
    curves = corpus.select(workload, seed, pins)
    tally = Tally()
    mode = "find_K" if workload == "field-search" else "witness"
    with passes.work_area(f"{workload}-") as work:
        cache_from = None
        if workload == "pinned-rerun":
            prep = passes.run_pass(work, mode, curves)
            tally.add("cold-prep", prep, curves)
            cache_from = prep["cache"]
        passes.run_pass(work, "setup", curves)  # compiles bytecode; not sampled
        setups: list[dict] = []
        timed: list[dict] = []
        t0 = time.perf_counter()
        cycle = 0.0
        # start another pass only if it should end before S + cycle/2 seconds
        while not timed or time.perf_counter() - t0 + cycle / 2 < seconds:
            t_cycle = time.perf_counter()
            # set-up samples spread over the run, beside each timed pass
            setups += [passes.run_pass(work, "setup", curves) for _ in range(SETUP_PER_PASS)]
            res = passes.run_pass(work, mode, curves, cache_from=cache_from)
            tally.add(f"pass{len(timed)}", res, curves)
            timed.append(res)
            setups.append(res)
            cycle = time.perf_counter() - t_cycle
        wall = statistics.median(calib.rescale(r["wall_s"], r["unit_s"]) for r in timed)
        if not trace:
            metrics = {
                "wall_s": wall,
                "setup_s": statistics.median(calib.rescale(r["setup_s"], r["unit_s"])
                                             for r in setups),
                "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in timed),
                "ok_frac": 1.0 - tally.failed / tally.attempted,
            }
        else:
            traced = passes.run_pass(work, mode, curves, trace=True, cache_from=cache_from)
            tally.add("traced", traced, curves)
            metrics = spans.aggregate(traced["spans"])
            metrics.update(timing_metrics(timed))
            metrics["trace.overhead_s"] = calib.rescale(traced["wall_s"], traced["unit_s"]) - wall
    record = {
        "workload": workload,
        "seed": seed,
        "curves": [c["label"] for c in curves],
        "wall_s_unscaled": round(statistics.median(r["wall_s"] for r in timed), 4),
        "pass_wall_s": [round(r["wall_s"], 4) for r in timed],
        "pass_unit_ms": [round(r["unit_s"] * 1e3, 4) for r in timed],
        "pass_probe_units": [r["probe_units"] for r in timed],
        "setup_s_unscaled": round(statistics.median(r["setup_s"] for r in setups), 4),
        "setup_samples": len(setups),
        "nproc": os.cpu_count(),
        "python": timed[0]["python"],
        "numpy": timed[0]["numpy"],
        "commit": git_commit(),
        "platform": platform.platform(),
    }
    return {"record": record, "tally": tally, "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (passes.SRC / "heegner_witness" / "__init__.py").is_file():
        print(f"no package under {passes.SRC}; run from a repository checkout", file=sys.stderr)
        return 2
    out = run(args.workload, args.seed, args.seconds, bool(args.trace))
    tally = out["tally"]
    print("record " + json.dumps(out["record"], sort_keys=True))
    for problem in tally.problems:
        print("FAILED " + problem)
    metrics = {k: {"value": v, "unit": unit_of(k)} for k, v in out["metrics"].items()}
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
