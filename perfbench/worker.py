"""One pass of a workload in a fresh interpreter: python3 worker.py SPEC T_SPAWN.

SPEC is a JSON file written by run.py; T_SPAWN is the parent's
time.monotonic() just before it started this process, so setup_s covers
interpreter start, package import and input loading up to the first timed
call. The pass writes its result (and, when traced, its spans) to the paths
named in SPEC. Modes:

  witness  cli.main(["run", ...]) over SPEC's curve table, reports to out_dir
  find_K   searcher.find_K on each curve, in order
  setup    stop after set-up; only setup_s is measured

Around the timed call a calib.Probe samples its reference loop: wall_s is
the pass's wall time less the probe's own, and unit_s the loop's unit time
over the pass. A setup pass runs a few units right after set-up instead.
"""

import json
import sys
import time

T_SPAWN = float(sys.argv[2])

import platform  # noqa: E402
import resource  # noqa: E402

import numpy  # noqa: E402

import heegner_witness  # noqa: E402
from heegner_witness import cli, lseries, searcher  # noqa: E402
from heegner_witness.ec_core import CurveQ  # noqa: E402

import calib  # noqa: E402
import spans  # noqa: E402

SETUP_PROBE_UNITS = 8


def _find_k_outcome(res) -> dict:
    lk = res.l_value_data
    le = lk.l_curve
    return {
        "gate": lseries.gate_from_leval(le),
        "d_K": res.d_K,
        "epsilon": le.epsilon,
        "L_1": le.value_at_1,
        "L_prime_1": le.derivative_at_1,
        "L_over_K": lk.value,
    }


def main() -> int:
    with open(sys.argv[1]) as fh:
        spec = json.load(fh)
    mode = spec["mode"]
    curves = [CurveQ(*c["ainvs"], c["N"], c["label"]) for c in spec["curves"]]
    tracer = None
    if spec.get("trace"):
        tracer = spans.Tracer()
        spans.install(tracer)
    result = {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "package_file": heegner_witness.__file__,
        "outcomes": {},
        "error": None,
    }
    result["setup_s"] = time.monotonic() - T_SPAWN
    probe = calib.Probe()
    if mode == "setup":
        probe.start(sample=False)
        for _ in range(SETUP_PROBE_UNITS):
            probe.unit()
        probe.stop()
    else:
        probe.start(sample=tracer is None)  # spans should not time the probe
        t0 = time.perf_counter()
        if mode == "witness":
            try:
                cli.main(["run", "--curves", spec["table"], "--out", spec["out_dir"]])
            except Exception as e:  # a raise ends the batch; missing reports count as failed
                result["error"] = repr(e)
        elif mode == "find_K":
            for curve in curves:
                try:
                    result["outcomes"][curve.label] = _find_k_outcome(searcher.find_K(curve))
                except Exception as e:  # counted as a failed operation
                    result["outcomes"][curve.label] = {"error": repr(e)}
        else:
            raise SystemExit(f"unknown mode {mode!r}")
        wall = time.perf_counter() - t0
        probe.stop()
        result["wall_s"] = wall - probe.overhead_s
        result["probe_overhead_s"] = probe.overhead_s
    result["unit_s"] = probe.unit_s()
    result["probe_units"] = probe.units
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        with open(spec["spans_path"], "w") as fh:
            json.dump(tracer.spans, fh)
    with open(spec["result_path"], "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
