"""Self-tests of the benchmark: python3 -m pytest perfbench/test_perfbench.py"""

import signal
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import pytest  # noqa: E402

import calib  # noqa: E402
import checks  # noqa: E402
import corpus  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from heegner_witness import ec_core, lseries, searcher  # noqa: E402
from heegner_witness.ec_core import CurveQ  # noqa: E402


@pytest.mark.parametrize("band", [corpus.AUX_SEARCH_N, corpus.FIELD_SEARCH_N])
def test_generated_models_are_valid_with_n_equal_abs_delta(band):
    models = corpus.generated(*band)
    assert models
    for c in models:
        curve = CurveQ(*c["ainvs"], c["N"], c["label"])
        assert abs(ec_core.discriminant(curve)) == c["N"]


def test_pinned_pools_come_from_the_box():
    pins = corpus.load_pins()
    for workload, band, k in (("field-search", corpus.FIELD_SEARCH_N, corpus.FIELD_SEARCH_CURVES),
                              ("aux-search", corpus.AUX_SEARCH_N, corpus.AUX_SEARCH_CURVES)):
        box = {(tuple(c["ainvs"]), c["N"]) for c in corpus.generated(*band)}
        assert len(pins[workload]) > k  # the seed has a choice
        for c in pins[workload]:
            assert (tuple(c["ainvs"]), c["N"]) in box


def test_selection_depends_only_on_the_seed():
    pins = corpus.load_pins()
    for workload in run.WORKLOADS:
        assert corpus.select(workload, 7, pins) == corpus.select(workload, 7, pins)
    table = {c["label"] for c in corpus.read_table()}
    assert {c["label"] for c in corpus.select("pinned-cold", 3, pins)} == table


def test_wrapped_functions_return_what_the_originals_return():
    curve = CurveQ(0, 0, 1, -1, 0, 37, "37a")
    calls = [
        lambda: ec_core.an_series(curve, 300).values.tolist(),
        lambda: ec_core.count_points(ec_core.reduce_mod(curve, 1009)),
        lambda: lseries.l_eval(curve),
        lambda: searcher.find_K(curve),
    ]
    lseries._AN_CACHE.clear()
    before = [f() for f in calls]
    tracer = spans.Tracer()
    replaced = spans.install(tracer)
    try:
        lseries._AN_CACHE.clear()
        after = [f() for f in calls]
    finally:
        spans.restore(replaced)
    assert after == before
    names = {s[0] for s in tracer.spans}
    assert {"ec_core.an_series", "ec_core.count_points", "lseries.l_eval",
            "searcher.find_K", "lseries.l_over_K"} <= names
    # internal calls are seen through the names other modules imported
    assert any(s[0] == "lseries.cached_an" and s[3] >= 0 for s in tracer.spans)
    assert not hasattr(ec_core.an_series, "__wrapped__")


def test_install_skips_names_the_package_no_longer_has(monkeypatch):
    monkeypatch.setattr(spans, "TRACED", spans.TRACED + [
        ("arith", "no_such_function", None),
        ("pipeline", "NoSuchCache.get", None),
        ("no_such_module", "main", None),
    ])
    replaced = spans.install(spans.Tracer())
    spans.restore(replaced)
    assert replaced


def test_self_time_subtracts_direct_children():
    # name, start, end, parent, attrs
    recs = [["a", 0.0, 10.0, -1, None], ["b", 1.0, 4.0, 0, None], ["c", 2.0, 3.0, 1, None]]
    assert spans.self_times(recs) == [7.0, 2.0, 1.0]


def test_aggregate_ratios_count_children_and_raises():
    recs = [
        ["lseries.cached_an", 0.0, 2.0, -1, None],
        ["ec_core.an_series", 0.5, 1.5, 0, {"terms": 64}],
        ["lseries.cached_an", 3.0, 3.1, -1, None],
        ["heegner.heegner_orbit", 4.0, 5.0, -1, {"classes": 3}],
        ["heegner.heegner_orbit", 5.0, 6.0, -1, {"raised": "PrecisionUnreachable"}],
    ]
    m = spans.aggregate(recs)
    assert m["lseries.cached_an.hit_ratio"] == 0.5
    assert m["ec_core.an_series.terms"] == 64
    assert m["heegner.heegner_orbit.useful_ratio"] == 0.5
    assert m["heegner.heegner_orbit.classes"] == 3
    assert m["quadforms.class_number.calls"] == 0


def _outcome(**over):
    out = {"gate": "rank0", "d_K": -7, "epsilon": 1, "L_1": 0.253841860887,
           "L_prime_1": None, "L_over_K": 0.311100175955, "q": 3, "primes": [5, 17],
           "N": 11, "hash": "h0"}
    out.update(over)
    return out


def test_a_wrong_pinned_value_is_counted_as_failed():
    good = checks.pinned_values(_outcome())
    curves = [{"label": "11a", "pin": good},
              {"label": "11x", "pin": {**good, "L_over_K": good["L_over_K"] * (1 + 1e-6)}}]
    tally = run.Tally()
    tally.add("pass0", {"outcomes": {"11a": _outcome(), "11x": _outcome()}}, curves)
    assert (tally.attempted, tally.failed) == (2, 1)
    assert "L_over_K" in tally.problems[0]


@pytest.mark.parametrize("over, word", [
    ({"L_1": 0.2538418}, "literature"),
    ({"q": 7}, "q = 7"),
    ({"primes": [5, 11]}, "p = 11"),
    ({"error": "ValueError()"}, "raised"),
])
def test_checks_catch_each_kind_of_wrong_output(over, word):
    pin = checks.pinned_values(_outcome())
    pin.pop("L_1")
    bad = checks.problems("11a", _outcome(**over), pin)
    assert any(word in b for b in bad), bad


def test_a_changed_hash_between_passes_is_a_failure():
    pin = checks.pinned_values(_outcome())
    tally = run.Tally()
    tally.add("prep", {"outcomes": {"11a": _outcome()}}, [{"label": "11a", "pin": pin}])
    tally.add("pass0", {"outcomes": {"11a": _outcome(hash="h1")}}, [{"label": "11a", "pin": pin}])
    assert (tally.attempted, tally.failed) == (2, 1)


def test_probe_samples_during_a_call_and_leaves_its_result_alone():
    curve = CurveQ(0, 0, 1, -1, 0, 37, "37a")
    lseries._AN_CACHE.clear()
    before = lseries.l_eval(curve)
    handler = signal.getsignal(signal.SIGALRM)
    probe = calib.Probe()
    probe.start()
    lseries._AN_CACHE.clear()
    t0 = time.perf_counter()
    after = lseries.l_eval(curve)
    while time.perf_counter() - t0 < 3 * calib.INTERVAL_S:
        pass
    probe.stop()
    assert after == before
    assert probe.units >= 4 and probe.overhead_s > 0 and probe.unit_s() > 0
    assert signal.getsignal(signal.SIGALRM) is handler
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_rescale_is_proportional_and_the_identity_at_the_reference_speed():
    assert calib.rescale(3.0, calib.REF_UNIT_S) == pytest.approx(3.0)
    assert calib.rescale(3.0, 2 * calib.REF_UNIT_S) == pytest.approx(1.5)
