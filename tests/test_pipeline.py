import ast
import importlib.util
import json
import math
import os
import pathlib
import subprocess
import sys
from collections import Counter

import numpy as np
import pytest

from heegner_witness import ec_core, heegner, lseries, pipeline, quadforms, searcher
from heegner_witness.arith import MR_PROVEN_BELOW, euler_phi, is_prime, is_squarefree
from heegner_witness.cli import main
from heegner_witness.ec_core import CurveQ
from heegner_witness.galois_tower import ContradictionResult
from heegner_witness.lseries import l_over_K
from heegner_witness.quadforms import kronecker
from heegner_witness.searcher import heegner_hypothesis
from heegner_witness.pipeline import (
    Config,
    CurveFileError,
    canonical_json,
    emit_report,
    _pick_aux_ell,
    parse_curve_file,
    run_witness,
)


@pytest.fixture()
def curve_file(tmp_path):
    p = tmp_path / "curves.txt"
    p.write_text(
        "# test curves\n"
        "11a  0 -1 1 -10 -20  11\n"
        "37a  0  0 1  -1   0  37\n"
        "389a 0  1 1  -2   0 389\n"
    )
    return str(p)


def test_parse_curve_file(curve_file):
    curves = parse_curve_file(curve_file)
    assert [c.label for c in curves] == ["11a", "37a", "389a"]
    assert curves[1].ainvs == (0, 0, 1, -1, 0)
    assert curves[1].N == 37


@pytest.mark.parametrize("label", ["../escaped", "a/b", "/abs", "a\\b", "a\0b", ".", ".."])
def test_parse_rejects_a_label_that_is_not_a_file_name(label, tmp_path):
    # a label names its report file in --out: it may not reach outside it
    p = tmp_path / "labels.txt"
    p.write_text(f"11a 0 -1 1 -10 -20 11\n{label} 0 -1 1 -10 -20 11\n")
    with pytest.raises(CurveFileError, match="labels.txt:2: label .* is not a file name"):
        parse_curve_file(str(p))


def test_parse_rejects_bad_lines(tmp_path):
    p = tmp_path / "bad.txt"
    p.write_text("37a 0 0 1\n")
    with pytest.raises(CurveFileError, match="bad.txt:1"):
        parse_curve_file(str(p))
    p.write_text("37a 0 0 1 -1 0 37\n37a 0 0 1 -1 0 37\n")
    with pytest.raises(CurveFileError, match="duplicate"):
        parse_curve_file(str(p))


def test_config_validation(tmp_path):
    with pytest.raises(ValueError):
        Config(depth=0)
    with pytest.raises(ValueError):
        Config(heegner_residual=-1)
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({"depth": 2, "nonvanishing_threshold": 1e-4}))
    cfg = Config.from_file(str(p))
    assert cfg.depth == 2 and cfg.nonvanishing_threshold == 1e-4


def test_config_file_rejects_unknown_keys_and_non_objects(tmp_path):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({"depth": 2, "height_tol": 1e-4, "colour": "red", "cache_dir": "c",
                             "cm_field": -4}))
    with pytest.raises(ValueError,
                       match=r"unknown config keys \['cache_dir', 'cm_field', 'colour', 'height_tol'\]"):
        Config.from_file(str(p))
    p.write_text("[1, 2]")
    with pytest.raises(ValueError, match="JSON object"):
        Config.from_file(str(p))


def test_config_rejects_negative_tower_levels():
    with pytest.raises(ValueError, match="tower_m"):
        Config(tower_m=-1)
    with pytest.raises(ValueError, match="tower_r"):
        Config(tower_r=-1)


def test_config_rejects_mistyped_fields(tmp_path):
    p = tmp_path / "cfg.json"
    for data, name in (({"depth": "2"}, "depth"), ({"tower_m": 0.0}, "tower_m"),
                       ({"depth": True}, "depth"), ({"lseries_precision": "1e-8"}, "lseries_precision")):
        p.write_text(json.dumps(data))
        with pytest.raises(ValueError, match=f"^{name} must be"):
            Config.from_file(str(p))
    with pytest.raises(ValueError, match="^prime_bound must be int"):
        Config(prime_bound=1e5)
    cfg = Config(heegner_residual=1)  # an int is a valid float
    assert cfg.heegner_residual == 1


@pytest.mark.parametrize("name", ["lseries_precision", "heegner_residual",
                                  "nonvanishing_threshold"])
def test_config_rejects_non_finite_floats(name, curve_file, tmp_path, capsys):
    # at NaN precision the gate raised, at inf 11a passed on an 8-term gate
    # series, and a NaN residual failed the trace relation without a reason
    for value in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match=f"^{name} must be finite, got {value!r}$"):
            Config(**{name: value})
    cfg = tmp_path / "cfg.json"
    for text in ("NaN", "Infinity", "-Infinity", "1e400"):  # json reads each as a float
        cfg.write_text(f'{{"{name}": {text}}}')
        assert main(["--curves", curve_file, "--config", str(cfg)]) == 2
        captured = capsys.readouterr()
        assert "cannot read config" in captured.err and f"{name} must be finite" in captured.err
        assert captured.out == ""


@pytest.mark.parametrize("ainvs, N, precision, error", [
    # the gate's series needs more terms than a_p can be counted for
    ((0, 0, 1, -1000, 0), 63999999973, 1e-8, "the L-series of E needs T = 1246533 terms at "
                                              "precision 1e-08, past the point count ceiling 1000000"),
    ((0, 0, 1, -1000, 0), 63999999973, 1e-150, "the L-series of E needs T = 14411329 terms at "
                                               "precision 1e-150, past the point count ceiling 1000000"),
    # y^2 = x^3 - x (conductor 32) scaled by u = 2^9, given N = 2^114: no
    # additive reduction at 2 has an exponent above 8
    ((0, 0, 0, -2**36, 0), 2**114, 1e-8, "N = 20769187434139310514121985316880384 has exponent 114 "
                                         "at 2, but the reduction at 2 is additive, which needs 2 to 8"),
    # at the prime N = -Delta = 6.4e34 the gate's r = e^(-2 pi / sqrt(N)) is 1.0 in float64
    ((0, 0, 1, -100000000006, 1), 64000000011520000000691200000013149, 1e-8,
     "e^-x rounds to 1 at x = 2.484e-17: no T bounds the tail"),
    # at the prime N = -Delta = 6.4e25, x = 7.9e-13 and -ln r differs from x
    # by 1e-4 relative: a closed form in x would be 10^10 steps from T
    ((0, 0, 1, -10**8, 15), 63999999999999999999899533, 1e-8,
     "the L-series of E needs T = 61409007094133 terms at precision 1e-08, "
     "past the point count ceiling 1000000"),
])
def test_a_gate_series_no_table_can_hold_fails_the_gate_by_name(ainvs, N, precision, error):
    # the run fails before the a_n table grows, and does not raise
    curve = CurveQ(*ainvs, N)
    report = run_witness(curve, Config(lseries_precision=precision))
    assert report.failed_at == "analytic_rank_gate" and not report.passed
    assert report.l_values == {"error": error}
    assert lseries.held_an(curve) is None  # no a_n was counted


@pytest.mark.parametrize("N, exponent", [(1331, 3), (121, 2)])
def test_a_conductor_exponent_the_reduction_type_refuses_fails_the_gate_by_name(N, exponent):
    # 11a's model is multiplicative at 11 (11 does not divide c4 = 496), so
    # v_11(N) must be 1. Given N = 11^3 its gate fitted sign +1 and read
    # L(E,1) = 0.5077, twice 11a's; given 11^2 it fitted neither sign
    curve = CurveQ(0, -1, 1, -10, -20, N, "11a")
    report = run_witness(curve)
    assert report.failed_at == "analytic_rank_gate" and report.gate == "not_eligible"
    assert report.l_values == {"error": f"N = {N} has exponent {exponent} at 11, but the "
                                        "reduction at 11 is multiplicative, which needs 1"}
    assert lseries.held_an(curve) is None  # no a_n was counted


def test_a_twist_series_past_the_point_count_ceiling_fails_find_K_by_name(e11a, monkeypatch):
    # 11a's gate sums 10 terms and its twist by -7 80; with the ceiling at 50
    # the twist fails the field search by name, and the table stays at 64 terms
    monkeypatch.setattr(lseries, "POINT_COUNT_CEILING", 50)
    report = run_witness(e11a)
    assert report.failed_at == "find_K" and report.gate == "rank0"
    assert report.checks[-1]["error"] == ("the L-series of the twist by -7 needs T = 80 terms "
                                          "at precision 1e-08, past the point count ceiling 50")
    assert lseries.held_an(e11a).n_max == 64


def test_cli_rejects_depth_zero(curve_file, tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["--curves", curve_file, "--label", "37a", "--depth", "0", "--out", str(out)]) == 2
    assert "depth must be >= 1" in capsys.readouterr().err
    assert not out.exists()


def test_cli_refuses_an_unusable_out_directory_before_any_curve(curve_file, tmp_path, capsys):
    blocker = tmp_path / "blocker"
    blocker.write_text("a regular file")
    for out in (blocker, blocker / "reports"):
        assert main(["--curves", curve_file, "--label", "37a", "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("cannot write reports: ")
        assert captured.out == ""  # no curve ran
    assert blocker.read_text() == "a regular file"


def test_cli_reports_a_failed_report_write_by_name(curve_file, tmp_path, capsys):
    # the directory is there, but the first report cannot be written into it
    out = tmp_path / "out"
    (out / "37a.json").mkdir(parents=True)
    assert main(["--curves", curve_file, "--label", "37a", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("cannot write reports: ")
    assert "[37a] => PASS" in captured.out and "report written" not in captured.out
    assert os.listdir(out) == ["37a.json"]  # no temporary file is left beside it


def test_cli_reports_unreadable_config(curve_file, tmp_path, capsys):
    bad = tmp_path / "bad.json"
    for text in ('{"height_tol": 1e-4}', '{"tower_m": -1}', "not json", '{"depth": "2"}',
                 '{"cm_field": -4}'):
        bad.write_text(text)
        assert main(["--curves", curve_file, "--config", str(bad)]) == 2
        assert "cannot read config" in capsys.readouterr().err
    assert main(["--curves", curve_file, "--config", str(tmp_path / "missing.json")]) == 2
    assert "cannot read config" in capsys.readouterr().err


@pytest.mark.parametrize("line, cofactor", [
    ("nm53 0 -2809 148877 -78904810 -443287222580 11", "N = 11 is 491258904256726154641"),
    ("w53 1 -1 1 0 0 1", "N = 1 is 53"),
], ids=["11a-scaled-by-53", "53a-given-N-1"])
def test_cli_refuses_a_model_singular_at_a_prime_outside_N(line, cofactor, tmp_path, capsys):
    # 11a's model scaled by u = 53, and 53a's model with N = 1: each is singular
    # mod 53, which its N leaves out, so the table is refused before any run
    table = tmp_path / "curves.txt"
    table.write_text(line + "\n11a 0 -1 1 -10 -20 11\n")
    out = tmp_path / "out"
    assert main(["run", "--curves", str(table), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    assert captured.err.count("\n") == 1
    assert captured.err.startswith(f"cannot read curve table: {table}:1: the discriminant's part "
                                   f"prime to {cofactor}, not 1")


def test_config_refuses_a_prime_bound_above_the_point_count_ceiling(curve_file, tmp_path,
                                                                   capsys):
    # 49a1 has CM by Q(sqrt(-7)), so q = 14519, and below 2*10^6 its prime
    # scan reaches p = 1451899, past the ceiling: a Config with prime_bound
    # 2*10^6 would let run_witness raise PointCountBoundError
    ceiling = ec_core.POINT_COUNT_CEILING
    with pytest.raises(ValueError, match=f"^prime_bound {2 * ceiling} exceeds the point count "
                                         f"ceiling {ceiling}$"):
        Config(prime_bound=2 * ceiling)
    e49a1 = CurveQ(1, -1, 0, -2, -1, 49, "49a1")
    for config in (Config(), Config(prime_bound=ceiling)):
        report = run_witness(e49a1, config)
        assert report.failed_at == "prime_sequence" and not report.passed
        assert f"prime scan bound {config.prime_bound} reached" in report.checks[-1]["error"]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"prime_bound": 2 * ceiling}))
    assert main(["--curves", curve_file, "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert "cannot read config" in captured.err and "point count ceiling" in captured.err
    assert captured.out == ""


def test_run_witness_37a(e37a):
    rep = run_witness(e37a)
    assert rep.passed
    assert rep.gate == "rank1"
    assert rep.d_K == -7
    assert rep.q == 3
    assert rep.prime_seq[0]["p"] == 5
    assert rep.heegner["recognized_x"] == "0"
    assert rep.tower["contradiction"]["derivable"]
    assert "ring_class_s" in rep.timing
    names = [c["name"] for c in rep.checks]
    assert names == ["analytic_rank_gate", "find_K", "prime_sequence", "ring_class_structure",
                     "gz_correspondence", "fricke", "trace_relation",
                     "divisibility_contradiction"]
    assert all(c["pass"] for c in rep.checks)


def test_run_witness_389a_fails_at_gate(e389a):
    rep = run_witness(e389a)
    assert not rep.passed
    assert rep.failed_at == "analytic_rank_gate"
    assert rep.gate == "not_eligible"
    assert len(rep.checks) == 1  # partial report


def test_run_witness_14a_names_its_rational_3_torsion_and_never_scans(e14a, monkeypatch):
    def scan(*args):
        raise AssertionError("the prime scan ran")

    monkeypatch.setattr(pipeline, "prime_sequence", scan)
    report = run_witness(e14a)
    assert report.q == 3 and report.failed_at == "prime_sequence" and not report.passed
    assert report.checks[-1] == {
        "name": "prime_sequence", "pass": False, "partial": [],
        "error": "E(Q) has the point (2, -5) of order 3, "
                 "so q divides a_p at every good p = -1 mod q",
    }
    assert "prime_sequence_s" in report.timing


def test_run_witness_passes_where_every_heegner_form_has_small_im_tau():
    # every level-1 Heegner form of N = 997, d_K = -19 has Im tau < 5e-3; the
    # orbit scan runs until every class is found, and the run passes
    report = run_witness(CurveQ(0, -1, 1, -18, 36, 997, "g997.1"))
    assert report.passed and report.failed_at is None and report.d_K == -19
    assert report.heegner["trace_relation"]["ell"] == 2
    assert "heegner_s" in report.timing


@pytest.mark.parametrize("curve", [
    CurveQ(0, 1, 1, 0, 1, 755, "g755.3"),
    CurveQ(1, 1, 0, 4, -1, 5443, "g5443.1"),
    CurveQ(1, 0, 1, 3, -3, 6689, "g6689.1"),
])
def test_run_witness_passes_without_summing_at_w_n_tau(curve):
    # every level-1 form has Im tau < 5e-3, and z summed at W_N tau = -1/(N tau)
    # would need 436,805, 14,294,885 (over TERM_CEILING) and 750,495 terms;
    # Fricke reads z(W_N tau) from the orbit instead
    report = run_witness(curve)
    assert report.passed, report.checks[-1]
    fricke = report.heegner["fricke"]
    assert set(fricke) == {"w_N", "residual", "bound"}
    assert fricke["w_N"] == -report.l_values["epsilon"] and fricke["residual"] <= fricke["bound"]


@pytest.mark.parametrize("curve, confirmed", [
    (CurveQ(0, -1, 1, -2, 2, 57, "57a"), True),  # the trace is recognized as a rational point
    (CurveQ(0, -1, 1, -1, -1, 427, "g427.1"), False),  # no candidate to confirm
], ids=lambda v: v.label if isinstance(v, CurveQ) else str(v))
def test_step5_sums_each_form_once(curve, confirmed, monkeypatch):
    # one sum per form of both orbits at the step-5 precision; only a
    # recognized candidate sums the level-1 forms again, at a tenth of it
    sums = Counter()
    real = heegner.modular_param

    def modular_param(curve, tau, n_terms=None, precision=1e-9):
        sums[tau, precision] += 1
        return real(curve, tau, n_terms, precision)

    monkeypatch.setattr(heegner, "modular_param", modular_param)
    config = Config()
    report = run_witness(curve, config)
    assert report.passed and (report.heegner["recognized_x"] is not None) == confirmed
    precision = min(config.lseries_precision, config.heegner_residual * 1e-3)
    level_1 = heegner.heegner_orbit(curve, report.d_K, 1).taus
    level_ell = heegner.heegner_orbit(curve, report.d_K, report.heegner["trace_relation"]["ell"]).taus
    want = Counter({(t, precision): 1 for t in level_1 + level_ell})
    if confirmed:
        want.update({(t, precision / 10): 1 for t in level_1})
    assert sums == want


@pytest.mark.parametrize("ainvs, q", [
    ((0, 0, 1, 0, -7, 27), 2953),  # 27a1, CM by -3
    ((0, 0, 1, 0, 0, 27), 2953),  # 27a3, CM by -3
    ((0, 0, 0, 4, 0, 32), 809),  # 32a1, CM by -4
    ((0, 0, 0, 0, 1, 36), 25447),  # 36a1, CM by -3, d_K = -23
    ((1, -1, 0, -2, -1, 49), 14519),  # 49a1, CM by -7, d_K = -19
    ((0, 0, 1, -1, 0, 37), 3),  # 37a, no CM
])
def test_run_witness_takes_the_cm_admissible_q_from_j(ainvs, q):
    # with CM by d_F, q splits in Q(sqrt(d_F)) and q > 1 + 2|d_K|^4/phi(|d_K|)
    report = run_witness(CurveQ(*ainvs))
    assert report.q == q
    if q > 10**4:  # 36a1, 49a1: few p = -1 mod q below the scan bound, and the error says why
        assert report.failed_at == "prime_sequence"
        error = next(c["error"] for c in report.checks if c["name"] == "prime_sequence")
        bound = 1 + 2 * report.d_K**4 / euler_phi(-report.d_K)
        assert error.startswith("prime scan bound 100000 reached")
        assert error.endswith(f"; q = {q} was set by the CM lower bound "
                              f"1 + 2|d_K|^4/phi(|d_K|) = {bound:.1f}")
        assert bound < q
        # the candidates are the k q - 1 <= 10^5 that are prime, inert in K and of good reduction
        candidates = sum(
            1 for p in (k * q - 1 for k in range(1, 10**5 // q + 1))
            if is_prime(p) and kronecker(report.d_K, p) == -1 and ainvs[5] % p
        )
        assert f"; {candidates} of the primes p <= 100000 have p = -1 mod q, are inert in K " \
               "and have good reduction; q = " in error


def test_a_model_that_is_not_optimal_fails_fricke_by_the_optimal_lattice(monkeypatch):
    # 27a3 is not X_0(27)-optimal: its z values lie in the lattice of the optimal
    # curve 27a1, so Manin's relation misses 27a3's lattice by 27a1's omega_1
    e27a1, e27a3 = CurveQ(0, 0, 1, 0, -7, 27, "27a1"), CurveQ(0, 0, 1, 0, 0, 27, "27a3")
    optimal = heegner.period_lattice(e27a1)
    against_optimal = []
    real = pipeline.fricke_diagnostic

    def fricke_diagnostic(orbit, zs, lattice, le):
        against_optimal.append(real(orbit, zs, optimal, le))
        return real(orbit, zs, lattice, le)

    monkeypatch.setattr(pipeline, "fricke_diagnostic", fricke_diagnostic)
    report = run_witness(e27a3)  # a failed report, not an exception
    assert not report.passed and report.failed_at == "fricke"
    last = report.checks[-1]
    assert last["name"] == "fricke" and last["residual"] > last["bound"]
    assert abs(last["residual"] - optimal.omega1) <= last["bound"]
    (in_optimal,) = against_optimal
    assert in_optimal["residual"] <= in_optimal["bound"] == last["bound"]
    # 27a1's omega_1 is a third of 27a3's: the check names the residual's order
    assert last["order"] == 3 and last["error"] == ("model is not X_0(27)-optimal: the Fricke "
                                                    "residual has order 3 mod Lambda_E")
    assert report.heegner["fricke"] == {k: v for k, v in last.items() if k not in ("name", "pass")}


@pytest.mark.parametrize("curve, order", [
    (CurveQ(0, -1, 1, 0, 0, 11, "g11.1"), 5),  # 11a3's model
    (CurveQ(1, -1, 1, -1, 0, 17, "g17.1"), 4),
    (CurveQ(0, 1, 1, 1, 0, 19, "g19.1"), 3),
    (CurveQ(1, -1, 0, 1, 0, 55, "g55.1"), 2),
], ids=lambda v: v.label if isinstance(v, CurveQ) else str(v))
def test_a_model_that_is_not_optimal_is_named_with_the_order_of_its_fricke_residual(curve, order):
    report = run_witness(curve)
    assert not report.passed and report.failed_at == "fricke"
    last = report.checks[-1]
    assert last["residual"] > last["bound"] and last["order"] == order
    assert last["error"] == (f"model is not X_0({curve.N})-optimal: the Fricke residual has "
                             f"order {order} mod Lambda_E")
    # k r lies within k times the bound of the lattice, at the coordinates reported
    a, b = last["coordinates"]
    assert max(abs(order * a - round(order * a)), abs(order * b - round(order * b))) < 1e-8
    assert math.gcd(math.gcd(round(order * a), round(order * b)), order) == 1


@pytest.mark.parametrize("curve", [
    CurveQ(0, 0, 1, -1, 0, 37, "37a"),  # passes: step 5 runs to the end
    CurveQ(0, 0, 1, -2, -2, 811, "g811.1"),  # three candidate fields
])
def test_run_witness_evaluates_each_field_once(curve, monkeypatch):
    # every L'(E/K,1) goes through one twist L-value; count those
    twists, at_find_K = [], []
    real_l_eval, real_find_K = lseries.l_eval, pipeline.find_K

    def l_eval(curve, precision=lseries.DEFAULT_PRECISION, d=1, sign=None):
        if d != 1:
            twists.append(d)
        return real_l_eval(curve, precision, d, sign)

    def find_K(*args):
        fs = real_find_K(*args)
        at_find_K.extend(twists)
        return fs

    monkeypatch.setattr(lseries, "l_eval", l_eval)
    monkeypatch.setattr(pipeline, "find_K", find_K)
    monkeypatch.setattr(lseries, "_AN_CACHE", {})
    report = run_witness(curve)
    assert any(c["name"] == "gz_correspondence" for c in report.checks)
    assert list(lseries._AN_CACHE) == [(curve.ainvs, curve.N)]  # one table serves every twist
    candidates = [
        d for d in range(-7, report.d_K - 1, -4)
        if is_squarefree(d) and math.gcd(d, 2 * curve.N) == 1 and heegner_hypothesis(curve, d)
    ]
    assert at_find_K == candidates and twists == candidates


def test_find_K_reuses_the_gate_l_value(monkeypatch):
    curve = CurveQ(0, 0, 1, -2, -2, 811, "g811.1")  # three candidate fields
    own = []  # l_eval calls for E itself, d = 1
    real_l_eval = lseries.l_eval

    def l_eval(curve, precision=lseries.DEFAULT_PRECISION, d=1, sign=None):
        if d == 1:
            own.append(precision)
        return real_l_eval(curve, precision, d, sign)

    for mod in (lseries, searcher, pipeline):
        if hasattr(mod, "l_eval"):
            monkeypatch.setattr(mod, "l_eval", l_eval)
    report = run_witness(curve)
    assert report.d_K is not None and own == [Config().lseries_precision]
    own.clear()
    fs = searcher.find_K(curve)  # alone, as `witness scan-k` runs it
    assert own == [lseries.DEFAULT_PRECISION]
    assert fs.l_value_data == lseries.l_over_K(curve, fs.d_K)  # bit for bit
    assert report.l_values["L_over_K"] == fs.l_value_data.value


def test_step5_reads_a_ell_from_the_a_n_table(e37a, monkeypatch):
    counted = []
    real_ap = ec_core.ap

    def ap(curve, p):
        counted.append(p)
        return real_ap(curve, p)

    for mod in (ec_core, heegner, pipeline):
        if hasattr(mod, "ap"):
            monkeypatch.setattr(mod, "ap", ap)
    monkeypatch.setattr(lseries, "_AN_CACHE", {})
    report = run_witness(e37a)
    trace = report.heegner["trace_relation"]
    assert trace["a_ell"] == real_ap(e37a, trace["ell"])
    assert counted.count(trace["ell"]) == 1  # by the table only


def test_step3_reads_a_p_from_the_a_n_table(monkeypatch):
    # 57a's tower primes 89 and 109 lie in the 1745-term table its gate and L'(E/K,1) grew
    e57a = CurveQ(0, -1, 1, -2, 2, 57, "57a")
    counted, held = [], []
    real, real_held = searcher.ap_many, pipeline.held_an
    monkeypatch.setattr(searcher, "ap_many", lambda curve, ps: counted.append(ps) or real(curve, ps))
    monkeypatch.setattr(pipeline, "held_an", lambda curve: held.append(real_held(curve)) or held[-1])
    monkeypatch.setattr(lseries, "_AN_CACHE", {})
    report = run_witness(e57a)
    assert report.passed and [it["p"] for it in report.prime_seq] == [89, 109]
    assert [table.n_max for table in held] == [1745] and counted == []


def test_run_witness_evaluates_L_over_K_at_the_config_precision(e37a):
    report = run_witness(e37a, Config(lseries_precision=1e-12))
    assert report.d_K == -7
    assert report.l_values["L_over_K"] == l_over_K(e37a, -7, precision=1e-12).value
    assert report.heegner["l_prime_K"] == report.l_values["L_over_K"]


def test_aux_search_takes_the_smallest_inert_prime(g427):
    ell, orbit = _pick_aux_ell(g427, -19)
    assert (ell, orbit.level, orbit.class_count) == (2, 2, 3)
    report = run_witness(g427)
    assert report.passed and report.failed_at is None
    trace = report.heegner["trace_relation"]
    assert (trace["ell"], trace["orbit_size"]) == (2, 3) and trace["residual"] < 1e-10
    assert "heegner_s" in report.timing


def test_step4_enumerates_each_level_prime_once(monkeypatch):
    # 57a's level 2 has c = 89 * 109: each prime is certified once, for both levels
    seen = []
    real = quadforms._cyclic_order

    def cyclic_order(d, p):
        seen.append((d, p))
        return real(d, p)

    monkeypatch.setattr(quadforms, "_cyclic_order", cyclic_order)
    report = run_witness(CurveQ(0, -1, 1, -2, 2, 57, "57a"))
    assert [r["primes"] for r in report.ring_class] == [[89], [89, 109]]
    assert seen == [(-59, 89), (-59, 109)]


def test_step4_certifies_a_repeated_prime_once_per_run(monkeypatch):
    # 17a and 19a share d_K = -15 and the tower primes 13 and 41: each run
    # certifies both itself, and so does every later ring_class_levels call
    certified = []
    real = quadforms._cyclic_order

    def cyclic_order(d, p):
        certified.append((d, p))
        return real(d, p)

    monkeypatch.setattr(quadforms, "_cyclic_order", cyclic_order)
    reports = [run_witness(CurveQ(1, -1, 1, -1, -14, 17, "17a")),
               run_witness(CurveQ(0, 1, 1, -9, -15, 19, "19a"))]
    assert [(r.d_K, r.ring_class[-1]["primes"]) for r in reports] == [(-15, [13, 41])] * 2
    assert certified == [(-15, 13), (-15, 41)] * 2
    for calls in range(1, 4):
        quadforms.ring_class_levels(-15, [13, 41])
        assert certified == [(-15, 13), (-15, 41)] * (2 + calls)


class _MiscountingNumpy:
    """numpy for `quadforms` whose coset count is off by `delta`."""

    def __init__(self, delta):
        self.delta = delta

    def __getattr__(self, name):
        return getattr(np, name)

    def count_nonzero(self, *args):
        return np.count_nonzero(*args) + self.delta


@pytest.mark.parametrize("delta", [1, -1])
def test_step4_fails_a_coset_count_one_off_at_32a2s_tower_primes(delta, monkeypatch):
    # 32a2's tower primes 56629 and 66337 are certified like any other: with one
    # coset too many or too few no generator exists, and the error names d_K, p and n
    monkeypatch.setattr(quadforms, "_np", _MiscountingNumpy(delta))
    report = run_witness(CurveQ(0, 0, 0, -1, 0, 32, "32a2"))
    assert (report.d_K, report.failed_at) == (-7, "ring_class_structure")
    assert report.checks[-1]["error"] == (
        "no generator certifies (O_K/p)^*/(Z/p)^* as cyclic of order "
        f"{56630 + delta} for d_K=-7, p=56629")


def _fresh_import(code: str) -> str:
    """stdout of `code` run after `import heegner_witness.cli` in a new interpreter."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(pipeline.__file__)))
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", "import heegner_witness.cli\n" + code], env=env,
                         capture_output=True, text=True, check=True, timeout=120)
    return out.stdout


def test_import_leaves_no_memoized_function():
    # the a_n table is the curve's one cache: no function in src/ is memoized
    out = _fresh_import(
        "import importlib, pkgutil, sys, heegner_witness\n"
        "for m in pkgutil.iter_modules(heegner_witness.__path__):\n"
        "    importlib.import_module('heegner_witness.' + m.name)\n"
        "for name, mod in sorted(sys.modules.items()):\n"
        "    if name.startswith('heegner_witness.'):\n"
        "        for attr, fn in sorted(vars(mod).items()):\n"
        "            if hasattr(fn, 'cache_info') and fn.__module__ == name:\n"
        "                print(name, attr, fn.cache_info().currsize)")
    assert out.splitlines() == []


def test_record_defaults_are_fresh_containers():
    a, b = (pipeline.WitnessReport("x", {}, False, None, []) for _ in range(2))
    for name in ("config", "prime_seq", "ring_class", "versions", "timing"):
        assert not getattr(a, name) and getattr(a, name) is not getattr(b, name)
    r, s = (ContradictionResult(False, "none") for _ in range(2))
    assert r.ledger == [] and r.ledger is not s.ledger


def test_import_path_loads_no_dataclasses():
    # the records are NamedTuples and slotted classes: each @dataclass would add about
    # 1 ms to every process's start-up, and importing dataclasses itself 2 ms more
    out = _fresh_import("import sys\nprint('dataclasses' in sys.modules)")
    assert out.split() == ["False"]


def test_import_path_loads_no_openssl():
    # the report digest is CPython's builtin SHA-256: _hashlib would map libcrypto
    # into every process for one digest per report
    if all(importlib.util.find_spec(m) is None for m in ("_sha2", "_sha256")):
        pytest.skip("this interpreter has no builtin SHA-256 module")
    out = _fresh_import("import sys\nprint('_hashlib' in sys.modules)")
    assert out.split() == ["False"]


def test_step4_fails_its_check_when_enumeration_and_formula_disagree(e37a, monkeypatch):
    # C_2 for every prime: the first tower prime, 5, is certified with order 2, not 6
    monkeypatch.setattr(quadforms, "_cyclic_order", lambda d, p: 2)
    report = run_witness(e37a)
    assert not report.passed and report.failed_at == "ring_class_structure"
    last = report.checks[-1]
    assert last["name"] == "ring_class_structure" and not last["pass"]
    assert last["error"] == ("ring class structure mismatch for d_K=-7, c=5: "
                             "p=5 is certified cyclic of order n_p=2, not p + 1 = 6")
    assert report.ring_class == [] and report.heegner is None


@pytest.mark.parametrize("curve", [
    CurveQ(0, -1, 1, -10, -20, 11, "11a"),
    CurveQ(0, 0, 1, -1, 0, 37, "37a"),
])
def test_run_witness_fails_find_K_on_a_flipped_gate_sign(curve, monkeypatch):
    # a gate that kept the wrong sign: the twist's sign is eps(E)
    # kronecker(d_K, -N), so it fails the twist's split identity, and the
    # run fails at find_K naming the defect
    real = pipeline.find_K

    def find_K(curve, scan_bound, threshold, precision, le):
        flipped = le._replace(epsilon=-le.epsilon)
        return real(curve, scan_bound, threshold, precision, flipped)

    monkeypatch.setattr(pipeline, "find_K", find_K)
    report = run_witness(curve)
    assert report.gate in ("rank0", "rank1")
    assert not report.passed and report.failed_at == "find_K" and report.d_K is None
    last = report.checks[-1]
    assert last["name"] == "find_K" and not last["pass"]
    assert "fails the split identity" in last["error"] and "exceeds the bound" in last["error"]


def _force_the_wrong_gate_sign(monkeypatch):
    real = lseries.l_eval

    def l_eval(curve, precision):
        return real(curve, precision, sign=-real(curve, precision).epsilon)

    monkeypatch.setattr(pipeline, "l_eval", l_eval)
    return lambda report: "sign" in report.l_values["error"] and \
        "fails the split identity" in report.l_values["error"]


def _read_every_L_over_K_as_zero(monkeypatch):
    real = searcher.l_over_K

    def l_over_K(*args):
        return real(*args)._replace(value=0.0, nonzero=False)

    monkeypatch.setattr(searcher, "l_over_K", l_over_K)
    return lambda report: report.checks[-1]["error"].startswith("no admissible")


def _negate_every_counted_a_p(monkeypatch):
    # step 3 reads a_p from the a_n table and counts those beyond it with ap_many
    real, real_held = searcher.ap_many, pipeline.held_an

    def held_an(curve):
        table = real_held(curve)
        return None if table is None else ec_core.AnSeries(table.n_max, -table.values)

    monkeypatch.setattr(searcher, "ap_many", lambda curve, primes: -real(curve, primes))
    monkeypatch.setattr(pipeline, "held_an", held_an)
    return lambda report: report.prime_seq == [{"p": 5, "a_p": 2}, {"p": 59, "a_p": -8}]


def _drop_the_order_certified_at_the_newest_prime_to_p_minus_1(monkeypatch):
    # 37a's tower over d_K = -7 is 5, 59: level 1 passes, level 2 names 59
    real = quadforms._cyclic_order
    monkeypatch.setattr(quadforms, "_cyclic_order",
                        lambda d, p: p - 1 if p == 59 else real(d, p))
    return lambda report: report.checks[-1]["error"] == (
        "ring class structure mismatch for d_K=-7, c=295: "
        "p=59 is certified cyclic of order n_p=58, not p + 1 = 60")


def _read_every_height_as_zero(monkeypatch):
    monkeypatch.setattr(heegner, "canonical_height", lambda curve, P, tol=1e-11: 0.0)
    return lambda report: report.checks[-1]["nontorsion"] is False


def _flip_the_sign_fricke_reads(monkeypatch):
    real = pipeline.fricke_diagnostic

    def fricke_diagnostic(orbit, zs, lattice, le):
        return real(orbit, zs, lattice, le._replace(epsilon=-le.epsilon))

    monkeypatch.setattr(pipeline, "fricke_diagnostic", fricke_diagnostic)
    return lambda report: report.checks[-1]["w_N"] == -1 and \
        report.checks[-1]["residual"] > report.checks[-1]["bound"]


def _drop_a_class_from_the_level_ell_orbit(monkeypatch):
    real = pipeline.heegner_orbit

    def heegner_orbit(curve, d_K, level=1):
        orbit = real(curve, d_K, level)
        return orbit if level == 1 else orbit._replace(taus=orbit.taus[:-1])

    monkeypatch.setattr(pipeline, "heegner_orbit", heegner_orbit)
    return lambda report: report.checks[-1]["orbit_size"] == 3 and \
        report.checks[-1]["residual"] > report.checks[-1]["bound"]


def _add_a_3_torsion_point_to_one_level_ell_z(monkeypatch):
    # E(K) for 37a over d_K = -7 has no torsion but O (m_K = 1), so a level-3
    # trace off by omega1/3 is no change of Heegner system, and its order is named
    real = pipeline.orbit_z

    def orbit_z(orbit, precision):
        zs = real(orbit, precision)
        if orbit.level > 1:
            zs[0].z += heegner.period_lattice(orbit.curve).omega1 / 3
        return zs

    monkeypatch.setattr(pipeline, "orbit_z", orbit_z)
    return lambda report: report.checks[-1]["order"] == 3 and \
        report.checks[-1]["error"] == "the trace relation's residual has order 3 mod Lambda_E"


@pytest.mark.parametrize("check, mutate", [
    ("analytic_rank_gate", _force_the_wrong_gate_sign),
    ("find_K", _read_every_L_over_K_as_zero),
    ("prime_sequence", _negate_every_counted_a_p),
    ("ring_class_structure", _drop_the_order_certified_at_the_newest_prime_to_p_minus_1),
    ("gz_correspondence", _read_every_height_as_zero),
    ("fricke", _flip_the_sign_fricke_reads),
    ("trace_relation", _drop_a_class_from_the_level_ell_orbit),
    ("trace_relation", _add_a_3_torsion_point_to_one_level_ell_z),
])
def test_each_check_fails_the_run_under_its_mutation(check, mutate, e37a, monkeypatch):
    # every check name a report can carry, except divisibility_contradiction,
    # which its inputs make constant
    names_the_fault = mutate(monkeypatch)
    report = run_witness(e37a)
    assert not report.passed and report.failed_at == check
    last = report.checks[-1]
    assert last["name"] == check and not last["pass"]
    assert names_the_fault(report)


@pytest.mark.parametrize("mutate", [
    lambda le: le._replace(epsilon=-le.epsilon),
    lambda le: le._replace(value_at_1=le.value_at_1 * (1 + 1e-6)),
], ids=["flipped_sign", "L_1_off_by_1e-6"])
def test_fricke_fails_on_a_wrong_sign_or_L_value(mutate, e11a, monkeypatch):
    # 11a has eps = +1, so Manin's relation reads L(E,1) as well as the sign
    real = pipeline.fricke_diagnostic
    monkeypatch.setattr(pipeline, "fricke_diagnostic",
                        lambda orbit, zs, lattice, le: real(orbit, zs, lattice, mutate(le)))
    report = run_witness(e11a)
    assert not report.passed and report.failed_at == "fricke"
    last = report.checks[-1]
    assert last["name"] == "fricke" and last["residual"] > last["bound"]


def test_trace_relation_searches_the_torsion_e_of_k_can_have():
    # 15a over d_K = -11 has m_K = 8, and its two sides differ by the 2-torsion
    # point (omega1 + omega2)/2: the run passes through the translates of
    # (1/8) Lambda, with the residual it had over every point of order <= 16
    e15a = CurveQ(1, 1, 1, -10, -10, 15, "15a")
    report = run_witness(e15a)
    assert report.passed and report.d_K == -11 and heegner.torsion_bound(e15a, -11) == 8
    trace = report.heegner["trace_relation"]
    assert (trace["ell"], trace["a_ell"]) == (2, -1)
    assert f"{trace['residual']:.12g}" == "1.20082583297e-11" and trace["residual"] <= trace["bound"]
    assert trace["bound"] == pytest.approx(1.0442e-9, rel=1e-4)
    lattice = heegner.period_lattice(e15a)
    base, up = heegner.heegner_orbit(e15a, -11, 1), heegner.heegner_orbit(e15a, -11, 2)
    w = sum(z.z for z in heegner.orbit_z(up, 1e-9)) + sum(z.z for z in heegner.orbit_z(base, 1e-9))
    assert lattice.dist(w - (lattice.omega1 + lattice.omega2) / 2) == trace["residual"]
    assert lattice.dist(w) > 1.0  # so at m_K = 1 the run would fail


def test_coarse_l_precision_leaves_step_5_at_its_own_precision():
    # step 5 sums at min(lseries_precision, heegner_residual * 1e-3) = 1e-9,
    # so a coarse L precision does not make 43a's Heegner trace look torsion
    e43a = CurveQ(0, 1, 1, 0, 0, 43, "43a")
    report = run_witness(e43a, Config(lseries_precision=1e-3))
    assert report.passed and report.failed_at is None
    assert report.heegner["pk_nontorsion"]


def test_coarse_step5_configs_sum_at_a_precision_the_torsion_test_decides():
    # step 5 sums at min(lseries_precision, heegner_residual * 1e-3,
    # lambda_min / (200 B^2 h)), so is_torsion's tolerance stays at most
    # lambda_min / (4 B^2), below its limit lambda_min / (2 m_K). Summed at
    # the first two alone, these runs failed at gz_correspondence when the
    # limit was lambda_min / (2 B^2): 43a with "torsion tolerance 0.0313 is
    # not below lambda_min/(2 B^2) = 0.00597", 19a with 0.00321 against 0.00266
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    table = {c.label: c for c in parse_curve_file(os.path.join(root, "perfbench", "data",
                                                                "pinned.txt"))}
    for config, labels in ((Config(lseries_precision=1e-3, heegner_residual=1.0), ("11a", "43a")),
                           (Config(lseries_precision=1e-4, heegner_residual=0.1),
                            ("19a", "65a", "83a"))):
        for label in labels:
            report = run_witness(table[label], config)
            assert report.passed and report.heegner["pk_nontorsion"], label
    # the limit itself still refuses a trace coarse enough, wherever it lies:
    # 43a over Q(sqrt(-7)) has m_K = 1 and lambda_min = 2.7264
    lattice = heegner.period_lattice(table["43a"])
    assert heegner.torsion_bound(table["43a"], -7) == 1
    coarse = heegner.CPoint(0.1 + 0.1j, (0.0, 0.0), 0.04)
    with pytest.raises(heegner.PrecisionUnreachable,
                       match=r"^torsion tolerance 2 is not below lambda_min/\(2 m_K\) = 1\.36, m_K = 1$"):
        heegner.is_torsion(table["43a"], coarse, lattice=lattice, d_K=-7)


def test_step5_caps_its_precision_by_the_torsion_bound_squared_not_by_m_K():
    # g8446.1's trace over Q(sqrt(-31)) lies at |z_K| = 0.265 at this config.
    # With m_K = 1 in place of B^2 in the cap, the trace is summed at 2.4e-3,
    # is_torsion's tolerance reaches 0.36 and the trace reads as torsion
    curve = CurveQ(1, 0, 0, -7, -9, 8446, "g8446.1")
    report = run_witness(curve, Config(lseries_precision=3e-3, heegner_residual=10))
    assert report.passed and report.heegner["pk_nontorsion"]
    assert report.d_K == -31 and heegner.torsion_bound(curve, -31) == 1
    assert abs(complex(*report.heegner["z_K"])) == pytest.approx(0.265, abs=1e-3)


@pytest.mark.parametrize("curve", [
    CurveQ(1, 0, 0, -2, 1, 61, "61a"),
    CurveQ(1, 0, 1, -5, 1, 4771, "g4771.4"),
    CurveQ(0, 0, 1, -16, -24, 18469, "g18469.1"),
], ids=lambda c: c.label)
def test_coarse_configs_test_the_trace_only_for_the_orders_E_of_K_can_have(curve):
    # m_K = 1 on all three, so E(K) has no torsion but O and the trace is
    # tested against the lattice alone. With every order up to 16 tried,
    # traces 1.15, 0.53 and 0.22 from the lattice read as torsion at these
    # configs, and the runs failed gz_correspondence though L'(E/K,1) != 0
    for precision in (1e-3, 1e-4):
        report = run_witness(curve, Config(lseries_precision=precision, heegner_residual=1.0))
        assert report.passed and report.heegner["pk_nontorsion"], (curve.label, precision)
        assert heegner.torsion_bound(curve, report.d_K) == 1


def test_coarse_precision_fails_the_gate_naming_both_defects(monkeypatch):
    # at 1e-2 the gate's 7 terms fit both signs on 43a; with the ceiling at 9
    # the sums cannot grow to 10 terms, and the run fails by name on the 7
    monkeypatch.setattr(lseries, "POINT_COUNT_CEILING", 9)
    e43a = CurveQ(0, 1, 1, 0, 0, 43, "43a")
    report = run_witness(e43a, Config(lseries_precision=1e-2))
    assert not report.passed and report.failed_at == "analytic_rank_gate"
    assert report.gate == "not_eligible" and report.checks[-1]["result"] == "not_eligible"
    error = report.l_values["error"]
    assert error.startswith("both signs of E meet the split identity at A = 1.07 on 7 terms")
    assert "sign +1 has defect" in error and "sign -1 has defect" in error
    monkeypatch.undo()
    assert run_witness(e43a, Config(lseries_precision=1e-4)).passed


def test_coarse_precision_grows_the_gate_series_while_both_signs_fit():
    # 43a's smallest T at 1e-2 is 7, where both signs fit; one step of the
    # old ladder, to 10 terms, leaves only the right sign, -1
    e43a = CurveQ(0, 1, 1, 0, 0, 43, "43a")
    assert lseries._tail_terms(2.0 * math.pi / math.sqrt(43), 1e-2 / 4.0) == 7
    report = run_witness(e43a, Config(lseries_precision=1e-2))
    assert report.gate == "rank1" and report.l_values["epsilon"] == -1
    assert report.l_values["terms"] == 10 and report.passed


def test_stage_timings_keep_ten_microseconds(e37a, monkeypatch):
    # a clock that moves 123.456 us per read: every stage reads 0.00012 s,
    # which a 1 ms rounding would write as 0
    ticks = iter(range(10**6))
    monkeypatch.setattr(pipeline.time, "perf_counter", lambda: next(ticks) * 123.456e-6)
    timing = run_witness(e37a).timing
    stages = {k: v for k, v in timing.items() if k != "total_s"}
    assert set(stages) == {"gate_s", "find_K_s", "prime_sequence_s", "ring_class_s",
                           "heegner_s", "tower_s"}
    assert set(stages.values()) == {0.00012}
    assert timing["total_s"] == round(timing["total_s"], 5) > sum(stages.values())


def test_the_a_n_cache_keeps_only_the_current_curve(e11a, e37a, monkeypatch):
    monkeypatch.setattr(lseries, "_AN_CACHE", {})
    for curve in (e11a, e37a):
        assert run_witness(curve).passed
    assert list(lseries._AN_CACHE) == [(e37a.ainvs, e37a.N)]


def test_step5_builds_one_period_lattice(e37a, monkeypatch):
    built = []
    real = heegner.period_lattice

    def period_lattice(curve):
        built.append(curve.label)
        return real(curve)

    for mod in (heegner, pipeline):
        monkeypatch.setattr(mod, "period_lattice", period_lattice)
    report = run_witness(e37a)
    assert report.passed and built == ["37a"]


GOLDEN = os.path.join(os.path.dirname(__file__), "golden_hashes.json")


def test_report_hashes_match_golden():
    # a change that moves a hash on purpose updates golden_hashes.json and says so
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(GOLDEN) as fh:
        golden = json.load(fh)
    assert sorted(golden) == ["perfbench/data/pinned.txt", "perfbench/data/pins.json",
                              "testdata.txt"]
    for path, want in golden.items():
        if path.endswith(".json"):  # the curves of the field-search and aux-search pools
            with open(os.path.join(root, path)) as fh:
                pins = json.load(fh)
            curves = [CurveQ(*c["ainvs"], c["N"], c["label"])
                      for c in pins["field-search"] + pins["aux-search"]]
        else:
            curves = parse_curve_file(os.path.join(root, path))
        got = {c.label: json.loads(canonical_json(run_witness(c)))["canonical_hash"]
               for c in curves}
        assert got == want, path


def test_witness_runs_never_reach_lapack(monkeypatch):
    # np.roots (LAPACK's eigenvalues) paged about 1 MB of OpenBLAS into every
    # run that built a period lattice; the pinned table runs to its golden
    # reports with numpy's eigenvalue entry points raising
    def lapack(*args, **kwargs):
        raise AssertionError("a witness run reached LAPACK")

    monkeypatch.setattr(np, "roots", lapack)
    monkeypatch.setattr(np.linalg, "eigvals", lapack)
    path = "perfbench/data/pinned.txt"
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(GOLDEN) as fh:
        want = json.load(fh)[path]
    got = {c.label: json.loads(canonical_json(run_witness(c)))["canonical_hash"]
           for c in parse_curve_file(os.path.join(root, path))}
    assert got == want


def test_emit_report_deterministic(e389a, tmp_path):
    rep1 = run_witness(e389a)
    rep2 = run_witness(e389a)
    p1, p2 = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    emit_report(rep1, p1)
    emit_report(rep2, p2)
    d1, d2 = json.load(open(p1)), json.load(open(p2))
    assert d1["canonical_hash"] == d2["canonical_hash"]
    d1.pop("timing"), d2.pop("timing")
    assert d1 == d2


def test_emit_report_leaves_nothing_when_the_report_cannot_be_serialized(e37a, tmp_path):
    report = run_witness(e37a)
    report.timing["total_s"] = float("nan")
    with pytest.raises(ValueError, match="non-finite float in report"):
        emit_report(report, str(tmp_path / "37a.json"))
    assert os.listdir(tmp_path) == []


def test_emit_report_leaves_nothing_when_the_rename_fails(tmp_path):
    (tmp_path / "x.json").mkdir()
    with pytest.raises(OSError):
        emit_report(pipeline.WitnessReport("x", {}, False, None, []), str(tmp_path / "x.json"))
    assert os.listdir(tmp_path) == ["x.json"]


@pytest.mark.parametrize("umask", [0o022, 0o077, 0o002])
def test_emit_report_gives_the_mode_open_would_give(umask, tmp_path):
    old = os.umask(umask)
    try:
        emit_report(pipeline.WitnessReport("x", {}, False, None, []), str(tmp_path / "x.json"))
        with open(tmp_path / "plain.json", "w"):
            pass
    finally:
        os.umask(old)
    modes = [os.stat(tmp_path / name).st_mode & 0o777 for name in ("x.json", "plain.json")]
    assert modes == [0o666 & ~umask] * 2


def test_emit_report_never_touches_the_umask(tmp_path, monkeypatch):
    umask = os.umask(0o022)
    os.umask(umask)

    def refuse(mask):
        raise AssertionError("emit_report changed the process umask")

    monkeypatch.setattr(os, "umask", refuse)
    emit_report(pipeline.WitnessReport("x", {}, False, None, []), str(tmp_path / "x.json"))
    assert os.stat(tmp_path / "x.json").st_mode & 0o777 == 0o666 & ~umask
    assert os.listdir(tmp_path) == ["x.json"]


def test_emit_report_passes_over_a_stale_temporary_file(tmp_path, monkeypatch):
    names = iter([b"\0" * 6, b"\0" * 6, b"\1" * 6])
    monkeypatch.setattr(os, "urandom", lambda n: next(names))
    stale = tmp_path / ".report.000000000000.tmp"
    stale.write_text("stale")
    emit_report(pipeline.WitnessReport("x", {}, False, None, []), str(tmp_path / "x.json"))
    assert sorted(os.listdir(tmp_path)) == [stale.name, "x.json"]
    assert stale.read_text() == "stale"
    assert json.loads((tmp_path / "x.json").read_text())["label"] == "x"


def test_canonical_json_float_formatting(e389a):
    rep = run_witness(e389a)
    text = canonical_json(rep)
    data = json.loads(text)
    assert "canonical_hash" in data
    # 12 significant digits max on floats
    lv = data["l_values"]["L_1"]
    assert isinstance(lv, float)


def test_cli_end_to_end(curve_file, tmp_path, capsys):
    out = str(tmp_path / "reports")
    rc = main(["--curves", curve_file, "--out", out])
    assert rc == 1  # 389a fails its gate
    text = capsys.readouterr().out
    assert "[11a] => PASS" in text
    assert "[37a] => PASS" in text
    assert "[389a] => FAIL (at analytic_rank_gate)" in text
    for label in ("11a", "37a", "389a"):
        assert os.path.exists(os.path.join(out, f"{label}.json"))


def test_cli_single_label(curve_file, capsys):
    rc = main(["--curves", curve_file, "--label", "37a"])
    assert rc == 0
    assert "[37a] => PASS" in capsys.readouterr().out


def test_cli_tower_subcommand(capsys):
    rc = main(["tower", "--q", "3", "--primes", "5,17", "--r", "1"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "quotient C_3^2" in out
    assert "witness at level n = 2" in out


def test_cli_scan_k_subcommand(capsys):
    rc = main(["scan-k", "--curve", "37a"])
    assert rc == 0
    assert "d_K = -7" in capsys.readouterr().out


def test_cli_scan_k_names_each_rejected_candidate(tmp_path, capsys):
    table = tmp_path / "curves.txt"
    table.write_text("14a 1 0 1 4 -6 14\n")
    rc = main(["scan-k", "--curve", "14a", "--curves", str(table)])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "  d_K=-7 rejected: not coprime to 2N = 28"
    assert lines[1].startswith("  d_K=-11 rejected: Heegner hypothesis fails")
    assert [ln.split()[0] for ln in lines[:5]] == [f"d_K={d}" for d in (-7, -11, -15, -19, -23)]
    assert lines[5] == "d_K = -31"


def test_cli_scan_k_names_the_rejections_of_an_exhausted_scan(capsys):
    # 389a has rank 2: every admissible field has L'(E/K,1) = 0
    rc = main(["scan-k", "--curve", "389a", "--bound", "20"])
    assert rc == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("  d_K=-7 rejected: L'(E/K,1) = ")
    assert lines[0].endswith("is within the threshold 0.001 of 0")
    assert lines[2] == "  d_K=-15 rejected: Heegner hypothesis fails: a prime dividing N does not split"
    assert lines[-1] == "no admissible field below 20"


def test_cli_scan_k_refuses_a_curve_whose_series_is_too_long_with_exit_2(tmp_path, monkeypatch,
                                                                          capsys):
    # N = 63999999973 needs more L-series terms than the point count ceiling:
    # one line on stderr, no traceback, and no a_n is counted first
    table = tmp_path / "curves.txt"
    table.write_text("big 0 0 1 -1000 0 63999999973\n")

    def an_series(*args):
        raise AssertionError("an a_n table was grown")

    monkeypatch.setattr(lseries, "an_series", an_series)
    assert main(["scan-k", "--curve", "big", "--curves", str(table)]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == ("cannot search fields: the L-series of E needs T = 1246533 terms at "
                       "precision 1e-08, past the point count ceiling 1000000\n")


def test_cli_ap_subcommand(capsys):
    rc = main(["ap", "--curve", "37a", "--pmax", "20"])
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0].split() == ["2", "-2"]


@pytest.mark.parametrize("argv, named", [
    (["ap", "--curve", "11a", "--pmax", "10", "--curves", "missing.txt"], "missing.txt"),
    (["ap", "--curve", "99z", "--pmax", "10"], "'99z'"),
    (["scan-k", "--curve", "11a", "--curves", "missing.txt"], "missing.txt"),
    (["scan-k", "--curve", "99z"], "'99z'"),
    (["tower", "--q", "4", "--primes", "5"], "q = 4 must be an odd prime"),
    (["tower", "--q", "3", "--primes", "5,x"], "--primes entry 'x' is not an integer"),
    (["tower", "--q", "3", "--primes", "4,17"], "4 is not prime"),
    (["tower", "--q", "3", "--primes", "5,17", "--ap", "1"],
     "--ap [1] has length 1, not the 2 of --primes"),
    # a prime q of 19 digits, which trial division never finished testing
    (["tower", "--q", "1000000000000000003", "--primes", "5"],
     "q = 1000000000000000003 does not divide p + 1 = 6"),
    # past the bound below which Miller-Rabin to the bases 2-41 is a proof
    (["tower", "--q", str(MR_PROVEN_BELOW + 2), "--primes", "5"], "is not below"),
    (["tower", "--q", "3", "--primes", str(MR_PROVEN_BELOW + 2)], "is not below"),
], ids=["ap-unreadable-table", "ap-unknown-label", "scan-k-unreadable-table",
        "scan-k-unknown-label", "tower-q-not-odd-prime", "tower-entry-not-integer",
        "tower-entry-not-prime", "tower-ap-length", "tower-q-of-19-digits",
        "tower-q-past-the-proven-bound", "tower-entry-past-the-proven-bound"])
def test_cli_refuses_unusable_input_with_exit_2_by_name(argv, named, tmp_path, monkeypatch,
                                                        capsys):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.count("\n") == 1 and named in out.err


def test_cli_writes_nothing_outside_the_report_directory(curve_file, tmp_path, monkeypatch):
    cwd = tmp_path / "cwd"
    cwd.mkdir()
    monkeypatch.chdir(cwd)
    assert main(["--curves", curve_file, "--label", "11a", "--out", str(tmp_path / "out")]) == 0
    assert main(["ap", "--curve", "11a", "--pmax", "100"]) == 0
    assert list(cwd.iterdir()) == []
    assert sorted(p.name for p in tmp_path.iterdir()) == ["curves.txt", "cwd", "out"]
    assert [p.name for p in (tmp_path / "out").iterdir()] == ["11a.json"]


def test_cli_ap_rejects_pmax_above_the_point_count_ceiling(capsys):
    assert main(["ap", "--curve", "37a", "--pmax", "1000010"]) == 2
    out = capsys.readouterr()
    assert out.out == "" and "ceiling 1000000" in out.err


def test_star_import_resolves_every_public_name():
    import heegner_witness

    namespace: dict = {}
    exec("from heegner_witness import *", namespace)  # raises on a name __all__ lists but lacks
    assert set(heegner_witness.__all__) <= set(namespace)


def test_every_top_level_function_and_class_in_src_is_named_in_src():
    # oracle-only code lives in tests/: each function and class a module of
    # the package defines is named somewhere in src/ outside its own body
    src = pathlib.Path(pipeline.__file__).parent
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(src.glob("*.py"))}

    def names(node):
        for n in ast.walk(node):
            if isinstance(n, ast.Name):
                yield n.id
            elif isinstance(n, ast.Attribute):
                yield n.attr
            elif isinstance(n, ast.alias):
                yield n.name

    everywhere = Counter(n for tree in trees.values() for n in names(tree))
    defs = [(module, d) for module, tree in trees.items() for d in tree.body
            if isinstance(d, (ast.FunctionDef, ast.ClassDef))]
    assert len(defs) > 100
    unnamed = [f"{module}:{d.name}" for module, d in defs
               if everywhere[d.name] == Counter(names(d))[d.name]]
    assert unnamed == []
