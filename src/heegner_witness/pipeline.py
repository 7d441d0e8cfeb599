"""Orchestration: curve files, witness runs, JSON reports.

A witness run executes the full constructive chain for one curve:

    rank gate -> field K with L'(E/K,1) != 0 -> prime q -> prime sequence
    -> ring class structure -> Heegner checks (trace to K, Gross-Zagier
    correspondence, Fricke, trace relation at an auxiliary inert prime)
    -> tower structure + divisibility contradiction

and emits a deterministic JSON report; any gate failure or exhausted search
short-circuits into a failed partial report rather than an exception. A
rational point of order q (`heegner.rational_torsion_point`) rules out every
sequence prime, so it fails the run before the prime scan.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import time

try:  # CPython's own SHA-256, so no process loads OpenSSL for one digest per report
    from _sha2 import sha256  # 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # 3.10-3.11
    except ImportError:
        from hashlib import sha256

from . import __version__
from .arith import is_prime
from .ec_core import (POINT_COUNT_CEILING, ConductorExponentError, CurveQ,
                      check_conductor_exponents, cm_field)
from .galois_tower import FormalMWModel, divisibility_contradiction, tower_structure
from .heegner import (
    DEFAULT_TORSION_BOUND,
    HeegnerOrbit,
    PrecisionUnreachable,
    fricke_diagnostic,
    gz_correspondence,
    heegner_orbit,
    orbit_z,
    period_lattice,
    rational_torsion_point,
    trace_relation_check,
)
from .lseries import LSeriesInconclusiveError, gate_from_leval, held_an, l_eval
from .quadforms import kronecker, ring_class_levels
from .searcher import (
    FieldSearchExhausted,
    PrimeSearchExhausted,
    choose_q,
    cm_q_bound,
    find_K,
    prime_sequence,
    verify_prime_item,
)

# accepted Python types per Config annotation; bool is never an int here
_CONFIG_TYPES = {
    "float": (int, float),
    "int": (int,),
}


class Config:
    """Run settings, checked at construction: each field's type against the
    constructor's annotation, then its range. `_replace` and `from_file`
    construct, so they check too."""

    __slots__ = ("lseries_precision", "heegner_residual", "nonvanishing_threshold",
                 "dk_scan_bound", "prime_bound", "depth", "tower_r", "tower_m")

    def __init__(
        self,
        lseries_precision: float = 1e-8,
        heegner_residual: float = 1e-6,
        nonvanishing_threshold: float = 1e-3,
        dk_scan_bound: int = 499,
        prime_bound: int = 10**5,
        depth: int = 1,  # least sequence primes searched for; tower_m + tower_r + 1 at least
        tower_r: int = 1,  # generator bound of the hypothetical acting subgroup
        tower_m: int = 0,  # level where the traced points are assumed defined
    ):
        given = locals()
        for name in self.__slots__:
            value, kind = given[name], Config.__init__.__annotations__[name]
            if isinstance(value, bool) or not isinstance(value, _CONFIG_TYPES[kind]):
                raise ValueError(f"{name} must be {kind}, got {value!r}")
            setattr(self, name, value)
        for name in ("lseries_precision", "heegner_residual", "nonvanishing_threshold"):
            value = getattr(self, name)
            if isinstance(value, float) and not math.isfinite(value):  # json reads NaN, Infinity
                raise ValueError(f"{name} must be finite, got {value!r}")
            if value <= 0:
                raise ValueError(f"{name} must be positive")
        if self.depth < 1:
            raise ValueError("depth must be >= 1")
        if self.prime_bound > POINT_COUNT_CEILING:
            raise ValueError(f"prime_bound {self.prime_bound} exceeds the point count ceiling "
                             f"{POINT_COUNT_CEILING}")
        for name in ("tower_m", "tower_r"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")

    def _asdict(self) -> dict:
        """The fields by name, in order, like a NamedTuple's `_asdict`."""
        return {name: getattr(self, name) for name in self.__slots__}

    def _replace(self, **changes) -> "Config":
        """A new Config with `changes` applied, checked like any other."""
        return Config(**{**self._asdict(), **changes})

    @classmethod
    def from_file(cls, path: str) -> "Config":
        """Config from a JSON object; unknown keys are rejected, not ignored."""
        with open(path) as fh:
            data = json.load(fh)
        if not isinstance(data, dict):
            raise ValueError(f"{path}: config must be a JSON object")
        unknown = sorted(set(data) - set(cls.__slots__))
        if unknown:
            raise ValueError(f"{path}: unknown config keys {unknown}")
        return cls(**data)


class CurveFileError(ValueError):
    pass


def parse_curve_file(path: str) -> list[CurveQ]:
    """One curve per line: 'label a1 a2 a3 a4 a6 N'; '#' starts a comment. A
    label names its report file, so it holds no '/', '\\' or NUL and is not '.' or '..'."""
    curves: list[CurveQ] = []
    seen = set()
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) != 7:
                raise CurveFileError(
                    f"{path}:{lineno}: expected 'label a1 a2 a3 a4 a6 N', got {len(parts)} fields"
                )
            label = parts[0]
            if label in (".", "..") or any(ch in label for ch in "/\\\0"):
                raise CurveFileError(f"{path}:{lineno}: label {label!r} is not a file name")
            if label in seen:
                raise CurveFileError(f"{path}:{lineno}: duplicate label {label!r}")
            seen.add(label)
            try:
                nums = [int(t) for t in parts[1:]]
            except ValueError as e:
                raise CurveFileError(f"{path}:{lineno}: {e}") from None
            try:
                curves.append(CurveQ(*nums[:5], nums[5], label))
            except ValueError as e:
                raise CurveFileError(f"{path}:{lineno}: {e}") from None
    return curves


class WitnessReport:
    """One witness run, which `run_witness` fills in stage by stage and
    `canonical_json` writes slot by slot. A container left out is a fresh
    one per report."""

    __slots__ = ("label", "curve", "passed", "failed_at", "checks", "config", "gate", "d_K", "q",
                 "prime_seq", "ring_class", "l_values", "heegner", "tower", "versions", "timing")

    def __init__(self, label: str, curve: dict, passed: bool, failed_at: str | None, checks: list,
                 config: dict | None = None, gate: str | None = None, d_K: int | None = None,
                 q: int | None = None, prime_seq: list | None = None,
                 ring_class: list | None = None, l_values: dict | None = None,
                 heegner: dict | None = None, tower: dict | None = None,
                 versions: dict | None = None, timing: dict | None = None):
        self.label, self.curve, self.passed, self.failed_at = label, curve, passed, failed_at
        self.checks, self.gate, self.d_K, self.q = checks, gate, d_K, q
        self.l_values, self.heegner, self.tower = l_values, heegner, tower
        self.config = {} if config is None else config
        self.prime_seq = [] if prime_seq is None else prime_seq
        self.ring_class = [] if ring_class is None else ring_class
        self.versions = {} if versions is None else versions
        self.timing = {} if timing is None else timing


def _check(checks, name, ok, **data):
    entry = {"name": name, "pass": bool(ok)}
    entry.update(data)
    checks.append(entry)
    return ok


@contextlib.contextmanager
def _stage(timing: dict, name: str):
    """Record the block's wall time as timing[f"{name}_s"], on every exit path."""
    t = time.perf_counter()
    try:
        yield
    finally:
        timing[f"{name}_s"] = round(time.perf_counter() - t, 5)


def _pick_aux_ell(curve: CurveQ, d_K: int) -> tuple[int, HeegnerOrbit] | None:
    """The smallest prime ell < 100 coprime to N d_K and inert in K, with its
    level-ell orbit, for the trace relation; None when there is none."""
    for ell in range(2, 100):
        if is_prime(ell) and math.gcd(ell, curve.N * d_K) == 1 and kronecker(d_K, ell) == -1:
            return ell, heegner_orbit(curve, d_K, ell)
    return None


def run_witness(curve: CurveQ, config: Config | None = None) -> WitnessReport:
    config = config or Config()
    t0 = time.perf_counter()
    timing: dict = {}
    checks: list = []
    report = WitnessReport(
        label=curve.label or str(curve.ainvs),
        curve={"ainvs": list(curve.ainvs), "N": curve.N},
        passed=False,
        failed_at=None,
        checks=checks,
        config=config._asdict(),
        versions={"package": __version__},
        timing=timing,
    )

    def finish(failed_at=None):
        report.failed_at = failed_at
        report.passed = failed_at is None and all(c["pass"] for c in checks)
        timing["total_s"] = round(time.perf_counter() - t0, 5)
        return report

    # 1. analytic rank gate, after a check of N's exponents: the gate fits
    # the functional equation of the N given, and 11a's model given N = 11^3
    # fits it with twice 11a's L(E,1)
    with _stage(timing, "gate"):
        try:
            check_conductor_exponents(curve)
            le = l_eval(curve, config.lseries_precision)
            gate = gate_from_leval(le, config.nonvanishing_threshold)
            report.l_values = {
                "epsilon": le.epsilon,
                "L_1": le.value_at_1,
                "L_prime_1": le.derivative_at_1,
                "split_defect": le.split_defect,
                "tail_bound": le.tail_bound,
                "terms": le.terms_used,
            }
        except (ConductorExponentError, LSeriesInconclusiveError) as e:
            gate = "not_eligible"
            report.l_values = {"error": str(e)}
    report.gate = gate
    if not _check(checks, "analytic_rank_gate", gate in ("rank0", "rank1"), result=gate):
        return finish("analytic_rank_gate")

    # 2. field search
    with _stage(timing, "find_K"):
        try:
            fs = find_K(curve, config.dk_scan_bound, config.nonvanishing_threshold,
                        config.lseries_precision, le)
        except (FieldSearchExhausted, LSeriesInconclusiveError) as e:
            _check(checks, "find_K", False, error=str(e))
            return finish("find_K")
    d_K = fs.d_K
    report.d_K = d_K
    _check(checks, "find_K", True, d_K=d_K)  # it fails only by raising
    report.l_values["L_over_K"] = fs.l_value_data.value

    # 3. prime q and the prime sequence
    q = choose_q(curve, d_K)
    report.q = q
    v_cj = 0  # pipeline model uses c_j = 1
    needed = max(config.depth, config.tower_m + config.tower_r + v_cj + 1)
    with _stage(timing, "prime_sequence"):
        point = rational_torsion_point(curve, q)
        if point is not None:  # q | #E(F_p) = p + 1 - a_p, so q | a_p when p = -1 mod q
            _check(checks, "prime_sequence", False, partial=[],
                   error=f"E(Q) has the point ({point[0]}, {point[1]}) of order {q}, "
                         f"so q divides a_p at every good p = -1 mod q")
            return finish("prime_sequence")
        try:
            items = prime_sequence(curve, d_K, q, needed, config.prime_bound, held_an(curve))
        except PrimeSearchExhausted as e:
            error = str(e)
            if cm_field(curve) is not None:
                error += (f"; q = {q} was set by the CM lower bound 1 + 2|d_K|^4/phi(|d_K|)"
                          f" = {cm_q_bound(d_K):.1f}")
            _check(checks, "prime_sequence", False, error=error, partial=[it.p for it in e.partial])
            return finish("prime_sequence")
    report.prime_seq = [{"p": it.p, "a_p": it.a_p} for it in items]
    reverified = all(verify_prime_item(curve, d_K, q, it) for it in items)
    if not _check(checks, "prime_sequence", reverified, primes=[it.p for it in items]):
        return finish("prime_sequence")

    # 4. ring class structure per cumulative level, each prime certified once
    with _stage(timing, "ring_class"):
        try:
            levels = ring_class_levels(d_K, [it.p for it in items])[1:]
        except ArithmeticError as e:  # a certified n_p is not p + 1
            _check(checks, "ring_class_structure", False, error=str(e))
            return finish("ring_class_structure")
        for s in levels:
            report.ring_class.append(
                {
                    "conductor": s.conductor,
                    "primes": list(s.primes),
                    "factors": list(s.factors),
                    "invariants": list(s.invariants),
                    "degree": s.degree,
                }
            )
    _check(checks, "ring_class_structure", True, levels=len(levels))  # it fails only by raising

    # 5. Heegner numerics: each form summed once, at one precision. The trace
    # of h forms carries a bound b: tails of at most h * precision, plus a
    # rounding part (below 5e-9 a form on every measured run), and
    # gz_correspondence can decide its torsion only while m_K b < lambda_min / 2.
    # The last cap keeps the tails' share of m_K b at m_K lambda_min / (4 B^2),
    # below that whenever m_K < 2 B^2.
    # It reads B^2, not m_K: at lseries_precision 3e-3, heegner_residual 10,
    # lambda_min / (4 m_K h) sums g777.1's trace (m_K = 4, h = 5) to
    # m_K b = 0.059, past its distance 0.036, and reads it as torsion.
    with _stage(timing, "heegner"):
        try:
            orbit = heegner_orbit(curve, d_K, 1)
            lattice = period_lattice(curve)
            precision = min(config.lseries_precision, config.heegner_residual * 1e-3,
                            lattice.lambda_min / (4 * DEFAULT_TORSION_BOUND**2
                                                  * orbit.class_count))
            zs = orbit_z(orbit, precision)
            gz = gz_correspondence(orbit, zs, fs.l_value_data, lattice)
        except PrecisionUnreachable as e:
            _check(checks, "gz_correspondence", False, error=str(e))
            return finish("gz_correspondence")
        heeg: dict = {
            "z_K": [gz.z_K.real, gz.z_K.imag],
            "recognized_x": None if gz.recognized is None else str(gz.recognized[0]),
            "recognized_y": None if gz.recognized is None else str(gz.recognized[1]),
            "height_side": gz.height_side,
            "height_is_proxy": gz.height_is_proxy,
            "l_prime_K": gz.l_prime_K,
            "pk_nontorsion": gz.pk_nontorsion,
            "ratio": gz.ratio,
        }
        report.heegner = heeg
        if not _check(checks, "gz_correspondence", gz.biconditional_holds,
                      nontorsion=gz.pk_nontorsion):
            return finish("gz_correspondence")
        heeg["fricke"] = fricke = fricke_diagnostic(orbit, zs, lattice, le)
        if not _check(checks, "fricke", fricke["residual"] <= fricke["bound"], **fricke):
            return finish("fricke")
        picked = _pick_aux_ell(curve, d_K)
        if picked is None:
            heeg["trace_relation"] = {"error": "no feasible auxiliary inert prime"}
            _check(checks, "trace_relation", False)
            return finish("trace_relation")
        aux, aux_orbit = picked
        try:
            trace = trace_relation_check(orbit, aux_orbit, zs, orbit_z(aux_orbit, precision),
                                         lattice)
            heeg["trace_relation"] = {
                "ell": aux,
                **trace,
                "orbit_size": aux_orbit.class_count,
            }
            ok = trace["residual"] <= trace["bound"]
        except PrecisionUnreachable as e:
            heeg["trace_relation"] = {"ell": aux, "error": str(e)}
            ok = False
    if not _check(checks, "trace_relation", ok, **heeg["trace_relation"]):
        return finish("trace_relation")

    # 6. exact tower and the divisibility contradiction
    with _stage(timing, "tower"):
        tower_primes = [it.p for it in items]
        tl = tower_structure(q, tower_primes)
        model = FormalMWModel(
            q=q,
            k=1,
            c=(1,),
            ap_values=tuple(it.a_p for it in items),
            m=config.tower_m,
            r=config.tower_r,
        )
        ctr = divisibility_contradiction(model)
        report.tower = {
            "q": q,
            "primes": tower_primes,
            "full_degree": tl.full_degree,
            "quotient_degree": tl.quotient_degree,
            "model": {"k": 1, "c": [1], "m": config.tower_m, "r": config.tower_r},
            "index_bound_assumed_from": config.tower_m + config.tower_r + 1,
            "contradiction": {
                "derivable": ctr.derivable,
                "witness_n": ctr.witness_n,
                "ledger": ctr.ledger,
                "reason": ctr.reason,
            },
        }
    if not _check(checks, "divisibility_contradiction", ctr.derivable,
                  witness_n=ctr.witness_n):
        return finish("divisibility_contradiction")

    return finish(None)


# ---------------------------------------------------------------------------
# canonical JSON


def _canonical(obj):
    if isinstance(obj, float):
        if math.isnan(obj) or math.isinf(obj):
            raise ValueError("non-finite float in report")
        return float(f"{obj:.12g}")
    if isinstance(obj, dict):
        return {str(k): _canonical(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_canonical(v) for v in obj]
    return obj


def canonical_json(report: WitnessReport) -> str:
    # every slot holds only dicts, lists and scalars, never a record (a
    # NamedTuple would be written as a list), and _canonical copies each one
    data = _canonical({name: getattr(report, name) for name in report.__slots__})
    hashed = {k: v for k, v in data.items() if k != "timing"}
    digest = sha256(
        json.dumps(hashed, sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()
    data["canonical_hash"] = digest
    return json.dumps(data, sort_keys=True, indent=2)


def emit_report(report: WitnessReport, path: str):
    """Write the canonical JSON atomically, with the mode open(path, "w") would
    give; a report that cannot be serialized or written leaves nothing behind."""
    text = canonical_json(report) + "\n"
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = _create_temp(directory)
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _create_temp(directory: str) -> tuple[int, str]:
    """A new file .report.<random>.tmp in `directory`, open for writing. It is
    created with mode 0o666 and the kernel applies the umask, as open(path,
    "w") does, and the process umask is never changed. A name that exists is
    passed over for a fresh one, as mkstemp does."""
    for _ in range(os.TMP_MAX):
        tmp = os.path.join(directory, f".report.{os.urandom(6).hex()}.tmp")
        try:
            return os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666), tmp
        except FileExistsError:
            continue
    raise FileExistsError(f"no unused temporary report name in {directory}")
