"""In-memory spans around the package's public functions, installed from outside.

`install(tracer)` wraps every function in TRACED in its defining module and in
every package module that bound it by name (``from .heegner import
heegner_orbit``), so internal calls are recorded as well as calls from the
benchmark. Each span keeps its name, start, end, parent span and a few
attributes read from the call; `aggregate` turns a span list into the
per-layer metrics named in BENCHMARK.json.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import pkgutil
import sys
import time

PACKAGE = "heegner_witness"


# Attribute readers: (bound arguments, result, exception) -> dict.


def _count_points(a, result, exc):
    return {"p": a["curve_fp"].p}


def _an_series(a, result, exc):
    return {"terms": a["n_max"]}


def _l_eval(a, result, exc):
    return {"terms": result.terms_used} if exc is None else {}


def _unit_quotient(a, result, exc):
    return {"c": a["c"]}


def _heegner_orbit(a, result, exc):
    return {"classes": len(result.taus)} if exc is None else {}


def _prime_sequence(a, result, exc):
    if exc is None:
        return {"accepted": len(result), "p_reached": result[-1].p if result else 0}
    if not hasattr(exc, "partial"):
        return {}
    return {"accepted": len(exc.partial), "p_reached": exc.bound}


# (module, qualified name, attribute reader or None)
TRACED = [
    ("arith", "primes_upto", None),
    ("arith", "is_prime", None),
    ("arith", "factorize", None),
    ("arith", "prime_divisors", None),
    ("arith", "euler_phi", None),
    ("arith", "is_squarefree", None),
    ("arith", "valuation", None),
    ("arith", "crt_pair", None),
    ("ec_core", "count_points", _count_points),
    ("ec_core", "an_series", _an_series),
    ("lseries", "l_eval", _l_eval),
    ("lseries", "root_number", None),
    ("lseries", "l_over_K", None),
    ("lseries", "twist", None),
    ("lseries", "cached_an", None),
    ("quadforms", "unit_quotient_structure", _unit_quotient),
    ("quadforms", "ring_class_structure", None),
    ("quadforms", "class_number", None),
    ("searcher", "find_K", None),
    ("searcher", "prime_sequence", _prime_sequence),
    ("searcher", "verify_prime_item", None),
    ("heegner", "heegner_orbit", _heegner_orbit),
    ("heegner", "modular_param", None),
    ("heegner", "trace_relation_check", None),
    ("heegner", "gz_correspondence", None),
    ("heegner", "canonical_height", None),
    ("heegner", "period_lattice", None),
    ("heegner", "fricke_diagnostic", None),
    ("galois_tower", "tower_structure", None),
    ("galois_tower", "subgroup_of", None),
    ("galois_tower", "subgroup_index", None),
    ("galois_tower", "index_bound_bruteforce", None),
    ("galois_tower", "divisibility_contradiction", None),
    ("galois_tower", "matrix_order", None),
    ("galois_tower", "involution_check", None),
    ("pipeline", "parse_curve_file", None),
    ("pipeline", "run_witness", None),
    ("pipeline", "emit_report", None),
    ("pipeline", "ApDiskCache._load", None),
    ("pipeline", "ApDiskCache.get", None),
    ("cli", "main", None),
]

# span names for the two cache methods, as the metrics call them
_SPAN_NAMES = {
    "pipeline.ApDiskCache._load": "pipeline.ap_cache.load",
    "pipeline.ApDiskCache.get": "pipeline.ap_cache.get",
}


class Tracer:
    """Spans kept in memory as [name, start, end, parent index, attrs]."""

    def __init__(self):
        self.spans: list = []
        self._stack: list = []

    def wrap(self, name: str, fn, reader=None):
        """`fn` recording one span per call; `reader` adds attributes."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        sig = inspect.signature(fn) if reader else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(rec)
            result = exc = None
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as e:
                exc = e
                raise
            finally:
                rec[2] = clock()
                stack.pop()
                attrs = {}
                if reader is not None:
                    try:
                        bound = sig.bind(*args, **kwargs)
                        bound.apply_defaults()
                        attrs = reader(bound.arguments, result, exc)
                    except (KeyError, AttributeError, TypeError):
                        pass  # signature or result changed: the span stays, its attributes go
                if exc is not None:
                    attrs["raised"] = type(exc).__name__
                rec[4] = attrs or None

        return wrapper


def install(tracer: Tracer) -> list[tuple]:
    """Wrap every TRACED function wherever the package binds it; a name the
    package no longer has is skipped, and its metrics read 0. Returns
    (owner, attribute, original) per replaced binding, for `restore`."""
    package = importlib.import_module(PACKAGE)
    for info in pkgutil.iter_modules(package.__path__):
        importlib.import_module(f"{PACKAGE}.{info.name}")
    modules = [m for n, m in sorted(sys.modules.items())
               if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]
    replaced = []
    for mod_name, qualname, reader in TRACED:
        home = sys.modules.get(f"{PACKAGE}.{mod_name}")
        key = f"{mod_name}.{qualname}"
        name = _SPAN_NAMES.get(key, key)
        if "." in qualname:
            cls_name, meth = qualname.split(".")
            owner = getattr(home, cls_name, None)
            fn = vars(owner).get(meth) if owner is not None else None
            if fn is not None:
                setattr(owner, meth, tracer.wrap(name, fn, reader))
                replaced.append((owner, meth, fn))
            continue
        fn = getattr(home, qualname, None)
        if fn is None:
            continue
        wrapped = tracer.wrap(name, fn, reader)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    setattr(mod, attr, wrapped)
                    replaced.append((mod, attr, fn))
    return replaced


def restore(replaced: list[tuple]):
    for owner, attr, original in replaced:
        setattr(owner, attr, original)


# ---------------------------------------------------------------------------
# aggregation


def self_times(spans) -> list[float]:
    """Span duration minus the time covered by its direct children."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    return [end - start - child[i] for i, (_, start, end, _, _) in enumerate(spans)]


def aggregate(spans) -> dict[str, float]:
    """Per-layer metrics from one traced pass's spans."""
    own = self_times(spans)
    children: list[list[int]] = [[] for _ in spans]
    by_name: dict[str, list[int]] = {}
    self_s: dict[str, float] = {}
    total_s: dict[str, float] = {}
    for i, (name, start, end, parent, _) in enumerate(spans):
        if parent >= 0:
            children[parent].append(i)
        by_name.setdefault(name, []).append(i)
        self_s[name] = self_s.get(name, 0.0) + own[i]
        total_s[name] = total_s.get(name, 0.0) + (end - start)

    def of(name):
        return by_name.get(name, [])

    def attr(i, key):
        return (spans[i][4] or {}).get(key, 0)

    def attr_sum(name, key):
        return sum(attr(i, key) for i in of(name))

    def kids_named(i, name):
        return sum(1 for k in children[i] if spans[k][0] == name)

    def returned(name):
        return sum(1 for i in of(name) if not attr(i, "raised"))

    def ratio(num, den):
        return num / den if den else 0.0

    def layer(prefix, table):
        return sum(v for k, v in table.items() if k.startswith(prefix))

    calls = {name: len(ix) for name, ix in by_name.items()}
    m: dict[str, float] = {}
    c = lambda n: calls.get(n, 0)
    s = lambda n: self_s.get(n, 0.0)

    m["ec_core.count_points.calls"] = c("ec_core.count_points")
    m["ec_core.count_points.self_s"] = s("ec_core.count_points")
    m["ec_core.count_points.p_max"] = max(
        (attr(i, "p") for i in of("ec_core.count_points")), default=0)
    m["ec_core.an_series.calls"] = c("ec_core.an_series")
    m["ec_core.an_series.terms"] = attr_sum("ec_core.an_series", "terms")
    m["ec_core.an_series.self_s"] = s("ec_core.an_series")

    m["lseries.l_eval.calls"] = c("lseries.l_eval")
    m["lseries.l_eval.terms"] = attr_sum("lseries.l_eval", "terms")
    m["lseries.l_eval.self_s"] = s("lseries.l_eval")
    m["lseries.root_number.self_s"] = s("lseries.root_number")
    m["lseries.l_over_K.calls"] = c("lseries.l_over_K")
    m["lseries.twist.calls"] = c("lseries.twist")
    cached = of("lseries.cached_an")
    m["lseries.cached_an.hit_ratio"] = ratio(
        sum(1 for i in cached if kids_named(i, "ec_core.an_series") == 0), len(cached))

    uq = "quadforms.unit_quotient_structure"
    m[f"{uq}.calls"] = c(uq)
    m[f"{uq}.self_s"] = s(uq)
    m[f"{uq}.residues"] = sum(attr(i, "c") ** 2 for i in of(uq))
    m["quadforms.ring_class_structure.self_s"] = s("quadforms.ring_class_structure")
    m["quadforms.class_number.calls"] = c("quadforms.class_number")
    m["quadforms.class_number.self_s"] = s("quadforms.class_number")

    candidates = sum(kids_named(i, "lseries.l_over_K") for i in of("searcher.find_K"))
    m["searcher.find_K.self_s"] = s("searcher.find_K")
    m["searcher.find_K.candidates"] = candidates
    m["searcher.find_K.useful_ratio"] = ratio(returned("searcher.find_K"), candidates)
    ps = of("searcher.prime_sequence")
    m["searcher.prime_sequence.self_s"] = s("searcher.prime_sequence")
    m["searcher.prime_sequence.p_reached"] = max((attr(i, "p_reached") for i in ps), default=0)
    m["searcher.prime_sequence.accepted_ratio"] = ratio(
        attr_sum("searcher.prime_sequence", "accepted"),
        sum(kids_named(i, "pipeline.ap_cache.get") for i in ps))
    m["searcher.verify_prime_item.calls"] = c("searcher.verify_prime_item")

    ho = "heegner.heegner_orbit"
    m[f"{ho}.calls"] = c(ho)
    m[f"{ho}.self_s"] = s(ho)
    m[f"{ho}.classes"] = attr_sum(ho, "classes")
    m[f"{ho}.useful_ratio"] = ratio(returned(ho), c(ho))
    for fn in ("modular_param", "trace_relation_check", "gz_correspondence",
               "canonical_height", "period_lattice", "fricke_diagnostic"):
        m[f"heegner.{fn}.self_s"] = s(f"heegner.{fn}")
    m["heegner.modular_param.calls"] = c("heegner.modular_param")

    gets = of("pipeline.ap_cache.get")
    m["pipeline.ap_cache.load_s"] = total_s.get("pipeline.ap_cache.load", 0.0)
    m["pipeline.ap_cache.gets"] = len(gets)
    m["pipeline.ap_cache.hit_ratio"] = ratio(
        sum(1 for i in gets if not children[i]), len(gets))
    m["pipeline.emit_report.s"] = total_s.get("pipeline.emit_report", 0.0)
    m["pipeline.run_witness.self_s"] = s("pipeline.run_witness")

    m["arith.primes_upto.calls"] = c("arith.primes_upto")
    m["arith.factorize.calls"] = c("arith.factorize")
    m["arith.self_s"] = layer("arith.", self_s)
    m["galois_tower.calls"] = layer("galois_tower.", calls)
    m["galois_tower.self_s"] = layer("galois_tower.", self_s)
    m["cli.main.self_s"] = s("cli.main")
    return m
