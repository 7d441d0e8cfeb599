"""Run one pass of a workload in a fresh worker process and collect its outputs.

Only one worker runs at a time. Each pass gets its own directory under the
work area, with its own HW_CACHE_DIR, so no pass sees the repository's
.hw_cache or another pass's files unless it is handed a copy.
"""

from __future__ import annotations

import contextlib
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import checks
import corpus

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKER = HERE / "worker.py"
PASS_TIMEOUT_S = 170


@contextlib.contextmanager
def work_area(prefix: str):
    """A fresh directory under perfbench/.work, removed afterwards."""
    base = HERE / ".work"
    base.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(prefix=prefix, dir=base))
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        with contextlib.suppress(OSError):
            base.rmdir()


class PassError(RuntimeError):
    """The worker process itself failed; no outcome can be trusted."""


def worker_env(cache_dir: Path) -> dict:
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)  # set-up as users see it: bytecode cached
    env["PYTHONPATH"] = str(SRC)
    env["HW_CACHE_DIR"] = str(cache_dir)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_pass(work: Path, mode: str, curves: list[dict], *, trace: bool = False,
             cache_from: Path | None = None, timeout: float = PASS_TIMEOUT_S) -> dict:
    """One worker pass; returns the worker's result with `outcomes` by label,
    plus `dir` (the pass directory), `cache` (its HW_CACHE_DIR) and, when
    traced, `spans`.

    `cache_from` is an a_p cache directory copied in before the worker starts.
    """
    pdir = Path(tempfile.mkdtemp(prefix=f"{mode}-", dir=work))
    cache = pdir / "cache"
    if cache_from is not None:
        shutil.copytree(cache_from, cache)
    else:
        cache.mkdir()
    table = pdir / "curves.txt"
    corpus.write_table(curves, table)
    spec = {
        "mode": mode,
        "curves": curves,
        "table": str(table),
        "out_dir": str(pdir / "reports"),
        "trace": trace,
        "spans_path": str(pdir / "spans.json"),
        "result_path": str(pdir / "result.json"),
    }
    spec_path = pdir / "spec.json"
    spec_path.write_text(json.dumps(spec))
    t_spawn = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(WORKER), str(spec_path), repr(t_spawn)],
        cwd=pdir, env=worker_env(cache), stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE, text=True, timeout=timeout,
    )
    if proc.returncode != 0:
        raise PassError(f"{mode} worker exited {proc.returncode}: {proc.stderr[-2000:]}")
    result = json.loads(Path(spec["result_path"]).read_text())
    if Path(result["package_file"]).resolve().parent != (SRC / "heegner_witness").resolve():
        raise PassError(f"worker imported {result['package_file']}, not {SRC}")
    if mode == "witness":
        reports = Path(spec["out_dir"])
        for c in curves:
            path = reports / f"{c['label']}.json"
            if path.exists():
                result["outcomes"][c["label"]] = checks.from_report(json.loads(path.read_text()))
    if trace:
        result["spans"] = json.loads(Path(spec["spans_path"]).read_text())
    result["dir"] = pdir
    result["cache"] = cache
    return result
