"""Run one workload in a fresh interpreter; print one JSON object for run.py.

    python3 bench/worker.py --workload compress --seed 1 --seconds 30 \
        --trace 0 [--setup-only]

The object carries wall-clock timestamps of the end of ``import kzsketch``
and of the end of set-up (inputs, reference costs and one warm-up op), the
factor of the python speed probe timed between the two and the probe's wall
time, the warm-up op's fingerprint and, unless ``--setup-only``, the
measured run. Its times are at the reference speed; ``raw_metrics`` holds
them as measured.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / ".work"


def src_sha256() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "kzsketch").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def git_commit() -> str | None:
    """HEAD of the checkout, or None where the checkout is not a git
    repository. The ceiling keeps git from using a repository above it."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def blas_threads_in_use() -> int | None:
    """Ask the loaded OpenBLAS how many threads it runs, if it is OpenBLAS."""
    import ctypes
    try:
        maps = Path("/proc/self/maps").read_text().splitlines()
    except OSError:
        return None
    libs = {line.split()[-1] for line in maps if "openblas" in line.lower()
            and line.split()[-1].startswith("/")}
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def machine_record() -> dict:
    import importlib.metadata

    import numpy as np

    cpu = platform.processor() or platform.machine()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # numpy's config layout is not a stable API
        blas_name = None
    try:
        scipy_version = importlib.metadata.version("scipy")
    except importlib.metadata.PackageNotFoundError:
        scipy_version = None
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy_version,
        "blas": blas_name,
        "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
        "blas_threads_in_use": blas_threads_in_use(),
        "kzsketch_commit": git_commit(),
        "kzsketch_src_sha256": src_sha256(),
    }


def peak_rss_mb(include_children: bool) -> float:
    kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if include_children:
        kb = max(kb, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kb / 1024.0


def run_cycle(wl, rec, fingerprints: list) -> float:
    """One cycle; an exception counts as one failed op. Returns wall seconds."""
    t = perf_counter()
    try:
        fingerprints.append(wl.cycle(rec))
    except Exception:  # keep measuring; the failure is counted, not hidden
        rec.op(False, f"{wl.name} cycle raised:\n{traceback.format_exc()}")
    return perf_counter() - t


def same_everywhere(fingerprints: list, what: str) -> bool:
    for i, fp in enumerate(fingerprints[1:], 1):
        if fp != fingerprints[0]:
            print(f"bench: {what} of cycle {i} differs from cycle 0", file=sys.stderr)
            return False
    return True


def timing_metrics(wl, rec, ops: int, at: int) -> dict:
    """The timing metrics as measured (``at`` 0) or at the reference speed (1)."""
    import numpy as np

    latency = [pair[at] for pair in rec.latency]
    out = {
        "ops_per_s": (ops / rec.busy[at], "ops/s"),
        "latency_p50_ms": (1000 * statistics.median(latency), "ms"),
        "latency_tail_ms": (1000 * float(np.percentile(latency, wl.tail_percentile)), "ms"),
        "first_answer_ms": (1000 * statistics.median(p[at] for p in rec.first_answer), "ms"),
    }
    if rec.cold_start:
        out["cold_start_ms"] = (1000 * statistics.median(p[at] for p in rec.cold_start), "ms")
    return out


def measure(wl, rec, seconds: float) -> dict:
    import speed

    fingerprints: list = []
    start = perf_counter()
    cycles = 0
    while cycles < wl.min_cycles or perf_counter() - start < seconds:
        run_cycle(wl, rec, fingerprints)
        cycles += 1
    ops = cycles * wl.ops_per_cycle
    raw, metrics = timing_metrics(wl, rec, ops, 0), timing_metrics(wl, rec, ops, 1)
    for m in (raw, metrics):
        m["peak_rss_mb"] = (peak_rss_mb(wl.name == "cli"), "MB")
        m["sketch_bits"] = (statistics.fmean(rec.sketch_bits), "bits/op")
    return {
        "metrics": metrics,
        "raw_metrics": raw,
        "scale": speed.scales(rec.probes),
        "cycles": cycles,
        "ops": ops,
        "samples": {"latency": len(rec.latency), "first_answer": len(rec.first_answer),
                    "cold_start": len(rec.cold_start)},
        "tail_percentile": wl.tail_percentile,
        "max_rel_error": rec.max_rel_error,
        "per_command_ms": {label: 1000 * statistics.median(v)
                           for label, v in getattr(wl, "walls", {}).items()},
        "fingerprint": fingerprints[0] if fingerprints else None,
        "deterministic": bool(fingerprints) and same_everywhere(fingerprints, "fingerprint"),
    }


def measure_traced(wl, rec, seconds: float, tracer, install) -> dict:
    """Alternate untraced and traced cycles after one untimed cycle that
    lets in-process caches and lazy imports settle. Per-layer times are per
    op, over the traced cycles; counters are per cycle and must repeat
    exactly."""
    import speed
    from tracer import COUNTERS, SPAN_METRICS

    rec.tracer = tracer
    fingerprints: list = []
    walls: dict[bool, list[float]] = {False: [], True: []}
    counters: list[dict] = []
    totals = dict.fromkeys(SPAN_METRICS, 0.0)
    start = perf_counter()
    run_cycle(wl, rec, fingerprints)
    while min(len(w) for w in walls.values()) < 2 or perf_counter() - start < seconds:
        traced = len(walls[True]) < len(walls[False])
        if traced:
            install(tracer)
            tracer.counters = {}
            first = len(tracer.spans)
            tracer.enabled = True
        walls[traced].append(run_cycle(wl, rec, fingerprints))
        if traced:
            tracer.enabled = False
            tracer.uninstall()
            for metric, secs in tracer.span_times(first).items():
                totals[metric] += secs
            counters.append({c: tracer.counters.get(c, 0) for c in COUNTERS})
    traced_ops = len(walls[True]) * wl.ops_per_cycle
    raw = {m: (1000 * s / traced_ops, "ms/op") for m, s in totals.items()}
    for c in COUNTERS:
        raw[c] = (counters[0][c], "bits/cycle" if c.endswith("_bits") else "count/cycle")
    t_on, t_off = statistics.median(walls[True]), statistics.median(walls[False])
    raw["trace.overhead_ms"] = (1000 * (t_on - t_off) / wl.ops_per_cycle, "ms/op")
    raw["trace.overhead_pct"] = (100 * (t_on / t_off - 1), "%")
    scale = speed.scales(rec.probes)
    # per-layer times are interpreted Python, except the numpy distance kernel
    factor = {name: scale["python"] for name, (_, unit) in raw.items() if unit == "ms/op"}
    factor["geometry.kernel_ms"] = scale.get("numpy", scale["python"])
    factor["trace.overhead_ms"] = rec.busy[1] / rec.busy[0]
    WORK.mkdir(parents=True, exist_ok=True)
    tracer.dump(WORK / f"spans-{wl.name}-seed{wl.seed}.jsonl")
    return {
        "metrics": {name: (value * factor.get(name, 1.0), unit)
                    for name, (value, unit) in raw.items()},
        "raw_metrics": raw,
        "scale": scale,
        "cycles": {"untraced": len(walls[False]), "traced": len(walls[True])},
        "fingerprint": fingerprints[0] if fingerprints else None,
        "deterministic": bool(fingerprints)
        and same_everywhere(fingerprints, "fingerprint")
        and same_everywhere(counters, "traced counters"),
        "missing_spans": tracer.missing,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(SRC))
    import kzsketch
    imported_at = time.time()
    if Path(kzsketch.__file__).resolve().parent != SRC / "kzsketch":
        print(f"bench: imported {kzsketch.__file__}, not the checkout's source",
              file=sys.stderr)
        return 2

    import speed
    from workloads import WORKLOADS, Recorder

    # the python probe that scales the part of set-up after the import; its
    # own time is left out of set-up
    probe_start = time.time()
    setup_factor = speed.factor("python", speed.probe("python"))
    probe_wall = time.time() - probe_start
    wl = WORKLOADS[args.workload](args.seed, WORK, in_process=bool(args.trace))
    try:
        warmup = wl.setup()
        ready_at = time.time()
        out = {"imported_at": imported_at, "ready_at": ready_at, "probe_wall": probe_wall,
               "setup_factor": setup_factor, "warmup": warmup}
        if not args.setup_only:
            rec = Recorder()
            if args.trace:
                from tracer import Tracer, install
                out.update(measure_traced(wl, rec, args.seconds, Tracer(), install))
            else:
                out.update(measure(wl, rec, args.seconds))
            out.update(attempted=rec.attempted, failed=rec.failed, probes=rec.probes,
                       problems=rec.problems[:20], machine=machine_record())
    finally:
        wl.close()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
