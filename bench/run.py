"""kzsketch benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload {compress,query,cli} --seed N \
        --seconds S --trace {0,1}

Run it from the root of a checkout. With ``--trace 0`` it prints every
end-to-end metric; with ``--trace 1`` every per-layer metric, from a separate
run that wraps the library's layer boundaries. The last line of standard
output is one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.

Set-up is timed in fresh interpreters: two set-up-only children, one run
before the measuring worker and one after it, and the worker itself each
report when ``import kzsketch`` finished and when set-up ended, and
``setup_s`` is the median of the three. For ``compress`` and ``query``,
``cold_start_ms`` is the median wall time of eight fresh interpreters that
only import kzsketch, four before the worker and four after it. Every time is given at a reference
machine speed, from a speed probe timed next to the work (see NOTES.md). Only
one child runs at a time, with one BLAS thread, so the load comes from one
client. A full record of the run (machine, samples, raw times, fingerprints)
goes to ``bench/.work/runs/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / ".work"
WORKLOADS = ("compress", "query", "cli")
SETUP_SAMPLES = 3          # fresh interpreters whose set-up time is timed
COLD_START_SAMPLES = 8     # fresh interpreters that only import kzsketch (compress, query)
IMPORTTIME_SAMPLES = 3
DEADLINE_MARGIN_S = 160.0  # on top of --seconds: set-up children and minimum cycles


class BenchError(Exception):
    pass


def bench_env() -> dict:
    env = dict(os.environ)
    # one BLAS thread: a thread pool on a few shared cores times the scheduler
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def run_child(argv: list[str], env: dict, deadline: float,
              capture_stderr: bool = False) -> tuple[float, str, str]:
    """Run one child to completion; returns (spawn wall time, stdout, stderr).

    The child gets its own session so that on timeout its whole process
    group, grandchildren included, is killed and reaped.
    """
    spawned = time.time()
    proc = subprocess.Popen(argv, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE if capture_stderr else None,
                            text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"{argv[1:3]} did not finish before the deadline")
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(argv[1:])} exited with {proc.returncode}")
    return spawned, out, err or ""


def worker(args, env, deadline, *extra) -> tuple[float, dict]:
    argv = [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace), *extra]
    spawned, out, _ = run_child(argv, env, deadline)
    lines = out.strip().splitlines()
    if not lines:
        raise BenchError("worker printed nothing")
    return spawned, json.loads(lines[-1])


def cold_starts(env, deadline, n: int) -> list[float]:
    """Wall seconds of ``n`` fresh interpreters that import kzsketch and exit."""
    out = []
    for _ in range(n):
        t = time.monotonic()
        run_child([sys.executable, "-c", "import kzsketch"], env, deadline)
        out.append(time.monotonic() - t)
    return out


def import_times(env, deadline) -> dict:
    """cli.import_ms and cli.scipy_import_ms from ``-X importtime`` children:
    the cumulative import time of kzsketch.cli and of scipy within it."""
    total, scipy = [], []
    for _ in range(IMPORTTIME_SAMPLES):
        _, _, err = run_child([sys.executable, "-X", "importtime", "-c",
                               "import kzsketch.cli"], env, deadline, capture_stderr=True)
        rows = []
        for line in err.splitlines():
            if not line.startswith("import time:") or "cumulative" in line:
                continue
            _, cumulative, name = line[len("import time:"):].split("|")
            rows.append((len(name) - len(name.lstrip()), int(cumulative), name.strip()))
        ours = [r for r in rows if r[2].split(".")[0] == "kzsketch"]
        if not ours:
            raise BenchError("kzsketch missing from -X importtime output")
        top = min(r[0] for r in rows)
        total.append(sum(r[1] for r in rows[rows.index(ours[0]):] if r[0] == top) / 1000)
        sc = [r for r in rows if r[2].split(".")[0] == "scipy"]
        level = min((r[0] for r in sc), default=0)
        scipy.append(sum(r[1] for r in sc if r[0] == level) / 1000)
    return {"cli.import_ms": statistics.median(total),
            "cli.scipy_import_ms": statistics.median(scipy)}


def same_as_stored(name: str, value) -> bool:
    """Compare ``value`` with the one an earlier run stored under ``name``,
    or store it if there is none."""
    path = WORK / "fingerprints" / f"{name}.json"
    if path.is_file():
        if json.loads(path.read_text()) != value:
            print(f"bench: fingerprint differs from the earlier run stored in {path}",
                  file=sys.stderr)
            return False
        return True
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(value, sort_keys=True))
    os.replace(tmp, path)
    return True


def check_fingerprint(args, record: dict) -> bool:
    """The same library, benchmark, seed and thread count must give the same
    fingerprint in every run, traced or not, and traced runs the same
    per-layer counters."""
    bench_sha = hashlib.sha256(b"".join(p.read_bytes()
                                        for p in sorted(BENCH.glob("*.py")))).hexdigest()
    key = (f"{args.workload}-seed{args.seed}-{record['machine']['kzsketch_src_sha256'][:12]}"
           f"-{bench_sha[:12]}-blas{record['machine']['blas_threads_env']}")
    ok = same_as_stored(key, {"warmup": record["warmup"], "cycle": record["fingerprint"]})
    if args.trace:
        counters = {name: value for name, (value, unit) in record["metrics"].items()
                    if unit.endswith("/cycle")}
        ok = same_as_stored(key + "-counters", counters) and ok
    return ok


def run(args) -> dict:
    env = bench_env()
    deadline = time.monotonic() + args.seconds + DEADLINE_MARGIN_S
    if args.trace:
        _, record = worker(args, env, deadline)
        for name, ms in import_times(env, deadline).items():
            record["metrics"][name] = record["raw_metrics"][name] = (ms, "ms")
        record["setup"] = None
    else:
        # set-up and cold-start children on both sides of the worker, so that
        # they sample the whole run rather than one moment of it
        n_starts = 0 if args.workload == "cli" else COLD_START_SAMPLES // 2
        children = [worker(args, env, deadline, "--setup-only")
                    for _ in range(SETUP_SAMPLES // 2)]
        starts = cold_starts(env, deadline, n_starts)
        spawned, record = worker(args, env, deadline)
        children += [worker(args, env, deadline, "--setup-only")
                     for _ in range(SETUP_SAMPLES - 1 - SETUP_SAMPLES // 2)]
        starts += cold_starts(env, deadline, n_starts)
        samples = children + [(spawned, record)]
        imported = [r["imported_at"] - t for t, r in samples]
        setup = [r["ready_at"] - t - r["probe_wall"] for t, r in samples]
        # interpreter start and import stay as measured (see NOTES.md)
        setup_ref = [i + (t - i) * r["setup_factor"]
                     for t, i, (_, r) in zip(setup, imported, samples)]
        record["setup"] = {"setup_s": setup, "import_s": imported, "setup_ref_s": setup_ref,
                           "cold_start_s": starts}
        record["metrics"]["setup_s"] = (statistics.median(setup_ref), "s")
        record["raw_metrics"]["setup_s"] = (statistics.median(setup), "s")
        if starts:
            # compress and query run their ops in one interpreter, so their
            # cold start is measured in children of its own
            record["metrics"]["cold_start_ms"] = record["raw_metrics"]["cold_start_ms"] = (
                1000 * statistics.median(starts), "ms")
        for i, (_, r) in enumerate(children):
            if r["warmup"] != record["warmup"]:
                print(f"bench: warm-up fingerprint of set-up child {i} differs",
                      file=sys.stderr)
                record["deterministic"] = False
    record["deterministic"] = record["deterministic"] and check_fingerprint(args, record)
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "kzsketch" / "__init__.py").is_file():
        print(f"bench: no kzsketch source under {SRC}", file=sys.stderr)
        return 2
    try:
        record = run(args)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1

    # cold_start_ms is printed but not in the result line: interpreter start
    # and import swing with the host's state and no probe tracks them, so it
    # cannot hold a bound (see NOTES.md)
    cold_start = record["metrics"].pop("cold_start_ms", None)
    metrics = {name: {"value": value, "unit": unit}
               for name, (value, unit) in sorted(record["metrics"].items())}
    result = {"correct": record["failed"] == 0 and record["deterministic"],
              "attempted": record["attempted"], "failed": record["failed"],
              "metrics": metrics}
    record.update(workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, result=result)
    runs = WORK / "runs"
    runs.mkdir(parents=True, exist_ok=True)
    (runs / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1))

    for name, m in metrics.items():
        print(f"{args.workload:9s} {name:32s} {m['value']:>16.6g} {m['unit']}")
    # error_rate is 0 when all is well, and max_rel_error is a property of the
    # seed's random coreset, so neither goes in the result line's metrics
    print(f"{args.workload:9s} {'error_rate':32s} "
          f"{result['failed'] / max(1, result['attempted']):>16.6g} failed/attempted")
    if cold_start:
        print(f"{args.workload:9s} {'cold_start_ms':32s} {cold_start[0]:>16.6g} ms (no bound)")
    for kind, factor in record["scale"].items():
        print(f"{args.workload:9s} {'speed_scale.' + kind:32s} {factor:>16.6g} "
              "(median probe: reference time / probe time)")
    if "max_rel_error" in record:
        print(f"{args.workload:9s} {'max_rel_error':32s} "
              f"{record['max_rel_error']:>16.6g} ratio (must be <= eps = 0.1)")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
