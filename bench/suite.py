"""Run the benchmark over several seeds and summarise every metric.

    python3 bench/suite.py [--seeds 1-10] [--trace 0|1] [--out FILE]

Each workload of BENCHMARK.json runs once per seed, for the file's
``run_seconds``. Each (workload, seed) pair is one ``bench/run.py`` process,
run one after another. For each metric the table gives the median over seeds, the
quartiles (``statistics.quantiles(values, n=4)``) and the spread, which is
the distance between the quartiles as a share of the median, next to the
metric's bound from BENCHMARK.json. ``error_rate`` is failed over attempted
ops summed over the runs. ``--out`` writes the runs, the summary and the
machine record as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def seed_list(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def summarise(values: list[float]) -> dict:
    med = statistics.median(values)
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = med
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / abs(med) if med else None, "n": len(values)}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}

    seconds = spec["run_seconds"]
    report = {"seconds": seconds, "trace": args.trace, "workloads": {}}
    ok = True
    for workload in (w["name"] for w in spec["workloads"]):
        runs = []
        for seed in seed_list(args.seeds):
            cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(seconds),
                   "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                print(f"{workload} seed {seed}: exit {proc.returncode}", file=sys.stderr)
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            record = json.loads((BENCH / ".work" / "runs" /
                                 f"{workload}-seed{seed}-trace{args.trace}.json").read_text())
            report.setdefault("machine", record["machine"])
            runs.append({"seed": seed, **result})
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}",
                  file=sys.stderr)
        attempted = sum(r["attempted"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        summary = {}
        for name, m in runs[0]["metrics"].items():
            summary[name] = {"unit": m["unit"], "bound": bounds.get(name),
                             **summarise([r["metrics"][name]["value"] for r in runs])}
        correct = all(r["correct"] for r in runs)
        ok = ok and correct
        report["workloads"][workload] = {"correct": correct, "error_rate": failed / attempted,
                                         "summary": summary, "runs": runs}

        print(f"\n{workload}: {len(runs)} runs, correct={correct}, "
              f"error_rate={failed / attempted:.6g} failed/attempted")
        print(f"  {'metric':32s} {'median':>14s} {'q1':>14s} {'q3':>14s} "
              f"{'spread':>8s} {'bound':>6s}  unit")
        for name, s in summary.items():
            spread = "" if s["spread"] is None else f"{s['spread']:.4f}"
            bound = "" if s["bound"] is None else f"{s['bound']:.2f}"
            print(f"  {name:32s} {s['median']:>14.6g} {s['q1']:>14.6g} {s['q3']:>14.6g} "
                  f"{spread:>8s} {bound:>6s}  {s['unit']}")
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
