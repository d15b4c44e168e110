"""The benchmark's three workloads: ``compress``, ``query`` and ``cli``.

Each is a closed loop with one client. Inputs come from the run's seed only;
the library receives the generated inputs. A workload runs in cycles: a cycle
is a fixed sequence of operations that repeats exactly, so its deterministic
fingerprint (ledgers, coreset sizes, codes, decoded-array hashes, report
hashes) must come out the same every time. Every operation's output is
checked against the paper contract, not against golden bytes, so a new wire
format with the same ledger and the same decoded arrays still passes.

Before every op (``compress``), session (``query``) or command (``cli``) the
workload times a speed probe of ``speed.py``, outside every timed interval,
and each timed interval is kept both as measured and scaled by that probe.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import shutil
import subprocess
import sys
import traceback
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import numpy as np

from kzsketch import codec, coreset, geometry
from kzsketch.geometry import ProblemConfig

import speed

DELTA = 1024
K = 8
EPS = 0.1


class Recorder:
    """Samples and the per-op pass/fail tally of one run."""

    def __init__(self):
        # samples are (seconds as measured, seconds at the reference speed)
        self.latency: list[tuple] = []       # per timed op
        self.first_answer: list[tuple] = []  # from sketch bytes to first estimate
        self.cold_start: list[tuple] = []    # per small-input command (cli)
        self.busy = (0.0, 0.0)               # seconds inside ops and opens, as samples
        self.attempted = 0
        self.failed = 0
        self.max_rel_error = 0.0
        self.sketch_bits: list[int] = []
        self.problems: list[str] = []
        self.probes = {kind: [] for kind in speed.KINDS}  # probe seconds
        self.tracer = None                   # set by a traced run to tag spans

    def probe(self, *kinds: str) -> None:
        """Time the speed probes of ``kinds``, outside every timed interval."""
        for kind in kinds:
            self.probes[kind].append(speed.probe(kind))

    def sample(self, kind: str | None, seconds: float, busy: bool = True) -> tuple:
        """The interval as measured and scaled by the latest probe of
        ``kind`` (kind None: not scaled); ``busy`` adds it to the time inside
        ops."""
        f = 1.0 if kind is None else speed.factor(kind, self.probes[kind][-1])
        pair = (seconds, seconds * f)
        if busy:
            self.busy = (self.busy[0] + pair[0], self.busy[1] + pair[1])
        return pair

    def begin(self) -> None:
        """Mark the start of the next op, so its spans share an op id."""
        if self.tracer is not None:
            self.tracer.op += 1

    @contextlib.contextmanager
    def untraced(self):
        """Pause span recording while the benchmark checks outputs."""
        tracer, was = self.tracer, self.tracer is not None and self.tracer.enabled
        if was:
            tracer.enabled = False
        try:
            yield
        finally:
            if was:
                tracer.enabled = True

    def op(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(what)
            print(f"bench: op failed: {what}", file=sys.stderr)

    def rel_error(self, estimate: float, exact: float) -> float:
        err = abs(estimate - exact) / exact
        self.max_rel_error = max(self.max_rel_error, err)
        return err


def sha256_decoded(sketch) -> str:
    weights, points, _ = sketch.decode()
    h = hashlib.sha256()
    for arr in (weights, points):
        arr = np.ascontiguousarray(arr, dtype="<f8")
        h.update(repr(arr.shape).encode())
        h.update(arr.tobytes())
    return h.hexdigest()


def grid_points(rng, n: int, d: int) -> np.ndarray:
    return rng.integers(1, DELTA + 1, size=(n, d), dtype=np.int64)


def query_centers(rng, points: np.ndarray, k: int) -> np.ndarray:
    """k uniform grid points or k data points jittered by delta/64, chosen at
    random, so far and near-optimal queries both occur (the recipe of
    ``geometry.random_center_sets``, kept here so inputs do not depend on
    library code)."""
    if rng.integers(0, 2) == 0:
        return rng.integers(1, DELTA + 1, size=(k, points.shape[1])).astype(np.float64)
    idx = rng.integers(0, points.shape[0], size=k)
    return points[idx] + rng.normal(0.0, DELTA / 64.0, size=(k, points.shape[1]))


def exact_cost(points: np.ndarray, centers: np.ndarray, z) -> float:
    """Reference cost_z(P, C) computed independently of the library."""
    pts = points.astype(np.float64)
    best = np.full(pts.shape[0], np.inf)
    for c in np.asarray(centers, dtype=np.float64):
        np.minimum(best, ((pts - c) ** 2).sum(axis=1), out=best)
    return float(np.sum(best ** (float(z) / 2.0)))


def ledger_dict(ledger) -> dict:
    return {k: int(v) for k, v in ledger.as_dict().items()}


class Workload:
    """A closed loop over a fixed cycle of ops; see the module docstring.

    ``min_cycles`` is set so that the run always has at least ten latency
    samples above ``tail_percentile``.
    """

    name: str
    ops_per_cycle: int
    min_cycles: int
    tail_percentile: float

    def __init__(self, seed: int, workdir: Path, in_process: bool):
        self.seed = seed

    def setup(self):
        """Make the inputs and reference results, run one warm-up op and
        return its fingerprint."""
        raise NotImplementedError

    def cycle(self, rec: Recorder):
        """Run one cycle into ``rec``; return its deterministic fingerprint."""
        raise NotImplementedError

    def close(self) -> None:
        pass


class Compress(Workload):
    """Dataset -> approx_centers -> sensitivity coreset -> encode -> bytes,
    with z cycling over {2, 1, 3/2}; then the bytes are reopened
    (from_bytes -> decode -> one estimate), timed as the first answer."""

    name = "compress"
    N, D = 20_000, 16
    Z_CYCLE = (Fraction(2), Fraction(1), Fraction(3, 2))
    ops_per_cycle = len(Z_CYCLE)
    min_cycles = 7          # >= 21 ops, so p52 has >= 10 samples above it
    tail_percentile = 52

    def setup(self) -> dict:
        rng = np.random.default_rng([self.seed, 1])
        self.data = geometry.GridDataset(grid_points(rng, self.N, self.D), DELTA)
        self.queries = [query_centers(rng, self.data.points, K) for _ in self.Z_CYCLE]
        self.exact = [exact_cost(self.data.points, q, z)
                      for q, z in zip(self.queries, self.Z_CYCLE)]
        return self._op(0, Recorder())

    def _op(self, i: int, rec: Recorder) -> dict:
        z, data = self.Z_CYCLE[i], self.data
        rec.probe("python")
        rec.begin()
        t0 = perf_counter()
        centers = coreset.approx_centers(data, K, z, self.seed)
        cs = coreset.build_coreset(data, K, z, EPS, method="sensitivity",
                                   seed=self.seed, centers=centers)
        config = ProblemConfig(n=data.n, d=data.d, k=K, z=z, delta=DELTA, epsilon=EPS)
        sketch = codec.encode(cs, centers, config)
        raw = sketch.to_bytes()
        t1 = perf_counter()
        reopened = codec.Sketch.from_bytes(raw)
        reopened.decode()
        estimate = reopened.estimate_cost(self.queries[i])
        t2 = perf_counter()
        rec.latency.append(rec.sample("python", t1 - t0))
        rec.first_answer.append(rec.sample("python", t2 - t1, busy=False))
        with rec.untraced():
            return self._check(i, rec, cs, sketch, raw, reopened, estimate)

    def _check(self, i, rec, cs, sketch, raw, reopened, estimate) -> dict:
        ledger = sketch.ledger
        pad = 8 * len(raw) - ledger.total_bits
        same_arrays = all(np.array_equal(a, b) for a, b in
                          zip(sketch.decode()[:2], reopened.decode()[:2]))
        err = rec.rel_error(estimate, self.exact[i])
        rec.sketch_bits.append(ledger.total_bits)
        rec.op(0 <= pad <= 7 and reopened.ledger == ledger and same_arrays
               and err <= EPS,
               f"compress z={self.Z_CYCLE[i]}: pad={pad} "
               f"ledger_equal={reopened.ledger == ledger} "
               f"arrays_equal={same_arrays} rel_error={err:.3g}")
        return {"z": str(self.Z_CYCLE[i]), "ledger": ledger_dict(ledger),
                "coreset_size": cs.size,
                "codes_packed": sketch.coreset_size * (sketch.d + 1),
                "codes_parsed": reopened.coreset_size * (reopened.d + 1),
                "decoded_sha256": sha256_decoded(reopened),
                "estimate": float(estimate).hex()}

    def cycle(self, rec: Recorder) -> list:
        return [self._op(i, rec) for i in range(self.ops_per_cycle)]


class Query(Workload):
    """Sessions against pre-encoded d=64 sketches: open from bytes
    (from_bytes -> decode -> first estimate), then one estimate_cost per
    k'=32 query center set of a fixed pool."""

    name = "query"
    N, D, KQ = 5_000, 64, 32
    Z_SKETCHES = (Fraction(2), Fraction(3, 2))
    POOL = 32               # queries per session; opens stay about 30% of the time
    CHECK_EVERY = 8         # estimates checked against the exact cost
    ops_per_cycle = POOL * len(Z_SKETCHES)
    min_cycles = 4          # >= 248 timed queries, so p95 has >= 10 above it
    tail_percentile = 95

    def setup(self) -> dict:
        rng = np.random.default_rng([self.seed, 2])
        data = geometry.GridDataset(grid_points(rng, self.N, self.D), DELTA)
        self.wires, self.pools, self.exact = [], [], []
        for z in self.Z_SKETCHES:
            centers = coreset.approx_centers(data, K, z, self.seed)
            cs = coreset.build_coreset(data, K, z, EPS, method="sensitivity",
                                       seed=self.seed, centers=centers)
            config = ProblemConfig(n=data.n, d=data.d, k=K, z=z, delta=DELTA,
                                   epsilon=EPS)
            self.wires.append(codec.encode(cs, centers, config).to_bytes())
            pool = [query_centers(rng, data.points, self.KQ) for _ in range(self.POOL)]
            self.pools.append(pool)
            self.exact.append({j: exact_cost(data.points, pool[j], z)
                               for j in range(0, self.POOL, self.CHECK_EVERY)})
        warm = codec.Sketch.from_bytes(self.wires[0])
        return {"decoded_sha256": sha256_decoded(warm),
                "estimate": float(warm.estimate_cost(self.pools[0][0])).hex()}

    def _session(self, b: int, rec: Recorder) -> dict:
        pool = self.pools[b]
        estimates = []
        rec.probe("python", "numpy")
        rec.begin()
        t0 = perf_counter()
        sketch = codec.Sketch.from_bytes(self.wires[b])
        estimates.append(sketch.estimate_cost(pool[0]))
        t1 = perf_counter()
        rec.first_answer.append(rec.sample("python", t1 - t0))
        for q in pool[1:]:
            rec.begin()
            t = perf_counter()
            estimates.append(sketch.estimate_cost(q))
            dt = perf_counter() - t
            rec.latency.append(rec.sample("numpy", dt))  # the kernel is ~95% of a query
        with rec.untraced():
            return self._check(b, rec, sketch, estimates)

    def _check(self, b, rec, sketch, estimates) -> dict:
        exact = self.exact[b]
        rec.sketch_bits.append(sketch.ledger.total_bits)
        for j, est in enumerate(estimates):
            ok = math.isfinite(est) and est >= 0
            err = rec.rel_error(est, exact[j]) if j in exact else 0.0
            rec.op(ok and err <= EPS,
                   f"query z={self.Z_SKETCHES[b]} #{j}: estimate={est} rel_error={err:.3g}")
        return {"z": str(self.Z_SKETCHES[b]), "ledger": ledger_dict(sketch.ledger),
                "coreset_size": sketch.coreset_size,
                "codes_parsed": sketch.coreset_size * (sketch.d + 1),
                "decoded_sha256": sha256_decoded(sketch),
                "estimates_sha256": hashlib.sha256(
                    np.asarray(estimates, dtype="<f8").tobytes()).hexdigest()}

    def cycle(self, rec: Recorder) -> list:
        return [self._session(b, rec) for b in range(len(self.wires))]


class Cli(Workload):
    """One ``kzsketch`` command per op from a fixed cycle, each in a fresh
    interpreter (or, for the traced run, in-process through ``cli.main``)."""

    name = "cli"
    N, D = 20_000, 16
    # 2 cycles give 32 commands. Sorted by wall time they group as 20 small
    # or n=100 lowerbound commands (0.5-0.6 s, import-bound), then 12 size,
    # eval, encode, distributed and stream, so p50 falls inside the first
    # group. p70 (position 21.7 of 0..31, ten samples above it) falls between
    # the second and third of the six size and eval commands, so one slow
    # small command does not pull it down to the boundary between the groups.
    min_cycles = 2
    tail_percentile = 70
    # Known lower-bound failure on the seed commit: witness not separated, exit 1.
    KNOWN_FAILING = ["lowerbound", "--n", "100", "--d", "256", "--mode", "orthogonal",
                     "--z", "3/2", "--seed", "0"]

    def __init__(self, seed: int, workdir: Path, in_process: bool):
        self.seed = seed
        self.work = workdir / f"cli-seed{seed}"
        self.in_process = in_process
        w, s = self.work, str(seed)
        sizing = ["--k", str(K), "--eps", str(EPS), "--seed", s]
        sketch = str(w / "sketch.kzsk")
        tiny = str(w / "tiny.kzsk")
        self.commands = [
            ("encode", ["encode", "--data", str(w / "data.kzds"), *sizing, "--out", sketch]),
            ("size", ["size", "--sketch", sketch]),
            ("eval_a", ["eval", "--sketch", sketch, "--centers", str(w / "centers_a.csv")]),
            ("distributed", ["distributed", "--data", str(w / "data.kzds"),
                             "--sites", "4", *sizing]),
            ("small_lowerbound", ["lowerbound", "--n", "8", "--d", "32", "--seed", s]),
            ("stream", ["stream", "--data", str(w / "data.kzds"), "--block", "1000",
                        *sizing]),
            ("small_size", ["size", "--sketch", tiny]),
            ("lb_orthogonal", ["lowerbound", "--n", "100", "--d", "256",
                               "--mode", "orthogonal", "--seed", "4"]),
            ("small_verify", ["verify", "--data", str(w / "tiny.kzds"), "--k", "2",
                              "--eps", str(EPS), "--trials", "2", "--seed", s]),
            ("lb_perturbed", ["lowerbound", "--n", "100", "--d", "256",
                              "--mode", "perturbed", "--seed", "3"]),
            ("small_angles", ["angles", "--d", "8", "--n", "2", "--trials", "4",
                              "--seed", s]),
            ("lb_haar", ["lowerbound", "--n", "100", "--d", "256", "--mode", "haar",
                         "--seed", "0"]),
            ("small_lowerbound_perturbed", ["lowerbound", "--n", "4", "--d", "16",
                                            "--mode", "perturbed", "--seed", s]),
            ("lb_known_failing", self.KNOWN_FAILING),
            ("eval_b", ["eval", "--sketch", sketch, "--centers", str(w / "centers_b.csv")]),
            ("small_eval", ["eval", "--sketch", tiny,
                            "--centers", str(w / "tiny_centers.csv")]),
        ]
        self.ops_per_cycle = len(self.commands)
        self.walls: dict[str, list[float]] = {}

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)

    def setup(self) -> dict:
        self.work.mkdir(parents=True, exist_ok=True)
        rng = np.random.default_rng([self.seed, 3])
        self.data = geometry.GridDataset(grid_points(rng, self.N, self.D), DELTA)
        geometry.save_dataset(self.data, self.work / "data.kzds")
        self.exact = {}
        for label in ("eval_a", "eval_b"):
            centers = query_centers(rng, self.data.points, K)
            np.savetxt(self.work / f"centers_{label[-1]}.csv", centers, delimiter=",",
                       fmt="%.17g")
            self.exact[label] = exact_cost(self.data.points, centers, 2)
        tiny = geometry.GridDataset(grid_points(rng, 64, 4), DELTA)
        geometry.save_dataset(tiny, self.work / "tiny.kzds")
        tiny_cs = coreset.build_coreset(tiny, 2, 2, EPS, method="identity")
        tiny_centers = coreset.approx_centers(tiny, 2, 2, self.seed)
        tiny_sketch = codec.encode(tiny_cs, tiny_centers,
                                   ProblemConfig(n=64, d=4, k=2, z=2, delta=DELTA,
                                                 epsilon=EPS))
        (self.work / "tiny.kzsk").write_bytes(tiny_sketch.to_bytes())
        np.savetxt(self.work / "tiny_centers.csv", tiny.points[:2], delimiter=",", fmt="%d")
        rc, out, _ = self._run(self.commands[4][1])
        return {"small_lowerbound": hashlib.sha256(out.encode()).hexdigest(), "rc": rc}

    def _run(self, argv: list[str]):
        if self.in_process:
            from kzsketch import cli
            buf = io.StringIO()
            t = perf_counter()
            with contextlib.redirect_stdout(buf):
                rc = cli.main(argv)
            return rc, buf.getvalue(), perf_counter() - t
        t = perf_counter()
        proc = subprocess.run([sys.executable, "-m", "kzsketch.cli", *argv],
                              capture_output=True, text=True, timeout=120)
        wall = perf_counter() - t
        if proc.stderr:
            print(proc.stderr, end="", file=sys.stderr)
        return proc.returncode, proc.stdout, wall

    def cycle(self, rec: Recorder) -> dict:
        fingerprint, reports = {}, {}
        for label, argv in self.commands:
            # a small-input command is mostly interpreter start and import,
            # which no probe tracks, so it stays as measured
            kind = None if label.startswith("small_") else "python"
            if kind:
                rec.probe(kind)
            rec.begin()
            rc, out, wall = self._run(argv)
            pair = rec.sample(kind, wall)
            rec.latency.append(pair)
            self.walls.setdefault(label, []).append(wall)
            if label.startswith("eval_"):
                rec.first_answer.append(pair)
            if label.startswith("small_"):
                rec.cold_start.append(pair)
            try:
                report = json.loads(out)
                with rec.untraced():
                    problem = self._check(label, rc, report, reports, rec)
            except Exception:  # a malformed report is a failed op, not a crash
                report, problem = None, traceback.format_exc(limit=2)
            reports[label] = report
            rec.op(problem is None, f"cli {label}: {problem}")
            fingerprint[label] = {"rc": rc,
                                  "report_sha256": hashlib.sha256(out.encode()).hexdigest()}
        fingerprint["counters"] = self._counters(reports)
        return fingerprint

    def _check(self, label, rc, report, reports, rec) -> str | None:
        """None if the command's output meets the contract, else the reason."""
        if "pass" in report:
            if report["pass"] != all(c["pass"] for c in report["checks"]):
                return "report pass differs from the AND of its check lines"
            if rc != (0 if report["pass"] else 1):
                return f"exit code {rc} with pass={report['pass']}"
        elif "eval" not in label and rc != 0:
            return f"exit code {rc}"
        if label == "encode":
            raw = (self.work / "sketch.kzsk").read_bytes()
            sketch = codec.Sketch.from_bytes(raw)
            self.encoded_sha256 = sha256_decoded(sketch)
            pad = 8 * len(raw) - sketch.ledger.total_bits
            rec.sketch_bits.append(sketch.ledger.total_bits)
            if ledger_dict(sketch.ledger) != report["ledger"] or not 0 <= pad <= 7 \
                    or report["serialized_bytes"] != len(raw):
                return f"written sketch disagrees with the report (pad={pad})"
        elif label in ("size", "small_size"):
            if not 0 <= report["pad_bits"] <= 7:
                return f"pad_bits={report['pad_bits']}"
            if label == "size" and report["ledger"] != reports["encode"]["ledger"]:
                return "size ledger differs from the encode ledger"
        elif "eval" in label:
            est = report["estimate"]
            if rc != (0 if math.isfinite(est) and est >= 0 else 1):
                return f"exit code {rc} for estimate {est}"
            if label in self.exact:
                err = rec.rel_error(est, self.exact[label])
                if err > EPS:
                    return f"estimate {est} off the exact cost by {err:.3g} > eps"
        elif label == "distributed":
            led = report["ledger"]
            if led["total_bits"] != sum(led["per_site_bits"]) or led["rounds"] != 1 \
                    or len(report["per_site_coreset_sizes"]) != 4:
                return "inconsistent communication ledger"
        elif label == "stream":
            if report["blocks_flushed"] != math.ceil(self.N / 1000) \
                    or report["max_resident_bits"] <= 0:
                return "unexpected stream accounting"
        return None

    def _counters(self, reports: dict) -> dict:
        lbs = [reports[label] for label, argv in self.commands
               if argv[0] == "lowerbound" and reports.get(label)]
        enc, dist, stream = (reports.get(k) or {} for k in ("encode", "distributed", "stream"))
        return {
            "encode_ledger": enc.get("ledger"),
            "encode_coreset_size": enc.get("coreset_size"),
            "encoded_decoded_sha256": getattr(self, "encoded_sha256", None),
            "comm_bits": (dist.get("ledger") or {}).get("total_bits"),
            "per_site_coreset_sizes": dist.get("per_site_coreset_sizes"),
            "stream_blocks": stream.get("blocks_flushed"),
            "stream_reductions": stream.get("reductions"),
            "stream_resident_bits": stream.get("max_resident_bits"),
            "coloring_restarts": [r["coloring"]["restarts_used"] for r in lbs],
            "certificates_passed": sum(c["pass"] for r in lbs for c in r["checks"]),
            "certificates_total": sum(len(r["checks"]) for r in lbs),
        }


WORKLOADS = {w.name: w for w in (Compress, Query, Cli)}
