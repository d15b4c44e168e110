"""Command-line surface: reproducible runs of the codec, the angle lab, the
lower-bound pipeline and the distributed/streaming harnesses.

Every run is fully determined by its flags and seed; reports are JSON by
default (``--report table`` renders the same data as aligned text) and
contain no timestamps, so identical invocations produce identical bytes.
Exit codes: 0 pass, 1 assertion fail, 2 usage error or invalid input, 3 an
unexpected error inside kzsketch (its traceback goes to stderr).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import traceback
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import anglelab, codec, coloring, distsim, geometry
from .errors import KZSketchError
from .geometry import CenterSet, GridDataset, ProblemConfig

REPORT_DIR_ENV = "KZSKETCH_REPORT_DIR"


def _parse_z(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise KZSketchError(f"cannot parse z={text!r} as a rational") from exc


def _load_dataset(path: str) -> GridDataset:
    if path.endswith(".csv"):
        return geometry.load_dataset_csv(path)
    return geometry.load_dataset(path)


def _flatten(prefix: str, obj, rows: list):
    if isinstance(obj, dict):
        for key, val in obj.items():
            _flatten(f"{prefix}.{key}" if prefix else str(key), val, rows)
    elif isinstance(obj, (list, tuple)) and obj and isinstance(obj[0], (dict, list)):
        for i, val in enumerate(obj):
            _flatten(f"{prefix}[{i}]", val, rows)
    else:
        rows.append((prefix, obj))


def _emit(report: dict, args) -> None:
    text = json.dumps(report, indent=2, default=float)
    if getattr(args, "report", "json") == "table":
        rows: list = []
        _flatten("", report, rows)
        width = max((len(k) for k, _ in rows), default=0)
        print("\n".join(f"{k.ljust(width)}  {v}" for k, v in rows))
    else:
        print(text)
    report_dir = os.environ.get(REPORT_DIR_ENV)
    if report_dir:
        Path(report_dir).mkdir(parents=True, exist_ok=True)
        out = Path(report_dir) / f"{report.get('command', 'report')}.json"
        out.write_text(text)


def _check(name: str, lhs: float, rhs: float, relation: str = "<=") -> dict:
    ok = lhs <= rhs if relation == "<=" else lhs >= rhs
    return {"name": name, "lhs": lhs, "relation": relation, "rhs": rhs,
            "pass": bool(ok)}


# ---------------------------------------------------------------------------
# sketch commands


def _load_instance(args) -> tuple[GridDataset, Fraction]:
    """The dataset and z of a sketching command, checked against its flags
    before any coreset work: every header limit, then k <= n. The library
    takes k > n (repeated centers), but its seeding allocates and draws per
    center, so a k beyond the dataset's points is a usage error here."""
    data, z = _load_dataset(args.data), _parse_z(args.z)
    codec.check_header_fields(ProblemConfig(data.n, data.d, args.k, z, data.delta, args.eps))
    if args.k > data.n:
        raise KZSketchError(f"k = {args.k} exceeds the dataset's n = {data.n}")
    return data, z


def _build_sketch(args):
    data, z = _load_instance(args)
    return data, codec.compress(data, args.k, z, args.eps, args.method, args.seed)


def _bound_bits(sketch: codec.Sketch) -> int:
    """:func:`codec.theoretical_upper_bound` for the sketch's own header."""
    return codec.theoretical_upper_bound(
        sketch.n, sketch.k, sketch.d, sketch.delta, sketch.epsilon,
        float(sketch.z), sketch.coreset_size, sketch.unit_weights)


def cmd_encode(args) -> int:
    data, sketch = _build_sketch(args)
    Path(args.out).write_bytes(sketch.to_bytes())
    report = {
        "command": "encode",
        "data": args.data, "out": args.out,
        "n": data.n, "d": data.d, "k": args.k, "z": str(sketch.z),
        "delta": data.delta, "eps": args.eps, "method": args.method,
        "seed": args.seed, "coreset_size": sketch.coreset_size,
        "ledger": sketch.ledger.as_dict(),
        "serialized_bytes": len(sketch.to_bytes()),
        "theoretical_upper_bound_bits": _bound_bits(sketch),
    }
    _emit(report, args)
    return 0


def cmd_eval(args) -> int:
    sketch = codec.Sketch.from_bytes(Path(args.sketch).read_bytes())
    centers = geometry.load_centers_csv(args.centers)
    value = sketch.estimate_cost(centers)
    report = {"command": "eval", "sketch": args.sketch, "centers": args.centers,
              "num_centers": centers.k, "estimate": value}
    _emit(report, args)
    return 0 if math.isfinite(value) and value >= 0 else 1


def cmd_size(args) -> int:
    raw = Path(args.sketch).read_bytes()
    sketch = codec.Sketch.from_bytes(raw)
    ledger = sketch.ledger
    report = {
        "command": "size", "sketch": args.sketch,
        "header": {"n": sketch.n, "d": sketch.d, "k": sketch.k,
                   "z": str(sketch.z), "delta": sketch.delta,
                   "epsilon": sketch.epsilon,
                   "coreset_size": sketch.coreset_size},
        "ledger": ledger.as_dict(),
        "serialized_bytes": len(raw),
        "pad_bits": 8 * len(raw) - ledger.total_bits,
        "theoretical_upper_bound_bits": _bound_bits(sketch),
    }
    _emit(report, args)
    return 0 if 0 <= report["pad_bits"] <= 7 else 1


def cmd_verify(args) -> int:
    if args.trials < 1:
        raise KZSketchError(f"--trials must be >= 1, got {args.trials}")
    data, sketch = _build_sketch(args)
    queries = geometry.random_center_sets(data, args.k, args.trials, args.seed + 1)
    worst = 0.0
    for q in queries:
        exact = geometry.cost(data, q, sketch.z)
        est = sketch.estimate_cost(q)
        rel = abs(est - exact) / exact if exact > 0 else abs(est)
        worst = max(worst, rel)
    report = {
        "command": "verify", "data": args.data, "n": data.n, "d": data.d,
        "k": args.k, "z": str(sketch.z), "eps": args.eps,
        "method": args.method, "seed": args.seed, "trials": args.trials,
        "coreset_size": sketch.coreset_size,
        "worst_relative_error": worst,
        "checks": [_check("worst_relative_error <= eps", worst, args.eps)],
    }
    report["pass"] = all(c["pass"] for c in report["checks"])
    _emit(report, args)
    return 0 if report["pass"] else 1


# ---------------------------------------------------------------------------
# lower-bound pipeline


def _pipeline_bases(mode: str, n: int, d: int, seed: int):
    p = anglelab.sample_haar_basis(d, n, seed)
    if mode == "orthogonal":
        q = anglelab.orthogonal_complement_basis(p, n)
    elif mode == "haar":
        q = anglelab.sample_haar_basis(d, n, seed + 1)
    elif mode == "perturbed":
        q = anglelab.perturbed_orthogonal_basis(p, anglelab.COS_STAR / 2.0, seed + 1)
    else:
        raise KZSketchError(f"unknown mode {mode!r}")
    return p, q


def run_lowerbound_pipeline(n: int, d: int, z, eps: float, mode: str, seed: int,
                            max_restarts: int = 10_000) -> dict:
    """sample -> angles -> coloring -> centers -> round/scale -> witness,
    with every inequality reported as an LHS/RHS certificate line."""
    if not 0.0 < eps < 1.0:
        raise KZSketchError(f"eps must lie in (0,1), got {eps}")
    z = Fraction(z)
    p, q = _pipeline_bases(mode, n, d, seed)
    delta = coloring.odd_grid_side(d, eps, z)
    checks = []

    angles = anglelab.principal_angles(p, q)
    idx = anglelab.small_angle_index(n)
    checks.append(_check(f"theta_[{idx}] >= theta_star",
                         angles.kth_smallest(idx), anglelab.THETA_STAR, ">="))

    u = anglelab.InnerProductMatrix.from_bases(p, q)
    k_set, profile_ok = anglelab.row_norm_profile(u)
    checks.append(_check("small-row count >= (1 - outlier_fraction) n",
                         float(len(k_set)),
                         (1.0 - anglelab.OUTLIER_FRACTION) * n, ">="))

    col = coloring.find_partial_coloring(u, max_restarts, seed + 2)
    checks.append(_check("coloring discrepancy <= 1/2", col.discrepancy, 0.5))
    checks.append(_check("coloring zero_count <= n/4", float(col.zero_count), n / 4))

    center = coloring.adversarial_center(q, p, col.zeta)
    gap2 = coloring.cost_gap(p, q, center, 2)
    checks.append(_check("z=2 gap >= sqrt(n)/2", gap2, 0.5 * math.sqrt(n), ">="))
    gap_report = {"pm_center_gap_z2": gap2,
                  "gap_bound_z2": 0.5 * math.sqrt(n)}
    if z != 2:
        c_z = coloring.center_for_power(q, p, center)
        gap_z = coloring.cost_gap(p, q, c_z, z)
        lead, add = coloring.power_gap_bound(z, n)
        gap_report.update({"power_gap": gap_z, "power_gap_leading": lead,
                           "power_gap_additive": add})
        checks.append(_check(f"z={z} gap >= leading - additive",
                             gap_z, lead - add, ">="))

    rp = coloring.round_and_scale(geometry.RealDataset(p.matrix.T), delta)
    rq = coloring.round_and_scale(geometry.RealDataset(q.matrix.T), delta)
    witness_centers = coloring.paired_witness_centers(q, col.zeta)
    scaled = CenterSet(np.stack([coloring.scale_center(c, delta)
                                 for c in witness_centers.centers]))

    pert_budget = 2 * delta * math.sqrt(d) + d
    if z == 2:
        worst = 0.0
        for r in (rp, rq):
            for c in scaled.centers:
                hat = ((r.hat_points - c) ** 2).sum(axis=1)
                tld = ((r.dataset.points - c) ** 2).sum(axis=1)
                worst = max(worst, float(np.abs(hat - tld).max()))
        checks.append(_check("rounding perturbation <= 2 delta sqrt(d) + d",
                             worst, pert_budget))
        checks.append(_check("2 delta sqrt(d) + d <= delta^2 eps / 4",
                             pert_budget, delta * delta * eps / 4))
    checks.append(_check("max rounding displacement <= 2 sqrt(d)",
                         max(rp.max_displacement, rq.max_displacement),
                         2 * math.sqrt(d)))

    wit = coloring.separation_witness(rp.dataset, rq.dataset, scaled, z, eps)
    checks.append({"name": "witness separated", "lhs": wit.cost_p,
                   "relation": "outside (1 +- 3 eps) *",
                   "rhs": wit.cost_q, "pass": wit.separated})

    report = {
        "command": "lowerbound",
        "spec": {"n": n, "d": d, "z": str(z), "eps": eps, "mode": mode,
                 "seed": seed, "delta": delta, "max_restarts": max_restarts},
        "angles": {"theta_min": float(angles.thetas[0]),
                   "theta_indexed": angles.kth_smallest(idx),
                   "angle_index": idx},
        "row_norm_profile": {"small_rows": int(len(k_set)), "pass": profile_ok},
        "coloring": {"zero_count": col.zero_count,
                     "discrepancy": col.discrepancy,
                     "guarantee_met": col.guarantee_met,
                     "restarts_used": col.restarts_used},
        "gap": gap_report,
        "witness": {"cost_p": wit.cost_p, "cost_q": wit.cost_q,
                    "band_low": (1 - 3 * eps) * wit.cost_q,
                    "band_high": (1 + 3 * eps) * wit.cost_q,
                    "separated": wit.separated},
        "checks": checks,
    }
    report["pass"] = all(c["pass"] for c in checks)
    return report


def cmd_lowerbound(args) -> int:
    report = run_lowerbound_pipeline(args.n, args.d, _parse_z(args.z), args.eps,
                                     args.mode, args.seed,
                                     max_restarts=args.max_restarts)
    _emit(report, args)
    return 0 if report["pass"] else 1


def cmd_angles(args) -> int:
    if args.basis_a or args.basis_b:
        if not (args.basis_a and args.basis_b):
            raise KZSketchError("--basis-a and --basis-b go together")
        pa = anglelab.principal_angles(anglelab.load_basis(args.basis_a),
                                       anglelab.load_basis(args.basis_b))
        report = {"command": "angles", "basis_a": args.basis_a,
                  "basis_b": args.basis_b,
                  "thetas": [float(t) for t in pa.thetas],
                  "sigmas": [float(s) for s in pa.sigmas]}
    else:
        if args.d is None or args.n is None:
            raise KZSketchError("sampling mode needs --d and --n")
        stats = anglelab.angle_statistics(args.d, args.n, args.trials,
                                          args.seed, angle_index=args.index)
        report = {"command": "angles", "seed": args.seed, **stats}
    _emit(report, args)
    return 0


# ---------------------------------------------------------------------------
# distributed / streaming


def cmd_distributed(args) -> int:
    data, z = _load_instance(args)
    partition = distsim.split_round_robin(data, args.sites)
    merged, ledger = distsim.run_coordinator(partition, args.k, z, args.eps,
                                             args.seed, method=args.method)
    formula = sum(_bound_bits(sk) for sk in merged.sketches)
    report = {
        "command": "distributed", "data": args.data, "sites": args.sites,
        "k": args.k, "z": str(z), "eps": args.eps, "seed": args.seed,
        "method": args.method,
        "ledger": ledger.as_dict(),
        "formula_bits": formula,
        "per_site_coreset_sizes": [s.coreset_size for s in merged.sketches],
    }
    _emit(report, args)
    return 0


def cmd_stream(args) -> int:
    data, z = _load_instance(args)
    result = distsim.run_stream(data, args.k, z, args.eps, args.block,
                                args.seed, method=args.method,
                                level0_cap=args.cap)
    report = {
        "command": "stream", "data": args.data, "n": data.n, "d": data.d,
        "k": args.k, "z": str(z), "eps": args.eps, "block": args.block,
        "seed": args.seed, "method": args.method, "level0_cap": args.cap,
        "blocks_flushed": result.blocks, "reductions": result.reductions,
        "live_sketches": len(result.sketches),
        "max_resident_bits": result.max_resident_bits,
        "formula_bits_at_max": result.formula_bits_at_max,
        "final_bits": result.merged.total_bits,
    }
    _emit(report, args)
    return 0


# ---------------------------------------------------------------------------


def _seed(text: str) -> int:
    try:
        seed = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if seed < 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {seed}")
    return seed


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="kzsketch")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--seed", type=_seed, default=0)
        p.add_argument("--report", choices=("json", "table"), default="json")

    def sketch_args(p, method: str):
        """The instance and scheme of the commands that sketch a dataset."""
        p.add_argument("--data", required=True)
        p.add_argument("--k", type=int, required=True)
        p.add_argument("--z", default="2")
        p.add_argument("--eps", type=float, required=True)
        p.add_argument("--method", choices=("identity", "sensitivity"), default=method)

    p = sub.add_parser("encode", help="compress a dataset into a sketch file")
    sketch_args(p, "sensitivity")
    p.add_argument("--out", required=True)
    common(p)
    p.set_defaults(func=cmd_encode)

    p = sub.add_parser("eval", help="estimate clustering cost from a sketch")
    p.add_argument("--sketch", required=True)
    p.add_argument("--centers", required=True)
    common(p)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("size", help="exact bit ledger of a sketch file")
    p.add_argument("--sketch", required=True)
    common(p)
    p.set_defaults(func=cmd_size)

    p = sub.add_parser("verify", help="worst relative error over random queries")
    sketch_args(p, "identity")
    p.add_argument("--trials", type=int, default=200)
    common(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("lowerbound", help="run the hard-instance pipeline")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--z", default="2")
    p.add_argument("--eps", type=float, default=0.05)
    p.add_argument("--mode", choices=("orthogonal", "haar", "perturbed"),
                   default="orthogonal")
    p.add_argument("--max-restarts", type=int, default=10_000)
    common(p)
    p.set_defaults(func=cmd_lowerbound)

    p = sub.add_parser("angles", help="principal-angle statistics for Haar pairs")
    p.add_argument("--d", type=int)
    p.add_argument("--n", type=int)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--index", type=int, default=None)
    p.add_argument("--basis-a", help="KZOB file; compute one pair's angles")
    p.add_argument("--basis-b", help="KZOB file; compute one pair's angles")
    common(p)
    p.set_defaults(func=cmd_angles)

    p = sub.add_parser("distributed", help="one-round coordinator protocol")
    sketch_args(p, "sensitivity")
    p.add_argument("--sites", type=int, required=True)
    common(p)
    p.set_defaults(func=cmd_distributed)

    p = sub.add_parser("stream", help="insertion-only streaming harness")
    sketch_args(p, "identity")
    p.add_argument("--block", type=int, required=True)
    p.add_argument("--cap", type=int, default=16)
    common(p)
    p.set_defaults(func=cmd_stream)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (KZSketchError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception:
        # a fault of kzsketch itself: not a usage error and not a failed check
        traceback.print_exc()
        return 3


if __name__ == "__main__":
    sys.exit(main())
