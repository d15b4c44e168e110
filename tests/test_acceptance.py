"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line
(run with -s to see them). Tolerances are fixed here, not calibrated."""

import itertools
import json
import math
import time
from fractions import Fraction

import numpy as np
import pytest

import kzsk_reference as ref
from hard_instances import (loglog_family_instance, loglog_witness_centers,
                            taylor_bounds_margins, tile_instances,
                            weight_sum_check)
from kzsketch import anglelab, codec, coreset, distsim, geometry
from kzsketch.anglelab import (COS_STAR, InnerProductMatrix,
                               OrthonormalBasis, orthogonal_complement_basis,
                               perturbed_orthogonal_basis, principal_angles,
                               sample_haar_basis)
from kzsketch.cli import main as cli_main
from kzsketch.coloring import (adversarial_center, cost_gap,
                               find_partial_coloring, odd_grid_side,
                               paired_witness_centers, round_and_scale,
                               scale_center, separation_witness)
from kzsketch.geometry import CenterSet, ProblemConfig, RealDataset

DELTA = 2 ** 10
GRID_N = (100, 500, 2000)
GRID_D = (8, 16, 64)
GRID_K = (2, 4, 8)
GRID_Z = (1, 2)
GRID_EPS = (0.1, 0.2)
QUERIES = 200


def verdict(num: int, label: str, ok: bool, detail: str):
    print(f"\nACCEPTANCE {num} ({label}): {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num} ({label}): {detail}"


@pytest.fixture(scope="module")
def sketch_grid():
    """Encode the full identity-coreset grid once; criteria 1 and 3 share it."""
    t0 = time.time()
    records = []
    for n, d in itertools.product(GRID_N, GRID_D):
        data = geometry.random_grid_dataset(n, d, DELTA, seed=n * 1000 + d)
        for k, z in itertools.product(GRID_K, GRID_Z):
            centers = coreset.approx_centers(data, k, z, seed=n + d + k + z)
            queries = geometry.random_center_sets(data, k, QUERIES,
                                                  seed=n + 7 * k + z)
            exact = np.array([geometry.cost(data, q, z) for q in queries])
            for eps in GRID_EPS:
                config = ProblemConfig(n=n, d=d, k=k, z=Fraction(z),
                                       delta=DELTA, epsilon=eps)
                cs = coreset.identity_coreset(data)
                sk = codec.encode(cs, centers, config)
                est = np.array([sk.estimate_cost(q) for q in queries])
                rel = np.abs(est - exact) / exact
                weights, points, cen = sk.decode()
                order = ref.row_order(cs.points, centers, ref.sorted_first(sk))
                orig = cs.points[order].astype(float)
                pdist = np.linalg.norm(orig - points, axis=1)
                cdist = np.linalg.norm(orig - cen[sk.group_of], axis=1)
                records.append({
                    "n": n, "d": d, "k": k, "z": z, "eps": eps,
                    "worst_rel": float(rel.max()),
                    "weights_ok": bool(np.abs(weights - 1.0).max()
                                       <= eps / 4),
                    "points_ok": bool((pdist <= eps / (4 * z) * cdist
                                       + 1e-12).all()),
                    "ledger": sk.ledger,
                    "coreset_size": cs.size,
                    "sorted_first": ref.sorted_first(sk),
                    "center_width": sk.params.center_width,
                })
    return records, time.time() - t0


def test_criterion_1_sketch_contract(sketch_grid):
    records, elapsed = sketch_grid
    assert len(records) == 108
    worst = max(r["worst_rel"] / r["eps"] for r in records)
    sketch_ok = all(r["worst_rel"] <= r["eps"] for r in records)
    weights_ok = all(r["weights_ok"] for r in records)
    points_ok = all(r["points_ok"] for r in records)
    ok = sketch_ok and weights_ok and points_ok and elapsed <= 300
    verdict(1, "epsilon-sketch contract", ok,
            f"108 combos x {QUERIES} queries, worst rel err / eps = "
            f"{worst:.3e}, weight and point bounds hold, grid time "
            f"{elapsed:.1f}s <= 300s")


def test_criterion_2_weight_sums():
    n, d, k, eps = 2000, 16, 4, 0.2
    data = geometry.random_grid_dataset(n, d, DELTA, seed=2016)
    identity_ok = True
    cs = coreset.identity_coreset(data)
    identity_ok &= float(np.sum(cs.weights)) == float(n)
    sens_ok = True
    worst_dev = 0.0
    for seed in range(20):
        cs = coreset.build_coreset(data, k, 2, eps, method="sensitivity",
                                   seed=seed)
        total = float(np.sum(cs.weights))
        worst_dev = max(worst_dev, abs(total - n) / n)
        sens_ok &= weight_sum_check(cs, eps)
    verdict(2, "coreset weight sums", identity_ok and sens_ok,
            f"identity sum exactly n; 20 sensitivity seeds within "
            f"(1 +- 4 eps) n, worst |sum - n|/n = {worst_dev:.4f} "
            f"<= {4 * eps}")


def bit_budget(n, d, k, z, eps, s):
    per_point = (d * math.log2(4 * z / eps) + d * math.log2(math.log2(DELTA))
                 + math.log2(4 / eps)
                 + math.log2(max(math.log2(4 * s / eps), math.log2(n))))
    return 16 * (k * d * math.log2(DELTA) + s * per_point + 256)


def test_criterion_3_bit_budget(sketch_grid):
    records, _ = sketch_grid
    ratios = []
    for r in records:
        budget = bit_budget(r["n"], r["d"], r["k"], r["z"], r["eps"],
                            r["coreset_size"])
        ratios.append(r["ledger"].total_bits / budget)
    budget_ok = max(ratios) <= 1.0

    # under SORTED_FIRST the first coordinates take exactly their
    # Elias-Fano code, |S| + k H + |S| L bits, and the other d - 1 full
    # columns. Counted as a full column, coordinate bits double when d
    # doubles
    code_ok, full = True, {}
    for r in records:
        bits = r["ledger"].coordinate_bits
        if r["sorted_first"]:
            s, width = r["coreset_size"], r["center_width"]
            low, buckets = ref.first_split(s, r["k"], DELTA)
            first = bits - (r["d"] - 1) * s * width
            code_ok &= first == s + r["k"] * buckets + s * low
            bits += s * width - first
        full[r["n"], r["d"], r["k"], r["z"], r["eps"]] = bits
    doubling = [full[(n, 16, *rest)] / bits for (n, d, *rest), bits in full.items() if d == 8]
    scaling_ok = all(1.9 <= x <= 2.1 for x in doubling)
    verdict(3, "bit budget", budget_ok and code_ok and scaling_ok,
            f"max measured/budget = {max(ratios):.3f} <= 1; first coordinates "
            f"{'' if code_ok else 'not '}exactly their Elias-Fano code; "
            f"coordinate bits x{min(doubling):.3f}..x{max(doubling):.3f} "
            f"when d doubles")


def test_criterion_4_principal_angles():
    p = sample_haar_basis(96, 20, seed=41)
    same_ok = principal_angles(p, p).thetas.max() <= 1e-7

    q = orthogonal_complement_basis(p, 20)
    orth_ok = np.abs(principal_angles(p, q).thetas - math.pi / 2).max() <= 1e-7

    x = OrthonormalBasis(np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]]))
    y = OrthonormalBasis(np.array([[1.0, 0.0],
                                   [0.0, math.cos(math.pi / 3)],
                                   [0.0, math.sin(math.pi / 3)]]))
    fx = principal_angles(x, y).thetas
    figure_ok = abs(fx[0]) <= 1e-9 and abs(fx[1] - math.pi / 3) <= 1e-9

    rng = np.random.default_rng(42)
    a_basis = sample_haar_basis(40, 6, seed=43)
    b_basis = sample_haar_basis(40, 6, seed=44)
    ref = principal_angles(a_basis, b_basis).thetas
    worst_inv = 0.0
    for _ in range(100):
        rot, _ = np.linalg.qr(rng.normal(size=(40, 40)))
        r1, _ = np.linalg.qr(rng.normal(size=(6, 6)))
        r2, _ = np.linalg.qr(rng.normal(size=(6, 6)))
        got = principal_angles(OrthonormalBasis(rot @ a_basis.matrix @ r1),
                               OrthonormalBasis(rot @ b_basis.matrix @ r2)).thetas
        worst_inv = max(worst_inv, float(np.abs(got - ref).max()))
    inv_ok = worst_inv <= 1e-8

    u = InnerProductMatrix.from_bases(a_basis, b_basis)
    pa = principal_angles(a_basis, b_basis)
    frob_ok = abs(float((pa.sigmas ** 2).sum())
                  - np.linalg.norm(u.u, "fro") ** 2) <= 1e-8

    ok = same_ok and orth_ok and figure_ok and inv_ok and frob_ok
    verdict(4, "principal angles", ok,
            f"identity/orthogonal/figure fixtures, invariance worst dev "
            f"{worst_inv:.2e} <= 1e-8, Frobenius identity holds")


def test_criterion_5_coloring_and_gap():
    t0 = time.time()
    n, d = 100, 400
    all_ok = True
    worst_gap = np.inf
    for trial in range(20):
        p = sample_haar_basis(d, n, seed=500 + 2 * trial)
        q = perturbed_orthogonal_basis(p, COS_STAR / 2, seed=501 + 2 * trial)
        u = InnerProductMatrix.from_bases(p, q)
        assert np.linalg.svd(u.u, compute_uv=False)[0] <= COS_STAR
        _, profile_ok = anglelab.row_norm_profile(u)
        col = find_partial_coloring(u, max_restarts=10_000, seed=502 + trial)
        gap = cost_gap(p, q, adversarial_center(q, p, col.zeta), 2)
        worst_gap = min(worst_gap, gap)
        all_ok &= profile_ok and col.guarantee_met \
            and gap >= 0.5 * math.sqrt(n) - 1e-6
    ident = find_partial_coloring(np.eye(n), max_restarts=10_000, seed=5)
    identity_ok = not ident.guarantee_met
    elapsed = time.time() - t0
    ok = all_ok and identity_ok and elapsed <= 120
    verdict(5, "coloring and cost gap", ok,
            f"20 near-orthogonal pairs certified, min gap {worst_gap:.3f} >= "
            f"{0.5 * math.sqrt(n) - 1e-6:.3f}; identity matrix refused; "
            f"{elapsed:.1f}s <= 120s")


def test_criterion_6_taylor_grid():
    xs = 0.5 * np.arange(500) / 499.0
    zs = np.arange(1, 501) / 125.0            # includes z = 2 exactly
    assert 2.0 in zs and xs[-1] == 0.5
    xg, zg = np.meshgrid(xs, zs)
    lower, upper = taylor_bounds_margins(xg.ravel(), zg.ravel())
    ok = bool((lower >= -1e-12).all() and (upper >= -1e-12).all())
    verdict(6, "Taylor sandwich", ok,
            f"500x500 grid of (x, z) in [0,0.5] x (0,4], min margins "
            f"{lower.min():.2e}, {upper.min():.2e} >= -1e-12")


def test_criterion_7_rounding_and_separation():
    rng = np.random.default_rng(77)
    pert_ok = True
    for trial in range(50):
        d = int(rng.choice([16, 64]))
        eps = float(rng.choice([0.05, 0.1, 0.2]))
        delta = odd_grid_side(d, eps)
        pts = rng.normal(size=(30, d))
        pts /= np.maximum(1.0, np.linalg.norm(pts, axis=1))[:, None]
        res = round_and_scale(RealDataset(pts), delta)
        c = rng.normal(size=d)
        c /= np.linalg.norm(c)
        budget = 2 * delta * math.sqrt(d) + d
        pert_ok &= budget <= delta * delta * eps / 4
        for center in (scale_center(c, delta), scale_center(-c, delta)):
            hat = ((res.hat_points - center) ** 2).sum(axis=1)
            tilde = ((res.dataset.points - center) ** 2).sum(axis=1)
            pert_ok &= bool(np.abs(hat - tilde).max() <= budget)

    n, d, eps = 100, 256, 0.05
    delta = odd_grid_side(d, eps)
    sep_ok = True
    ratios = []
    for seed in (70, 71, 72):
        p = sample_haar_basis(d, n, seed=seed)
        q = orthogonal_complement_basis(p, n)
        col = find_partial_coloring(InnerProductMatrix.from_bases(p, q),
                                    max_restarts=100, seed=seed)
        rp = round_and_scale(RealDataset(p.matrix.T), delta)
        rq = round_and_scale(RealDataset(q.matrix.T), delta)
        centers = paired_witness_centers(q, col.zeta)
        scaled = CenterSet(np.stack([scale_center(c, delta)
                                     for c in centers.centers]))
        wit = separation_witness(rp.dataset, rq.dataset, scaled, 2, eps)
        ratios.append(wit.cost_p / wit.cost_q)
        sep_ok &= wit.separated
    verdict(7, "rounding and separation", pert_ok and sep_ok,
            f"50 rounding runs within 2 delta sqrt(d) + d <= delta^2 eps/4; "
            f"orthogonal pairs separated at eps=0.05 with cost ratios "
            f"{[f'{r:.4f}' for r in ratios]} vs band edge {1 + 3 * eps}")


def test_criterion_8_tiling():
    d, n, eps = 32, 8, 0.2
    delta_tilde = odd_grid_side(d, eps)
    pairs, center_pairs = [], []
    for seed in (80, 81):
        p = sample_haar_basis(d, n, seed=seed)
        q = orthogonal_complement_basis(p, n)
        c = adversarial_center(q, p, np.ones(n))
        rp = round_and_scale(RealDataset(p.matrix.T), delta_tilde)
        rq = round_and_scale(RealDataset(q.matrix.T), delta_tilde)
        pairs.append((rp.dataset, rq.dataset))
        center_pairs.append((scale_center(c, delta_tilde),
                             scale_center(-c, delta_tilde)))
    tiled = tile_instances(pairs, 4, delta_tilde)
    centers = tiled.center_set(center_pairs)

    cross_ok = True
    for choices in itertools.product((0, 1), repeat=2):
        data = tiled.assemble(choices)
        assign = geometry.nearest_assignment(data, centers)
        copy_of_point = np.repeat(np.arange(2), n)
        cross_ok &= bool((assign // 2 == copy_of_point).all())

    total_gap = (geometry.cost(tiled.assemble([0, 0]), centers, 2)
                 - geometry.cost(tiled.assemble([1, 1]), centers, 2))
    per_copy = sum(
        geometry.cost(dp, CenterSet(np.stack(cen)), 2)
        - geometry.cost(dq, CenterSet(np.stack(cen)), 2)
        for (dp, dq), cen in zip(pairs, center_pairs))
    additive_ok = abs(total_gap - per_copy) <= 1e-6
    verdict(8, "tiling", cross_ok and additive_ok,
            f"no cross-copy assignment (exhaustive over choices); tiled gap "
            f"{total_gap:.6f} = sum of per-copy gaps {per_copy:.6f} +- 1e-6")


def test_criterion_9_loglog_family():
    k, n = 4, 64
    anchors = np.array([[20, 20, 20], [50, 20, 20]])
    m_max = int(math.log2(n / k))
    family = {m: loglog_family_instance(k, n, anchors, m, delta=64)
              for m in itertools.product(range(1, m_max + 1), repeat=k // 2)}
    all_ok = True
    pairs_checked = 0
    for ma, mb in itertools.combinations(family, 2):
        diff = [l for l in range(k // 2) if ma[l] != mb[l]]
        if not diff:
            continue
        l = diff[0]
        lo, hi = (ma, mb) if ma[l] < mb[l] else (mb, ma)
        wit = separation_witness(family[lo], family[hi],
                                 loglog_witness_centers(anchors, l), 2, 1 / 6)
        all_ok &= wit.cost_p == 2.0 ** lo[l] and wit.cost_q == 2.0 ** hi[l]
        all_ok &= wit.cost_p <= 0.5 * wit.cost_q and wit.separated
        pairs_checked += 1
    verdict(9, "log log family", all_ok and pairs_checked == 120,
            f"{pairs_checked} cross pairs, each witnessed with cost ratio "
            f"<= 1/2 and separated at eps = 1/6")


def test_criterion_10_distributed_and_streaming():
    n, d, k, eps = 2000, 8, 4, 0.1
    data = geometry.random_grid_dataset(n, d, DELTA, seed=100)
    partition = distsim.split_round_robin(data, 4)
    merged, ledger = distsim.run_coordinator(partition, k, 2, eps, seed=101,
                                             method="identity")
    total_ok = ledger.total_bits == sum(s.ledger.total_bits
                                        for s in merged.sketches)
    dist_worst = 0.0
    for q in geometry.random_center_sets(data, k, 100, seed=102):
        exact = geometry.cost(data, q, 2)
        dist_worst = max(dist_worst, abs(merged.estimate_cost(q) - exact) / exact)
    dist_ok = dist_worst <= eps

    stream_data = geometry.random_grid_dataset(10_000, d, DELTA, seed=103)
    result = distsim.run_stream(stream_data, k, 2, eps, block_size=500,
                                seed=104, method="identity")
    stream_worst = 0.0
    for q in geometry.random_center_sets(stream_data, k, 100, seed=105):
        exact = geometry.cost(stream_data, q, 2)
        stream_worst = max(stream_worst,
                           abs(result.merged.estimate_cost(q) - exact) / exact)
    stream_ok = stream_worst <= 3 * eps
    resident_ok = result.max_resident_bits <= 16 * result.formula_bits_at_max

    degenerate = distsim.run_stream(stream_data, k, 2, eps,
                                    block_size=stream_data.n, seed=106)
    centers = coreset.approx_centers(stream_data, k, 2, seed=106)
    cs = coreset.identity_coreset(stream_data)
    config = ProblemConfig(n=stream_data.n, d=d, k=k, z=Fraction(2),
                           delta=DELTA, epsilon=eps / 2)
    offline = codec.encode(cs, centers, config)
    offline_ok = (len(degenerate.sketches) == 1
                  and degenerate.sketches[0].to_bytes() == offline.to_bytes())

    ok = total_ok and dist_ok and stream_ok and resident_ok and offline_ok
    verdict(10, "distributed and streaming", ok,
            f"ledger exact; merged worst err {dist_worst:.2e} <= {eps}; "
            f"stream worst err {stream_worst:.2e} <= {3 * eps}; resident "
            f"{result.max_resident_bits} <= 16 x formula; degenerate block "
            f"bit-identical to offline")


def test_criterion_11_determinism(tmp_path, capsys):
    data = geometry.random_grid_dataset(300, 5, 256, seed=110)
    data_path = tmp_path / "points.kzds"
    geometry.save_dataset(data, data_path)

    runs = [
        (["encode", "--data", str(data_path), "--k", "3", "--eps", "0.15",
          "--method", "sensitivity", "--out", "SKETCH", "--seed", "42"], True),
        (["verify", "--data", str(data_path), "--k", "2", "--eps", "0.2",
          "--trials", "40", "--seed", "42"], False),
        (["lowerbound", "--n", "32", "--d", "80", "--eps", "0.05",
          "--mode", "perturbed", "--seed", "42"], False),
        (["stream", "--data", str(data_path), "--block", "60", "--k", "2",
          "--eps", "0.2", "--seed", "42"], False),
    ]
    ok = True
    for argv, writes_sketch in runs:
        captured, payloads = [], []
        for rep in range(2):
            local = list(argv)
            if writes_sketch:
                out = tmp_path / f"run{rep}.kzsk"
                local[local.index("SKETCH")] = str(out)
            cli_main(local)
            text = capsys.readouterr().out
            if writes_sketch:
                payloads.append(out.read_bytes())
                parsed = json.loads(text)
                parsed.pop("out")
                text = json.dumps(parsed)
            captured.append(text)
        ok &= captured[0] == captured[1]
        if payloads:
            ok &= payloads[0] == payloads[1]
    verdict(11, "determinism", ok,
            "repeated CLI runs produce byte-identical sketches and reports")
