"""Golden sketch corpus: fixed inputs whose wire bytes, ledger and decoded
arrays are pinned, so a refactor of the kernel, snapping or codec path that
changes any output bit fails here. At delta = 1024 exact grid coordinates
are the cheaper form; the delta = 2^24 cases pin the quantized one. Each case
also pins the sketch's estimates of a fixed query list (integral and
jittered center sets, a one-center set and a set with a duplicated center),
so a change to how ``estimate_cost`` reaches the kernel must keep every
estimate bit for bit. A
second corpus pins the wire bytes of the coordinator's sites and of the
stream's live sketches, including the stream's level-0 reductions, with
the stream's resident-bits maximum and the formula value at that moment.

z = 3/2 is left out on purpose: its distances go through exp/log, whose
SIMD paths may differ by an ulp across CPUs. Grid squares and sqrt are
exact, so z in {1, 2} pins the same bytes on every IEEE-754 machine.

``golden_v1/`` holds the wire bytes of the v1 corpus with their pinned
fingerprints, and ``golden_v2/`` those of both corpora as version 2 wrote
them before ``SORTED_FIRST``: each group's rows in coreset order, every grid
value in full. They are parse-only fixtures: today's reader must still
decode them to the same ledgers and arrays. Nothing here rewrites them.

Regenerate (only when a format change is intended) with
``PYTHONPATH=src python tests/test_golden.py``.
"""

import hashlib
import itertools
import json
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import kzsk_reference as ref
from kzsketch import codec, coreset, distsim, geometry
from kzsketch.geometry import GridDataset, ProblemConfig

GOLDEN = Path(__file__).with_name("golden_sketches.json")
GOLDEN_DISTSIM = Path(__file__).with_name("golden_distsim.json")
GOLDEN_V1 = Path(__file__).with_name("golden_v1")
V1_FINGERPRINTS = json.loads((GOLDEN_V1 / "fingerprints.json").read_text())
GOLDEN_V2 = Path(__file__).with_name("golden_v2")
V2_FINGERPRINTS = json.loads((GOLDEN_V2 / "fingerprints.json").read_text())
DELTA = 1024
EPS = 0.1
# (n, d, k, delta); (40, 3, 64) has k > n, so approx_centers repeats centers
SHAPES = ((2000, 16, 8, DELTA), (300, 5, 3, DELTA), (40, 3, 64, DELTA),
          (300, 5, 3, 2 ** 24))
CASES = [(n, d, k, z, method, delta)
         for (n, d, k, delta), z, method in itertools.product(
             SHAPES, (1, 2), ("identity", "sensitivity"))]


def case_id(case) -> str:
    n, d, k, z, method, delta = case
    return f"n{n}-d{d}-k{k}-z{z}-{method}" + ("" if delta == DELTA else f"-delta{delta}")


def dataset(case) -> GridDataset:
    n, d, k, _, _, delta = case
    return geometry.random_grid_dataset(n, d, delta, seed=n + d + k)


def encoded(case):
    """(approximate centers, coreset, sketch) of one case."""
    n, d, k, z, method, delta = case
    data = dataset(case)
    config = ProblemConfig(n=n, d=d, k=k, z=Fraction(z), delta=delta, epsilon=EPS)
    centers = coreset.approx_centers(data, k, z, seed=z)
    cs = coreset.build_coreset(data, k, z, EPS, method=method, seed=z + 1,
                               centers=centers)
    return centers, cs, codec.encode(cs, centers, config)


def queries(data: GridDataset) -> list:
    """Two integral and two jittered 5-center sets (the alternation of
    ``random_center_sets``), a one-center set and an integral set whose
    first center is repeated at the end."""
    sets = [q.centers for q in geometry.random_center_sets(data, 5, 4, seed=77)]
    one = geometry.random_center_sets(data, 1, 1, seed=78)[0].centers
    return sets + [one, np.vstack([sets[0], sets[0][:1]])]


def fingerprint(case) -> dict:
    centers, _, sketch = encoded(case)
    return {"has_repeats": centers.has_repeats,
            "exact_coordinates": sketch.exact_coordinates,
            "unit_weights": sketch.unit_weights,
            "sorted_first": ref.sorted_first(sketch),
            "estimates": [sketch.estimate_cost(q).hex() for q in queries(dataset(case))],
            **wire_fingerprint(sketch)}


def wire_fingerprint(sketch) -> dict:
    weights, points, _ = sketch.decode()
    decoded = hashlib.sha256()
    for arr in (weights, points):
        decoded.update(np.ascontiguousarray(arr, dtype="<f8").tobytes())
    return {
        "bytes_sha256": hashlib.sha256(sketch.to_bytes()).hexdigest(),
        "ledger": sketch.ledger.as_dict(),
        "decoded_sha256": decoded.hexdigest(),
    }


def _two_point_dataset() -> GridDataset:
    """60 copies of two grid points: with k = 2 every distance to the
    approximate centers is 0, so the sampler takes its zero-total branch."""
    rows = np.array([[3, 7, 1], [40, 2, 9]], dtype=np.int64)
    return GridDataset(rows[np.arange(60) % 2], 64)


def _one_point_per_block_dataset() -> GridDataset:
    """Three far-apart grid points, each repeated for one 200-point block:
    every block sketch is tiny, but their union under k = 1 is not, so the
    stream's resident maximum falls right after its one reduction."""
    rows = np.array([[3, 900], [512, 17], [1000, 640]], dtype=np.int64)
    return GridDataset(np.repeat(rows, 200, axis=0), 1024)


# (name, dataset, k, z, eps, seed, method, sites)
COORDINATOR_CASES = [
    ("coord-n900-z2-identity", lambda: geometry.random_grid_dataset(900, 6, 256, seed=41),
     3, 2, 0.15, 7, "identity", 4),
    ("coord-n900-z2-sensitivity", lambda: geometry.random_grid_dataset(900, 6, 256, seed=41),
     3, 2, 0.15, 7, "sensitivity", 4),
    ("coord-n1200-z1-sensitivity", lambda: geometry.random_grid_dataset(1200, 4, 1024, seed=42),
     4, 1, 0.1, 3, "sensitivity", 3),
    ("coord-twopoint-z2-sensitivity", _two_point_dataset, 2, 2, 0.2, 5, "sensitivity", 2),
]
# (name, dataset, k, z, eps, seed, method, block, cap)
STREAM_CASES = [
    ("stream-n1500-z2-sensitivity", lambda: geometry.random_grid_dataset(1500, 5, 128, seed=43),
     3, 2, 0.2, 11, "sensitivity", 100, 3),
    ("stream-n2000-z1-sensitivity", lambda: geometry.random_grid_dataset(2000, 4, 512, seed=44),
     2, 1, 0.3, 12, "sensitivity", 90, 4),
    ("stream-n1500-z2-identity", lambda: geometry.random_grid_dataset(1500, 5, 128, seed=43),
     3, 2, 0.2, 11, "identity", 100, 3),
    ("stream-twopoint-z2-sensitivity", _two_point_dataset, 2, 2, 0.2, 13, "sensitivity", 6, 2),
    # its resident maximum falls at a full buffer, just before a flush, as
    # the n1500 and n2000 sensitivity cases' do; the n1500 identity and
    # two-point cases peak right after a flush
    ("stream-n5000-z2-fullbuffer", lambda: geometry.random_grid_dataset(5000, 2, 256, seed=45),
     1, 2, 0.9, 14, "sensitivity", 1000, 2),
    # the only case whose resident maximum falls right after a reduction
    ("stream-blockpoints-z2-identity", _one_point_per_block_dataset,
     1, 2, 0.1, 15, "identity", 200, 3),
]


def _sha256(wires) -> list:
    return [hashlib.sha256(w).hexdigest() for w in wires]


def coordinator_fingerprint(case) -> dict:
    _, make, k, z, eps, seed, method, sites = case
    partition = distsim.split_round_robin(make(), sites)
    merged, ledger = distsim.run_coordinator(partition, k, z, eps, seed, method=method)
    return {"wires_sha256": _sha256(s.to_bytes() for s in merged.sketches),
            "per_site_bits": ledger.per_site_bits}


def stream_fingerprint(case) -> dict:
    _, make, k, z, eps, seed, method, block, cap = case
    result = distsim.run_stream(make(), k, z, eps, block, seed, method=method,
                                level0_cap=cap)
    return {"sketches_sha256": _sha256(s.to_bytes() for s in result.sketches),
            "blocks": result.blocks, "reductions": result.reductions,
            "max_resident_bits": result.max_resident_bits,
            "formula_bits_at_max": result.formula_bits_at_max}


def distsim_corpus() -> dict:
    out = {c[0]: coordinator_fingerprint(c) for c in COORDINATOR_CASES}
    out.update({c[0]: stream_fingerprint(c) for c in STREAM_CASES})
    return out


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.fixture(scope="module")
def golden_distsim():
    return json.loads(GOLDEN_DISTSIM.read_text())


@pytest.mark.parametrize("case", CASES, ids=case_id)
def test_sketch_matches_golden(golden, case):
    assert fingerprint(case) == golden[case_id(case)]


@pytest.mark.parametrize("name", sorted(V1_FINGERPRINTS))
def test_v1_fixture_parses_to_pinned_fingerprint(name):
    raw = (GOLDEN_V1 / f"{name}.kzsk").read_bytes()
    sketch = codec.Sketch.from_bytes(raw)
    pinned = dict(V1_FINGERPRINTS[name])
    del pinned["has_repeats"]
    assert wire_fingerprint(sketch) == pinned
    assert 0 <= 8 * len(raw) - sketch.ledger.total_bits <= 7


@pytest.mark.parametrize("name", sorted(V2_FINGERPRINTS))
def test_unsorted_v2_fixture_parses_to_pinned_fingerprint(name):
    raw = (GOLDEN_V2 / f"{name}.kzsk").read_bytes()
    sketch = codec.Sketch.from_bytes(raw)
    assert sketch.version == 2 and not ref.sorted_first(sketch)
    assert wire_fingerprint(sketch) == V2_FINGERPRINTS[name]
    assert 0 <= 8 * len(raw) - sketch.ledger.total_bits <= 7


@pytest.mark.parametrize("case", CASES, ids=case_id)
def test_sketch_meets_the_wire_contract(case):
    n, d, k, z, _, delta = case
    centers, cs, sketch = encoded(case)
    raw = sketch.to_bytes()
    reopened = codec.Sketch.from_bytes(raw)
    assert reopened.ledger == sketch.ledger
    assert 0 <= 8 * len(raw) - sketch.ledger.total_bits <= 7
    assert sketch.ledger.total_bits <= codec.theoretical_upper_bound(
        n, k, d, delta, EPS, z, cs.size, sketch.unit_weights)
    if sketch.exact_coordinates:
        order = ref.row_order(cs.points, centers, ref.sorted_first(sketch))
        assert np.array_equal(reopened.decode()[1], cs.points[order])


def test_corpus_covers_repeated_centers(golden):
    assert any(golden[case_id(c)]["has_repeats"] for c in CASES)


def test_corpus_covers_every_v2_mode(golden):
    modes = {(golden[case_id(c)]["exact_coordinates"], golden[case_id(c)]["unit_weights"],
              golden[case_id(c)]["sorted_first"]) for c in CASES}
    assert {mode[:2] for mode in modes} == {(True, True), (True, False),
                                            (False, True), (False, False)}
    assert {(True, True, True), (True, False, True)} <= modes


@pytest.mark.parametrize("case", COORDINATOR_CASES, ids=lambda c: c[0])
def test_coordinator_matches_golden(golden_distsim, case):
    assert coordinator_fingerprint(case) == golden_distsim[case[0]]


@pytest.mark.parametrize("case", STREAM_CASES, ids=lambda c: c[0])
def test_stream_matches_golden(golden_distsim, case):
    assert stream_fingerprint(case) == golden_distsim[case[0]]


def test_stream_corpus_covers_repeated_reductions(golden_distsim):
    for name, *_, method, _block, _cap in STREAM_CASES:
        if method == "sensitivity":
            assert golden_distsim[name]["reductions"] >= 2, name


if __name__ == "__main__":
    # golden_v1/ is frozen: this writes the current version's corpora only
    GOLDEN.write_text(json.dumps({case_id(c): fingerprint(c) for c in CASES},
                                 indent=1, sort_keys=True) + "\n")
    GOLDEN_DISTSIM.write_text(json.dumps(distsim_corpus(), indent=1,
                                         sort_keys=True) + "\n")
