"""Golden sketch corpus: fixed inputs whose wire bytes, ledger and decoded
arrays are pinned, so a refactor of the kernel, snapping or codec path that
changes any output bit fails here.

z = 3/2 is left out on purpose: its distances go through exp/log, whose
SIMD paths may differ by an ulp across CPUs. Grid squares and sqrt are
exact, so z in {1, 2} pins the same bytes on every IEEE-754 machine.

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

from kzsketch import codec, coreset, geometry
from kzsketch.geometry import ProblemConfig

GOLDEN = Path(__file__).with_name("golden_sketches.json")
DELTA = 1024
EPS = 0.1
# (n, d, k); the last has k > n, so approx_centers repeats centers
SHAPES = ((2000, 16, 8), (300, 5, 3), (40, 3, 64))
CASES = [(n, d, k, z, method)
         for (n, d, k), z, method in itertools.product(
             SHAPES, (1, 2), ("identity", "sensitivity"))]


def case_id(case) -> str:
    n, d, k, z, method = case
    return f"n{n}-d{d}-k{k}-z{z}-{method}"


def fingerprint(case) -> dict:
    n, d, k, z, method = case
    data = geometry.random_grid_dataset(n, d, DELTA, seed=n + d + k)
    config = ProblemConfig(n=n, d=d, k=k, z=Fraction(z), delta=DELTA, epsilon=EPS)
    centers = coreset.approx_centers(data, k, z, seed=z)
    cs = coreset.build_coreset(data, k, z, EPS, method=method, seed=z + 1,
                               centers=centers)
    sketch = codec.encode(cs, centers, config)
    weights, points, _ = sketch.decode()
    decoded = hashlib.sha256()
    for arr in (weights, points):
        decoded.update(np.ascontiguousarray(arr, dtype="<f8").tobytes())
    return {
        "has_repeats": centers.has_repeats,
        "bytes_sha256": hashlib.sha256(sketch.to_bytes()).hexdigest(),
        "ledger": sketch.ledger.as_dict(),
        "decoded_sha256": decoded.hexdigest(),
    }


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("case", CASES, ids=case_id)
def test_sketch_matches_golden(golden, case):
    assert fingerprint(case) == golden[case_id(case)]


def test_corpus_covers_repeated_centers(golden):
    assert any(golden[case_id(c)]["has_repeats"] for c in CASES)


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps({case_id(c): fingerprint(c) for c in CASES},
                                 indent=1, sort_keys=True) + "\n")
