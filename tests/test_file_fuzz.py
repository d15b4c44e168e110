"""Corrupted KZDS, KZOB and KZSK files: every truncation, every
single-bit flip and header-field rewrites of small valid files. Only a
``KZSketchError`` may escape the loaders, and whatever loads must save back
to the same bytes. The KZSK files store their first coordinates under
``SORTED_FIRST``, as an Elias-Fano section, one of them with grid values of
64 bits. Two hold a zero weight code in their only row block, whose rows
the parser reads from a masked bit matrix; the third holds none, so its
rows are read in place, the last of them from a padded copy."""

import os
import struct
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kzsketch
from kzsketch import anglelab, codec, geometry
from kzsketch.coreset import WeightedCoreset
from kzsketch.errors import KZSketchError
from kzsketch.geometry import ProblemConfig

# (offset, struct code) of every header field after the magic
KZDS_FIELDS = [(4, "<H"), (6, "<Q"), (14, "<I"), (18, "<Q")]
KZOB_FIELDS = [(4, "<H"), (6, "<I"), (10, "<I")]
# version, k, d, delta, n, |S| and the flags byte
KZSK_FIELDS = [(4, "<H"), (6, "<I"), (10, "<I"), (22, "<Q"), (34, "<Q"), (42, "<Q"),
               (52, "<B")]


def _dataset_bytes(path) -> bytes:
    geometry.save_dataset(geometry.random_grid_dataset(3, 2, 16, seed=0), path)
    return path.read_bytes()


def _basis_bytes(path) -> bytes:
    anglelab.save_basis(anglelab.sample_haar_basis(3, 2, seed=1), path)
    return path.read_bytes()


def _sketch_bytes(path, delta: int = 16, eps: float = 0.3, rows: int = 24,
                  zero: bool = True) -> bytes:
    # 24 rows in 2 groups, at delta = 16: L = 1, H = 8, and a zero weight
    rng = np.random.default_rng(2)
    pts = rng.integers(1, delta + 1, size=(rows, 2))
    weights = rng.uniform(0.5, 2.0, size=rows)
    if zero:
        weights[5] = 0.0
    config = ProblemConfig(n=rows, d=2, k=2, z=Fraction(2), delta=delta, epsilon=eps)
    sketch = codec.encode(WeightedCoreset(pts, weights, rows), pts[[0, 12]], config)
    raw = sketch.to_bytes()
    assert raw[52] == codec.EXACT_COORDINATES | codec.SORTED_FIRST
    assert sketch._zero.any() == zero
    path.write_bytes(raw)
    return raw


def _wide_sketch_bytes(path) -> bytes:
    # at delta = 2^33 + 1 grid values take 34 bits, kept as uint64: L = 29,
    # H = 17
    return _sketch_bytes(path, delta=2 ** 33 + 1, eps=1e-9)


def _full_width_sketch_bytes(path) -> bytes:
    # 21 rows, not a multiple of 8, and no zero weight: L = 0, H = 16
    return _sketch_bytes(path, rows=21, zero=False)


def _load_sketch(path) -> codec.Sketch:
    return codec.Sketch.from_bytes(path.read_bytes())


def _save_sketch(sketch: codec.Sketch, path) -> None:
    path.write_bytes(sketch.to_bytes())


FORMATS = {
    "kzds": (_dataset_bytes, geometry.load_dataset, geometry.save_dataset, KZDS_FIELDS),
    "kzob": (_basis_bytes, anglelab.load_basis, anglelab.save_basis, KZOB_FIELDS),
    "kzsk": (_sketch_bytes, _load_sketch, _save_sketch, KZSK_FIELDS),
    "kzsk-wide": (_wide_sketch_bytes, _load_sketch, _save_sketch, KZSK_FIELDS),
    "kzsk-full-width": (_full_width_sketch_bytes, _load_sketch, _save_sketch, KZSK_FIELDS),
}


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """Per format: the valid bytes and a loader check for arbitrary bytes."""
    root = tmp_path_factory.mktemp("fuzz")
    out = {}
    for name, (make, load, save, fields) in FORMATS.items():
        path, back = root / f"in.{name}", root / f"out.{name}"

        def check(raw: bytes, load=load, save=save, path=path, back=back):
            path.write_bytes(raw)
            try:
                obj = load(path)
            except KZSketchError:
                return False
            save(obj, back)
            assert back.read_bytes() == raw
            return True

        out[name] = make(root / f"valid.{name}"), check, fields
    return out


@pytest.mark.parametrize("name", FORMATS)
def test_every_truncation(files, name):
    valid, check, _ = files[name]
    assert check(valid)
    assert not any(check(valid[:length]) for length in range(len(valid)))


@pytest.mark.parametrize("name", FORMATS)
def test_every_single_bit_flip(files, name):
    valid, check, _ = files[name]
    for bit in range(8 * len(valid)):
        raw = bytearray(valid)
        raw[bit // 8] ^= 0x80 >> (bit % 8)
        check(bytes(raw))


def _rewrite(data, valid: bytes, fields) -> bytes:
    """Overwrite one or two header fields with drawn bytes."""
    raw = bytearray(valid)
    for off, fmt in data.draw(st.lists(st.sampled_from(fields), min_size=1,
                                       max_size=2, unique=True)):
        size = struct.calcsize(fmt)
        raw[off:off + size] = data.draw(
            st.binary(min_size=size, max_size=size)
            | st.sampled_from([b"\0" * size, b"\xff" * size,
                               (1).to_bytes(size, "little"),
                               (1 << (8 * size - 1)).to_bytes(size, "little")]))
    return bytes(raw)


@pytest.mark.parametrize("name", FORMATS)
@given(data=st.data())
@settings(max_examples=200, deadline=None)
def test_header_field_rewrites(files, name, data):
    valid, check, fields = files[name]
    check(_rewrite(data, valid, fields))


@pytest.mark.parametrize("name, raw", [
    ("kzds", geometry.DATASET_MAGIC + struct.pack("<HQIQ", 1, 2 ** 63, 0, 16)),
    ("kzob", anglelab.BASIS_MAGIC + struct.pack("<HII", 1, 3, 0)),
    ("kzsk", struct.pack(codec._HEADER_FMT, codec.SKETCH_MAGIC, 2, 2, 0, 2, 1, 16, -2,
                         bytes(3), 4, 0, 5, 3) + bytes([codec.EXACT_COORDINATES])),
])
def test_zero_dimension_rejected(files, name, raw):
    assert not files[name][1](raw)


@pytest.mark.parametrize("name", FORMATS)
def test_trailing_bytes_rejected(files, name):
    valid, check, _ = files[name]
    assert not check(valid + b"\0")


def test_sorted_first_section_of_a_huge_header_rejected_in_bounded_memory(tmp_path):
    # k = 2^32 - 1 under SORTED_FIRST: the centers and the section's k H
    # bits would take gigabytes if the parser allocated before checking the
    # payload length. The child runs under a 1 GiB address-space cap, so a
    # regression fails, not swaps
    resource = pytest.importorskip("resource")
    src = str(Path(kzsketch.__file__).resolve().parents[1])
    path = tmp_path / "huge.kzsk"
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    script = (
        "import struct, sys\n"
        "from fractions import Fraction\n"
        "from kzsketch import codec\n"
        "from kzsketch.errors import SketchFormatError\n"
        "k, n = 2 ** 32 - 1, 4000\n"
        "expo, frac, eps = codec.quantize_epsilon(0.25)\n"
        "p = codec.derive_params(eps, Fraction(2), n, n, 1024)\n"
        "raw = struct.pack(codec._HEADER_FMT, b'KZSK', 2, k, 1, 2, 1, 1024, expo,\n"
        "                  frac.to_bytes(3, 'little'), n, n, p.w_expo_width,\n"
        "                  p.x_expo_width)\n"
        "raw += bytes([codec.EXACT_COORDINATES | codec.SORTED_FIRST]) + bytes(64)\n"
        "open(sys.argv[1], 'wb').write(raw)\n"
        "try:\n"
        "    codec.Sketch.from_bytes(raw)\n"
        "except SketchFormatError as exc:\n"
        "    print(exc)\n")

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    proc = subprocess.run([sys.executable, "-c", script, str(path)], env=env,
                          preexec_fn=cap, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("payload of 512 bits cannot hold")
    proc = subprocess.run([sys.executable, "-m", "kzsketch.cli", "size",
                           "--sketch", str(path)], env=env, preexec_fn=cap,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: payload of 512 bits")
