"""Corrupted KZDS and KZOB files: every truncation, every single-bit flip
and header-field rewrites of small valid files. Only a ``KZSketchError``
may escape the loaders, and whatever loads must save back to the same
bytes."""

import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kzsketch import anglelab, geometry
from kzsketch.errors import KZSketchError

# (offset, struct code) of every header field after the magic
KZDS_FIELDS = [(4, "<H"), (6, "<Q"), (14, "<I"), (18, "<Q")]
KZOB_FIELDS = [(4, "<H"), (6, "<I"), (10, "<I")]


def _dataset_bytes(path) -> bytes:
    geometry.save_dataset(geometry.random_grid_dataset(3, 2, 16, seed=0), path)
    return path.read_bytes()


def _basis_bytes(path) -> bytes:
    anglelab.save_basis(anglelab.sample_haar_basis(3, 2, seed=1), path)
    return path.read_bytes()


FORMATS = {
    "kzds": (_dataset_bytes, geometry.load_dataset, geometry.save_dataset, KZDS_FIELDS),
    "kzob": (_basis_bytes, anglelab.load_basis, anglelab.save_basis, KZOB_FIELDS),
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
])
def test_zero_dimension_rejected(files, name, raw):
    assert not files[name][1](raw)


@pytest.mark.parametrize("name", FORMATS)
def test_trailing_bytes_rejected(files, name):
    valid, check, _ = files[name]
    assert not check(valid + b"\0")
