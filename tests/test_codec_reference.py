"""The vectorized KZSK codec against the per-field reference codec in
``kzsk_reference``, on small instances and on corrupted bytes."""

import struct
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kzsk_reference as ref
from kzsketch import codec
from kzsketch.coreset import WeightedCoreset, approx_centers
from kzsketch.errors import InvalidInput, KZSketchError, SketchFormatError
from kzsketch.geometry import GridDataset, ProblemConfig

ZS = [Fraction(1), Fraction(3, 2), Fraction(2), Fraction(3)]
EPSILONS = [0.3, 0.1, 1e-6, 1e-18]


@st.composite
def instances(draw):
    """A small coreset with centers. Covers k > n, |S| = 0, zero-weight
    codes (weights at or below eps / (4 |S|)) and zero-delta codes (coreset
    points equal to their centers)."""
    n = draw(st.integers(1, 12))
    d = draw(st.integers(1, 4))
    k = draw(st.integers(1, 6))
    delta = draw(st.sampled_from([2, 3, 16, 1024, 2 ** 20]))
    z = draw(st.sampled_from(ZS))
    eps = draw(st.sampled_from(EPSILONS))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    data = rng.integers(1, delta + 1, size=(n, d))
    if draw(st.booleans()):
        centers = approx_centers(GridDataset(data, delta), k, z, seed=1).centers
    else:
        centers = data[rng.integers(0, n, size=k)]
    s = draw(st.integers(0, n))
    pts = data[rng.choice(n, size=s, replace=False)]
    on_center = rng.random(s) < 0.3
    pts[on_center] = centers[rng.integers(0, k, size=int(on_center.sum()))]
    thr = eps / (4 * s) if s else 0.0
    weights = rng.uniform(2 * thr, n, size=s)
    weights[rng.random(s) < 0.3] = draw(st.sampled_from([0.0, thr / 2, thr]))
    config = ProblemConfig(n=n, d=d, k=k, z=z, delta=delta, epsilon=eps)
    return WeightedCoreset(pts, weights, n, eps), centers, config


def assert_same_fields(sketch, expected):
    weights, points, centers = sketch.decode()
    assert sketch.ledger == expected["ledger"]
    assert np.array_equal(centers, expected["centers"])
    assert sketch.group_sizes == expected["group_sizes"]
    assert np.array_equal(sketch.group_of, expected["group_of"])
    assert np.array_equal(weights, expected["weights"])
    assert np.array_equal(points, expected["points"])


def _oversized(config) -> bool:
    _, _, eps_q = codec.quantize_epsilon(config.epsilon)
    return codec.derive_params(eps_q, config.z, config.n, 1,
                               config.delta).oversized() is not None


class TestAgainstReference:
    @given(instances())
    @settings(max_examples=150, deadline=None)
    def test_bytes_and_fields_match(self, case):
        cs, centers, config = case
        if _oversized(config):      # eps = 1e-18 with z = 3: 64-bit fractions
            with pytest.raises(InvalidInput, match="epsilon"):
                codec.encode(cs, centers, config)
            return
        sketch = codec.encode(cs, centers, config)
        raw = ref.encode_bytes(cs, centers, config)
        assert sketch.to_bytes() == raw
        expected = ref.parse(raw)
        assert_same_fields(sketch, expected)
        assert_same_fields(codec.Sketch.from_bytes(raw), expected)

    def test_smallest_supported_epsilon_round_trips(self):
        # eps = 1e-18 gives f_x = 63, a 69-bit coordinate code
        pts = np.array([[1, 7], [3, 2], [8, 8], [5, 1]])
        cs = WeightedCoreset(pts, np.array([1.0, 0.25, 2.5, 1e-9]), 4, 1e-18)
        config = ProblemConfig(n=4, d=2, k=2, z=Fraction(2), delta=1024,
                               epsilon=1e-18)
        centers = np.array([[1, 7], [5, 1]])
        sketch = codec.encode(cs, centers, config)
        assert sketch.params.f_x == 63
        assert sketch.params.code_widths[1] == 69
        raw = ref.encode_bytes(cs, centers, config)
        assert sketch.to_bytes() == raw
        assert_same_fields(codec.Sketch.from_bytes(raw), ref.parse(raw))

    def test_too_small_epsilon_rejected_before_packing(self):
        pts = np.array([[1, 7], [3, 2]])
        cs = WeightedCoreset(pts, np.ones(2), 2, 1e-20)
        config = ProblemConfig(n=2, d=2, k=1, z=Fraction(2), delta=8,
                               epsilon=1e-20)
        with pytest.raises(InvalidInput, match="epsilon 1e-20"):
            codec.encode(cs, np.array([[1, 7]]), config)


def _valid_sketch() -> bytes:
    rng = np.random.default_rng(5)
    data = rng.integers(1, 17, size=(6, 2))
    weights = rng.uniform(0.5, 2.0, size=6)
    weights[1] = 0.0
    centers = data[[0, 3]]
    config = ProblemConfig(n=6, d=2, k=2, z=Fraction(3, 2), delta=16,
                           epsilon=0.3)
    return ref.encode_bytes(WeightedCoreset(data, weights, 6, 0.3), centers,
                            config)


VALID = _valid_sketch()
# (offset, struct code) of every header field after the magic
HEADER_FIELDS = [(4, "<H"), (6, "<I"), (10, "<I"), (14, "<I"), (18, "<I"),
                 (22, "<Q"), (30, "<b"), (31, "<3s"), (34, "<Q"), (42, "<Q"),
                 (50, "<B"), (51, "<B")]


def _parse_or_reject(raw: bytes):
    """Parse ``raw``: only a KZSketchError may escape, and whatever parses
    must agree with the reference parser."""
    try:
        sketch = codec.Sketch.from_bytes(raw)
    except KZSketchError:
        return
    assert sketch.to_bytes() == raw
    assert_same_fields(sketch, ref.parse(raw))


class TestCorruptBytes:
    def test_header_field_offsets(self):
        layout = "<4s" + "".join(fmt[1:] for _, fmt in HEADER_FIELDS)
        assert layout == codec._HEADER_FMT
        assert [off for off, _ in HEADER_FIELDS] == [
            struct.calcsize("<4s" + "".join(fmt[1:] for _, fmt in HEADER_FIELDS[:i]))
            for i in range(len(HEADER_FIELDS))]

    def test_every_truncation(self):
        for length in range(len(VALID)):
            with pytest.raises(SketchFormatError):
                codec.Sketch.from_bytes(VALID[:length])

    def test_every_single_bit_flip(self):
        for bit in range(8 * len(VALID)):
            raw = bytearray(VALID)
            raw[bit // 8] ^= 0x80 >> (bit % 8)
            _parse_or_reject(bytes(raw))

    def test_negative_weight_code_rejected(self):
        sketch = codec.Sketch.from_bytes(VALID)
        p = sketch.params
        assert not sketch._w_codes[0][0]    # the first code: a nonzero weight
        sign_bit = (8 * codec._HEADER_BYTES + 1 + sketch.k * sketch.d * p.center_width
                    + sketch.k * p.group_width)
        raw = bytearray(VALID)
        raw[sign_bit // 8] |= 0x80 >> (sign_bit % 8)
        with pytest.raises(SketchFormatError, match="negative weight code"):
            codec.Sketch.from_bytes(bytes(raw))

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_header_field_rewrites(self, data):
        off, fmt = data.draw(st.sampled_from(HEADER_FIELDS))
        size = struct.calcsize(fmt)
        value = data.draw(st.binary(min_size=size, max_size=size)
                          | st.sampled_from([b"\0" * size, b"\xff" * size,
                                             (1).to_bytes(size, "little")]))
        raw = VALID[:off] + value + VALID[off + size:]
        _parse_or_reject(raw)

    @pytest.mark.parametrize("offset, fmt, value", [
        (30, "<b", -66),          # eps = 2^-66: f_w = 68
        (22, "<Q", 2 ** 63),      # delta = 2^63: 63-bit centers
    ])
    def test_header_beyond_encoder_widths_rejected(self, offset, fmt, value):
        raw = VALID[:offset] + struct.pack(fmt, value) \
            + VALID[offset + struct.calcsize(fmt):]
        with pytest.raises(SketchFormatError, match="header field widths"):
            codec.Sketch.from_bytes(raw)
