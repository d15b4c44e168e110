"""Reference KZSK v1 codec: a per-field bit writer and reader.

It is slow and simple on purpose: every scalar is quantized and decoded on
its own, and every field is written and read one at a time, MSB first, in
wire order. Tests compare the library's bytes and parsed fields with this
oracle; it shares only the scalar quantizer (``encode_scalar`` and
``decode_scalar``), the parameter derivation, the nearest-center assignment
and the header layout with the library.
"""

from __future__ import annotations

import struct

import numpy as np

from kzsketch import codec, geometry
from kzsketch.errors import InvalidInput, SketchFormatError


class BitWriter:
    """Append integer fields MSB-first; final byte zero-padded."""

    def __init__(self):
        self._bytes = bytearray()
        self._acc = 0
        self._nbits = 0

    def write(self, value: int, nbits: int):
        if nbits == 0:
            if value != 0:
                raise InvalidInput("cannot store a nonzero value in 0 bits")
            return
        if value < 0 or value >> nbits:
            raise InvalidInput(f"value {value} does not fit in {nbits} bits")
        self._acc = (self._acc << nbits) | value
        self._nbits += nbits
        while self._nbits >= 8:
            self._nbits -= 8
            self._bytes.append((self._acc >> self._nbits) & 0xFF)
            self._acc &= (1 << self._nbits) - 1

    def getvalue(self) -> bytes:
        out = bytearray(self._bytes)
        if self._nbits:
            out.append((self._acc << (8 - self._nbits)) & 0xFF)
        return bytes(out)


class BitReader:
    """Consume integer fields MSB-first from a byte string."""

    def __init__(self, data: bytes):
        self._data = data
        self._pos = 0
        self._acc = 0
        self._nav = 0

    @property
    def bits_consumed(self) -> int:
        return 8 * self._pos - self._nav

    def read(self, nbits: int) -> int:
        if nbits == 0:
            return 0
        while self._nav < nbits:
            if self._pos >= len(self._data):
                raise SketchFormatError("payload ends early",
                                        bit_offset=self.bits_consumed)
            self._acc = (self._acc << 8) | self._data[self._pos]
            self._pos += 1
            self._nav += 8
        self._nav -= nbits
        value = self._acc >> self._nav
        self._acc &= (1 << self._nav) - 1
        return value


def encode_bytes(coreset, centers, config) -> bytes:
    """The v1 wire bytes of ``codec.encode(coreset, centers, config)``,
    written field by field. Inputs must be valid; only the packing differs
    from the library."""
    cen = np.asarray(getattr(centers, "centers", centers)).astype(np.int64)
    pts = coreset.points
    eps_expo, eps_frac, eps_q = codec.quantize_epsilon(config.epsilon)
    s = coreset.size
    p = codec.derive_params(eps_q, config.z, config.n, s, config.delta)

    writer = BitWriter()
    for l in range(config.k):
        for i in range(config.d):
            writer.write(int(cen[l, i]) - 1, p.center_width)
    if s:
        assign = geometry.nearest_assignment(pts, cen.astype(np.float64))
        order = np.argsort(assign, kind="stable")
        group_sizes = np.bincount(assign, minlength=config.k)
    else:
        assign = order = np.zeros(0, dtype=np.int64)
        group_sizes = np.zeros(config.k, dtype=np.int64)
    for l in range(config.k):
        writer.write(int(group_sizes[l]), p.group_width)

    for row in order:
        w = codec.encode_scalar(float(coreset.weights[row]), p.f_w,
                                p.weight_zero_threshold)
        if w.is_zero:
            writer.write(1, 1)
        else:
            writer.write((w.expo - p.w_expo_min) << p.f_w | w.fraction,
                         2 + p.w_expo_width + p.f_w)
        for i in range(config.d):
            x = codec.encode_scalar(float(pts[row, i] - cen[assign[row], i]), p.f_x)
            if x.is_zero:
                writer.write(1, 1)
            else:
                writer.write((x.sign << p.x_expo_width | x.expo) << p.f_x
                             | x.fraction, 2 + p.x_expo_width + p.f_x)

    header = struct.pack(codec._HEADER_FMT, codec.SKETCH_MAGIC,
                         codec.SKETCH_VERSION, config.k, config.d,
                         config.z.numerator, config.z.denominator,
                         config.delta, eps_expo, eps_frac.to_bytes(3, "little"),
                         config.n, s, p.w_expo_width, p.x_expo_width)
    return header + writer.getvalue()


def _read_code(reader: BitReader, expo_width: int, f: int):
    if reader.read(1):
        return True, 0, 0, 0, 1
    sign = reader.read(1)
    expo = reader.read(expo_width)
    frac = reader.read(f)
    return False, sign, expo, frac, 2 + expo_width + f


def parse(data: bytes) -> dict:
    """Parse v1 bytes field by field. The header goes through the library's
    header parser; the payload is read here. Returns the parsed fields."""
    sk = codec.Sketch.__new__(codec.Sketch)
    sk._data = bytes(data)
    sk._parse_header()
    p, k, d, s = sk.params, sk.k, sk.d, sk.coreset_size
    reader = BitReader(sk._data[codec._HEADER_BYTES:])
    centers = np.array([[reader.read(p.center_width) + 1 for _ in range(d)]
                        for _ in range(k)], dtype=np.int64).reshape(k, d)
    group_sizes = [reader.read(p.group_width) for _ in range(k)]
    if sum(group_sizes) != s:
        raise SketchFormatError(
            f"group sizes sum to {sum(group_sizes)}, header says {s}",
            bit_offset=reader.bits_consumed)

    w_codes = np.zeros((4, s), dtype=np.int64)
    x_codes = np.zeros((4, s, d), dtype=np.int64)
    weight_bits = coordinate_bits = 0
    for row in range(s):
        zero, sign, expo, frac, used = _read_code(reader, p.w_expo_width, p.f_w)
        if not zero and sign:
            raise SketchFormatError("negative weight code",
                                    bit_offset=reader.bits_consumed)
        w_codes[:, row] = zero, sign, expo, frac
        weight_bits += used
        for i in range(d):
            zero, sign, expo, frac, used = _read_code(reader, p.x_expo_width, p.f_x)
            x_codes[:, row, i] = zero, sign, expo, frac
            coordinate_bits += used

    w_live = w_codes[0] == 0
    if w_live.any() and w_codes[2][w_live].max() > p.w_expo_max - p.w_expo_min:
        raise SketchFormatError("weight exponent field exceeds the declared range")
    x_live = x_codes[0] == 0
    if x_live.any() and x_codes[2][x_live].max() > p.x_expo_max:
        raise SketchFormatError("coordinate exponent field exceeds the declared range")
    payload_bits = reader.bits_consumed
    expected_len = codec._HEADER_BYTES + (payload_bits + 7) // 8
    if len(sk._data) != expected_len:
        raise SketchFormatError(
            f"trailing bytes: file has {len(sk._data)}, format needs {expected_len}",
            bit_offset=payload_bits)

    weights = np.array([codec.decode_scalar(codec.ScalarCode(
        bool(zero), 0, int(expo) + p.w_expo_min, int(frac)), p.f_w)
        for zero, _, expo, frac in w_codes.T])
    deltas = np.array([[codec.decode_scalar(codec.ScalarCode(
        bool(zero), int(sign), int(expo), int(frac)), p.f_x)
        for zero, sign, expo, frac in row] for row in x_codes.transpose(1, 2, 0)])
    group_of = np.repeat(np.arange(k), group_sizes)
    return {
        "centers": centers,
        "group_sizes": group_sizes,
        "group_of": group_of,
        "weights": weights,
        "points": centers[group_of] + deltas.reshape(s, d),
        "ledger": codec.BitLedger(
            header_bits=codec.HEADER_FIXED_BITS + k * p.group_width,
            center_bits=k * d * p.center_width,
            weight_bits=weight_bits, coordinate_bits=coordinate_bits),
    }
