"""Reference KZSK codec: a per-field bit writer (version 2) and reader
(versions 1 and 2), the Elias-Fano section of ``SORTED_FIRST`` included.

It is slow and simple on purpose: every scalar is quantized and decoded on
its own, in integer arithmetic, and every field is written and read one at
a time, MSB first, in wire order. Tests compare the library's bytes and
parsed fields with this oracle; it shares only the parameter derivation,
the nearest-center assignment, the header layout and (in :func:`parse`) the
header parser with the library.
"""

from __future__ import annotations

import math
import struct

import numpy as np

from kzsketch import codec, geometry
from kzsketch.errors import InvalidInput, SketchFormatError


def quantize(value: float, f: int, zero_threshold: float = 0.0):
    """(is_zero, sign, expo, fraction) of one value with an f-bit fraction:
    zero at or below the threshold, else the nearest (1 + fraction/2^f) *
    2^expo, ties to even, a fraction of 2^f carried into the exponent."""
    if abs(value) <= zero_threshold:
        return True, 0, 0, 0
    m, e = math.frexp(abs(value))
    mantissa = int(m * 2.0 ** 53) - (1 << 52)     # 52 exact fraction bits
    shift = 52 - f
    if shift <= 0:
        fraction = mantissa << -shift
    else:
        fraction, rest = divmod(mantissa, 1 << shift)
        half = 1 << (shift - 1)
        fraction += rest > half or (rest == half and fraction % 2 == 1)
    expo = e - 1
    if fraction == 1 << f:
        expo, fraction = expo + 1, 0
    return False, int(value < 0), expo, fraction


def dequantize(code, f: int) -> float:
    """The exact value of a :func:`quantize` code."""
    is_zero, sign, expo, fraction = code
    if is_zero:
        return 0.0
    magnitude = math.ldexp((1 << f) + fraction, expo - f)
    return -magnitude if sign else magnitude


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


def row_order(points, centers, by_first: bool = False) -> np.ndarray:
    """Coreset row of each encoded row: rows are grouped by nearest center
    (lowest index on ties) and keep their coreset order within a group,
    or with ``by_first`` (a ``SORTED_FIRST`` sketch) are ordered within it
    by their first coordinate, ties in coreset order."""
    cen = np.asarray(getattr(centers, "centers", centers), dtype=np.float64)
    assign = geometry.nearest_assignment(points, cen)
    keys = [(int(a), int(p[0]) if by_first else 0, row)
            for row, (a, p) in enumerate(zip(assign, points))]
    return np.array([row for *_, row in sorted(keys)], dtype=np.int64)


def sorted_first(sketch) -> bool:
    """Whether a sketch's flags byte has ``SORTED_FIRST``."""
    flags_byte = struct.calcsize(codec._HEADER_FMT)
    return sketch.version == 2 and bool(sketch.to_bytes()[flags_byte] & codec.SORTED_FIRST)


def first_split(s: int, k: int, delta: int) -> tuple[int, int]:
    """(L, H) of the first coordinates' code: a row keeps the low L bits of
    its first grid value, and H = ceil(delta / 2^L) buckets per group count
    the high parts in unary. L is the smallest that minimizes s L + k H over
    L = 0 .. ceil(log2 delta)."""
    best = None
    for low in range((delta - 1).bit_length() + 1):
        buckets = -(-delta // 2 ** low)
        if best is None or s * low + k * buckets < best[0]:
            best = (s * low + k * buckets, low, buckets)
    return best[1], best[2]


def encode_bytes(coreset, centers, config) -> bytes:
    """The v2 wire bytes of ``codec.encode(coreset, centers, config)``,
    written field by field. Inputs must be valid; only the packing differs
    from the library."""
    cen = np.asarray(getattr(centers, "centers", centers)).astype(np.int64)
    pts = coreset.points
    eps_code = quantize(config.epsilon, codec._EPS_FRAC_BITS)
    _, _, eps_expo, eps_frac = eps_code
    eps_q = dequantize(eps_code, codec._EPS_FRAC_BITS)
    s = coreset.size
    p = codec.derive_params(eps_q, config.z, config.n, s, config.delta)

    writer = BitWriter()
    for l in range(config.k):
        for i in range(config.d):
            writer.write(int(cen[l, i]) - 1, p.center_width)
    assign = geometry.nearest_assignment(pts, cen.astype(np.float64))
    group_sizes = np.bincount(assign, minlength=config.k)
    for l in range(config.k):
        writer.write(int(group_sizes[l]), p.group_width)

    x_codes = {(row, i): quantize(float(pts[row, i] - cen[assign[row], i]), p.f_x)
               for row in range(s) for i in range(config.d)}
    quantized_bits = sum(1 if x[0] else p.code_widths[1] for x in x_codes.values())
    low, buckets = first_split(s, config.k, config.delta)
    first_bits = s + config.k * buckets + s * low
    sort_first = first_bits < s * p.center_width
    grid_bits = s * config.d * p.center_width
    if sort_first:
        grid_bits += first_bits - s * p.center_width
    exact = grid_bits < quantized_bits
    sort_first = sort_first and exact
    unit = all(coreset.weights[row] == 1.0 for row in range(s))
    order = row_order(pts, cen, sort_first)
    if sort_first:
        for l in range(config.k):
            highs = [(int(pts[row, 0]) - 1) >> low for row in order if assign[row] == l]
            for bucket in range(buckets):
                for _ in range(highs.count(bucket)):
                    writer.write(1, 1)
                writer.write(0, 1)
    for row in order:
        if not unit:
            w_zero, _, w_expo, w_frac = quantize(float(coreset.weights[row]), p.f_w,
                                                 p.weight_zero_threshold)
            if w_zero:
                writer.write(1, 1)
            else:
                writer.write((w_expo - p.w_expo_min) << p.f_w | w_frac,
                             2 + p.w_expo_width + p.f_w)
        for i in range(config.d):
            x_zero, x_sign, x_expo, x_frac = x_codes[row, i]
            if sort_first and i == 0:
                writer.write((int(pts[row, 0]) - 1) % 2 ** low, low)
            elif exact:
                writer.write(int(pts[row, i]) - 1, p.center_width)
            elif x_zero:
                writer.write(1, 1)
            else:
                writer.write((x_sign << p.x_expo_width | x_expo) << p.f_x
                             | x_frac, 2 + p.x_expo_width + p.f_x)

    header = struct.pack(codec._HEADER_FMT, codec.SKETCH_MAGIC, 2,
                         config.k, config.d,
                         config.z.numerator, config.z.denominator,
                         config.delta, eps_expo, eps_frac.to_bytes(3, "little"),
                         config.n, s, p.w_expo_width, p.x_expo_width)
    flags = codec.EXACT_COORDINATES * exact | codec.UNIT_WEIGHTS * unit \
        | codec.SORTED_FIRST * sort_first
    return header + bytes([flags]) + writer.getvalue()


def _read_code(reader: BitReader, expo_width: int, f: int):
    if reader.read(1):
        return True, 0, 0, 0, 1
    sign = reader.read(1)
    expo = reader.read(expo_width)
    frac = reader.read(f)
    return False, sign, expo, frac, 2 + expo_width + f


def parse(data: bytes) -> dict:
    """Parse v1 or v2 bytes field by field. The header goes through the
    library's header parser; the payload, the Elias-Fano section included,
    is read here. Returns the parsed fields."""
    sk = codec.Sketch.__new__(codec.Sketch)
    sk._data = bytes(data)
    sk._parse_header()
    p, k, d, s = sk.params, sk.k, sk.d, sk.coreset_size
    header_bytes = struct.calcsize(codec._HEADER_FMT) + (sk.version == 2)
    reader = BitReader(sk._data[header_bytes:])
    centers = np.array([[reader.read(p.center_width) + 1 for _ in range(d)]
                        for _ in range(k)], dtype=np.int64).reshape(k, d)
    group_sizes = [reader.read(p.group_width) for _ in range(k)]
    if sum(group_sizes) != s:
        raise SketchFormatError(
            f"group sizes sum to {sum(group_sizes)}, header says {s}",
            bit_offset=reader.bits_consumed)
    sort_first = sorted_first(sk)
    # per row, the high part of its first grid value
    highs = []
    weight_bits = coordinate_bits = 0
    if sort_first:
        low, buckets = first_split(s, k, sk.delta)
        for size in group_sizes:
            group, bucket = [], 0
            while bucket < buckets:
                if reader.read(1):
                    group.append(bucket)
                else:
                    bucket += 1
            if len(group) != size:
                raise SketchFormatError("a group's span of the first-coordinate "
                                        "section does not hold exactly its rows' ones")
            highs += group
        coordinate_bits += s + k * buckets

    # rows of (zero, sign, expo, fraction); a unit weight is the code of 1.0
    w_codes = np.zeros((4, s), dtype=np.int64)
    w_codes[2] = -p.w_expo_min
    x_codes = np.zeros((4, s, d), dtype=np.int64)
    grid = np.zeros((s, d), dtype=np.int64)
    for row in range(s):
        if not sk.unit_weights:
            zero, sign, expo, frac, used = _read_code(reader, p.w_expo_width, p.f_w)
            if not zero and sign:
                raise SketchFormatError("negative weight code",
                                        bit_offset=reader.bits_consumed)
            w_codes[:, row] = zero, sign, expo, frac
            weight_bits += used
        for i in range(d):
            if sort_first and i == 0:
                grid[row, 0] = (highs[row] << low) + reader.read(low) + 1
                coordinate_bits += low
            elif sk.exact_coordinates:
                grid[row, i] = reader.read(p.center_width) + 1
                coordinate_bits += p.center_width
            else:
                zero, sign, expo, frac, used = _read_code(reader, p.x_expo_width, p.f_x)
                x_codes[:, row, i] = zero, sign, expo, frac
                coordinate_bits += used

    if centers.max() > sk.delta or grid.max(initial=0) > sk.delta:
        raise SketchFormatError(f"a grid coordinate exceeds delta = {sk.delta}")
    w_live = w_codes[0] == 0
    if w_live.any() and w_codes[2][w_live].max() > p.w_expo_max - p.w_expo_min:
        raise SketchFormatError("weight exponent field exceeds the declared range")
    x_live = x_codes[0] == 0
    if not sk.exact_coordinates and x_live.any() \
            and x_codes[2][x_live].max() > p.x_expo_max:
        raise SketchFormatError("coordinate exponent field exceeds the declared range")
    payload_bits = reader.bits_consumed
    expected_len = header_bytes + (payload_bits + 7) // 8
    if len(sk._data) != expected_len:
        raise SketchFormatError(
            f"trailing bytes: file has {len(sk._data)}, format needs {expected_len}",
            bit_offset=payload_bits)

    weights = np.array([dequantize((zero, 0, int(expo) + p.w_expo_min, int(frac)), p.f_w)
                        for zero, _, expo, frac in w_codes.T])
    deltas = np.array([[dequantize((zero, int(sign), int(expo), int(frac)), p.f_x)
                        for zero, sign, expo, frac in row]
                       for row in x_codes.transpose(1, 2, 0)])
    group_of = np.repeat(np.arange(k), group_sizes)
    if sk.exact_coordinates:
        points = grid.astype(np.float64)
    else:
        points = centers[group_of] + deltas.reshape(s, d)
    return {
        "centers": centers,
        "group_sizes": group_sizes,
        "group_of": group_of,
        "weights": weights,
        "points": points,
        "ledger": codec.BitLedger(
            header_bits=8 * header_bytes + k * p.group_width,
            center_bits=k * d * p.center_width,
            weight_bits=weight_bits, coordinate_bits=coordinate_bits),
    }
