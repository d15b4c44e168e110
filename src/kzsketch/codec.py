"""Quantize a weighted coreset, relative to approximate centers, into a
bit-exact sketch; decode; estimate clustering cost; account every bit.

Scalars use a sign-magnitude base-2 floating format: an explicit zero bit,
a sign bit, a fixed-width exponent field and an f-bit fraction with the
leading 1 implicit. Rounding is round-to-nearest, ties to even, with
mantissa overflow carried into the exponent. Fraction widths come from the
error budget: ceil(log2(4/eps)) bits per weight and ceil(log2(4z/eps)) bits
per coordinate delta; weights at or below eps/(4|S|) are stored as zero.

Wire format: magic ``KZSK``, little-endian header, then an MSB-first
bit-packed payload (centers, group sizes, per-point codes) padded with
zeros to a byte boundary.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import geometry
from .coreset import WeightedCoreset
from .errors import DimensionMismatch, InvalidInput, SketchFormatError
from .geometry import ProblemConfig

SKETCH_MAGIC = b"KZSK"
SKETCH_VERSION = 1
_HEADER_FMT = "<4sHIIIIQb3sQQBB"
_HEADER_BYTES = struct.calcsize(_HEADER_FMT)
HEADER_FIXED_BITS = 8 * _HEADER_BYTES
_EPS_FRAC_BITS = 24


class BitWriter:
    """Append integer fields MSB-first; final byte zero-padded."""

    def __init__(self):
        self._bytes = bytearray()
        self._acc = 0
        self._nbits = 0
        self.bits_written = 0

    def write(self, value: int, nbits: int):
        if nbits == 0:
            if value != 0:
                raise InvalidInput("cannot store a nonzero value in 0 bits")
            return
        if value < 0 or value >> nbits:
            raise InvalidInput(f"value {value} does not fit in {nbits} bits")
        self._acc = (self._acc << nbits) | value
        self._nbits += nbits
        self.bits_written += nbits
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


@dataclass(frozen=True)
class ScalarCode:
    """One quantized scalar: zero flag, sign, exponent, f-bit fraction."""

    is_zero: bool
    sign: int
    expo: int
    fraction: int


def encode_scalar(value: float, f: int, zero_threshold: float = 0.0) -> ScalarCode:
    """Quantize one scalar to an f-fraction-bit code.

    |value| <= zero_threshold collapses to the zero code; otherwise the
    decoded magnitude is (1 + fraction/2^f) * 2^expo.
    """
    if f < 1:
        raise InvalidInput(f"fraction width must be >= 1, got {f}")
    if not math.isfinite(value):
        raise InvalidInput(f"cannot encode non-finite value {value}")
    if abs(value) <= zero_threshold:
        return ScalarCode(True, 0, 0, 0)
    sign = 1 if value < 0 else 0
    m, e = math.frexp(abs(value))          # |value| = m * 2^e, m in [0.5, 1)
    expo = e - 1
    fraction = round((m * 2.0 - 1.0) * (1 << f))   # exact; ties to even
    if fraction == 1 << f:
        expo += 1
        fraction = 0
    return ScalarCode(False, sign, expo, fraction)


def decode_scalar(code: ScalarCode, f: int) -> float:
    """Exact reconstruction of the quantized value."""
    if code.is_zero:
        return 0.0
    mag = math.ldexp((1 << f) + code.fraction, code.expo - f)
    return -mag if code.sign else mag


def _encode_array(values: np.ndarray, f: int, zero_threshold: float):
    """Vectorized :func:`encode_scalar`; returns (is_zero, sign, expo, fraction)."""
    vals = np.asarray(values, dtype=np.float64)
    is_zero = np.abs(vals) <= zero_threshold
    sign = (vals < 0).astype(np.int64)
    m, e = np.frexp(np.abs(vals))
    expo = e.astype(np.int64) - 1
    fraction = np.rint((m * 2.0 - 1.0) * (1 << f)).astype(np.int64)
    carry = fraction == (1 << f)
    expo[carry] += 1
    fraction[carry] = 0
    sign[is_zero] = 0
    expo[is_zero] = 0
    fraction[is_zero] = 0
    return is_zero, sign, expo, fraction


def _decode_array(is_zero, sign, expo, fraction, f: int) -> np.ndarray:
    mag = np.ldexp((1 << f) + fraction.astype(np.float64), (expo - f).astype(np.int64))
    out = np.where(sign == 1, -mag, mag)
    return np.where(is_zero, 0.0, out)


def _floor_log2(x: float) -> int:
    m, e = math.frexp(x)
    return e - 1


def _ceil_log2_float(x: float) -> int:
    m, e = math.frexp(x)
    return e - 1 if m == 0.5 else e


def _ceil_log2_int(x: int) -> int:
    return (x - 1).bit_length()


def quantize_epsilon(eps: float) -> tuple[int, int, float]:
    """Round eps to the 24-bit-mantissa header format; returns (expo, frac, value)."""
    if not (0.0 < eps < 1.0):
        raise InvalidInput(f"epsilon must lie in (0,1), got {eps}")
    code = encode_scalar(eps, _EPS_FRAC_BITS)
    value = decode_scalar(code, _EPS_FRAC_BITS)
    if not (0.0 < value < 1.0) or code.expo < -126:
        raise InvalidInput(f"epsilon {eps} does not survive header quantization")
    return code.expo, code.fraction, value


@dataclass(frozen=True)
class SketchParams:
    """Field widths and ranges derived from the header values."""

    f_w: int           # fraction bits per weight
    f_x: int           # fraction bits per coordinate delta
    center_width: int  # bits per stored center coordinate
    group_width: int   # bits per group size
    w_expo_min: int    # offset for the signed weight exponent field
    w_expo_max: int    # largest exponent a valid weight can carry
    w_expo_width: int
    x_expo_max: int
    x_expo_width: int
    weight_zero_threshold: float


def derive_params(eps_q: float, z: Fraction, n: int, s: int, delta: int) -> SketchParams:
    f_w = _ceil_log2_float(4.0 / eps_q)
    f_x = _ceil_log2_float(4.0 * float(z) / eps_q)
    center_width = _ceil_log2_int(delta)
    group_width = _ceil_log2_int(s + 1) if s > 0 else 0
    w_expo_min = _floor_log2(eps_q / (4.0 * n))
    w_expo_max = _ceil_log2_float((1.0 + 4.0 * eps_q) * n)
    w_expo_width = _ceil_log2_int(w_expo_max - w_expo_min) + 1
    x_expo_max = center_width
    x_expo_width = _ceil_log2_int(x_expo_max + 1)
    thr = eps_q / (4.0 * s) if s > 0 else 0.0
    return SketchParams(f_w, f_x, center_width, group_width,
                        w_expo_min, w_expo_max, w_expo_width,
                        x_expo_max, x_expo_width, thr)


@dataclass(frozen=True)
class BitLedger:
    """Exact bit accounting of one sketch, by category."""

    header_bits: int
    center_bits: int
    weight_bits: int
    coordinate_bits: int

    @property
    def total_bits(self) -> int:
        return (self.header_bits + self.center_bits
                + self.weight_bits + self.coordinate_bits)

    def as_dict(self) -> dict:
        return {
            "header_bits": self.header_bits,
            "center_bits": self.center_bits,
            "weight_bits": self.weight_bits,
            "coordinate_bits": self.coordinate_bits,
            "total_bits": self.total_bits,
        }


class Sketch:
    """Immutable encoded form of a weighted coreset.

    Construct with :func:`encode` or :meth:`Sketch.from_bytes`. The raw wire
    bytes are the source of truth; decoded arrays are parsed once and
    cached (the cache fill is idempotent, so concurrent queries from many
    threads are safe).
    """

    def __init__(self, data: bytes, source_order: np.ndarray | None = None):
        self._data = bytes(data)
        self._source_order = source_order
        self._decoded = None
        self._parse_header()
        self._parse_payload()

    # -- header ------------------------------------------------------------

    def _parse_header(self):
        if len(self._data) < _HEADER_BYTES:
            raise SketchFormatError("missing header", bit_offset=8 * len(self._data))
        (magic, version, k, d, z_num, z_den, delta, eps_expo, eps_frac_raw,
         n, s, w_expo_width, x_expo_width) = struct.unpack_from(_HEADER_FMT, self._data)
        if magic != SKETCH_MAGIC:
            raise SketchFormatError(f"bad magic {magic!r}", bit_offset=0)
        if version != SKETCH_VERSION:
            raise SketchFormatError(f"unsupported version {version}")
        if min(k, d, z_num, z_den) < 1 or n < 1 or delta < 2 or s > n:
            raise SketchFormatError(
                f"implausible header (k={k}, d={d}, z={z_num}/{z_den}, "
                f"delta={delta}, n={n}, |S|={s})")
        self.k = k
        self.d = d
        self.z = Fraction(z_num, z_den)
        self.delta = int(delta)
        eps_frac = int.from_bytes(eps_frac_raw, "little")
        self.epsilon = decode_scalar(ScalarCode(False, 0, eps_expo, eps_frac),
                                     _EPS_FRAC_BITS)
        if not 0.0 < self.epsilon < 1.0:
            raise SketchFormatError(f"header epsilon {self.epsilon} out of (0,1)")
        self.n = int(n)
        self.coreset_size = int(s)
        self.params = derive_params(self.epsilon, self.z, self.n,
                                    self.coreset_size, self.delta)
        if (w_expo_width, x_expo_width) != (self.params.w_expo_width,
                                            self.params.x_expo_width):
            raise SketchFormatError(
                f"header widths ({w_expo_width}, {x_expo_width}) disagree with "
                f"derived ({self.params.w_expo_width}, {self.params.x_expo_width})")

    # -- payload -----------------------------------------------------------

    def _read_code(self, reader: BitReader, expo_width: int, f: int):
        if reader.read(1):
            return True, 0, 0, 0, 1
        sign = reader.read(1)
        expo = reader.read(expo_width)
        frac = reader.read(f)
        return False, sign, expo, frac, 2 + expo_width + f

    def _parse_payload(self):
        p = self.params
        reader = BitReader(self._data[_HEADER_BYTES:])
        centers = np.empty((self.k, self.d), dtype=np.int64)
        for l in range(self.k):
            for i in range(self.d):
                centers[l, i] = reader.read(p.center_width) + 1
        group_sizes = [reader.read(p.group_width) for _ in range(self.k)]
        if sum(group_sizes) != self.coreset_size:
            raise SketchFormatError(
                f"group sizes sum to {sum(group_sizes)}, header says {self.coreset_size}",
                bit_offset=reader.bits_consumed)

        s = self.coreset_size
        w_zero = np.empty(s, dtype=bool)
        w_expo = np.empty(s, dtype=np.int64)
        w_frac = np.empty(s, dtype=np.int64)
        x_zero = np.empty((s, self.d), dtype=bool)
        x_sign = np.empty((s, self.d), dtype=np.int64)
        x_expo = np.empty((s, self.d), dtype=np.int64)
        x_frac = np.empty((s, self.d), dtype=np.int64)
        group_of = np.empty(s, dtype=np.int64)

        weight_bits = 0
        coordinate_bits = 0
        row = 0
        for l, size in enumerate(group_sizes):
            for _ in range(size):
                zero, sign, expo, frac, used = self._read_code(reader, p.w_expo_width, p.f_w)
                if not zero and sign:
                    raise SketchFormatError("negative weight code",
                                            bit_offset=reader.bits_consumed)
                w_zero[row], w_expo[row], w_frac[row] = zero, expo, frac
                weight_bits += used
                for i in range(self.d):
                    zero, sign, expo, frac, used = self._read_code(
                        reader, p.x_expo_width, p.f_x)
                    x_zero[row, i], x_sign[row, i] = zero, sign
                    x_expo[row, i], x_frac[row, i] = expo, frac
                    coordinate_bits += used
                group_of[row] = l
                row += 1

        if s:
            live_w = ~w_zero
            if live_w.any() and w_expo[live_w].max() \
                    > p.w_expo_max - p.w_expo_min:
                raise SketchFormatError("weight exponent field exceeds the "
                                        "declared range")
            live_x = ~x_zero
            if live_x.any() and x_expo[live_x].max() > p.x_expo_max:
                raise SketchFormatError("coordinate exponent field exceeds "
                                        "the declared range")

        payload_bits = reader.bits_consumed
        expected_len = _HEADER_BYTES + (payload_bits + 7) // 8
        if len(self._data) != expected_len:
            raise SketchFormatError(
                f"trailing bytes: file has {len(self._data)}, format needs {expected_len}",
                bit_offset=payload_bits)

        self.centers = centers
        self.group_sizes = group_sizes
        self.group_of = group_of
        self._w_codes = (w_zero, w_expo, w_frac)
        self._x_codes = (x_zero, x_sign, x_expo, x_frac)
        self.ledger = BitLedger(
            header_bits=HEADER_FIXED_BITS + self.k * p.group_width,
            center_bits=self.k * self.d * p.center_width,
            weight_bits=weight_bits,
            coordinate_bits=coordinate_bits,
        )

    # -- public surface ------------------------------------------------------

    @classmethod
    def from_bytes(cls, data: bytes) -> "Sketch":
        return cls(data)

    def to_bytes(self) -> bytes:
        return self._data

    @property
    def source_order(self) -> np.ndarray | None:
        """Original coreset row per decoded row (encode-side diagnostic only)."""
        return self._source_order

    def decode(self):
        """Reconstruct (weights, points, centers); exact and cached."""
        if self._decoded is None:
            p = self.params
            w_zero, w_expo, w_frac = self._w_codes
            weights = _decode_array(w_zero, np.zeros_like(w_expo),
                                    w_expo + p.w_expo_min, w_frac, p.f_w)
            x_zero, x_sign, x_expo, x_frac = self._x_codes
            deltas = _decode_array(x_zero, x_sign, x_expo, x_frac, p.f_x)
            points = self.centers[self.group_of].astype(np.float64) + deltas
            self._decoded = (weights, points, self.centers)
        return self._decoded

    def estimate_cost(self, centers) -> float:
        """Weighted cost of the decoded coreset against a query center set."""
        weights, points, _ = self.decode()
        cen = centers.centers if isinstance(centers, geometry.CenterSet) else centers
        cen = np.asarray(cen, dtype=np.float64)
        if cen.ndim != 2 or cen.shape[0] < 1:
            raise DimensionMismatch("query centers must form a non-empty (k', d) array")
        if cen.shape[1] != self.d:
            raise DimensionMismatch(
                f"sketch dimension {self.d} != query dimension {cen.shape[1]}")
        return geometry.weighted_cost(weights, points, cen, self.z)


def _center_array(centers) -> np.ndarray:
    arr = getattr(centers, "centers", centers)
    return np.asarray(arr)


def encode(coreset: WeightedCoreset, centers, config: ProblemConfig,
           source_order: bool = True) -> Sketch:
    """Run the compression scheme: partition the coreset by nearest
    approximate center, quantize weights and coordinate deltas, pack bits.
    """
    cen = _center_array(centers)
    if cen.ndim != 2 or cen.shape != (config.k, config.d):
        raise DimensionMismatch(
            f"centers shape {cen.shape} != (k={config.k}, d={config.d})")
    if not np.issubdtype(cen.dtype, np.integer):
        if not np.all(cen == np.round(cen)):
            raise InvalidInput("approximate centers must be grid points")
    cen = cen.astype(np.int64)
    if cen.min() < 1 or cen.max() > config.delta:
        raise InvalidInput(f"center coordinates must lie in [1, {config.delta}]")
    pts = coreset.points
    if pts.shape[1] != config.d:
        raise DimensionMismatch(f"coreset dimension {pts.shape[1]} != {config.d}")
    if pts.size and (pts.min() < 1 or pts.max() > config.delta):
        raise InvalidInput(f"coreset coordinates must lie in [1, {config.delta}]")

    eps_expo, eps_frac, eps_q = quantize_epsilon(config.epsilon)
    s = coreset.size
    params = derive_params(eps_q, config.z, config.n, s, config.delta)

    writer = BitWriter()
    for l in range(config.k):
        for i in range(config.d):
            writer.write(int(cen[l, i]) - 1, params.center_width)

    if s:
        assign = geometry.nearest_assignment(pts, cen.astype(np.float64))
        order = np.argsort(assign, kind="stable")
        group_sizes = np.bincount(assign, minlength=config.k)
    else:
        assign = np.zeros(0, dtype=np.int64)
        order = np.zeros(0, dtype=np.int64)
        group_sizes = np.zeros(config.k, dtype=np.int64)
    for l in range(config.k):
        writer.write(int(group_sizes[l]), params.group_width)

    w_zero, _, w_expo, w_frac = _encode_array(
        coreset.weights[order], params.f_w, params.weight_zero_threshold)
    deltas = pts[order] - cen[assign[order]]
    x_zero, x_sign, x_expo, x_frac = _encode_array(
        deltas.astype(np.float64), params.f_x, 0.0)

    w_field = w_expo - params.w_expo_min
    if s and not w_zero.all():
        live = ~w_zero
        if w_expo[live].min() < params.w_expo_min \
                or w_expo[live].max() > params.w_expo_max:
            raise InvalidInput(
                "weight exponent out of representable range; the coreset "
                "violates the (1 +- 4 eps) n total-weight bound")
    if s and not x_zero.all():
        live = ~x_zero
        if x_expo[live].min() < 0 or x_expo[live].max() > params.x_expo_max:
            raise InvalidInput("coordinate delta exponent out of range")

    # nonzero codes carry their leading zero flag and sign implicitly in the
    # field width: [is_zero=0][sign][expo][fraction], MSB first
    fw, fx = params.f_w, params.f_x
    for row in range(s):
        if w_zero[row]:
            writer.write(1, 1)
        else:
            writer.write(int(w_field[row]) << fw | int(w_frac[row]),
                         2 + params.w_expo_width + fw)
        for i in range(pts.shape[1]):
            if x_zero[row, i]:
                writer.write(1, 1)
            else:
                packed = ((int(x_sign[row, i]) << params.x_expo_width
                           | int(x_expo[row, i])) << fx) | int(x_frac[row, i])
                writer.write(packed, 2 + params.x_expo_width + fx)

    header = struct.pack(_HEADER_FMT, SKETCH_MAGIC, SKETCH_VERSION,
                         config.k, config.d,
                         config.z.numerator, config.z.denominator,
                         config.delta, eps_expo,
                         eps_frac.to_bytes(3, "little"),
                         config.n, s,
                         params.w_expo_width, params.x_expo_width)
    return Sketch(header + writer.getvalue(),
                  source_order=order if source_order else None)


def theoretical_upper_bound(n: int, k: int, d: int, delta: int, eps: float,
                            z: float, coreset_size: int) -> float:
    """Sketch-size bound (in bits, unit constant) for reporting.

    n <= k falls back to storing every point; otherwise it is the
    center + per-point budget matching the measured categories.
    """
    if n <= k:
        return n * d * math.log2(delta)
    s = max(1, coreset_size)
    log_delta = math.log2(delta)
    per_weight = math.log2(4.0 / eps) + math.log2(
        max(math.log2(4.0 * s / eps), math.log2(n)))
    per_point = d * math.log2(4.0 * float(z) / eps) + d * math.log2(max(1.0, log_delta))
    return k * d * log_delta + s * (per_weight + per_point)
