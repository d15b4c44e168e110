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

import itertools
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


def _put_bits(bits: np.ndarray, offsets: np.ndarray, values, width: int):
    """Write each value MSB-first into the ``width`` bits at its offset of the
    0/1 array ``bits``. Both bit helpers go one bit column at a time (bit j
    of each field is ``bits[j:][offsets]``): O(len(offsets)) temporaries."""
    values = np.asarray(values, dtype=np.int64)
    bit = np.empty_like(values)
    for j in range(width):
        np.right_shift(values, width - 1 - j, out=bit)
        bits[j:][offsets] = np.bitwise_and(bit, 1, out=bit)


def _take_bits(bits: np.ndarray, offsets: np.ndarray, width: int) -> np.ndarray:
    """Read the ``width``-bit MSB-first field at each offset."""
    out = np.zeros(offsets.shape, dtype=np.int64)
    if offsets.size and width:
        last = offsets.max()
        if last + width > bits.size:
            raise SketchFormatError("payload ends early", bit_offset=int(last))
        for j in range(width):
            out <<= 1
            out |= bits[j:][offsets]
    return out


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
    """Exact values of codes in the layout of :func:`_encode_array`."""
    out = fraction.astype(np.float64)
    out += 1 << f
    np.ldexp(out, expo - f, out=out)
    np.negative(out, out=out, where=sign == 1)
    out[is_zero] = 0.0
    return out


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

    @property
    def code_widths(self) -> tuple[int, int]:
        """Bits of one nonzero weight code and of one nonzero coordinate code."""
        return 2 + self.w_expo_width + self.f_w, 2 + self.x_expo_width + self.f_x

    def oversized(self) -> str | None:
        """Why a field is too wide for the codec's int64 fields, or None:
        fractions take at most 63 bits, centers (stored as center - 1) 62."""
        if max(self.f_w, self.f_x) > 63 or self.center_width > 62:
            return (f"fraction widths ({self.f_w}, {self.f_x}) and center width "
                    f"{self.center_width} exceed the limits of 63 and 62 bits")
        return None


def _field_layout(p: SketchParams):
    """(category, bit offset within the code, width) of each field that a
    nonzero code stores after its zero flag, category 0 for weight codes and
    1 for coordinate codes: weight expo and fraction (a weight's sign bit is
    always 0), then coordinate sign, expo and fraction."""
    return [(0, 2, p.w_expo_width), (0, 2 + p.w_expo_width, p.f_w),
            (1, 1, 1), (1, 2, p.x_expo_width), (1, 2 + p.x_expo_width, p.f_x)]


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
    bytes are the source of truth: ``encode`` keeps the fields it packed and
    ``from_bytes`` parses the same fields back. Decoded arrays are computed
    once and cached (the cache fill is idempotent, so concurrent queries from
    many threads are safe).
    """

    _source_order = None
    _decoded = None

    def __init__(self, data: bytes):
        self._data = bytes(data)
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
        if min(k, d, z_den) < 1 or z_num < z_den or n < 1 or delta < 2 or s > n:
            raise SketchFormatError(
                f"implausible header (k={k}, d={d}, z={z_num}/{z_den}, "
                f"delta={delta}, n={n}, |S|={s})")
        eps_frac = int.from_bytes(eps_frac_raw, "little")
        epsilon = decode_scalar(ScalarCode(False, 0, eps_expo, eps_frac),
                                _EPS_FRAC_BITS)
        if not 0.0 < epsilon < 1.0:
            raise SketchFormatError(f"header epsilon {epsilon} out of (0,1)")
        z = Fraction(z_num, z_den)
        params = derive_params(epsilon, z, n, s, delta)
        if (reason := params.oversized()) is not None:
            raise SketchFormatError(f"header field widths: {reason}")
        if (w_expo_width, x_expo_width) != (params.w_expo_width, params.x_expo_width):
            raise SketchFormatError(
                f"header widths ({w_expo_width}, {x_expo_width}) disagree with "
                f"derived ({params.w_expo_width}, {params.x_expo_width})")
        self._set_header(k, d, z, int(delta), epsilon, int(n), int(s), params)

    def _set_header(self, k, d, z, delta, epsilon, n, s, params):
        self.k, self.d, self.z, self.delta = k, d, z, delta
        self.epsilon, self.n, self.coreset_size = epsilon, n, s
        self.params = params

    # -- payload -----------------------------------------------------------

    def _parse_payload(self):
        """Read the payload: one pass over the zero flags, the only
        sequential dependency of the layout, then every field at once."""
        p, k, d, s = self.params, self.k, self.d, self.coreset_size
        payload = np.frombuffer(self._data, dtype=np.uint8, offset=_HEADER_BYTES)
        nbits = 8 * payload.size
        code_start = k * d * p.center_width + k * p.group_width
        if nbits < code_start + s * (d + 1):
            raise SketchFormatError(
                f"payload of {nbits} bits cannot hold the {k}x{d} centers, "
                f"group sizes and {s * (d + 1)} codes of the header",
                bit_offset=nbits)
        # what the sketch keeps is allocated before the scratch bit array, so
        # that freeing the scratch leaves no hole under live memory
        flags = bytearray(s * (d + 1))
        fields = [np.zeros(shape, dtype=np.int64) for shape in (s, s, (s, d), (s, d), (s, d))]
        bits = np.unpackbits(payload)
        centers = _take_bits(bits, np.arange(k * d) * p.center_width,
                             p.center_width).reshape(k, d) + 1
        group_sizes = _take_bits(bits, code_start - k * p.group_width
                                 + np.arange(k) * p.group_width, p.group_width).tolist()
        if sum(group_sizes) != s:
            raise SketchFormatError(
                f"group sizes sum to {sum(group_sizes)}, header says {s}",
                bit_offset=code_start)

        # row-major codes: per point one weight code, then d coordinate codes
        row_widths = itertools.cycle([p.code_widths[0]] + [p.code_widths[1]] * d)
        flat = memoryview(bits)
        pos = code_start
        try:
            for i, w in zip(range(len(flags)), row_widths):
                if flat[pos]:
                    flags[i] = 1
                    pos += 1
                else:
                    pos += w
        except IndexError:
            raise SketchFormatError("payload ends early", bit_offset=pos) from None
        zero = np.frombuffer(flags, dtype=bool).reshape(s, d + 1)
        live, offsets, _, _ = _live_offsets(zero, p, code_start)
        if _take_bits(bits[1:], offsets[0], 1).any():
            raise SketchFormatError("negative weight code")
        for field, (cat, shift, width) in zip(fields, _field_layout(p)):
            field[live[cat]] = _take_bits(bits[shift:], offsets[cat], width)

        w_field, w_frac, x_sign, x_expo, x_frac = fields
        if w_field.max(initial=0) > p.w_expo_max - p.w_expo_min:
            raise SketchFormatError("weight exponent field exceeds the declared range")
        if x_expo.max(initial=0) > p.x_expo_max:
            raise SketchFormatError("coordinate exponent field exceeds the declared range")

        self._set_payload(centers, group_sizes, (zero[:, 0], w_field, w_frac),
                          (zero[:, 1:], x_sign, x_expo, x_frac))
        payload_bits = self.ledger.total_bits - HEADER_FIXED_BITS
        expected_len = _HEADER_BYTES + (payload_bits + 7) // 8
        if len(self._data) != expected_len:
            raise SketchFormatError(
                f"trailing bytes: file has {len(self._data)}, format needs {expected_len}",
                bit_offset=payload_bits)

    def _pack_payload(self) -> np.ndarray:
        """Pack the payload fields MSB first; the inverse of _parse_payload.

        Layout: centers, group sizes, then per point one weight code and d
        coordinate codes. A code is [1] if zero, else [0][sign][expo][fraction].
        """
        p, k, d = self.params, self.k, self.d
        cw, gw = p.center_width, p.group_width
        zero = np.concatenate([self._w_codes[0][:, None], self._x_codes[0]], axis=1)
        live, offsets, zero_offsets, end = _live_offsets(zero, p, k * d * cw + k * gw)
        bits = np.zeros(end, dtype=np.uint8)
        _put_bits(bits, np.arange(k * d) * cw, self.centers.ravel() - 1, cw)
        _put_bits(bits, k * d * cw + np.arange(k) * gw, self.group_sizes, gw)
        bits[zero_offsets] = 1
        fields = self._w_codes[1:] + self._x_codes[1:]
        for field, (cat, shift, width) in zip(fields, _field_layout(p)):
            _put_bits(bits[shift:], offsets[cat], field[live[cat]], width)
        return np.packbits(bits)

    def _set_payload(self, centers, group_sizes, w_codes, x_codes):
        p = self.params
        self.centers = centers
        self.group_sizes = group_sizes
        self.group_of = np.repeat(np.arange(self.k), group_sizes)
        self._w_codes = w_codes
        self._x_codes = x_codes
        s, d = self.coreset_size, self.d
        w_width, x_width = p.code_widths
        self.ledger = BitLedger(
            header_bits=HEADER_FIXED_BITS + self.k * p.group_width,
            center_bits=self.k * d * p.center_width,
            weight_bits=s + (s - int(w_codes[0].sum())) * (w_width - 1),
            coordinate_bits=s * d + (s * d - int(x_codes[0].sum())) * (x_width - 1),
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
            w_zero, w_field, w_frac = self._w_codes
            weights = _decode_array(w_zero, 0, w_field + p.w_expo_min, w_frac, p.f_w)
            x_zero, x_sign, x_expo, x_frac = self._x_codes
            points = _decode_array(x_zero, x_sign, x_expo, x_frac, p.f_x)
            points += self.centers[self.group_of]
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


def _live_offsets(zero: np.ndarray, p: SketchParams, start: int):
    """Locate the codes of the (|S|, d+1) zero-flag layout: a zero code
    takes one bit, a nonzero one its category's full width. Returns the
    nonzero masks and bit offsets of the weight and of the coordinate codes,
    the offsets of the zero codes, and the end of the last code."""
    widths = np.where(zero, np.uint8(1), np.array(
        [p.code_widths[0]] + [p.code_widths[1]] * (zero.shape[1] - 1), dtype=np.uint8))
    offsets = np.cumsum(widths, dtype=np.int64).reshape(zero.shape)
    end = start + int(offsets[-1, -1]) if offsets.size else start
    offsets += start
    offsets -= widths
    live = (~zero[:, 0], ~zero[:, 1:])
    return live, (offsets[:, 0][live[0]], offsets[:, 1:][live[1]]), offsets[zero], end


def check_header_z(z: Fraction) -> None:
    """Reject a z whose numerator or denominator does not fit the u32 header."""
    if max(z.numerator, z.denominator) >= 1 << 32:
        raise InvalidInput(f"z = {z}: numerator and denominator must "
                           "fit the header's 32-bit fields")


def encode(coreset: WeightedCoreset, centers, config: ProblemConfig,
           source_order: bool = True) -> Sketch:
    """Run the compression scheme: partition the coreset by nearest
    approximate center, quantize weights and coordinate deltas, pack bits.
    """
    check_header_z(config.z)
    cen = np.asarray(getattr(centers, "centers", centers))
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
    if (reason := params.oversized()) is not None:
        raise InvalidInput(f"epsilon {config.epsilon} with z = {config.z} and "
                           f"delta = {config.delta}: {reason}")

    assign = geometry.nearest_assignment(pts, cen.astype(np.float64))
    order = np.argsort(assign, kind="stable")
    group_sizes = np.bincount(assign, minlength=config.k)

    w_zero, _, w_expo, w_frac = _encode_array(
        coreset.weights[order], params.f_w, params.weight_zero_threshold)
    x_zero, x_sign, x_expo, x_frac = _encode_array(
        (pts[order] - cen[assign[order]]).astype(np.float64), params.f_x, 0.0)

    # zero codes carry field 0, inside both ranges
    w_field = np.where(w_zero, 0, w_expo - params.w_expo_min)
    if w_field.min(initial=0) < 0 \
            or w_field.max(initial=0) > params.w_expo_max - params.w_expo_min:
        raise InvalidInput(
            "weight exponent out of representable range; the coreset "
            "violates the (1 +- 4 eps) n total-weight bound")
    if x_expo.min(initial=0) < 0 or x_expo.max(initial=0) > params.x_expo_max:
        raise InvalidInput("coordinate delta exponent out of range")

    header = struct.pack(_HEADER_FMT, SKETCH_MAGIC, SKETCH_VERSION,
                         config.k, config.d,
                         config.z.numerator, config.z.denominator,
                         config.delta, eps_expo,
                         eps_frac.to_bytes(3, "little"),
                         config.n, s,
                         params.w_expo_width, params.x_expo_width)
    sketch = Sketch.__new__(Sketch)
    sketch._set_header(config.k, config.d, config.z, config.delta, eps_q,
                       config.n, s, params)
    sketch._set_payload(cen, group_sizes.tolist(), (w_zero, w_field, w_frac),
                        (x_zero, x_sign, x_expo, x_frac))
    sketch._data = header + sketch._pack_payload().tobytes()
    if source_order:
        sketch._source_order = order
    return sketch


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
