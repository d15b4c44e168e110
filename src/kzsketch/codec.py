"""Quantize a weighted coreset, relative to approximate centers, into a
bit-exact sketch; decode; estimate clustering cost; account every bit.
:func:`compress` is the whole scheme, from a dataset to its sketch.

Scalars use a sign-magnitude base-2 floating format: an explicit zero bit,
a sign bit, a fixed-width exponent field and an f-bit fraction with the
leading 1 implicit; :func:`_encode_array` quantizes every weight, every
coordinate delta and the header's epsilon to it. Fraction widths come from the
error budget: ceil(log2(4/eps)) bits per weight and ceil(log2(4z/eps)) bits
per coordinate delta; weights at or below eps/(4|S|) are stored as zero.

Wire format: magic ``KZSK``, little-endian header, then an MSB-first
bit-packed payload (centers, group sizes, one row of fields per coreset
point) padded with zeros to a byte boundary. Version 2 appends a flags
byte to the version 1 header: ``EXACT_COORDINATES`` stores each point's
coordinates as fixed-width grid values instead of quantized deltas from its
center, ``UNIT_WEIGHTS`` drops the weight codes when every weight is
exactly 1, and ``SORTED_FIRST`` (only with ``EXACT_COORDINATES``) orders each
group's rows by their first coordinate and stores that coordinate once per
group as an Elias-Fano code. ``encode`` sets each flag when it saves bits;
version 1 bytes, which have none, still parse.
"""

from __future__ import annotations

import functools
import itertools
import math
import struct
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import coreset as coreset_mod, geometry
from .coreset import WeightedCoreset
from .errors import DimensionMismatch, InvalidInput, SketchFormatError
from .geometry import GridDataset, ProblemConfig, ZLike

SKETCH_MAGIC = b"KZSK"
SKETCH_VERSION = 2
# the header of both versions; version 2 appends one flags byte
_HEADER_FMT = "<4sHIIIIQb3sQQBB"
_V1_HEADER_BYTES = struct.calcsize(_HEADER_FMT)
_HEADER_BYTES = _V1_HEADER_BYTES + 1
HEADER_FIXED_BITS = 8 * _HEADER_BYTES
EXACT_COORDINATES = 1
UNIT_WEIGHTS = 2
SORTED_FIRST = 4
_EPS_FRAC_BITS = 24


# bits per block of payload rows (at least one row) and per window of the
# zero-flag pass: the scratch bit matrix and mask of a block, and the bits a
# window unpacks, stay near 256 KiB each, unless a single row is wider; a
# vector step of the flag pass spans at most this many bits of codes
_BLOCK_BITS = 1 << 18
# a vector step of the zero-flag pass costs about as much as this many
# per-code steps; after a short one, the pass takes _RUN * max(_RUN, codes
# per row) per-code steps, since taking them up again costs a vector step
# and finding the code's place in its row, so dense zero codes cost at most
# about 1/_RUN more than per-code steps alone
_RUN = 64
# widths of at most this many bits are unpacked through a table of every
# value's bits: 2^12 rows of 12 bits, about 100 KB for every width up to it
_TABLE_BITS = 12


def _byte_width(width: int) -> int:
    """Bytes of the smallest unsigned integer type that holds ``width`` bits."""
    return next(b for b in (1, 2, 4, 8) if 8 * b >= width)


def _grid_dtype(width: int) -> np.dtype:
    """The smallest unsigned integer type that holds ``width`` bits, which
    grid values are kept in."""
    return np.dtype(f"u{_byte_width(width)}")


def _bits_of(values, width: int) -> np.ndarray:
    """The low ``width`` bits of each value, MSB first, along a new last
    axis: up to _TABLE_BITS bits, one wrapping take from the table of every
    value's bits, whose rows come out contiguous, so that copying them into
    a bit matrix is one pass; wider, one big-endian unpackbits. The take
    reduces a value by one table length at a time, so values far beyond
    ``width`` bits are best masked first."""
    if width <= _TABLE_BITS:
        return _bit_table(width).take(values, axis=0, mode="wrap")
    return _unpacked_bits(values, width)


def _unpacked_bits(values, width: int) -> np.ndarray:
    """:func:`_bits_of` for any width, through one big-endian unpackbits."""
    nb = _byte_width(width)
    be = np.asarray(values, dtype=np.int64).astype(f">u{nb}")
    bits = np.unpackbits(be.view(np.uint8)).reshape(be.shape + (8 * nb,))
    return bits[..., 8 * nb - width:]


@functools.cache
def _bit_table(width: int) -> np.ndarray:
    """Row v holds the ``width`` bits of v, MSB first; read-only."""
    table = np.ascontiguousarray(_unpacked_bits(np.arange(1 << width), width))
    table.setflags(write=False)
    return table


class _ByteRows:
    """``rows`` rows of ``width`` bits back to back from bit ``bit`` of the
    bytes ``buf``, read by fields (:meth:`values`), in groups of 8 rows, or
    of all of them if fewer: 8 rows span exactly ``width`` bytes, so group
    j's rows start at the bits of group 0's, ``j * width`` bytes on."""

    # a word and a ninth byte read up to 16 bytes from a field's first byte
    PAD = 16
    # fewer than 8 rows read sets of 8 columns (see :meth:`values`), which
    # reach up to 7 columns of at most 72 bits past a row's end
    SET_PAD = 64
    # bytes of a gather's words, unless one group's take more: each
    # temporary of a read stays below glibc's initial mmap threshold
    GATHER_BYTES = 1 << 17

    def __init__(self, buf: np.ndarray, bit: int, rows: int, width: int):
        self._buf, self._bit, self._rows, self._width = buf, bit, rows, width

    @classmethod
    def at(cls, payload: np.ndarray, pos: int, rows: slice, width: int):
        """Pieces (rows, reader) of the rows ``rows`` of ``width`` bits,
        the first at bit ``pos`` of ``payload``: the whole groups of 8 rows
        whose reads stay within the payload, read in place, then the rows
        left, from a zero-padded copy of their bytes. A group's reads reach
        :attr:`PAD` bytes past its last row, and a last group of fewer than
        8 rows reads the rows after it as well, so only the last few groups
        of a payload need the copy; it has room for sets of columns, too."""
        count, start = rows.stop - rows.start, pos >> 3
        reach = ((pos & 7) + 8 * width + 7) // 8 + cls.PAD
        cut = 8 * min(count // 8, max(0, (payload.size - start - reach) // max(1, width) + 1))
        if cut:
            yield slice(rows.start, rows.start + cut), cls(payload[start:], pos & 7, cut, width)
        if cut < count:
            pos, count = pos + cut * width, count - cut
            group = min(8, count)
            buf = np.zeros(((pos & 7) + width * group * -(-count // group) + 7) // 8
                           + cls.PAD + cls.SET_PAD, dtype=np.uint8)
            tail = payload[pos >> 3:(pos >> 3) + buf.size]
            buf[:tail.size] = tail
            yield slice(rows.start + cut, rows.stop), cls(buf, pos & 7, count, width)

    def values(self, columns: np.ndarray, width: int, out: np.ndarray) -> None:
        """The inverse of :func:`_bits_of`: the value of the ``width`` bits
        (at most 64) at each bit offset of ``columns`` (ascending, within a
        row) in every row, written into ``out`` (rows, columns).

        A value is the unaligned big-endian word at its byte, of the
        narrowest width that holds ``width`` + 7 bits (1, 2, 4 or 8 bytes),
        shifted into place. The words of a group's rows are gathered at
        their byte offsets, one gather for every group of the rows at once,
        or for as many as fit in :attr:`GATHER_BYTES`. Such a gather costs
        per offset, so fewer than 8 rows gather their evenly spaced columns
        in sets of 8: column c + 8 lies as many bytes after column c as the
        columns are bits apart, at the same bit, so 8 offsets per row serve
        every set. A field of more than 57 bits runs into a ninth byte, whose
        leading bits come from the word 8 bytes on (numpy shifts a uint64 by
        64 to 0)."""
        nb = _byte_width(min(64, width + 7))
        group, count = min(8, self._rows), len(columns)
        groups = -(-self._rows // group)
        period = 8 if self._rows < 8 and count > 8 else count
        sets = -(-count // period)
        at = (self._bit + self._width * np.arange(group)[:, None] + columns[:period]).ravel()
        byte, bit = at >> 3, (at & 7).astype(f"u{nb}")
        ninth = 8 if width > 57 else 0
        spacing = int(columns[1] - columns[0]) if sets > 1 else 0
        words = np.ndarray((groups, sets, int(byte[-1]) + 1 + ninth), dtype=f">u{nb}",
                           buffer=self._buf, strides=(self._width, spacing, 1))
        step = max(1, self.GATHER_BYTES // (nb * len(at) * sets))
        for lo in range(0, groups, step):
            word = words[lo:lo + step, :, byte].astype(bit.dtype)
            word <<= bit
            if ninth:
                word |= words[lo:lo + step, :, byte + ninth].astype(bit.dtype) >> (64 - bit)
            if sets > 1:    # one group: (sets, rows, columns of a set) to rows
                word = word.reshape(sets, group, period).swapaxes(0, 1)
            dst = out[lo * group:(lo + step) * group]
            np.right_shift(word.reshape(-1, sets * period)[:len(dst), :count], 8 * nb - width,
                           out=dst, casting="unsafe")


def _encode_array(values, f: int, zero_threshold: float):
    """Quantize each value to an f-fraction-bit code; returns the arrays
    (is_zero, sign, expo, fraction). A value with |value| <= zero_threshold
    becomes the zero code, every field 0. Any other is rounded to the
    nearest (1 + fraction/2^f) * 2^expo, ties to even (the scaling before
    ``np.rint`` is exact), and a fraction that rounds up to 2^f carries
    into the exponent."""
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
    code = _encode_array([eps], _EPS_FRAC_BITS, 0.0)
    expo, fraction = int(code[2][0]), int(code[3][0])
    value = float(_decode_array(*code, _EPS_FRAC_BITS)[0])
    if not (0.0 < value < 1.0) or expo < -126:
        raise InvalidInput(f"epsilon {eps} does not survive header quantization")
    return expo, fraction, value


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


class _Layout:
    """The rows of a KZSK v2 payload, stated once for the encoder, the
    packer, the parser, the ledger and the decoder. A row is a weight code
    (none under unit weights), then d coordinates: in exact mode grid
    values, each the coordinate minus 1, else variable-width codes, [1] if
    zero, else [0][sign][expo][fraction]. Under ``SORTED_FIRST`` (``low``
    is not None) the row keeps only the low ``low`` bits of its first grid
    value, none if ``low`` is 0, whose high part the payload's Elias-Fano
    section holds (see :func:`_first_split`). ``runs`` holds the row's runs
    of equal columns in wire order, each as (first bit, columns, full
    width, its columns of the zero flags, or None if fixed-width); the
    variable-width codes lead the row. ``row_bits`` is a row's width with
    every code nonzero, ``least_bits`` with every code zero.

    ``d`` comes from an untrusted header, so a layout is O(1) until the
    parser has checked the payload against |S| rows of ``least_bits``: the
    O(d) ``steps`` and ``fields`` are built on first use, ``fields`` also
    because no dtype holds every width :func:`theoretical_upper_bound`
    takes."""

    def __init__(self, p: SketchParams, d: int, exact: bool, unit: bool,
                 low: int | None = None):
        self._p, self._exact, self._unit, self.low = p, exact, unit, low
        w = 0 if unit else p.code_widths[0]
        self.runs = [] if unit else [(0, 1, w, slice(0, 1))]
        flags = len(self.runs)
        if not exact:
            self.runs.append((w, d, p.code_widths[1], slice(flags, flags + d)))
        elif low is None:
            self.runs.append((w, d, p.center_width, None))
        else:
            self.runs += [(w, 1, low, None)] * bool(low) \
                + [(w + low, d - 1, p.center_width, None)]
        self.row_bits = sum(count * width for _, count, width, _ in self.runs)
        self.least_bits = self.row_bits - sum(
            count * (width - 1) for _, count, width, f in self.runs if f is not None)

    @functools.cached_property
    def fields(self) -> list:
        """(run, bit offset within a column, width, dtype, the bit offsets
        of its columns within a row) of each field the payload stores
        besides the zero flags, in the order of a sketch's field arrays (see
        :meth:`wire`): a weight code's exponent, whose field holds the sign
        bit (always 0) as its top bit, and its fraction, then either each
        coordinate's grid value, in the smallest unsigned type that holds a
        grid value, or a coordinate code's sign, exponent and fraction."""
        p, x = self._p, 0 if self._unit else 1
        fields = [] if self._unit else [(0, 1, 1 + p.w_expo_width), (0, 2 + p.w_expo_width, p.f_w)]
        fields += [(g, 0, run[2]) for g, run in enumerate(self.runs[x:], x)] if self._exact \
            else [(x, 1, 1), (x, 2, p.x_expo_width), (x, 2 + p.x_expo_width, p.f_x)]
        grid = _grid_dtype(p.center_width)
        return [(g, shift, width, grid if self._exact and g >= x else np.int64,
                 self.runs[g][0] + shift + self.runs[g][2] * np.arange(self.runs[g][1]))
                for g, shift, width in fields]

    def wire(self, fields: list) -> list:
        """The arrays that :attr:`fields` reads and writes, given a sketch's
        field arrays: those arrays, but under ``SORTED_FIRST`` the grid
        values as views, of their first column, whose low bits a row stores
        (if ``low`` is not 0), and of the others."""
        if self.low is None:
            return fields
        *weights, grid = fields
        return weights + [grid[:, :1]] * bool(self.low) + [grid[:, 1:]]

    @functools.cached_property
    def steps(self) -> list:
        """Per variable-width code of a row: the bits that it and the
        fixed-width values after it take, if it is nonzero and if it is
        zero (see :func:`_zero_flags`). In exact mode the weight code, if
        any, is the only one, and the grid values follow it."""
        if self._exact:
            return [] if self._unit else [(self.row_bits, self.least_bits)]
        return [(width, 1) for _, count, width, _ in self.runs for _ in range(count)]

    def views(self, matrix: np.ndarray) -> list:
        """Per run, its (rows, columns, width) view of a (rows, row_bits) matrix."""
        return [matrix[:, at:at + count * width].reshape(len(matrix), count, width)
                for at, count, width, _ in self.runs]

    def bits(self, zero: np.ndarray) -> list:
        """Per run, the payload bits of rows with the zero flags ``zero``."""
        return [len(zero) * count * width
                - (width - 1) * (0 if flags is None else int(np.count_nonzero(zero[:, flags])))
                for _, count, width, flags in self.runs]


def _row_blocks(zero: np.ndarray, layout: _Layout):
    """The payload rows in blocks of about _BLOCK_BITS bits (at least one
    row), given their zero flags and their layout. Per block, yields the
    slice of its rows, the mask of the bits of its (rows, row_bits) bit
    matrix that the payload stores (all but those after a zero flag), or
    None if it stores them all, and how many bits it stores."""
    step = max(1, _BLOCK_BITS // max(1, layout.row_bits))
    for lo in range(0, len(zero), step):
        z = zero[lo:lo + step]
        keep = None
        if z.any():
            keep = np.ones((len(z), layout.row_bits), dtype=bool)
            for (*_, flags), view in zip(layout.runs, layout.views(keep)):
                if flags is not None:
                    view[:, :, 1:] = ~z[:, flags, None]
        count = len(z) * layout.row_bits if keep is None else int(np.count_nonzero(keep))
        yield slice(lo, lo + len(z)), keep, count


def _row_pieces(payload: np.ndarray, pos: int, zero: np.ndarray, layout: _Layout):
    """The payload rows from bit ``pos``, given their zero flags and their
    layout, as pieces (rows, :class:`_ByteRows`) to read fields from: each
    run of blocks (see :func:`_row_blocks`) without a zero flag where it
    lies (see :meth:`_ByteRows.at`), each block with one from its bit
    matrix, whose bits under the block's mask are the payload's and the
    rest 0, packed back into bytes. A block that would end past the payload
    is a ``SketchFormatError`` at the payload's end, before its rows are
    read."""
    nbits, run = 8 * payload.size, (0, pos)     # the first row and bit not yet read
    for rows, keep, count in _row_blocks(zero, layout):
        if pos + count > nbits:
            raise SketchFormatError("payload ends early", bit_offset=nbits)
        if keep is not None:
            yield from _ByteRows.at(payload, run[1], slice(run[0], rows.start), layout.row_bits)
            start = pos // 8
            span = np.unpackbits(payload[start:(pos + count + 7) // 8])
            matrix = np.zeros(keep.shape, dtype=np.uint8)
            matrix[keep] = span[pos - 8 * start:][:count]
            yield from _ByteRows.at(np.packbits(matrix), 0, rows, layout.row_bits)
            run = rows.stop, pos + count
        pos += count
    yield from _ByteRows.at(payload, run[1], slice(run[0], len(zero)), layout.row_bits)


def _put_bytes(out: np.ndarray, at: int, bits: np.ndarray):
    """Pack the whole bytes of the bit array ``bits`` into ``out`` from byte
    ``at``; returns the next byte and a copy of the fewer than 8 bits left."""
    whole = bits.size // 8
    out[at:at + whole] = np.packbits(bits[:8 * whole])
    return at + whole, bits[8 * whole:].copy()


def _zero_flags(payload: np.ndarray, pos: int, steps, count: int) -> bytearray:
    """The zero flags, one byte each, of ``count`` variable-width codes
    whose first flag is payload bit ``pos``; ``steps`` holds, per code of a
    row, the bits that it and the fixed-width columns after it take if it
    is nonzero and if it is zero.

    Each flag's offset depends on every flag before it. A vector step
    assumes that the next codes are all nonzero, so that their flags sit at
    a running sum of full widths, and gathers those bits from the payload
    bytes at once: the flags up to the first set one are then known, and
    the walk resumes after that zero code. Its chunk of codes doubles while
    no zero turns up, up to about _BLOCK_BITS bits of codes. A per-code
    step reads one flag from a window of about _BLOCK_BITS unpacked bits;
    after a vector step that knows fewer than _RUN codes, the walk takes
    the next _RUN * max(_RUN, len(steps)) codes in per-code steps. A flag
    past the payload's end is a ``SketchFormatError`` at its bit."""
    flags = bytearray(count)
    if not count:
        return flags
    period, nbits = len(steps), 8 * payload.size
    widths = np.array([w for w, _ in steps], dtype=np.int64)
    zero_widths = [w for _, w in steps]
    most = max(1, _BLOCK_BITS * period // int(widths.sum()))
    # offset of each code of a row-aligned run of nonzero codes, from the first
    rows = 1 + -(-most // period)
    ahead = np.zeros(rows * period + 1, dtype=np.int64)
    np.cumsum(np.tile(widths, rows), out=ahead[1:])
    i, chunk, window, base = 0, min(most, 4 * _RUN), b"", 0
    while i < count:
        r, c = i % period, min(chunk, count - i)
        guess = ahead[r:r + c + 1] - (ahead[r] - pos)
        fit = int(guess[:c].searchsorted(nbits))
        if not fit:
            raise SketchFormatError("payload ends early", bit_offset=pos)
        q = guess[:fit]
        bits = (payload[q >> 3] << (q & 7)) & 0x80
        j = int(bits.argmax())
        if bits[j]:
            flags[i + j] = 1
            pos, known = int(guess[j]) + zero_widths[(i + j) % period], j + 1
        else:
            pos, known = int(guess[fit]), fit
        i += known
        chunk = min(most, max(4 * _RUN, 2 * known))
        if known >= _RUN:
            continue
        end = min(count, i + _RUN * max(_RUN, period))
        while i < end:
            if pos - base >= len(window):
                start = pos // 8
                if start >= payload.size:
                    raise SketchFormatError("payload ends early", bit_offset=pos)
                window = memoryview(np.unpackbits(
                    payload[start:start + max(1, _BLOCK_BITS // 8)]))
                base = 8 * start
            at = pos - base
            try:
                for i, (nonzero, zero) in zip(range(i, end), itertools.islice(
                        itertools.cycle(steps), i % period, None)):
                    if window[at]:
                        flags[i] = 1
                        at += zero
                    else:
                        at += nonzero
                i = end
            except IndexError:
                pass
            pos = base + at
    return flags


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


def _first_split(s: int, k: int, delta: int) -> tuple[int, int]:
    """(L, H) of the Elias-Fano code of ``SORTED_FIRST``, from header values
    alone: a row keeps the low L bits of its first grid value, and each
    group's high parts take H = ceil(delta / 2^L) buckets in unary, |S| + k H
    bits in all. L is the smallest in [0, ceil(log2 delta)] that minimizes
    the code's |S| L + k H bits."""
    return min(((low, -(-delta >> low)) for low in range(_ceil_log2_int(delta) + 1)),
               key=lambda split: s * split[0] + k * split[1])


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
    once, read-only and cached, together with the points prepared for the
    distance kernel (their squared norms, and whether every coordinate is an
    integer, which lets integral queries take the kernel's exact grid path).
    An exact-coordinate sketch's first estimate, once it has its answer,
    also builds the points' column operand (see ``geometry._Rows``), so
    that every later estimate takes |c|^2 into the kernel's GEMM: (d + 1)
    |S| float64 values more, 1.6 MB and about 0.2 ms at 3208 rows of d =
    64. ``decode`` alone does not build it, so a caller that only reads the
    arrays never pays for it. The caches are filled by one assignment each,
    so concurrent queries from many threads are safe; two of them may both
    build the operand, and either one stays.
    """

    _decoded = None

    def __init__(self, data: bytes):
        self._data = bytes(data)
        self._parse_header()
        self._parse_payload()

    # -- header ------------------------------------------------------------

    def _parse_header(self):
        if len(self._data) < _V1_HEADER_BYTES:
            raise SketchFormatError("missing header", bit_offset=8 * len(self._data))
        (magic, version, k, d, z_num, z_den, delta, eps_expo, eps_frac_raw,
         n, s, w_expo_width, x_expo_width) = struct.unpack_from(_HEADER_FMT, self._data)
        if magic != SKETCH_MAGIC:
            raise SketchFormatError(f"bad magic {magic!r}", bit_offset=0)
        if version not in (1, 2):
            raise SketchFormatError(f"unsupported version {version}")
        flags = 0
        if version == 2:
            if len(self._data) < _HEADER_BYTES:
                raise SketchFormatError("missing header", bit_offset=8 * len(self._data))
            flags = self._data[_V1_HEADER_BYTES]
            if flags & ~(EXACT_COORDINATES | UNIT_WEIGHTS | SORTED_FIRST):
                raise SketchFormatError(f"unknown header flags {flags:#04x}",
                                        bit_offset=8 * _V1_HEADER_BYTES)
            if flags & SORTED_FIRST and not flags & EXACT_COORDINATES:
                raise SketchFormatError("header flag SORTED_FIRST without EXACT_COORDINATES",
                                        bit_offset=8 * _V1_HEADER_BYTES)
        if min(k, d, z_den) < 1 or z_num < z_den or n < 1 or delta < 2 or s > n:
            raise SketchFormatError(
                f"implausible header (k={k}, d={d}, z={z_num}/{z_den}, "
                f"delta={delta}, n={n}, |S|={s})")
        eps_frac = int.from_bytes(eps_frac_raw, "little")
        epsilon = float(_decode_array(np.zeros(1, dtype=bool), 0, np.array([eps_expo]),
                                      np.array([eps_frac]), _EPS_FRAC_BITS)[0])
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
        self._set_header(k, d, z, int(delta), epsilon, int(n), int(s), params,
                         version, flags)

    def _set_header(self, k, d, z, delta, epsilon, n, s, params, version, flags):
        self.k, self.d, self.z, self.delta = k, d, z, delta
        self.epsilon, self.n, self.coreset_size = epsilon, n, s
        self.params = params
        self.version = version
        self.exact_coordinates = bool(flags & EXACT_COORDINATES)
        self.unit_weights = bool(flags & UNIT_WEIGHTS)
        self._header_bytes = _V1_HEADER_BYTES if version == 1 else _HEADER_BYTES
        # (L, H) of the first coordinates' code, or None without SORTED_FIRST
        self._split = _first_split(s, k, delta) if flags & SORTED_FIRST else None
        self._layout = _Layout(params, d, self.exact_coordinates, self.unit_weights,
                               None if self._split is None else self._split[0])

    # -- payload -----------------------------------------------------------

    def _parse_payload(self):
        """Read the payload: the centers and group sizes, fixed-width rows
        from bit 0, under ``SORTED_FIRST`` the Elias-Fano section, from the
        places of its ones, then the zero flags of the variable-width codes,
        the only sequential dependency of the layout, in vector steps over
        runs of nonzero codes and per-code steps where zero codes are dense
        (see :func:`_zero_flags`), then the rows (see :func:`_row_pieces`).
        Rows in blocks without a zero flag, as in every exact-mode sketch
        without zero weight codes, and the centers and group sizes are read
        straight from the payload bytes; each block with a zero flag from
        its masked bits, copied into a bit matrix and packed again. Every
        field of a piece of rows is one word gather (see
        :meth:`_ByteRows.values`). A flag past the payload's end is a
        ``SketchFormatError`` at its bit, and a block that would end past
        the payload one at the payload's end."""
        p, k, d, s, layout = self.params, self.k, self.d, self.coreset_size, self._layout
        payload = np.frombuffer(self._data, dtype=np.uint8, offset=self._header_bytes)
        nbits = 8 * payload.size
        code_start = k * d * p.center_width + k * p.group_width
        row_start = code_start + (s + k * self._split[1] if self._split else 0)
        # d, and k H, are bounded by the payload's size only after this
        # check: the layout's O(d) steps and fields and the O(k H) section
        # come after it
        if nbits < row_start + s * layout.least_bits:
            raise SketchFormatError(
                f"payload of {nbits} bits cannot hold the {k}x{d} centers, "
                f"group sizes and {s} coded points of the header",
                bit_offset=nbits)
        fields = [np.empty((s, layout.runs[g][1]), dtype=t) for g, _, _, t, _ in layout.fields]
        if self._split:     # one grid array, which the coordinate fields view
            fields[2 * (not self.unit_weights):] = [np.empty((s, d), dtype=fields[-1].dtype)]
        cw, gw = p.center_width, p.group_width
        centers, sizes = np.empty((k, d), dtype=np.int64), np.empty((k, 1), dtype=np.uint64)
        for rows, block in _ByteRows.at(payload, 0, slice(0, k), d * cw):
            block.values(cw * np.arange(d), cw, centers[rows])
        for rows, block in _ByteRows.at(payload, k * d * cw, slice(0, k), gw):
            block.values(np.zeros(1, dtype=np.int64), gw, sizes[rows])
        centers += 1
        group_sizes = sizes[:, 0].tolist()
        if sum(group_sizes) != s:
            raise SketchFormatError(
                f"group sizes sum to {sum(group_sizes)}, header says {s}",
                bit_offset=code_start)
        group_of = np.repeat(np.arange(k), group_sizes)
        if self._split:
            low, buckets = self._split
            section = np.unpackbits(payload[code_start >> 3:(row_start + 7) >> 3])
            ones = np.flatnonzero(section[code_start & 7:][:s + k * buckets].view(bool))
            if len(ones) != s:
                raise SketchFormatError(
                    f"the first-coordinate section holds {len(ones)} ones for {s} rows",
                    bit_offset=code_start)
            # a row's one follows the section's zeros before it: H per
            # earlier group, then one per bucket below its own
            high = ones - np.arange(s) - group_of * buckets
            if s and not 0 <= high.min() <= high.max() < buckets:
                raise SketchFormatError(
                    "a group's span of the first-coordinate section does not "
                    "hold exactly its rows' ones", bit_offset=code_start)

        codes = len(layout.steps)
        zero = np.frombuffer(_zero_flags(payload, row_start, layout.steps, s * codes),
                             dtype=bool).reshape(s, codes)
        wire = layout.wire(fields)
        for rows, block in _row_pieces(payload, row_start, zero, layout):
            for field, (_, _, width, _, at) in zip(wire, layout.fields):
                if field.shape[1]:
                    block.values(at, width, field[rows])

        if self._split:
            # the first grid values, with the low L bits that the rows hold;
            # H 2^L <= 2^ceil(log2 delta), so the grid's type holds each, and
            # so does int64, as the center width is at most 62
            high <<= low
            if low:
                high |= fields[-1][:, 0].astype(np.int64)
            fields[-1][:, 0] = high
        if centers.max() > self.delta or (
                self.exact_coordinates and fields[-1].max(initial=0) >= self.delta):
            raise SketchFormatError(f"a grid coordinate exceeds delta = {self.delta}")
        if not self.unit_weights:
            # a row's weight code leads it: bit 1 is its sign, which the
            # exponent's field holds as its top bit
            expo = fields[0].max(initial=0)
            if expo >> p.w_expo_width:
                raise SketchFormatError("negative weight code")
            if expo > p.w_expo_max - p.w_expo_min:
                raise SketchFormatError("weight exponent field exceeds the declared range")
        if not self.exact_coordinates and fields[-2].max(initial=0) > p.x_expo_max:
            raise SketchFormatError("coordinate exponent field exceeds the declared range")

        self._set_payload(centers, group_sizes, group_of, zero, fields)
        payload_bits = self.ledger.total_bits - 8 * self._header_bytes
        expected_len = self._header_bytes + (payload_bits + 7) // 8
        if len(self._data) != expected_len:
            raise SketchFormatError(
                f"trailing bytes: file has {len(self._data)}, format needs {expected_len}",
                bit_offset=payload_bits)

    def _pack_payload(self, header: bytes) -> bytes:
        """``header`` and then the payload fields packed MSB first; the
        inverse of _parse_payload.

        Layout: centers, group sizes, under ``SORTED_FIRST`` the Elias-Fano
        section (see :func:`_first_split`), then per point one row of fields
        (see :class:`_Layout`). The section holds, per group and per bucket
        b of its high parts, a 1 for each of its rows whose first grid value
        has the high part b, then a 0: so row i's 1 is at bit i plus the
        buckets before its own, H per earlier group. Each block of rows is
        written at full width into one scratch bit matrix, behind the fewer
        than 8 bits that the bits before it left over; a block with a zero
        flag then keeps only its masked bits. The whole bytes go to the
        output and the rest carries over.
        """
        p, layout = self.params, self._layout
        payload_bits = self.ledger.total_bits - 8 * self._header_bytes
        out = np.empty(len(header) + (payload_bits + 7) // 8, dtype=np.uint8)
        out[:len(header)] = np.frombuffer(header, dtype=np.uint8)
        prefix = [_bits_of(self.centers.ravel() - 1, p.center_width).ravel(),
                  _bits_of(self.group_sizes, p.group_width).ravel()]
        fields = layout.wire(self._fields)
        if self._split:
            low, buckets = self._split
            s = self.coreset_size
            ones = self.group_of * buckets
            ones += (self._fields[-1][:, 0] >> low).astype(np.int64)
            ones += np.arange(s)
            section = np.zeros(s + self.k * buckets, dtype=np.uint8)
            section[ones] = 1
            prefix.append(section)
            if low:     # the rows' low bits alone (see _bits_of)
                fields[-2] = fields[-2] & (1 << low) - 1
        at, carry = _put_bytes(out, len(header), np.concatenate(prefix))
        scratch = None
        for rows, keep, count in _row_blocks(self._zero, layout):
            size = (rows.stop - rows.start) * layout.row_bits
            if scratch is None:     # the first block is the largest
                scratch = np.empty(8 + size, dtype=np.uint8)
            c = carry.size
            scratch[:c] = carry
            matrix = scratch[c:c + size].reshape(rows.stop - rows.start, layout.row_bits)
            # the zero flags of a block without a zero code are never written
            matrix.fill(0)
            views = layout.views(matrix)
            for (*_, flags), view in zip(layout.runs, views):
                if flags is not None and keep is not None:
                    view[:, :, 0] = self._zero[rows, flags]
            for field, (g, shift, width, *_) in zip(fields, layout.fields):
                views[g][:, :, shift:shift + width] = _bits_of(field[rows], width)
            if keep is not None:
                scratch[c:c + count] = matrix[keep]
            at, carry = _put_bytes(out, at, scratch[:c + count])
        # the last byte, padded with zeros
        out[at:] = np.packbits(carry)
        return out.tobytes()

    def _set_payload(self, centers, group_sizes, group_of, zero, fields):
        """Keep the parsed or encoded payload: the group sizes and each
        row's group, the zero flags of the variable-width codes and the field
        arrays (see :meth:`_Layout.wire`). The Elias-Fano section counts as
        coordinate bits."""
        p, d = self.params, self.d
        self.centers = geometry._freeze(centers)
        self.group_sizes = group_sizes
        self.group_of = group_of
        self._zero, self._fields = zero, fields
        run_bits = self._layout.bits(zero)
        self.ledger = BitLedger(
            header_bits=8 * self._header_bytes + self.k * p.group_width,
            center_bits=self.k * d * p.center_width,
            weight_bits=0 if self.unit_weights else run_bits[0],
            coordinate_bits=sum(run_bits[not self.unit_weights:])
            + (self.coreset_size + self.k * self._split[1] if self._split else 0),
        )

    # -- public surface ------------------------------------------------------

    @classmethod
    def from_bytes(cls, data: bytes) -> "Sketch":
        return cls(data)

    def to_bytes(self) -> bytes:
        return self._data

    def decode(self):
        """Reconstruct (weights, points, centers); exact, cached and read-only."""
        if self._decoded is None:
            p, zero, fields = self.params, self._zero, self._fields
            if self.unit_weights:
                weights = np.ones(self.coreset_size)
            else:
                weights = _decode_array(zero[:, 0], 0, fields[0][:, 0] + p.w_expo_min,
                                        fields[1][:, 0], p.f_w)
            if self.exact_coordinates:
                # coordinates as integers: their prepared rows need no scans
                rows = geometry._Rows(np.add(fields[-1], 1,
                                             dtype=_grid_dtype(p.center_width + 1)))
                points = rows.points
            else:
                points = _decode_array(zero[:, self._layout.runs[-1][3]], *fields[-3:], p.f_x)
                points += self.centers[self.group_of]
                points = geometry._freeze(points)
                rows = geometry._Rows(points)
            self._decoded = ((geometry._freeze(weights), points, self.centers), rows)
        return self._decoded[0]

    def estimate_cost(self, centers) -> float:
        """Weighted cost of the decoded coreset against a query center set."""
        weights, _, _ = self.decode()
        rows = self._decoded[1]
        cen = centers.centers if isinstance(centers, geometry.CenterSet) else centers
        cen = np.asarray(cen, dtype=np.float64)
        if cen.ndim != 2 or cen.shape[0] < 1:
            raise DimensionMismatch("query centers must form a non-empty (k', d) array")
        if cen.shape[1] != self.d:
            raise DimensionMismatch(
                f"sketch dimension {self.d} != query dimension {cen.shape[1]}")
        # the decoded weights are finite and nonnegative by construction
        total = geometry._weighted_sum(weights, rows, cen, self.z)
        if rows.cols is None and self.exact_coordinates:
            # built after the first answer, in the pages its kernel call freed
            rows.cols = self._column_operand()
        return total

    def _column_operand(self) -> np.ndarray:
        """The decoded rows' column operand (see ``geometry._Rows``): the
        grid values plus 1, transposed, then a row of ones, in one pass."""
        grid, dtype = self._fields[-1], _grid_dtype(self.params.center_width + 1)
        cols = np.empty((self.d + 1, self.coreset_size))
        np.add(grid.T, 1, out=cols[:-1], dtype=dtype)
        cols[-1] = 1.0
        return geometry._freeze(cols)


def check_header_fields(config: ProblemConfig) -> tuple[int, int, float]:
    """Reject a problem that :func:`encode` cannot write: integers beyond
    their header fields (z's numerator and denominator, k and d in 32 bits, n
    in 64), an epsilon the header cannot hold, and fields too wide for the
    codec. Returns :func:`quantize_epsilon`'s code; it needs no data."""
    z = config.z
    if max(z.numerator, z.denominator) >= 1 << 32:
        raise InvalidInput(f"z = {z}: numerator and denominator must "
                           "fit the header's 32-bit fields")
    for name, value, bits in (("k", config.k, 32), ("d", config.d, 32), ("n", config.n, 64)):
        if value >= 1 << bits:
            raise InvalidInput(f"{name} = {value} does not fit the header's {bits}-bit field")
    code = quantize_epsilon(config.epsilon)
    if (reason := derive_params(code[2], z, config.n, 0, config.delta).oversized()) is not None:
        raise InvalidInput(f"epsilon {config.epsilon} with z = {z} and "
                           f"delta = {config.delta}: {reason}")
    return code


def encode(coreset: WeightedCoreset, centers, config: ProblemConfig) -> Sketch:
    """Quantize a coreset against its approximate centers: partition it by
    nearest center, quantize weights and coordinate deltas, pack bits.

    Coordinates are stored as exact grid values instead when those take
    fewer bits than the quantized deltas, and weight codes are left out
    when every weight is exactly 1. Exact rows are ordered within each group
    by their first grid value, stored once as an Elias-Fano code, when that
    code takes fewer bits than the values.
    """
    eps_expo, eps_frac, eps_q = check_header_fields(config)
    if coreset.size > config.n:
        raise InvalidInput(f"coreset of {coreset.size} points for n = {config.n}: "
                           "a coreset has at most n points")
    # a copy, as the sketch freezes its centers
    cen = geometry.grid_coordinates(getattr(centers, "centers", centers)).copy()
    if cen.ndim != 2 or cen.shape != (config.k, config.d):
        raise DimensionMismatch(
            f"centers shape {cen.shape} != (k={config.k}, d={config.d})")
    geometry._check_grid_range(cen, config.delta)
    pts = coreset.points
    if pts.shape[1] != config.d:
        raise DimensionMismatch(f"coreset dimension {pts.shape[1]} != {config.d}")
    geometry._check_grid_range(pts, config.delta)

    s = coreset.size
    params = derive_params(eps_q, config.z, config.n, s, config.delta)

    # the sensitivity pass's nearest centers, if it ran against these centers
    carried = getattr(coreset, "_assignment", None)
    if carried is not None and np.array_equal(carried[0], cen):
        assign = carried[1]
    else:
        assign = geometry.nearest_assignment(pts, cen.astype(np.float64))
    group_sizes = np.bincount(assign, minlength=config.k)
    unit = bool((coreset.weights == 1.0).all())
    # grid values, coordinates minus 1, in the type of the exact layout's
    # fields, against quantized deltas: one bit if zero, else a full code.
    # Under SORTED_FIRST's rule, which needs only header values, the grid
    # values cost what the Elias-Fano code makes them cost
    grid_type = _grid_dtype(params.center_width)
    grid = np.subtract(pts, 1, out=np.empty(pts.shape, dtype=grid_type), casting="unsafe")
    nonzero = np.count_nonzero(grid != (cen - 1).astype(grid_type).take(assign, axis=0))
    low, buckets = _first_split(s, config.k, config.delta)
    first_bits = s + config.k * buckets + s * low
    sort_first = first_bits < s * params.center_width
    grid_bits = grid.size * params.center_width
    if sort_first:
        grid_bits += first_bits - s * params.center_width
    exact = grid_bits < grid.size + nonzero * (params.code_widths[1] - 1)
    # rows in group order, and under the rule exact rows in each group
    # stably by their first grid value: a stable sort by it, then the
    # stable sort by group
    sort_first = sort_first and exact
    if sort_first:
        by_first = np.argsort(grid[:, 0], kind="stable")
        order = by_first[coreset_mod._group_order(assign[by_first], config.k)]
    else:
        order = coreset_mod._group_order(assign, config.k)
    group_of = np.repeat(np.arange(config.k), group_sizes)
    weights = coreset.weights[order]
    flags = EXACT_COORDINATES * exact | UNIT_WEIGHTS * unit \
        | SORTED_FIRST * sort_first
    sketch = Sketch.__new__(Sketch)
    sketch._set_header(config.k, config.d, config.z, config.delta, eps_q,
                       config.n, s, params, SKETCH_VERSION, flags)
    layout = sketch._layout
    zero = np.empty((s, len(layout.steps)), dtype=bool)
    fields = []
    if not unit:
        w_zero, _, w_expo, w_frac = _encode_array(
            weights, params.f_w, params.weight_zero_threshold)
        # zero codes carry field 0, inside the range
        w_field = np.where(w_zero, 0, w_expo - params.w_expo_min)
        if w_field.min(initial=0) < 0 \
                or w_field.max(initial=0) > params.w_expo_max - params.w_expo_min:
            raise InvalidInput(
                "weight exponent out of representable range; the coreset "
                "violates the (1 +- 4 eps) n total-weight bound")
        zero[:, 0] = w_zero
        fields += [w_field[:, None], w_frac[:, None]]
    if exact:
        fields.append(grid.take(order, axis=0))
    else:
        x_zero, x_sign, x_expo, x_frac = _encode_array(
            (pts.take(order, axis=0) - cen[group_of]).astype(np.float64),
            params.f_x, 0.0)
        if x_expo.min(initial=0) < 0 or x_expo.max(initial=0) > params.x_expo_max:
            raise InvalidInput("coordinate delta exponent out of range")
        zero[:, layout.runs[-1][3]] = x_zero
        fields += [x_sign, x_expo, x_frac]

    header = struct.pack(_HEADER_FMT, SKETCH_MAGIC, SKETCH_VERSION,
                         config.k, config.d,
                         config.z.numerator, config.z.denominator,
                         config.delta, eps_expo,
                         eps_frac.to_bytes(3, "little"),
                         config.n, s,
                         params.w_expo_width, params.x_expo_width) + bytes([flags])
    sketch._set_payload(cen, group_sizes.tolist(), group_of, zero, fields)
    sketch._data = sketch._pack_payload(header)
    return sketch


def compress(dataset: GridDataset, k: int, z: ZLike, eps: float, method: str,
             seed: int, weights=None, n: int | None = None) -> Sketch:
    """The sketching scheme: approximate centers, a coreset against them
    and its quantized encoding, all from one seed.

    ``weights`` and ``n`` describe a weighted set that stands for n points;
    by default every point has weight 1 and n is the dataset's size.
    """
    config = ProblemConfig(n=dataset.n if n is None else n, d=dataset.d, k=k, z=z,
                           delta=dataset.delta, epsilon=eps)
    # before the coreset, whose dist^z sum and eps^-2 sample count may overflow first
    check_header_fields(config)
    centers = coreset_mod.approx_centers(dataset, k, z, seed)
    cs = coreset_mod.build_coreset(dataset, k, z, eps, method=method, seed=seed,
                                   centers=centers, weights=weights, source_n=config.n)
    return encode(cs, centers, config)


def theoretical_upper_bound(n: int, k: int, d: int, delta: int, eps: float,
                            z: float, coreset_size: int,
                            unit_weights: bool = False) -> int:
    """The most bits :func:`encode` can spend on a coreset of ``coreset_size``
    points: the header, the centers and group sizes, a full weight code per
    point (none under unit weights), and per point the cheaper of d grid
    values of ceil(log2 delta) bits and d full coordinate codes, as the
    encoder chooses. Every sketch's ledger is at or below it.
    """
    return _upper_bounds(n, k, d, delta, eps, z)(coreset_size, unit_weights)


def _upper_bounds(n: int, k: int, d: int, delta: int, eps: float, z: float):
    """:func:`theoretical_upper_bound` as a function of (coreset_size, unit_weights):
    all but the group width (``derive_params``' rule) derived once for every sketch."""
    _, _, eps_q = quantize_epsilon(eps)
    p = derive_params(eps_q, z, n, 0, delta)
    row_bits = [min(_Layout(p, d, exact, unit).row_bits for exact in (True, False))
                for unit in (False, True)]
    fixed = HEADER_FIXED_BITS + k * d * p.center_width
    return lambda s, unit: fixed + k * _ceil_log2_int(s + 1) + s * row_bits[bool(unit)]
