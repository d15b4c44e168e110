"""The vectorized KZSK codec against the per-field reference codec in
``kzsk_reference``, on small instances and on corrupted bytes."""

import itertools
import struct
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kzsk_reference as ref
from kzsketch import codec
from kzsketch.cli import main
from kzsketch.coreset import WeightedCoreset, approx_centers
from kzsketch.errors import InvalidInput, KZSketchError, SketchFormatError
from kzsketch.geometry import GridDataset, ProblemConfig

ZS = [Fraction(1), Fraction(3, 2), Fraction(2), Fraction(3)]
EPSILONS = [0.3, 0.1, 1e-6, 1e-18]


@st.composite
def instances(draw):
    """A small coreset with centers. Covers k > n, |S| = 0, zero-weight
    codes (weights at or below eps / (4 |S|)), zero-delta codes (coreset
    points equal to their centers), unit weights, and both coordinate
    forms: grid values win on small grids, quantized codes at 2^20."""
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
    if draw(st.booleans()):
        weights[:] = 1.0
    config = ProblemConfig(n=n, d=d, k=k, z=z, delta=delta, epsilon=eps)
    return WeightedCoreset(pts, weights, n), centers, config


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
        cs = WeightedCoreset(pts, np.array([1.0, 0.25, 2.5, 1e-9]), 4)
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
        cs = WeightedCoreset(pts, np.ones(2), 2)
        config = ProblemConfig(n=2, d=2, k=1, z=Fraction(2), delta=8,
                               epsilon=1e-20)
        with pytest.raises(InvalidInput, match="epsilon 1e-20"):
            codec.encode(cs, np.array([[1, 7]]), config)


def _row_columns(sketch) -> list[tuple[int, bool]]:
    """(full width, whether it is a variable-width code) of each column of a
    row, in wire order: the weight code (none under unit weights), then d
    grid values in exact mode, of which the first keeps only its low L bits
    under SORTED_FIRST, else d coordinate codes."""
    p = sketch.params
    weight = [] if sketch.unit_weights else [(p.code_widths[0], True)]
    if sketch.exact_coordinates:
        first = p.center_width if sketch._split is None else sketch._split[0]
        return weight + [(first, False)] + [(p.center_width, False)] * (sketch.d - 1)
    return weight + [(p.code_widths[1], True)] * sketch.d


def _row_bits(sketch) -> int:
    return sum(width for width, _ in _row_columns(sketch))


def _least_row_bits(sketch) -> int:
    """A row's width with every variable-width code zero."""
    return sum(1 if variable else width for width, variable in _row_columns(sketch))


def _code_start(sketch) -> int:
    """The payload bit of the first row: after the centers, the group sizes
    and, under SORTED_FIRST, the |S| + k H bits of the Elias-Fano section."""
    p, s, k = sketch.params, sketch.coreset_size, sketch.k
    section = 0 if sketch._split is None else s + k * sketch._split[1]
    return k * sketch.d * p.center_width + k * p.group_width + section


def _flag_reads(sketch) -> tuple[np.ndarray, np.ndarray]:
    """(payload bit offset, value) of every zero flag the flag pass reads, in
    wire order: the flag of every variable-width code of every row. The
    sketch keeps flags for exactly those codes, one column each."""
    columns = _row_columns(sketch)
    widths = np.array([width for width, _ in columns])
    variable = np.array([v for _, v in columns], dtype=bool)
    assert sketch._zero.shape == (sketch.coreset_size, variable.sum())
    zero = np.zeros((sketch.coreset_size, len(columns)), dtype=bool)
    zero[:, variable] = sketch._zero
    taken = np.where(zero, 1, widths).ravel()
    offsets = _code_start(sketch) + np.cumsum(taken) - taken
    offsets = offsets.reshape(zero.shape)
    return offsets[:, variable].ravel(), sketch._zero.ravel()


def _truncation_offset(sketch, nbits: int) -> int:
    """The ``bit_offset`` of "payload ends early" for the sketch's bytes cut
    to a payload of ``nbits`` bits: the first flag read at or past the cut,
    or else the payload's end, at which the row blocks find it short."""
    reads, _ = _flag_reads(sketch)
    past = reads[reads >= nbits]
    return int(past[0]) if past.size else nbits


class TestRowBlocks:
    """Payload rows go through bit matrices of at most ``_BLOCK_BITS`` bits;
    here a block holds 4 rows, so 14 rows make blocks of 4, 4, 4 and 2.
    A block with a zero flag is masked: only the bits its keep mask marks
    are stored; one without stores its matrix whole. In the spread case
    zero-weight and zero-delta codes sit on the rows at block edges, and
    the exact form of it mixes both kinds of block; the last case has its
    zero codes in the last block only, the alternating case in the first
    and third (in the first only when coordinates are exact, as grid values
    have no zero flag)."""

    CASES = {"16-True": (16, "spread", True, [True, False, True, True]),
             "1048576-False": (2 ** 20, "spread", False, [True, True, True, True]),
             "1048576-mixed": (2 ** 20, "last", False, [False, False, False, True]),
             "16-alternating": (16, "alternating", True, [True, False, False, False]),
             "1048576-alternating": (2 ** 20, "alternating", False,
                                     [True, False, True, False])}

    @staticmethod
    def coreset(delta, zeros):
        # rows 0-8 in the low half-cube with center 1, rows 9-13 in the high
        # one with center delta: rows stay in coreset order, also when
        # sorted by their first coordinate, which ascends in each half at
        # delta = 16 (the exact cases)
        rng = np.random.default_rng(9)
        half = delta // 2
        pts = rng.integers(1, half + 1, size=(14, 3))
        pts[9:] += half
        centers = np.array([[1] * 3, [delta] * 3])
        weights = rng.uniform(0.5, 3.0, size=14)
        if zeros == "last":
            weights[12] = 0.0
            pts[13] = centers[1]
        elif zeros == "alternating":
            weights[1] = 0.0
            pts[9] = centers[1]
        else:
            weights[[3, 8, 12]] = 0.0               # zero weight codes
            pts[[4, 7]] = centers[0]                # zero delta codes
            pts[[11, 13]] = centers[1]
            pts[9, 1] = delta                       # and one coordinate
        if delta == 16:
            pts[:9, 0].sort()
            pts[9:, 0].sort()
        config = ProblemConfig(n=14, d=3, k=2, z=Fraction(2), delta=delta, epsilon=0.3)
        return WeightedCoreset(pts, weights, 14), centers, config

    @staticmethod
    def blocks(sketch):
        """(rows, keep mask, span of payload bits) of each row block."""
        out, pos = [], _code_start(sketch)
        for rows, keep, count in codec._row_blocks(sketch._zero, sketch._layout):
            out.append((rows, keep, slice(pos, pos + count)))
            pos += count
        return out

    @staticmethod
    def four_rows_per_block(sketch, monkeypatch):
        monkeypatch.setattr(codec, "_BLOCK_BITS", 4 * _row_bits(sketch) + 3)

    @pytest.mark.parametrize("delta, zeros, exact, masked", CASES.values(), ids=CASES)
    def test_bytes_and_fields_match_across_blocks(self, delta, zeros, exact, masked,
                                                  monkeypatch):
        cs, centers, config = self.coreset(delta, zeros)
        self.four_rows_per_block(codec.encode(cs, centers, config), monkeypatch)
        sketch = codec.encode(cs, centers, config)
        blocks = self.blocks(sketch)
        assert [rows.stop - rows.start for rows, _, _ in blocks] == [4, 4, 4, 2]
        assert [keep is not None for _, keep, _ in blocks] == masked
        # an unmasked block stores every bit of its matrix, a masked one those
        # its mask keeps; the spans tile the rows up to the payload's end
        for rows, keep, span in blocks:
            assert span.stop - span.start == (
                (rows.stop - rows.start) * _row_bits(sketch) if keep is None
                else np.count_nonzero(keep))
        assert blocks[-1][2].stop == sketch.ledger.total_bits - 8 * codec._HEADER_BYTES
        assert sketch.exact_coordinates == exact
        assert not sketch.unit_weights
        # one flag per weight code, and per coordinate code unless exact
        assert sketch._zero.shape == (14, 1 + 3 * (not exact))
        if zeros == "last":
            assert sketch._zero[12, 0] and sketch._zero[13, 1:].all()
            assert sketch._zero.sum() == 4
        elif zeros == "alternating":
            assert sketch._zero[1, 0] and (exact or sketch._zero[9, 1:].all())
            assert sketch._zero.sum() == 1 + 3 * (not exact)
        else:
            assert sketch._zero[[3, 8, 12], 0].all()
        if not exact and zeros == "spread":
            assert sketch._zero[[4, 7, 11, 13], 1:].all() and sketch._zero[9, 2]
            assert sketch._zero[:, 1:].sum() == 13
        raw = ref.encode_bytes(cs, centers, config)
        assert sketch.to_bytes() == raw
        expected = ref.parse(raw)
        assert_same_fields(sketch, expected)
        assert_same_fields(codec.Sketch.from_bytes(raw), expected)

    @pytest.mark.parametrize("delta, zeros, exact, masked", CASES.values(), ids=CASES)
    def test_truncation_inside_the_rows(self, delta, zeros, exact, masked, monkeypatch):
        # every cut inside the rows is "payload ends early", never a numpy
        # error from a short span. A cut after the last zero flag passes the
        # flag pass and fails in the last block, at the payload's end
        cs, centers, config = self.coreset(delta, zeros)
        self.four_rows_per_block(codec.encode(cs, centers, config), monkeypatch)
        sketch = codec.encode(cs, centers, config)
        raw, header = sketch.to_bytes(), codec._HEADER_BYTES
        last = self.blocks(sketch)[-1][2]
        for length in range(header + last.start // 8 - 8, len(raw)):
            with pytest.raises(SketchFormatError, match="payload ends early"):
                codec.Sketch.from_bytes(raw[:length])
        # the last flag read: the weight code's in exact mode, else the last
        # coordinate code's
        if exact:
            flag = last.stop - _row_bits(sketch)
        else:
            flag = last.stop - (1 if sketch._zero[-1, -1] else sketch.params.code_widths[1])
        assert flag == _flag_reads(sketch)[0][-1]
        cuts = range(flag // 8 + 1, (last.stop + 7) // 8)
        assert len(cuts) > 0 or zeros != "alternating"
        for cut in cuts:
            with pytest.raises(SketchFormatError, match="payload ends early") as err:
                codec.Sketch.from_bytes(raw[:header + cut])
            assert err.value.bit_offset == 8 * cut


@pytest.mark.parametrize("rows", [1, 3, 8])
@pytest.mark.parametrize("delta", [16, 2 ** 20])
def test_wide_rows_in_small_blocks(delta, rows, monkeypatch):
    # 20 coordinates to a row and blocks of 1, 3 or 8 rows: blocks of fewer
    # than 8 rows read their columns in groups of 8, and the 4 centers,
    # 20 columns of a few rows, too
    rng = np.random.default_rng(rows)
    pts = rng.integers(1, delta + 1, size=(30, 20))
    centers = pts[[0, 10, 20, 25]]
    pts[rng.random(pts.shape) < 0.2] = centers[0, 0]
    weights = rng.uniform(0.5, 3.0, size=30)
    weights[[4, 17]] = 0.0
    config = ProblemConfig(n=30, d=20, k=4, z=Fraction(2), delta=delta, epsilon=0.3)
    cs = WeightedCoreset(pts, weights, 30)
    raw = ref.encode_bytes(cs, centers, config)
    sketch = codec.Sketch.from_bytes(raw)
    assert sketch.exact_coordinates == (delta == 16)
    monkeypatch.setattr(codec, "_BLOCK_BITS", rows * _row_bits(sketch))
    assert_same_fields(codec.Sketch.from_bytes(raw), ref.parse(raw))
    assert codec.encode(cs, centers, config).to_bytes() == raw


class TestFlagWindows:
    """The flag pass takes its per-code steps in windows of
    ``_BLOCK_BITS // 8`` bytes (at least one), restarting at the byte of
    the first read past a window, and its vector steps over codes of at
    most about ``_BLOCK_BITS`` bits. Here the window shrinks from a few
    rows to one byte, so zero flags fall on the first and the last read of
    a window, and rows on block edges, in every mode: bytes and fields must
    still be the reference's, and every cut must fail at the offset that
    ``_truncation_offset`` derives from the wire format."""

    MODES = {"exact": (16, False), "exact-unit": (16, True),
             "quantized": (2 ** 20, False), "quantized-unit": (2 ** 20, True)}

    @staticmethod
    def coreset(delta, unit):
        rng = np.random.default_rng(21)
        pts = rng.integers(1, delta + 1, size=(40, 3))
        centers = pts[[0, 20]]
        pts[rng.random(40) < 0.3] = centers[0]      # zero delta codes
        pts[[5, 6, 7], 1] = centers[0, 1]           # and single coordinates
        weights = np.ones(40) if unit else rng.uniform(0.5, 3.0, size=40)
        if not unit:
            weights[rng.random(40) < 0.3] = 0.0     # zero weight codes
            weights[[10, 11, 12]] = 0.0
        config = ProblemConfig(n=40, d=3, k=2, z=Fraction(2), delta=delta, epsilon=0.3)
        return WeightedCoreset(pts, weights, 40), centers, config

    @staticmethod
    def window_firsts(reads: np.ndarray, window_bytes: int) -> list[int]:
        """The indices of the flag reads that start a window."""
        firsts, end = [], -1
        for i, pos in enumerate(reads.tolist()):
            if pos >= end:
                firsts.append(i)
                end = 8 * (pos // 8 + window_bytes)
        return firsts

    @pytest.mark.parametrize("delta, unit", MODES.values(), ids=MODES)
    def test_bytes_fields_and_cuts_match_at_every_window(self, delta, unit, monkeypatch):
        cs, centers, config = self.coreset(delta, unit)
        raw = ref.encode_bytes(cs, centers, config)
        expected = ref.parse(raw)
        sketch = codec.encode(cs, centers, config)
        assert (sketch.exact_coordinates, sketch.unit_weights) == (delta == 16, unit)
        reads, zero = _flag_reads(sketch)
        assert zero.any() != (delta == 16 and unit)      # exact unit rows have no flags
        row_bits, header = _row_bits(sketch), codec._HEADER_BYTES
        zero_first = zero_last = False
        for block_bits in range(1, 3 * row_bits):
            monkeypatch.setattr(codec, "_BLOCK_BITS", block_bits)
            sketch = codec.encode(cs, centers, config)
            assert sketch.to_bytes() == raw
            assert_same_fields(sketch, expected)
            assert_same_fields(codec.Sketch.from_bytes(raw), expected)
            firsts = self.window_firsts(reads, max(1, block_bits // 8))[1:]
            zero_first |= bool(zero[firsts].any())
            zero_last |= bool(zero[np.array(firsts, dtype=int) - 1].any())
        if zero.any():
            assert zero_first and zero_last
        # cuts with windows of one byte, of a few codes and of 3 rows; blocks
        # of one row and of two
        for block_bits in (8, 4 * 8 + 5, 2 * row_bits + 1):
            monkeypatch.setattr(codec, "_BLOCK_BITS", block_bits)
            for length in range(header, len(raw)):
                nbits = 8 * (length - header)
                with pytest.raises(SketchFormatError) as err:
                    codec.Sketch.from_bytes(raw[:length])
                # the size check takes every cut short of 40 rows of one bit
                # per code and every grid value in full, and no other
                short = nbits < _code_start(sketch) + 40 * _least_row_bits(sketch)
                assert ("cannot hold" in str(err.value)) == short
                if short:
                    assert err.value.bit_offset == nbits
                    continue
                assert "payload ends early" in str(err.value)
                assert err.value.bit_offset == _truncation_offset(sketch, nbits)


def _flagged(zero: np.ndarray, delta: int, unit: bool):
    """A coreset and its one center whose sketch has exactly the zero flags
    ``zero`` (rows by the variable-width codes of a row, in wire order):
    delta = 16 stores grid values, so a row's only flag is its weight
    code's; at 2^20 every coordinate is a code too, zero where the point
    repeats the center's coordinate. With one center, and at delta = 16
    first coordinates that ascend, rows keep their order."""
    rng = np.random.default_rng(zero.size)
    s, d = len(zero), 3
    center = np.full((1, d), delta // 2)
    if delta == 16:
        pts = rng.integers(1, delta + 1, size=(s, d))
        pts[:, 0].sort()
    else:
        pts = center + rng.integers(1, 1000, size=(s, d)) * rng.choice([-1, 1], size=(s, d))
        pts[zero[:, -d:]] = delta // 2
    weights = np.ones(s) if unit else np.where(zero[:, 0], 0.0, rng.uniform(0.5, 3.0, size=s))
    config = ProblemConfig(n=s, d=d, k=1, z=Fraction(2), delta=delta, epsilon=0.3)
    return WeightedCoreset(pts, weights, s), center, config


def _check_flag_pattern(pattern, delta: int, unit: bool, block_bits, cuts) -> None:
    """Parse the sketch of ``_flagged`` with windows of ``block_bits``: its
    flags must be ``pattern`` and its fields the reference parser's, and
    the bytes cut to each payload length in ``cuts`` (bytes; those at or
    past the payload's length are skipped) must fail with the message and
    ``bit_offset`` of the wire format's first unreadable bit: the first
    flag read past the cut, else the payload's end."""
    codes = (not unit) + 3 * (delta != 16)
    zero = np.asarray(pattern, dtype=bool).reshape(-1, codes)
    cs, center, config = _flagged(zero, delta, unit)
    raw = ref.encode_bytes(cs, center, config)
    expected, header = ref.parse(raw), codec._HEADER_BYTES
    with pytest.MonkeyPatch.context() as m:
        m.setattr(codec, "_BLOCK_BITS", block_bits)
        sketch = codec.Sketch.from_bytes(raw)
        assert (sketch.exact_coordinates, sketch.unit_weights) == (delta == 16, unit)
        assert np.array_equal(_flag_reads(sketch)[1], zero.ravel())
        assert_same_fields(sketch, expected)
        for cut in (c for c in cuts if header + c < len(raw)):
            with pytest.raises(SketchFormatError) as err:
                codec.Sketch.from_bytes(raw[:header + cut])
            if "cannot hold" not in str(err.value):
                assert "payload ends early" in str(err.value)
                assert err.value.bit_offset == _truncation_offset(sketch, 8 * cut)
            else:
                assert err.value.bit_offset == 8 * cut


def _code_cuts(pattern, delta: int, unit: bool, codes) -> list[int]:
    """The payload lengths in bytes that cut through the flags of ``codes``
    (indices into the flat pattern) or the bits of a code just after one."""
    zero = np.asarray(pattern, dtype=bool)
    cs, center, config = _flagged(zero.reshape(-1, (not unit) + 3 * (delta != 16)),
                                  delta, unit)
    reads, _ = _flag_reads(codec.encode(cs, center, config))
    reads = np.append(reads, reads[-1] + 80)
    return sorted({b for c in codes for b in range(reads[c] // 8, reads[c + 1] // 8 + 2)})


class TestFlagPatterns:
    """The flag pass on chosen and on random zero-flag patterns of about
    1000 variable-width codes, in each mode with flags, with the default
    windows (vector steps over chunks of 256, 512, ... codes), with vector
    steps of a few codes and with one-byte windows (one code per vector
    step): flags, fields and cut bytes as in ``_check_flag_pattern``."""

    MODES = {"exact": (16, False), "quantized": (2 ** 20, False),
             "quantized-unit": (2 ** 20, True)}
    BLOCKS = {"default": 1 << 18, "few-codes": 100, "one-byte": 8}

    @staticmethod
    def patterns(n: int) -> dict:
        run = codec._RUN
        # with no zero before them, a first vector step of 4 _RUN codes ends
        # at code 4 _RUN - 1 and the next, of 8 _RUN, at code 12 _RUN - 1;
        # a zero there is the last code of its chunk, and one right after it
        # the first of the next
        edges = np.zeros(n, dtype=bool)
        edges[[4 * run - 1, 12 * run - 1, 12 * run]] = True
        # runs of nonzero codes just below, at and above _RUN, and short ones
        lengths = itertools.cycle([run - 1, run, run + 1, 1, 2, 0])
        runs, at = np.zeros(n, dtype=bool), 0
        while (at := at + next(lengths)) < n:
            runs[at] = True
            at += 1
        rng = np.random.default_rng(n)
        mixed = np.zeros(n, dtype=bool)
        mixed[:300] = rng.random(300) < 0.5
        mixed[-100:] = True
        return {"none": np.zeros(n, dtype=bool), "all": np.ones(n, dtype=bool),
                "alternating": np.arange(n) % 2 == 0,
                "first": np.arange(n) == 0, "last": np.arange(n) == n - 1,
                "next-to-last": np.arange(n) == n - 2,
                "chunk-edges": edges, "runs": runs, "mixed": mixed}

    @pytest.mark.parametrize("block", BLOCKS)
    @pytest.mark.parametrize("mode", MODES)
    def test_chosen_patterns(self, mode, block):
        delta, unit = self.MODES[mode]
        codes = (not unit) + 3 * (delta != 16)
        n = -(-1000 // codes) * codes
        for name, pattern in self.patterns(n).items():
            # cuts through the first and last codes, the zero codes (or
            # every 97th, if there are many), and every 61st payload byte
            marked = np.flatnonzero(pattern)
            marked = marked if len(marked) < 20 else marked[::97]
            cuts = _code_cuts(pattern, delta, unit, [0, n - 3, n - 2, n - 1, *marked])
            cuts += list(range(0, cuts[-1], 61))
            _check_flag_pattern(pattern, delta, unit, self.BLOCKS[block], cuts)

    @pytest.mark.parametrize("block", BLOCKS)
    @pytest.mark.parametrize("mode", MODES)
    def test_vector_steps_after_a_per_code_stretch(self, mode, block):
        # a zero first code leaves the first vector step one code, so codes
        # 1 to _RUN^2 go in per-code steps (rows here have at most 4 codes,
        # fewer than _RUN); zeros on the stretch's last
        # code and on the last codes of the two vector chunks after it
        # (of 4 _RUN and 8 _RUN codes)
        delta, unit = self.MODES[mode]
        codes = (not unit) + 3 * (delta != 16)
        run = codec._RUN
        n = -(-(run * run + 16 * run) // codes) * codes
        marked = [0, run * run, run * run + 4 * run, run * run + 12 * run]
        pattern = np.isin(np.arange(n), marked)
        cuts = _code_cuts(pattern, delta, unit, [*marked, n - 1])
        cuts += list(range(0, cuts[-1], 613))
        _check_flag_pattern(pattern, delta, unit, self.BLOCKS[block], cuts)

    def test_a_guessed_offset_past_the_payload(self):
        # the last code follows a zero one: a vector step that takes the
        # zero code for a full code puts the last flag 11 bits later than
        # it is, past the cut, while the flag itself is before it
        delta, unit = self.MODES["quantized"]
        pattern = np.arange(1000) == 998
        cs, center, config = _flagged(pattern.reshape(-1, 4), delta, unit)
        reads, _ = _flag_reads(codec.encode(cs, center, config))
        x_bits = codec.encode(cs, center, config).params.code_widths[1]
        assert reads[999] == reads[998] + 1
        cut = reads[999] // 8 + 1
        assert reads[998] + x_bits >= 8 * cut
        _check_flag_pattern(pattern, delta, unit, 1 << 18, [cut])

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_random_patterns(self, data):
        mode = data.draw(st.sampled_from(sorted(self.MODES)))
        delta, unit = self.MODES[mode]
        codes = (not unit) + 3 * (delta != 16)
        rows = data.draw(st.integers(1, 400 // codes))
        density = data.draw(st.sampled_from([0.0, 0.002, 0.02, 0.1, 0.5, 0.9, 1.0]))
        seed = data.draw(st.integers(0, 2 ** 32 - 1))
        pattern = np.random.default_rng(seed).random(rows * codes) < density
        block = data.draw(st.sampled_from([1, 8, 37, 100, 1000, 1 << 18]))
        cuts = data.draw(st.lists(st.integers(0, rows * 6), max_size=8))
        _check_flag_pattern(pattern, delta, unit, block, cuts)


class TestRowsInPlace:
    """Rows of blocks without a zero flag are read where they lie in the
    payload, 8 rows to a group of ``row_bits`` bytes; the last groups, whose
    reads would run past the payload, from a zero-padded copy. Against the
    reference: every row count and every row width modulo 8, rows over 3
    blocks, with and without a zero weight code in the middle block."""

    @pytest.mark.parametrize("unit", [True, False])
    @pytest.mark.parametrize("d", range(1, 9))
    def test_every_row_count_and_width_modulo_8(self, d, unit, monkeypatch):
        # delta = 8 and k = 2 at 40 to 47 rows: exact coordinates with L = 0,
        # so a row is its weight code, if any, and 3 (d - 1) bits of grid
        # values: across d every width modulo 8, and none at d = 1 under
        # unit weights. Blocks of 16 rows make 3 of them
        rng = np.random.default_rng([d, unit])
        ends_on_a_byte = False
        for rows in range(40, 48):
            pts = rng.integers(1, 9, size=(rows, d))
            centers = pts[:2]
            weights = np.ones(rows) if unit else rng.uniform(0.5, 2.0, size=rows)
            config = ProblemConfig(n=rows, d=d, k=2, z=Fraction(2), delta=8, epsilon=0.3)
            raw = ref.encode_bytes(WeightedCoreset(pts, weights, rows), centers, config)
            sketch = codec.Sketch.from_bytes(raw)
            assert sketch.exact_coordinates and sketch._split == (0, 8)
            row_bits = 3 * (d - 1) + (0 if unit else sketch.params.code_widths[0])
            assert sketch._layout.row_bits == row_bits
            payload_bits = sketch.ledger.total_bits - 8 * codec._HEADER_BYTES
            ends_on_a_byte |= payload_bits % 8 == 0
            with monkeypatch.context() as m:
                if row_bits:
                    m.setattr(codec, "_BLOCK_BITS", 16 * row_bits)
                cases = [(weights, [False] * 3 if row_bits else [False])]
                if not unit:
                    # a zero weight code on encoded row 24 only: a masked
                    # block between two read in place
                    zeroed = weights.copy()
                    zeroed[ref.row_order(pts, centers, by_first=True)[24]] = 0.0
                    cases.append((zeroed, [False, True, False]))
                for w, masked in cases:
                    cs = WeightedCoreset(pts, w, rows)
                    raw = ref.encode_bytes(cs, centers, config)
                    sketch = codec.Sketch.from_bytes(raw)
                    assert [keep is not None for _, keep, _ in
                            codec._row_blocks(sketch._zero, sketch._layout)] == masked
                    assert_same_fields(sketch, ref.parse(raw))
                    assert codec.encode(cs, centers, config).to_bytes() == raw
        # with an odd row width one of the 8 row counts ends the payload on
        # a byte boundary, so the last row ends on the payload's last byte
        assert ends_on_a_byte or row_bits % 2 == 0


class TestScratchMemory:
    """The codec's scratch is block-sized: neither ``encode`` nor
    ``from_bytes`` followed by ``decode`` holds a bit array the size of the
    payload (one uint8 per bit) at any time, for a sketch of many blocks.
    The shape makes such an array outweigh everything the codec needs:
    30-bit grid values, 64 to a row, and about 130 rows to a block."""

    @staticmethod
    def sketch_input():
        rng = np.random.default_rng(3)
        s, d, delta = 4000, 64, 2 ** 30
        pts = rng.integers(1, delta + 1, size=(s, d))
        weights = rng.uniform(0.5, 1.5, size=s)
        config = ProblemConfig(n=s, d=d, k=4, z=Fraction(2), delta=delta, epsilon=5e-7)
        return WeightedCoreset(pts, weights, s), pts[[0, 1, 2, 3]], config

    @staticmethod
    def peak(call):
        tracemalloc.start()
        try:
            result = call()
            return result, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_peaks_stay_below_a_payload_bit_array(self):
        cs, centers, config = self.sketch_input()
        sketch, encode_peak = self.peak(lambda: codec.encode(cs, centers, config))
        assert sketch.exact_coordinates and not sketch.unit_weights
        payload_bits = sketch.ledger.total_bits - 8 * codec._HEADER_BYTES
        assert payload_bits >= 8 * codec._BLOCK_BITS
        raw = sketch.to_bytes()
        del sketch
        _, parse_peak = self.peak(lambda: codec.Sketch.from_bytes(raw).decode())
        assert encode_peak < payload_bits
        assert parse_peak < payload_bits


def _valid_sketch(delta: int = 16, unit: bool = False, rows: int = 6,
                  zero: bool = True) -> bytes:
    rng = np.random.default_rng(5)
    data = rng.integers(1, delta + 1, size=(rows, 2))
    weights = rng.uniform(0.5, 2.0, size=rows)
    if zero:
        weights[1] = 0.0
    if unit:
        weights[:] = 1.0
    centers = data[[0, 3]]
    config = ProblemConfig(n=rows, d=2, k=2, z=Fraction(3, 2), delta=delta,
                           epsilon=0.3)
    return ref.encode_bytes(WeightedCoreset(data, weights, rows), centers,
                            config)


# exact coordinates (4-bit grid values beat 10-bit codes) with weight codes
VALID = _valid_sketch()
# v1: the coreset of test_codec's golden bytes, with quantized deltas
VALID_V1 = bytes.fromhex(
    "4b5a534b0100020000000200000002000000010000000800000000000000"
    "fe000000040000000000000004000000000000000502"
    "1a0483061d0b000080a00070")
# 12 rows: exact coordinates under SORTED_FIRST, L = 1 and H = 8
VALID_SORTED = _valid_sketch(rows=12)
# one sketch per v2 mode, and v1
VALID_ALL = [VALID, _valid_sketch(unit=True), _valid_sketch(delta=2 ** 24),
             _valid_sketch(delta=2 ** 24, unit=True), VALID_SORTED, VALID_V1]
FLAGS_BYTE = struct.calcsize(codec._HEADER_FMT)
# (offset, struct code) of every header field after the magic
HEADER_FIELDS = [(4, "<H"), (6, "<I"), (10, "<I"), (14, "<I"), (18, "<I"),
                 (22, "<Q"), (30, "<b"), (31, "<3s"), (34, "<Q"), (42, "<Q"),
                 (50, "<B"), (51, "<B"), (FLAGS_BYTE, "<B")]


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
        assert layout == codec._HEADER_FMT + "B"     # v2 appends the flags
        assert [off for off, _ in HEADER_FIELDS] == [
            struct.calcsize("<4s" + "".join(fmt[1:] for _, fmt in HEADER_FIELDS[:i]))
            for i in range(len(HEADER_FIELDS))]

    def test_every_truncation(self):
        for valid in VALID_ALL:
            for length in range(len(valid)):
                with pytest.raises(SketchFormatError):
                    codec.Sketch.from_bytes(valid[:length])

    def test_every_single_bit_flip(self):
        for valid in VALID_ALL:
            for bit in range(8 * len(valid)):
                raw = bytearray(valid)
                raw[bit // 8] ^= 0x80 >> (bit % 8)
                _parse_or_reject(bytes(raw))

    def test_v1_parses_like_the_reference(self):
        sketch = codec.Sketch.from_bytes(VALID_V1)
        assert (sketch.version, sketch.exact_coordinates, sketch.unit_weights) \
            == (1, False, False)
        assert_same_fields(sketch, ref.parse(VALID_V1))

    def test_negative_weight_code_rejected(self):
        sketch = codec.Sketch.from_bytes(VALID)
        p = sketch.params
        assert not sketch._zero[0, 0]       # the first code: a nonzero weight
        sign_bit = (8 * codec._HEADER_BYTES + 1 + sketch.k * sketch.d * p.center_width
                    + sketch.k * p.group_width)
        raw = bytearray(VALID)
        raw[sign_bit // 8] |= 0x80 >> (sign_bit % 8)
        with pytest.raises(SketchFormatError, match="negative weight code"):
            codec.Sketch.from_bytes(bytes(raw))

    @pytest.mark.parametrize("row", [0, 39], ids=["in-place", "padded-copy"])
    def test_negative_weight_code_in_full_width_rows_rejected(self, row):
        # 40 rows without a zero code: one block, read in place but for its
        # last group, whose reads would run past the payload. The first row
        # is read in place, the last from the padded copy
        valid = _valid_sketch(rows=40, zero=False)
        sketch = codec.Sketch.from_bytes(valid)
        assert sketch.exact_coordinates and not sketch._zero.any()
        row_bits, start = sketch._layout.row_bits, _code_start(sketch)
        payload = np.frombuffer(valid, dtype=np.uint8, offset=codec._HEADER_BYTES)
        pieces = [rows for rows, _ in codec._ByteRows.at(payload, start, slice(0, 40),
                                                         row_bits)]
        assert pieces == [slice(0, 32), slice(32, 40)]
        sign_bit = 8 * codec._HEADER_BYTES + start + row * row_bits + 1
        raw = bytearray(valid)
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


class TestV2Flags:
    """Header flags that disagree with the payload: each must be a
    ``SketchFormatError``, exit code 2 from the CLI."""

    @staticmethod
    def _reject(raw: bytes, match: str, tmp_path, capsys):
        with pytest.raises(SketchFormatError, match=match):
            codec.Sketch.from_bytes(raw)
        path = tmp_path / "bad.kzsk"
        path.write_bytes(raw)
        assert main(["size", "--sketch", str(path)]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_samples_cover_every_mode(self):
        modes = [(sketch.exact_coordinates, sketch.unit_weights, ref.sorted_first(sketch))
                 for sketch in map(codec.Sketch.from_bytes, VALID_ALL[:5])]
        assert modes == [(True, False, False), (True, True, False), (False, False, False),
                         (False, True, False), (True, False, True)]
        assert codec.Sketch.from_bytes(VALID_SORTED)._split == (1, 8)

    @pytest.mark.parametrize("bit", [8, 0x80])
    def test_unknown_flag_bit(self, bit, tmp_path, capsys):
        raw = bytearray(VALID)
        raw[FLAGS_BYTE] |= bit
        self._reject(bytes(raw), "unknown header flags", tmp_path, capsys)

    def test_exact_coordinate_above_delta(self, tmp_path, capsys):
        # delta = 12 keeps 4-bit grid values; 12 stands for 13, off the grid
        rng = np.random.default_rng(6)
        data = rng.integers(1, 13, size=(6, 2))
        config = ProblemConfig(n=6, d=2, k=2, z=Fraction(2), delta=12, epsilon=0.3)
        raw = bytearray(ref.encode_bytes(WeightedCoreset(data, np.ones(6), 6),
                                         data[[0, 3]], config))
        sketch = codec.Sketch.from_bytes(bytes(raw))
        assert sketch.exact_coordinates and sketch.unit_weights
        first = 8 * codec._HEADER_BYTES + sketch.ledger.center_bits + 2 * sketch.params.group_width
        for i, bit in enumerate(format(12, "04b")):     # the first grid value
            mask = 0x80 >> ((first + i) % 8)
            raw[(first + i) // 8] &= ~mask
            raw[(first + i) // 8] |= mask * int(bit)
        self._reject(bytes(raw), "exceeds delta = 12", tmp_path, capsys)

    def test_unit_weight_flag_on_weight_codes(self, tmp_path, capsys):
        for valid in (VALID, VALID_ALL[2]):
            raw = bytearray(valid)
            assert not codec.Sketch.from_bytes(valid).unit_weights
            raw[FLAGS_BYTE] |= codec.UNIT_WEIGHTS
            # the payload is read without its weight codes: bytes are left over
            self._reject(bytes(raw), "trailing bytes", tmp_path, capsys)


def _section(raw: bytes) -> tuple[int, list]:
    """The bit of ``raw`` where a SORTED_FIRST sketch's Elias-Fano section
    starts, and the section's span of each group, as (first bit, bits)."""
    sketch = codec.Sketch.from_bytes(raw)
    p, (_, buckets) = sketch.params, sketch._split
    start = 8 * codec._HEADER_BYTES + sketch.k * (sketch.d * p.center_width + p.group_width)
    spans, at = [], start
    for size in sketch.group_sizes:
        spans.append((at, size + buckets))
        at += size + buckets
    return start, spans


def _bit(raw: bytes, at: int) -> int:
    return raw[at // 8] >> (7 - at % 8) & 1


def _flip(raw: bytes, *bits: int) -> bytes:
    out = bytearray(raw)
    for at in bits:
        out[at // 8] ^= 0x80 >> (at % 8)
    return bytes(out)


class TestSortedFirst:
    """SORTED_FIRST: each group's rows ordered by their first coordinate,
    stored once per group as an Elias-Fano code whose split L the header's
    |S|, k and delta fix. Bytes and fields match the reference codec at the
    rule's boundaries, and every malformed section is a
    ``SketchFormatError``, exit code 2 from the CLI."""

    @staticmethod
    def encoded(rows, k: int, delta: int, unit: bool = True, d: int = 2, seed: int = 0,
                eps: float = 0.3):
        """The library's sketch of ``rows`` random grid points, checked
        against the reference's bytes and fields."""
        rng = np.random.default_rng(seed)
        pts = rng.integers(1, delta + 1, size=(rows, d))
        weights = np.ones(rows) if unit else rng.uniform(0.5, 2.0, size=rows)
        config = ProblemConfig(n=rows, d=d, k=k, z=Fraction(2), delta=delta, epsilon=eps)
        cs, centers = WeightedCoreset(pts, weights, rows), pts[:k]
        sketch = codec.encode(cs, centers, config)
        raw = ref.encode_bytes(cs, centers, config)
        assert sketch.to_bytes() == raw
        expected = ref.parse(raw)
        assert_same_fields(sketch, expected)
        assert_same_fields(codec.Sketch.from_bytes(raw), expected)
        order = ref.row_order(pts, centers, ref.sorted_first(sketch))
        assert np.array_equal(sketch.decode()[1], pts[order])
        return sketch

    def test_equal_cost_splits_take_the_smallest_low(self):
        # delta = 1024, k = 1 and 512 rows: L = 0 and L = 1 both cost 1024
        # bits; the smaller is the split
        sketch = self.encoded(512, 1, 1024)
        assert sketch.exact_coordinates and ref.sorted_first(sketch)
        assert sketch._split == ref.first_split(512, 1, 1024) == (0, 1024)

    def test_flag_left_out_at_equal_cost(self):
        # delta = 16, k = 1, 4 rows: the code's 4 + 8 + 4 * 1 bits equal the
        # first coordinates' 4 * 4, so the values stay in full
        assert ref.first_split(4, 1, 16) == (1, 8)
        sketch = self.encoded(4, 1, 16)
        assert sketch.exact_coordinates and not ref.sorted_first(sketch)
        assert ref.sorted_first(self.encoded(5, 1, 16))

    def test_zero_width_rows_round_trip(self):
        # d = 1, unit weights and L = 0: a row stores no bit at all, so the
        # Elias-Fano section holds every coordinate
        sketch = self.encoded(40, 1, 4, d=1)
        assert ref.sorted_first(sketch) and sketch._split == (0, 4)
        assert sketch._layout.row_bits == 0
        assert sketch.ledger.coordinate_bits == 40 + 4

    @pytest.mark.parametrize("delta, d, k, unit, eps", [(2 ** 33, 1, 1, True, 1e-5),
                                                        (2 ** 40, 2, 3, False, 1e-9),
                                                        (2 ** 57, 2, 1, True, 1e-15),
                                                        (2 ** 58, 2, 2, False, 1e-15),
                                                        (2 ** 62, 3, 1, True, 1e-16)],
                             ids=["delta-2^33", "delta-2^40", "delta-2^57", "delta-2^58",
                                  "delta-2^62"])
    def test_grid_values_of_64_bits(self, delta, d, k, unit, eps):
        # a center width of 33 to 62 bits keeps grid values as uint64, which
        # the section's row places, int64, meet in the packer and the parser.
        # Grid values of 58 bits and more run into a ninth byte when read,
        # 57 bits fill a word from the last bit of their first byte
        sketch = self.encoded(1000, k, delta, unit=unit, d=d, eps=eps)
        assert sketch.exact_coordinates and ref.sorted_first(sketch)
        assert sketch._fields[-1].dtype == np.uint64
        assert sketch.params.center_width == delta.bit_length() - 1

    def test_first_coordinate_above_a_64_bit_delta(self, tmp_path, capsys):
        # delta = 2^33 + 1, k = 1 and 24 rows: L = 28, H = 33, so the top
        # bucket stands for 2^33 + 1 up to 2^33 + 2^28. The last row's first
        # coordinate is delta: the last of its low bits, 34 bits before the
        # row's end, set
        rng = np.random.default_rng(2)
        pts = rng.integers(1, 2 ** 33 + 2, size=(24, 2))
        pts[-1, 0] = 2 ** 33 + 1
        config = ProblemConfig(n=24, d=2, k=1, z=Fraction(2), delta=2 ** 33 + 1, epsilon=1e-9)
        cs = WeightedCoreset(pts, np.ones(24), 24)
        raw = ref.encode_bytes(cs, pts[:1], config)
        sketch = codec.Sketch.from_bytes(raw)
        assert ref.sorted_first(sketch) and sketch._split == (28, 33)
        assert sketch.decode()[1][-1].tolist() == pts[-1].tolist()
        low_bit = sketch.ledger.total_bits - 34 - 1
        assert _bit(raw, low_bit) == 0
        TestV2Flags._reject(_flip(raw, low_bit), f"exceeds delta = {2 ** 33 + 1}",
                            tmp_path, capsys)

    @pytest.mark.parametrize("k", [1, 3])
    def test_ledger_counts_the_section(self, k):
        sketch = self.encoded(300, k, 1024, unit=False, d=3)
        low, buckets = sketch._split
        assert sketch.ledger.coordinate_bits == 300 * (low + 2 * 10) + 300 + k * buckets
        assert sketch.ledger.total_bits <= codec.theoretical_upper_bound(
            300, k, 3, 1024, 0.3, 2, 300)

    def test_flag_without_exact_coordinates(self, tmp_path, capsys):
        for valid in (VALID_ALL[2], VALID_ALL[3]):
            raw = bytearray(valid)
            raw[FLAGS_BYTE] |= codec.SORTED_FIRST
            TestV2Flags._reject(bytes(raw), "SORTED_FIRST without EXACT_COORDINATES",
                                tmp_path, capsys)

    def test_section_past_the_payload(self, tmp_path, capsys):
        # every cut inside the section fails the size check, before the
        # section is read
        start, spans = _section(VALID_SORTED)
        end = spans[-1][0] + spans[-1][1]
        for length in range(start // 8, (end + 7) // 8):
            TestV2Flags._reject(VALID_SORTED[:length], "cannot hold", tmp_path, capsys)

    def test_group_span_with_a_one_too_many(self, tmp_path, capsys):
        # group 0's span ends in a 0, its last bucket's; made a 1, with
        # group 1's first 1 made a 0, the section still holds |S| ones
        (first, width), (second, _) = _section(VALID_SORTED)[1]
        assert _bit(VALID_SORTED, first + width - 1) == 0
        one = next(at for at in range(second, 8 * len(VALID_SORTED)) if _bit(VALID_SORTED, at))
        raw = _flip(VALID_SORTED, first + width - 1, one)
        TestV2Flags._reject(raw, "group's span", tmp_path, capsys)

    def test_section_with_a_one_too_many(self, tmp_path, capsys):
        (first, width), _ = _section(VALID_SORTED)[1]
        TestV2Flags._reject(_flip(VALID_SORTED, first + width - 1),
                            "section holds 13 ones for 12 rows", tmp_path, capsys)

    def test_first_coordinate_above_delta(self, tmp_path, capsys):
        # delta = 11, k = 1 and 4 rows: L = 1, H = 6, so the top bucket with
        # low bit 1 stands for 12, off the grid. The last row's first
        # coordinate is 11: its low bit, the first of its 5-bit row, set
        pts = np.array([[3, 2], [7, 9], [1, 5], [11, 4]])
        config = ProblemConfig(n=4, d=2, k=1, z=Fraction(2), delta=11, epsilon=0.3)
        cs = WeightedCoreset(pts, np.ones(4), 4)
        raw = ref.encode_bytes(cs, pts[:1], config)
        sketch = codec.Sketch.from_bytes(raw)
        assert sketch._split == (1, 6) and sketch._layout.row_bits == 1 + 4
        assert sketch.decode()[1][-1].tolist() == [11.0, 4.0]
        last_row = sketch.ledger.total_bits - 5
        assert _bit(raw, last_row) == 0
        TestV2Flags._reject(_flip(raw, last_row), "exceeds delta = 11", tmp_path, capsys)
