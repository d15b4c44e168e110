import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kzsk_reference as ref
import nearest_reference
from kzsketch import codec, geometry
from kzsketch.codec import Sketch, encode, theoretical_upper_bound
from kzsketch.coreset import WeightedCoreset, approx_centers, build_coreset
from kzsketch.errors import DimensionMismatch, InvalidInput, SketchFormatError
from kzsketch.geometry import CenterSet, ProblemConfig


def make_instance(n=120, d=6, k=3, z=2, delta=1024, eps=0.2, seed=0,
                  method="identity"):
    data = geometry.random_grid_dataset(n, d, delta, seed=seed)
    config = ProblemConfig(n=n, d=d, k=k, z=Fraction(z), delta=delta, epsilon=eps)
    centers = approx_centers(data, k, z, seed=seed + 1)
    cs = build_coreset(data, k, z, eps, method=method, seed=seed + 2,
                       centers=centers)
    return data, config, centers, cs


def values_of(bits, start, step, count, width):
    """The parser's read of ``count`` fields of the rows of the bit matrix
    ``bits``, ``step`` bits apart from bit ``start``."""
    rows = codec._ByteRows(*bits.shape)
    rows.bits[...] = bits
    return rows.values(codec._columns(start, step, count), width)


class TestBitIO:
    def test_round_trip_fields(self):
        rng = np.random.default_rng(0)
        fields = [(int(rng.integers(0, 2 ** nb)), nb) for nb in range(64)]
        fields += [(5, 3), (1023, 10), (2 ** 63 - 1, 63), (0, 0), (1, 1)]
        bits = np.concatenate([codec._bits_of([v], nb)[0] for v, nb in fields])
        raw = np.packbits(bits).tobytes()
        # the same bytes as packing the concatenated fields MSB first
        acc = 0
        for v, nb in fields:
            acc = acc << nb | v
        pad = -len(bits) % 8
        assert raw == (acc << pad).to_bytes(len(raw), "big")
        back = np.unpackbits(np.frombuffer(raw, dtype=np.uint8))
        ends = np.cumsum([nb for _, nb in fields])
        assert [int(values_of(back[end - nb:end][None], 0, nb, 1, nb)[0, 0])
                for (_, nb), end in zip(fields, ends)] == [v for v, _ in fields]
        # every field read from every bit of a byte: from 58 bits on, some
        # of these run into a ninth byte
        for v, nb in fields:
            for bit in range(8):
                row = np.r_[np.ones(bit, np.uint8), codec._bits_of([v], nb)[0], 1][None]
                assert int(values_of(row, bit, nb, 1, nb)[0, 0]) == v

    def test_many_values_in_one_call(self):
        values = np.array([[0, 1, 6], [7, 3, 2]])
        bits = codec._bits_of(values, 3)
        assert bits.shape == (2, 3, 3)
        assert bits.ravel().tolist() == [0, 0, 0, 0, 0, 1, 1, 1, 0,
                                         1, 1, 1, 0, 1, 1, 0, 1, 0]
        assert values_of(bits.reshape(2, 9), 0, 3, 3, 3).tolist() == values.tolist()
        # a strided view of a wider matrix reads the same, and so do the
        # offsets of the columns within the wider rows
        matrix = np.zeros((2, 11), dtype=np.uint8)
        matrix[:, 1:10].reshape(2, 3, 3)[...] = bits
        assert values_of(matrix[:, 1:10], 0, 3, 3, 3).tolist() == values.tolist()
        assert values_of(matrix, 1, 3, 3, 3).tolist() == values.tolist()

    @pytest.mark.parametrize("rows", [1, 3, 7, 8, 40])
    @pytest.mark.parametrize("width", [1, 10, 57, 63])
    def test_many_columns(self, rows, width):
        # fewer than 8 rows read their columns in groups of 8, the rest all
        # at once; 3 columns of a 61-column run, between other bits
        rng = np.random.default_rng(rows * width)
        values = rng.integers(0, 2 ** width, size=(rows, 61), dtype=np.uint64)
        bits = codec._bits_of(values.astype(np.int64), width)
        matrix = rng.integers(0, 2, size=(rows, 5 + 61 * (width + 2) + 3), dtype=np.uint8)
        matrix[:, 5:-3].reshape(rows, 61, width + 2)[:, :, 1:-1] = bits
        got = values_of(matrix, 6, width + 2, 61, width)
        assert got.dtype == np.uint64 and np.array_equal(got, values)

    def test_truncation_reports_offset(self):
        # exact coordinates after nonzero weight codes: the flag pass reads
        # every weight flag, and the cut falls in the last row's grid values
        rng = np.random.default_rng(4)
        pts = rng.integers(1, 17, size=(6, 3))
        config = ProblemConfig(n=6, d=3, k=2, z=Fraction(2), delta=16, epsilon=0.3)
        sketch = encode(WeightedCoreset(pts, rng.uniform(0.5, 2, size=6), 6),
                        pts[[0, 3]], config)
        assert sketch.exact_coordinates and not sketch._zero.any()
        header = codec._HEADER_BYTES
        end = sketch.ledger.total_bits - 8 * header
        cut = (end - 1) // 8
        assert end - 3 * sketch.params.center_width < 8 * cut < end
        with pytest.raises(SketchFormatError, match="payload ends early") as err:
            Sketch.from_bytes(sketch.to_bytes()[:header + cut])
        assert err.value.bit_offset == 8 * cut


def quantize(value, f, zero_threshold=0.0):
    """(is_zero, sign, expo, fraction, decoded value) of one scalar, through
    the library's array quantizer."""
    code = codec._encode_array([value], f, zero_threshold)
    return *(int(c[0]) for c in code), float(codec._decode_array(*code, f)[0])


class TestScalarCodec:
    def test_power_of_two_is_exact(self):
        is_zero, sign, expo, fraction, back = quantize(1.0, 6)
        assert (is_zero, sign, expo, fraction) == (False, 0, 0, 0)
        assert back == 1.0

    def test_hand_worked_example(self):
        # 0.3 with 4 fraction bits: mantissa 1.2 at expo -2, fraction
        # round(0.2 * 16) = 3, decoded 1.1875 * 2^-2 = 0.296875
        _, _, expo, fraction, back = quantize(0.3, 4)
        assert (expo, fraction) == (-2, 3)
        assert back == 0.296875
        assert abs(back - 0.3) / 0.3 <= 0.25 / 4

    def test_below_threshold_becomes_zero(self):
        is_zero, *_, back = quantize(1e-9, 5, zero_threshold=1e-3)
        assert is_zero
        assert back == 0.0

    def test_threshold_comparison_is_inclusive(self):
        assert quantize(1e-3, 5, zero_threshold=1e-3)[0]
        assert not quantize(math.nextafter(1e-3, 1), 5, zero_threshold=1e-3)[0]

    def test_sign_symmetry(self):
        for v in (0.3, 1.7, 123.456, 2.0 ** -20):
            _, pos_sign, pos_expo, pos_fraction, pos = quantize(v, 8)
            _, neg_sign, neg_expo, neg_fraction, neg = quantize(-v, 8)
            assert (neg_expo, neg_fraction) == (pos_expo, pos_fraction)
            assert (pos_sign, neg_sign) == (0, 1)
            assert neg == -pos

    def test_mantissa_carry_rolls_exponent(self):
        # 1.999.. with few fraction bits rounds up to 2.0
        _, _, expo, fraction, back = quantize(1.99, 3)
        assert (expo, fraction) == (1, 0)
        assert back == 2.0

    @given(v=st.floats(min_value=1e-200, max_value=1e200),
           f=st.integers(min_value=1, max_value=24),
           sign=st.sampled_from([-1.0, 1.0]))
    @settings(max_examples=300, deadline=None)
    def test_relative_error_bound(self, v, f, sign):
        value = sign * v
        back = quantize(value, f)[-1]
        assert abs(back - value) <= 2.0 ** -f * abs(value)

    @given(v=st.floats(min_value=1e-30, max_value=1e30),
           f=st.integers(min_value=1, max_value=20))
    @settings(max_examples=200, deadline=None)
    def test_quantization_is_idempotent(self, v, f):
        once = quantize(v, f)
        again = quantize(once[-1], f)
        assert once == again

    def test_array_path_matches_scalar_path(self):
        # the library's quantizer against the reference codec's own
        rng = np.random.default_rng(3)
        vals = np.concatenate([rng.normal(scale=10.0 ** rng.integers(-6, 6), size=20)
                               for _ in range(20)])
        vals[::37] = 1e-9       # below the threshold: zero codes
        # mantissa carries, and ties that round down and up to an even fraction
        vals[1:5] = 1.999, -3.999, 1 + 2.0 ** -8, 1 + 3 * 2.0 ** -8
        iz, sg, ex, fr = codec._encode_array(vals, 7, 1e-8)
        for i, v in enumerate(vals):
            assert (bool(iz[i]), sg[i], ex[i], fr[i]) == ref.quantize(float(v), 7, 1e-8), \
                f"value {v}"
        back = codec._decode_array(iz, sg, ex, fr, 7)
        assert back.tolist() == [ref.dequantize(ref.quantize(float(v), 7, 1e-8), 7)
                                 for v in vals]


class TestEncodeDecode:
    def test_point_on_center_stores_zero_deltas(self):
        p = np.array([[17, 33]])
        config = ProblemConfig(n=1, d=2, k=1, z=Fraction(2), delta=64, epsilon=0.25)
        cs = WeightedCoreset(p, np.ones(1), 1)
        sk = encode(cs, p, config)
        # one zero bit per coordinate
        assert sk.ledger.coordinate_bits == 2
        w, pts, cen = sk.decode()
        assert np.array_equal(pts, p.astype(float))
        assert sk.estimate_cost(CenterSet(p.astype(float))) == 0.0

    def test_decoded_weight_and_point_bounds(self):
        data, config, centers, cs = make_instance(method="sensitivity", seed=5)
        sk = encode(cs, centers, config)
        w, pts, cen = sk.decode()
        order = ref.row_order(cs.points, centers)
        orig_w = np.asarray(cs.weights)[order]
        thr = config.epsilon / (4 * cs.size)
        live = orig_w > thr
        assert (np.abs(w[live] - orig_w[live]) <= config.epsilon / 4 * orig_w[live]).all()
        assert (w[~live] == 0.0).all()
        orig_p = cs.points[order].astype(float)
        pdist = np.linalg.norm(orig_p - pts, axis=1)
        cdist = np.linalg.norm(orig_p - cen[sk.group_of], axis=1)
        z = float(config.z)
        assert (pdist <= config.epsilon / (4 * z) * cdist + 1e-12).all()

    def test_byte_round_trip_is_identity(self):
        _, config, centers, cs = make_instance(seed=6)
        sk = encode(cs, centers, config)
        raw = sk.to_bytes()
        again = Sketch.from_bytes(raw)
        assert again.to_bytes() == raw
        w1, p1, c1 = sk.decode()
        w2, p2, c2 = again.decode()
        assert np.array_equal(w1, w2) and np.array_equal(p1, p2) \
            and np.array_equal(c1, c2)

    def test_encode_is_deterministic(self):
        _, config, centers, cs = make_instance(seed=7)
        assert encode(cs, centers, config).to_bytes() \
            == encode(cs, centers, config).to_bytes()

    def test_ledger_matches_serialized_length(self):
        for method in ("identity", "sensitivity"):
            _, config, centers, cs = make_instance(seed=8, method=method)
            sk = encode(cs, centers, config)
            pad = 8 * len(sk.to_bytes()) - sk.ledger.total_bits
            assert 0 <= pad <= 7

    def test_corrupt_payload_raises_with_offset(self):
        _, config, centers, cs = make_instance(seed=9)
        raw = bytearray(encode(cs, centers, config).to_bytes())
        with pytest.raises(SketchFormatError):
            Sketch.from_bytes(bytes(raw[:-40]))
        with pytest.raises(SketchFormatError):
            Sketch.from_bytes(bytes(raw) + b"\0\0")

    def test_mangled_header_fields_rejected(self):
        _, config, centers, cs = make_instance(seed=9)
        raw = bytearray(encode(cs, centers, config).to_bytes())
        for offset in (6, 14, 18):      # k, z_num, z_den fields
            mangled = bytearray(raw)
            mangled[offset:offset + 4] = (0).to_bytes(4, "little")
            with pytest.raises(SketchFormatError):
                Sketch.from_bytes(bytes(mangled))

    def test_off_grid_coordinates_rejected(self):
        config = ProblemConfig(n=1, d=2, k=1, z=Fraction(2), delta=16, epsilon=0.2)
        cs = WeightedCoreset(np.array([[1, 1]]), np.ones(1), 1)
        with pytest.raises(InvalidInput):
            encode(cs, np.array([[1, 20]]), config)
        with pytest.raises(InvalidInput):
            encode(cs, np.array([[1.5, 2.0]]), config)

    @pytest.mark.parametrize("case", [
        dict(n=1, d=1, k=1, z=1, delta=2, eps=0.9),
        dict(n=7, d=2, k=7, z=2, delta=3, eps=0.01),
        dict(n=64, d=3, k=2, z="7/2", delta=5, eps=0.5),
        dict(n=33, d=9, k=5, z="3/2", delta=2 ** 20, eps=0.999),
        dict(n=50, d=4, k=3, z=4, delta=17, eps=0.05),
    ])
    def test_parameter_corners(self, case):
        z = Fraction(case["z"])
        data = geometry.random_grid_dataset(case["n"], case["d"], case["delta"],
                                            seed=case["n"])
        config = ProblemConfig(n=case["n"], d=case["d"], k=case["k"], z=z,
                               delta=case["delta"], epsilon=case["eps"])
        centers = approx_centers(data, case["k"], z, seed=case["n"] + 1)
        for method in ("identity", "sensitivity"):
            cs = build_coreset(data, case["k"], z, case["eps"], method=method,
                               seed=case["n"] + 2, centers=centers)
            sk = encode(cs, centers, config)
            raw = sk.to_bytes()
            assert Sketch.from_bytes(raw).to_bytes() == raw
            assert 0 <= 8 * len(raw) - sk.ledger.total_bits <= 7
            if method == "identity":
                for q in geometry.random_center_sets(data, case["k"], 20,
                                                     seed=case["n"] + 3):
                    exact = geometry.cost(data, q, z)
                    est = sk.estimate_cost(q)
                    if exact > 0:
                        assert abs(est - exact) <= case["eps"] * exact
                    else:
                        assert est == 0.0

    def test_empty_coreset_is_header_plus_centers(self):
        config = ProblemConfig(n=4, d=3, k=2, z=Fraction(1), delta=32, epsilon=0.5)
        cs = WeightedCoreset(np.zeros((0, 3), dtype=np.int64), np.zeros(0), 4)
        sk = encode(cs, np.array([[1, 2, 3], [4, 5, 6]]), config)
        ledger = sk.ledger
        assert ledger.weight_bits == 0 and ledger.coordinate_bits == 0
        assert ledger.center_bits == 2 * 3 * 5
        assert sk.estimate_cost(CenterSet(np.ones((1, 3)))) == 0.0

    def test_golden_wire_bytes(self):
        # frozen fixture pinning the wire format; regenerate deliberately if
        # the format version ever changes
        pts = np.array([[1, 7], [3, 2], [8, 8], [5, 1]])
        cs = WeightedCoreset(pts, np.array([1.0, 0.25, 2.5, 1e-9]), 4)
        config = ProblemConfig(n=4, d=2, k=2, z=Fraction(2), delta=8,
                               epsilon=0.25)
        sk = encode(cs, np.array([[1, 7], [5, 1]]), config)
        # v2, flags byte 01 (exact coordinates): 3-bit grid values beat
        # 9-bit codes
        golden = bytes.fromhex(
            "4b5a534b0200020000000200000002000000010000000800000000000000"
            "fe000000040000000000000004000000000000000502"
            "01" "1a048300c1d3f0808e00")
        # the same coreset in v1, with quantized deltas; parse only
        golden_v1 = bytes.fromhex(
            "4b5a534b0100020000000200000002000000010000000800000000000000"
            "fe000000040000000000000004000000000000000502"
            "1a0483061d0b000080a00070")
        assert sk.to_bytes() == golden
        for raw in (golden, golden_v1):
            w, p, _ = Sketch.from_bytes(raw).decode()
            assert w.tolist() == [1.0, 2.5, 0.25, 0.0]
            assert p.tolist() == [[1.0, 7.0], [8.0, 8.0], [3.0, 2.0], [5.0, 1.0]]

    def test_identity_sketch_costs_at_most_the_raw_grid(self):
        # 10-bit grid values and no weight codes: n d 10 bits, plus the
        # header with its group sizes and the centers
        n, d = 20_000, 16
        data = geometry.random_grid_dataset(n, d, 1024, seed=3)
        sk = codec.compress(data, 8, 2, 0.1, "identity", seed=4)
        assert sk.exact_coordinates and sk.unit_weights
        assert sk.ledger.total_bits == sk.ledger.header_bits + sk.ledger.center_bits \
            + n * d * 10
        centers = approx_centers(data, 8, 2, seed=4)
        assert np.array_equal(sk.decode()[1], data.points[ref.row_order(data.points, centers)])

    def test_full_weight_exponent_range(self):
        # weights spanning threshold .. (1+4 eps) n exercise both exponent
        # field extremes
        n, eps = 16, 0.5
        config = ProblemConfig(n=n, d=1, k=1, z=Fraction(2), delta=4,
                               epsilon=eps)
        pts = np.ones((n, 1), dtype=np.int64)
        thr = eps / (4 * n)
        weights = np.geomspace(thr * 1.01, (1 + 4 * eps) * n * 0.9, n)
        cs = WeightedCoreset(pts, weights, n)
        sk = encode(cs, np.array([[1]]), config)
        dec_w, _, _ = sk.decode()
        back = np.sort(dec_w)
        orig = np.sort(weights)
        assert (np.abs(back - orig) <= eps / 4 * orig).all()

    def test_overweight_coreset_rejected(self):
        n, eps = 8, 0.1
        config = ProblemConfig(n=n, d=1, k=1, z=Fraction(2), delta=4,
                               epsilon=eps)
        pts = np.ones((n, 1), dtype=np.int64)
        weights = np.ones(n)
        weights[0] = 16 * n     # far beyond the (1 + 4 eps) n total bound
        cs = WeightedCoreset(pts, weights, n)
        with pytest.raises(InvalidInput):
            encode(cs, np.array([[1]]), config)

    def test_coreset_larger_than_n_rejected(self):
        # the parser rejects a header with |S| > n, so encode writes none
        _, config, centers, cs = make_instance(n=100, k=2, seed=10)
        with pytest.raises(InvalidInput, match="coreset of 100 points for n = 50"):
            encode(cs, centers, dataclasses.replace(config, n=50))

    @pytest.mark.parametrize("centers, points, error, match", [
        ([[1, 1, 1], [2, 2, 2]], [[1, 1], [3, 4]], DimensionMismatch,
         r"centers shape \(2, 3\) != \(k=2, d=2\)"),
        ([[1, 1], [2, 2]], [[1, 1, 1], [3, 4, 5]], DimensionMismatch,
         "coreset dimension 3 != 2"),
        ([[1, 1], [2, 2]], [[1, 1], [3, 17]], InvalidInput,
         r"coreset coordinates must lie in \[1, 16\]"),
        *[([[v, 2], [2, 2]], [[1, 1], [3, 4]], InvalidInput,
           "grid coordinates must be integers that fit int64")
          for v in (np.inf, -np.inf, np.nan, 1e30, 1.5)],
    ], ids=["centers-shape", "coreset-dimension", "coordinate-beyond-delta",
            "inf-center", "-inf-center", "nan-center", "center-beyond-int64",
            "fractional-center"])
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_input_that_disagrees_with_the_config_rejected(self, centers, points, error,
                                                           match):
        config = ProblemConfig(n=2, d=2, k=2, z=Fraction(2), delta=16, epsilon=0.2)
        cs = WeightedCoreset(np.array(points), np.ones(2), 2)
        with pytest.raises(error, match=match):
            encode(cs, np.array(centers), config)

    @pytest.mark.parametrize("field, value, bits", [
        ("k", 2 ** 32, 32), ("d", 2 ** 32, 32), ("n", 2 ** 64, 64)])
    def test_integer_beyond_its_header_field_rejected(self, field, value, bits):
        _, config, centers, cs = make_instance(seed=11)
        with pytest.raises(InvalidInput, match=f"{field} = {value} does not fit "
                                               f"the header's {bits}-bit field"):
            encode(cs, centers, dataclasses.replace(config, **{field: value}))

    def test_leaves_the_callers_centers_writable(self):
        # the sketch freezes its own copy of the centers
        _, config, centers, cs = make_instance(seed=13)
        sketch = encode(cs, centers, config)
        assert centers.centers.flags.writeable and not sketch.centers.flags.writeable

    @pytest.mark.parametrize("other", ["reversed", "another seed"])
    def test_carried_assignment_only_for_the_centers_it_was_sampled_against(
            self, monkeypatch, other):
        # the sensitivity pass hands encode its nearest centers, keyed by the
        # centers it ran against; against other centers, even the same ones
        # in another order, encode finds its own, and the bytes are those
        # of the same coreset with nothing carried
        data, config, centers, cs = make_instance(n=400, k=4, method="sensitivity",
                                                  seed=12)
        bare = WeightedCoreset(cs.points, cs.weights, cs.source_n)
        assert repr(bare) == repr(cs) and not hasattr(bare, "_assignment")
        b = centers.centers[::-1] if other == "reversed" else \
            approx_centers(data, 4, 2, seed=99).centers
        assert not np.array_equal(geometry.nearest_assignment(cs.points, b),
                                  geometry.nearest_assignment(cs.points, centers.centers))
        assert encode(cs, b, config).to_bytes() == encode(bare, b, config).to_bytes()
        want = encode(bare, centers, config).to_bytes()
        monkeypatch.setattr(geometry, "nearest_assignment",
                            lambda *a: pytest.fail("the carried assignment was not used"))
        assert encode(cs, centers, config).to_bytes() == want
        assert encode(cs, centers.centers.astype(np.float64), config).to_bytes() == want
        identity = build_coreset(data, 4, 2, 0.2, method="identity")
        assert not hasattr(identity, "_assignment")


class TestCompress:
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("z, eps, delta, widths", [
        (10 ** 6, 1e-14, 256, "fraction widths (49, 69) and center width 8"),
        (2, 0.1, 2 ** 63, "fraction widths (6, 7) and center width 63"),
    ], ids=["fractions", "centers"])
    def test_too_wide_fields_rejected_before_any_coreset_work(self, monkeypatch, z, eps,
                                                              delta, widths):
        data = geometry.GridDataset(np.array([[1, 2], [3, 4], [5, 6]]), delta)
        monkeypatch.setattr(codec.coreset_mod, "approx_centers",
                            lambda *a: pytest.fail("the coreset work started"))
        with pytest.raises(InvalidInput) as err:
            codec.compress(data, 2, z, eps, "identity", 0)
        assert str(err.value) == (f"epsilon {eps} with z = {z} and delta = {delta}: "
                                  f"{widths} exceed the limits of 63 and 62 bits")

    @pytest.mark.parametrize("method", ["identity", "sensitivity"])
    def test_runs_the_layers_with_one_seed(self, method):
        data = geometry.random_grid_dataset(300, 4, 128, seed=40)
        centers = approx_centers(data, 3, 2, seed=9)
        cs = build_coreset(data, 3, 2, 0.2, method=method, seed=9, centers=centers)
        config = ProblemConfig(n=300, d=4, k=3, z=Fraction(2), delta=128, epsilon=0.2)
        assert codec.compress(data, 3, 2, 0.2, method, 9).to_bytes() \
            == encode(cs, centers, config).to_bytes()

    def test_weighted_set_stands_for_n_points(self):
        data = geometry.random_grid_dataset(100, 3, 64, seed=41)
        sketch = codec.compress(data, 2, 2, 0.2, "identity", 0,
                                weights=np.full(100, 3.0), n=300)
        weights, _, _ = sketch.decode()
        assert sketch.n == 300
        assert np.array_equal(weights, np.full(100, 3.0))


class TestEstimateCost:
    def test_identity_sketch_within_eps(self):
        data, config, centers, cs = make_instance(n=300, seed=10)
        sk = encode(cs, centers, config)
        for q in geometry.random_center_sets(data, 3, 200, seed=11):
            exact = geometry.cost(data, q, config.z)
            est = sk.estimate_cost(q)
            assert abs(est - exact) <= config.epsilon * exact

    def test_query_center_count_may_differ(self):
        data, config, centers, cs = make_instance(seed=12)
        sk = encode(cs, centers, config)
        q = CenterSet(np.full((7, data.d), float(data.delta // 2)))
        assert sk.estimate_cost(q) > 0

    def test_fine_coreset_then_encode_stays_within_eps(self):
        eps = 0.25
        data = geometry.random_grid_dataset(1500, 8, 512, seed=13)
        config = ProblemConfig(n=1500, d=8, k=4, z=Fraction(2), delta=512,
                               epsilon=eps)
        centers = approx_centers(data, 4, 2, seed=14)
        cs = build_coreset(data, 4, 2, eps / 5, method="sensitivity", seed=15,
                           centers=centers)
        sk = encode(cs, centers, config)
        for q in geometry.random_center_sets(data, 4, 100, seed=16):
            exact = geometry.cost(data, q, 2)
            assert abs(sk.estimate_cost(q) - exact) <= eps * exact

    @pytest.mark.parametrize("delta", [1024, 2 ** 24])
    def test_decoded_arrays_are_read_only(self, delta):
        # the cached arrays are what every later estimate reads, so a write
        # into them must fail instead of moving the next estimate
        data, config, centers, cs = make_instance(delta=delta, method="sensitivity",
                                                  seed=17)
        sk = encode(cs, centers, config)
        q = geometry.random_center_sets(data, 4, 1, seed=18)[0]
        before = sk.estimate_cost(q)
        for arr in sk.decode():
            with pytest.raises(ValueError):
                arr += 100
        assert sk.estimate_cost(q) == before
        assert all(a is b for a, b in zip(sk.decode(), sk.decode()))

    @pytest.mark.parametrize("delta", [1024, 2 ** 24])
    def test_estimate_equals_the_kernel_on_a_copy_of_the_rows(self, delta):
        # prepared rows give the same float as the decoded arrays handed to
        # weighted_cost as plain writable arrays, for integral queries (grid
        # rows of an exact-coordinate sketch) and jittered ones
        data, config, centers, cs = make_instance(n=300, delta=delta,
                                                  method="sensitivity", seed=19)
        sk = encode(cs, centers, config)
        assert sk.exact_coordinates == (delta == 1024)
        w, pts, _ = (a.copy() for a in sk.decode())
        for q in geometry.random_center_sets(data, 5, 6, seed=20):
            assert sk.estimate_cost(q) == geometry.weighted_cost(w, pts, q, config.z)

    @pytest.mark.parametrize("z, pins", [
        (Fraction(2), ["0x1.2ef35f1a33400p+35", "0x1.2c2a96e190c99p+35",
                       "0x1.30d703a358000p+35", "0x1.2ca456fe85c77p+35",
                       "0x1.2bb17ded5f800p+35", "0x1.2b7108ba5f60ep+35",
                       "0x1.2cc1f7aa4ec00p+35", "0x1.2c7662198b7cfp+35"]),
        (Fraction(3, 2), ["0x1.6aae97dc48a03p+29", "0x1.68211c9256d80p+29",
                          "0x1.6c8dbf313a6c8p+29", "0x1.68c74831f8682p+29",
                          "0x1.673525a8501fep+29", "0x1.66ab681897b82p+29",
                          "0x1.68990cd008c64p+29", "0x1.67881e7f41b40p+29"]),
    ])
    def test_estimates_at_the_query_workload_shape(self, z, pins):
        # the benchmark's read path: 32 query centers on sensitivity sketches
        # of 5000x64 grid points (about 3140 exact-coordinate rows), integral
        # queries (the grid pass) alternating with queries jittered by
        # delta/64 (the filter); each estimate is pinned, and equals the
        # weighted sum over the scalar reference's distances
        data = geometry.random_grid_dataset(5000, 64, 1024, seed=24)
        sk = codec.compress(data, 8, z, 0.1, "sensitivity", 24)
        w, pts, _ = sk.decode()
        assert sk.exact_coordinates and sk._decoded[1].integral
        queries = geometry.random_center_sets(data, 32, 8, seed=25)
        assert [bool((q.centers == np.floor(q.centers)).all())
                for q in queries] == [True, False] * 4
        got = [sk.estimate_cost(q) for q in queries]
        assert [est.hex() for est in got] == pins
        for q, est in zip(queries, got):
            d2, _ = nearest_reference.nearest(pts, q.centers)
            assert est == float(np.sum(w * geometry.powered_distances(d2, z)))

    def test_integral_rows_of_a_quantized_sketch_are_grid_rows(self):
        # points on their centers store zero deltas, so the quantized form is
        # the cheaper one, yet every decoded value is an integer
        p = np.array([[17, 33], [17, 33], [40, 2]])
        config = ProblemConfig(n=3, d=2, k=2, z=Fraction(2), delta=64, epsilon=0.25)
        sk = encode(WeightedCoreset(p, np.ones(3), 3), p[1:], config)
        assert not sk.exact_coordinates
        q = np.array([[1.0, 1.0], [30.0, 20.0]])
        assert sk.estimate_cost(q) == geometry.weighted_cost(np.ones(3), p, q, 2)
        assert sk._decoded[1].integral


class TestTheoreticalBound:
    def test_hand_golden_value(self):
        # eps = 1/2, z = 1, delta = 2, n = 4, |S| = 1: f_w = f_x = 3, center
        # and group widths 1, weight exponents in [-5, 4] (5 bits) and
        # coordinate exponents in [0, 1] (1 bit), so 10-bit weight and 6-bit
        # coordinate codes. Header 424 + 2 group + 4 center bits, then per
        # point a weight code and d = 2 one-bit grid values.
        assert theoretical_upper_bound(4, 2, 2, 2, 0.5, 1, 1) == 424 + 2 + 4 + 10 + 2
        assert theoretical_upper_bound(4, 2, 2, 2, 0.5, 1, 1, True) == 424 + 2 + 4 + 2

    def test_takes_the_cheaper_coordinate_form(self):
        # eps = 0.1, z = 2: f_x = 7, so 13-bit coordinate codes at delta =
        # 2^10, where 10-bit grid values are cheaper, and 14-bit codes at 2^24
        for delta, per_coordinate in [(2 ** 10, 10), (2 ** 24, 14)]:
            grown = theoretical_upper_bound(100, 4, 9, delta, 0.1, 2, 30)
            assert grown - theoretical_upper_bound(100, 4, 8, delta, 0.1, 2, 30) \
                == 4 * math.ceil(math.log2(delta)) + 30 * per_coordinate

    def test_monotone_in_size_arguments(self):
        base = dict(n=100, k=4, d=8, delta=64, eps=0.2, z=2, coreset_size=30)
        ref = theoretical_upper_bound(**base)
        for key, bigger in [("n", 200), ("k", 8), ("d", 16), ("delta", 128),
                            ("coreset_size", 60)]:
            grown = dict(base, **{key: bigger})
            assert theoretical_upper_bound(**grown) >= ref
        assert theoretical_upper_bound(**dict(base, eps=0.1)) >= ref
