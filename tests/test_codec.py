import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kzsketch import codec, geometry
from kzsketch.codec import (Sketch, decode_scalar, encode, encode_scalar,
                            theoretical_upper_bound)
from kzsketch.coreset import WeightedCoreset, approx_centers, build_coreset
from kzsketch.errors import InvalidInput, SketchFormatError
from kzsketch.geometry import CenterSet, ProblemConfig


def make_instance(n=120, d=6, k=3, z=2, delta=1024, eps=0.2, seed=0,
                  method="identity"):
    data = geometry.random_grid_dataset(n, d, delta, seed=seed)
    config = ProblemConfig(n=n, d=d, k=k, z=Fraction(z), delta=delta, epsilon=eps)
    centers = approx_centers(data, k, z, seed=seed + 1)
    cs = build_coreset(data, k, z, eps, method=method, seed=seed + 2,
                       centers=centers)
    return data, config, centers, cs


class TestBitIO:
    def test_round_trip_fields(self):
        fields = [(5, 3), (0, 1), (1023, 10), (1, 1), (0, 7), (77, 13),
                  (2 ** 63 - 1, 63), (0, 0)]
        offsets = np.cumsum([0] + [nb for _, nb in fields])
        bits = np.zeros(offsets[-1], dtype=np.uint8)
        for (v, nb), off in zip(fields, offsets):
            codec._put_bits(bits, np.array([off]), [v], nb)
        raw = np.packbits(bits).tobytes()
        # the same bytes as packing the concatenated fields MSB first
        acc = 0
        for v, nb in fields:
            acc = acc << nb | v
        pad = -len(bits) % 8
        assert raw == (acc << pad).to_bytes(len(raw), "big")
        back = np.unpackbits(np.frombuffer(raw, dtype=np.uint8))
        assert [int(codec._take_bits(back, np.array([off]), nb)[0])
                for (_, nb), off in zip(fields, offsets)] == [v for v, _ in fields]

    def test_many_offsets_in_one_call(self):
        values = np.array([0, 1, 6, 7, 3])
        offsets = np.array([0, 3, 6, 9, 12])
        bits = np.zeros(15, dtype=np.uint8)
        codec._put_bits(bits, offsets, values, 3)
        assert bits.tolist() == [0, 0, 0, 0, 0, 1, 1, 1, 0, 1, 1, 1, 0, 1, 1]
        assert codec._take_bits(bits, offsets, 3).tolist() == values.tolist()

    def test_truncation_reports_offset(self):
        bits = np.zeros(8, dtype=np.uint8)
        codec._put_bits(bits, np.array([0]), [0b101], 3)
        assert codec._take_bits(bits, np.array([0]), 3).tolist() == [0b101]
        with pytest.raises(SketchFormatError) as err:
            codec._take_bits(bits, np.array([0, 3]), 8)
        assert err.value.bit_offset == 3


class TestScalarCodec:
    def test_power_of_two_is_exact(self):
        code = encode_scalar(1.0, 6)
        assert (code.is_zero, code.sign, code.expo, code.fraction) == (False, 0, 0, 0)
        assert decode_scalar(code, 6) == 1.0

    def test_hand_worked_example(self):
        # 0.3 with 4 fraction bits: mantissa 1.2 at expo -2, fraction
        # round(0.2 * 16) = 3, decoded 1.1875 * 2^-2 = 0.296875
        code = encode_scalar(0.3, 4)
        assert (code.expo, code.fraction) == (-2, 3)
        assert decode_scalar(code, 4) == 0.296875
        assert abs(decode_scalar(code, 4) - 0.3) / 0.3 <= 0.25 / 4

    def test_below_threshold_becomes_zero(self):
        code = encode_scalar(1e-9, 5, zero_threshold=1e-3)
        assert code.is_zero
        assert decode_scalar(code, 5) == 0.0

    def test_threshold_comparison_is_inclusive(self):
        assert encode_scalar(1e-3, 5, zero_threshold=1e-3).is_zero
        assert not encode_scalar(math.nextafter(1e-3, 1), 5, zero_threshold=1e-3).is_zero

    def test_sign_symmetry(self):
        for v in (0.3, 1.7, 123.456, 2.0 ** -20):
            pos = encode_scalar(v, 8)
            neg = encode_scalar(-v, 8)
            assert (neg.expo, neg.fraction) == (pos.expo, pos.fraction)
            assert (pos.sign, neg.sign) == (0, 1)
            assert decode_scalar(neg, 8) == -decode_scalar(pos, 8)

    def test_mantissa_carry_rolls_exponent(self):
        # 1.999.. with few fraction bits rounds up to 2.0
        code = encode_scalar(1.99, 3)
        assert (code.expo, code.fraction) == (1, 0)
        assert decode_scalar(code, 3) == 2.0

    @given(v=st.floats(min_value=1e-200, max_value=1e200),
           f=st.integers(min_value=1, max_value=24),
           sign=st.sampled_from([-1.0, 1.0]))
    @settings(max_examples=300, deadline=None)
    def test_relative_error_bound(self, v, f, sign):
        value = sign * v
        back = decode_scalar(encode_scalar(value, f), f)
        assert abs(back - value) <= 2.0 ** -f * abs(value)

    @given(v=st.floats(min_value=1e-30, max_value=1e30),
           f=st.integers(min_value=1, max_value=20))
    @settings(max_examples=200, deadline=None)
    def test_quantization_is_idempotent(self, v, f):
        once = encode_scalar(v, f)
        again = encode_scalar(decode_scalar(once, f), f)
        assert once == again

    def test_array_path_matches_scalar_path(self):
        rng = np.random.default_rng(3)
        vals = np.concatenate([rng.normal(scale=10.0 ** rng.integers(-6, 6), size=20)
                               for _ in range(20)])
        vals[::37] = 1e-9       # below the threshold: zero codes
        iz, sg, ex, fr = codec._encode_array(vals, 7, 1e-8)
        for i, v in enumerate(vals):
            ref = encode_scalar(float(v), 7, 1e-8)
            assert (bool(iz[i]), sg[i], ex[i], fr[i]) == \
                (ref.is_zero, ref.sign, ref.expo, ref.fraction), f"value {v}"
        back = codec._decode_array(iz, sg, ex, fr, 7)
        assert back.tolist() == [decode_scalar(encode_scalar(float(v), 7, 1e-8), 7)
                                 for v in vals]


class TestEncodeDecode:
    def test_point_on_center_stores_zero_deltas(self):
        p = np.array([[17, 33]])
        config = ProblemConfig(n=1, d=2, k=1, z=Fraction(2), delta=64, epsilon=0.25)
        cs = WeightedCoreset(p, np.ones(1), 1, 0.25)
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
        order = sk.source_order
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
        cs = WeightedCoreset(np.array([[1, 1]]), np.ones(1), 1, 0.2)
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
        cs = WeightedCoreset(np.zeros((0, 3), dtype=np.int64), np.zeros(0), 4, 0.5)
        sk = encode(cs, np.array([[1, 2, 3], [4, 5, 6]]), config)
        ledger = sk.ledger
        assert ledger.weight_bits == 0 and ledger.coordinate_bits == 0
        assert ledger.center_bits == 2 * 3 * 5
        assert sk.estimate_cost(CenterSet(np.ones((1, 3)))) == 0.0

    def test_golden_wire_bytes(self):
        # frozen fixture pinning the wire format; regenerate deliberately if
        # the format version ever changes
        pts = np.array([[1, 7], [3, 2], [8, 8], [5, 1]])
        cs = WeightedCoreset(pts, np.array([1.0, 0.25, 2.5, 1e-9]), 4, 0.25)
        config = ProblemConfig(n=4, d=2, k=2, z=Fraction(2), delta=8,
                               epsilon=0.25)
        sk = encode(cs, np.array([[1, 7], [5, 1]]), config)
        golden = bytes.fromhex(
            "4b5a534b0100020000000200000002000000010000000800000000000000"
            "fe000000040000000000000004000000000000000502"
            "1a0483061d0b000080a00070")
        assert sk.to_bytes() == golden
        w, p, _ = sk.decode()
        assert w.tolist() == [1.0, 2.5, 0.25, 0.0]
        assert p.tolist() == [[1.0, 7.0], [8.0, 8.0], [3.0, 2.0], [5.0, 1.0]]

    def test_full_weight_exponent_range(self):
        # weights spanning threshold .. (1+4 eps) n exercise both exponent
        # field extremes
        n, eps = 16, 0.5
        config = ProblemConfig(n=n, d=1, k=1, z=Fraction(2), delta=4,
                               epsilon=eps)
        pts = np.ones((n, 1), dtype=np.int64)
        thr = eps / (4 * n)
        weights = np.geomspace(thr * 1.01, (1 + 4 * eps) * n * 0.9, n)
        cs = WeightedCoreset(pts, weights, n, eps)
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
        cs = WeightedCoreset(pts, weights, n, eps)
        with pytest.raises(InvalidInput):
            encode(cs, np.array([[1]]), config)


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


class TestTheoreticalBound:
    def test_store_everything_branch(self):
        assert theoretical_upper_bound(3, 8, 4, 16, 0.1, 2, 3) \
            == pytest.approx(3 * 4 * 4)

    def test_hand_golden_value(self):
        # k d log2(delta) = 4; |S| ( log2(4/eps)=3 +
        #   log2 max(log2(4 |S| / eps)=3, log2 n=2) + d log2(4 z/eps)=6 + 0 )
        got = theoretical_upper_bound(4, 2, 2, 2, 0.5, 1, 1)
        want = 4 + (3 + math.log2(3) + 6 + 0)
        assert got == pytest.approx(want)

    def test_monotone_in_size_arguments(self):
        base = dict(n=100, k=4, d=8, delta=64, eps=0.2, z=2, coreset_size=30)
        ref = theoretical_upper_bound(**base)
        for key, bigger in [("n", 200), ("k", 8), ("d", 16), ("delta", 128),
                            ("coreset_size", 60)]:
            grown = dict(base, **{key: bigger})
            assert theoretical_upper_bound(**grown) >= ref
        assert theoretical_upper_bound(**dict(base, eps=0.1)) >= ref
