"""Mutants: small deliberate edits to the library, each of which a named set
of tests must catch. A mutant that all of its tests pass is a check that
passes vacuously: strengthen a test, never edit or drop the entry.

Run from anywhere, as a script (pytest does not collect this module):

    python tests/mutants.py           # every entry
    python tests/mutants.py NAME ...  # the named entries

Each entry is applied alone to a copy of ``src/`` and ``tests/`` in a
temporary directory. Its old text must occur exactly once in its file, or
the entry is stale and the run fails. Its tests then run under pytest with
``-W error::RuntimeWarning``, as the Tier-1 suite runs, and one of them must
fail: a collection error or an empty selection is not a kill. An entry
marked equivalent changes no output, so no test can kill it: it is checked
for staleness and listed with its reason, not run. The exit status is 0
only if every entry run was killed and no entry is stale.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]


class Mutant(NamedTuple):
    name: str
    file: str           # relative to the repository root
    old: str            # exact text, found exactly once in the file
    new: str
    tests: tuple        # pytest node ids: the smallest set known to kill it
    proves: str         # the check whose kill the entry shows
    equivalent: str = ""  # why no output changes, for an entry that is not run


CODEC, CORESET, DISTSIM, GEOMETRY = (f"src/kzsketch/{m}.py"
                                     for m in ("codec", "coreset", "distsim", "geometry"))
ZERO_WEIGHT_TEST = "tests/test_geometry.py::TestWeightedCost::test_zero_weights_contribute_nothing"

MUTANTS = [
    Mutant("header-field-widths", CODEC,
           "    if (reason := derive_params(code[2], z, config.n, 0, config.delta).oversized())",
           "    if (reason := None)",
           ("tests/test_codec.py::TestCompress"
            "::test_too_wide_fields_rejected_before_any_coreset_work",),
           "check_header_fields rejects fields too wide for the codec before any coreset work"),
    Mutant("stream-header-check", DISTSIM,
           "        codec.check_header_fields(ProblemConfig(",
           "        (ProblemConfig(",
           ("tests/test_distsim.py::TestStream"
            "::test_block_header_limits_checked_before_any_point",),
           "StreamState checks its blocks' header limits at construction"),
    Mutant("coreset-grid-coordinates", CORESET,
           "np.ascontiguousarray(geometry.grid_coordinates(self.points))",
           "np.ascontiguousarray(np.asarray(self.points, dtype=np.int64))",
           ("tests/test_coreset.py::test_input_rejected",),
           "WeightedCoreset takes its points through grid_coordinates"),
    Mutant("encode-grid-coordinates", CODEC,
           'geometry.grid_coordinates(getattr(centers, "centers", centers)).copy()',
           'np.asarray(getattr(centers, "centers", centers)).astype(np.int64)',
           ("tests/test_codec.py::TestEncodeDecode"
            "::test_input_that_disagrees_with_the_config_rejected",),
           "encode takes its centers through grid_coordinates"),
    Mutant("encode-freezes-the-callers-centers", CODEC,
           'geometry.grid_coordinates(getattr(centers, "centers", centers)).copy()',
           'geometry.grid_coordinates(getattr(centers, "centers", centers))',
           ("tests/test_codec.py::TestEncodeDecode::test_leaves_the_callers_centers_writable",),
           "encode freezes a copy of its centers, not the caller's array"),
    Mutant("refine-outside-errstate", GEOMETRY,
           '            cen.take(a[j:j + m], axis=0, out=q, mode="clip")\n',
           '            np.seterr(over="warn", invalid="warn")\n'
           '            cen.take(a[j:j + m], axis=0, out=q, mode="clip")\n',
           (ZERO_WEIGHT_TEST,),
           "the kernel's direct form runs under its errstate: an overflow is inf, not a warning"),
    Mutant("zero-weight-times-inf", GEOMETRY,
           "if np.isnan(total := np.sum(terms)):",
           "if np.isnan(total := np.sum(terms)) and False:",
           (ZERO_WEIGHT_TEST,),
           "weighted_cost gives a zero weight against an infinite distance 0, not NaN"),
    Mutant("grid-bound-2^60", GEOMETRY,
           "c_norm <= 2.0 ** 26",
           "c_norm <= 2.0 ** 30",
           ("tests/test_kernel_oracle.py::test_rows_straddling_the_grid_bound_across_chunks",),
           "the grid pass takes only rows whose exact forms stay within 2^53"),
    Mutant("filter-threshold-zero", GEOMETRY,
           "b + (8.0 * g * (np.sqrt(p_sq) + c_norm) ** 2 + floor))",
           "b + 0.0)",
           ("tests/test_kernel_oracle.py::test_kernel_matches_scalar_reference",),
           "the filter's margin T keeps every center that may be the direct form's minimum"),
    Mutant("candidate-count-uint8", GEOMETRY,
           "np.add.reduce(near, axis=0, dtype=np.min_scalar_type(k))",
           "np.add.reduce(near, axis=0, dtype=np.uint8)",
           ("tests/test_kernel_oracle.py::test_candidate_counts_past_the_mask_dtypes",),
           "the candidate count's dtype holds k"),
    Mutant("grid-ties-count-above-2", GEOMETRY,
           "(tie := count > 1)",
           "(tie := count > 2)",
           ("tests/test_geometry.py::TestNearestAssignment::test_tie_breaks_to_lowest_index",),
           "every grid row with two or more ties takes the lowest index"),
    Mutant("grid-ties-keep-the-index-sum", GEOMETRY,
           "                if (tie := count > 1).any():\n"
           "                    a[tie] = near[:, tie].argmax(axis=0)\n",
           "",
           ("tests/test_kernel_oracle.py::test_grid_ties_past_the_mask_dtypes",),
           "grid tie rows replace their wrapped index sum by the lowest tie"),
    Mutant("stream-intake-range", DISTSIM,
           "        geometry._check_grid_range(p, self.delta)\n",
           "",
           ("tests/test_distsim.py::TestStream::test_out_of_range_point_rejected_at_its_push",),
           "StreamState.push rejects an out-of-range point at its push, before it counts"),
    Mutant("stream-intake-copy", DISTSIM,
           "take, p = p[:cut].copy(), p[cut:]",
           "take, p = p[:cut], p[cut:]",
           ("tests/test_distsim.py::TestStream::test_push_copies_the_callers_rows",),
           "StreamState.push buffers a copy of the caller's rows"),
    Mutant("stream-points-seen-before-the-flush", DISTSIM,
           "        p = p.reshape(-1, self.d)\n"
           "        while len(p):\n"
           "            cut = self.block_size - self._buffered\n"
           "            take, p = p[:cut].copy(), p[cut:]\n"
           "            self.buffer.append(take)\n"
           "            self._buffered += len(take)\n"
           "            self.points_seen += len(take)\n",
           "        p = p.reshape(-1, self.d)\n"
           "        self.points_seen += len(p)\n"
           "        while len(p):\n"
           "            cut = self.block_size - self._buffered\n"
           "            take, p = p[:cut].copy(), p[cut:]\n"
           "            self.buffer.append(take)\n"
           "            self._buffered += len(take)\n",
           ("tests/test_distsim.py::TestStream"
            "::test_push_by_point_or_block_gives_the_same_stream[identity]",),
           "a block's flush and reduction see the points up to its boundary, not the whole push"),
    Mutant("approx-centers-prepares-the-dataset-again", CORESET,
           "    rows = dataset._rows\n",
           "    rows = geometry._Rows(dataset)\n",
           ("tests/test_codec.py::TestCompress::test_prepares_the_dataset_once",),
           "compress prepares a dataset's rows once, the rows the dataset keeps"),
    Mutant("dataset-keeps-the-callers-array", GEOMETRY,
           "        a = a.copy()\n",
           "        pass\n",
           ("tests/test_geometry.py::TestContainers::test_dataset_owns_its_points",),
           "a dataset copies a caller's writable array before it freezes it"),
    Mutant("dataset-keeps-a-view-of-the-callers-array", GEOMETRY,
           "(a is given or not a.flags.owndata)",
           "a is given",
           ("tests/test_geometry.py::TestContainers::test_dataset_owns_its_points",),
           "a dataset copies a view of a caller's writable array that numpy made for it"),
    Mutant("filter-threshold-sixteenth", GEOMETRY,
           "b + (8.0 * g * (np.sqrt(p_sq) + c_norm) ** 2 + floor))",
           "b + (8.0 * g * (np.sqrt(p_sq) + c_norm) ** 2 + floor) / 16)",
           ("tests/test_kernel_oracle.py::test_filter_against_an_adversarial_gemm[1.0-True-1]",),
           "the filter's margin T covers every GEMM error its proof allows, not only numpy's"),
    Mutant("filter-floor-zero", GEOMETRY,
           "    floor = 64.0 * (d + 4) * 2.0 ** -1074  # 128 (d + 4) eta\n",
           "    floor = 0.0\n",
           ("tests/test_kernel_oracle.py::test_ties_among_subnormal_distances[1e-162]",),
           "the filter's absolute term covers the expanded form's underflow errors"),
    Mutant("filter-threshold-half", GEOMETRY,
           "b + (8.0 * g * (np.sqrt(p_sq) + c_norm) ** 2 + floor))",
           "b + (8.0 * g * (np.sqrt(p_sq) + c_norm) ** 2 + floor) / 2)",
           (),
           "the filter's margin T is the proof's bound with its factor-2 margin",
           equivalent="T / 2 still meets the bound 4 gamma_{d+2} X + 8 d eta that the "
                      "proof in _nearest needs, up to the rounding of the norms and of T "
                      "that T's factor-2 margin covers; the adversarial GEMM at the "
                      "model's limit kills T / 16 but not T / 2"),
    Mutant("first-split-ties-to-the-largest-low", CODEC,
           "for low in range(_ceil_log2_int(delta) + 1)),",
           "for low in reversed(range(_ceil_log2_int(delta) + 1))),",
           ("tests/test_codec_reference.py::TestSortedFirst"
            "::test_equal_cost_splits_take_the_smallest_low",),
           "the Elias-Fano split L is the smallest of equal-cost ones, as the format states"),
    Mutant("section-group-span-check", CODEC,
           "if s and not 0 <= high.min() <= high.max() < buckets:",
           "if False:",
           ("tests/test_codec_reference.py::TestSortedFirst"
            "::test_group_span_with_a_one_too_many",),
           "each group's span of the first-coordinate section holds exactly its rows' ones"),
    Mutant("sorted-first-at-equal-cost", CODEC,
           "sort_first = first_bits < s * params.center_width",
           "sort_first = first_bits <= s * params.center_width",
           ("tests/test_codec_reference.py::TestSortedFirst::test_flag_left_out_at_equal_cost",),
           "encode sets SORTED_FIRST only when the code takes fewer bits than the values"),
    Mutant("section-places-beside-64-bit-values", CODEC,
           "ones += (self._fields[-1][:, 0] >> low).astype(np.int64)",
           "ones += self._fields[-1][:, 0] >> low",
           ("tests/test_codec_reference.py::TestSortedFirst"
            "::test_grid_values_of_64_bits[delta-2^33]",),
           "the packer's int64 row places take uint64 grid values, kept from 33 bits on"),
    Mutant("section-high-parts-beside-64-bit-values", CODEC,
           "high |= fields[-1][:, 0].astype(np.int64)",
           "high |= fields[-1][:, 0]",
           ("tests/test_codec_reference.py::TestSortedFirst"
            "::test_first_coordinate_above_a_64_bit_delta",),
           "the parser's int64 high parts take uint64 low bits, kept from 33 bits on"),
    Mutant("direct-read-skips-the-weight-sign-check", CODEC,
           "[(0, 1, 1 + p.w_expo_width), (0, 2 + p.w_expo_width, p.f_w)]",
           "[(0, 2, p.w_expo_width), (0, 2 + p.w_expo_width, p.f_w)]",
           ("tests/test_codec_reference.py::TestCorruptBytes"
            "::test_negative_weight_code_in_full_width_rows_rejected[in-place]",),
           "rows read in place keep the weight code's sign bit, the top bit of its "
           "exponent's field, and a set one is rejected"),
    Mutant("field-word-from-width-plus-6", CODEC,
           "nb = _byte_width(min(64, width + 7))",
           "nb = _byte_width(min(64, width + 6))",
           ("tests/test_codec.py::TestBitIO::test_round_trip_fields",),
           "a field's word holds its width plus the 7 bits before it in its first byte"),
    Mutant("zero-flag-block-read-in-place", CODEC,
           "        if keep is not None:\n            yield from _ByteRows.at(",
           "        if False:\n            yield from _ByteRows.at(",
           ("tests/test_file_fuzz.py::test_every_truncation[kzsk]",),
           "a block with a zero flag is read from its masked bits, not in place"),
    Mutant("grid-operand-ones-row-zero", CODEC,
           "        cols[-1] = 1.0\n",
           "        cols[-1] = 0.0\n",
           ("tests/test_kernel_oracle.py"
            "::test_sketch_rows_take_their_operand_after_the_first_estimate[z0]",),
           "a decoded sketch's column operand ends in a row of ones, so the grid pass's "
           "folded GEMM adds |c|^2"),
    Mutant("refine-skips-the-last-block", GEOMETRY,
           "        for j in range(0, r, block):\n",
           "        for j in range(0, r - block, block):\n",
           ("tests/test_kernel_oracle.py::test_refine_in_blocks[15-5]",),
           "the direct form's refine covers every row of a chunk, the last block too"),
    Mutant("wide-layout-at-k-equal-rows", GEOMETRY,
           "            if k > r:  # more centers than rows",
           "            if k >= r:  # more centers than rows",
           (),
           "the kernel's (rows, k) layout is taken only for more centers than rows",
           equivalent="at k = rows both layouts give each row's minimum with the lowest "
                      "index (exact on the grid, and the filter's candidate test holds for "
                      "any summation order), so only the time differs"),
]


def run(mutant: Mutant) -> tuple[str, str]:
    """Apply ``mutant`` to a copy of the tree and run its tests: (verdict, why)."""
    text = (ROOT / mutant.file).read_text()
    if (found := text.count(mutant.old)) != 1:
        return "STALE", f"the old text occurs {found} times in {mutant.file}"
    if mutant.equivalent:
        return "equivalent", f"not run: {mutant.equivalent}"
    with tempfile.TemporaryDirectory(prefix="kzsketch-mutant-") as tmp:
        for sub in ("src", "tests"):
            shutil.copytree(ROOT / sub, Path(tmp, sub),
                            ignore=shutil.ignore_patterns("__pycache__"))
        Path(tmp, mutant.file).write_text(text.replace(mutant.old, mutant.new))
        env = {**os.environ, "PYTHONPATH": str(Path(tmp, "src")),
               "PYTHONDONTWRITEBYTECODE": "1"}
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
             "-W", "error::RuntimeWarning", *mutant.tests],
            cwd=tmp, env=env, capture_output=True, text=True)
    summary = proc.stdout.strip().splitlines()[-1:] or [proc.stderr.strip()]
    # pytest exits 1 when a test failed; 0 is a survivor, and anything else
    # (a collection error, no test selected) kills nothing
    verdict = "killed" if proc.returncode == 1 else "SURVIVED"
    return verdict, f"pytest exit {proc.returncode}: {summary[0]}"


def main(names: list[str]) -> int:
    known = {m.name for m in MUTANTS}
    if unknown := [n for n in names if n not in known]:
        print(f"unknown mutants: {', '.join(unknown)}", file=sys.stderr)
        return 2
    failed = 0
    for mutant in MUTANTS:
        if names and mutant.name not in names:
            continue
        verdict, why = run(mutant)
        failed += verdict in ("SURVIVED", "STALE")
        print(f"{verdict}  {mutant.name}  ({why})", flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
