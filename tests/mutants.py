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
fail: a collection error or an empty selection is not a kill. The exit
status is 0 only if every entry run was killed.
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
           '        q = cen.take(a, axis=0, mode="clip")\n',
           '        np.seterr(over="warn", invalid="warn")\n'
           '        q = cen.take(a, axis=0, mode="clip")\n',
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
]


def run(mutant: Mutant) -> tuple[bool, str]:
    """Apply ``mutant`` to a copy of the tree and run its tests: (killed, why)."""
    with tempfile.TemporaryDirectory(prefix="kzsketch-mutant-") as tmp:
        for sub in ("src", "tests"):
            shutil.copytree(ROOT / sub, Path(tmp, sub),
                            ignore=shutil.ignore_patterns("__pycache__"))
        path = Path(tmp, mutant.file)
        text = path.read_text()
        if (found := text.count(mutant.old)) != 1:
            return False, f"stale: the old text occurs {found} times in {mutant.file}"
        path.write_text(text.replace(mutant.old, mutant.new))
        env = {**os.environ, "PYTHONPATH": str(Path(tmp, "src")),
               "PYTHONDONTWRITEBYTECODE": "1"}
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
             "-W", "error::RuntimeWarning", *mutant.tests],
            cwd=tmp, env=env, capture_output=True, text=True)
    summary = proc.stdout.strip().splitlines()[-1:] or [proc.stderr.strip()]
    # pytest exits 1 when a test failed; 0 is a survivor, and anything else
    # (a collection error, no test selected) kills nothing
    return proc.returncode == 1, f"pytest exit {proc.returncode}: {summary[0]}"


def main(names: list[str]) -> int:
    known = {m.name for m in MUTANTS}
    if unknown := [n for n in names if n not in known]:
        print(f"unknown mutants: {', '.join(unknown)}", file=sys.stderr)
        return 2
    failed = 0
    for mutant in MUTANTS:
        if names and mutant.name not in names:
            continue
        killed, why = run(mutant)
        failed += not killed
        print(f"{'killed' if killed else 'SURVIVED'}  {mutant.name}  ({why})", flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
