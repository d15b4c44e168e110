import json
import math
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import kzsketch
from kzsketch import anglelab, cli, geometry
from kzsketch.cli import main, run_lowerbound_pipeline


@pytest.fixture
def dataset_file(tmp_path):
    data = geometry.random_grid_dataset(200, 5, 256, seed=3)
    path = tmp_path / "points.kzds"
    geometry.save_dataset(data, path)
    return str(path), data


def run_cli(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


class TestSketchCommands:
    def test_encode_eval_size_flow(self, capsys, tmp_path, dataset_file):
        data_path, data = dataset_file
        sketch_path = str(tmp_path / "out.kzsk")
        code, out = run_cli(capsys, [
            "encode", "--data", data_path, "--k", "3", "--eps", "0.2",
            "--method", "identity", "--out", sketch_path, "--seed", "1"])
        assert code == 0
        report = json.loads(out)
        assert report["coreset_size"] == 200
        assert report["ledger"]["total_bits"] > 0

        centers_path = tmp_path / "centers.csv"
        rows = np.random.default_rng(0).integers(1, 257, size=(3, 5))
        centers_path.write_text("\n".join(",".join(map(str, r)) for r in rows))
        code, out = run_cli(capsys, ["eval", "--sketch", sketch_path,
                                     "--centers", str(centers_path)])
        assert code == 0
        est = json.loads(out)["estimate"]
        exact = geometry.cost(data, geometry.CenterSet(rows.astype(float)), 2)
        assert abs(est - exact) <= 0.2 * exact

        code, out = run_cli(capsys, ["size", "--sketch", sketch_path])
        assert code == 0
        report = json.loads(out)
        assert 0 <= report["pad_bits"] <= 7
        assert report["serialized_bytes"] * 8 \
            == report["ledger"]["total_bits"] + report["pad_bits"]

    def test_verify_identity_passes_at_eps(self, capsys, dataset_file):
        data_path, _ = dataset_file
        code, out = run_cli(capsys, [
            "verify", "--data", data_path, "--k", "3", "--eps", "0.2",
            "--method", "identity", "--trials", "100", "--seed", "2"])
        assert code == 0
        report = json.loads(out)
        assert report["worst_relative_error"] <= 0.2

    def test_table_report_renders(self, capsys, tmp_path, dataset_file):
        data_path, _ = dataset_file
        sketch_path = str(tmp_path / "t.kzsk")
        code, out = run_cli(capsys, [
            "encode", "--data", data_path, "--k", "2", "--eps", "0.25",
            "--method", "identity", "--out", sketch_path, "--report", "table"])
        assert code == 0
        assert "ledger.total_bits" in out

    def test_missing_file_is_usage_error(self, capsys, tmp_path):
        code, _ = run_cli(capsys, ["size", "--sketch",
                                   str(tmp_path / "nope.kzsk")])
        assert code == 2

    def test_report_dir_env_saves_json(self, capsys, tmp_path, monkeypatch,
                                       dataset_file):
        data_path, _ = dataset_file
        report_dir = tmp_path / "reports"
        monkeypatch.setenv("KZSKETCH_REPORT_DIR", str(report_dir))
        code, out = run_cli(capsys, [
            "verify", "--data", data_path, "--k", "2", "--eps", "0.3",
            "--method", "identity", "--trials", "10"])
        assert code == 0
        saved = (report_dir / "verify.json").read_text()
        assert json.loads(saved) == json.loads(out)

    def test_bad_flags_exit_two(self, dataset_file):
        with pytest.raises(SystemExit) as err:
            main(["encode", "--data", dataset_file[0]])
        assert err.value.code == 2

    @pytest.mark.parametrize("argv", [
        ["verify", "--k", "2", "--eps", "0.2", "--trials", "0"],
        ["stream", "--block", "50", "--k", "2", "--eps", "0.2", "--cap", "1"],
    ])
    def test_vacuous_or_degenerate_counts_are_usage_errors(self, capsys,
                                                           dataset_file, argv):
        code, out = run_cli(capsys, [argv[0], "--data", dataset_file[0], *argv[1:]])
        assert code == 2
        assert out == ""

    def test_oversized_dataset_header_is_usage_error(self, capsys, tmp_path):
        path = tmp_path / "huge.kzds"
        path.write_bytes(geometry.DATASET_MAGIC
                         + struct.pack("<HQIQ", 1, 2 ** 40, 1, 1024))
        code, _ = run_cli(capsys, ["encode", "--data", str(path), "--k", "2",
                                   "--eps", "0.2", "--out", str(tmp_path / "o.kzsk")])
        assert code == 2

    def test_z_beyond_header_range_is_usage_error(self, capsys, tmp_path,
                                                  dataset_file):
        code = main([
            "encode", "--data", dataset_file[0], "--k", "2", "--eps", "0.2",
            "--method", "identity", "--z", "99999999999/3",
            "--out", str(tmp_path / "o.kzsk")])
        out, err = capsys.readouterr()
        assert code == 2
        assert out == ""
        assert err.startswith("error: z = 33333333333: numerator and denominator")

    # dist^z overflows float64 on this grid for both; the larger z is caught
    # by the header range before any distance is computed
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("z, message", [
        ("33333333333", "error: z = 33333333333: numerator and denominator"),
        ("3000", "error: z = 3000: the sum of dist^z overflows float64"),
    ])
    def test_overflowing_z_is_usage_error_without_warnings(
            self, capsys, tmp_path, dataset_file, z, message):
        code = main(["encode", "--data", dataset_file[0], "--k", "2",
                     "--eps", "0.2", "--z", z, "--out", str(tmp_path / "o.kzsk")])
        out, err = capsys.readouterr()
        assert code == 2
        assert out == ""
        assert err.startswith(message)

    def test_unexpected_exception_exits_3_with_traceback(self, capsys,
                                                         monkeypatch, tmp_path):
        def boom(args):
            raise RuntimeError("boom")
        monkeypatch.setattr(cli, "cmd_size", boom)
        code = main(["size", "--sketch", str(tmp_path / "s.kzsk")])
        out, err = capsys.readouterr()
        assert code == 3
        assert out == ""
        assert "Traceback (most recent call last)" in err
        assert err.rstrip().endswith("RuntimeError: boom")


def test_oversized_sketch_header_rejected_in_bounded_memory(tmp_path):
    # a 52-byte KZSK file declaring k = d = 2^16 centers: 32 GiB of int64 if
    # the parser allocated before checking the payload length. The child runs
    # under a 1 GiB address-space cap, so a regression fails, not swaps.
    resource = pytest.importorskip("resource")
    src = str(Path(kzsketch.__file__).resolve().parents[1])
    path = tmp_path / "huge.kzsk"
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    script = (
        "import struct, sys\n"
        "from fractions import Fraction\n"
        "from kzsketch import codec\n"
        "from kzsketch.errors import SketchFormatError\n"
        "k = d = 2 ** 16\n"
        "expo, frac, eps = codec.quantize_epsilon(0.25)\n"
        "p = codec.derive_params(eps, Fraction(2), 1, 0, 1024)\n"
        "raw = struct.pack(codec._HEADER_FMT, b'KZSK', 1, k, d, 2, 1, 1024, expo,\n"
        "                  frac.to_bytes(3, 'little'), 1, 0, p.w_expo_width,\n"
        "                  p.x_expo_width)\n"
        "open(sys.argv[1], 'wb').write(raw)\n"
        "try:\n"
        "    codec.Sketch.from_bytes(raw)\n"
        "except SketchFormatError as exc:\n"
        "    print(len(raw), exc)\n")

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    proc = subprocess.run([sys.executable, "-c", script, str(path)], env=env,
                          preexec_fn=cap, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("52 payload of 0 bits cannot hold")
    proc = subprocess.run([sys.executable, "-m", "kzsketch.cli", "size",
                           "--sketch", str(path)], env=env, preexec_fn=cap,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: payload of 0 bits")


def test_cli_and_lowerbound_run_without_scipy():
    src = str(Path(kzsketch.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    script = ("import sys, kzsketch.cli\n"
              "kzsketch.cli.run_lowerbound_pipeline(8, 32, 2, 0.05, 'orthogonal', 0)\n"
              "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


class TestAngles:
    def test_sampling_report(self, capsys):
        code, out = run_cli(capsys, ["angles", "--d", "32", "--n", "4",
                                     "--trials", "10", "--seed", "3"])
        assert code == 0
        report = json.loads(out)
        assert report["trials"] == 10
        assert 0 <= report["theta_min"]["min"] <= math.pi / 2 + 1e-9

    def test_figure_fixture_pair(self, capsys, tmp_path):
        x = anglelab.OrthonormalBasis(np.array(
            [[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]]))
        y = anglelab.OrthonormalBasis(np.array(
            [[1.0, 0.0],
             [0.0, math.cos(math.pi / 3)],
             [0.0, math.sin(math.pi / 3)]]))
        pa, pb = tmp_path / "a.kzob", tmp_path / "b.kzob"
        anglelab.save_basis(x, pa)
        anglelab.save_basis(y, pb)
        code, out = run_cli(capsys, ["angles", "--basis-a", str(pa),
                                     "--basis-b", str(pb)])
        assert code == 0
        thetas = json.loads(out)["thetas"]
        assert thetas[0] == pytest.approx(0.0, abs=1e-9)
        assert thetas[1] == pytest.approx(math.pi / 3, abs=1e-9)


class TestLowerbound:
    def test_orthogonal_certificate(self, capsys):
        code, out = run_cli(capsys, [
            "lowerbound", "--n", "100", "--d", "256", "--eps", "0.05",
            "--mode", "orthogonal", "--seed", "4"])
        assert code == 0
        report = json.loads(out)
        assert report["pass"]
        assert report["gap"]["pm_center_gap_z2"] >= 0.5 * math.sqrt(100)
        assert report["witness"]["separated"]
        names = [c["name"] for c in report["checks"]]
        assert any("witness" in n for n in names)

    def test_pipeline_function_reports_every_inequality(self):
        report = run_lowerbound_pipeline(64, 160, 2, 0.05, "perturbed", seed=5)
        for check in report["checks"]:
            assert {"name", "lhs", "relation", "rhs", "pass"} <= check.keys()
        assert report["pass"]

    def test_general_z_pipeline(self):
        from fractions import Fraction
        report = run_lowerbound_pipeline(16, 64, Fraction(3, 2), 0.05,
                                         "orthogonal", seed=6)
        assert report["pass"]
        gap = report["gap"]
        assert gap["power_gap"] >= gap["power_gap_leading"] \
            - gap["power_gap_additive"]
        assert report["witness"]["separated"]

    def test_haar_mode_reports_honest_failures(self, capsys):
        # Haar pairs at desk scale cannot meet the near-orthogonality
        # thresholds; the certificate must say so rather than pass
        report = run_lowerbound_pipeline(24, 96, 2, 0.05, "haar", seed=8)
        assert not report["pass"]
        theta_check = next(c for c in report["checks"]
                           if c["name"].startswith("theta"))
        assert not theta_check["pass"]
        code, _ = run_cli(capsys, ["lowerbound", "--n", "24", "--d", "96",
                                   "--eps", "0.05", "--mode", "haar",
                                   "--seed", "8"])
        assert code == 1


class TestDistributedStream:
    def test_distributed_single_site_matches_encode(self, capsys, tmp_path,
                                                    dataset_file):
        data_path, data = dataset_file
        code, out = run_cli(capsys, [
            "distributed", "--data", data_path, "--sites", "1", "--k", "3",
            "--eps", "0.2", "--method", "identity", "--seed", "6"])
        assert code == 0
        report = json.loads(out)
        sketch_path = str(tmp_path / "single.kzsk")
        code, out = run_cli(capsys, [
            "encode", "--data", data_path, "--k", "3", "--eps", "0.2",
            "--method", "identity", "--out", sketch_path, "--seed", "6"])
        encode_report = json.loads(out)
        assert report["ledger"]["per_site_bits"] \
            == [encode_report["ledger"]["total_bits"]]

    def test_stream_report(self, capsys, dataset_file):
        data_path, _ = dataset_file
        code, out = run_cli(capsys, [
            "stream", "--data", data_path, "--block", "50", "--k", "2",
            "--eps", "0.2", "--seed", "7"])
        assert code == 0
        report = json.loads(out)
        assert report["blocks_flushed"] == 4
        assert report["max_resident_bits"] > 0


class TestDeterminism:
    @pytest.mark.parametrize("argv", [
        ["lowerbound", "--n", "32", "--d", "80", "--eps", "0.05",
         "--mode", "perturbed", "--seed", "11"],
        ["angles", "--d", "24", "--n", "3", "--trials", "5", "--seed", "12"],
    ])
    def test_reports_are_byte_identical(self, capsys, argv):
        _, first = run_cli(capsys, argv)
        _, second = run_cli(capsys, argv)
        assert first == second

    def test_sketch_files_are_byte_identical(self, capsys, tmp_path,
                                             dataset_file):
        data_path, _ = dataset_file
        outs = []
        for name in ("a.kzsk", "b.kzsk"):
            path = tmp_path / name
            code, report = run_cli(capsys, [
                "encode", "--data", data_path, "--k", "4", "--eps", "0.1",
                "--method", "sensitivity", "--out", str(path), "--seed", "13"])
            assert code == 0
            parsed = json.loads(report)
            parsed.pop("out")
            outs.append((path.read_bytes(), parsed))
        assert outs[0][0] == outs[1][0]
        assert outs[0][1] == outs[1][1]
