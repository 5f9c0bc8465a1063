import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import textwrap
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import spectraljet
from spectraljet import asymptotics
from spectraljet.asymptotics import (
    DEFAULT_GRID,
    TOLERANCES,
    ConvergenceRecord,
    jet_relation_suite,
    time_grid,
)
from spectraljet.cli import DEFAULT_CONFIG, build_parser, main
from spectraljet import lattice
from spectraljet.lattice import run_triple_suite
from spectraljet.manifolds import Sphere
from spectraljet.multiindex import MultiIndex
from spectraljet.reporting import (
    csv_line,
    fmt_float,
    json_dumps,
    records_to_csv,
    triple_rows_to_csv,
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestWickCommand:
    def test_one_third(self, capsys):
        code, out, _ = run(capsys, "wick", "--alpha", "1,1", "--beta", "2,2", "--n", "2")
        assert code == 0
        assert out.splitlines()[0] == "A=+1 B=1/3 (0.33333333333333331)"

    def test_zero_pair(self, capsys):
        code, out, _ = run(capsys, "wick", "--alpha", "1", "--beta", "2", "--n", "2")
        assert code == 0
        assert out.splitlines()[0] == "A=0 B=0 (0)"

    def test_surd_display(self, capsys):
        code, out, _ = run(capsys, "wick", "--alpha", "1,1,1", "--beta", "1", "--n", "1")
        assert code == 0
        assert out.startswith("A=-3 B=-sqrt(3/5)")

    def test_graphs_and_oracle(self, capsys):
        code, out, _ = run(
            capsys, "wick", "--alpha", "1,1", "--beta", "1,1", "--n", "1",
            "--graphs", "--oracle",
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[1] == "graphs: count=3 sign=+1"
        assert lines[2].startswith("oracle: 3")

    def test_missing_n(self, capsys):
        code, _, err = run(capsys, "wick", "--alpha", "1")
        assert code == 2
        assert "error" in err

    @pytest.mark.parametrize("argv, message", [
        (["--n", "0"], "n must be an integer >= 1, got 0"),
        (["--n", "0", "--alpha", "1"], "n must be an integer >= 1, got 0"),
        (["--n", "-2"], "n must be an integer >= 1, got -2"),
    ])
    def test_rejects_out_of_range_config(self, capsys, argv, message):
        code, out, err = run(capsys, "wick", *argv)
        assert code == 2
        assert err == f"error: {message}\n"
        assert out == ""


class TestVerifyCommand:
    def test_circle_passes(self, tmp_path, capsys):
        csv_path = tmp_path / "records.csv"
        json_path = tmp_path / "summary.json"
        code, out, _ = run(
            capsys, "verify", "--model", "circle", "--max-degree", "6",
            "--t", "0.01", "--out", str(csv_path), "--out-json", str(json_path),
        )
        assert code == 0
        assert "passed=True" in out
        text = csv_path.read_text()
        assert text.startswith("model,alpha,beta,t,raw,normalized,target,abs_err\n")
        doc = json.loads(json_path.read_text())
        assert doc["passed"] is True
        assert doc["config"]["max_degree"] == 6
        assert doc["suites"]["jet_relation"]
        entry = doc["suites"]["jet_relation"]['A[1,1|1,1]']
        assert entry["pass"] is True
        assert entry["target"] == 3.0

    def test_tolerance_failure_exit_code(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"tolerances": {"flat_jet_abs": 1e-30}}))
        code, out, _ = run(
            capsys, "verify", "--model", "circle", "--max-degree", "2",
            "--t", "0.01", "--config", str(cfg),
        )
        assert code == 1
        assert "passed=False" in out

    def test_truncation_cap_is_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"policy": {"hard_cap": 10}}))
        code, _, err = run(capsys, "verify", "--model", "sphere3", "--config", str(cfg))
        assert code == 2
        assert err.startswith("error: hard cap 10 reached")
        assert "raise t or raise the cap" in err
        assert "Traceback" not in err

    def test_usage_error(self, capsys):
        code, _, _ = run(capsys, "verify", "--model", "banana")
        assert code == 2

    def test_too_many_pairs_exit_2(self, tmp_path, capsys):
        # the pair count is known in closed form, so the refusal is at once
        out_json = tmp_path / "out.json"
        code, out, err = run(capsys, "verify", "--model", "sphere400",
                             "--out-json", str(out_json))
        assert code == 2
        assert err == (
            "error: 8640507801 jet pairs on sphere400 at max degree 4, above "
            "the limit of 200000; lower --max-degree\n"
        )
        assert out == ""
        assert not out_json.exists()

    def test_noise_gain_once_per_grid(self, tmp_path, capsys):
        # S^3 at degree 6 runs 164 fits on one grid and judges it once
        asymptotics._noise_gain.cache_clear()
        code, _, _ = run(capsys, "verify", "--model", "sphere3", "--max-degree", "6",
                         "--out-json", str(tmp_path / "out.json"))
        info = asymptotics._noise_gain.cache_info()
        assert code == 0
        assert (info.misses, info.hits) == (1, 163)

    @pytest.mark.parametrize("kind, message", [
        ("sphere1", "sphere dimension must be at least 2"),
        ("spherex", "unknown model kind 'spherex': use circle, torus or "
                    "sphereN (N >= 2)"),
    ])
    def test_bad_sphere_kind(self, capsys, kind, message):
        code, out, err = run(capsys, "verify", "--model", kind)
        assert code == 2
        assert err == f"error: {message}\n"
        assert out == ""

    def test_sphere_mode_overflow_is_config_error(self, capsys):
        # the multiplicities of S^300 pass the float range before the tail
        # bound at the smallest time
        code, out, err = run(capsys, "verify", "--model", "sphere300",
                             "--max-degree", "0", "--t-grid", "1e-4:0.5:4")
        assert code == 2
        assert err == (
            "error: mode sums of sphere300 pass the float range at "
            "t=1.25e-05: raise t or lower the dimension\n"
        )
        assert out == ""

    @pytest.mark.parametrize("argv", [
        ["--model", "sphere4"],
        ["--model", "circle", "--max-degree", "8"],
        ["--model", "torus", "--max-degree", "8"],
        ["--model", "sphere2", "--radius", "2.0", "--max-degree", "8"],
        ["--model", "sphere3", "--max-degree", "8"],
        ["--model", "circle", "--t", "0.01", "--max-degree", "24"],
    ], ids=["sphere4", "circle-d8", "torus-d8", "sphere2-r2-d8", "sphere3-d8",
            "circle-d24"])
    def test_any_sphere_and_degree(self, capsys, argv):
        code, out, _ = run(capsys, "verify", *argv)
        assert code == 0
        assert out.endswith("passed=True\n")

    def test_missing_model(self, capsys):
        code, _, err = run(capsys, "verify", "--t", "0.01")
        assert code == 2
        assert "no model" in err

    @pytest.mark.parametrize("argv, file_cfg, message", [
        (["--max-degree", "-1"], None, "max_degree must be an integer >= 0, got -1"),
        ([], {"max_degree": -3}, "max_degree must be an integer >= 0, got -3"),
    ])
    def test_rejects_out_of_range_config(self, tmp_path, capsys, argv, file_cfg,
                                         message):
        # a negative degree checks nothing, so it must not read as a pass
        if file_cfg is not None:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps(file_cfg))
            argv = [*argv, "--config", str(cfg)]
        out_csv = tmp_path / "out.csv"
        code, out, err = run(capsys, "verify", "--model", "sphere3", *argv,
                             "--out", str(out_csv))
        assert code == 2
        assert err == f"error: {message}\n"
        assert out == ""
        assert not out_csv.exists()

    @pytest.mark.parametrize("model, radius", [
        ("sphere2", "1e300"),
        ("sphere3", "1e-200"),
        ("circle", "1e-300"),
    ])
    def test_extreme_radius_is_config_error(self, capsys, model, radius):
        code, out, err = run(capsys, "verify", "--model", model,
                             "--radius", radius, "--t", "0.1")
        assert code == 2
        assert err.startswith("error: radius")
        assert "Traceback" not in err
        assert out == ""

    @pytest.mark.parametrize("model, volume", [
        ("sphere438", "3.798832395464523e-309"),
        ("sphere454", "5e-324"),
    ])
    def test_subnormal_sphere_volume_names_dimension(self, capsys, model, volume):
        # the unit area of S^438..S^454 is subnormal: its inverse overflows
        # at radius 1, and a larger radius makes the sphere valid
        code, out, err = run(capsys, "verify", "--model", model)
        assert code == 2
        assert err == (
            f"error: S^{model[6:]} at radius 1.0 out of range: its volume "
            f"{volume} has no finite inverse; a larger radius makes it valid\n"
        )
        assert out == ""
        assert Sphere(int(model[6:]), 2.0).volume > 0.0

    @pytest.mark.parametrize("radius, t, degree", [
        ("1e-60", "1e-122", "6"),
        ("1e-80", "1e-158", "4"),
    ])
    def test_jet_overflow_is_config_error(self, capsys, radius, t, degree):
        # the jet, about R^-(m+1), exceeds the float range while the
        # Gaussian weight exp(-t / R^2) of its first mode is not 0
        code, out, err = run(capsys, "verify", "--model", "circle",
                             "--radius", radius, "--t", t,
                             "--max-degree", degree)
        assert code == 2
        assert err == (
            f"error: jet of order {degree} overflows at t={t} for radius "
            f"{radius}: lower the max degree or raise the radius\n"
        )
        assert out == ""

    @pytest.mark.parametrize("degree", ["4", "6"])
    def test_sphere_jet_overflow_is_config_error(self, capsys, degree):
        # the exact jet of order 4, scaled by R^-4, is past the float range
        code, out, err = run(capsys, "verify", "--model", "sphere2",
                             "--max-degree", degree, "--radius", "1e-77",
                             "--t-grid", "9.999999999999998e-155:0.5:4")
        assert code == 2
        assert err == (
            "error: jet of order 4 overflows for radius 1e-77: "
            "lower the max degree or raise the radius\n"
        )
        assert out == ""

    def test_config_file_roundtrip(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "model": {"kind": "torus", "radii": [1.0, 1.3]},
            "t": 0.01,
            "max_degree": 2,
        }))
        json_path = tmp_path / "out.json"
        code, _, _ = run(capsys, "verify", "--config", str(cfg),
                         "--out-json", str(json_path))
        assert code == 0
        doc = json.loads(json_path.read_text())
        assert doc["config"]["model"]["kind"] == "torus"
        assert doc["config"]["t"] == 0.01


class TestLatticeCommand:
    def test_sample_run(self, tmp_path, capsys):
        out_csv = tmp_path / "lat.csv"
        code, out, _ = run(
            capsys, "lattice", "sample", "--n", "3", "--max-degree", "8",
            "--count", "300", "--seed", "42", "--out", str(out_csv),
        )
        assert code == 0
        lines = out_csv.read_text().splitlines()
        assert lines[0] == (
            "alpha,beta,gamma,d_ab,d_bc,d_ac,triangle_slack,"
            "comparison_lhs,comparison_rhs"
        )
        assert len(lines) == 301

    def test_determinism(self, tmp_path, capsys):
        paths = []
        for tag in ("a", "b"):
            out_csv = tmp_path / f"lat_{tag}.csv"
            out_json = tmp_path / f"lat_{tag}.json"
            code, _, _ = run(
                capsys, "lattice", "sample", "--n", "2", "--max-degree", "6",
                "--count", "200", "--seed", "7",
                "--out", str(out_csv), "--out-json", str(out_json),
            )
            assert code == 0
            paths.append((out_csv.read_bytes(), out_json.read_bytes()))
        assert paths[0] == paths[1]

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="the suite forks workers")
    def test_bytes_do_not_depend_on_range_count(self, tmp_path, capsys, monkeypatch):
        outputs = {}
        for ranges in (1, 2, 3):
            monkeypatch.setattr(lattice, "_cpu_count", lambda: ranges)
            out_csv = tmp_path / f"lat_{ranges}.csv"
            out_json = tmp_path / f"lat_{ranges}.json"
            code, out, err = run(
                capsys, "lattice", "sample", "--n", "3", "--max-degree", "8",
                "--count", "3001", "--seed", "42",
                "--out", str(out_csv), "--out-json", str(out_json),
            )
            assert code == 0, err
            outputs[ranges] = (out, out_csv.read_bytes(), out_json.read_bytes())
        assert outputs[2] == outputs[1]
        assert outputs[3] == outputs[1]
        assert outputs[1][1].count(b"\n") == 3002
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    # sha256 of the CSV and JSON of each config, drawn from one seeded stream
    # per block of 100 triples; a refactor of the lattice path must keep
    # them.  That the integer kernel agrees with the Fraction route it
    # replaced is checked row by row by test_lattice.py's
    # TestTripleSuiteExactDecisions::test_agrees_with_fraction_route.
    @pytest.mark.parametrize("n, max_degree, count, csv_sha, json_sha", [
        pytest.param(
            3, 8, 300,
            "af49ce212bafd87aecf9e93310b18943f12305afe7ed30c68e102e1850a08bda",
            "480b654a73f9e008260b8f94c9625e3d0f0aba542c014c93ecd3798db738b5b6",
            id="3-8-300"),
        pytest.param(
            8, 40, 200,
            "aba1e54588843706e674514b72ddd3ad3a54fc788985f9b5d1355f67ddede2d4",
            "ace94a9bacf99112ed07a31695f573d346d8ff8da2d1b62a419af386ad80bbd0",
            id="8-40-200"),
        pytest.param(
            1, 12, 300,
            "06358f880652c3288528e22ceb0851f527615c009994553a6350ca7173ad863e",
            "d4f4fca683899f6d1091ad143e2c95db06afc25368c1134aab3229730fc5c423",
            id="1-12-300"),
        # ranges longer than 21 make the bar draw take random.sample's set branch
        pytest.param(
            2, 40, 300,
            "8c083be4c19b55fb3b99ef079bee75dc4a736b210a92e0e7886b3494b49f7370",
            "8e22c460a0f53038d992bcbad0ff2aba7b0e3f16b0d39159b4902f158d7e3721",
            id="2-40-300"),
    ])
    def test_golden_bytes(self, tmp_path, capsys, n, max_degree, count,
                          csv_sha, json_sha):
        out_csv = tmp_path / "lat.csv"
        out_json = tmp_path / "lat.json"
        code, _, _ = run(
            capsys, "lattice", "sample", "--n", str(n),
            "--max-degree", str(max_degree), "--count", str(count),
            "--seed", "42", "--out", str(out_csv), "--out-json", str(out_json),
        )
        assert code == 0
        assert hashlib.sha256(out_csv.read_bytes()).hexdigest() == csv_sha
        assert hashlib.sha256(out_json.read_bytes()).hexdigest() == json_sha

    @pytest.mark.parametrize("argv, message", [
        (["--n", "0"], "n must be an integer >= 1"),
        (["--count", "0"], "count must be an integer >= 1"),
        (["--count", "-3"], "count must be an integer >= 1"),
        (["--max-degree", "-1"], "max_degree must be an integer >= 0"),
        # C(1200, 600) lattice points overflow the float degree weights
        (["--n", "600", "--max-degree", "600", "--count", "1"],
         "n=600 and max_degree=600 give too many lattice points"),
    ])
    def test_rejects_out_of_range_config(self, tmp_path, capsys, argv, message):
        out_json = tmp_path / "lat.json"
        code, out, err = run(
            capsys, "lattice", "sample", *argv, "--out-json", str(out_json)
        )
        assert code == 2
        assert err.startswith(f"error: {message}")
        assert out == ""
        assert not out_json.exists()

    def test_imports_no_numpy(self, tmp_path):
        # numpy is blocked, so any import of it on these paths raises
        code = textwrap.dedent("""\
            import sys
            sys.modules["numpy"] = None
            from spectraljet import cli
            out = sys.argv[1]
            for argv in (
                ["lattice", "sample", "--n", "3", "--max-degree", "8",
                 "--count", "300", "--out", out + "/lat.csv"],
                ["wick", "--alpha", "1,1", "--beta", "2,2", "--n", "2",
                 "--graphs", "--oracle"],
                ["verify", "--model", "sphere3", "--max-degree", "4",
                 "--t-grid", "0.1:0.5:7", "--out", out + "/s3.csv",
                 "--out-json", out + "/s3.json"],
                ["curvature", "--model", "sphere2", "--out-json", out + "/s2.json"],
                ["curvature", "--model", "torus", "--radii", "1.0,1.3",
                 "--out-json", out + "/t2.json"],
            ):
                assert cli.main(argv) == 0, argv
            from spectraljet.manifolds import FlatTorus, Sphere
            for model in (Sphere(2), Sphere(3), Sphere(4), FlatTorus((1.0, 1.3))):
                assert model.heat_diagonal(0.1) > 0, model.label
            assert sys.modules["numpy"] is None, "numpy imported"
        """)
        src = str(Path(spectraljet.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p
        )
        proc = subprocess.run(
            [sys.executable, "-c", code, str(tmp_path)],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr


class TestImportCost:
    def test_import_builds_no_dataclass(self):
        # every op pays the import: record types are NamedTuples, whose
        # classes cost no dataclasses or inspect import and no generated
        # methods; -S keeps site hooks from importing either module first
        code = textwrap.dedent("""\
            import importlib, os, sys
            import spectraljet
            for file in sorted(os.listdir(spectraljet.__path__[0])):
                if file.endswith(".py") and file != "__init__.py":
                    importlib.import_module("spectraljet." + file[:-3])
            for name in ("dataclasses", "inspect"):
                assert name not in sys.modules, name + " imported"
            for name, module in list(sys.modules.items()):
                if name.split(".")[0] == "spectraljet":
                    for value in vars(module).values():
                        assert not hasattr(value, "__dataclass_fields__"), value
        """)
        src = str(Path(spectraljet.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-S", "-c", code],
            env={**os.environ, "PYTHONPATH": src}, capture_output=True,
            text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr

    # every name the package re-exports, by the layer that defines it
    EXPORTS = {
        "multiindex": ("MultiIndex", "PairProfile", "empty", "enumerate_multiindices",
                       "from_indices", "pair_profile", "parse",
                       "symmetric_difference_size"),
        "wick": ("GraphCount", "WickA", "WickB", "b_stabilization_scan",
                 "check_inductive_relations", "double_factorial",
                 "enumerate_admissible_graphs", "gaussian_moment_oracle",
                 "wick_a", "wick_b"),
        "lattice": ("AngleDistance", "angle_distance", "distance_comparison_check",
                    "is_orthogonal", "run_triple_suite", "sample_multiindex"),
        "jets": ("SQRT_COS", "SQRT_SINC", "SQUARED_GEODESIC", "compose_univariate",
                 "extract_mixed_partial"),
        "manifolds": ("Circle", "FlatTorus", "Sphere", "TruncationError",
                      "TruncationPolicy", "curvature_symmetry_residuals",
                      "jet_gram", "make_model", "mean_curvature_proxy",
                      "pullback_metric", "ricci_scalar_extract",
                      "squared_distance_jets", "squared_distance_target",
                      "third_jet_umbilical", "truncation_stability"),
        "asymptotics": ("ConvergenceRecord", "LimitFit", "curvature_suite",
                        "isometry_suite", "jet_relation_suite", "limit_fit",
                        "mean_curvature_suite", "normalization_factor",
                        "scalar_ricci_suite", "scalar_suite", "time_grid",
                        "umbilical_suite"),
    }

    def test_each_command_loads_only_its_layers(self, tmp_path):
        # a process that caches no bytecode compiles every module it
        # imports, so lattice and wick must not import the model layers,
        # and the package re-exports each name from its layer on first use
        code = textwrap.dedent("""\
            import importlib, json, sys
            out, exports = sys.argv[1], json.loads(sys.argv[2])

            def layers():
                return {name for name in sys.modules if name.startswith("spectraljet.")}

            import spectraljet
            assert layers() == set(), layers()
            from spectraljet import cli
            for argv in (
                ["lattice", "sample", "--n", "3", "--max-degree", "8",
                 "--count", "300", "--out", out + "/lat.csv",
                 "--out-json", out + "/lat.json"],
                ["wick", "--alpha", "1,1", "--beta", "2,2", "--n", "2",
                 "--graphs", "--oracle"],
            ):
                assert cli.main(argv) == 0, argv
            model = {"spectraljet.asymptotics", "spectraljet.manifolds",
                     "spectraljet.jets"}
            assert not layers() & model, layers() & model
            listed = dir(spectraljet)
            for layer, names in exports.items():
                module = importlib.import_module("spectraljet." + layer)
                for name in names:
                    assert name in listed, name
                    assert getattr(spectraljet, name) is getattr(module, name), name
            try:
                spectraljet.no_such_name
            except AttributeError:
                pass
            else:
                raise AssertionError("an unknown name resolved")
        """)
        src = str(Path(spectraljet.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-S", "-c", code, str(tmp_path), json.dumps(self.EXPORTS)],
            env={**os.environ, "PYTHONPATH": src}, capture_output=True,
            text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr


class TestGoldenBytes:
    # sha256 of verify and curvature output; any change to the order of the
    # float operations in the spectral mode sums or the fits moves them.
    @pytest.mark.parametrize("argv, csv_sha, json_sha", [
        (["verify", "--model", "sphere3", "--max-degree", "6",
          "--t-grid", "0.1:0.5:7"],
         "5142c6028f32d85dc90fe18339a0f405dc16422ed6588e2f8792be698d024d01",
         "2f3e09a33c4ec5e89dbcdd8433dc1ded0a13149513d80c0a5f9c2d9dc9fe6f24"),
        (["verify", "--model", "sphere2", "--radius", "2.0", "--max-degree", "6",
          "--t-grid", "0.1:0.5:7"],
         "74440a3d3cc9468e84893863e76b960e68490c4c3b50714341732f2b78d6e402",
         "f211750f89dee659ae42925653da04d0f9df4dafb1f9fe5a03de06fd3242f2fc"),
        (["verify", "--model", "torus", "--radii", "1.0,1.3", "--max-degree", "6",
          "--t", "0.01"],
         "431aeae0b1207fc199bca4f96d6ef24de16487a98857c9e6fe8cf40b73f80794",
         "dc0cd8ff720b2eea9f42fbf134f15b0d849c7774a4c4b60b3727ced2e5daff00"),
        (["curvature", "--model", "sphere3"], None,
         "fb786a9a43742d01f5e52a850805ec06ebb9d9c8c5c34c422448bdfc3cff7589"),
        (["curvature", "--model", "torus", "--radii", "1.0,1.3"], None,
         "fcf1651de6048e30c030789d8a5953874d751c3d5cfb5d97f19591446f2b8b79"),
        # the deepest mode sums of the benchmark's verify and curvature ops
        (["verify", "--model", "sphere3", "--radius", "1.75", "--max-degree", "6",
          "--t-grid", "0.1:0.5:7"],
         "8211e216514eb0bc56df053108048f9d5473660404f3bc8e5103c19490987dc8",
         "39186ba534ca7980125fe451994c4ade45612ae408bb622edf3f58c72d61c1b1"),
        (["curvature", "--model", "sphere2", "--radius", "1.5"], None,
         "e30ddff72107f2f433bf028db7f74d894776ed28603e5dcdf01196417409aab7"),
    ], ids=["verify-sphere3", "verify-sphere2", "verify-torus",
            "curvature-sphere3", "curvature-torus", "verify-sphere3-r1.75",
            "curvature-sphere2-r1.5"])
    def test_verify_and_curvature(self, tmp_path, capsys, argv, csv_sha, json_sha):
        out_csv = tmp_path / "out.csv"
        out_json = tmp_path / "out.json"
        extra = ["--out", str(out_csv)] if csv_sha else []
        code, _, _ = run(capsys, *argv, *extra, "--out-json", str(out_json))
        assert code == 0
        if csv_sha:
            assert hashlib.sha256(out_csv.read_bytes()).hexdigest() == csv_sha
        assert hashlib.sha256(out_json.read_bytes()).hexdigest() == json_sha

    # Every tolerance at 1e-15, so that the pass rule of each check decides
    # some entries each way; the hashes pin those decisions.
    @pytest.mark.parametrize("argv, csv_sha, json_sha", [
        (["verify", "--model", "sphere3", "--max-degree", "4",
          "--t-grid", "0.1:0.5:7"],
         "8db63ed6aec1154b5bc9bab6d28dfb9a6a38dc3b24dccaa60edfdaf200661941",
         "76c3a6c8b021bebffbdb4f7c519933a96819dcd431b5dd5dc5d96b9576954c78"),
        (["verify", "--model", "torus", "--radii", "1.0,1.3", "--max-degree", "4",
          "--t-grid", "0.04:0.5:5"],
         "265dd289a83aec1f893558999786dc11c12e697b2a0389d7a26e80e0d613dbcd",
         "e13bdfb6a83762af22569f7d7dcc7ebf9f4e568b5ac580eb52a4aac090862081"),
        (["curvature", "--model", "sphere3"], None,
         "2e02511efdc46885037de32b3b97f77be72a524948e2842305cae885bc25e472"),
        (["curvature", "--model", "torus", "--radii", "1.0,1.3"], None,
         "7e086d2bd63cd0c27d2e8040a21ce47b499f49f95bf0f186b9f64a29c5d9150b"),
    ], ids=["verify-sphere3", "verify-torus", "curvature-sphere3", "curvature-torus"])
    def test_failing_checks(self, tmp_path, capsys, argv, csv_sha, json_sha):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"tolerances": dict.fromkeys(TOLERANCES, 1e-15)}))
        out_csv = tmp_path / "out.csv"
        out_json = tmp_path / "out.json"
        extra = ["--out", str(out_csv)] if csv_sha else []
        code, out, _ = run(capsys, *argv, "--config", str(cfg), *extra,
                           "--out-json", str(out_json))
        assert code == 1
        assert "passed=False" in out
        suites = json.loads(out_json.read_text())["suites"].values()
        assert {c["pass"] for s in suites for c in s.values()} == {True, False}
        if csv_sha:
            assert hashlib.sha256(out_csv.read_bytes()).hexdigest() == csv_sha
        assert hashlib.sha256(out_json.read_bytes()).hexdigest() == json_sha

    # A policy other than the default moves measured values, not only the
    # echoed config; these pin that the policy reaches every mode sum.
    @pytest.mark.parametrize("argv, file_cfg, exit_code, csv_sha, json_sha", [
        (["verify", "--model", "sphere3", "--max-degree", "4",
          "--t-grid", "0.1:0.5:7", "--policy-eps", "1e-8"], None, 0,
         "5b6a94c2a54209b3ba3e29d0e28a82875e509b6f1e39925a5ff8a3228942482c",
         "1c83105054010b8bef239ea55f38db5df235bada7b506f645c4fa77442f19382"),
        # the flat jets of a coarse epsilon miss their 1e-6 tolerance
        (["verify", "--model", "torus", "--radii", "1.0,1.3", "--max-degree", "4",
          "--t", "0.01", "--policy-eps", "1e-6"], None, 1,
         "1ed942f500ebb14d5cd2aeb5351930336d56228313c42580e7abc78bd8a7bae9", None),
        (["curvature", "--model", "sphere2", "--radius", "1.5"],
         {"policy": {"rho": 3.0, "epsilon": 1e-9}}, 0, None,
         "c1bbb8cb2baf925e75fa06253f9a998e48df4580e795fe5d431529020c5ea458"),
    ], ids=["verify-sphere3-eps", "verify-torus-eps", "curvature-sphere2-rho"])
    def test_non_default_policy(self, tmp_path, capsys, argv, file_cfg, exit_code,
                                csv_sha, json_sha):
        if file_cfg is not None:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps(file_cfg))
            argv = [*argv, "--config", str(cfg)]
        out_csv = tmp_path / "out.csv"
        out_json = tmp_path / "out.json"
        extra = ["--out", str(out_csv)] if csv_sha else []
        code, _, _ = run(capsys, *argv, *extra, "--out-json", str(out_json))
        assert code == exit_code
        if csv_sha:
            assert hashlib.sha256(out_csv.read_bytes()).hexdigest() == csv_sha
        if json_sha:
            assert hashlib.sha256(out_json.read_bytes()).hexdigest() == json_sha


class TestConfigTypes:
    def test_default_grid_is_the_config_grid(self):
        assert time_grid(**DEFAULT_CONFIG["t_grid"]) == DEFAULT_GRID

    @pytest.mark.parametrize("argv, file_cfg, message", [
        (["lattice", "sample"], {"seed": "abc"}, "config seed must be an integer"),
        (["lattice", "sample"], {"seed": 1.5}, "config seed must be an integer"),
        (["lattice", "sample"], {"tolerances": {"triangle_slack": "x"}},
         "config tolerances.triangle_slack must be a number"),
        (["verify", "--model", "sphere2"], {"max_degree": "4"},
         "config max_degree must be an integer"),
        (["verify", "--model", "sphere2"], {"t": "0.1"},
         "config t must be a number or null"),
        (["verify", "--model", "sphere2"], {"model": {"radius": "2"}},
         "config model.radius must be a number"),
        (["verify", "--model", "sphere2"], {"model": "sphere2"},
         "config model must be an object"),
        (["verify", "--model", "sphere2"], {"policy": {"epsilon": "x"}},
         "config policy.epsilon must be a number"),
        (["verify", "--model", "sphere2"], {"policy": {"hard_cap": True}},
         "config policy.hard_cap must be a number or null"),
        (["verify", "--model", "sphere2"], {"tolerances": {"fit_rel": "x"}},
         "config tolerances.fit_rel must be a number"),
        (["verify", "--model", "torus"], {"model": {"radii": 5}},
         "config model.radii must be a list of numbers"),
        (["curvature", "--model", "sphere3"], {"tolerances": {"curvature_rel": "x"}},
         "config tolerances.curvature_rel must be a number"),
        # a number that is not a cap: 0 read as the model default, 2.5 and -4
        # as "hard cap 2.5 reached"
        (["verify", "--model", "sphere2"], {"policy": {"hard_cap": 0}},
         "hard_cap must be null/None or an integer >= 1, got 0"),
        (["verify", "--model", "sphere2"], {"policy": {"hard_cap": 2.5}},
         "hard_cap must be null/None or an integer >= 1, got 2.5"),
        (["verify", "--model", "sphere2"], {"policy": {"hard_cap": -4}},
         "hard_cap must be null/None or an integer >= 1, got -4"),
        # a negative tolerance fails every check it judges: a usage error
        (["verify", "--model", "sphere2"], {"tolerances": {"fit_rel": -1}},
         "config tolerances.fit_rel must be >= 0, got -1"),
        (["curvature", "--model", "sphere3"],
         {"tolerances": {"umbilical_zero_abs": -0.5}},
         "config tolerances.umbilical_zero_abs must be >= 0, got -0.5"),
        (["lattice", "sample"], {"tolerances": {"triangle_slack": -1e-12}},
         "config tolerances.triangle_slack must be >= 0, got -1e-12"),
        # a misspelt key is refused, not echoed and ignored
        (["verify", "--model", "sphere2"], {"tolerances": {"fit_rell": 0.5}},
         "unknown config key tolerances.fit_rell"),
        (["verify", "--model", "sphere2"], {"polcy": {}}, "unknown config key polcy"),
        (["verify", "--model", "sphere2"], {"model": {"n": 2}},
         "unknown config key model.n"),
        # a key the command never reads is refused, not echoed and ignored;
        # tolerances is one table that every command reads
        (["lattice", "sample", "--count", "20"],
         {"t": 5, "model": {"kind": "sphere3"}}, "config key t is not read by lattice"),
        (["lattice", "sample", "--count", "20"], {"model": {"kind": "sphere3"}},
         "config key model is not read by lattice"),
        (["lattice", "sample", "--count", "20"], {"policy": {"rho": 1.0}},
         "config key policy is not read by lattice"),
        (["verify", "--model", "circle", "--t", "0.01"], {"seed": 3},
         "config key seed is not read by verify"),
        (["verify", "--model", "circle", "--t", "0.01"], {"count": 5},
         "config key count is not read by verify"),
        (["verify", "--model", "circle", "--t", "0.01"], {"n": 2},
         "config key n is not read by verify"),
        (["curvature", "--model", "sphere3"], {"max_degree": 2},
         "config key max_degree is not read by curvature"),
        (["curvature", "--model", "sphere3"], {"seed": 1},
         "config key seed is not read by curvature"),
    ])
    def test_wrong_type_is_config_error(self, tmp_path, capsys, argv, file_cfg,
                                        message):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(file_cfg))
        out_json = tmp_path / "out.json"
        code, out, err = run(capsys, *argv, "--config", str(cfg),
                             "--out-json", str(out_json))
        assert code == 2
        assert err.startswith(f"error: {message}")
        assert out == ""
        assert not out_json.exists()

    @pytest.mark.parametrize("flags, file_cfg, message", [
        (["--radius", "inf"], None, "config model.radius must be finite, got inf"),
        ([], {"model": {"radius": math.inf}},
         "config model.radius must be finite, got inf"),
        (["--policy-eps", "nan"], None,
         "config policy.epsilon must be finite, got nan"),
        ([], {"policy": {"epsilon": math.nan}},
         "config policy.epsilon must be finite, got nan"),
    ], ids=["radius-flag", "radius-file", "epsilon-flag", "epsilon-file"])
    def test_non_finite_is_config_error(self, tmp_path, capsys, flags, file_cfg,
                                        message):
        argv = ["verify", "--model", "sphere2", *flags]
        if file_cfg is not None:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps(file_cfg))  # writes Infinity / NaN
            argv += ["--config", str(cfg)]
        out_json = tmp_path / "out.json"
        code, out, err = run(capsys, *argv, "--out-json", str(out_json))
        assert code == 2
        assert err == f"error: {message}\n"
        assert out == ""
        assert not out_json.exists()

    def test_top_level_n_needs_no_default(self, tmp_path, capsys):
        # n, the lattice dimension, is the one config key without a default
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": 2}))
        out_json = tmp_path / "lat.json"
        code, out, _ = run(capsys, "lattice", "sample", "--count", "50",
                           "--config", str(cfg), "--out-json", str(out_json))
        assert code == 0
        assert out.startswith("lattice: n=2 ")
        assert json.loads(out_json.read_text())["config"]["n"] == 2

    def test_numbers_of_either_kind_accepted(self, tmp_path, capsys):
        # an int where the default is a float, and a number where it is null
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "model": {"radius": 1}, "t": 1e-2, "max_degree": 2,
            "policy": {"hard_cap": 200000}, "tolerances": {"flat_jet_abs": 1},
        }))
        code, _, _ = run(capsys, "verify", "--model", "circle", "--config", str(cfg))
        assert code == 0


class TestCommandFlags:
    """Each command takes exactly the flags it reads: any other flag, and an
    abbreviation of one, is a usage error that writes nothing."""

    FLAGS = {
        "lattice": "--n --count --max-degree --seed --config --out --out-json",
        "verify": "--model --radius --radii --t --t-grid --policy-eps "
                  "--max-degree --config --out --out-json",
        "curvature": "--model --radius --radii --t --t-grid --policy-eps "
                     "--config --out-json",
    }

    @pytest.mark.parametrize("command", FLAGS)
    def test_option_strings(self, command):
        sub = next(a for a in build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        options = {s for a in sub.choices[command]._actions for s in a.option_strings}
        assert options == {"-h", "--help", *self.FLAGS[command].split()}

    LATTICE = ["lattice", "sample", "--count", "10"]
    VERIFY = ["verify", "--model", "circle", "--t", "0.01"]
    CURVATURE = ["curvature", "--model", "sphere3"]

    @pytest.mark.parametrize("argv", [
        [*LATTICE, "--model", "sphere3"],
        [*LATTICE, "--radius", "2.0"],
        [*LATTICE, "--radii", "1.0,1.3"],
        [*LATTICE, "--t", "5"],
        [*LATTICE, "--t-grid", "0.1:0.5:7"],
        [*LATTICE, "--policy-eps", "1e-8"],
        [*VERIFY, "--seed", "3"],
        [*CURVATURE, "--max-degree", "2"],
        [*CURVATURE, "--seed", "3"],
        [*CURVATURE, "--out", "c.csv"],
        # abbreviations of flags the command takes
        [*VERIFY, "--max", "4"],
        [*CURVATURE, "--out-j", "c.json"],
        [*LATTICE, "--se", "3"],
    ])
    def test_unread_flag_is_usage_error(self, tmp_path, capsys, monkeypatch, argv):
        monkeypatch.chdir(tmp_path)
        code, out, err = run(capsys, *argv, "--out-json", "out.json")
        assert code == 2
        assert f"unrecognized arguments: {argv[-2]} {argv[-1]}" in err
        assert out == ""
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("flag, text", [
        ("--radii", "1.0,x"), ("--radii", ""), ("--t-grid", "0.1:0.5"),
        ("--t-grid", "0.1:0.5:x"),
    ])
    def test_malformed_value_names_it(self, tmp_path, capsys, flag, text):
        out_json = tmp_path / "out.json"
        code, out, err = run(capsys, "verify", "--model", "torus", flag, text,
                             "--out-json", str(out_json))
        assert code == 2
        assert f"argument {flag}:" in err and repr(text) in err
        assert not out_json.exists()

    def test_flags_set_their_config_paths(self, tmp_path, capsys):
        # defaults < file < flags, and --t-grid clears a t from anywhere
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"t": 0.02, "policy": {"rho": 0.75},
                                   "max_degree": 6}))
        out_json = tmp_path / "out.json"
        code, _, _ = run(capsys, "verify", "--model", "torus", "--radius", "2.0",
                         "--radii", "1.0,1.5", "--t", "0.01",
                         "--t-grid", "0.04:0.5:4", "--policy-eps", "1e-13",
                         "--max-degree", "2", "--config", str(cfg),
                         "--out-json", str(out_json))
        assert code == 0
        expected = json.loads(json.dumps(DEFAULT_CONFIG))
        expected["model"] = {"kind": "torus", "radius": 2.0, "radii": [1.0, 1.5]}
        expected["t_grid"] = {"start": 0.04, "ratio": 0.5, "count": 4}
        expected["policy"].update(epsilon=1e-13, rho=0.75)
        expected["max_degree"] = 2
        assert json.loads(out_json.read_text())["config"] == expected


class TestCurvatureCommand:
    def test_all_models_serialize_and_pass(self, tmp_path, capsys):
        # flat and curved models exercise every suite branch of the JSON writer
        for argv in (
            ["curvature", "--model", "circle"],
            ["curvature", "--model", "torus", "--radii", "1.0,1.3"],
            ["curvature", "--model", "sphere3"],
        ):
            out_json = tmp_path / (argv[2] + ".json")
            code, out, _ = run(capsys, *argv, "--out-json", str(out_json))
            assert code == 0, argv
            doc = json.loads(out_json.read_text())
            assert doc["passed"] is True
            assert "scalar" in doc["suites"]
            if argv[2] == "circle":
                assert "curvature" not in doc["suites"]
            else:
                assert "curvature" in doc["suites"]

    @pytest.mark.parametrize("model", ["sphere6", "sphere8"])
    def test_higher_spheres_pass_on_default_grid(self, tmp_path, capsys, model):
        # every readout fits the five smallest times; a quadratic fit over
        # the whole grid put the S^6 Ricci diagonal at 4.69 against 5
        out_json = tmp_path / "out.json"
        code, out, _ = run(capsys, "curvature", "--model", model,
                           "--out-json", str(out_json))
        assert code == 0
        assert out.count("passed=True") == 6
        doc = json.loads(out_json.read_text())
        assert doc["passed"] is True
        checks = [c for suite in doc["suites"].values() for c in suite.values()]
        assert all(c["pass"] for c in checks)

    @pytest.mark.parametrize("times, got", [
        (["--t-grid", "0.1:0.5:3"], 3),
        (["--t", "0.1"], 1),
    ])
    def test_short_grid_is_config_error(self, tmp_path, capsys, times, got):
        out_json = tmp_path / "out.json"
        code, out, err = run(capsys, "curvature", "--model", "torus",
                             "--radii", "1,1", *times, "--out-json", str(out_json))
        assert code == 2
        assert err == (
            "error: curvature suites need a t-grid of at least 4 times "
            f"(--t-grid start:ratio:count), got {got}\n"
        )
        assert out == ""
        assert not out_json.exists()

    def test_ill_conditioned_fitted_times_exit_2(self, tmp_path, capsys):
        # every fit judges the five smallest times it takes; their c0 noise
        # gain is 1.17e8 here, so each command that fits refuses the grid
        # with the same message before it writes anything
        out_json = tmp_path / "out.json"
        for argv in (["verify", "--model", "sphere3"],
                     ["verify", "--model", "torus"],
                     ["curvature", "--model", "circle"],
                     ["curvature", "--model", "sphere3"]):
            code, out, err = run(capsys, *argv, "--t-grid", "0.01:0.99993:7",
                                 "--out-json", str(out_json))
            assert code == 2, argv
            assert err == (
                "error: ill-conditioned fit grid: noise gain 1.17e+08 of the "
                "fitted limit on its 5 smallest times (limit 1e+06); spread "
                "the times further apart\n"
            ), argv
            assert out == ""
            assert not out_json.exists()

    @pytest.mark.parametrize("radius", [1.0, 0.1, 0.01, 0.003])
    def test_rescaled_sphere_passes_at_any_radius(self, tmp_path, capsys, radius):
        # J_R(t) = R^-(n+|a|+|b|) J_1(t/R^2): the default problem rescaled
        # to radius R has the same fits, and the same trust in them
        grid = f"{0.1 * radius**2!r}:0.5:7"
        for command in ("verify", "curvature"):
            code, _, err = run(capsys, command, "--model", "sphere3", "--radius",
                               str(radius), "--t-grid", grid,
                               "--out-json", str(tmp_path / f"{command}.json"))
            assert (code, err) == (0, ""), command


class TestReportCommand:
    def test_merge_and_propagate_failure(self, tmp_path, capsys):
        good = tmp_path / "good.json"
        good.write_text(json_dumps({"passed": True, "suites": {}}))
        bad = tmp_path / "bad.json"
        bad.write_text(json_dumps({"passed": True, "suites": {"x": {"pass": False}}}))
        merged = tmp_path / "merged.json"
        code, _, _ = run(capsys, "report", "--inputs", str(good), "--out", str(merged))
        assert code == 0
        assert json.loads(merged.read_text())["passed"] is True
        code, _, _ = run(
            capsys, "report", "--inputs", str(good), str(bad), "--out", str(merged)
        )
        assert code == 1
        assert json.loads(merged.read_text())["passed"] is False


class TestVerifyDeterminism:
    def test_sphere_verify_byte_identical(self, tmp_path, capsys):
        blobs = []
        for tag in ("a", "b"):
            csv_path = tmp_path / f"rec_{tag}.csv"
            json_path = tmp_path / f"sum_{tag}.json"
            code, _, _ = run(
                capsys, "verify", "--model", "sphere3", "--max-degree", "2",
                "--t-grid", "0.1:0.5:5", "--out", str(csv_path),
                "--out-json", str(json_path),
            )
            assert code == 0
            blobs.append((csv_path.read_bytes(), json_path.read_bytes()))
        assert blobs[0] == blobs[1]


class TestSerialization:
    def test_fmt_float_17_digits(self):
        assert fmt_float(1 / 3) == "0.33333333333333331"
        assert fmt_float(1.0) == "1"
        assert float(fmt_float(0.1)) == 0.1

    @pytest.mark.parametrize("n, max_degree", [(3, 8), (3, 0)])
    def test_triple_rows_match_fmt_float_route(self, n, max_degree):
        rows, _ = run_triple_suite(n, max_degree, 300, 42)
        lines = list(triple_rows_to_csv(rows))
        assert len(lines) == len(rows) + 1
        for row, line in zip(rows, lines[1:]):
            fields = (*(MultiIndex(p).text() for p in row[:3]), *row[3:])
            assert line == csv_line(fields) + "\n"

    def test_records_match_fmt_float_route(self):
        result = jet_relation_suite(Sphere(3, 1.0), 4, time_grid(0.1, 0.5, 7))
        lines = list(records_to_csv(result.records))
        assert len(lines) == len(result.records) + 1
        for r, line in zip(result.records, lines[1:]):
            fields = (r.model, r.alpha.text(), r.beta.text(), *r[3:])
            assert line == csv_line(fields) + "\n"

    def test_memo_keeps_signed_zeros_and_types_apart(self):
        # 0.0 == -0.0 and True == 1 == 1.0 as dict keys, and nan != nan:
        # a memo keyed on float equality would hand out the wrong text
        a, b = MultiIndex((1, 0)), MultiIndex((0, 2))
        values = [
            (0.0, -0.0, 0.0, -0.0, 1.0),
            (-0.0, 0.0, -0.0, 0.0, True),
            (1.0, True, 1, 1.0, 0.0),
            (math.nan, math.nan, math.inf, -math.inf, -0.0),
            (float("nan"), math.inf, 2.5, "1.0", None),
        ]
        records = [ConvergenceRecord("m,x", a, b, *v) for v in values]
        records.append(ConvergenceRecord("m", MultiIndex((0, 0)), a, *values[0]))
        lines = list(records_to_csv(records))[1:]
        assert lines == [csv_line((r.model, r.alpha.text(), r.beta.text(), *r[3:]))
                         + "\n" for r in records]
        assert lines[0] == '"m,x",1,"2,2",0,-0,0,-0,1\n'
        assert lines[1] == '"m,x",1,"2,2",-0,0,-0,0,True\n'
        assert lines[2] == '"m,x",1,"2,2",1,True,1,1,0\n'
        assert lines[3] == '"m,x",1,"2,2","nan","nan","inf","-inf",-0\n'
        assert lines[4] == '"m,x",1,"2,2","nan","inf",2.5,1.0,None\n'
        assert lines[5] == 'm,,1,0,-0,0,-0,1\n'

    def test_numpy_non_finite_floats_write_as_floats(self):
        np = pytest.importorskip("numpy")
        values = [np.float64("nan"), np.float64("inf"), np.float64("-inf")]
        assert [fmt_float(v) for v in values] == ['"nan"', '"inf"', '"-inf"']
        assert json_dumps({"x": values}) == json_dumps({"x": [math.nan, math.inf, -math.inf]})
        a, b = MultiIndex((1, 0)), MultiIndex((0, 2))
        records = [ConvergenceRecord("m", a, b, 0.1, *values, np.float64(2.5))]
        assert list(records_to_csv(records))[1] == 'm,1,"2,2",0.10000000000000001,"nan","inf","-inf",2.5\n'
        rows = [((1, 0), (0, 2), (0, 0), *values, np.float64(0.5), 1.0, -0.0)]
        assert list(triple_rows_to_csv(rows))[1] == '1,"2,2",,"nan","inf","-inf",0.5,1,-0\n'

    def test_json_sorted_and_stable(self):
        doc = {"b": [1.0, 0.5], "a": {"y": True, "x": None}}
        text = json_dumps(doc)
        assert text.index('"a"') < text.index('"b"')
        assert json.loads(text) == {"b": [1.0, 0.5], "a": {"y": True, "x": None}}
        assert json_dumps(doc) == text


def _log_uniform(low_exp, high_exp):
    return st.floats(low_exp, high_exp).map(lambda e: 10.0 ** e)


_BAD_NUMBERS = st.sampled_from([0.0, -0.1, math.nan])
_CONFIG_VALUES = st.sampled_from(
    [None, True, 0, -1, 2, 0.5, 10**400, math.nan, math.inf, "x", [], {}, [1, 2]]
)
_CONFIG_FIELDS = st.sampled_from([
    "model.kind", "model.radius", "model.radii", "t", "t_grid.count",
    "policy.epsilon", "policy.rho", "policy.hard_cap", "tolerances.fit_rel",
    "tolerances.curvature_rel", "max_degree",
])


@st.composite
def _config_text(draw):
    """Config file text: not JSON, JSON that is not an object, or an object
    with odd values at known keys."""
    kind = draw(st.sampled_from(["text", "json", "fields"]))
    if kind == "text":
        return draw(st.text(max_size=12))
    if kind == "json":
        return json.dumps(draw(_CONFIG_VALUES))
    doc: dict = {}
    for path in draw(st.lists(_CONFIG_FIELDS, max_size=3)):
        head, _, tail = path.partition(".")
        value = draw(_CONFIG_VALUES)
        if tail:
            doc.setdefault(head, {})[tail] = value
        else:
            doc[head] = value
    return json.dumps(doc)  # writes NaN and Infinity, as json reads them


@st.composite
def _model_argv(draw, max_exp=300):
    """verify or curvature on one model, radii log-uniform in
    10^-max_exp..10^max_exp, and heat times R^2 u for the first radius R:
    the argv so far and a strategy for such times."""
    kind = draw(st.sampled_from(["circle", "torus", "sphere2", "sphere3", "sphere5"]))
    argv = [draw(st.sampled_from(["verify", "curvature"])), "--model", kind]
    if argv[0] == "verify":  # curvature takes no --max-degree
        argv += ["--max-degree", draw(st.sampled_from(["2", "4", "6"]))]
    radius = _log_uniform(-max_exp, max_exp)
    radii = [draw(radius) for _ in range(2 if kind == "torus" else 1)]
    if kind == "torus":
        argv += ["--radii", f"{radii[0]!r},{radii[1]!r}"]
    else:
        argv += ["--radius", repr(radii[0])]
    # Times are R^2 u, so the modes summed do not grow with the radius: a
    # tiny radius reaches its high-order jets (about R^-(m+1)) and a huge
    # one the powers of a huge t, instead of the hard cap.  R^2 u may be 0
    # or inf: a bad time.
    time = _log_uniform(-5, 1).map(lambda u: radii[0] * radii[0] * u)
    return argv, time


@st.composite
def _cli_argv(draw):
    argv, time = draw(_model_argv())
    # always one time flag, so a config file never sets the grid
    if draw(st.booleans()):
        t = draw(st.one_of(_BAD_NUMBERS, time))
        argv += ["--t", repr(t)]
    else:
        start = draw(st.one_of(_BAD_NUMBERS, time))
        ratio = draw(st.one_of(_BAD_NUMBERS, st.floats(0.05, 1.5)))
        count = draw(st.sampled_from([-1, 0, 1, 4, 5, 7]))
        argv += ["--t-grid", f"{start!r}:{ratio!r}:{count}"]
    config = draw(st.one_of(st.none(), _config_text()))
    return argv, config


@st.composite
def _valid_argv(draw):
    """Command lines without a bad number or a config file, so that most
    of them compute; R^2 stays within the float range, down to subnormal
    times."""
    argv, time = draw(_model_argv(max_exp=155))
    start = draw(time)
    if argv[0] == "verify" and argv[2] in ("circle", "torus") and draw(st.booleans()):
        return argv + ["--t", repr(start)]
    ratio = draw(st.floats(0.05, 0.95))
    count = draw(st.sampled_from([4, 5, 7]))
    return argv + ["--t-grid", f"{start!r}:{ratio!r}:{count}"]


def _exit_code(argv, config=None) -> int:
    with tempfile.TemporaryDirectory() as tmp:
        if config is not None:
            path = os.path.join(tmp, "cfg.json")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(config)
            argv = argv + ["--config", path]
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            return main(argv)


class TestCliFuzz:
    # Every verify/curvature command line ends in an exit code of the
    # contract, never in an exception: extreme radii, bad grids and broken
    # config files included.
    @settings(max_examples=60, deadline=None)
    @given(_cli_argv())
    def test_exit_code_contract(self, case):
        assert _exit_code(*case) in (0, 1, 2)

    # The same on well-formed command lines, which reach the numerical
    # limits: jets and powers of t past the float range, subnormal times.
    # Pinned: on the float series route, both ended in an OverflowError.
    @settings(max_examples=100, deadline=None)
    @given(_valid_argv())
    @example(["verify", "--model", "sphere2", "--max-degree", "4", "--radius",
              "1e-77", "--t-grid", "9.999999999999998e-155:0.5:4"])
    @example(["verify", "--model", "sphere2", "--max-degree", "6", "--radius",
              "1e-77", "--t-grid", "9.999999999999998e-155:0.5:4"])
    def test_valid_command_lines(self, argv):
        assert _exit_code(argv) in (0, 1, 2)
