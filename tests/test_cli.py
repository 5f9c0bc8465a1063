import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import signal
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
    jet_relation_suite,
    time_grid,
)
from spectraljet.cli import DEFAULT_CONFIG, build_parser, main
from spectraljet import _triples, cli, reporting
from spectraljet.lattice import run_triple_suite
from spectraljet.manifolds import Sphere
from spectraljet.multiindex import MultiIndex, counts_text
from spectraljet.reporting import (
    fmt_float,
    json_dumps,
    json_pieces,
    records_to_csv,
    triple_rows_to_csv,
)
from tests.oracles import csv_line


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

    def test_oracle_past_the_float_range_is_config_error(self, capsys):
        # one coordinate: Gamma(170.5) 2^170 overflows ldexp at degree 340,
        # while degree 300 still fits; two coordinates: the product of two
        # Gammas turns inf without raising
        ones = ",".join(["1"] * 150)
        code, out, _ = run(capsys, "wick", "--alpha", ones, "--beta", ones,
                           "--n", "1", "--oracle")
        assert code == 0
        assert out.splitlines()[1].startswith("oracle: 3.75327411157192")
        ones = ",".join(["1"] * 170)
        twos = ",".join(["1"] * 100 + ["2"] * 100)
        for argv, degree in (([ones, "1"], 340), ([twos, "2"], 400)):
            alpha, n = argv
            code, _, err = run(capsys, "wick", "--alpha", alpha, "--beta", alpha,
                               "--n", n, "--oracle")
            assert code == 2
            assert err == ("error: the Gaussian-moment route leaves the float "
                           f"range at degree |alpha| + |beta| = {degree}\n")
            assert "Traceback" not in err

    def test_failing_oracle_prints_no_result(self, capsys):
        # A, B and the oracle are all computed before a line is printed, so a
        # run that exits 2 leaves stdout empty
        ones = ",".join(["1"] * 170)
        code, out, err = run(capsys, "wick", "--alpha", ones, "--beta", ones,
                             "--n", "1", "--oracle")
        assert code == 2
        assert out == ""
        assert err.startswith("error:")

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

    def test_huge_max_degree_refused_at_once(self, capsys):
        # the closed-form count takes no loop over the degrees
        def expire(signum, frame):
            pytest.fail("verify --max-degree 10000000 still running after 2 s")

        previous = signal.signal(signal.SIGALRM, expire)
        signal.setitimer(signal.ITIMER_REAL, 2)
        try:
            code, out, err = run(capsys, "verify", "--model", "circle",
                                 "--max-degree", "10000000")
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        assert code == 2
        assert err == (
            "error: 25000010000001 jet pairs on circle at max degree 10000000, "
            "above the limit of 200000; lower --max-degree\n"
        )
        assert out == ""

    def test_deeply_nested_config_is_config_error(self, tmp_path, capsys):
        # json.load recurses once per level: too deep is a usage error
        cfg = tmp_path / "cfg.json"
        cfg.write_text("[" * 100000 + "]" * 100000)
        code, out, err = run(capsys, "verify", "--model", "circle",
                             "--config", str(cfg))
        assert code == 2
        assert err.startswith("error: maximum recursion depth exceeded")
        assert out == ""

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
        # one spelling per sphere: sphere02 would run S^2 under another name
        ("sphere0", "sphere dimension must be at least 2"),
        ("sphere02", "unknown model kind 'sphere02': use circle, torus or "
                     "sphereN (N >= 2)"),
        ("sphere0002", "unknown model kind 'sphere0002': use circle, torus or "
                       "sphereN (N >= 2)"),
        ("sphere00", "unknown model kind 'sphere00': use circle, torus or "
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

    def test_gram_norm_underflow_exits_2(self, tmp_path, capsys):
        # at t = 800 the circle's Gram norm of D psi underflows to 0, so the
        # angle B of (1, 1) has no denominator; refused before any output
        out_json = tmp_path / "x.json"
        code, out, err = run(capsys, "verify", "--model", "circle", "--t", "800",
                             "--max-degree", "2", "--out-json", str(out_json))
        assert code == 2
        assert err == "error: Gram norms of 1 and 1 underflow at t=800.0: lower t\n"
        assert out == ""
        assert not out_json.exists()

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
            monkeypatch.setattr(_triples, "_cpu_count", lambda: ranges)
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
        # at the degree limit itself, C(10300, 300) points overflow them too
        (["--n", "300", "--max-degree", "10000", "--count", "1"],
         "n=300 and max_degree=10000 give too many lattice points"),
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

    def test_max_degree_past_the_limit_exit_2(self, tmp_path, capsys, monkeypatch):
        # the table of max_degree 10^5 would hold 9.65 GB: refused unbuilt
        def refuse(size):
            raise AssertionError(f"double_factorial_table({size}) was built")

        monkeypatch.setattr(_triples, "double_factorial_table", refuse)
        out_json = tmp_path / "lat.json"
        code, out, err = run(
            capsys, "lattice", "sample", "--n", "3", "--max-degree", "100000",
            "--count", "2", "--out-json", str(out_json),
        )
        assert code == 2
        assert err.startswith("error: max_degree=100000 needs a double factorial "
                              "table of about 9,654 MB")
        assert "Traceback" not in err
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
        "wick": ("WickA", "WickB", "double_factorial", "wick_a", "wick_b"),
        "oracles": ("GraphCount", "b_stabilization_scan", "check_inductive_relations",
                    "enumerate_admissible_graphs", "gaussian_moment_oracle"),
        "lattice": ("AngleDistance", "angle_distance", "distance_comparison_check",
                    "is_orthogonal", "run_triple_suite", "sample_multiindex"),
        "jets": ("SQRT_COS", "SQRT_SINC", "SQUARED_GEODESIC", "compose_univariate",
                 "extract_mixed_partial"),
        "manifolds": ("Circle", "FlatTorus", "Sphere", "TruncationError",
                      "TruncationPolicy", "curvature_symmetry_residuals",
                      "jet_gram", "make_model", "mean_curvature_proxy",
                      "pullback_metric", "ricci_scalar_extract",
                      "squared_distance_jets", "squared_distance_target",
                      "third_jet_umbilical"),
        "asymptotics": ("LimitFit", "curvature_suite",
                        "curvature_suites", "isometry_suite",
                        "jet_relation_suite", "limit_fit",
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


    # the Wick oracle routes and relation scans, which only wick --graphs
    # and --oracle run
    ROUTES = ("GraphCount", "enumerate_admissible_graphs", "gaussian_moment_oracle",
              "check_inductive_relations", "b_stabilization_scan")

    # the sampled suite's engine, which only lattice runs
    ENGINE = ("_counts_sampler", "_triple_range", "_fork", "_fan_out")

    # argv None runs no command: the bare import of cli
    @pytest.mark.parametrize("argv, absent, runs_suite", [
        (["lattice", "sample", "--n", "3", "--max-degree", "8", "--count", "300",
          "--out", "{out}/lat.csv", "--out-json", "{out}/lat.json"],
         ["fractions", "spectraljet.oracles"], True),
        (["verify", "--model", "sphere3", "--max-degree", "4",
          "--out", "{out}/s3.csv", "--out-json", "{out}/s3.json"],
         ["spectraljet.oracles", "random"], False),
        (["curvature", "--model", "sphere3", "--out-json", "{out}/s3curv.json"],
         ["spectraljet.oracles", "random"], False),
        (None, ["spectraljet.oracles", "random"], False),
    ], ids=["lattice", "verify", "curvature", "import"])
    def test_command_alone_skips_what_it_does_not_run(self, tmp_path, argv, absent,
                                                      runs_suite):
        # one command per fresh interpreter: a module that another command
        # loads cannot hide one that this command loads
        code = textwrap.dedent("""\
            import json, sys
            argv, absent, routes, engine, runs_suite = (
                json.loads(arg) for arg in sys.argv[1:])
            from spectraljet import cli
            if argv is not None:
                assert cli.main(argv) == 0, argv
            loaded = [name for name in absent if name in sys.modules]
            assert not loaded, loaded
            engine_bound = set()
            for name, module in list(sys.modules.items()):
                if name.split(".")[0] == "spectraljet":
                    bound = set(routes) & set(vars(module))
                    assert not bound, (name, bound)
                    engine_bound |= set(engine) & set(vars(module))
            assert engine_bound == (set(engine) if runs_suite else set()), engine_bound
        """)
        if argv is not None:
            argv = [arg.format(out=tmp_path) for arg in argv]
        src = str(Path(spectraljet.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-S", "-c", code, json.dumps(argv), json.dumps(absent),
             json.dumps(self.ROUTES), json.dumps(self.ENGINE), json.dumps(runs_suite)],
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
         "5e0ba7975bd815a87dbed6b12cd654a642e613c824d12fc4bdc287930d73294b",
         "489271fd3ceb0ae7182e2ed2b8451f3df824f8728debc1699e37a813b7984294"),
        (["verify", "--model", "sphere2", "--radius", "2.0", "--max-degree", "6",
          "--t-grid", "0.1:0.5:7"],
         "55ed1d790667737c518a1211d8a286e5e08a6d9f421e29ec32dad8d72fbc4e69",
         "073f1823c5c5d4370cd8acd1f9300dcad2441e909a18c6cab0c022e533599045"),
        (["verify", "--model", "torus", "--radii", "1.0,1.3", "--max-degree", "6",
          "--t", "0.01"],
         "431aeae0b1207fc199bca4f96d6ef24de16487a98857c9e6fe8cf40b73f80794",
         "dc0cd8ff720b2eea9f42fbf134f15b0d849c7774a4c4b60b3727ced2e5daff00"),
        (["curvature", "--model", "sphere3"], None,
         "5b02fd786ef4a8715ef5246400793e71fe88018d5b01609c385f9774547065a2"),
        (["curvature", "--model", "torus", "--radii", "1.0,1.3"], None,
         "fcf1651de6048e30c030789d8a5953874d751c3d5cfb5d97f19591446f2b8b79"),
        # the deepest mode sums of the benchmark's verify and curvature ops
        (["verify", "--model", "sphere3", "--radius", "1.75", "--max-degree", "6",
          "--t-grid", "0.1:0.5:7"],
         "c512ebc3812c5fb175845e089ad8b8f999e57b0194cab09dd02915b64518dea3",
         "34c34bec8a001bf27a4ceac873c6aa42cdcf3825cb804bb21852912022c5177b"),
        (["curvature", "--model", "sphere2", "--radius", "1.5"], None,
         "ba915be898751292ead44639d251983bd18e93eb9a2a8d9b520b84730910ae0f"),
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
         "102f23c939709656a31e6a536e2a35bae05897b23f55801f41df5d43b30367d5",
         "9dd25101bf29c493766a9e414f8b398def1ae2ae275737bfeb23a0f6cc5fa88c"),
        (["verify", "--model", "torus", "--radii", "1.0,1.3", "--max-degree", "4",
          "--t-grid", "0.04:0.5:5"],
         "265dd289a83aec1f893558999786dc11c12e697b2a0389d7a26e80e0d613dbcd",
         "e13bdfb6a83762af22569f7d7dcc7ebf9f4e568b5ac580eb52a4aac090862081"),
        (["curvature", "--model", "sphere3"], None,
         "bfde737f4c2b5a4f714d8667c1bc1e0a4e7a9a0d49db39a8c7223323a1d31e47"),
        (["curvature", "--model", "torus", "--radii", "1.0,1.3"], None,
         "7e086d2bd63cd0c27d2e8040a21ce47b499f49f95bf0f186b9f64a29c5d9150b"),
    ], ids=["verify-sphere3", "verify-torus", "curvature-sphere3", "curvature-torus"])
    def test_failing_checks(self, tmp_path, capsys, argv, csv_sha, json_sha):
        cfg = tmp_path / "cfg.json"
        # every verify and curvature tolerance; the lattice's triangle_slack,
        # which the pinned reports echo, keeps its default
        tols = {key: 1e-15 for key in TOLERANCES if key != "triangle_slack"}
        cfg.write_text(json.dumps({"tolerances": tols}))
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
         "44209734f4c440f667eae426543b2f0f69966c07e6dbf8e69ea0389ed00a2ce9",
         "f3d3d4064aadbecc8fecd520622274f56ef7001d3bc6547b582f0bd790332188"),
        # the flat jets of a coarse epsilon miss their 1e-6 tolerance
        (["verify", "--model", "torus", "--radii", "1.0,1.3", "--max-degree", "4",
          "--t", "0.01", "--policy-eps", "1e-6"], None, 1,
         "1ed942f500ebb14d5cd2aeb5351930336d56228313c42580e7abc78bd8a7bae9", None),
        (["curvature", "--model", "sphere2", "--radius", "1.5"],
         {"policy": {"rho": 3.0, "epsilon": 1e-9}}, 0, None,
         "e2660c915717d48c73dad415b1ae6cbbf2c0a5042659a6be8830d18f86ff7ecc"),
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
        # the tail rule is the one stopping rule of a mode sum
        (["verify", "--model", "sphere2"], {"policy": {"fixed_cutoff": 3}},
         "unknown config key policy.fixed_cutoff"),
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
            "error: fitted limits need a t-grid of at least 4 times "
            f"(--t-grid start:ratio:count), got {got}\n"
        )
        assert out == ""
        assert not out_json.exists()

    @pytest.mark.parametrize("times, got", [
        (["--t-grid", "0.1:0.5:3"], 3),
        (["--t", "0.1"], 1),
    ])
    def test_verify_refuses_a_short_grid_in_the_same_words(self, tmp_path, capsys,
                                                           times, got):
        out_json = tmp_path / "out.json"
        code, out, err = run(capsys, "verify", "--model", "sphere3", *times,
                             "--out-json", str(out_json))
        assert code == 2
        assert err == (
            "error: fitted limits need a t-grid of at least 4 times "
            f"(--t-grid start:ratio:count), got {got}\n"
        )
        assert out == ""
        assert not out_json.exists()

    @pytest.mark.parametrize("grid, reason", [
        ("0.1:0.9999999:100000000", "has 100000000 times, above the limit of "
                                    "1000; lower the count"),
        ("0.1:1e-320:5", "has a smallest time start * ratio**(count - 1) that "
                         "underflows to 0; raise the start or the ratio, or "
                         "lower the count"),
        ("1e-300:1e-10:5", "has a smallest time start * ratio**(count - 1) "
                           "that underflows to 0; raise the start or the "
                           "ratio, or lower the count"),
        ("5e-324:0.5:5", "has a smallest time start * ratio**(count - 1) that "
                         "underflows to 0; raise the start or the ratio, or "
                         "lower the count"),
    ])
    def test_grid_refusal_names_the_grid(self, tmp_path, capsys, grid, reason):
        # a grid the user gave as positive is refused as given, before any
        # time is built, not as a zero heat time
        out_json = tmp_path / "out.json"
        for command in ("verify", "curvature"):
            code, out, err = run(capsys, command, "--model", "sphere2",
                                 "--t-grid", grid, "--out-json", str(out_json))
            assert code == 2, command
            assert err == f"error: t-grid {grid} {reason}\n", command
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

    def test_deeply_nested_input_is_usage_error(self, tmp_path, capsys):
        # an exit of 1 would say a tolerance failed; the nesting sits inside a
        # report, so the merge's own walk of the inputs is what recurses
        deep = tmp_path / "deep.json"
        deep.write_text('{"passed": true, "x": ' + "[" * 900 + "]" * 900 + "}")
        merged = tmp_path / "merged.json"
        code, out, err = run(capsys, "report", "--inputs", str(deep),
                             "--out", str(merged))
        assert code == 2
        assert err.startswith("error: maximum recursion depth exceeded")
        assert out == ""
        assert not merged.exists()

    NOT_A_REPORT = 'not a JSON object with a boolean "passed"'

    # JSON that carries no verdict is refused, not merged as a pass
    @pytest.mark.parametrize("content, reason", [
        (b"", "Expecting value: line 1 column 1 (char 0)"),
        (b"\xff\xfe", "'utf-8' codec can't decode byte 0xff in position 0: "
                      "invalid start byte"),
        (b"{}", NOT_A_REPORT),
        (b"5", NOT_A_REPORT),
        (b"[1, 2]", NOT_A_REPORT),
        (b'{"passed": "no"}', NOT_A_REPORT),
        (b'{"passed": null, "suites": {}}', NOT_A_REPORT),
        (("[" * 900 + "]" * 900).encode(), NOT_A_REPORT),
        (b'{"passed": true, "suites": {"x": {"pass": "no"}}}',
         'a nested "pass" is not a boolean'),
        (b'{"passed": true, "reports": [{"passed": null}]}',
         'a nested "passed" is not a boolean'),
    ], ids=["empty", "not-utf8", "empty-object", "number", "list",
            "passed-string", "passed-null", "deep-list", "nested-pass-string",
            "nested-passed-null"])
    def test_unparsable_input_is_named(self, tmp_path, capsys, content, reason):
        good = tmp_path / "good.json"
        good.write_text(json_dumps({"passed": True, "suites": {}}))
        bad = tmp_path / "bad.json"
        bad.write_bytes(content)
        merged = tmp_path / "merged.json"
        code, out, err = run(capsys, "report", "--inputs", str(good), str(bad),
                             "--out", str(merged))
        assert code == 2
        assert err == f"error: bad report input {bad}: {reason}\n"
        assert out == ""
        assert not merged.exists()

    def test_merged_json_is_written_in_pieces(self, tmp_path, capsys, monkeypatch):
        # the writer is handed the pieces, never one joined text, and stdout
        # gets the same bytes
        written = []

        def write(path, text):
            written.append(text)
            reporting.write_text(path, text)

        monkeypatch.setattr(cli, "write_text", write)
        good = tmp_path / "good.json"
        good.write_text(json_dumps({"passed": True, "suites": {"x": {"pass": True}}}))
        merged = tmp_path / "merged.json"
        code, _, _ = run(capsys, "report", "--inputs", str(good), "--out", str(merged))
        assert code == 0
        assert len(written) == 1 and not isinstance(written[0], str)
        code, out, _ = run(capsys, "report", "--inputs", str(good))
        assert code == 0
        assert out == merged.read_text() == json_dumps(json.loads(out))


class TestOutOfMemory:
    # a run too large for its memory exits 2 with an error line, not with a
    # MemoryError traceback and 1, which would say a tolerance failed; the
    # address-space limit is set in the child only
    LIMIT = 512 * 2**20
    CODE = textwrap.dedent("""\
        import resource, sys
        try:
            resource.setrlimit(resource.RLIMIT_AS, (int(sys.argv[1]),) * 2)
        except (ValueError, OSError):
            sys.exit(77)
        import time
        from spectraljet.cli import main
        start = time.perf_counter()
        code = main(sys.argv[2:])
        sys.stderr.write(f"elapsed {time.perf_counter() - start!r}\\n")
        sys.exit(code)
    """)

    OUT_OF_MEMORY = "error: out of memory; lower the size of the run\n"

    # The verify grid is refused before any time is built, so `main` must
    # return within a second (the child times `main` alone, not its start-up).
    # S^11 at degree 6 has 188552 jet pairs, under the pair limit, and the
    # JSON report is written in pieces.  The suite keeps one record and one
    # summary per pair, and each key's rows once, so on 100 times the run
    # peaks near 100 MB and passes 512 MB in about 1.4 s.  It is given a
    # lower limit of its own instead: 64 MB, about 44 MB above what the
    # interpreter and the package take at start-up, which the suite reaches
    # while it measures, after about 0.9 s.  The grid's smallest time is 6e-4
    # and the noise gain of its fits 217, so nothing refuses it first.
    PAIRS_LIMIT = 64 * 2**20

    @pytest.mark.parametrize("argv, stderr, limit", [
        (["wick", "--n", "1000000000", "--alpha", "1", "--beta", "1"],
         OUT_OF_MEMORY, LIMIT),
        (["lattice", "sample", "--n", "1000000000", "--max-degree", "2",
          "--count", "1"], OUT_OF_MEMORY, LIMIT),
        (["verify", "--model", "sphere2", "--max-degree", "2",
          "--t-grid", "0.1:0.9999999:100000000"],
         "error: t-grid 0.1:0.9999999:100000000 has 100000000 times, above "
         "the limit of 1000; lower the count\n", LIMIT),
        (["verify", "--model", "sphere11", "--max-degree", "6",
          "--t-grid", "0.1:0.95:100", "--out-json", os.devnull], OUT_OF_MEMORY,
         PAIRS_LIMIT),
    ], ids=["wick", "lattice", "verify", "verify-pairs"])
    def test_memory_error_is_usage_error(self, argv, stderr, limit):
        resource = pytest.importorskip("resource")
        if not hasattr(resource, "RLIMIT_AS"):
            pytest.skip("RLIMIT_AS is not supported here")
        src = str(Path(spectraljet.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-c", self.CODE, str(limit), *argv],
            env={**os.environ, "PYTHONPATH": src}, capture_output=True,
            text=True, timeout=120,
        )
        if proc.returncode == 77:
            pytest.skip("the address-space limit cannot be set here")
        assert proc.returncode == 2, proc.stderr
        errors, _, timing = proc.stderr.rpartition("elapsed ")
        assert errors == stderr
        assert proc.stdout == ""
        if stderr != self.OUT_OF_MEMORY:
            assert float(timing) < 1.0


class TestProcessExit:
    # `python -m spectraljet.cli` runs `entrypoint`, which flushes stdout and
    # stderr and leaves by os._exit: nothing the parent reads may be lost.
    # The child's stdout stays buffered, so a missing flush shows.
    CLI = [sys.executable, "-m", "spectraljet.cli"]
    ENV = {**{k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"},
           "PYTHONPATH": str(Path(spectraljet.__file__).resolve().parents[1])}

    @staticmethod
    def big_report(tmp_path) -> str:
        # about 1 MB of merged JSON, well past the 64 KiB of a pipe's buffer
        path = tmp_path / "big.json"
        path.write_text(json_dumps({"passed": True, "suites": {
            f"s{i}": {"pass": True, "value": i / 7} for i in range(20000)}}))
        return str(path)

    def test_report_through_a_pipe_matches_out(self, tmp_path):
        report = [*self.CLI, "report", "--inputs", self.big_report(tmp_path)]
        merged = tmp_path / "merged.json"
        proc = subprocess.run([*report, "--out", str(merged)], env=self.ENV,
                              capture_output=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        proc = subprocess.run(report, env=self.ENV, capture_output=True,
                              timeout=120)
        assert (proc.returncode, proc.stderr) == (0, b"")
        assert len(proc.stdout) > 2**20
        assert proc.stdout == merged.read_bytes()

    @pytest.mark.parametrize("argv, code, out, err", [
        (["verify", "--model", "circle", "--max-degree", "2", "--t", "0.01"], 0,
         "verify: model=circle max_degree=2 checks=5 passed=True\n", ""),
        (["verify", "--model", "sphere2", "--t-grid", "50:0.5:7",
          "--max-degree", "2"], 1,
         "verify: model=sphere2 max_degree=2 checks=12 passed=False\n", ""),
        (["verify", "--max-degree", "2"], 2, "",
         "error: no model specified (use --model)\n"),
    ], ids=["pass", "tolerance-failed", "usage-error"])
    def test_stdout_in_a_file_keeps_line_and_code(self, tmp_path, argv, code,
                                                  out, err):
        with open(tmp_path / "stdout.txt", "wb") as fh:
            proc = subprocess.run([*self.CLI, *argv], env=self.ENV, stdout=fh,
                                  stderr=subprocess.PIPE, text=True, timeout=120)
        assert proc.returncode == code
        assert (tmp_path / "stdout.txt").read_text() == out
        assert proc.stderr == err

    def test_report_into_a_closed_pipe_is_usage_error(self, tmp_path):
        # the reader takes 10 bytes and leaves, as `| head -c 10` does; the
        # exit code and the error line are those of the normal exit path
        argv = [*self.CLI, "report", "--inputs", self.big_report(tmp_path)]
        with subprocess.Popen(argv, env=self.ENV, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE) as proc:
            assert len(proc.stdout.read(10)) == 10
            proc.stdout.close()
            err = proc.stderr.read()
            code = proc.wait(timeout=120)
        assert code == 2
        assert err == b"error: [Errno 32] Broken pipe\n"


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

    # degree-0 points render as '' and degree-1 points unquoted; n = 12 has
    # two-digit indices and n = 70 more than counts_text's 64 cached units
    @pytest.mark.parametrize("n, max_degree", [(3, 8), (3, 0), (1, 5), (12, 3),
                                               (70, 2)])
    def test_triple_rows_match_fmt_float_route(self, n, max_degree):
        outs, _ = run_triple_suite(n, max_degree, 300, 42, render=list)
        rows = [row for out in outs for row in out]
        lines = list(triple_rows_to_csv(rows))
        assert len(lines) == len(rows) + 1
        for row, line in zip(rows, lines[1:]):
            fields = (*(MultiIndex(p).text() for p in row[:3]), *row[3:])
            assert line == csv_line(fields) + "\n"

    def test_records_match_fmt_float_route(self):
        result = jet_relation_suite(Sphere(3, 1.0), 4, time_grid(0.1, 0.5, 7))
        lines = list(records_to_csv(result.model, result.records))
        assert len(lines) == 7 * len(result.records) + 1
        expected = [csv_line((result.model, a.text(), b.text(), *row)) + "\n"
                    for a, b, rows in result.records for row in rows]
        assert lines[1:] == expected

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
        records = [(a, b, values), (MultiIndex((0, 0)), a, values[:1])]
        lines = list(records_to_csv("m,x", records))[1:]
        assert lines == [csv_line(("m,x", alpha.text(), beta.text(), *row)) + "\n"
                         for alpha, beta, rows in records for row in rows]
        assert lines[0] == '"m,x",1,"2,2",0,-0,0,-0,1\n'
        assert lines[1] == '"m,x",1,"2,2",-0,0,-0,0,True\n'
        assert lines[2] == '"m,x",1,"2,2",1,True,1,1,0\n'
        assert lines[3] == '"m,x",1,"2,2","nan","nan","inf","-inf",-0\n'
        assert lines[4] == '"m,x",1,"2,2","nan","inf",2.5,1.0,None\n'
        assert lines[5] == '"m,x",,1,0,-0,0,-0,1\n'

    def test_shared_tails_keep_their_signed_zeros(self):
        # row lists that are equal as lists but for the sign of a zero, each
        # shared by three pairs, as the pairs of one jet key share theirs
        a, b = MultiIndex((1, 0)), MultiIndex((0, 2))
        tails = [[(0.5, 0.0, 0.0, 0.0, 0.0)], [(0.5, -0.0, -0.0, 0.0, 0.0)],
                 [(0.5, 0.0, -0.0, -0.0, 0.0)], [(0.5, 2.0, 4.0, 4.0, 0.0)]]
        records = [(a, b, rows) for rows in tails * 3]
        lines = list(records_to_csv("m", records))[1:]
        assert lines == [csv_line(("m", a.text(), b.text(), *rows[0])) + "\n"
                         for _, _, rows in records]
        assert lines[:4] == ['m,1,"2,2",0.5,0,0,0,0\n', 'm,1,"2,2",0.5,-0,-0,0,0\n',
                             'm,1,"2,2",0.5,0,-0,-0,0\n', 'm,1,"2,2",0.5,2,4,4,0\n']

    def test_equal_row_lists_render_as_one_shared_list(self):
        # rows are rendered once per list object: equal rows in distinct
        # lists write what one shared list writes
        a, b, c = MultiIndex((1, 0)), MultiIndex((0, 2)), MultiIndex((1, 1))
        rows = [(0.1, 2.0, -0.0, 1.0, 0.5), (0.05, 1.5, 0.0, 1.0, 0.25)]
        shared = [(a, b, rows), (c, b, rows), (a, c, rows)]
        distinct = [(a, b, rows), (c, b, list(rows)), (a, c, [*map(tuple, rows)])]
        lines = list(records_to_csv("m", shared))
        assert list(records_to_csv("m", distinct)) == lines
        assert lines[1:] == [csv_line(("m", alpha.text(), beta.text(), *row)) + "\n"
                             for alpha, beta, _ in shared for row in rows]

    def test_each_point_rendered_once(self, monkeypatch):
        # the memo stores a point's text with the comma that ends its field,
        # so the all-zero point (text '') is a hit after its first lookup too
        calls = []

        def counting(counts):
            calls.append(counts)
            return counts_text(counts)

        monkeypatch.setattr(reporting, "counts_text", counting)
        zero, a = MultiIndex((0, 0)), MultiIndex((1, 0))
        rows = [(0.1, 1.0, 1.0, 1.0, 0.0)]
        records = [(alpha, beta, rows)
                   for alpha, beta in ((zero, a), (zero, zero), (a, zero), (zero, a))]
        lines = list(records_to_csv("m", records))
        assert sorted(calls) == [(0, 0), (1, 0)]
        assert lines[1:3] == ["m,,1,0.10000000000000001,1,1,1,0\n",
                              "m,,,0.10000000000000001,1,1,1,0\n"]
        calls.clear()
        rows = [((0, 0), (1, 0), (0, 0), 1.0, 0.5, 1.0, 0.0, 1.0, 1.0)] * 3
        lines = list(triple_rows_to_csv(rows))
        assert sorted(calls) == [(0, 0), (1, 0)]
        assert lines[1:] == [",1,,1,0.5,1,0,1,1\n"] * 3

    def test_numpy_non_finite_floats_write_as_floats(self):
        np = pytest.importorskip("numpy")
        values = [np.float64("nan"), np.float64("inf"), np.float64("-inf")]
        assert [fmt_float(v) for v in values] == ['"nan"', '"inf"', '"-inf"']
        assert json_dumps({"x": values}) == json_dumps({"x": [math.nan, math.inf, -math.inf]})
        a, b = MultiIndex((1, 0)), MultiIndex((0, 2))
        records = [(a, b, [(0.1, *values, np.float64(2.5))])]
        assert list(records_to_csv("m", records))[1] == 'm,1,"2,2",0.10000000000000001,"nan","inf","-inf",2.5\n'
        rows = [((1, 0), (0, 2), (0, 0), *values, np.float64(0.5), 1.0, -0.0)]
        assert list(triple_rows_to_csv(rows))[1] == '1,"2,2",,"nan","inf","-inf",0.5,1,-0\n'

    def test_json_sorted_and_stable(self):
        doc = {"b": [1.0, 0.5], "a": {"y": True, "x": None}}
        text = json_dumps(doc)
        assert text.index('"a"') < text.index('"b"')
        assert json.loads(text) == {"b": [1.0, 0.5], "a": {"y": True, "x": None}}
        assert json_dumps(doc) == text

    def test_shared_dict_renders_like_copies(self):
        # a dict of scalars is rendered once per object and depth: shared
        # under many keys, and at depths 1, 2 and 3, it writes the text of
        # distinct copies, each at its own indentation
        shared = {"target": 0.5, "fitted_c0": None, "pass": True, "b": -0.0}
        doc = {"x": shared, "v": shared, "y": {"z": shared, "w": [shared, 1]},
               "u": {"t": {"s": shared}}}
        copies = json.loads(json.dumps(doc))
        copies["x"]["b"] = copies["v"]["b"] = copies["y"]["z"]["b"] = -0.0
        copies["y"]["w"][0]["b"] = copies["u"]["t"]["s"]["b"] = -0.0
        text = json_dumps(copies)
        assert json_dumps(doc) == text
        assert "".join(json_pieces(doc)) == text
        assert text.count('"b": -0') == 5
        assert '\n      "pass": true' in text and '\n    "pass": true' in text

    def test_report_json_is_written_in_pieces(self, tmp_path, capsys, monkeypatch):
        # the writer is handed the pieces, never one joined text
        written = []

        def write(path, text):
            written.append(text)
            reporting.write_text(path, text)

        monkeypatch.setattr(cli, "write_text", write)
        out_json = tmp_path / "s.json"
        code, _, _ = run(capsys, "verify", "--model", "sphere3", "--max-degree", "2",
                         "--out-json", str(out_json))
        assert code == 0
        assert len(written) == 1 and not isinstance(written[0], str)
        assert out_json.read_text() == json_dumps(json.loads(out_json.read_text()))


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
