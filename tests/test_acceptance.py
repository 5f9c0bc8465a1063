"""Acceptance gate: the package's numbered verification checklist.

Every deliverable claim gets one test at its stated tolerance; each prints a
single [criterion NN] PASS line once its assertions hold, so
`pytest -s tests/test_acceptance.py` doubles as a checklist.
"""
import json
import math
import time
from fractions import Fraction

import numpy as np

from spectraljet.asymptotics import (
    DEFAULT_GRID,
    curvature_suite,
    isometry_suite,
    jet_relation_suite,
    mean_curvature_suite,
    normalization_factor,
    scalar_suite,
    umbilical_suite,
)
from spectraljet.cli import main as cli_main
from spectraljet.lattice import run_triple_suite
from spectraljet.manifolds import (
    Circle,
    FlatTorus,
    Sphere,
    curvature_symmetry_residuals,
    pullback_metric,
    ricci_scalar_extract,
    squared_distance_jets,
    squared_distance_target,
)
from spectraljet.multiindex import enumerate_multiindices, from_indices
from spectraljet.oracles import enumerate_admissible_graphs, gaussian_moment_oracle
from spectraljet.wick import wick_a, wick_b
from tests.oracles import truncation_stability

MODELS = {
    "circle": Circle(1.0),
    "torus": FlatTorus((1.0, 1.3)),
    "sphere2": Sphere(2, 2.0),
    "sphere3": Sphere(3, 1.0),
}


def mi(indices, n):
    return from_indices(indices, n)


def _pairs(n, max_total):
    basis = enumerate_multiindices(n, max_total)
    for i, a in enumerate(basis):
        for b in basis[i:]:
            if a.degree + b.degree <= max_total:
                yield a, b


def _report(number, text):
    print(f"[criterion {number:02d}] PASS - {text}")


def test_criterion_01_wick_equals_graph_enumeration():
    start = time.time()
    checked = 0
    for n in (1, 2, 3):
        for a, b in _pairs(n, 10):
            w = wick_a(a, b)
            g = enumerate_admissible_graphs(a, b)
            assert g.count == w.magnitude, (a, b)
            if g.count:
                assert g.common_sign == w.sign, (a, b)
            checked += 1
    elapsed = time.time() - start
    assert checked > 4000
    assert elapsed < 60.0
    _report(1, f"closed form == signed matching count on {checked} pairs "
               f"({elapsed:.1f}s)")


def test_criterion_02_wick_vs_gaussian_moments():
    checked = 0
    for n in (1, 2, 3):
        for a, b in _pairs(n, 12):
            exact = wick_a(a, b).value
            oracle = gaussian_moment_oracle(a, b)
            if exact == 0:
                assert oracle == 0.0, (a, b)
            else:
                assert abs(oracle - exact) <= 1e-9 * abs(exact), (a, b)
            checked += 1
    _report(2, f"Gamma-route Gaussian moments match on {checked} pairs at 1e-9")


def test_criterion_03_paper_constants_exact():
    b1 = wick_b(mi([1, 1], 2), mi([2, 2], 2))
    assert (b1.sign, b1.square) == (1, Fraction(1, 9))
    b2 = wick_b(mi([1, 1, 1], 1), mi([1], 1))
    assert (b2.sign, b2.square) == (-1, Fraction(3, 5))
    b3 = wick_b(mi([1, 2, 2], 2), mi([1], 2))
    assert (b3.sign, b3.square) == (-1, Fraction(1, 3))
    a4 = wick_a(mi([1, 1], 1), mi([1, 1], 1))
    assert (a4.sign, a4.magnitude) == (1, 3)
    _report(3, "B = 1/3, -sqrt(3/5), -1/sqrt(3) and A = 3 as exact rationals")


def test_criterion_04_circle_jets_at_desk_scale():
    start = time.time()
    result = jet_relation_suite(MODELS["circle"], 6, ts=(0.01,))
    worst = max(abs_err for _, _, rows in result.records for *_, abs_err in rows)
    assert worst < 1e-6
    elapsed = time.time() - start
    assert elapsed < 30.0
    _report(4, f"circle degree-6 normalized jets, worst |err| = {worst:.2e} "
               f"({elapsed:.1f}s)")


def test_criterion_05_sphere3_fitted_limits():
    start = time.time()
    result = jet_relation_suite(MODELS["sphere3"], 4, ts=DEFAULT_GRID)
    worst_rel = 0.0
    for name, summary in result.summaries.items():
        if not name.startswith("A["):
            continue
        if summary.target == 0.0:
            assert abs(summary.fitted_c0) <= 0.01, name
        else:
            rel = abs(summary.fitted_c0 - summary.target) / abs(summary.target)
            worst_rel = max(worst_rel, rel)
            assert rel <= 0.01, name
    elapsed = time.time() - start
    assert elapsed < 600.0
    _report(5, f"unit S3 degree-4 fitted limits within 1% "
               f"(worst {worst_rel:.2%}, {elapsed:.1f}s)")


def test_criterion_06_isometry():
    sphere = MODELS["sphere3"]
    r = isometry_suite(sphere, ricci_scalar_extract(sphere, DEFAULT_GRID))
    c1 = r.summaries["isometry.c1[1,1]"]
    assert abs(c1.fitted_c1 - 1 / 3) <= 0.05 / 3
    assert r.passed
    gram = pullback_metric(MODELS["torus"], 0.01)
    assert np.max(np.abs(gram - np.eye(2))) < 1e-8
    _report(6, "S3 pullback fits 1 + t/3 (c1 within 5%), torus Gram = I at 1e-8")


def test_criterion_07_scalar_curvature_slope():
    sphere, torus = MODELS["sphere3"], MODELS["torus"]
    r3 = scalar_suite(sphere, ricci_scalar_extract(sphere, DEFAULT_GRID))
    slope = r3.summaries["scalar.slope"]
    assert abs(slope.fitted_c1 - 1.0) <= 0.02
    rt = scalar_suite(torus, ricci_scalar_extract(torus, DEFAULT_GRID))
    assert abs(rt.summaries["scalar.slope"].fitted_c1) <= 1e-6
    _report(7, f"S3 diagonal slope {slope.fitted_c1:.5f} (S/6 = 1), torus slope ~ 0")


def test_criterion_08_mean_curvature_lengths():
    targets = {
        "circle": math.sqrt(3 / 2),
        "torus": 1.0,
        "sphere3": math.sqrt(5 / 6),
    }
    fitted = {}
    for label, target in targets.items():
        r = mean_curvature_suite(MODELS[label], DEFAULT_GRID)
        s = r.summaries["mean_curvature.length"]
        assert abs(s.fitted_c0 - target) <= 0.02 * target, label
        fitted[label] = s.fitted_c0
    _report(8, "sqrt(t)|H| -> " + ", ".join(
        f"{k}={v:.4f}" for k, v in fitted.items()))


def test_criterion_09_umbilical_third_jets():
    for label in ("sphere3", "torus"):
        r = umbilical_suite(MODELS[label], DEFAULT_GRID)
        n = MODELS[label].n
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                for k in range(1, n + 1):
                    s = r.summaries[f"umbilical.jet[{i},{j},{k}]"]
                    if i == j == k:
                        assert abs(s.fitted_c0 + 3.0) <= 0.09, (label, i, j, k)
                    elif i == j:
                        # adjudicates the contested value: -1, not -3
                        assert abs(s.fitted_c0 + 1.0) <= 0.03, (label, i, j, k)
                    else:
                        assert abs(s.fitted_c0) <= 0.05, (label, i, j, k)
    _report(9, "third jets fit -3 / -1 / 0; the i=j!=k value is -1")


def test_criterion_10_curvature_recovery():
    def sectional(label):
        r = curvature_symmetry_residuals(MODELS[label], DEFAULT_GRID)
        return r[0][1][1][0]

    k3 = sectional("sphere3")
    assert abs(k3 - 1.0) <= 0.05
    k2 = sectional("sphere2")
    assert abs(k2 - 0.25) <= 0.05 * 0.25
    torus = curvature_symmetry_residuals(MODELS["torus"], DEFAULT_GRID)
    assert max(abs(x) for a in torus for b in a for c in b for x in c) < 1e-6
    # every independent entry of S3 against the model's exact tensor: the
    # nonzero ones within 5%, the zero ones within 1e-3 of max |R| = 1
    summaries = curvature_suite(MODELS["sphere3"], DEFAULT_GRID).summaries
    assert len(summaries) == 6
    worst_zero = 0.0
    for s in summaries.values():
        assert s.passes
        if s.target == 0.0:
            assert abs(s.observed) <= 1e-3
            worst_zero = max(worst_zero, abs(s.observed))
        else:
            assert abs(s.observed - s.target) <= 0.05 * abs(s.target)
    _report(10, f"sectional: S3 {k3:.4f}, S2(a=2) {k2:.5f}; "
                f"torus |R| < 1e-6; S3 zero entries <= {worst_zero:.1e}")


def test_criterion_11_squared_distance_jets():
    s2 = Sphere(2, 1.0)
    worst = 0.0
    basis = enumerate_multiindices(2, 4)
    for a in basis:
        for b in basis:
            if not 1 <= a.degree + b.degree <= 4:
                continue
            got = squared_distance_jets(s2, a, b)
            want = squared_distance_target(s2, a, b)
            worst = max(worst, abs(got - want))
            assert abs(got - want) < 1e-8, (a, b)
    mixed = squared_distance_jets(s2, mi([1, 1], 2), mi([2, 2], 2))
    assert abs(mixed + 4 / 3) < 1e-8  # -(2/3)(R_1212 + R_1212), R_1212 = 1
    _report(11, f"unit S2 distance jets reproduce the catalog "
                f"(worst |err| = {worst:.2e})")


def test_criterion_12_lattice_suite():
    total = 0
    for n in (1, 2, 3, 4):
        rows, report = run_triple_suite(n=n, max_degree=8, count=2500, seed=42 + n)
        assert report.triangle_violations == 0, n
        assert report.identity_violations == 0, n
        assert report.orthogonality_violations == 0, n
        assert report.comparison_violations == 0, n
        assert report.stabilization_violations == 0, n
        assert report.max_triangle_slack <= 1e-12
        total += report.count
    _report(12, f"{total} random triples: triangle/orthogonality/comparison/"
                f"stabilization all clean")


def test_criterion_13_truncation_stability():
    # the named examples, on raw jet values
    rep = truncation_stability(MODELS["circle"], 0.01, mi([1, 1], 1), mi([1, 1], 1))
    assert rep.delta < 1e-10
    rep = truncation_stability(MODELS["sphere3"], 0.05, mi([1, 1], 3), mi([2, 2], 3))
    assert rep.delta < 1e-9
    rep = truncation_stability(MODELS["circle"], 1.0, mi([1], 1), mi([1], 1))
    assert rep.delta < 1e-14
    # sweep: every reported (normalized) jet moves by < 1e-9 when the chosen
    # cutoff is doubled
    worst = 0.0
    for model in MODELS.values():
        n = model.n
        for a, b in _pairs(n, 4):
            for t in (0.1, DEFAULT_GRID[0]):
                rep = truncation_stability(model, t, a, b)
                delta = normalization_factor(n, t, a, b) * rep.delta
                worst = max(worst, delta)
                assert delta < 1e-9, (model.label, a, b, t)
    _report(13, f"doubling any chosen cutoff moves normalized jets by "
                f"<= {worst:.2e}")


def test_criterion_14_determinism(tmp_path):
    blobs = []
    for tag in ("a", "b"):
        csv_v = tmp_path / f"v_{tag}.csv"
        json_v = tmp_path / f"v_{tag}.json"
        code = cli_main([
            "verify", "--model", "sphere3", "--max-degree", "2",
            "--t-grid", "0.1:0.5:5", "--out", str(csv_v), "--out-json", str(json_v),
        ])
        assert code == 0
        csv_l = tmp_path / f"l_{tag}.csv"
        json_l = tmp_path / f"l_{tag}.json"
        code = cli_main([
            "lattice", "sample", "--n", "3", "--max-degree", "6",
            "--count", "500", "--seed", "42",
            "--out", str(csv_l), "--out-json", str(json_l),
        ])
        assert code == 0
        blobs.append((csv_v.read_bytes(), json_v.read_bytes(),
                      csv_l.read_bytes(), json_l.read_bytes()))
    assert blobs[0] == blobs[1]
    doc = json.loads(blobs[0][1])
    assert doc["config"]["seed"] == 42
    _report(14, "identical config + seed gives byte-identical CSV/JSON")
