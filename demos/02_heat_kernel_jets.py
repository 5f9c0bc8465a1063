"""Normalized heat-kernel jets converging to the pairing constants.

For each model the diagonal jet J(t, alpha, beta) = D_y^beta D_x^alpha
H(t,x,y)|_{x=y} is computed from the exact spectrum, normalized by
(4 pi t)^(n/2) (2t)^floor((|a|+|b|)/2), and compared with A(alpha, beta).
Flat models agree to machine precision at a single small time (their
corrections are exponentially small); spheres show the O(t) approach and a
fitted limit.

Run:  python demos/02_heat_kernel_jets.py
"""
from spectraljet import (
    Circle,
    FlatTorus,
    Sphere,
    from_indices,
    jet_relation_suite,
    normalization_factor,
    time_grid,
    wick_a,
)
from spectraljet.asymptotics import fit_on_smallest

print("=== flat models: one small time suffices ===")
for model, t in ((Circle(1.0), 0.01), (FlatTorus((1.0, 1.3)), 0.01)):
    result = jet_relation_suite(model, 6, ts=(t,))
    # each pair's rows, one per time, shared by the pairs of its jet key
    rows = [row for _, _, key_rows in result.records for row in key_rows]
    worst = max(abs_err for *_, abs_err in rows)
    print(f"{model.label:8s} t={t}: {len(rows)} jets of degree <= 6,"
          f" worst |normalized - A| = {worst:.3e}")

print()
print("=== unit S3: the O(t) approach of a few jets ===")
sphere = Sphere(3, 1.0)
grid = time_grid()
cases = [
    ("<D1 psi, D1 psi>", [1], [1]),
    ("<D11 psi, D11 psi>", [1, 1], [1, 1]),
    ("<D11 psi, D22 psi>", [1, 1], [2, 2]),
    ("<D123 psi, D123 psi>", [1, 2, 3], [1, 2, 3]),
]
header = "  ".join(f"t={t:<9.6g}" for t in grid)
print(f"{'normalized jet':26s}{header}   A      fitted")
for label, ia, ib in cases:
    a, b = from_indices(ia, 3), from_indices(ib, 3)
    samples = []
    for t in grid:
        raw = sphere.diag_jet(t, a, b)
        samples.append((t, normalization_factor(3, t, a, b) * raw))
    fit = fit_on_smallest(samples)
    values = "  ".join(f"{y:<11.6f}" for _, y in samples)
    print(f"{label:26s}{values}{wick_a(a, b).value:+d}   {fit.c0:+.6f}")

print()
print("every angle between jet directions has the same universal limit on")
print("every model; the full verification is `spectraljet verify` or the")
print("acceptance suite (pytest tests/test_acceptance.py).")
