"""Reading geometry out of the embedding jets.

The normalized embedding is asymptotically isometric; its finite-t defects
carry curvature.  This script recovers, from heat-kernel jets alone:

  * the pullback metric 1 + t/3 (S/2 - Ric) and from it Ricci,
  * the scalar curvature from the on-diagonal expansion slope,
  * the universal mean-curvature length sqrt((n+2)/(2n)),
  * the umbilical third-jet limits -3 / -1 / 0,
  * the full Riemann tensor via differences of second-jet inner products,
    each independent entry against the model's exact ``riemann``, in the
    convention R(i,j,j,i) = K.

Run:  python demos/03_curvature_recovery.py
"""
from itertools import combinations, combinations_with_replacement

from spectraljet import (
    FlatTorus,
    Sphere,
    curvature_symmetry_residuals,
    mean_curvature_suite,
    ricci_scalar_extract,
    scalar_suite,
    third_jet_umbilical,
    time_grid,
)

GRID = time_grid()


def print_matrix(rows):
    """One bracketed line per row, to 4 decimals; a rounded -0 prints as 0."""
    for row in rows:
        print("  [" + "  ".join(f"{round(x, 4) or 0.0:7.4f}" for x in row) + "]")


print("=== scalar curvature from the diagonal slope (target S/6) ===")
for model in (FlatTorus((1.0, 1.3)), Sphere(2, 2.0), Sphere(3, 1.0)):
    fit = scalar_suite(model, GRID).summaries["scalar.slope"]
    print(f"{model.label:8s} slope = {fit.fitted_c1:+.6f}"
          f"   target = {fit.target:+.6f}   (S = {float(model.scalar()):g})")

print()
print("=== pullback metric and Ricci on unit S3 ===")
report = ricci_scalar_extract(Sphere(3, 1.0), GRID)
print(f"scalar estimate  : {report.scalar_estimate:.4f}   (target 6)")
print("pullback t-slope :")
print_matrix(report.pullback_c1)
print("Ricci estimate   :")
print_matrix(report.ricci_estimate)

print()
print("=== mean curvature length sqrt((n+2)/2n) ===")
for model in (FlatTorus((1.0, 1.3)), Sphere(3, 1.0)):
    s = mean_curvature_suite(model, GRID).summaries["mean_curvature.length"]
    print(f"{model.label:8s} fitted {s.fitted_c0:.5f}   target {s.target:.5f}")

print()
print("=== umbilical third jets on unit S3 (2t <D_i D_k D_k psi, D_j psi>) ===")
sphere = Sphere(3, 1.0)
t = 0.005
for (i, j, k), label in (((1, 1, 1), "i=j=k"), ((1, 1, 2), "i=j!=k"),
                         ((1, 2, 1), "i!=j ")):
    print(f"  {label}: {third_jet_umbilical(sphere, t, i, j, k):+.4f}"
          f"   (limits -3 / -1 / 0)")

print()
print("=== Riemann tensor from the asymptotic Gauss formula ===")
for model in (Sphere(3, 1.0), Sphere(2, 2.0), FlatTorus((1.0, 1.3))):
    r = curvature_symmetry_residuals(model, GRID)
    planes = combinations(range(model.n), 2)
    for (i, j), (k, l) in combinations_with_replacement(planes, 2):
        target = float(model.riemann(i, j, k, l))
        print(f"{model.label:8s} R({i + 1},{j + 1},{k + 1},{l + 1}) = "
              f"{r[i][j][k][l]:+.6f}   target {target:+.4f}")
