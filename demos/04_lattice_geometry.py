"""The angle metric d(alpha, beta) = arccos B(alpha, beta) on Z_+^n.

The limiting jet angles turn the multi-index lattice into a metric space:
adjacent points are orthogonal, the lattice splits into 2^n mutually
orthogonal parity cosets, |cos d| is controlled by the normalized multiset
difference, and shifting both points along an axis drives them toward
collinearity.

Run:  python demos/04_lattice_geometry.py
"""
import math

from spectraljet import (
    angle_distance,
    b_stabilization_scan,
    distance_comparison_check,
    enumerate_multiindices,
    from_indices,
    run_triple_suite,
)

print("=== a few distances (n = 2) ===")
for ia, ib in (([1, 1], [2, 2]), ([1], [2]), ([1, 2], [1, 2]),
               ([1, 1], [1, 1, 2, 2]), ([1, 1, 1], [1])):
    a, b = from_indices(ia, 2), from_indices(ib, 2)
    d = angle_distance(a, b)
    print(f"d({a.text() or 'empty':10s}, {b.text() or 'empty':10s})"
          f" = {d.radians:.6f} rad   (cos = {d.exact_cos.value:+.6f})")
print(f"arccos(1/3) = {math.acos(1/3):.6f}: second jets along different axes")

print()
print("=== parity cosets ===")
points = enumerate_multiindices(2, 2)
for coset in sorted({m.parity() for m in points}):
    members = [m.text() or "empty" for m in points if m.parity() == coset]
    print(f"coset {coset}: {', '.join(members)}")
print("points in different cosets sit at right angles; 2^n cosets in all")

print()
print("=== distance comparison |cos d| <= 1 - delta d0/(|a|+|b|) ===")
for ia, ib in (([1, 1], [2, 2]), ([1, 1, 1, 1], [1, 1]), ([1, 2, 2], [1])):
    a, b = from_indices(ia, 2), from_indices(ib, 2)
    chk = distance_comparison_check(a, b)
    print(f"pair ({a.text()}, {b.text()}): lhs = {chk.lhs:.4f}"
          f" <= rhs = {chk.rhs:.4f}  [{'OK' if chk.holds else 'VIOLATED'}]")

print()
print("=== metric axioms on random triples ===")
_, suite = run_triple_suite(n=3, max_degree=8, count=4000, seed=42)
print(f"{suite.count} triples: {suite.triangle_violations} triangle"
      f" violations, max slack {suite.max_triangle_slack:+.2e}"
      f" (worst triple {suite.worst_triple})")
print(f"comparison inequality margin on the sample:"
      f" min (1-|cos d|)(|a|+|b|)/d0 = {suite.min_comparison_margin:.4f}"
      f"  (tested delta = 0.25)")

print()
print("=== stabilization along an axis ===")
a, b = from_indices([1, 1], 2), from_indices([2, 2], 2)
scan = b_stabilization_scan(a, b, 1, 10)
angles = "  ".join(f"{math.acos(c.value):.4f}" for c in scan.diagonal)
print(f"d(a + k e_1, b + k e_1): {angles}")
print(f"limit {math.acos(scan.diagonal_limit.value):.6f} rad; one-sided shifts"
      f" instead tend to pi/2 = {math.acos(scan.one_sided_limit.value):.6f}")
