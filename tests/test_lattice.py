import math
import random
from fractions import Fraction
from itertools import accumulate

import pytest

from spectraljet.lattice import (
    angle_distance,
    coset_of,
    distance_comparison_check,
    is_orthogonal,
    run_triple_suite,
    sample_multiindex,
    stabilization_scan,
)
from spectraljet import lattice
from spectraljet.lattice import _counts_sampler, _task_rng, _task_seed
from spectraljet.multiindex import (
    MultiIndex,
    empty,
    enumerate_multiindices,
    from_indices,
)
from spectraljet.wick import wick_b


def mi(indices, n):
    return from_indices(indices, n)


class TestAngleDistance:
    def test_arccos_one_third(self):
        d = angle_distance(mi([1, 1], 2), mi([2, 2], 2))
        assert abs(d.radians - 1.2309594173407747) < 1e-12
        assert d.exact_cos.square == Fraction(1, 9)

    def test_zero_iff_equal(self):
        a = mi([1, 2, 2], 2)
        assert angle_distance(a, a).radians == 0.0

    def test_adjacent_points_are_orthogonal(self):
        a = mi([1, 2], 2)
        b = a.add(1)
        d = angle_distance(a, b)
        assert abs(d.radians - math.pi / 2) < 1e-15
        assert is_orthogonal(a, b)

    def test_range(self):
        basis = enumerate_multiindices(2, 5)
        for a in basis:
            for b in basis:
                r = angle_distance(a, b).radians
                assert 0.0 <= r < math.pi


class TestOrthogonalityAndCosets:
    def test_same_coset_not_orthogonal(self):
        a = mi([1, 1, 2], 2)
        b = mi([2], 2)
        assert coset_of(a) == (0, 1) == coset_of(b)
        assert not is_orthogonal(a, b)

    def test_odd_pair_orthogonal(self):
        assert is_orthogonal(mi([1], 2), mi([2], 2))

    def test_coset_count(self):
        for n in (1, 2, 3):
            cosets = {coset_of(m) for m in enumerate_multiindices(n, 3)}
            assert len(cosets) == 2**n

    def test_orthogonality_iff_different_coset(self):
        basis = enumerate_multiindices(2, 4)
        for a in basis:
            for b in basis:
                assert is_orthogonal(a, b) == (coset_of(a) != coset_of(b))
                # pi/2 iff B = 0, on the exact representation
                assert is_orthogonal(a, b) == (wick_b(a, b).sign == 0)


class TestDistanceComparison:
    def test_worked_example(self):
        chk = distance_comparison_check(mi([1, 1], 2), mi([2, 2], 2))
        assert abs(chk.lhs - 1 / 3) < 1e-15
        assert abs(chk.rhs - 0.75) < 1e-15
        assert chk.holds

    def test_equal_pair_boundary(self):
        a = mi([1, 2], 2)
        chk = distance_comparison_check(a, a)
        assert chk.lhs == 1.0
        assert chk.rhs == 1.0
        assert chk.holds

    def test_orthogonal_pair(self):
        chk = distance_comparison_check(mi([1], 2), mi([2], 2))
        assert chk.lhs == 0.0
        assert chk.holds

    def test_empty_pair_rejected(self):
        with pytest.raises(ValueError):
            distance_comparison_check(empty(2), empty(2))

    def test_exhaustive_small(self):
        basis = enumerate_multiindices(2, 6)
        worst = math.inf
        for a in basis:
            for b in basis:
                if a.degree + b.degree == 0:
                    continue
                chk = distance_comparison_check(a, b)
                assert chk.holds, (a, b)
                if a != b:
                    from spectraljet.multiindex import symmetric_difference_size

                    d0 = symmetric_difference_size(a, b)
                    if d0:
                        worst = min(
                            worst, (1 - chk.lhs) * (a.degree + b.degree) / d0
                        )
        # empirical margin: the sampled constant stays well above 1/4
        assert worst > 0.42


class TestComparisonMarginExact:
    def test_single_index_grid(self):
        # exact margin (1 - |B|)(|a|+|b|)/d0 over a large single-index grid;
        # the infimum 1 - 1/sqrt(3) sits at (a, b) = (2, 0)
        worst = None
        worst_pair = None
        for a in range(0, 41):
            for b in range(a % 2, 41, 2):  # even totals only
                if a == b:
                    continue
                alpha = MultiIndex((a,))
                beta = MultiIndex((b,))
                if a + b == 0:
                    continue
                chk = distance_comparison_check(alpha, beta)
                assert chk.holds, (a, b)
                d0 = abs(a - b)
                margin = (1 - chk.lhs) * (a + b) / d0
                if worst is None or margin < worst:
                    worst, worst_pair = margin, (a, b)
        assert worst_pair in ((2, 0), (0, 2))
        assert abs(worst - (1 - 1 / math.sqrt(3))) < 1e-12
        assert worst > 0.25


class TestStabilizationScan:
    def test_diagonal_limit_and_monotonicity(self):
        scan = stabilization_scan(mi([1, 1], 2), mi([2, 2], 2), 1, 30)
        assert scan.monotone_ok
        # limit keeps the sign of the starting cosine: arccos(+1/sqrt 3)
        assert abs(scan.diagonal_limit - math.acos(1 / math.sqrt(3))) < 1e-12
        # the stabilized pair itself sits at arccos(-1/sqrt 3)
        assert abs(
            scan.stabilized_pair.radians - math.acos(-1 / math.sqrt(3))
        ) < 1e-12
        assert abs(scan.diagonal[-1].radians - scan.diagonal_limit) < 0.02

    def test_equal_pair_constant_zero(self):
        a = mi([1, 2], 2)
        scan = stabilization_scan(a, a, 2, 5)
        assert all(d.radians == 0.0 for d in scan.diagonal)
        assert scan.diagonal_limit == 0.0

    def test_one_sided_limit_is_right_angle(self):
        scan = stabilization_scan(mi([1, 1], 2), mi([2, 2], 2), 1, 50)
        assert scan.one_sided_limit == math.pi / 2
        assert abs(scan.one_sided[-1].radians - math.pi / 2) < 0.02

    def test_per_step_distance_from_right_angle_grows(self):
        scan = stabilization_scan(mi([1], 2), mi([1, 2, 2], 2), 2, 20)
        gaps = [abs(d.radians - math.pi / 2) for d in scan.diagonal]
        assert all(g1 >= g0 - 1e-15 for g0, g1 in zip(gaps, gaps[1:]))


class TestMetricAxioms:
    def test_small_run_clean(self):
        _, report = run_triple_suite(2, 6, 1500, 42)
        assert report.passed()
        assert report.max_triangle_slack <= 1e-12

    def test_degenerate_triples(self):
        a = mi([1, 1, 2], 2)
        d = angle_distance(a, a).radians
        assert d == 0.0
        b = mi([2, 2], 2)
        d_ab = angle_distance(a, b).radians
        assert d_ab <= d_ab + angle_distance(b, b).radians + 1e-15


class TestSampling:
    def test_uniform_over_ball(self):
        rng = _task_rng(7, 0)
        n, d = 2, 3
        counts = {}
        for _ in range(6000):
            m = sample_multiindex(rng, n, d)
            assert m.degree <= d
            counts[m.counts] = counts.get(m.counts, 0) + 1
        support = len(counts)
        assert support == math.comb(d + n, n)
        # uniform: each of the 10 points should get ~600 hits
        assert min(counts.values()) > 400

    def test_deterministic_given_seed(self):
        rows1, rep1 = run_triple_suite(2, 6, 50, 123)
        rows2, rep2 = run_triple_suite(2, 6, 50, 123)
        assert rep1 == rep2
        assert [(r.alpha, r.beta, r.gamma) for r in rows1] == [
            (r.alpha, r.beta, r.gamma) for r in rows2
        ]

    def test_triple_suite_small(self):
        rows, report = run_triple_suite(3, 6, 400, 7)
        assert report.passed()
        assert len(rows) == 400
        for r in rows[:25]:
            assert r.triangle_slack <= 1e-12
            assert r.comparison_lhs <= r.comparison_rhs + 1e-15


class TestSamplerStream:
    """The suite's sampler and its one reseeded RNG draw the stream of a
    fresh ``random.Random`` per task sampled through ``choices`` and
    ``sample``."""

    @staticmethod
    def reference_sample(rng, n, max_degree):
        cum_weights = list(accumulate(
            math.comb(d + n - 1, n - 1) for d in range(max_degree + 1)
        ))
        d = rng.choices(range(max_degree + 1), cum_weights=cum_weights, k=1)[0]
        bars = sorted(rng.sample(range(d + n - 1), n - 1))
        return tuple(
            hi - lo - 1 for lo, hi in zip([-1] + bars, bars + [d + n - 1])
        )

    # (2, 40) and (8, 200) draw bars from ranges longer than sample's setsize
    # (21 and 85), so they take its set branch; the others take the pool.
    @pytest.mark.parametrize("n, max_degree", [
        (1, 12), (3, 8), (8, 40), (4, 0), (2, 40), (8, 200),
    ])
    def test_matches_choices_reference(self, n, max_degree):
        sample = _counts_sampler(n, max_degree)
        rng = random.Random()
        for seed in range(500):
            ref = _task_rng(seed, 0)
            rng.seed(_task_seed(seed, 0))
            for _ in range(3):
                assert sample(rng) == self.reference_sample(ref, n, max_degree)
            assert rng.random() == ref.random()

    def test_reseeding_equals_fresh_rng(self):
        rng = random.Random()
        for seed in range(500):
            for i in (0, 1, 9999):
                rng.seed(_task_seed(seed, i))
                assert rng.getstate() == _task_rng(seed, i).getstate()


class TestTripleSuiteExactDecisions:
    """The integer suite against the Fraction route it replaced, row by row."""

    # delta = 1 lies beyond the sampled comparison margin (about 0.42) at
    # n = 3 and n = 1, so there the decisions compared include failures.
    @pytest.mark.parametrize("n, max_degree, delta", [
        (3, 8, Fraction(1, 4)),
        (8, 40, Fraction(1, 4)),
        (1, 12, Fraction(1, 4)),
        (3, 8, Fraction(1)),
        (1, 12, Fraction(1)),
    ])
    def test_agrees_with_fraction_route(self, monkeypatch, n, max_degree, delta):
        monkeypatch.setattr(lattice, "COMPARISON_DELTA", delta)
        rows, report = run_triple_suite(n, max_degree, 2000, 11)
        comparison_failures = stabilization_failures = 0
        for r in rows:
            a, b, c = MultiIndex(r.alpha), MultiIndex(r.beta), MultiIndex(r.gamma)
            assert r.d_ab == angle_distance(a, b).radians
            assert r.d_bc == angle_distance(b, c).radians
            assert r.d_ac == angle_distance(a, c).radians
            if a.degree + b.degree >= 1:
                check = distance_comparison_check(a, b, delta)
                assert (r.comparison_lhs, r.comparison_rhs) == (check.lhs, check.rhs)
                comparison_failures += not check.holds
            square = wick_b(a, b).square
            stabilization_failures += any(
                wick_b(a.add(j), b.add(j)).square < square for j in range(1, n + 1)
            )
        assert report.comparison_violations == comparison_failures
        assert report.stabilization_violations == stabilization_failures
        if delta == 1:
            assert comparison_failures > 0
