import math
import os
import random
import signal
import subprocess
import sys
from pathlib import Path
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


@pytest.fixture
def deadline():
    """Fail a test that is still running after 60 s instead of letting it
    hang, for instance on a pipe that no worker will ever close."""

    def expire(signum, frame):
        raise TimeoutError("test still running after 60 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, 60)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="the suite forks workers")
class TestRangeSplit:
    """The suite splits its triples into one index range per CPU, and runs
    every range but the last in a forked worker."""

    # 3001 is divisible by none of 2 and 3, and in the dense 165-point ball
    # of n = 3, max_degree = 8 the largest slack, 0.0, is tied in every range
    COUNT = 3001

    @staticmethod
    def force_ranges(monkeypatch, ranges):
        monkeypatch.setattr(lattice, "_cpu_count", lambda: ranges)
        assert len(lattice._range_bounds(TestRangeSplit.COUNT)) == ranges + 1

    def test_results_do_not_depend_on_range_count(self, monkeypatch, deadline):
        results = {}
        for ranges in (1, 2, 3):
            self.force_ranges(monkeypatch, ranges)
            results[ranges] = run_triple_suite(3, 8, self.COUNT, 42)
            assert_no_child_left()
        rows, report = results[1]
        assert len(rows) == self.COUNT
        assert all(type(r) is lattice.TripleRow for r in rows)
        assert results[2] == results[1]
        assert results[3] == results[1]
        for ranges in (2, 3):
            assert all(type(r) is lattice.TripleRow for r in results[ranges][0])
            assert type(results[ranges][1].worst_triple) is tuple
        # the earliest of the tied largest slacks names the worst triple
        bounds = lattice._range_bounds(self.COUNT)
        ties = [i for i, r in enumerate(rows)
                if r.triangle_slack == report.max_triangle_slack]
        assert all(any(lo <= i < hi for i in ties)
                   for lo, hi in zip(bounds, bounds[1:]))
        first = rows[ties[0]]
        assert report.worst_triple == tuple(
            MultiIndex(p).text() for p in (first.alpha, first.beta, first.gamma)
        )

    def test_render_runs_per_range(self, monkeypatch, deadline):
        self.force_ranges(monkeypatch, 3)
        parent = os.getpid()
        renders, report = run_triple_suite(
            3, 8, self.COUNT, 42,
            render=lambda rows: (len(list(rows)), os.getpid() == parent),
        )
        assert_no_child_left()
        assert renders == [(1000, False), (1000, False), (1001, True)]
        assert report == run_triple_suite(3, 8, self.COUNT, 42)[1]

    def test_rows_left_unread_are_checked(self, monkeypatch, deadline):
        # delta = 1 fails the comparison on triples of every range; a render
        # that reads no row must still see them counted, and summed
        monkeypatch.setattr(lattice, "COMPARISON_DELTA", Fraction(1))
        self.force_ranges(monkeypatch, 1)
        rows, expected = run_triple_suite(3, 8, self.COUNT, 42)
        self.force_ranges(monkeypatch, 3)
        bounds = lattice._range_bounds(self.COUNT)
        assert all(
            any(r.comparison_lhs > r.comparison_rhs for r in rows[lo:hi])
            for lo, hi in zip(bounds, bounds[1:])
        )
        _, report = run_triple_suite(3, 8, self.COUNT, 42, render=lambda rows: None)
        assert_no_child_left()
        assert report == expected

    def test_failing_range_raises_and_reaps(self, monkeypatch, deadline):
        triple_range = lattice._triple_range

        def failing(n, df, sample, seed, tol, lo, hi, render):
            if lo > 0:
                raise ValueError("range failed")
            return triple_range(n, df, sample, seed, tol, lo, hi, render)

        monkeypatch.setattr(lattice, "_triple_range", failing)
        for ranges in (2, 3):
            self.force_ranges(monkeypatch, ranges)
            with pytest.raises(ValueError, match="range failed"):
                run_triple_suite(3, 8, self.COUNT, 42)
            assert_no_child_left()

    def test_failing_worker_is_named(self, monkeypatch, deadline):
        triple_range = lattice._triple_range
        parent = os.getpid()

        def failing(n, df, sample, seed, tol, lo, hi, render):
            if lo > 0 and os.getpid() != parent:
                raise ValueError("worker failed")
            return triple_range(n, df, sample, seed, tol, lo, hi, render)

        monkeypatch.setattr(lattice, "_triple_range", failing)
        self.force_ranges(monkeypatch, 3)
        with pytest.raises(
            RuntimeError,
            match=r"worker for triples 1000\.\.1999 failed: ValueError: worker failed",
        ):
            run_triple_suite(3, 8, self.COUNT, 42)
        assert_no_child_left()

    def test_dead_worker_is_reported(self, monkeypatch, deadline):
        triple_range = lattice._triple_range
        parent = os.getpid()

        def dying(n, df, sample, seed, tol, lo, hi, render):
            if os.getpid() != parent:
                os._exit(3)
            return triple_range(n, df, sample, seed, tol, lo, hi, render)

        monkeypatch.setattr(lattice, "_triple_range", dying)
        self.force_ranges(monkeypatch, 2)
        with pytest.raises(RuntimeError,
                           match=r"worker for triples 0\.\.1499 exited with status 3"):
            run_triple_suite(3, 8, self.COUNT, 42)
        assert_no_child_left()

    def test_worker_flushes_no_inherited_buffer(self):
        # stdout to a pipe is block-buffered, so "before" is still in the
        # buffer when the worker is forked
        code = (
            "import sys\n"
            "from spectraljet import lattice\n"
            "lattice._cpu_count = lambda: 2\n"
            "print('before', end='')\n"
            "lattice.run_triple_suite(3, 8, 3001, 42)\n"
            "print('after')\n"
        )
        src = Path(__file__).resolve().parents[1] / "src"
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            env={**env, "PYTHONPATH": str(src)}, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert (proc.stdout, proc.stderr) == ("beforeafter\n", "")

    @pytest.mark.parametrize("missing", ["fork", "sched_getaffinity"])
    def test_one_range_without_fork_or_affinity(self, monkeypatch, missing):
        monkeypatch.setattr(lattice, "_cpu_count", lambda: 4)
        assert lattice._range_bounds(4500) == [0, 1125, 2250, 3375, 4500]
        monkeypatch.delattr(os, missing)
        assert lattice._range_bounds(4500) == [0, 4500]

    @pytest.mark.parametrize("count, bounds", [
        (1, [0, 1]),
        (1999, [0, 1999]),
        (2000, [0, 1000, 2000]),
        (5001, [0, 1250, 2500, 3750, 5001]),
    ])
    def test_ranges_keep_the_minimum_size(self, monkeypatch, count, bounds):
        monkeypatch.setattr(lattice, "_cpu_count", lambda: 4)
        assert lattice.MIN_RANGE == 1000
        assert lattice._range_bounds(count) == bounds


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
