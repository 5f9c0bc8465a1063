import math
import os
import random
import signal
import subprocess
import sys
import tracemalloc
from collections import namedtuple
from functools import partial
from pathlib import Path
from fractions import Fraction
from itertools import accumulate, chain

import pytest

from spectraljet.lattice import (
    angle_distance,
    distance_comparison_check,
    is_orthogonal,
    run_triple_suite,
    sample_multiindex,
)
from spectraljet import _triples, lattice, reporting
from spectraljet._triples import _counts_sampler, _task_seed
from spectraljet.multiindex import (
    MultiIndex,
    counts_text,
    empty,
    enumerate_multiindices,
    from_indices,
)
from spectraljet.reporting import (
    LATTICE_CSV_HEADER,
    triple_csv_chunk,
    triple_rows_to_csv,
)
from spectraljet.wick import wick_b


def mi(indices, n):
    return from_indices(indices, n)


#: A row of the suite, named by the CSV columns it is written to.
Row = namedtuple("Row", LATTICE_CSV_HEADER)


def suite_rows(*args):
    """The suite's rows in index order, read through ``render=list``, and
    its report."""
    outs, report = run_triple_suite(*args, render=list)
    return [Row._make(row) for out in outs for row in out], report


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
        assert a.parity() == (0, 1) == b.parity()
        assert not is_orthogonal(a, b)

    def test_odd_pair_orthogonal(self):
        assert is_orthogonal(mi([1], 2), mi([2], 2))

    def test_coset_count(self):
        for n in (1, 2, 3):
            cosets = {m.parity() for m in enumerate_multiindices(n, 3)}
            assert len(cosets) == 2**n

    def test_orthogonality_iff_different_coset(self):
        basis = enumerate_multiindices(2, 4)
        for a in basis:
            for b in basis:
                assert is_orthogonal(a, b) == (a.parity() != b.parity())
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
    def test_per_step_distance_from_right_angle_grows(self):
        a, b = mi([1], 2), mi([1, 2, 2], 2)
        diagonal = [angle_distance(a.add(2, k), b.add(2, k)) for k in range(21)]
        gaps = [abs(d.radians - math.pi / 2) for d in diagonal]
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
        rng = random.Random(_task_seed(7, 0))
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
        rows1, rep1 = suite_rows(2, 6, 50, 123)
        rows2, rep2 = suite_rows(2, 6, 50, 123)
        assert rep1 == rep2
        assert [(r.alpha, r.beta, r.gamma) for r in rows1] == [
            (r.alpha, r.beta, r.gamma) for r in rows2
        ]

    def test_triple_suite_small(self):
        rows, report = suite_rows(3, 6, 400, 7)
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
        monkeypatch.setattr(_triples, "_cpu_count", lambda: ranges)
        assert len(_triples._range_bounds(TestRangeSplit.COUNT)) == ranges + 1

    def test_results_do_not_depend_on_range_count(self, monkeypatch, deadline):
        results = {}
        for ranges in (1, 2, 3):
            self.force_ranges(monkeypatch, ranges)
            outs, report = run_triple_suite(3, 8, self.COUNT, 42, render=list)
            results[ranges] = [row for out in outs for row in out], report
            assert_no_child_left()
        rows, report = results[1]
        assert len(rows) == self.COUNT
        assert all(type(r) is tuple for r in rows)
        assert results[2] == results[1]
        assert results[3] == results[1]
        for ranges in (2, 3):
            assert all(type(r) is tuple for r in results[ranges][0])
            assert type(results[ranges][1].worst_triple) is tuple
        # the earliest of the tied largest slacks names the worst triple
        bounds = _triples._range_bounds(self.COUNT)
        rows = [Row._make(r) for r in rows]
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

    # each range renders its lines with memos of its own, so a point or float
    # first met in one range is rendered again in the next; as in the CLI,
    # the dense ball keeps its point texts and the sparse one does not
    @pytest.mark.parametrize("n, max_degree", [(3, 8), (8, 40)])
    def test_csv_does_not_depend_on_range_count(self, monkeypatch, deadline,
                                                n, max_degree):
        self.force_ranges(monkeypatch, 1)
        rows, _ = suite_rows(n, max_degree, self.COUNT, 42)
        expected = "".join(triple_rows_to_csv(rows))
        recur = lattice.points_recur(n, max_degree, self.COUNT)
        assert recur is (n == 3)
        render = partial(triple_csv_chunk, points_recur=recur)
        for ranges in (1, 3):
            self.force_ranges(monkeypatch, ranges)
            chunks, _ = run_triple_suite(n, max_degree, self.COUNT, 42,
                                         render=render)
            assert_no_child_left()
            assert len(chunks) == ranges
            assert LATTICE_CSV_HEADER + "\n" + "".join(chain(*chunks)) == expected

    def test_rows_left_unread_are_checked(self, monkeypatch, deadline):
        # delta = 1 fails the comparison on triples of every range; a render
        # that reads no row must still see them counted, and summed
        monkeypatch.setattr(_triples, "COMPARISON_DELTA", (1, 1))
        self.force_ranges(monkeypatch, 1)
        rows, expected = suite_rows(3, 8, self.COUNT, 42)
        self.force_ranges(monkeypatch, 3)
        bounds = _triples._range_bounds(self.COUNT)
        assert all(
            any(r.comparison_lhs > r.comparison_rhs for r in rows[lo:hi])
            for lo, hi in zip(bounds, bounds[1:])
        )
        _, report = run_triple_suite(3, 8, self.COUNT, 42, render=lambda rows: None)
        assert_no_child_left()
        assert report == expected

    # render=None checks every row and keeps none, on a forked run and on
    # a single range alike
    @pytest.mark.parametrize("ranges", [1, 2])
    def test_no_render_keeps_no_rows(self, monkeypatch, deadline, ranges):
        assert self.COUNT >= 2 * _triples.MIN_RANGE
        self.force_ranges(monkeypatch, ranges)
        kept, report = run_triple_suite(3, 8, self.COUNT, 42)
        assert_no_child_left()
        assert kept == [None] * ranges
        assert report == run_triple_suite(3, 8, self.COUNT, 42, render=list)[1]

    def test_failing_range_raises_and_reaps(self, monkeypatch, deadline):
        triple_range = _triples._triple_range

        def failing(n, df, sample, seed, tol, lo, hi, render):
            if lo > 0:
                raise ValueError("range failed")
            return triple_range(n, df, sample, seed, tol, lo, hi, render)

        monkeypatch.setattr(_triples, "_triple_range", failing)
        for ranges in (2, 3):
            self.force_ranges(monkeypatch, ranges)
            with pytest.raises(ValueError, match="range failed"):
                run_triple_suite(3, 8, self.COUNT, 42)
            assert_no_child_left()

    def test_failing_worker_is_named(self, monkeypatch, deadline):
        triple_range = _triples._triple_range
        parent = os.getpid()

        def failing(n, df, sample, seed, tol, lo, hi, render):
            if lo > 0 and os.getpid() != parent:
                raise ValueError("worker failed")
            return triple_range(n, df, sample, seed, tol, lo, hi, render)

        monkeypatch.setattr(_triples, "_triple_range", failing)
        self.force_ranges(monkeypatch, 3)
        with pytest.raises(
            RuntimeError,
            match=r"worker for triples 1000\.\.1999 failed: ValueError: worker failed",
        ):
            run_triple_suite(3, 8, self.COUNT, 42)
        assert_no_child_left()

    def test_dead_worker_is_reported(self, monkeypatch, deadline):
        triple_range = _triples._triple_range
        parent = os.getpid()

        def dying(n, df, sample, seed, tol, lo, hi, render):
            if os.getpid() != parent:
                os._exit(3)
            return triple_range(n, df, sample, seed, tol, lo, hi, render)

        monkeypatch.setattr(_triples, "_triple_range", dying)
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
            "from spectraljet import _triples, lattice\n"
            "_triples._cpu_count = lambda: 2\n"
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
        monkeypatch.setattr(_triples, "_cpu_count", lambda: 4)
        assert _triples._range_bounds(4500) == [0, 1100, 2300, 3400, 4500]
        monkeypatch.delattr(os, missing)
        assert _triples._range_bounds(4500) == [0, 4500]

    # interior bounds are the block boundaries nearest the balanced split
    # (1250.25 -> 1300, 3750.75 -> 3800); 3090 in three ranges splits at
    # 1030 -> 1000 and 2060 -> 2100, which leaves its last range 10 short
    @pytest.mark.parametrize("count, bounds", [
        (1, [0, 1]),
        (1999, [0, 1999]),
        (2000, [0, 1000, 2000]),
        (5001, [0, 1300, 2500, 3800, 5001]),
        (3090, [0, 1000, 2100, 3090]),
    ])
    def test_ranges_keep_the_minimum_size(self, monkeypatch, count, bounds):
        monkeypatch.setattr(_triples, "_cpu_count", lambda: 4)
        assert (_triples.MIN_RANGE, _triples.TRIPLE_BLOCK) == (1000, 100)
        assert _triples._range_bounds(count) == bounds

    @pytest.mark.parametrize("count", [10000, 5000])
    def test_two_cpus_split_in_half(self, monkeypatch, count):
        monkeypatch.setattr(_triples, "_cpu_count", lambda: 2)
        assert _triples._range_bounds(count) == [0, count // 2, count]

    def test_bounds_lie_on_block_boundaries(self, monkeypatch):
        block = _triples.TRIPLE_BLOCK
        for cpus in range(1, 9):
            monkeypatch.setattr(_triples, "_cpu_count", lambda: cpus)
            for count in range(1, 20000, 37):
                bounds = _triples._range_bounds(count)
                ranges = len(bounds) - 1
                assert ranges == max(1, min(cpus, count // _triples.MIN_RANGE))
                assert bounds[0] == 0 and bounds[-1] == count
                for k, bound in enumerate(bounds[1:-1], 1):
                    assert bound % block == 0
                    assert abs(bound - count * k / ranges) <= block / 2
                if ranges > 1:
                    assert min(hi - lo for lo, hi in zip(bounds, bounds[1:])) >= (
                        _triples.MIN_RANGE - block // 2
                    )


class TestTripleCsvMemory:
    """A range's CSV keeps one text per distinct point only where points
    recur; otherwise its memory does not grow with the points it renders."""

    @staticmethod
    def count_renders(monkeypatch):
        calls = []

        def counting(counts):
            calls.append(counts)
            return counts_text(counts)

        monkeypatch.setattr(reporting, "counts_text", counting)
        return calls

    def test_sparse_points_are_not_kept(self, monkeypatch):
        # n = 8, degree 40: almost all of the 15000 points are distinct, and
        # keeping their texts took 2.5 MB beyond the text returned
        rows, _ = suite_rows(8, 40, 5000, 42)
        expected = "".join(list(triple_rows_to_csv(rows))[1:])
        tracemalloc.start()
        try:
            blocks = triple_csv_chunk(rows)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert "".join(blocks) == expected
        assert peak - sum(map(sys.getsizeof, blocks)) < 0.5e6
        calls = self.count_renders(monkeypatch)
        triple_csv_chunk(rows)
        assert len(calls) == 3 * len(rows)

    def test_dense_points_are_rendered_once(self, monkeypatch):
        rows, _ = suite_rows(3, 8, 5000, 42)
        expected = "".join(list(triple_rows_to_csv(rows))[1:])
        calls = self.count_renders(monkeypatch)
        blocks = triple_csv_chunk(rows, points_recur=True)
        assert "".join(blocks) == expected
        points = {p for row in rows for p in row[:3]}
        assert sorted(calls) == sorted(points)


class TestSamplerStream:
    """The suite's sampler and its one reseeded RNG draw the stream of a
    fresh ``random.Random`` per block of triples, sampled through
    ``choices`` and ``sample``."""

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
    # For 3 * 10^4 draws, the pool's draw sequences, sum_d (d + n - 1)!/d!,
    # are few enough to tabulate in (4, 0), (2, 19), (3, 8) and (4, 6):
    # 6, 210, 330 and 1260 of them.  (8, 40) has about 4 * 10^11, and
    # (1, 12) draws no bars.  One draw tabulates none of them.
    TABULATED = {(4, 0), (2, 19), (3, 8), (4, 6)}

    @pytest.mark.parametrize("n, max_degree", [
        (1, 12), (3, 8), (8, 40), (4, 0), (2, 40), (8, 200), (2, 19), (4, 6),
    ])
    def test_matches_choices_reference(self, n, max_degree):
        for draws in (1, 3 * 10**4):
            sample = _counts_sampler(n, max_degree, draws)
            tabulated = draws > 1 and (n, max_degree) in self.TABULATED
            rng = random.Random()
            first = {}
            for seed in range(500):
                ref = random.Random(_task_seed(seed, 0))
                rng.seed(_task_seed(seed, 0))
                for _ in range(3):
                    point = sample(rng)
                    assert point == self.reference_sample(ref, n, max_degree)
                    if tabulated:
                        assert first.setdefault(point, point) is point
                assert rng.random() == ref.random()

    @pytest.mark.parametrize("n, max_degree", sorted(TABULATED))
    def test_table_returns_one_object_per_point(self, n, max_degree):
        # the table hands out the tuple it built for a point's first slot;
        # the plain path need not share, and builds each point afresh, which
        # shows that the draw count selects the path
        draws = 3 * 10**4
        identical = {}
        for sample_draws in (draws, 1):
            sample = _counts_sampler(n, max_degree, sample_draws)
            rng = random.Random(_task_seed(42, 0))
            points = [sample(rng) for _ in range(2000)]
            first = {}
            for p in points:
                first.setdefault(p, p)
            assert len(first) == math.comb(max_degree + n, n)
            identical[sample_draws] = all(first[p] is p for p in points)
        assert identical == {draws: True, 1: False}

    @pytest.mark.parametrize("n, max_degree, slots", [
        (4, 0, 6), (2, 19, 210), (3, 8, 330), (4, 6, 1260),
    ])
    def test_draw_sequences(self, n, max_degree, slots):
        sequences = _triples._pool_draw_sequences(n - 1, max_degree, slots)
        assert sequences == [math.perm(d + n - 1, n - 1)
                             for d in range(max_degree + 1)]
        assert sum(sequences) == slots
        assert _triples._pool_draw_sequences(n - 1, max_degree, slots - 1) is None

    # (100001)! / 2! alone took 0.12 s to form; the rule stops at the first
    # product past the draw count, so it forms no such integer
    @pytest.mark.parametrize("n, max_degree", [(100_000, 2), (12, 3)])
    def test_table_rule_forms_no_factorial(self, monkeypatch, n, max_degree):
        def refuse(*args):
            raise AssertionError("the table rule formed a factorial")

        monkeypatch.setattr(math, "perm", refuse)
        monkeypatch.setattr(math, "factorial", refuse)
        sample = _counts_sampler(n, max_degree, 3 * 10**6)
        if n == 12:  # a point at n = 10^5 swaps a pool of 10^5 entries
            rng = random.Random(_task_seed(42, 0))
            ref = random.Random(_task_seed(42, 0))
            assert sample(rng) == self.reference_sample(ref, n, max_degree)

    @pytest.mark.parametrize("n, max_degree, count, recur", [
        (3, 8, 55, True), (3, 8, 54, False), (8, 40, 5000, False),
        (1, 12, 5, True), (100_000, 2, 10**6, False), (300, 10_000, 1, False),
    ])
    def test_points_recur(self, n, max_degree, count, recur):
        # the ball holds C(max_degree + n, n) points: 165 at n = 3, degree 8
        assert lattice.points_recur(n, max_degree, count) is recur
        assert recur == (math.comb(max_degree + n, n) <= 3 * count)

    # 3050 ends mid-block, and splits into ranges of whole blocks
    @pytest.mark.skipif(not hasattr(os, "fork"), reason="the suite forks workers")
    @pytest.mark.parametrize("ranges", [1, 2, 3])
    def test_suite_draws_one_stream_per_block(self, monkeypatch, ranges):
        n, max_degree, count, seed = 3, 8, 3050, 42
        monkeypatch.setattr(_triples, "_cpu_count", lambda: ranges)
        assert len(_triples._range_bounds(count)) == ranges + 1
        rows, _ = suite_rows(n, max_degree, count, seed)
        assert_no_child_left()
        block = _triples.TRIPLE_BLOCK
        expected = []
        for b in range(-(-count // block)):
            ref = random.Random(_task_seed(seed, b))
            for _ in range(min(block, count - b * block)):
                expected.append(tuple(
                    self.reference_sample(ref, n, max_degree) for _ in range(3)
                ))
        assert [(r.alpha, r.beta, r.gamma) for r in rows] == expected

    def test_reseeding_equals_fresh_rng(self):
        rng = random.Random()
        # the suite reseeds through the base generator's method, as
        # random.Random.seed does for an int seed
        base = random.Random()
        reseed = super(random.Random, base).seed
        # task seeds of one 32-bit word (0, 2^32 - 1) and of two (2^32,
        # 2^64 - 1): _task_seed(0, i) is i below 2^64
        tasks = [(seed, i) for seed in range(500) for i in (0, 1, 9999)]
        tasks += [(0, s) for s in (0, 2**32 - 1, 2**32, 2**64 - 1)]
        for seed, i in tasks:
            fresh = random.Random(_task_seed(seed, i)).getstate()
            rng.seed(_task_seed(seed, i))
            assert rng.getstate() == fresh
            reseed(_task_seed(seed, i))
            assert base.getstate() == fresh


class TestTripleKernelCalls:
    """The suite evaluates the closed form on all three pairs of a triple,
    and on the n shifted pairs of (a, b) when a and b share a parity coset."""

    @pytest.mark.parametrize("n, max_degree", [(3, 8), (1, 12), (8, 40)])
    def test_calls_per_triple(self, monkeypatch, n, max_degree):
        calls = []
        kernel = _triples.wick_kernel

        def counting(a, b, df):
            calls.append((a, b))
            return kernel(a, b, df)

        monkeypatch.setattr(_triples, "wick_kernel", counting)
        # below MIN_RANGE: one range, in this process; at n = 8 about one
        # pair in 200 shares a coset, so the shifted pairs need this many
        count = 900
        rows, report = suite_rows(n, max_degree, count, 5)
        assert report.passed()
        same_coset = sum(
            MultiIndex(r.alpha).parity() == MultiIndex(r.beta).parity() for r in rows
        )
        assert 0 < same_coset < count
        assert len(calls) == 3 * count + n * same_coset


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
        pair = (delta.numerator, delta.denominator)
        monkeypatch.setattr(_triples, "COMPARISON_DELTA", pair)
        rows, report = suite_rows(n, max_degree, 2000, 11)
        comparison_failures = stabilization_failures = 0
        for r in rows:
            a, b, c = MultiIndex(r.alpha), MultiIndex(r.beta), MultiIndex(r.gamma)
            assert r.d_ab == angle_distance(a, b).radians
            assert r.d_bc == angle_distance(b, c).radians
            assert r.d_ac == angle_distance(a, c).radians
            if a.degree + b.degree >= 1:
                check = distance_comparison_check(a, b)
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


class TestDegreeLimit:
    """A max_degree above MAX_LATTICE_DEGREE, or a ball too large for the
    sampler's float degree weights, is refused before the double factorial
    table, which grows like max_degree^2 log(max_degree), is built."""

    @staticmethod
    def no_table(monkeypatch):
        def refuse(size):
            raise AssertionError(f"double_factorial_table({size}) was built")

        monkeypatch.setattr(_triples, "double_factorial_table", refuse)

    def test_refused_before_the_table(self, monkeypatch):
        self.no_table(monkeypatch)
        with pytest.raises(ValueError, match=(
            r"^max_degree=100000 needs a double factorial table of about "
            r"9,654 MB, above the limit of max_degree 10000; lower --max-degree$"
        )):
            run_triple_suite(3, 100_000, 2, 42)
        with pytest.raises(ValueError, match="table of about inf MB"):
            run_triple_suite(3, 10**400, 2, 42)

    def test_oversized_ball_refused_before_the_table(self, monkeypatch):
        # at the limit degree, a table of about 76 MB
        self.no_table(monkeypatch)
        with pytest.raises(ValueError, match=(
            r"^n=300 and max_degree=10000 give too many lattice points for "
            r"float degree weights$"
        )):
            run_triple_suite(300, 10_000, 1, 42)

    def test_the_limit_itself_runs(self, monkeypatch):
        monkeypatch.setattr(lattice, "MAX_LATTICE_DEGREE", 8)
        assert run_triple_suite(3, 8, 10, 42)[1].passed()
        self.no_table(monkeypatch)
        with pytest.raises(ValueError, match="above the limit of max_degree 8;"):
            run_triple_suite(3, 9, 10, 42)

    # the message's Stirling estimate against the sum of log2((2k - 1)!!)
    # over the table's entries, from lgamma; 16 * ln 2 = 11.09
    @pytest.mark.parametrize("max_degree", [20_000, 100_000])
    def test_table_size_estimate(self, monkeypatch, max_degree):
        self.no_table(monkeypatch)
        bits = sum(math.lgamma(2 * k + 1) - math.lgamma(k + 1) - k * math.log(2)
                   for k in range(max_degree + 2)) / math.log(2)
        with pytest.raises(ValueError, match=f"table of about {bits / 8e6:,.0f} MB"):
            run_triple_suite(3, max_degree, 2, 42)
