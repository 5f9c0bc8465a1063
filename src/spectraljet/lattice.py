"""The angle metric d(alpha, beta) = arccos B(alpha, beta) on Z_+^n.

The limiting angles between derivative directions of the embedding turn the
multi-index lattice into a metric space: d is a genuine metric with values in
[0, pi), adjacent lattice points sit at right angles, and the lattice splits
into 2^n mutually orthogonal parity cosets.  Wherever possible, decisions
(identity of points, monotonicity, the comparison inequality) are made on the
exact rational squares of B rather than on floats.
"""
from __future__ import annotations

import marshal
import math
import os
import random
from bisect import bisect_right
from fractions import Fraction
from itertools import accumulate
from typing import Callable, Iterator, NamedTuple

from .multiindex import (
    MultiIndex,
    check_same_dimension,
    counts_text,
    pair_profile,
    symmetric_difference_size,
)
from .wick import WickB, double_factorial_table, wick_b, wick_kernel

#: Constant tested in the distance-comparison inequality.  The bound chain
#: prod (1 - x/(2s))^s <= exp(-x/2) <= 1 - (1 - e^(-1/2)) x on [0,1] justifies
#: delta = 1 - e^(-1/2) ~ 0.393 for the squared cosine; 1/4 is tested as the
#: safer constant and holds with a wide sampled margin.
COMPARISON_DELTA = Fraction(1, 4)

#: Default float tolerance of the triangle inequality d_ac <= d_ab + d_bc.
TRIANGLE_SLACK = 1e-12


class AngleDistance(NamedTuple):
    """d(alpha, beta) in radians, together with the exact cosine it came from."""

    radians: float
    exact_cos: WickB


def angle_distance(alpha: MultiIndex, beta: MultiIndex) -> AngleDistance:
    """arccos of B(alpha, beta); always in [0, pi) since B > -1."""
    b = wick_b(alpha, beta)
    return AngleDistance(math.acos(b.value), b)


def is_orthogonal(alpha: MultiIndex, beta: MultiIndex) -> bool:
    """d = pi/2 exactly when some index has odd total multiplicity."""
    return not pair_profile(alpha, beta).even_total()


def coset_of(alpha: MultiIndex) -> tuple[int, ...]:
    """Parity coset of alpha in Z_+^n / (2Z_+)^n; two points in different
    cosets are orthogonal."""
    return alpha.parity()


class DistanceComparisonCheck(NamedTuple):
    lhs: float   # |cos d(alpha, beta)|
    rhs: float   # 1 - delta * |alpha (sym diff) beta| / (|alpha| + |beta|)
    holds: bool  # decided on exact squares


def distance_comparison_check(
    alpha: MultiIndex, beta: MultiIndex, delta: Fraction = COMPARISON_DELTA
) -> DistanceComparisonCheck:
    """Check |cos d| <= 1 - delta * d0 / (|alpha| + |beta|) exactly."""
    check_same_dimension(alpha, beta)
    total = alpha.degree + beta.degree
    if total < 1:
        raise ValueError("comparison needs |alpha| + |beta| >= 1")
    b = wick_b(alpha, beta)
    d0 = symmetric_difference_size(alpha, beta)
    rhs = 1 - delta * Fraction(d0, total)
    holds = b.square <= rhs * rhs  # rhs >= 1 - delta >= 0, so squaring is safe
    return DistanceComparisonCheck(abs(b.value), float(rhs), holds)


class LatticeStabilizationScan(NamedTuple):
    """Angle sequences under repeated shifts along one coordinate axis.

    ``diagonal_limit`` is the limit of the achievable distances; since the
    cosine sequence keeps the sign of B(alpha, beta) while its magnitude
    tends to |B(alpha*, beta*)|, the limit is arccos of the signed magnitude
    and may equal pi even though every single distance stays below it.
    ``stabilized_pair`` is d(alpha*, beta*) itself (j-th components zeroed).
    """

    diagonal: tuple[AngleDistance, ...]       # d(alpha + k e_j, beta + k e_j)
    diagonal_limit: float                     # limit of the sequence, in [0, pi]
    stabilized_pair: AngleDistance            # d with j-th components zeroed
    one_sided: tuple[AngleDistance, ...]      # d(alpha, beta + k e_j)
    one_sided_limit: float                    # pi/2
    monotone_ok: bool                         # |d - pi/2| nondecreasing, exact


def stabilization_scan(
    alpha: MultiIndex, beta: MultiIndex, j: int, k_max: int
) -> LatticeStabilizationScan:
    """Shift both or one endpoint k times along e_j and track the angle.

    Distance to pi/2 can only grow per diagonal step (equality iff the j-th
    multiplicities agree); |d - pi/2| >= |d' - pi/2| is equivalent to
    B^2 >= B'^2, which is checked on exact squares.
    """
    from .wick import b_stabilization_scan

    if k_max < 1:
        raise ValueError("k_max must be at least 1")
    check_same_dimension(alpha, beta)
    scan = b_stabilization_scan(alpha, beta, j, k_max)
    diagonal = tuple(
        AngleDistance(math.acos(b.value), b) for b in scan.diagonal
    )
    one_sided = tuple(
        AngleDistance(math.acos(b.value), b) for b in scan.one_sided
    )
    monotone_ok = scan.monotone_ok()
    return LatticeStabilizationScan(
        diagonal=diagonal,
        diagonal_limit=math.acos(scan.diagonal_limit.value),
        stabilized_pair=angle_distance(alpha.without(j), beta.without(j)),
        one_sided=one_sided,
        one_sided_limit=math.pi / 2,
        monotone_ok=monotone_ok,
    )


# ---------------------------------------------------------------------------
# Random sampling of lattice points and the triple suite
# ---------------------------------------------------------------------------

def _task_seed(seed: int, task_index: int) -> int:
    # Deterministic per-task stream: mixing keeps tasks independent of order.
    return (seed * 1_000_003 + task_index) & 0xFFFFFFFFFFFFFFFF


def _task_rng(seed: int, task_index: int) -> random.Random:
    return random.Random(_task_seed(seed, task_index))


def _counts_sampler(
    n: int, max_degree: int
) -> Callable[[random.Random], tuple[int, ...]]:
    """Uniform sampler of count tuples of degree <= max_degree.

    Picks the degree with stars-and-bars weights, then a uniformly random
    composition of that degree into n parts.  The draws are written out from
    :mod:`random` so that the stream is the one its methods draw:

    * the degree is the body of
      ``rng.choices(range(max_degree + 1), cum_weights=..., k=1)[0]``: one
      ``random()`` bisected into the cumulative weights;
    * the n - 1 bars are the body of ``rng.sample(range(d + n - 1), n - 1)``
      with its ``_randbelow(m)``, which draws ``getrandbits(m.bit_length())``
      until the draw is below m.  Like ``sample``, it swaps picks out of a
      pool when the range is at most ``setsize`` long, and otherwise rejects
      repeats against the set of picks.
    """
    cum_weights = list(
        accumulate(math.comb(d + n - 1, n - 1) for d in range(max_degree + 1))
    )
    try:
        total = cum_weights[-1] + 0.0
    except OverflowError:
        raise ValueError(
            f"n={n} and max_degree={max_degree} give too many lattice points "
            "for float degree weights"
        ) from None
    k = n - 1  # bars
    setsize = 21 + (4 ** math.ceil(math.log(3 * k, 4)) if k > 5 else 0)

    def sample(rng: random.Random) -> tuple[int, ...]:
        d = bisect_right(cum_weights, rng.random() * total, 0, max_degree)
        if not k:
            return (d,)
        getrandbits = rng.getrandbits
        size = d + k
        if size <= setsize:
            pool = list(range(size))
            bars = []
            for m in range(size, d, -1):
                bits = m.bit_length()
                j = getrandbits(bits)
                while j >= m:
                    j = getrandbits(bits)
                bars.append(pool[j])
                pool[j] = pool[m - 1]
        else:
            bits = size.bit_length()
            bars = set()
            for _ in range(k):
                j = getrandbits(bits)
                while j >= size or j in bars:
                    j = getrandbits(bits)
                bars.add(j)
        counts = []
        prev = -1
        for bar in sorted(bars):
            counts.append(bar - prev - 1)
            prev = bar
        counts.append(size - 1 - prev)
        return tuple(counts)

    return sample


def sample_multiindex(rng: random.Random, n: int, max_degree: int) -> MultiIndex:
    """Uniform sample from {alpha in Z_+^n : degree <= max_degree}."""
    return MultiIndex(_counts_sampler(n, max_degree)(rng))


class TripleRow(NamedTuple):
    """One sampled triple, in the CSV column layout of the lattice suite;
    the three points are count tuples (``MultiIndex.counts``)."""

    alpha: tuple[int, ...]
    beta: tuple[int, ...]
    gamma: tuple[int, ...]
    d_ab: float
    d_bc: float
    d_ac: float
    triangle_slack: float
    comparison_lhs: float
    comparison_rhs: float


class TripleSuiteReport(NamedTuple):
    n: int
    max_degree: int
    count: int
    seed: int
    triangle_violations: int
    identity_violations: int
    orthogonality_violations: int
    comparison_violations: int
    stabilization_violations: int
    max_triangle_slack: float
    worst_triple: tuple[str, str, str] | None
    #: sampled min of (1 - |cos d|)(|alpha|+|beta|)/d0: the largest delta the
    #: comparison inequality would tolerate on this sample (must stay > 1/4)
    min_comparison_margin: float

    def passed(self) -> bool:
        return (
            self.triangle_violations == 0
            and self.identity_violations == 0
            and self.orthogonality_violations == 0
            and self.comparison_violations == 0
            and self.stabilization_violations == 0
        )


def _cos(kernel: tuple[int, int, int, int]) -> float:
    """B as a float from a :func:`wick_kernel` result.

    int / int true division is correctly rounded, so this equals the float
    view of the reduced exact square (``WickB.value``) bit for bit.
    """
    sign, magnitude, diag_a, diag_b = kernel
    if sign == 0:
        return 0.0
    return sign * math.sqrt(magnitude * magnitude / (diag_a * diag_b))


#: Fewest triples in a range of the suite.  Forking a worker, piping its
#: result back and reaping it took 2.2-2.6 ms from a CLI process on a 2-vCPU
#: x86-64 VM (Python 3.11), the work of about 70-100 triples (25-34 us each
#: at n = 3, max_degree = 8), so a range of 1000 triples spends under a
#: tenth of its time on its worker.
MIN_RANGE = 1000


def _cpu_count() -> int:
    """The number of CPUs this process may run on."""
    return len(os.sched_getaffinity(0))


def _range_bounds(count: int) -> list[int]:
    """Bounds of the suite's contiguous index ranges: one range per CPU the
    process may use, each of at least ``MIN_RANGE`` triples, and a single
    range where the platform cannot fork or say which CPUs it may use."""
    ranges = 1
    if hasattr(os, "fork") and hasattr(os, "sched_getaffinity"):
        ranges = max(1, min(_cpu_count(), count // MIN_RANGE))
    return [count * k // ranges for k in range(ranges + 1)]


def _triple_range(n, df, sample, seed, triangle_slack_tol, lo, hi, render):
    """Triples ``lo`` to ``hi - 1`` of the suite.

    ``render`` gets an iterator over the rows, as plain tuples in
    :class:`TripleRow` field order; rows it leaves unread are checked all the
    same.  Returns ``render``'s result, the five violation counts, the
    largest triangle slack with the first triple that reaches it, and the
    smallest comparison margin.
    """
    delta_num, delta_den = COMPARISON_DELTA.numerator, COMPARISON_DELTA.denominator
    summary = []

    def triples():
        triangle_violations = 0
        identity_violations = 0
        orthogonality_violations = 0
        comparison_violations = 0
        stabilization_violations = 0
        max_slack = -math.inf
        worst: tuple[str, str, str] | None = None
        min_margin = math.inf
        rng = random.Random()
        for i in range(lo, hi):
            rng.seed(_task_seed(seed, i))
            a = sample(rng)
            b = sample(rng)
            c = sample(rng)

            ab = wick_kernel(a, b, df)
            cos_ab = _cos(ab)
            d_ab = math.acos(cos_ab)
            d_bc = math.acos(_cos(wick_kernel(b, c, df)))
            d_ac = math.acos(_cos(wick_kernel(a, c, df)))

            slack = max(d_ac - d_ab - d_bc, d_ab - d_ac - d_bc, d_bc - d_ab - d_ac)
            if slack > triangle_slack_tol:
                triangle_violations += 1
            if slack > max_slack:
                max_slack = slack
                worst = (counts_text(a), counts_text(b), counts_text(c))

            sign, magnitude, diag_a, diag_b = ab
            num, den = magnitude * magnitude, diag_a * diag_b  # B(a, b)^2 = num / den
            # d(a, b) = 0 <=> a = b, decided on B^2 = 1 exactly.
            if (sign == 1 and num == den) != (a == b):
                identity_violations += 1

            if (sign == 0) != any((x - y) % 2 for x, y in zip(a, b)):
                orthogonality_violations += 1

            total = sum(a) + sum(b)
            if total >= 1:
                # rhs = 1 - delta d0 / total = p / q >= 1 - delta >= 0, so
                # B^2 <= rhs^2 is num q^2 <= den p^2.
                d0 = sum(abs(x - y) for x, y in zip(a, b))
                q = delta_den * total
                p = q - delta_num * d0
                if num * q * q > den * p * p:
                    comparison_violations += 1
                lhs, rhs = abs(cos_ab), p / q
                if d0:
                    min_margin = min(min_margin, (1.0 - lhs) * total / d0)
            else:
                lhs, rhs = 1.0, 1.0

            # One diagonal step along each axis must not shrink B^2; the
            # shifted B^2 comes from the closed form, not from the step
            # recurrence.  With B = 0 there is nothing to shrink.
            if sign:
                for j in range(n):
                    _, s_mag, s_diag_a, s_diag_b = wick_kernel(
                        a[:j] + (a[j] + 1,) + a[j + 1:],
                        b[:j] + (b[j] + 1,) + b[j + 1:],
                        df,
                    )
                    if s_mag * s_mag * den < num * s_diag_a * s_diag_b:
                        stabilization_violations += 1
                        break

            yield (a, b, c, d_ab, d_bc, d_ac, slack, lhs, rhs)

        summary.extend((
            (triangle_violations, identity_violations, orthogonality_violations,
             comparison_violations, stabilization_violations),
            max_slack, worst, min_margin,
        ))

    rows = triples()
    out = render(rows)
    for _ in rows:
        pass
    return (out, *summary)


def _fork(run, lo: int, hi: int):
    """Start ``run(lo, hi)`` in a forked child.

    Returns the child's pid and the read end of a pipe that carries
    ``marshal.dumps((True, result))``, or ``(False, error text)`` if ``run``
    raised.  The child leaves by ``os._exit``, so it never returns into the
    caller, runs no exit handler and flushes no buffer it inherited.  The
    caller forks from a single thread: the package starts no threads.
    """
    read_end, write_end = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_end)
        os.close(write_end)
        raise
    if pid == 0:
        code = 1
        try:
            os.close(read_end)
            try:
                payload = marshal.dumps((True, run(lo, hi)))
            except Exception as exc:  # the parent raises it, with the range
                payload = marshal.dumps((False, f"{type(exc).__name__}: {exc}"))
            with open(write_end, "wb") as pipe:
                pipe.write(payload)
            code = 0
        finally:
            os._exit(code)
    os.close(write_end)
    return pid, open(read_end, "rb")


def _fan_out(run, bounds: list[int]) -> list:
    """``run(lo, hi)`` over consecutive ``bounds``, results in index order:
    each range but the last in a forked worker, the last in this process.

    Every worker is reaped before this returns or raises; if anything here
    fails, the workers still running are killed first.
    """
    ranges = list(zip(bounds, bounds[1:]))
    workers = []  # (pid, pipe) per forked range
    try:
        for lo, hi in ranges[:-1]:
            workers.append(_fork(run, lo, hi))
        last = run(*ranges[-1])
        payloads = [pipe.read() for _, pipe in workers]
    except BaseException:
        if workers:
            from signal import SIGKILL  # not imported on the path that succeeds

            for pid, _ in workers:
                os.kill(pid, SIGKILL)
        raise
    finally:
        statuses = []
        for pid, pipe in workers:
            pipe.close()
            statuses.append(os.waitpid(pid, 0)[1])
    parts = []
    for (lo, hi), payload, status in zip(ranges, payloads, statuses):
        code = os.waitstatus_to_exitcode(status)
        if code:
            raise RuntimeError(
                f"the worker for triples {lo}..{hi - 1} exited with status {code}"
            )
        ok, result = marshal.loads(payload)
        if not ok:
            raise RuntimeError(f"the worker for triples {lo}..{hi - 1} failed: {result}")
        parts.append(result)
    parts.append(last)
    return parts


def run_triple_suite(
    n: int,
    max_degree: int,
    count: int,
    seed: int,
    triangle_slack_tol: float = TRIANGLE_SLACK,
    render: Callable[[Iterator[tuple]], object] | None = None,
) -> tuple[list, TripleSuiteReport]:
    """Sample ``count`` triples and exercise every lattice invariant on them.

    Per triple: all three triangle inequalities (float slack tolerance),
    d = 0 <=> equality, orthogonality <=> parity cosets, the
    distance-comparison inequality with delta = 1/4, and one diagonal
    stabilization step per coordinate.  Points stay count tuples and every
    B^2 decision is made on :func:`wick_kernel` integers by
    cross-multiplication.

    The triples are split into contiguous index ranges, one per CPU the
    process may use (:func:`_range_bounds`); forked workers run all but the
    last, which runs here.  Each triple draws from its own seed, so neither
    rows nor report depend on the split.

    Returns the rows, as :class:`TripleRow` in index order, and the report.
    Given ``render``, each range's rows go to ``render`` in the process that
    computed them (see :func:`_triple_range`), and the first value returned
    is the list of its results in index order instead; they must be values
    that :mod:`marshal` can write.
    """
    # the shifted pairs reach multiplicity max_degree + 1
    df = double_factorial_table(max_degree + 2)
    sample = _counts_sampler(n, max_degree)

    def run(lo: int, hi: int):
        return _triple_range(
            n, df, sample, seed, triangle_slack_tol, lo, hi, render or list
        )

    outs = []
    violations = (0, 0, 0, 0, 0)
    max_slack, worst, min_margin = -math.inf, None, math.inf
    for out, counts, slack, triple, margin in _fan_out(run, _range_bounds(count)):
        outs.append(out)
        violations = tuple(map(sum, zip(violations, counts)))
        if slack > max_slack:  # strict, so the earliest triple wins a tie
            max_slack, worst = slack, triple
        min_margin = min(min_margin, margin)
    report = TripleSuiteReport(
        n, max_degree, count, seed, *violations, max_slack, worst, min_margin
    )
    if render is None:
        return [TripleRow._make(row) for out in outs for row in out], report
    return outs, report
