"""The angle metric d(alpha, beta) = arccos B(alpha, beta) on Z_+^n.

The limiting angles between derivative directions of the embedding turn the
multi-index lattice into a metric space: d is a genuine metric with values in
[0, pi), adjacent lattice points sit at right angles, and the lattice splits
into 2^n mutually orthogonal parity cosets.  Wherever possible, decisions
(identity of points, monotonicity, the comparison inequality) are made on the
exact rational squares of B rather than on floats.

The sampler and the suite's per-range loop and fork fan-out live in
:mod:`spectraljet._triples`, which the functions here import when they run:
every command imports this module through the CLI, and only ``lattice`` runs
the suite.
"""
from __future__ import annotations

import math
from typing import TYPE_CHECKING, Callable, Iterator, NamedTuple

from .defaults import TOLERANCES
from .multiindex import (
    MultiIndex,
    check_same_dimension,
    pair_profile,
    symmetric_difference_size,
)
from .wick import WickB, wick_b

if TYPE_CHECKING:
    import random

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


class DistanceComparisonCheck(NamedTuple):
    lhs: float   # |cos d(alpha, beta)|
    rhs: float   # 1 - delta * |alpha (sym diff) beta| / (|alpha| + |beta|)
    holds: bool  # decided on exact squares


def distance_comparison_check(alpha: MultiIndex,
                              beta: MultiIndex) -> DistanceComparisonCheck:
    """Check |cos d| <= 1 - delta * d0 / (|alpha| + |beta|) exactly, with
    delta the :data:`_triples.COMPARISON_DELTA` bound when called."""
    import fractions  # see wick.wick_b

    from ._triples import COMPARISON_DELTA

    check_same_dimension(alpha, beta)
    total = alpha.degree + beta.degree
    if total < 1:
        raise ValueError("comparison needs |alpha| + |beta| >= 1")
    b = wick_b(alpha, beta)
    d0 = symmetric_difference_size(alpha, beta)
    delta = fractions.Fraction(*COMPARISON_DELTA)
    rhs = 1 - delta * fractions.Fraction(d0, total)
    holds = b.square <= rhs * rhs  # rhs >= 1 - delta >= 0, so squaring is safe
    return DistanceComparisonCheck(abs(b.value), float(rhs), holds)


# ---------------------------------------------------------------------------
# Random sampling of lattice points and the triple suite
# ---------------------------------------------------------------------------

# The suite holds double_factorial_table(max_degree + 2), whose integers
# hold sum_k log2((2k - 1)!!) bits: 0.55 MB at max degree 10^3, 17 MB at
# 5*10^3, 76 MB at 10^4, 328 MB at 2*10^4 and 9.65 GB at 10^5.  The limit
# keeps the table below about 80 MB.
MAX_LATTICE_DEGREE = 10_000


def points_recur(n: int, max_degree: int, count: int) -> bool:
    """Whether the 3 * count points a suite draws can recur: whether the
    ball of degree <= max_degree in Z_+^n, with C(max_degree + n, n)
    points, holds no more than that.

    The binomial is built as C(N - r + i, i) for i = 1..r, with N = n +
    max_degree and r = min(n, max_degree).  Each step at least doubles it,
    so it passes 3 * count within log2(3 * count) + 1 steps, whatever n.
    """
    limit = 3 * count
    r = min(n, max_degree)
    size = 1
    for i in range(1, r + 1):
        size = size * (n + max_degree - r + i) // i
        if size > limit:
            return False
    return True


def sample_multiindex(rng: random.Random, n: int, max_degree: int) -> MultiIndex:
    """Uniform sample from {alpha in Z_+^n : degree <= max_degree}."""
    from ._triples import _counts_sampler

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


def run_triple_suite(
    n: int,
    max_degree: int,
    count: int,
    seed: int,
    triangle_slack_tol: float = TOLERANCES["triangle_slack"],
    render: Callable[[Iterator[tuple]], object] | None = None,
) -> tuple[list, TripleSuiteReport]:
    """Sample ``count`` triples and exercise every lattice invariant on them.

    Per triple: all three triangle inequalities (float slack tolerance),
    d = 0 <=> equality, orthogonality <=> parity cosets, the
    distance-comparison inequality with delta = 1/4, and one diagonal
    stabilization step per coordinate.  Points stay count tuples and every
    B^2 decision is made on :func:`wick.wick_kernel` integers by
    cross-multiplication.

    The triples are split into contiguous index ranges, one per CPU the
    process may use (:func:`_triples._range_bounds`); forked workers run all
    but the last, which runs here.  Each block of
    :data:`_triples.TRIPLE_BLOCK` consecutive triples draws from its own
    seed, and every range bound is a block boundary, so neither rows nor
    report depend on the split.

    Returns the rows, as :class:`TripleRow` in index order, and the report.
    Given ``render``, each range's rows go to ``render`` in the process that
    computed them (see :func:`_triples._triple_range`), and the first value
    returned is the list of its results in index order instead; they must
    be values that :mod:`marshal` can write.  A ``max_degree`` above
    :data:`MAX_LATTICE_DEGREE`, or a ball too large for the sampler's float
    degree weights, is refused before any table is built.
    """
    if max_degree > MAX_LATTICE_DEGREE:
        # by Stirling, a table of s entries holds about s^2 (ln(2 s) - 3/2)
        # / (2 ln 2) bits, that is / 11.09e6 MB; inf past the float range
        s = min(max_degree, 10**300) + 2.0
        raise ValueError(
            f"max_degree={max_degree} needs a double factorial table of about "
            f"{s * s * (math.log(2 * s) - 1.5) / 11.09e6:,.0f} MB, above the "
            f"limit of max_degree {MAX_LATTICE_DEGREE}; lower --max-degree"
        )
    from ._triples import _suite_ranges  # not loaded by verify, curvature, wick or report

    outs = []
    violations = (0, 0, 0, 0, 0)
    max_slack, worst, min_margin = -math.inf, None, math.inf
    for out, counts, slack, triple, margin in _suite_ranges(
        n, max_degree, count, seed, triangle_slack_tol, render or list
    ):
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
