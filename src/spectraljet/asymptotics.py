"""Extraction of t -> 0+ limits from finite-time measurements.

Every asymptotic identity is verified at desk scale the same way: measure on
a geometric grid of heat times, fit a low-order polynomial in t, and compare
the constant term against its exact target.  Flat models need no fit (their
corrections are exponentially small, not O(t)), so they are compared directly
at the smallest grid time.
"""
from __future__ import annotations

import math
from collections.abc import Mapping, Sequence
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, combinations_with_replacement
from operator import mul
from typing import NamedTuple

from .defaults import TIME_GRID, TOLERANCES
from .multiindex import MultiIndex, enumerate_multiindices
from .wick import wick_a, wick_b
from .manifolds import (
    SpectralModel,
    curvature_symmetry_residuals,
    heat_power,
    mean_curvature_proxy,
    pullback_metric,
    ricci_scalar_extract,
    third_jet_umbilical,
)


def time_grid(start: float = TIME_GRID["start"], ratio: float = TIME_GRID["ratio"],
              count: int = TIME_GRID["count"]) -> tuple[float, ...]:
    """Geometric grid t_m = start * ratio^m, m = 0..count-1, sorted ascending."""
    if start <= 0 or not 0 < ratio < 1 or count < 1:
        raise ValueError("need start > 0, 0 < ratio < 1, count >= 1")
    return tuple(sorted(start * ratio**m for m in range(count)))


DEFAULT_GRID = time_grid()


def normalization_factor(n: int, t: float, alpha: MultiIndex, beta: MultiIndex) -> float:
    """(4 pi t)^(n/2) (2t)^floor((|alpha|+|beta|)/2), the jet normalization."""
    half = (alpha.degree + beta.degree) // 2
    return heat_power(t, 4.0 * math.pi, n / 2.0) * heat_power(t, 2.0, half)


class ConvergenceRecord(NamedTuple):
    """One (model, alpha, beta, t) measurement against its Wick target."""

    model: str
    alpha: MultiIndex
    beta: MultiIndex
    t: float
    raw_jet: float
    normalized: float
    target: float
    abs_err: float


class LimitFit(NamedTuple):
    """Least-squares fit y ~ c0 + c1 t + c2 t^2; c0 is the reported limit."""

    c0: float
    c1: float
    c2: float
    stderr: float
    grid: tuple[float, ...]


def _dyadic(values) -> tuple[list[int], int]:
    """Integers m_i and one shift s with values[i] == m_i / 2**s exactly
    (every finite float is a dyadic rational)."""
    ratios = [v.as_integer_ratio() for v in values]
    shift = max(d for _, d in ratios).bit_length() - 1
    return [n << (shift - d.bit_length() + 1) for n, d in ratios], shift


def _quotient(num: int, den: int) -> float:
    """num / den correctly rounded (den > 0), +-inf past the float range."""
    try:
        return num / den
    except OverflowError:
        return math.inf if num > 0 else -math.inf


def _root_mean_square(sq: int, count: int, shift: int) -> float:
    """sqrt(sq / count) / 2**shift, with the binary exponent taken out
    before the division so that no intermediate under- or overflows."""
    if sq == 0:
        return 0.0
    half = (sq.bit_length() - count.bit_length()) // 2
    if half >= 0:
        mean = sq / (count << 2 * half)
    else:
        mean = (sq << -2 * half) / count
    try:
        return math.ldexp(math.sqrt(mean), half - shift)
    except OverflowError:
        return math.inf


@lru_cache(maxsize=32)
def _fit_operator(ts: tuple[float, ...]):
    """The exact least-squares operator of the quadratic fit on the grid ts.

    Returns (rows, denom, powers, shift): the pseudo-inverse (V^T V)^-1 V^T
    of the Vandermonde V_ij = t_i^j is rows / denom with integer rows and
    one positive integer denom, and t_i^j == powers[i][j] / 2**(j * shift).
    """
    size = 3
    vander = [[Fraction(t) ** j for j in range(size)] for t in ts]
    # Gauss-Jordan on [V^T V | V^T] in exact rationals; V^T V is positive
    # definite for distinct times, so every pivot is nonzero.
    aug = [
        [sum(row[p] * row[q] for row in vander) for q in range(size)]
        + [row[p] for row in vander]
        for p in range(size)
    ]
    for p in range(size):
        pivot = aug[p][p]
        aug[p] = [x / pivot for x in aug[p]]
        for q in range(size):
            if q != p and aug[q][p]:
                factor = aug[q][p]
                aug[q] = [x - factor * y for x, y in zip(aug[q], aug[p])]
    pinv = [row[size:] for row in aug]
    denom = math.lcm(*(x.denominator for row in pinv for x in row))
    rows = tuple(
        tuple(x.numerator * (denom // x.denominator) for x in row) for row in pinv
    )
    grid, shift = _dyadic(ts)
    powers = tuple(tuple(g**j for j in range(size)) for g in grid)
    return rows, denom, powers, shift


def limit_fit(samples) -> LimitFit:
    """Quadratic-in-t least squares on (t, y) samples, solved exactly.

    Each coefficient is the correctly rounded value of the exact rational
    least-squares solution: one integer dot product of the memoized exact
    operator of the grid with the samples, then one integer division.
    stderr is the root mean square of the exact residuals of the rounded
    coefficients.  A NaN or infinite sample gives a NaN fit.

    Refuses grids with fewer than 4 points or non-distinct, non-positive or
    non-finite times.
    """
    samples = sorted(samples)
    ts = tuple(float(t) for t, _ in samples)
    ys = [float(y) for _, y in samples]
    if len(ts) < 4:
        raise ValueError("need at least 4 samples for a quadratic fit")
    if not all(0.0 < t < math.inf for t in ts) or len(set(ts)) != len(ts):
        raise ValueError("times must be distinct and positive")
    if not all(math.isfinite(y) for y in ys):
        nan = math.nan
        return LimitFit(nan, nan, nan, nan, ts)
    rows, denom, powers, t_shift = _fit_operator(ts)
    ints, y_shift = _dyadic(ys)
    scale = denom << y_shift
    coeffs = [_quotient(sum(map(mul, row, ints)), scale) for row in rows]
    if all(math.isfinite(c) for c in coeffs):
        # exact residuals r_i * 2**shift; c_j t_i^j is
        # num_j * powers[i][j] / 2**c_shifts[j]
        ratios = [c.as_integer_ratio() for c in coeffs]
        c_shifts = [d.bit_length() - 1 + j * t_shift for j, (_, d) in enumerate(ratios)]
        shift = max(y_shift, *c_shifts)
        sq = 0
        for y, pw in zip(ints, powers):
            r = y << (shift - y_shift)
            for (num, _), p, s in zip(ratios, pw, c_shifts):
                r -= (num * p) << (shift - s)
            sq += r * r
        stderr = _root_mean_square(sq, len(ys), shift)
    else:
        stderr = math.inf
    return LimitFit(*coeffs, stderr, ts)


# c0 = sum_i w_i y_i, with w row 0 of the exact pseudo-inverse of the fit, so
# a relative error eps in every sample moves c0 by at most
# eps * sum_i |w_i| * max_i |y_i|.  Scaling every t by lambda leaves w as it
# is, so this noise gain depends on the shape of the grid, not its scale: 1.9
# on five times of ratio 1/2 at any t, 1.2e8 on time_grid(0.01, 0.99993, 7).
# At the limit a one-ulp (2^-53) error in every sample moves c0 by at most
# 1.1e-10 of the largest sample, which leaves room inside the 1e-2 fit
# tolerance for the larger rounding error of a mode sum.
NOISE_GAIN_LIMIT = 1e6


@lru_cache(maxsize=32)
def _noise_gain(ts: tuple[float, ...]) -> float:
    """sum_i |w_i| for the c0 weights w of the quadratic fit on the grid ts."""
    rows, denom, _, _ = _fit_operator(ts)
    return _quotient(sum(map(abs, rows[0])), denom)


def fit_on_smallest(samples) -> LimitFit:
    """The one fit rule of every t -> 0 limit: the exact quadratic fit on the
    five smallest-t samples (the asymptotic regime).

    Refuses a grid whose noise gain exceeds NOISE_GAIN_LIMIT.
    """
    fit = limit_fit(sorted(samples)[:5])
    gain = _noise_gain(fit.grid)
    if gain > NOISE_GAIN_LIMIT:
        raise ValueError(
            f"ill-conditioned fit grid: noise gain {gain:.3g} of the fitted "
            f"limit on its {len(fit.grid)} smallest times (limit "
            f"{NOISE_GAIN_LIMIT:.0e}); spread the times further apart"
        )
    return fit


class PairSummary(NamedTuple):
    """Per-quantity verification summary, serialized into report JSON."""

    target: float
    fitted_c0: float | None
    fitted_c1: float | None
    stderr: float | None
    observed: float
    passes: bool

    def as_dict(self) -> dict:
        return {
            "target": self.target,
            "fitted_c0": self.fitted_c0,
            "fitted_c1": self.fitted_c1,
            "stderr": self.stderr,
            "observed": self.observed,
            "pass": self.passes,
        }


class SuiteResult(NamedTuple):
    """The named checks of one suite; the jet-relation suite also keeps
    every measurement behind them in ``records``."""

    name: str
    model: str
    summaries: dict[str, PairSummary]
    records: Sequence[ConvergenceRecord] = ()

    @property
    def passed(self) -> bool:
        return all(s.passes for s in self.summaries.values())

    def summary_dict(self) -> dict:
        return {name: s.as_dict() for name, s in self.summaries.items()}


def _judge(value: float, target: float, rel: float, zero_abs: float = 0.0,
           floor: float = 0.0) -> bool:
    """The pass rule of every check against a target: |value - target| <=
    rel * max(|target|, floor), or |value| <= zero_abs when that scale is 0
    (a zero target and no floor).  Tolerances are >= 0."""
    scale = max(abs(target), floor)
    if scale == 0.0:
        return abs(value) <= zero_abs
    return abs(value - target) <= rel * scale


def _fitted(samples, target: float, passes) -> PairSummary:
    """Fit the five smallest-t samples (sorted by t) and record the fit
    against ``target``; ``passes(fit)`` decides the check."""
    fit = fit_on_smallest(samples)
    return PairSummary(target, fit.c0, fit.c1, fit.stderr, samples[0][1], passes(fit))


# A run costs about 3 KB of memory and 650 bytes of report per pair (at
# degree 8, S^5 has 21942 pairs: 82 MB peak, 14.4 MB of reports; S^6 has
# 63090: 199 MB, 40.7 MB), and the pairs grow like n^max_degree: S^10 at
# degree 8 has 1.55e6, S^400 at degree 4 8.6e9.  The limit keeps a run
# below about 0.6 GB.
MAX_JET_PAIRS = 200_000


def _pair_count(n: int, max_degree: int) -> int:
    """len(_canonical_pairs(n, max_degree)) in closed form, from the
    C(d + n - 1, n - 1) multi-indices of each degree d."""
    per_degree = [math.comb(d + n - 1, n - 1) for d in range(max_degree + 1)]
    total = 0
    for p in range(max_degree // 2 + 1):
        total += per_degree[p] * (per_degree[p] + 1) // 2
        total += per_degree[p] * sum(per_degree[p + 1:max_degree + 1 - p])
    return total


def _canonical_pairs(n: int, max_degree: int):
    basis = enumerate_multiindices(n, max_degree)  # by ascending degree
    end = {a.degree: i + 1 for i, a in enumerate(basis)}  # past each degree
    return [(a, b) for i, a in enumerate(basis)
            for b in basis[i:end[max_degree - a.degree]]]


def jet_relation_suite(
    model: SpectralModel,
    max_degree: int,
    ts=DEFAULT_GRID,
    tol: Mapping[str, float] = TOLERANCES,
) -> SuiteResult:
    """Normalized jets and angles against their exact Wick targets.

    Covers every unordered pair with |alpha| + |beta| <= max_degree.  The
    normalized jet (4 pi t)^(n/2) (2t)^floor(.) J must converge to A(alpha,
    beta); for pairs of positive degrees the Gram cosine must converge to
    B(alpha, beta).  Flat models are compared directly at the smallest time,
    curved ones through the fitted limit; both within their tolerance times
    max(|target|, 1), since |A| grows fast with the degree.  More than
    MAX_JET_PAIRS pairs are refused before any is enumerated.
    """
    ts = tuple(sorted(ts))
    n = model.n
    count = _pair_count(n, max_degree)
    if count > MAX_JET_PAIRS:
        raise ValueError(
            f"{count} jet pairs on {model.label} at max degree {max_degree}, "
            f"above the limit of {MAX_JET_PAIRS}; lower --max-degree"
        )
    pairs = _canonical_pairs(n, max_degree)
    use_fit = not model.is_flat
    if use_fit and len(ts) < 4:
        raise ValueError("curved models need a grid with at least 4 times")
    fit_rel = tol["fit_rel"]

    def judge(samples, target) -> PairSummary:
        # Curved models pass on the fitted limit, flat ones on the
        # smallest-t sample; both report the fit whenever the grid allows one.
        if use_fit:
            return _fitted(samples, target,
                           lambda fit: _judge(fit.c0, target, fit_rel, floor=1.0))
        observed = samples[0][1]
        ok = _judge(observed, target, tol["flat_jet_abs"], floor=1.0)
        if len(ts) < 4:
            return PairSummary(target, None, None, None, observed, ok)
        return _fitted(samples, target, lambda fit: ok)

    # Pairs with one model.jet_key have bit-identical jets and equal exact
    # targets, so each key is measured, fitted and judged once, and its
    # records and summary are repeated for every pair it names.
    key_of = model.jet_key
    label = model.label
    records: list[ConvergenceRecord] = []
    summaries: dict[str, PairSummary] = {}
    measured: dict = {}  # A key -> (rows (t, raw, normalized, abs_err), summary)
    for a, b in pairs:
        key = key_of(a, b)
        hit = measured.get(key)
        if hit is None:
            target = float(wick_a(a, b).value)
            rows = []
            for t in ts:
                raw = model.diag_jet(t, a, b)
                normalized = normalization_factor(n, t, a, b) * raw
                rows.append((t, raw, normalized, abs(normalized - target)))
            summary = judge([(t, y) for t, _, y, _ in rows], target)
            hit = measured[key] = rows, summary
        rows, summary = hit
        target = summary.target
        records.extend(
            ConvergenceRecord(label, a, b, t, raw, normalized, target, err)
            for t, raw, normalized, err in rows
        )
        summaries[f"A[{a.text()}|{b.text()}]"] = summary

    # Angles: Gram cosines against B, for pairs of at most ceil(max_degree / 2)
    # per side.  No jet order is refused; this cap decides which B checks a
    # report holds, so it stays, and the norms G(alpha, alpha) it needs
    # reach order max_degree + 1 at most.
    side_cap = (max_degree + 1) // 2
    gram_cache: dict = {}

    def gram(t, a, b):
        key = (t, key_of(a, b))
        if key not in gram_cache:
            gram_cache[key] = model.gram_entry(t, a, b)
        return gram_cache[key]

    judged: dict = {}  # B key -> summary
    for a, b in pairs:
        if a.degree == 0 or b.degree == 0:
            continue
        if a.degree > side_cap or b.degree > side_cap:
            continue
        key = key_of(a, b)
        if key not in judged:
            samples = []
            for t in ts:
                denom = math.sqrt(gram(t, a, a) * gram(t, b, b))
                if denom == 0.0:
                    raise ValueError(
                        f"Gram norms of {a.text()} and {b.text()} underflow at "
                        f"t={t}: lower t"
                    )
                samples.append((t, gram(t, a, b) / denom))
            judged[key] = judge(samples, wick_b(a, b).value)
        summaries[f"B[{a.text()}|{b.text()}]"] = judged[key]

    return SuiteResult("jet_relation", label, summaries, records)


# ---------------------------------------------------------------------------
# Geometry suites
# ---------------------------------------------------------------------------

def scalar_suite(model: SpectralModel, ts=DEFAULT_GRID,
                 tol: Mapping[str, float] = TOLERANCES) -> SuiteResult:
    """Scalar curvature from the on-diagonal expansion slope, S/6."""
    ts = tuple(sorted(ts))
    n = model.n
    samples = [
        (t, heat_power(t, 4.0 * math.pi, n / 2.0) * model.heat_diagonal(t))
        for t in ts
    ]
    target = float(model.scalar() / 6)
    result = SuiteResult("scalar", model.label, {})
    slope = _fitted(samples, target, lambda fit: _judge(
        fit.c1, target, tol["scalar_rel"], tol["scalar_flat_abs"]
    ))
    # the check judges the fitted slope, so that is what it observed
    result.summaries["scalar.slope"] = slope._replace(observed=slope.fitted_c1)
    return result


def isometry_suite(model: SpectralModel, ts=DEFAULT_GRID,
                   tol: Mapping[str, float] = TOLERANCES) -> SuiteResult:
    """Pullback metric: identity at leading order, curvature correction at O(t).

    The O(t) coefficient must match (1/3)((S/2) delta_ij - Ric_ij); flat
    models must return the identity outright at the smallest time.
    """
    ts = tuple(sorted(ts))
    n = model.n
    result = SuiteResult("isometry", model.label, {})
    pulls = [(t, pullback_metric(model, t)) for t in ts]
    half_s = model.scalar() / 2
    for i in range(n):
        for j in range(i, n):
            delta = 1.0 if i == j else 0.0
            target_c1 = float((half_s * (i == j) - model.ricci(i, j)) / 3)
            samples = [(t, p[i][j]) for t, p in pulls]
            name = f"[{i + 1},{j + 1}]"
            if model.is_flat:
                observed = samples[0][1]
                result.summaries["isometry.g" + name] = PairSummary(
                    delta, None, None, None, observed,
                    _judge(observed, delta, tol["isometry_flat_abs"], floor=1.0),
                )
                continue
            g = result.summaries["isometry.g" + name] = _fitted(
                samples, delta, lambda fit: _judge(fit.c0, delta, 0.01, floor=1.0)
            )
            c1 = g.fitted_c1
            result.summaries["isometry.c1" + name] = PairSummary(
                target_c1, g.fitted_c0, c1, g.stderr, c1,
                _judge(c1, target_c1, tol["isometry_c1_rel"], 0.01),
            )
    return result


def mean_curvature_suite(model: SpectralModel, ts=DEFAULT_GRID,
                         tol: Mapping[str, float] = TOLERANCES) -> SuiteResult:
    """sqrt(t) |H| -> sqrt((n+2)/(2n)), the universal mean-curvature length."""
    ts = tuple(sorted(ts))
    n = model.n
    target = math.sqrt((n + 2.0) / (2.0 * n))
    samples = [(t, mean_curvature_proxy(model, t)) for t in ts]
    result = SuiteResult("mean_curvature", model.label, {})
    result.summaries["mean_curvature.length"] = _fitted(
        samples, target, lambda fit: _judge(fit.c0, target, tol["mean_curvature_rel"])
    )
    return result


def umbilical_suite(model: SpectralModel, ts=DEFAULT_GRID,
                    tol: Mapping[str, float] = TOLERANCES) -> SuiteResult:
    """Third-jet umbilical limits 2t <D_i D_k D_k psi, D_j psi>.

    Targets: -3 for i=j=k, -1 for i=j!=k, 0 for i!=j.  The aggregate
    (1/n) sum_k of the i=j limits is also fitted; it comes out -(n+2)/n, so
    the umbilical shape constant is -(n+2)/(2n).
    """
    ts = tuple(sorted(ts))
    n = model.n
    rel, zero_abs = tol["umbilical_rel"], tol["umbilical_zero_abs"]
    result = SuiteResult("umbilical", model.label, {})
    first = []  # the (1, 1, k) samples, k = 1..n
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            for k in range(1, n + 1):
                target = -3.0 if i == j == k else -1.0 if i == j else 0.0
                samples = [(t, third_jet_umbilical(model, t, i, j, k)) for t in ts]
                if i == j == 1:
                    first.append(samples)
                result.summaries[f"umbilical.jet[{i},{j},{k}]"] = _fitted(
                    samples, target, lambda fit: _judge(fit.c0, target, rel, zero_abs)
                )

    agg_samples = [(t, sum(s[m][1] for s in first) / n) for m, t in enumerate(ts)]
    agg_fit = fit_on_smallest(agg_samples)
    shape_constant = agg_fit.c0 / 2.0
    formula = -(n + 2.0) / (2.0 * n)
    result.summaries["umbilical.shape_constant"] = PairSummary(
        formula, shape_constant, None, agg_fit.stderr, shape_constant,
        _judge(shape_constant, formula, 0.03),
    )
    return result


def curvature_suite(model: SpectralModel, ts=DEFAULT_GRID,
                    tol: Mapping[str, float] = TOLERANCES) -> SuiteResult:
    """Every independent entry of the Riemann tensor fitted from the
    asymptotic Gauss formula, R(i, j, k, l) with i < j, k < l and
    (i, j) <= (k, l), against the model's exact ``riemann``.

    A nonzero target is judged relative to itself (``curvature_rel``), a
    zero target within ``residual_rel`` times max |R| of the model, and on a
    flat model, where max |R| is 0, every entry within
    ``curvature_flat_abs``.  The other entries are these up to the algebraic
    symmetries, which hold exactly in the fit.
    """
    ts = tuple(sorted(ts))
    r = curvature_symmetry_residuals(model, ts)
    planes = combinations(range(model.n), 2)
    quads = [(*p, *q) for p, q in combinations_with_replacement(planes, 2)]
    targets = [float(model.riemann(*quad)) for quad in quads]
    scale = max(abs(target) for target in targets)
    zero_abs = tol["residual_rel"] * scale if scale else tol["curvature_flat_abs"]
    result = SuiteResult("curvature", model.label, {})
    for (i, j, k, l), target in zip(quads, targets):
        value = r[i][j][k][l]
        name = f"curvature.R[{i + 1},{j + 1},{k + 1},{l + 1}]"
        result.summaries[name] = PairSummary(
            target, value, None, None, value,
            _judge(value, target, tol["curvature_rel"], zero_abs),
        )
    return result


def scalar_ricci_suite(model: SpectralModel, ts=DEFAULT_GRID,
                       tol: Mapping[str, float] = TOLERANCES) -> SuiteResult:
    """Scalar and Ricci recovery S = 6 c1(diagonal), Ric = (S/2) I - 3 c1(pullback).

    Its tolerances have no config key, so it reads nothing from ``tol``."""
    ts = tuple(sorted(ts))
    report = ricci_scalar_extract(model, ts)
    result = SuiteResult("scalar_ricci", model.label, {})
    target_s = float(model.scalar())
    result.summaries["scalar_ricci.scalar"] = PairSummary(
        target_s, report.scalar_estimate, report.scalar_slope,
        report.scalar_slope_stderr, report.scalar_estimate,
        _judge(report.scalar_estimate, target_s, 0.02, 1e-5),
    )
    # an off-diagonal Ricci entry is judged on the scale of S
    zero_abs = 0.05 * max(abs(target_s), 1.0)
    n = model.n
    for i in range(n):
        for j in range(i, n):
            target = float(model.ricci(i, j))
            value = report.ricci_estimate[i][j]
            result.summaries[f"scalar_ricci.ric[{i + 1},{j + 1}]"] = PairSummary(
                target, value, None, None, value, _judge(value, target, 0.05, zero_abs)
            )
    return result
