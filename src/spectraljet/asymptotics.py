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
from itertools import combinations, combinations_with_replacement, product
from operator import mul
from typing import NamedTuple

from .defaults import TIME_GRID, TOLERANCES
from .multiindex import MultiIndex, enumerate_multiindices, from_indices
from .wick import wick_a, wick_b
from .manifolds import (
    ScalarRicciReport,
    SpectralModel,
    curvature_symmetry_residuals,
    heat_power,
    mean_curvature_proxy,
    ricci_scalar_extract,
    third_jet_umbilical,
)


# Each fit reads only the five smallest times of its grid, so a longer grid
# adds CSV rows, not checks; past this count a grid only fills memory.
MAX_GRID_COUNT = 1000


def time_grid(start: float = TIME_GRID["start"], ratio: float = TIME_GRID["ratio"],
              count: int = TIME_GRID["count"]) -> tuple[float, ...]:
    """Geometric grid t_m = start * ratio^m, m = 0..count-1, sorted ascending.

    Refuses, before any time is built, more than MAX_GRID_COUNT times and a
    smallest time start * ratio^(count - 1) that is not a positive float.
    """
    if start <= 0 or not 0 < ratio < 1 or count < 1:
        raise ValueError("need start > 0, 0 < ratio < 1, count >= 1")
    grid = f"t-grid {start!r}:{ratio!r}:{count}"
    if count > MAX_GRID_COUNT:
        raise ValueError(
            f"{grid} has {count} times, above the limit of {MAX_GRID_COUNT}; "
            "lower the count"
        )
    if not start * ratio ** (count - 1) > 0:
        raise ValueError(
            f"{grid} has a smallest time start * ratio**(count - 1) that "
            "underflows to 0; raise the start or the ratio, or lower the count"
        )
    return tuple(sorted(start * ratio**m for m in range(count)))


DEFAULT_GRID = time_grid()


def _require_fit_grid(ts) -> None:
    """The one refusal of a grid too short for a fitted limit."""
    if len(ts) < 4:
        raise ValueError(
            "fitted limits need a t-grid of at least 4 times "
            f"(--t-grid start:ratio:count), got {len(ts)}"
        )


def normalization_factor(n: int, t: float, alpha: MultiIndex, beta: MultiIndex) -> float:
    """(4 pi t)^(n/2) (2t)^floor((|alpha|+|beta|)/2), the jet normalization."""
    half = (alpha.degree + beta.degree) // 2
    return heat_power(t, 4.0 * math.pi, n / 2.0) * heat_power(t, 2.0, half)


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
    grid, shift = _dyadic(ts)
    powers = tuple(tuple(g**j for j in range(size)) for g in grid)
    # V = W D^-1 for the integer W_ij = grid_i^j and D = diag(2**(j * shift)),
    # so (V^T V)^-1 V^T = D (W^T W)^-1 W^T.  Gauss-Jordan on [W^T W | W^T]
    # in exact rationals; W^T W is positive definite for distinct times, so
    # every pivot is nonzero.
    aug = [
        [sum(row[p] * row[q] for row in powers) for q in range(size)]
        + [row[p] for row in powers]
        for p in range(size)
    ]
    for p in range(size):
        pivot = aug[p][p]
        aug[p] = [Fraction(x, pivot) for x in aug[p]]
        for q in range(size):
            if q != p and aug[q][p]:
                factor = aug[q][p]
                aug[q] = [x - factor * y for x, y in zip(aug[q], aug[p])]
    pinv = [[x * 2 ** (p * shift) for x in row[size:]] for p, row in enumerate(aug)]
    denom = math.lcm(*(x.denominator for row in pinv for x in row))
    rows = tuple(
        tuple(x.numerator * (denom // x.denominator) for x in row) for row in pinv
    )
    return rows, denom, powers, shift


def limit_fit(samples) -> LimitFit:
    """Quadratic-in-t least squares on (t, y) samples, solved exactly.

    Each coefficient is the correctly rounded value of the exact rational
    least-squares solution: one integer dot product of the memoized exact
    operator of the grid with the samples, then one integer division.
    stderr is the root mean square of the exact residuals of the rounded
    coefficients, so samples that are all zero fit 0 exactly.  A NaN or
    infinite sample gives a NaN fit.

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
    if not any(ys):  # the forced zeros of most jet pairs
        return LimitFit(0.0, 0.0, 0.0, 0.0, ts)
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
    """The named checks of one suite.  The jet-relation suite also keeps
    every measurement behind them in ``records``: one (alpha, beta, rows)
    per pair, in pair order, where ``rows`` holds a (t, raw, normalized,
    target, abs_err) tuple per time and is one list, shared by every pair
    of the pair's jet key."""

    name: str
    model: str
    summaries: dict[str, PairSummary]
    records: Sequence[tuple[MultiIndex, MultiIndex, list[tuple]]] = ()

    @property
    def passed(self) -> bool:
        return all(s.passes for s in self.summaries.values())

    def summary_dict(self) -> dict:
        """One dict per distinct summary object, shared by all its names, so
        that the report writer renders each once."""
        dicts: dict = {}  # id of a summary -> its dict
        return {name: dicts.get(id(s)) or dicts.setdefault(id(s), s.as_dict())
                for name, s in self.summaries.items()}


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
    """len(_canonical_pairs(n, max_degree)) in closed form.  The ordered
    pairs with |alpha| + |beta| <= D are the points of Z_+^(2n) of degree
    <= D; the diagonal alpha = beta needs 2|alpha| <= D."""
    return (math.comb(max_degree + 2 * n, 2 * n)
            + math.comb(max_degree // 2 + n, n)) // 2


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
    MAX_JET_PAIRS pairs are refused before any is enumerated.  Each jet
    key is read once per t, each norm G(alpha, alpha) is formed once per t,
    and each judged key's Gram entries come from its raw jets, as the same
    float products that ``gram_entry`` makes.  Each key's rows are built
    once, and its pairs' records share that one list.
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
    if use_fit:
        _require_fit_grid(ts)
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

    # Angles: Gram cosines against B, for pairs of positive degrees of at
    # most ceil(max_degree / 2) per side.  No jet order is refused; this cap
    # decides which B checks a report holds, so it stays.  The norms
    # G(alpha, alpha) reach order max_degree + 1 at most.  Past degree 0 a
    # Gram entry is gram_prefactor(t) * J, with no constant mode to drop.
    side_cap = (max_degree + 1) // 2
    prefactors: list[float] = []  # gram_prefactor(t) over ts, from the first norm
    # Pairs with one model.jet_key have bit-identical jets, equal exact
    # targets and equal degrees, so the first pair of each key is measured
    # and judged, and later pairs share its rows and summaries.
    key_of = model.jet_key
    read = model.diag_jet
    raws: dict = {}  # jet key -> its raw jets over ts
    norms: dict = {}  # jet key of (alpha, alpha) -> G(alpha, alpha) over ts
    scales: dict = {}  # |alpha| + |beta| -> normalization_factor over ts
    # each multi-index's text, for the check names
    texts = {m: m.text() for m in {m for pair in pairs for m in pair}}

    def raw_jets(a, b, key):
        got = raws.get(key)
        if got is None:
            got = raws[key] = [read(t, a, b) for t in ts]
        return got

    def norm(a):
        key = key_of(a, a)
        got = norms.get(key)
        if got is None:
            raw = raw_jets(a, a, key)
            if not prefactors:
                prefactors.extend(map(model.gram_prefactor, ts))
            got = norms[key] = [p * j for p, j in zip(prefactors, raw)]
        return got

    records = []
    summaries: dict[str, PairSummary] = {}
    measured: dict = {}  # jet key -> (rows, A, B)
    for a, b in pairs:
        key = key_of(a, b)
        hit = measured.get(key)
        if hit is None:
            target = float(wick_a(a, b).value)
            raw = raw_jets(a, b, key)
            scale = scales.get(a.degree + b.degree)
            if scale is None:
                scale = scales[a.degree + b.degree] = [
                    normalization_factor(n, t, a, b) for t in ts]
            rows = []
            for t, j, factor in zip(ts, raw, scale):
                normalized = factor * j
                rows.append((t, j, normalized, target, abs(normalized - target)))
            summary = judge([(t, y) for t, _, y, _, _ in rows], target)
            angle = None  # no B check
            if 0 < a.degree <= side_cap and 0 < b.degree <= side_cap:
                samples = []
                norms_a, norms_b = norm(a), norm(b)
                for t, p, j, g_aa, g_bb in zip(ts, prefactors, raw, norms_a, norms_b):
                    denom = math.sqrt(g_aa * g_bb)
                    if denom == 0.0:
                        raise ValueError(
                            f"Gram norms of {a.text()} and {b.text()} "
                            f"underflow at t={t}: lower t"
                        )
                    samples.append((t, p * j / denom))
                angle = judge(samples, wick_b(a, b).value)
            hit = measured[key] = rows, summary, angle
        rows, summary, angle = hit
        records.append((a, b, rows))
        name = f"{texts[a]}|{texts[b]}]"
        summaries["A[" + name] = summary
        if angle is not None:
            summaries["B[" + name] = angle

    return SuiteResult("jet_relation", model.label, summaries, records)


# ---------------------------------------------------------------------------
# Geometry suites
# ---------------------------------------------------------------------------

def scalar_suite(model: SpectralModel, report: ScalarRicciReport,
                 tol: Mapping[str, float] = TOLERANCES) -> SuiteResult:
    """Scalar curvature from the on-diagonal expansion slope, S/6: the check
    judges the fitted slope of ``report``, so that is what it observed."""
    fit = report.diagonal
    target = float(model.scalar() / 6)
    passes = _judge(fit.c1, target, tol["scalar_rel"], tol["scalar_flat_abs"])
    return SuiteResult("scalar", model.label, {
        "scalar.slope": PairSummary(target, fit.c0, fit.c1, fit.stderr, fit.c1, passes),
    })


def isometry_suite(model: SpectralModel, report: ScalarRicciReport,
                   tol: Mapping[str, float] = TOLERANCES) -> SuiteResult:
    """Pullback metric: A(e_i, e_j) = delta_ij at leading order, curvature
    correction at O(t), judged on the fits of ``report``.

    The O(t) coefficient must match (1/3)((S/2) delta_ij - Ric_ij); flat
    models must return the identity outright at the smallest time.
    """
    units = [from_indices([i], model.n) for i in range(1, model.n + 1)]
    result = SuiteResult("isometry", model.label, {})
    half_s = model.scalar() / 2
    for i, e_i in enumerate(units):
        for j in range(i, model.n):
            target = float(wick_a(e_i, units[j]).value)
            observed = report.smallest_pullback[i][j]
            name = f"[{i + 1},{j + 1}]"
            if model.is_flat:
                result.summaries["isometry.g" + name] = PairSummary(
                    target, None, None, None, observed,
                    _judge(observed, target, tol["isometry_flat_abs"], floor=1.0),
                )
                continue
            fit = report.pullback[i][j]
            result.summaries["isometry.g" + name] = PairSummary(
                target, fit.c0, fit.c1, fit.stderr, observed,
                _judge(fit.c0, target, 0.01, floor=1.0),
            )
            target_c1 = float((half_s * (i == j) - model.ricci(i, j)) / 3)
            result.summaries["isometry.c1" + name] = PairSummary(
                target_c1, fit.c0, fit.c1, fit.stderr, fit.c1,
                _judge(fit.c1, target_c1, tol["isometry_c1_rel"], 0.01),
            )
    return result


def mean_curvature_suite(model: SpectralModel, ts=DEFAULT_GRID,
                         tol: Mapping[str, float] = TOLERANCES) -> SuiteResult:
    """sqrt(t) |H| -> sqrt(sum_{k,l} A((k,k),(l,l)) / (2 n^2)) =
    sqrt((n+2)/(2n)), the universal mean-curvature length."""
    ts = tuple(sorted(ts))
    n = model.n
    pure = [from_indices([k, k], n) for k in range(1, n + 1)]
    total = sum(wick_a(a, b).value for a in pure for b in pure)
    target = math.sqrt(total / (2 * n * n))
    samples = [(t, mean_curvature_proxy(model, t)) for t in ts]
    result = SuiteResult("mean_curvature", model.label, {})
    result.summaries["mean_curvature.length"] = _fitted(
        samples, target, lambda fit: _judge(fit.c0, target, tol["mean_curvature_rel"])
    )
    return result


def umbilical_suite(model: SpectralModel, ts=DEFAULT_GRID,
                    tol: Mapping[str, float] = TOLERANCES) -> SuiteResult:
    """Third-jet umbilical limits 2t <D_i D_k D_k psi, D_j psi>.

    Targets A((i,k,k),(j)): -3 for i=j=k, -1 for i=j!=k, 0 for i!=j.  The
    aggregate (1/n) sum_k of the i=j=1 limits is also fitted; half the mean
    of their targets, -(n+2)/(2n), is the umbilical shape constant.
    """
    ts = tuple(sorted(ts))
    n = model.n
    rel, zero_abs = tol["umbilical_rel"], tol["umbilical_zero_abs"]
    result = SuiteResult("umbilical", model.label, {})
    first = []  # the (1, 1, k) samples, k = 1..n
    # triples with one model.jet_key share jets and targets: one fit per key
    measured: dict = {}  # jet key -> (samples, summary)
    for i, j, k in product(range(1, n + 1), repeat=3):
        a, b = from_indices([i, k, k], n), from_indices([j], n)
        key = model.jet_key(a, b)
        if key not in measured:
            target = float(wick_a(a, b).value)
            samples = [(t, third_jet_umbilical(model, t, i, j, k)) for t in ts]
            measured[key] = samples, _fitted(
                samples, target, lambda fit: _judge(fit.c0, target, rel, zero_abs))
        samples, summary = measured[key]
        if i == j == 1:
            first.append(samples)
        result.summaries[f"umbilical.jet[{i},{j},{k}]"] = summary

    agg_samples = [(t, sum(s[m][1] for s in first) / n) for m, t in enumerate(ts)]
    agg_fit = fit_on_smallest(agg_samples)
    shape_constant = agg_fit.c0 / 2.0
    formula = sum(result.summaries[f"umbilical.jet[1,1,{k}]"].target
                  for k in range(1, n + 1)) / n / 2
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
    flat model (``model.is_flat``) every entry within
    ``curvature_flat_abs``.  The other entries are these up to the algebraic
    symmetries, which hold exactly in the fit.
    """
    ts = tuple(sorted(ts))
    r = curvature_symmetry_residuals(model, ts)
    planes = combinations(range(model.n), 2)
    quads = [(*p, *q) for p, q in combinations_with_replacement(planes, 2)]
    targets = [float(model.riemann(*quad)) for quad in quads]
    if model.is_flat:
        zero_abs = tol["curvature_flat_abs"]
    else:
        zero_abs = tol["residual_rel"] * max(abs(target) for target in targets)
    result = SuiteResult("curvature", model.label, {})
    for (i, j, k, l), target in zip(quads, targets):
        value = r[i][j][k][l]
        name = f"curvature.R[{i + 1},{j + 1},{k + 1},{l + 1}]"
        result.summaries[name] = PairSummary(
            target, value, None, None, value,
            _judge(value, target, tol["curvature_rel"], zero_abs),
        )
    return result


def scalar_ricci_suite(model: SpectralModel, report: ScalarRicciReport,
                       tol: Mapping[str, float] = TOLERANCES) -> SuiteResult:
    """Scalar and Ricci recovery S = 6 c1(diagonal), Ric = (S/2) I - 3 c1(pullback),
    read off ``report``; its tolerances have no config key, so it reads
    nothing from ``tol``."""
    result = SuiteResult("scalar_ricci", model.label, {})
    target_s = float(model.scalar())
    result.summaries["scalar_ricci.scalar"] = PairSummary(
        target_s, report.scalar_estimate, report.diagonal.c1,
        report.diagonal.stderr, report.scalar_estimate,
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


def curvature_suites(model: SpectralModel, ts=DEFAULT_GRID,
                     tol: Mapping[str, float] = TOLERANCES) -> list[SuiteResult]:
    """The suites of the ``curvature`` command in its order, the last two
    where n >= 2; the scalar, isometry and scalar_ricci suites judge one
    ``ricci_scalar_extract`` report.  Refuses a grid of fewer than 4 times."""
    _require_fit_grid(ts)
    report = ricci_scalar_extract(model, ts)
    suites = [scalar_suite(model, report, tol), isometry_suite(model, report, tol),
              mean_curvature_suite(model, ts, tol), umbilical_suite(model, ts, tol)]
    if model.n >= 2:
        suites += [curvature_suite(model, ts, tol),
                   scalar_ricci_suite(model, report, tol)]
    return suites
