"""Extraction of t -> 0+ limits from finite-time measurements.

Every asymptotic identity is verified at desk scale the same way: measure on
a geometric grid of heat times, fit a low-order polynomial in t, and compare
the constant term against its exact target.  Flat models need no fit (their
corrections are exponentially small, not O(t)), so they are compared directly
at the smallest grid time.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

from .multiindex import MultiIndex, enumerate_multiindices
from .wick import wick_a, wick_b
from .manifolds import (
    DEFAULT_POLICY,
    SpectralModel,
    TruncationPolicy,
    curvature_symmetry_residuals,
    mean_curvature_proxy,
    ricci_scalar_extract,
    third_jet_umbilical,
)


def time_grid(start: float = 0.1, ratio: float = 0.5, count: int = 7) -> tuple[float, ...]:
    """Geometric grid t_m = start * ratio^m, m = 0..count-1, sorted ascending."""
    if start <= 0 or not 0 < ratio < 1 or count < 1:
        raise ValueError("need start > 0, 0 < ratio < 1, count >= 1")
    return tuple(sorted(start * ratio**m for m in range(count)))


DEFAULT_GRID = time_grid()


def normalization_factor(n: int, t: float, alpha: MultiIndex, beta: MultiIndex) -> float:
    """(4 pi t)^(n/2) (2t)^floor((|alpha|+|beta|)/2), the jet normalization."""
    half = (alpha.degree + beta.degree) // 2
    return (4.0 * math.pi * t) ** (n / 2.0) * (2.0 * t) ** half


@dataclass(frozen=True)
class ConvergenceRecord:
    """One (model, alpha, beta, t) measurement against its Wick target."""

    model: str
    alpha: MultiIndex
    beta: MultiIndex
    t: float
    raw_jet: float
    normalized: float
    target: float
    abs_err: float


@dataclass(frozen=True)
class LimitFit:
    """Least-squares fit y ~ c0 + c1 t (+ c2 t^2); c0 is the reported limit."""

    c0: float
    c1: float
    c2: float
    stderr: float
    grid: tuple[float, ...]


def limit_fit(samples, order: int = 2) -> LimitFit:
    """Polynomial-in-t least squares on (t, y) samples.

    Refuses grids with fewer than order + 2 points or non-distinct or
    non-positive times.
    """
    import numpy as np

    if order not in (1, 2):
        raise ValueError("fit order must be 1 or 2")
    samples = sorted(samples)
    ts = np.array([t for t, _ in samples], dtype=float)
    ys = np.array([y for _, y in samples], dtype=float)
    if len(ts) < order + 2:
        raise ValueError(f"need at least {order + 2} samples for order {order}")
    if np.any(ts <= 0) or len(set(ts.tolist())) != len(ts):
        raise ValueError("times must be distinct and positive")
    design = np.vander(ts, order + 1, increasing=True)
    coeffs, _, _, _ = np.linalg.lstsq(design, ys, rcond=None)
    resid = ys - design @ coeffs
    stderr = float(np.sqrt(np.mean(resid**2)))
    c0, c1 = float(coeffs[0]), float(coeffs[1])
    c2 = float(coeffs[2]) if order == 2 else 0.0
    return LimitFit(c0, c1, c2, stderr, tuple(ts.tolist()))


def fit_on_smallest(samples, order: int = 2, points: int = 5) -> LimitFit:
    """Fit on the ``points`` smallest-t samples (the asymptotic regime)."""
    samples = sorted(samples)[:points]
    return limit_fit(samples, order=order)


@dataclass(frozen=True)
class PairSummary:
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


def _within(value: float, target: float, rel: float, abs_floor: float) -> bool:
    return abs(value - target) <= max(rel * abs(target), abs_floor)


@dataclass
class JetRelationResult:
    model: str
    max_degree: int
    grid: tuple[float, ...]
    records: list[ConvergenceRecord]
    summaries: dict[str, PairSummary]
    passed: bool

    def summary_dict(self) -> dict:
        return {name: s.as_dict() for name, s in self.summaries.items()}


def _canonical_pairs(n: int, max_degree: int):
    basis = enumerate_multiindices(n, max_degree)
    pairs = []
    for i, a in enumerate(basis):
        for b in basis[i:]:
            if a.degree + b.degree <= max_degree:
                pairs.append((a, b))
    return pairs


def jet_relation_suite(
    model: SpectralModel,
    max_degree: int,
    ts=DEFAULT_GRID,
    policy: TruncationPolicy = DEFAULT_POLICY,
    fit_points: int = 5,
    flat_abs_tol: float = 1e-6,
    fit_rel_tol: float = 0.01,
) -> JetRelationResult:
    """Normalized jets and angles against their exact Wick targets.

    Covers every unordered pair with |alpha| + |beta| <= max_degree.  The
    normalized jet (4 pi t)^(n/2) (2t)^floor(.) J must converge to A(alpha,
    beta); for pairs of positive degrees the Gram cosine must converge to
    B(alpha, beta).  Flat models are compared directly at the smallest time,
    curved ones through the fitted limit.
    """
    if max_degree > 6:
        raise ValueError("jet relation suite supports max_degree <= 6")
    ts = tuple(sorted(ts))
    n = model.n
    pairs = _canonical_pairs(n, max_degree)
    use_fit = not model.is_flat
    if use_fit and len(ts) < 4:
        raise ValueError("curved models need a grid with at least 4 times")

    def judge(samples, target) -> PairSummary:
        # Flat models pass on the smallest-t sample, curved ones on the
        # fitted limit; both report the fit whenever the grid allows one.
        observed = samples[0][1]
        fit = None
        if len(ts) >= 4:
            fit = fit_on_smallest(samples, order=2, points=fit_points)
        if use_fit:
            ok = _within(fit.c0, target, fit_rel_tol, fit_rel_tol)
        else:
            ok = abs(observed - target) < flat_abs_tol
        if fit is None:
            return PairSummary(target, None, None, None, observed, ok)
        return PairSummary(target, fit.c0, fit.c1, fit.stderr, observed, ok)

    records: list[ConvergenceRecord] = []
    summaries: dict[str, PairSummary] = {}

    for a, b in pairs:
        target = float(wick_a(a, b).value)
        samples = []
        for t in ts:
            raw = model.diag_jet(t, a, b, policy)
            normalized = normalization_factor(n, t, a, b) * raw
            records.append(
                ConvergenceRecord(
                    model=model.label,
                    alpha=a,
                    beta=b,
                    t=t,
                    raw_jet=raw,
                    normalized=normalized,
                    target=target,
                    abs_err=abs(normalized - target),
                )
            )
            samples.append((t, normalized))
        summaries[f"A[{a.text()}|{b.text()}]"] = judge(samples, target)

    # Angles: Gram cosines against B.  The denominators need G(alpha, alpha),
    # so angle pairs are capped per side at ceil(max_degree / 2) to keep all
    # required jets within the supported order.
    gram_cache: dict = {}

    def gram(t, a, b):
        key = (t, a.counts, b.counts)
        if key not in gram_cache:
            gram_cache[key] = model.gram_entry(t, a, b, policy)
        return gram_cache[key]

    side_cap = (max_degree + 1) // 2
    for a, b in pairs:
        if a.degree == 0 or b.degree == 0:
            continue
        if a.degree > side_cap or b.degree > side_cap:
            continue
        samples = []
        for t in ts:
            denom = math.sqrt(gram(t, a, a) * gram(t, b, b))
            if denom == 0.0:
                raise ValueError(
                    f"Gram norms of {a.text()} and {b.text()} underflow at "
                    f"t={t}: lower t"
                )
            samples.append((t, gram(t, a, b) / denom))
        summaries[f"B[{a.text()}|{b.text()}]"] = judge(samples, wick_b(a, b).value)

    return JetRelationResult(
        model=model.label,
        max_degree=max_degree,
        grid=ts,
        records=records,
        summaries=summaries,
        passed=all(s.passes for s in summaries.values()),
    )


# ---------------------------------------------------------------------------
# Geometry suites
# ---------------------------------------------------------------------------

@dataclass
class SuiteResult:
    name: str
    model: str
    summaries: dict[str, PairSummary] = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(s.passes for s in self.summaries.values())

    def summary_dict(self) -> dict:
        return {name: s.as_dict() for name, s in self.summaries.items()}


def scalar_suite(model: SpectralModel, ts=DEFAULT_GRID,
                 policy: TruncationPolicy = DEFAULT_POLICY,
                 rel_tol: float = 0.02, flat_abs_tol: float = 1e-6) -> SuiteResult:
    """Scalar curvature from the on-diagonal expansion slope, S/6."""
    ts = tuple(sorted(ts))
    n = model.n
    samples = [
        (t, (4.0 * math.pi * t) ** (n / 2.0) * model.heat_diagonal(t, policy))
        for t in ts
    ]
    fit = fit_on_smallest(samples, order=2)
    target = model.scalar_curvature / 6.0
    if target == 0.0:
        ok = abs(fit.c1) <= flat_abs_tol
    else:
        ok = _within(fit.c1, target, rel_tol, 0.0)
    result = SuiteResult("scalar", model.label)
    result.summaries["scalar.slope"] = PairSummary(
        target, fit.c0, fit.c1, fit.stderr, samples[0][1], ok
    )
    return result


def isometry_suite(model: SpectralModel, ts=DEFAULT_GRID,
                   policy: TruncationPolicy = DEFAULT_POLICY,
                   c1_rel_tol: float = 0.05, flat_abs_tol: float = 1e-8) -> SuiteResult:
    """Pullback metric: identity at leading order, curvature correction at O(t).

    The O(t) coefficient must match (1/3)((S/2) delta_ij - Ric_ij); flat
    models must return the identity outright at the smallest time.
    """
    from .manifolds import pullback_metric

    ts = tuple(sorted(ts))
    n = model.n
    result = SuiteResult("isometry", model.label)
    pulls = [(t, pullback_metric(model, t, policy)) for t in ts]
    for i in range(n):
        for j in range(i, n):
            delta = 1.0 if i == j else 0.0
            target_c1 = (
                model.scalar_curvature / 2.0 * delta - model.ricci_coefficient * delta
            ) / 3.0
            samples = [(t, float(p[i, j])) for t, p in pulls]
            observed = samples[0][1]
            if model.is_flat:
                ok = abs(observed - delta) <= flat_abs_tol
                result.summaries[f"isometry.g[{i + 1},{j + 1}]"] = PairSummary(
                    delta, None, None, None, observed, ok
                )
            else:
                fit = fit_on_smallest(samples, order=2)
                ok_c0 = _within(fit.c0, delta, 0.0, 0.01)
                if target_c1 == 0.0:
                    ok_c1 = abs(fit.c1) <= 0.01
                else:
                    ok_c1 = _within(fit.c1, target_c1, c1_rel_tol, 0.0)
                result.summaries[f"isometry.g[{i + 1},{j + 1}]"] = PairSummary(
                    delta, fit.c0, fit.c1, fit.stderr, observed, ok_c0
                )
                result.summaries[f"isometry.c1[{i + 1},{j + 1}]"] = PairSummary(
                    target_c1, fit.c1, None, fit.stderr, fit.c1, ok_c1
                )
    return result


def mean_curvature_suite(model: SpectralModel, ts=DEFAULT_GRID,
                         policy: TruncationPolicy = DEFAULT_POLICY,
                         rel_tol: float = 0.02) -> SuiteResult:
    """sqrt(t) |H| -> sqrt((n+2)/(2n)), the universal mean-curvature length."""
    ts = tuple(sorted(ts))
    n = model.n
    target = math.sqrt((n + 2.0) / (2.0 * n))
    samples = [(t, mean_curvature_proxy(model, t, policy)) for t in ts]
    fit = fit_on_smallest(samples, order=2)
    ok = _within(fit.c0, target, rel_tol, 0.0)
    result = SuiteResult("mean_curvature", model.label)
    result.summaries["mean_curvature.length"] = PairSummary(
        target, fit.c0, fit.c1, fit.stderr, samples[0][1], ok
    )
    return result


def umbilical_suite(model: SpectralModel, ts=DEFAULT_GRID,
                    policy: TruncationPolicy = DEFAULT_POLICY,
                    rel_tol: float = 0.03, zero_abs_tol: float = 0.05) -> SuiteResult:
    """Third-jet umbilical limits 2t <D_i D_k D_k psi, D_j psi>.

    Targets: -3 for i=j=k, -1 for i=j!=k, 0 for i!=j.  The aggregate
    (1/n) sum_k of the i=j limits is also fitted; it comes out -(n+2)/n, so
    the umbilical shape constant is -(n+2)/(2n) (reported alongside the
    alternative -3/2, which agrees only at n = 1; the numerical heat kernel
    is the arbiter between the two).
    """
    ts = tuple(sorted(ts))
    n = model.n
    result = SuiteResult("umbilical", model.label)

    def classify(i, j, k):
        if i == j == k:
            return -3.0
        if i == j:
            return -1.0
        return 0.0

    for i in range(1, n + 1):
        for j in range(1, n + 1):
            for k in range(1, n + 1):
                target = classify(i, j, k)
                samples = [
                    (t, third_jet_umbilical(model, t, i, j, k, policy)) for t in ts
                ]
                fit = fit_on_smallest(samples, order=2)
                if target == 0.0:
                    ok = abs(fit.c0) <= zero_abs_tol
                else:
                    ok = _within(fit.c0, target, rel_tol, 0.0)
                result.summaries[f"umbilical.jet[{i},{j},{k}]"] = PairSummary(
                    target, fit.c0, fit.c1, fit.stderr, samples[0][1], ok
                )

    # aggregate umbilical constant (no pass condition on the contested value)
    agg_samples = []
    for t in ts:
        acc = sum(third_jet_umbilical(model, t, 1, 1, k, policy) for k in range(1, n + 1))
        agg_samples.append((t, acc / n))
    agg_fit = fit_on_smallest(agg_samples, order=2)
    shape_constant = agg_fit.c0 / 2.0
    formula = -(n + 2.0) / (2.0 * n)
    result.summaries["umbilical.shape_constant"] = PairSummary(
        formula, shape_constant, None, agg_fit.stderr, shape_constant,
        _within(shape_constant, formula, 0.03, 0.0),
    )
    result.summaries["umbilical.shape_constant_alternative"] = PairSummary(
        -1.5, shape_constant, None, agg_fit.stderr, shape_constant, True
    )
    return result


def curvature_suite(model: SpectralModel, ts=DEFAULT_GRID,
                    policy: TruncationPolicy = DEFAULT_POLICY,
                    rel_tol: float = 0.05, flat_abs_tol: float = 1e-6,
                    residual_rel_tol: float = 1e-3) -> SuiteResult:
    """Riemann tensor from the asymptotic Gauss formula, plus its symmetries."""
    import numpy as np

    if model.n < 2:
        raise ValueError("curvature suite needs dimension at least 2")
    ts = tuple(sorted(ts))
    n = model.n
    result = SuiteResult("curvature", model.label)
    report = curvature_symmetry_residuals(model, ts, policy)
    r = report.tensor
    K = model.sectional_curvature
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            value = float(r[i - 1, j - 1, j - 1, i - 1])
            if model.is_flat:
                ok = abs(value) <= flat_abs_tol
            else:
                ok = _within(value, K, rel_tol, 0.0)
            result.summaries[f"curvature.sectional[{i},{j}]"] = PairSummary(
                K, value, None, None, value, ok
            )
    if model.is_flat:
        max_entry = float(np.max(np.abs(r)))
        result.summaries["curvature.max_abs"] = PairSummary(
            0.0, max_entry, None, None, max_entry, max_entry <= flat_abs_tol
        )
    else:
        scale = max(report.max_abs, 1e-30)
        for name, resid in (
            ("antisymmetry_first", report.antisymmetry_first),
            ("antisymmetry_last", report.antisymmetry_last),
            ("pair_symmetry", report.pair_symmetry),
            ("first_bianchi", report.first_bianchi),
        ):
            rel = resid / scale
            result.summaries[f"curvature.residual.{name}"] = PairSummary(
                0.0, rel, None, None, rel, rel < residual_rel_tol
            )
    return result


def scalar_ricci_suite(model: SpectralModel, ts=DEFAULT_GRID,
                       policy: TruncationPolicy = DEFAULT_POLICY,
                       rel_tol: float = 0.05) -> SuiteResult:
    """Scalar and Ricci recovery S = 6 c1(diagonal), Ric = (S/2) I - 3 c1(pullback)."""
    ts = tuple(sorted(ts))
    report = ricci_scalar_extract(model, ts, policy)
    result = SuiteResult("scalar_ricci", model.label)
    target_s = model.scalar_curvature
    if target_s == 0.0:
        ok_s = abs(report.scalar_estimate) <= 1e-5
    else:
        ok_s = _within(report.scalar_estimate, target_s, 0.02, 0.0)
    result.summaries["scalar_ricci.scalar"] = PairSummary(
        target_s, report.scalar_estimate, report.scalar_slope,
        report.scalar_slope_stderr, report.scalar_estimate, ok_s,
    )
    n = model.n
    for i in range(n):
        for j in range(i, n):
            target = model.ricci_coefficient if i == j else 0.0
            value = float(report.ricci_estimate[i, j])
            if target == 0.0:
                ok = abs(value) <= max(0.05 * max(abs(target_s), 1.0), 1e-5)
            else:
                ok = _within(value, target, rel_tol, 0.0)
            result.summaries[f"scalar_ricci.ric[{i + 1},{j + 1}]"] = PairSummary(
                target, value, None, None, value, ok
            )
    return result
