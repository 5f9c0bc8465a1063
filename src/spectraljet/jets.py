"""Truncated multivariate Taylor arithmetic for mixed-partial extraction.

A :class:`TruncatedSeries` is a polynomial in 2n variables (n base-point
offsets ``u`` followed by n offsets ``v``) kept exactly up to a total degree.
Composing closed-form bivariate kernels into such series and reading off one
coefficient realizes D_v^beta D_u^alpha f(u, v) at u = v = 0 without any
finite differencing.

Coefficients are doubles; products are accumulated with exact (fsum)
compensation because downstream consumers subtract O(1/t) quantities where
every digit matters.
"""
from __future__ import annotations

import math

from .multiindex import MultiIndex

Exponents = tuple[int, ...]


class TruncatedSeries:
    """Sparse dense-degree-capped polynomial: {exponent tuple -> coefficient}."""

    __slots__ = ("num_vars", "max_degree", "coeffs")

    def __init__(self, num_vars: int, max_degree: int,
                 coeffs: dict[Exponents, float] | None = None):
        if num_vars < 1 or max_degree < 0:
            raise ValueError("need num_vars >= 1 and max_degree >= 0")
        self.num_vars = num_vars
        self.max_degree = max_degree
        self.coeffs: dict[Exponents, float] = {}
        if coeffs:
            for exps, c in coeffs.items():
                self._check_exponents(exps)
                if c != 0.0:
                    self.coeffs[exps] = float(c)

    def _check_exponents(self, exps: Exponents) -> None:
        if len(exps) != self.num_vars:
            raise ValueError(f"exponent tuple {exps} has wrong arity")
        if any(e < 0 for e in exps):
            raise ValueError(f"negative exponent in {exps}")
        if sum(exps) > self.max_degree:
            raise ValueError(
                f"degree {sum(exps)} exceeds truncation order {self.max_degree}"
            )

    # -- constructors -------------------------------------------------------

    @classmethod
    def constant(cls, value: float, num_vars: int, max_degree: int) -> "TruncatedSeries":
        return cls(num_vars, max_degree, {(0,) * num_vars: value})

    @classmethod
    def variable(cls, i: int, num_vars: int, max_degree: int) -> "TruncatedSeries":
        """The i-th coordinate (0-based) as a series."""
        exps = [0] * num_vars
        exps[i] = 1
        return cls(num_vars, max_degree, {tuple(exps): 1.0})

    # -- ring operations ----------------------------------------------------

    def _compatible(self, other: "TruncatedSeries") -> None:
        if self.num_vars != other.num_vars or self.max_degree != other.max_degree:
            raise ValueError("incompatible series (num_vars or max_degree differ)")

    def __add__(self, other):
        if isinstance(other, (int, float)):
            other = TruncatedSeries.constant(float(other), self.num_vars, self.max_degree)
        self._compatible(other)
        out = dict(self.coeffs)
        for exps, c in other.coeffs.items():
            s = out.get(exps, 0.0) + c
            if s == 0.0:
                out.pop(exps, None)
            else:
                out[exps] = s
        return TruncatedSeries(self.num_vars, self.max_degree, out)

    __radd__ = __add__

    def __neg__(self):
        return self.scale(-1.0)

    def __sub__(self, other):
        if isinstance(other, (int, float)):
            return self + (-float(other))
        return self + other.scale(-1.0)

    def scale(self, factor: float) -> "TruncatedSeries":
        if factor == 0.0:
            return TruncatedSeries(self.num_vars, self.max_degree)
        return TruncatedSeries(
            self.num_vars, self.max_degree,
            {e: c * factor for e, c in self.coeffs.items()},
        )

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            return self.scale(float(other))
        self._compatible(other)
        cap = self.max_degree
        # Bucket the cross products per output monomial and fsum each bucket:
        # exact compensated accumulation of the truncated convolution.
        buckets: dict[Exponents, list[float]] = {}
        right = list(other.coeffs.items())
        right_deg = [sum(e) for e, _ in right]
        for e1, c1 in self.coeffs.items():
            d1 = sum(e1)
            for (e2, c2), d2 in zip(right, right_deg):
                if d1 + d2 > cap:
                    continue
                key = tuple(a + b for a, b in zip(e1, e2))
                buckets.setdefault(key, []).append(c1 * c2)
        out = {}
        for key, vals in buckets.items():
            s = math.fsum(vals)
            if s != 0.0:
                out[key] = s
        return TruncatedSeries(self.num_vars, self.max_degree, out)

    __rmul__ = __mul__

    # -- queries ------------------------------------------------------------

    @property
    def constant_term(self) -> float:
        return self.coeffs.get((0,) * self.num_vars, 0.0)

    def coefficient(self, exps: Exponents) -> float:
        self._check_exponents(tuple(exps))
        return self.coeffs.get(tuple(exps), 0.0)

    def valuation(self) -> int:
        """Lowest total degree with a nonzero coefficient (max_degree+1 if zero)."""
        if not self.coeffs:
            return self.max_degree + 1
        return min(sum(e) for e in self.coeffs)

    def evaluate(self, point) -> float:
        """Evaluate the truncated polynomial at a point (for oracle checks)."""
        if len(point) != self.num_vars:
            raise ValueError("point has wrong arity")
        terms = []
        for exps, c in self.coeffs.items():
            val = c
            for x, e in zip(point, exps):
                if e:
                    val *= x ** e
            terms.append(val)
        return math.fsum(terms)

    def max_abs_coefficient(self) -> float:
        return max((abs(c) for c in self.coeffs.values()), default=0.0)

    def __repr__(self):
        return (f"TruncatedSeries(num_vars={self.num_vars}, "
                f"max_degree={self.max_degree}, terms={len(self.coeffs)})")


# ---------------------------------------------------------------------------
# Analytic kernels
# ---------------------------------------------------------------------------

class AnalyticKernel:
    """A univariate entire function with Taylor coefficients available at a
    requested expansion point."""

    name = "kernel"

    def coefficients(self, center: float, count: int) -> list[float]:
        raise NotImplementedError

    def __call__(self, x: float) -> float:
        raise NotImplementedError


class ExpKernel(AnalyticKernel):
    name = "exp"

    def coefficients(self, center, count):
        e = math.exp(center)
        return [e / math.factorial(k) for k in range(count)]

    def __call__(self, x):
        return math.exp(x)


class CosKernel(AnalyticKernel):
    name = "cos"

    def coefficients(self, center, count):
        c, s = math.cos(center), math.sin(center)
        cycle = (c, -s, -c, s)
        return [cycle[k % 4] / math.factorial(k) for k in range(count)]

    def __call__(self, x):
        return math.cos(x)


class SinKernel(AnalyticKernel):
    name = "sin"

    def coefficients(self, center, count):
        c, s = math.cos(center), math.sin(center)
        cycle = (s, c, -s, -c)
        return [cycle[k % 4] / math.factorial(k) for k in range(count)]

    def __call__(self, x):
        return math.sin(x)


class _OriginOnlyKernel(AnalyticKernel):
    """Kernels used only with inner series whose constant term is zero."""

    def _check_center(self, center: float) -> None:
        if center != 0.0:
            raise ValueError(f"{self.name} expands at 0 only, got center {center}")


class SqrtCosKernel(_OriginOnlyKernel):
    """c(z) = cos(sqrt z), entire in z; c(|u|^2) = cos|u| smooths the norm."""

    name = "cos_sqrt"

    def coefficients(self, center, count):
        self._check_center(center)
        return [(-1.0) ** k / math.factorial(2 * k) for k in range(count)]

    def __call__(self, z):
        if z >= 0:
            return math.cos(math.sqrt(z))
        return math.cosh(math.sqrt(-z))


class SqrtSincKernel(_OriginOnlyKernel):
    """s(z) = sin(sqrt z)/sqrt z, entire in z; s(|u|^2) |u| = sin|u|."""

    name = "sinc_sqrt"

    def coefficients(self, center, count):
        self._check_center(center)
        return [(-1.0) ** k / math.factorial(2 * k + 1) for k in range(count)]

    def __call__(self, z):
        if z == 0:
            return 1.0
        if z > 0:
            r = math.sqrt(z)
            return math.sin(r) / r
        r = math.sqrt(-z)
        return math.sinh(r) / r


class SquaredGeodesicKernel(_OriginOnlyKernel):
    """g(w) = (arccos(1 + w))^2 for w in (-2, 0].

    With w = cos r - 1 this recovers the squared geodesic distance r^2 on the
    unit sphere; g is analytic at w = 0 with coefficients
    g_m = 2 (-2)^m / (m^2 C(2m, m)) for m >= 1 (from the arcsin^2 series).
    """

    name = "squared_geodesic"

    def coefficients(self, center, count):
        self._check_center(center)
        out = [0.0]
        for m in range(1, count):
            out.append(2.0 * (-2.0) ** m / (m * m * math.comb(2 * m, m)))
        return out

    def __call__(self, w):
        x = min(1.0, max(-1.0, 1.0 + w))
        return math.acos(x) ** 2


EXP = ExpKernel()
COS = CosKernel()
SIN = SinKernel()
SQRT_COS = SqrtCosKernel()
SQRT_SINC = SqrtSincKernel()
SQUARED_GEODESIC = SquaredGeodesicKernel()


def compose_coefficients(coeffs: list[float], inner: TruncatedSeries,
                         shift: float = 0.0) -> TruncatedSeries:
    """sum_k coeffs[k] * (inner - shift)^k, truncated at inner.max_degree."""
    delta = inner - shift if shift else inner
    out = TruncatedSeries.constant(coeffs[0], inner.num_vars, inner.max_degree)
    power = TruncatedSeries.constant(1.0, inner.num_vars, inner.max_degree)
    for k in range(1, len(coeffs)):
        power = power * delta
        if not power.coeffs:
            break
        if coeffs[k] != 0.0:
            out = out + power.scale(coeffs[k])
    return out


def compose_univariate(kernel: AnalyticKernel, inner: TruncatedSeries) -> TruncatedSeries:
    """Compose kernel(inner), expanding the kernel about inner's constant term.

    Re-centering is what lets e.g. cos(r) pass through the origin of the
    exponential chart, where r itself is not smooth: only entire functions of
    squared norms are ever composed.
    """
    center = inner.constant_term
    count = inner.max_degree + 1
    coeffs = kernel.coefficients(center, count)
    return compose_coefficients(coeffs, inner, shift=center)


def extract_mixed_partial(series: TruncatedSeries, alpha: MultiIndex,
                          beta: MultiIndex) -> float:
    """D_v^beta D_u^alpha of the represented function at u = v = 0.

    The series lives in 2n variables (u then v); the mixed partial is the
    coefficient at exponent (alpha, beta) times alpha! beta! (products of
    factorials of the multiplicities).
    """
    if alpha.n != beta.n:
        raise ValueError("alpha and beta must share the ambient dimension")
    if 2 * alpha.n != series.num_vars:
        raise ValueError(
            f"series has {series.num_vars} variables, expected {2 * alpha.n}"
        )
    total = alpha.degree + beta.degree
    if total > series.max_degree:
        raise ValueError(
            f"jet order {total} exceeds series truncation {series.max_degree}"
        )
    exps = alpha.counts + beta.counts
    coeff = series.coeffs.get(exps, 0.0)
    factor = 1
    for m in exps:
        factor *= math.factorial(m)
    return coeff * factor
