"""Exact sphere jets through three rotation invariants.

On a sphere of radius 1 the cosine of the angle between exp(u) and exp(v)
depends on the chart offsets u, v in R^n only through x = |u|^2, y = |v|^2
and z = <u, v>:

    cos Theta = c(x) c(y) + s(x) s(y) z,   c(x) = cos sqrt x,
                                           s(x) = sin sqrt x / sqrt x,

so every power of w = cos Theta - 1 is a polynomial in (x, y, z) with
rational coefficients, whatever n is.  A series here is a dict
{(a, b, c): Fraction or int} for the monomials x^a y^b z^c, truncated at a
weighted degree a + b + c <= cap; a monomial has degree 2(a + b + c) in
(u, v).  ``extract_mixed_partial`` reads D_u^alpha D_v^beta at u = v = 0
off such a series exactly.  A radius a scales a jet of order k by a^-k.
"""
from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from itertools import product

from .multiindex import MultiIndex

Series = dict[tuple[int, int, int], "Fraction | int"]

X: Series = {(1, 0, 0): 1}
Y: Series = {(0, 1, 0): 1}
Z: Series = {(0, 0, 1): 1}


def series_add(p: Series, q: Series) -> Series:
    out = dict(p)
    for key, value in q.items():
        total = out.get(key, 0) + value
        if total:
            out[key] = total
        else:
            out.pop(key, None)
    return out


def series_mul(p: Series, q: Series, cap: int) -> Series:
    """p q without the monomials of weighted degree above cap."""
    out: Series = {}
    right = [(key, sum(key), value) for key, value in q.items()]
    for (a1, b1, c1), value1 in p.items():
        room = cap - a1 - b1 - c1
        for (a2, b2, c2), degree2, value2 in right:
            if degree2 <= room:
                key = (a1 + a2, b1 + b2, c1 + c2)
                out[key] = out.get(key, 0) + value1 * value2
    return {key: value for key, value in out.items() if value}


# ---------------------------------------------------------------------------
# Analytic kernels
# ---------------------------------------------------------------------------

class AnalyticKernel:
    """A univariate function analytic at 0, given by its exact Taylor
    coefficients there, ``coefficient(k)``."""

    def coefficients(self, count: int) -> list[Fraction]:
        return [self.coefficient(k) for k in range(count)]


class SqrtCosKernel(AnalyticKernel):
    """c(z) = cos(sqrt z), entire in z; c(|u|^2) = cos|u| smooths the norm."""

    def coefficient(self, k):
        return Fraction((-1) ** k, math.factorial(2 * k))


class SqrtSincKernel(AnalyticKernel):
    """s(z) = sin(sqrt z)/sqrt z, entire in z; s(|u|^2) |u| = sin|u|."""

    def coefficient(self, k):
        return Fraction((-1) ** k, math.factorial(2 * k + 1))


class SquaredGeodesicKernel(AnalyticKernel):
    """g(w) = (arccos(1 + w))^2 for w in (-2, 0].

    With w = cos r - 1 this recovers the squared geodesic distance r^2 on the
    unit sphere; g is analytic at w = 0 with coefficients
    g_m = 2 (-2)^m / (m^2 C(2m, m)) for m >= 1 (from the arcsin^2 series).
    """

    def coefficient(self, m):
        if m == 0:
            return Fraction(0)
        return Fraction(2 * (-2) ** m, m * m * math.comb(2 * m, m))


SQRT_COS = SqrtCosKernel()
SQRT_SINC = SqrtSincKernel()
SQUARED_GEODESIC = SquaredGeodesicKernel()


def compose_univariate(kernel: AnalyticKernel, inner: Series, cap: int) -> Series:
    """kernel(inner) truncated at weighted degree cap.

    inner has no constant term, so its k-th power starts at degree k and
    the kernel's Taylor series at 0 needs only cap + 1 terms.
    """
    if (0, 0, 0) in inner:
        raise ValueError("the inner series of a composition must vanish at 0")
    coeffs = kernel.coefficients(cap + 1)
    out: Series = {(0, 0, 0): coeffs[0]} if coeffs[0] else {}
    power: Series = {(0, 0, 0): 1}
    for coeff in coeffs[1:]:
        power = series_mul(power, inner, cap)
        if coeff:
            out = series_add(out, {key: coeff * v for key, v in power.items()})
    return out


def _cosine_minus_one(cap: int) -> Series:
    """w = cos Theta - 1 on the unit sphere, truncated at weighted degree cap."""
    cos_theta = series_add(
        series_mul(compose_univariate(SQRT_COS, X, cap),
                   compose_univariate(SQRT_COS, Y, cap), cap),
        series_mul(series_mul(compose_univariate(SQRT_SINC, X, cap),
                              compose_univariate(SQRT_SINC, Y, cap), cap),
                   Z, cap),
    )
    return series_add(cos_theta, {(0, 0, 0): -1})


class CosinePowerTable:
    """The powers of w = cos Theta - 1, grown by weighted degree, so that
    the tables of every cap up to the largest cost what that one alone does.

    ``upto(cap)`` adds to each power the monomials of degree up to cap that
    it lacks and returns [w^0, ..., w^cap].  Each series then holds the
    monomials up to the largest cap asked so far; a jet of order 2m reads
    only those of degree m <= cap, so it reads the same exact values off
    these as off the powers truncated at cap.

    The products run in integers.  With x_ = 2a + c and y_ = 2b + c, the
    coefficient of x^a y^b z^c in w is +-1 / (x_! y_!), since z enters
    cos Theta only to the first power; so in every power of w it is
    N / (x_! y_!) for an integer N, and a product of two monomials
    multiplies their N by C(x_, x_1) C(y_, y_1).
    """

    def __init__(self):
        self.cap = 0
        # [p][k]: the monomials of degree k of w^p, as {(x_, y_, c): N}
        self._scaled = [[{(0, 0, 0): 1}]]
        self._powers: list[Series] = [{(0, 0, 0): 1}]

    def upto(self, cap: int) -> tuple[Series, ...]:
        if cap > self.cap:
            self._grow(cap)
        return tuple(self._powers[:cap + 1])

    def _grow(self, cap: int) -> None:
        fact = [math.factorial(i) for i in range(2 * cap + 1)]
        binom = [[math.comb(i, j) for j in range(i + 1)] for i in range(2 * cap + 1)]
        w = [[] for _ in range(cap + 1)]  # by degree: ((x_, y_, c), N)
        for (a, b, c), value in _cosine_minus_one(cap).items():
            x, y = 2 * a + c, 2 * b + c
            w[a + b + c].append(((x, y, c), int(value * fact[x] * fact[y])))
        scaled, powers = self._scaled, self._powers
        for p in range(1, cap + 1):
            if p == len(scaled):
                scaled.append([{}] * p)  # w^p has no monomial of degree < p
                powers.append({})
            prev, graded, flat = scaled[p - 1], scaled[p], powers[p]
            for k in range(len(graded), cap + 1):
                out: dict[tuple[int, int, int], int] = {}
                for j in range(p - 1, min(k, len(prev))):
                    for (x1, y1, c1), n1 in prev[j].items():
                        for (x2, y2, c2), n2 in w[k - j]:
                            x, y = x1 + x2, y1 + y2
                            key = x, y, c1 + c2
                            out[key] = (out.get(key, 0)
                                        + n1 * n2 * binom[x][x1] * binom[y][y1])
                part = {key: n for key, n in out.items() if n}
                graded.append(part)
                for (x, y, c), n in part.items():
                    flat[(x - c) // 2, (y - c) // 2, c] = Fraction(n, fact[x] * fact[y])
        self.cap = cap


@lru_cache(maxsize=256)  # shared by the powers of w in one extraction vector
def _monomial_weights(alpha: tuple[int, ...], beta: tuple[int, ...]):
    """((a, b, c), alpha! beta! times the coefficient of u^alpha v^beta in
    x^a y^b z^c) for each monomial where it is nonzero.

    z^c contributes u^gamma v^gamma with multinomial weight c!/gamma!, and
    x^a, y^b the even rest alpha - gamma = 2p, beta - gamma = 2q with
    weights a!/p!, b!/q!; so gamma <= min(alpha, beta) with alpha - gamma
    and beta - gamma even.
    """
    if len(alpha) != len(beta):
        raise ValueError("alpha and beta must share the ambient dimension")
    if any((i - j) % 2 for i, j in zip(alpha, beta)):
        return ()
    fact = math.factorial
    scale = math.prod(map(fact, alpha)) * math.prod(map(fact, beta))
    weights: dict[tuple[int, int, int], int] = {}
    ranges = [range(i % 2, min(i, j) + 1, 2) for i, j in zip(alpha, beta)]
    for gamma in product(*ranges):
        c = sum(gamma)
        a = (sum(alpha) - c) // 2
        b = (sum(beta) - c) // 2
        denominator = 1
        for g, i, j in zip(gamma, alpha, beta):
            denominator *= fact(g) * fact((i - g) // 2) * fact((j - g) // 2)
        term = scale * fact(c) * fact(a) * fact(b) // denominator
        weights[a, b, c] = weights.get((a, b, c), 0) + term
    return tuple(weights.items())


def extract_mixed_partial(series: Series, alpha: MultiIndex,
                          beta: MultiIndex) -> Fraction | int:
    """D_v^beta D_u^alpha of the represented function at u = v = 0, exactly.

    The caller keeps (|alpha| + |beta|) / 2 within the series truncation.
    """
    num, den = 0, 1  # the sum over one common denominator, reduced once
    for key, weight in _monomial_weights(alpha.counts, beta.counts):
        coeff = series.get(key)
        if coeff is not None:
            d = coeff.denominator
            num = num * d + coeff.numerator * weight * den
            den *= d
    return Fraction(num, den) if num else 0
