"""Closed-spectrum manifold models and their heat-kernel diagonal jets.

Each model exposes J(t, alpha, beta) = D_y^beta D_x^alpha H(t, x, y) | x=y in
normal coordinates at a fixed base point (origin for circle/torus, north pole
for spheres), together with the normalized embedding Gram entries

    G(alpha, beta) = 2 (4 pi)^(n/2) t^((n+2)/2) * J(t, alpha, beta),

which are the inner products of the jet vectors of the normalized embedding.

Flat models use termwise-differentiated trigonometric series in closed form.
A sphere S^n of any dimension n >= 2 reads its mixed partials exactly off
the powers of cos Theta - 1 as polynomials in three rotation invariants of
the chart offsets (``jets``), and rounds each one once; the degree-l zonal
function, a Gegenbauer polynomial with parameter (n-1)/2, enters only
through its few leading Taylor coefficients at 1, which have one closed
form for every n.
"""
from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from itertools import product
from typing import NamedTuple

from .defaults import POLICY, TruncationError
from .multiindex import MultiIndex, empty, enumerate_multiindices, from_indices
from .jets import (
    SQUARED_GEODESIC,
    compose_univariate,
    extract_mixed_partial,
    sphere_cosine_powers,
)

TWO_PI = 2.0 * math.pi


class _PolicyFields(NamedTuple):
    epsilon: float = POLICY["epsilon"]
    rho: float = POLICY["rho"]
    hard_cap: int | None = POLICY["hard_cap"]  # None: model default
    fixed_cutoff: int | None = None


class TruncationPolicy(_PolicyFields):
    """Eigenvalue cutoff policy for spectral sums.

    By default the relative tail rule: stop once terms are past their peak
    and the next term (derivative growth factors included, since the actual
    summand is tested) drops below epsilon times the accumulated absolute
    sum.  rho is the exponent margin entering the estimated peak index.  A
    fixed_cutoff instead sums that many modes, for truncation-stability
    rechecks.
    An immutable record, validated on construction and by ``_replace``.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.epsilon <= 0 or self.rho <= 0:
            raise ValueError("epsilon and rho must be positive")
        if not (self.epsilon < math.inf and self.rho < math.inf):  # NaN too
            raise ValueError("epsilon and rho must be finite")
        for name in ("hard_cap", "fixed_cutoff"):
            cap = getattr(self, name)
            if cap is not None and (type(cap) is not int or cap < 1):  # bool is no cap
                raise ValueError(
                    f"{name} must be null/None or an integer >= 1, got {cap!r}")
        return self

    _make = classmethod(lambda cls, fields: cls(*fields))

    def doubled(self, chosen_cutoff: int) -> "TruncationPolicy":
        return self._replace(fixed_cutoff=2 * chosen_cutoff)


DEFAULT_POLICY = TruncationPolicy()


def _tail_sum(term, start: int, min_index: int, policy: TruncationPolicy,
              hard_cap: int) -> tuple[float, int]:
    """Kahan-compensated sum of term(k), k = start, start+1, ...

    Returns (sum, last index summed).  A policy with a fixed_cutoff sums
    exactly that many terms; otherwise the sum stops on the tail rule,
    which never fires while terms are still growing toward their peak, and
    raises TruncationError after hard_cap terms.  The models call it only
    through SpectralModel._sum, with their own policy, which memoizes the
    result per instance.
    """
    fixed = policy.fixed_cutoff is not None
    limit = policy.fixed_cutoff if fixed else hard_cap
    s = c = abs_acc = 0.0
    prev = math.inf
    k = start
    while k - start < limit:
        v = term(k)
        y = v - c
        tmp = s + y
        c = (tmp - s) - y
        s = tmp
        if not fixed:
            av = abs(v)
            abs_acc += av
            if k >= min_index and av <= prev and av <= policy.epsilon * abs_acc:
                return s, k
            prev = av
        k += 1
    if fixed:
        return s, k - 1
    raise TruncationError(
        f"hard cap {hard_cap} reached before the tail bound "
        f"(epsilon={policy.epsilon}); raise t or raise the cap"
    )


def heat_power(t: float, factor: float, p: float) -> float:
    """(factor * t) ** p, a power of the heat time in a normalization; past
    the float range it is a ValueError naming t, not an OverflowError."""
    try:
        return (factor * t) ** p
    except OverflowError:
        raise ValueError(
            f"heat time t={t!r} too large: its power {p:g} overflows; lower t"
        ) from None


def _checked_volume(name: str, radii, volume) -> float:
    """volume(), after checking that every radius has a finite, nonzero
    square and inverse square and that the volume and its inverse are
    finite and nonzero; otherwise the mode sums would divide by zero or
    overflow.  A volume out of range is reported as the model ``name`` and
    which way a radius must move."""
    for r in radii:
        if not r > 0:
            raise ValueError("radius must be positive")
        a2 = r * r
        if not (0.0 < a2 < math.inf and 1.0 / a2 < math.inf):
            raise ValueError(
                f"radius {r!r} out of range: its square or inverse square "
                "is zero or not finite"
            )
    try:
        v = volume()
    except OverflowError:
        v = math.inf
    if not (0.0 < v < math.inf and 1.0 / v < math.inf):
        if v < 1.0:
            problem, fix = f"its volume {v!r} has no finite inverse", "larger"
        else:
            problem, fix = "its volume overflows", "smaller"
        raise ValueError(
            f"{name} out of range: {problem}; a {fix} radius makes it valid"
        )
    return v


class SpectralModel:
    """Shared interface of the closed-spectrum models.

    A model is built with its truncation policy, and every spectral sum
    goes through ``_sum``, which applies that policy and memoizes the sum
    for the lifetime of the instance.
    """

    n: int
    volume: float
    label: str
    default_hard_cap: int

    # the exact constant sectional curvature that ``riemann`` reads
    curvature: Fraction
    is_flat: bool

    def __init__(self, policy: TruncationPolicy):
        self.policy = policy
        self._hard_cap = (
            self.default_hard_cap if policy.hard_cap is None else policy.hard_cap
        )
        self._sums: dict = {}

    def _sum(self, key, term, start: int, min_index: int) -> tuple[float, int]:
        """_tail_sum(term, start, ...), memoized on key.

        key must hold everything besides self that term and min_index
        depend on; each model sums from one first index.  A hit returns the
        stored (sum, last index) of the same float operations; a capped sum
        raises before anything is stored.
        """
        hit = self._sums.get(key)
        if hit is None:
            hit = self._sums[key] = _tail_sum(
                term, start, min_index, self.policy, self._hard_cap
            )
        return hit

    def _min_index(self, radius: float, t: float, power: float) -> int:
        """First index at which the tail rule may stop: 2 past the peak
        radius * sqrt((power + rho) / 2t) of the summand, and at least 8.
        A peak past the hard cap (inf for a subnormal t) is clamped to it;
        the sum then hits the cap all the same."""
        peak = radius * math.sqrt((power + self.policy.rho) / (2.0 * t))
        return max(8, int(math.ceil(min(peak, self._hard_cap))) + 2)

    def riemann(self, i: int, j: int, k: int, l: int) -> Fraction:
        """R(e_i, e_j, e_k, e_l) at the base point, exact, for 0-based
        indices, in the convention R(i, j, j, i) = K, the sectional curvature
        of the plane (e_i, e_j).  Every curvature target derives from it.
        Here K is the constant ``curvature``; a model whose curvature is not
        constant overrides this."""
        return self.curvature * ((i == l) * (j == k) - (i == k) * (j == l))

    def ricci(self, j: int, k: int) -> Fraction:
        """Ric_jk = sum_i R(i, j, k, i), exact."""
        return sum(self.riemann(i, j, k, i) for i in range(self.n))

    def scalar(self) -> Fraction:
        """S = sum_j Ric_jj, exact."""
        return sum(self.ricci(j, j) for j in range(self.n))

    def diag_jet_with_cutoff(self, t, alpha, beta):
        raise NotImplementedError

    def diag_jet(self, t: float, alpha: MultiIndex, beta: MultiIndex) -> float:
        """J(t, alpha, beta), every eigenfunction included."""
        value, _ = self.diag_jet_with_cutoff(t, alpha, beta)
        return value

    def heat_diagonal(self, t: float) -> float:
        e = empty(self.n)
        return self.diag_jet(t, e, e)

    def jet_key(self, alpha: MultiIndex, beta: MultiIndex):
        """A hashable name of the pair (alpha, beta) under which the model's
        jets are cached: pairs with one key have bit-identical jets at every
        t.  Here every pair is its own key; isotropic models merge more."""
        return alpha.counts, beta.counts

    def gram_prefactor(self, t: float) -> float:
        return (
            2.0 * (4.0 * math.pi) ** (self.n / 2.0)
            * heat_power(t, 1.0, (self.n + 2) / 2.0)
        )

    def gram_entry(self, t: float, alpha: MultiIndex, beta: MultiIndex) -> float:
        """<D^alpha psi_t, D^beta psi_t> at the base point.  The embedding
        leaves out the constant eigenfunction, which enters only the
        order-(0,0) entry, as 1/volume."""
        j = self.diag_jet(t, alpha, beta)
        if alpha.degree == 0 and beta.degree == 0:
            j -= 1.0 / self.volume
        return self.gram_prefactor(t) * j

    def gram_difference(self, t, pair1, pair2) -> float:
        """G(pair1) - G(pair2); models override where the leading parts must
        be cancelled mode by mode."""
        a1, b1 = pair1
        a2, b2 = pair2
        return self.gram_entry(t, a1, b1) - self.gram_entry(t, a2, b2)

    def _validate_time(self, t: float) -> None:
        if not t > 0:
            raise ValueError(f"heat time must be positive, got {t}")

    def _validate_pair(self, alpha: MultiIndex, beta: MultiIndex) -> None:
        if alpha.n != self.n or beta.n != self.n:
            raise ValueError(
                f"multi-index dimension must be {self.n}, "
                f"got {alpha.n} and {beta.n}"
            )


class FlatTorus(SpectralModel):
    """Rectangular flat torus, the product of circles of the given radii.

    The heat kernel factorizes per axis; every jet is a finite product of
    one-dimensional mode sums M_m(t) = sum_k (k/R)^m exp(-k^2 t / R^2).
    """

    label = "torus"
    default_hard_cap = 200_000
    is_flat = True
    curvature = Fraction(0)

    def __init__(self, radii, policy: TruncationPolicy = DEFAULT_POLICY):
        super().__init__(policy)
        radii = tuple(float(r) for r in radii)
        if not radii:
            raise ValueError("a torus needs at least one radius")
        self.radii = radii
        self.n = len(radii)
        self.volume = _checked_volume(
            f"{self.label} with radii {list(radii)!r}", radii,
            lambda: math.prod(TWO_PI * r for r in radii),
        )

    def describe(self) -> dict:
        return {"kind": self.label, "radii": list(self.radii)}

    def _mode_sum(self, axis: int, m: int, t: float) -> tuple[float, int]:
        R = self.radii[axis]
        scale = t / (R * R)

        def term(k):
            # past the weight's underflow the power alone may overflow
            w = math.exp(-k * k * scale)
            return w * (k / R) ** m if w else 0.0

        min_index = self._min_index(R, t, m)
        try:
            return self._sum((axis, m, t), term, 1, min_index)
        except OverflowError:
            # the jet itself, about R^-(m+1), is past the float range
            raise ValueError(
                f"jet of order {m} overflows at t={t!r} for radius {R!r}: "
                "lower the max degree or raise the radius"
            ) from None

    def diag_jet_with_cutoff(self, t, alpha, beta):
        self._validate_time(t)
        self._validate_pair(alpha, beta)
        orders = [a + b for a, b in zip(alpha.counts, beta.counts)]
        if any(m % 2 for m in orders):
            return 0.0, 0  # odd derivative of an even kernel vanishes exactly
        value = 1.0
        cutoff = 0
        for axis, m in enumerate(orders):
            R = self.radii[axis]
            msum, used = self._mode_sum(axis, m, t)
            cutoff = max(cutoff, used)
            if m == 0:
                value *= (1.0 + 2.0 * msum) / (TWO_PI * R)
            else:
                sign = -1.0 if (beta.counts[axis] + m // 2) % 2 else 1.0
                value *= sign * 2.0 * msum / (TWO_PI * R)
        return value, cutoff


class Circle(FlatTorus):
    label = "circle"

    def __init__(self, radius: float = 1.0, policy: TruncationPolicy = DEFAULT_POLICY):
        super().__init__((radius,), policy)
        self.radius = float(radius)

    def describe(self) -> dict:
        return {"kind": self.label, "radius": self.radius}


@lru_cache(maxsize=32)
def _sphere_series_tables(max_degree: int):
    """[w^0, w^1, ..., w^(max_degree // 2)] for w = cos(Theta) - 1, exact
    series in the rotation invariants of the unit sphere's chart offsets;
    a jet of order k on the sphere of radius a is a^-k times its value
    there, so the tables serve every dimension and radius."""
    return sphere_cosine_powers(max_degree // 2)


def _rounded_jet(exact, radius: float, power: int, order: int) -> float:
    """exact * radius**power, rounded once to a float; past the float range
    a ValueError naming the jet order and the radius."""
    if not exact:
        return 0.0
    p, q = radius.as_integer_ratio()
    if power < 0:
        p, q, power = q, p, -power
    try:
        return exact.numerator * p**power / (exact.denominator * q**power)
    except OverflowError:
        raise ValueError(
            f"jet of order {order} overflows for radius {radius!r}: "
            "lower the max degree or raise the radius"
        ) from None


def _sphere_volume(dim: int, radius: float) -> float:
    """|S^dim| radius^dim by |S^k| = 2 pi |S^(k-2)| / (k-1) from |S^0| = 2 and
    |S^1| = 2 pi, carried times 2**shift so that no unit area (subnormal from
    S^438) loses bits before the product; past k = 454 the unit area
    underflows to 0, and so does every later one: the dimension is refused."""
    prev, area, shift = 2.0, TWO_PI, 0
    for k in range(2, dim + 1):
        nxt = TWO_PI * prev / (k - 1)
        if nxt < 2.0**-1022:  # below the smallest normal float
            prev, area, shift = prev * 2.0**64, area * 2.0**64, shift + 64
            nxt = TWO_PI * prev / (k - 1)
        prev, area = area, nxt
        if not math.ldexp(area, -shift):
            raise ValueError(
                f"sphere dimension {dim} out of range: the area of the unit "
                f"S^{k} underflows to 0"
            )
    return math.ldexp(area * radius**dim, -shift)


class Sphere(SpectralModel):
    """Round sphere S^n (n >= 2) of radius a.

    The Laplacian has eigenvalues l(l+n-1)/a^2 with multiplicity
    (2l+n-1) C(l+n-2, l)/(n-1), and the zonal function of degree l is
    Z_l = (2l+n-1)/(n-1) C_l^lam, the Gegenbauer polynomial with
    lam = (n-1)/2 (P_l on S^2, U_l on S^3).  Only the Taylor coefficients
    of Z_l at argument 1 enter the diagonal jets, in the closed form

        Z_l^(m)(1) / m! = (2l+n-1)/(n-1) C(l+m+n-2, l-m) 2^m (lam)_m / m!.

    A jet pairs these coefficients with its extraction vector em, where
    em[m] is D_u^alpha D_v^beta of w^m at the origin.  w^m is a series in
    |u|^2, |v|^2 and <u, v>, so a coordinate permutation applied to both
    alpha and beta fixes em exactly: the extraction vectors are memoized per
    degree and orbit, keyed by ``jet_key``.  Pairs of different orbits still
    share one em, so the zonal sum over l is memoized on (em, t);
    the heat diagonal is the zonal sum of em = (1.0,).
    The sums read two mode tables that grow only as far as a sum reaches:
    the Taylor coefficients of Z_l per degree l, for every m below the
    widest extraction vector summed, and per heat time t the Gaussian
    weights exp(-lambda_l t).
    """

    is_flat = False
    default_hard_cap = 5_000

    def __init__(self, dim: int, radius: float = 1.0,
                 policy: TruncationPolicy = DEFAULT_POLICY):
        if dim < 2:
            raise ValueError("sphere dimension must be at least 2")
        super().__init__(policy)
        radius = float(radius)
        self.n = dim
        self.radius = radius
        self.label = f"sphere{dim}"
        self.volume = _checked_volume(
            f"S^{dim} at radius {radius!r}", (radius,),
            lambda: _sphere_volume(dim, radius),
        )
        self._zonal_scale = 1.0 / self.volume
        self.curvature = 1 / Fraction(radius) ** 2
        self._extract_cache: dict = {}
        # 2^m (lam)_m / m! per m, rounded once from the exact rational
        self._rise: list[float] = []
        # [l][m] for m below the widest extraction vector summed so far
        self._taylor_rows: list[tuple[float, ...]] = []
        self._width = 0
        self._weights: dict[float, list[float]] = {}  # t -> [exp(-lambda_l t)]

    def describe(self) -> dict:
        return {"kind": self.label, "radius": self.radius}

    def eigenvalue(self, l: int) -> float:
        return l * (l + self.n - 1) / (self.radius * self.radius)

    def multiplicity(self, l: int) -> int:
        n = self.n
        return (2 * l + n - 1) * math.comb(l + n - 2, l) // (n - 1)

    def _zonal_taylor(self, l: int, m: int) -> float:
        """m-th Taylor coefficient at 1 of the zonal function Z_l, before
        the 1/Vol normalization."""
        if m > l:
            return 0.0
        n = self.n
        rise = self._rise
        while len(rise) <= m:  # 2^k (lam)_k = (n-1)(n+1)...(n+2k-3)
            k = len(rise)
            rise.append(math.prod(range(n - 1, n + 2 * k - 1, 2)) / math.factorial(k))
        return float(
            (2 * l + n - 1) * math.comb(l + m + n - 2, l - m)
        ) / (n - 1) * rise[m]

    def _widen_rows(self, width: int) -> None:
        """Give every Taylor row the columns m < width."""
        rows = self._taylor_rows
        for l, row in enumerate(rows):
            rows[l] = row + tuple(
                self._zonal_taylor(l, m) for m in range(len(row), width)
            )
        self._width = width

    def _grow_tables(self, weights: list[float], t: float, l: int) -> None:
        """Extend the Taylor rows, and the weights of t, through degree l."""
        rows = self._taylor_rows
        while len(rows) <= l:
            k = len(rows)
            rows.append(tuple(self._zonal_taylor(k, m) for m in range(self._width)))
        while len(weights) <= l:
            weights.append(math.exp(-self.eigenvalue(len(weights)) * t))

    def _series_degree(self, total: int) -> int:
        return max(2, total + (total % 2))

    def jet_key(self, alpha: MultiIndex, beta: MultiIndex):
        """The multiset of column pairs (alpha_r, beta_r): a coordinate
        permutation applied to both indices fixes the jet exactly."""
        return tuple(sorted(zip(alpha.counts, beta.counts)))

    def _extract_vector(self, alpha: MultiIndex, beta: MultiIndex,
                        degree: int) -> tuple[float, ...]:
        key = (degree, self.jet_key(alpha, beta))
        cached = self._extract_cache.get(key)
        if cached is not None:
            return cached
        order = alpha.degree + beta.degree
        if order > degree:
            raise ValueError(f"jet order {order} exceeds series degree {degree}")
        vec = tuple(
            _rounded_jet(extract_mixed_partial(p, alpha, beta), self.radius,
                         -order, order)
            for p in _sphere_series_tables(degree)
        )
        self._extract_cache[key] = vec
        return vec

    def _zonal_sum(self, em, t: float) -> tuple[float, int]:
        """sum_l exp(-lambda_l t) sum_m zonal_taylor(l, m) em[m] from l = 0,
        before the zonal scale; (0.0, 0) when every em[m] vanishes.
        em = (1.0,) sums the multiplicities, the heat diagonal."""
        if all(e == 0.0 for e in em):
            return 0.0, 0
        nonzero = [(m, e) for m, e in enumerate(em) if e]
        weights = self._weights.setdefault(t, [])
        rows = self._taylor_rows

        def term(l):
            if l >= len(weights):  # the rows are at least as long
                self._grow_tables(weights, t, l)
            row = rows[l]
            acc = 0.0
            for m, e in nonzero:
                acc += row[m] * e
            return weights[l] * acc

        min_index = self._min_index(self.radius, t, 2 * (len(em) - 1) + self.n - 1.0)
        try:
            if len(em) > self._width:
                self._widen_rows(len(em))
            return self._sum((em, t), term, 0, min_index)
        except OverflowError:
            raise self._out_of_range(t) from None

    def _out_of_range(self, t: float) -> ValueError:
        """The error of a mode sum whose terms pass the float range: the
        multiplicities and Taylor coefficients grow like l^(n-1), and the
        modes summed grow as t falls."""
        return ValueError(
            f"mode sums of sphere{self.n} pass the float range at t={t!r}: "
            "raise t or lower the dimension"
        )

    def diag_jet_with_cutoff(self, t, alpha, beta):
        self._validate_time(t)
        self._validate_pair(alpha, beta)
        total = alpha.degree + beta.degree
        if total == 0:
            s, used = self._zonal_sum((1.0,), t)
            return s / self.volume, used
        em = self._extract_vector(alpha, beta, self._series_degree(total))
        s, used = self._zonal_sum(em, t)
        return s * self._zonal_scale, used

    def gram_difference(self, t, pair1, pair2) -> float:
        """G(pair1) - G(pair2) with the difference taken per eigenvalue term.

        Both entries carry the same O(1/t) leading part when their Wick
        constants agree; differencing inside the mode sum keeps the O(1)
        remainder free of catastrophic cancellation.
        """
        self._validate_time(t)
        a1, b1 = pair1
        a2, b2 = pair2
        self._validate_pair(a1, b1)
        self._validate_pair(a2, b2)
        total = max(a1.degree + b1.degree, a2.degree + b2.degree)
        degree = self._series_degree(total)
        em1 = self._extract_vector(a1, b1, degree)
        em2 = self._extract_vector(a2, b2, degree)
        s, _ = self._zonal_sum(tuple(x - y for x, y in zip(em1, em2)), t)
        return self.gram_prefactor(t) * s * self._zonal_scale


def make_model(kind: str, radius: float = 1.0, radii=None,
               policy: TruncationPolicy = DEFAULT_POLICY) -> SpectralModel:
    """Model factory used by the CLI specifiers: ``circle``, ``torus`` or
    ``sphereN``, the round S^N for any N >= 2; ``make_model(**m.describe(),
    policy=...)`` rebuilds m under another policy."""
    if kind == "circle":
        return Circle(radius, policy)
    if kind == "torus":
        if not radii:
            raise ValueError("torus needs --radii")
        return FlatTorus(radii, policy)
    digits = kind[6:] if isinstance(kind, str) and kind.startswith("sphere") else ""
    if digits.isascii() and digits.isdigit():
        return Sphere(int(digits), radius, policy)
    raise ValueError(
        f"unknown model kind {kind!r}: use circle, torus or sphereN (N >= 2)"
    )


# ---------------------------------------------------------------------------
# Jet Gram matrices
# ---------------------------------------------------------------------------

class JetGram(NamedTuple):
    """All normalized Gram entries G(alpha, beta) for |alpha|, |beta| <= order."""

    t: float
    order: int
    basis: tuple[MultiIndex, ...]
    entries: dict

    def entry(self, alpha: MultiIndex, beta: MultiIndex) -> float:
        key = (alpha.counts, beta.counts)
        if key in self.entries:
            return self.entries[key]
        return self.entries[(beta.counts, alpha.counts)]

    def matrix(self) -> list[list[float]]:
        """The entries over the basis, as rows ``m[i][j]``."""
        return [[self.entry(a, b) for b in self.basis] for a in self.basis]


def jet_gram(model: SpectralModel, t: float, max_order: int) -> JetGram:
    basis = tuple(enumerate_multiindices(model.n, max_order))
    entries = {}
    for i, a in enumerate(basis):
        for b in basis[i:]:
            entries[(a.counts, b.counts)] = model.gram_entry(t, a, b)
    return JetGram(t=t, order=max_order, basis=basis, entries=entries)


# ---------------------------------------------------------------------------
# Geometry read off the Gram entries
# ---------------------------------------------------------------------------

def pullback_metric(model: SpectralModel, t: float) -> list[list[float]]:
    """Induced metric of the embedding: the first-derivative Gram matrix,
    as rows ``g[i][j]``."""
    n = model.n
    out = [[0.0] * n for _ in range(n)]
    for i in range(1, n + 1):
        for j in range(i, n + 1):
            g = model.gram_entry(t, from_indices([i], n), from_indices([j], n))
            out[i - 1][j - 1] = g
            out[j - 1][i - 1] = g
    return out


class ScalarRicciReport(NamedTuple):
    """Fitted scalar curvature and the n x n matrices (rows ``m[i][j]``) of
    the pullback fits and the Ricci estimate."""

    scalar_estimate: float
    scalar_slope: float
    scalar_slope_stderr: float
    pullback_c0: list[list[float]]
    pullback_c1: list[list[float]]
    ricci_estimate: list[list[float]]


def ricci_scalar_extract(model: SpectralModel, ts) -> ScalarRicciReport:
    """Scalar curvature from the diagonal slope, Ricci from the pullback slope.

    (4 pi t)^(n/2) H(t, x, x) = 1 + t S/6 + O(t^2) gives S; the pullback
    expands as  delta_ij + t c1_ij + O(t^2)  with  c1 = (1/3)((S/2) delta - Ric),
    so Ric_ij = (S/2) delta_ij - 3 c1_ij.  The pullback is symmetric sample
    for sample, so each entry i <= j is fitted once and mirrored.
    """
    n = model.n
    diag = [
        (t, heat_power(t, 4.0 * math.pi, n / 2.0) * model.heat_diagonal(t))
        for t in ts
    ]
    scalar_fit = asymptotics.fit_on_smallest(diag)
    pulls = [(t, pullback_metric(model, t)) for t in ts]
    c0 = [[0.0] * n for _ in range(n)]
    c1 = [[0.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            fit = asymptotics.fit_on_smallest([(t, p[i][j]) for t, p in pulls])
            c0[i][j] = c0[j][i] = fit.c0
            c1[i][j] = c1[j][i] = fit.c1
    scalar = 6.0 * scalar_fit.c1
    ricci = [
        [(scalar / 2.0 if i == j else 0.0) - 3.0 * c1[i][j] for j in range(n)]
        for i in range(n)
    ]
    return ScalarRicciReport(
        scalar_estimate=scalar,
        scalar_slope=scalar_fit.c1,
        scalar_slope_stderr=scalar_fit.stderr,
        pullback_c0=c0,
        pullback_c1=c1,
        ricci_estimate=ricci,
    )


def mean_curvature_proxy(model: SpectralModel, t: float) -> float:
    """sqrt(t) * |mean of the pure second jets|, the mean-curvature length proxy.

    t |(1/n) sum_k D_kk psi|^2 = (t/n^2) sum_{k,l} G((k,k),(l,l)); the
    tangential part is not subtracted since it vanishes in the limit.
    """
    n = model.n
    acc = 0.0
    for k in range(1, n + 1):
        for l in range(k, n + 1):
            g = model.gram_entry(t, from_indices([k, k], n), from_indices([l, l], n))
            acc += g if k == l else 2.0 * g
    return math.sqrt(t * acc / (n * n))


def third_jet_umbilical(model: SpectralModel, t: float, i: int, j: int,
                        k: int) -> float:
    """2t <D_i D_k D_k psi_t, D_j psi_t>; limits are -3, -1, 0 for
    i=j=k, i=j!=k, i!=j."""
    n = model.n
    return 2.0 * t * model.gram_entry(t, from_indices([i, k, k], n), from_indices([j], n))


def curvature_symmetry_residuals(model: SpectralModel, ts) -> list:
    """The fitted Riemann tensor R(V_i, V_j, V_k, V_l), nested as
    ``tensor[i][j][k][l]`` with 0-based indices.  The name is older than
    the return value; the benchmark's tracer binds it, so it is renamed
    together with the next change to the benchmark.

    Each entry is the fitted t -> 0 limit of the Gram difference
    G((i,l),(j,k)) - G((i,k),(j,l)), so ``tensor[i][j][j][i]`` reads the
    sectional curvature K, as ``SpectralModel.riemann`` does.  Quadruples
    whose two Gram pairs have the same jet keys
    (:meth:`SpectralModel.jet_key`) have bit-identical differences, so they
    share one fit.
    """
    if model.n < 2:
        raise ValueError("curvature needs dimension at least 2")
    n = model.n
    fits = {}
    r = [[[[0.0] * n for _ in range(n)] for _ in range(n)] for _ in range(n)]
    for i, j, k, l in product(range(n), repeat=4):
        pair1 = (from_indices([i + 1, l + 1], n), from_indices([j + 1, k + 1], n))
        pair2 = (from_indices([i + 1, k + 1], n), from_indices([j + 1, l + 1], n))
        key = (model.jet_key(*pair1), model.jet_key(*pair2))
        if key not in fits:
            fits[key] = asymptotics.fit_on_smallest(
                [(t, model.gram_difference(t, pair1, pair2)) for t in ts]
            ).c0
        r[i][j][k][l] = fits[key]
    return r


# ---------------------------------------------------------------------------
# Squared-distance jets (spheres)
# ---------------------------------------------------------------------------

def _squared_distance_order(alpha: MultiIndex, beta: MultiIndex) -> int:
    """|alpha| + |beta|, refused above 4: the closed form below stops at the
    curvature term of order 4, and the exact jets have no target past it.
    Order 6 is not 0: on the unit S^2 the jet of counts alpha = (0,2),
    beta = (2,2) is -8/45."""
    total = alpha.degree + beta.degree
    if total > 4:
        raise ValueError("squared-distance jets are supported up to order 4")
    return total


def squared_distance_jets(model: Sphere, alpha: MultiIndex,
                          beta: MultiIndex) -> float:
    """Mixed partial D_v^beta D_u^alpha of r^2(exp u, exp v) at u = v = 0.

    r^2 = a^2 (arccos(cos Theta))^2 passes through the chart origin via the
    analytic kernel g(w) = (arccos(1+w))^2 applied to w = cos Theta - 1;
    the exact unit-sphere jet of order k is scaled by a^(2-k) and rounded
    once.
    Closed-form targets on the sphere: first jets 0, D_ij r^2 = 2 delta_ij =
    -D_i Dbar_j r^2, all third jets 0, pure fourth jets 0, and the mixed
    fourth jets carry the curvature combination (2/3)(R_ikjl + R_iljk), in
    the convention R_ijji = K of ``SpectralModel.riemann``.
    """
    if not isinstance(model, Sphere):
        raise ValueError("squared-distance jets use the closed-form sphere kernel")
    total = _squared_distance_order(alpha, beta)
    w = _sphere_series_tables(4)[1]
    exact = extract_mixed_partial(
        compose_univariate(SQUARED_GEODESIC, w, 2), alpha, beta
    )
    return _rounded_jet(exact, model.radius, 2 - total, total)


def squared_distance_target(model: Sphere, alpha: MultiIndex,
                            beta: MultiIndex) -> float:
    """Closed-form value of the squared-distance jet on the round sphere."""
    total = _squared_distance_order(alpha, beta)
    if total % 2 == 1 or total == 0:
        return 0.0
    if total == 2:
        if alpha.degree == 2:
            i, j = alpha.indices()
            return 2.0 * (i == j)
        if beta.degree == 2:
            i, j = beta.indices()
            return 2.0 * (i == j)
        (i,), (j,) = alpha.indices(), beta.indices()
        return -2.0 * (i == j)
    # total degree 4: only the (2,2)-mixed pattern is nonzero
    if alpha.degree == 2 and beta.degree == 2:
        i, j = (a - 1 for a in alpha.indices())  # riemann is 0-based
        k, l = (b - 1 for b in beta.indices())
        R = model.riemann
        return float(Fraction(2, 3) * (R(i, k, j, l) + R(i, l, j, k)))
    return 0.0


# ---------------------------------------------------------------------------
# Truncation stability
# ---------------------------------------------------------------------------

class TruncationStability(NamedTuple):
    value: float
    doubled_value: float
    delta: float
    cutoff: int


def truncation_stability(model: SpectralModel, t: float, alpha: MultiIndex,
                         beta: MultiIndex) -> TruncationStability:
    """Re-evaluate a jet with the policy-chosen cutoff doubled, on a fresh
    twin of the model: a copy would share the sphere's Taylor rows, which
    grow in place to the width of its own widest sum."""
    value, cutoff = model.diag_jet_with_cutoff(t, alpha, beta)
    if cutoff == 0:  # structurally zero jet; doubling changes nothing
        return TruncationStability(value, value, 0.0, cutoff)
    twin = make_model(**model.describe(), policy=model.policy.doubled(cutoff))
    doubled, _ = twin.diag_jet_with_cutoff(t, alpha, beta)
    return TruncationStability(value, doubled, abs(value - doubled), cutoff)


# Last, once every name that asymptotics imports from this module is bound:
# asymptotics imports this module, and the fits above look its functions up
# at call time, so that a rebinding of them applies here too.
from . import asymptotics  # noqa: E402
