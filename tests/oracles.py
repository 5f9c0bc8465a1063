"""Second evaluation routes of the heat kernel, for the tests to compare the
library's jets against.

The library reads every jet off exact series or differentiated mode sums;
these oracles evaluate the kernel itself at chart points instead: the flat
torus by its cosine series, the sphere by its zonal functions from the
Gegenbauer three-term recurrence, and the finite normalized embedding of a
torus mode by mode.  They also hold the float values of the analytic kernels
whose exact Taylor coefficients ``spectraljet.jets`` composes, the powers
of cos Theta - 1 as truncated products, one power after another, to compare
the table grown by degree against, a plain CSV line writer to compare the
memoized report writers against, and the truncation recheck: a jet summed
again over twice the modes its tail rule chose.
"""
import math
from typing import NamedTuple

from spectraljet.jets import _cosine_minus_one, series_mul
from spectraljet.manifolds import TWO_PI, Sphere, make_model
from spectraljet.reporting import fmt_float


def csv_line(values) -> str:
    """One CSV line of ``values``, field by field with no memo: floats by
    ``fmt_float``, anything else by ``str``, quoted when it holds a comma,
    a quote or a newline."""
    fields = []
    for value in values:
        if isinstance(value, float):
            fields.append(fmt_float(value))
            continue
        text = str(value)
        if "," in text or '"' in text or "\n" in text:
            text = '"' + text.replace('"', '""') + '"'
        fields.append(text)
    return ",".join(fields)


def sphere_cosine_powers(cap: int) -> tuple:
    """[w^0, ..., w^cap] for w = cos Theta - 1 on the unit sphere, each the
    product of the one before and w, truncated at weighted degree cap."""
    w = _cosine_minus_one(cap)
    powers = [{(0, 0, 0): 1}]
    for _ in range(cap):
        powers.append(series_mul(powers[-1], w, cap))
    return tuple(powers)


def sqrt_cos(z):
    """cos(sqrt z), entire in z."""
    if z >= 0:
        return math.cos(math.sqrt(z))
    return math.cosh(math.sqrt(-z))


def sqrt_sinc(z):
    """sin(sqrt z) / sqrt z, entire in z."""
    if z == 0:
        return 1.0
    if z > 0:
        r = math.sqrt(z)
        return math.sin(r) / r
    r = math.sqrt(-z)
    return math.sinh(r) / r


def squared_geodesic(w):
    """(arccos(1 + w))^2 for w in [-2, 0]."""
    x = min(1.0, max(-1.0, 1.0 + w))
    return math.acos(x) ** 2


def chart_cosine(sphere: Sphere, u, v) -> float:
    """cos Theta between exp(u) and exp(v) on the sphere, from the entire
    kernels."""
    a2 = sphere.radius * sphere.radius
    zu = sum(x * x for x in u) / a2
    zv = sum(x * x for x in v) / a2
    dot = sum(x * y for x, y in zip(u, v)) / a2
    z = sqrt_cos(zu) * sqrt_cos(zv) + sqrt_sinc(zu) * sqrt_sinc(zv) * dot
    return min(1.0, max(-1.0, z))


def _check_time(t: float) -> None:
    """The models' positive-t check, with their message."""
    if not t > 0:
        raise ValueError(f"heat time must be positive, got {t}")


def kernel_value(model, t: float, u, v) -> float:
    """H(t, exp(u), exp(v)) on a sphere, H(t, u, v) on a flat torus (whose
    chart is globally flat)."""
    _check_time(t)
    if isinstance(model, Sphere):
        return _sphere_kernel_value(model, t, u, v)
    return _torus_kernel_value(model, t, u, v)


def _torus_kernel_value(torus, t, u, v):
    """The product over axes of the circle kernels' cosine series.  The
    cutoff is chosen on the monotone Gaussian envelope; the cosine factors
    oscillate and would trip the tail rule early."""
    value = 1.0
    for axis in range(torus.n):
        R = torus.radii[axis]
        d = (u[axis] - v[axis]) / R
        _, cutoff = torus._mode_sum(axis, 0, t)
        scale = t / (R * R)
        s = math.fsum(
            math.exp(-k * k * scale) * math.cos(k * d)
            for k in range(1, cutoff + 1)
        )
        value *= (1.0 + 2.0 * s) / (TWO_PI * R)
    return value


def _sphere_kernel_value(sphere, t, u, v):
    """Direct zonal summation, the Gegenbauer polynomials from their
    three-term recurrence."""
    z = chart_cosine(sphere, u, v)
    # cutoff: reuse the diagonal tail rule (|Z_l(z)| <= Z_l(1))
    _, cutoff = sphere._zonal_sum((1.0,), t)
    n = sphere.n
    lam = (n - 1) / 2.0
    prev, cur = 0.0, 1.0  # C_(l-1)^lam(z), C_l^lam(z)
    terms = []
    for l in range(cutoff + 1):
        terms.append(
            math.exp(-sphere.eigenvalue(l) * t) * (2 * l + n - 1) / (n - 1) * cur
        )
        # (l+1) C_(l+1) = 2 (l+lam) z C_l - (l+2lam-1) C_(l-1)
        prev, cur = cur, (2.0 * (l + lam) * z * cur - (l + n - 2) * prev) / (l + 1)
    return math.fsum(terms) * sphere._zonal_scale


def embedding_point(torus, t: float, x, modes_per_axis: int) -> tuple[float, ...]:
    """Finite-dimensional normalized embedding psi_t^q of a flat torus at
    the point x.

    Components are products over axes of the circle eigenfunctions
    (constant, cos, sin up to ``modes_per_axis``), weighted by
    exp(-lambda t / 2) and the psi normalization; the global constant
    mode is dropped.
    """
    _check_time(t)
    axis_funcs: list[list[tuple[float, float]]] = []  # (lambda, value)
    for axis in range(torus.n):
        R = torus.radii[axis]
        funcs = [(0.0, 1.0 / math.sqrt(TWO_PI * R))]
        for k in range(1, modes_per_axis + 1):
            lam = (k / R) ** 2
            funcs.append((lam, math.cos(k * x[axis] / R) / math.sqrt(math.pi * R)))
            funcs.append((lam, math.sin(k * x[axis] / R) / math.sqrt(math.pi * R)))
        axis_funcs.append(funcs)
    # all products of per-axis modes, skipping the global constant
    lams = [0.0]
    vals = [1.0]
    for funcs in axis_funcs:
        lams = [l0 + l1 for l0 in lams for l1, _ in funcs]
        vals = [v0 * v1 for v0 in vals for _, v1 in funcs]
    n = torus.n
    norm = math.sqrt(2.0) * (4.0 * math.pi) ** (n / 4.0) * t ** ((n + 2) / 4.0)
    return tuple(  # without the constant eigenfunction
        norm * math.exp(-lam * t / 2.0) * val
        for lam, val in zip(lams[1:], vals[1:])
    )


def fixed_sum_twin(model, terms: int):
    """A fresh twin of ``model`` whose every mode sum is a Kahan sum of
    exactly ``terms`` terms from its first index, whatever its tail rule
    and hard cap.  Every sum of a model goes through ``_sum``, so replacing
    it on the instance reaches them all; being fresh, the twin shares no
    memo with ``model``."""
    twin = make_model(**model.describe(), policy=model.policy)

    def fixed_sum(key, term, start, min_index):
        s = c = 0.0
        for k in range(start, start + terms):
            y = term(k) - c
            tmp = s + y
            c = (tmp - s) - y
            s = tmp
        return s, start + terms - 1

    twin._sum = fixed_sum
    return twin


class TruncationStability(NamedTuple):
    value: float
    doubled_value: float
    delta: float
    cutoff: int


def truncation_stability(model, t: float, alpha, beta) -> TruncationStability:
    """A jet of ``model`` against the same jet summed over twice the cutoff
    that its tail rule chose, on a fixed-sum twin."""
    value, cutoff = model.diag_jet_with_cutoff(t, alpha, beta)
    if cutoff == 0:  # structurally zero jet; doubling changes nothing
        return TruncationStability(value, value, 0.0, cutoff)
    twin = fixed_sum_twin(model, 2 * cutoff)
    doubled, _ = twin.diag_jet_with_cutoff(t, alpha, beta)
    return TruncationStability(value, doubled, abs(value - doubled), cutoff)
