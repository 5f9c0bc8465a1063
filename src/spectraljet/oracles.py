"""The two routes that falsify the closed form of A, and the exact scans
of the relations A and B satisfy.

* :func:`enumerate_admissible_graphs` counts signed same-color perfect
  matchings exhaustively;
* :func:`gaussian_moment_oracle` evaluates Gaussian moments through the
  half-integer Gamma identity (floats).

Neither shares code with the closed form in :mod:`spectraljet.wick`, so
each can falsify it.  :func:`check_inductive_relations` and
:func:`b_stabilization_scan` check, in exact arithmetic, the recurrences
that the closed form's values satisfy.  Only ``wick --graphs/--oracle``,
the tests and the demos run this module, so no other command imports it.
"""
from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

from .multiindex import MultiIndex, check_same_dimension, pair_profile
from .wick import WickB, wick_a, wick_b

_SQRT_PI = math.sqrt(math.pi)


class GraphCount(NamedTuple):
    """Signed count of admissible graphs (same-color perfect matchings)."""

    count: int
    common_sign: int | None  # defined only when count > 0


@lru_cache(maxsize=4096)
def _color_matchings(a: int, b: int) -> tuple[int, int]:
    """Exhaustively enumerate perfect matchings of one color class.

    The class has ``a`` vertices signed '+' and ``b`` signed '-'; an edge
    carries the negative of the product of its endpoint signs.  Returns
    (count, common sign); verifies all matchings share one sign.
    """
    if (a + b) % 2:
        return 0, 0
    signs: list[int] = []

    def backtrack(vertices: tuple[int, ...], acc: int) -> None:
        if not vertices:
            signs.append(acc)
            return
        first, rest = vertices[0], vertices[1:]
        for i in range(len(rest)):
            edge_sign = -first * rest[i]
            backtrack(rest[:i] + rest[i + 1:], acc * edge_sign)

    backtrack((1,) * a + (-1,) * b, 1)
    if not signs:
        return 0, 0
    common = signs[0]
    if any(s != common for s in signs):
        raise RuntimeError(f"matching signs are not constant for class a={a}, b={b}")
    return len(signs), common


#: Highest total degree graph enumeration accepts.  One color class of
#: degree 14 takes 0.22 s and of degree 16 3.7 s, and each further step
#: multiplies the work by about 17; the closed form covers every degree.
ENUMERATION_MAX_DEGREE = 16


def enumerate_admissible_graphs(alpha: MultiIndex, beta: MultiIndex) -> GraphCount:
    """Signed count of admissible graphs by exhaustive matching enumeration.

    Edges may only join vertices of equal color (equal coordinate index), so
    matchings factor over color classes; each class is enumerated by
    backtracking and memoized.  Refuses total degrees above
    ``ENUMERATION_MAX_DEGREE`` - the closed form in :func:`wick_a` covers
    large degrees, enumeration exists to falsify it, not to scale.
    """
    check_same_dimension(alpha, beta)
    total = alpha.degree + beta.degree
    if total > ENUMERATION_MAX_DEGREE:
        raise ValueError(
            f"total degree {total} exceeds enumeration cap "
            f"{ENUMERATION_MAX_DEGREE}; "
            "use the closed form wick_a for large degrees"
        )
    count = 1
    sign = 1
    for e in pair_profile(alpha, beta).entries:
        c_count, c_sign = _color_matchings(e.a, e.b)
        if c_count == 0:
            return GraphCount(0, None)
        count *= c_count
        sign *= c_sign
    return GraphCount(count, sign)


def gaussian_moment_oracle(alpha: MultiIndex, beta: MultiIndex) -> float:
    """A(alpha, beta) from Gaussian moments, via Gamma at half-integers.

    Evaluates sign * 2^floor((|a|+|b|)/2) * pi^(-n/2) * int e^(-|x|^2) x^(a+b) dx
    one coordinate at a time with int e^(-x^2) x^(2m) dx = Gamma(m + 1/2).
    Coordinates outside the support contribute sqrt(pi), cancelling the
    pi^(-n/2) prefactor.  Uses no factorials, so the route is independent of
    :func:`wick_a`.  A value past the float range raises ValueError; on one
    coordinate that is from |alpha| + |beta| = 340 on.
    """
    prof = pair_profile(alpha, beta)
    if not prof.even_total():
        return 0.0
    total = alpha.degree + beta.degree
    integral = 1.0
    try:
        for e in prof.entries:
            integral *= math.gamma(e.sigma2 / 2 + 0.5) / _SQRT_PI
        magnitude = math.ldexp(integral, total // 2)
    except OverflowError:
        magnitude = math.inf
    if magnitude == math.inf:  # a product of Gammas overflows without raising
        raise ValueError(
            "the Gaussian-moment route leaves the float range at degree "
            f"|alpha| + |beta| = {total}"
        )
    half_gap = (alpha.degree - beta.degree) // 2
    sign = -1.0 if half_gap % 2 else 1.0
    return sign * magnitude


class InductiveRelationReport(NamedTuple):
    """Exact checks of the defining recurrences at one (alpha, beta, j)."""

    alpha: MultiIndex
    beta: MultiIndex
    index: int
    symmetry_ok: bool
    adding_ok: bool
    b_adding_ok: bool
    leibniz_ok: bool | None
    b_leibniz_ok: bool | None

    def all_ok(self) -> bool:
        checks = [self.symmetry_ok, self.adding_ok, self.b_adding_ok]
        if self.leibniz_ok is not None:
            checks += [self.leibniz_ok, self.b_leibniz_ok]
        return all(checks)


def check_inductive_relations(
    alpha: MultiIndex, beta: MultiIndex, j: int, leibniz: bool = True
) -> InductiveRelationReport:
    """Verify, in exact arithmetic, the recurrences generated by adding index j.

    Checks A-symmetry, the adding-index rule
    A(alpha+, beta+) = A(alpha, beta) (a_j + b_j + 1), the Leibniz rule
    A(alpha+, beta-) = -A(alpha, beta) (needs j in beta), and the matching
    B recurrences on exact squares (radical-free).
    """
    check_same_dimension(alpha, beta)
    a_j = alpha.multiplicity(j)
    b_j = beta.multiplicity(j)
    if leibniz and b_j == 0:
        raise ValueError(f"Leibniz check requires index {j} to occur in beta")

    A = wick_a(alpha, beta)
    B = wick_b(alpha, beta)
    alpha_p = alpha.add(j)
    beta_p = beta.add(j)

    symmetry_ok = wick_a(beta, alpha) == A

    App = wick_a(alpha_p, beta_p)
    adding_ok = App.value == A.value * (a_j + b_j + 1)

    Bpp = wick_b(alpha_p, beta_p)
    b_adding_ok = (
        Bpp.sign == B.sign
        and Bpp.square
        == B.square * Fraction((a_j + b_j + 1) ** 2, (2 * a_j + 1) * (2 * b_j + 1))
    )

    leibniz_ok = b_leibniz_ok = None
    if leibniz:
        beta_m = beta.removed(j)
        Apm = wick_a(alpha_p, beta_m)
        leibniz_ok = Apm.value == -A.value
        Bpm = wick_b(alpha_p, beta_m)
        b_leibniz_ok = (
            Bpm.sign == -B.sign
            and Bpm.square == B.square * Fraction(2 * b_j - 1, 2 * a_j + 1)
        )

    return InductiveRelationReport(
        alpha, beta, j, symmetry_ok, adding_ok, b_adding_ok, leibniz_ok, b_leibniz_ok
    )


class StabilizationScan(NamedTuple):
    """B along repeated differentiation in one coordinate direction.

    ``diagonal[k]`` is B(alpha + k e_j, beta + k e_j).  Every diagonal step
    multiplies B by (a+b+1)/sqrt((2a+1)(2b+1)) > 0, so the sign of B(alpha,
    beta) is preserved along the sequence while the j-th magnitude factor
    tends to 1; the limit is therefore sign(B(alpha, beta)) |B(alpha*,
    beta*)| with the j-th components deleted (``diagonal_limit``).  The
    reference value B(alpha*, beta*) itself is kept in ``stabilized_pair``;
    it differs from the limit by sign when (a_j - b_j)/2 is odd.
    ``one_sided[k]`` is B(alpha, beta + k e_j), with limit 0.
    """

    diagonal: tuple[WickB, ...]
    diagonal_limit: WickB
    stabilized_pair: WickB
    one_sided: tuple[WickB, ...]
    one_sided_limit: WickB

    def monotone_ok(self) -> bool:
        """|B| nondecreasing along the diagonal, compared on exact squares."""
        return all(
            self.diagonal[k + 1].square >= self.diagonal[k].square
            for k in range(len(self.diagonal) - 1)
        )


def b_stabilization_scan(
    alpha: MultiIndex, beta: MultiIndex, j: int, k_max: int
) -> StabilizationScan:
    if k_max < 1:
        raise ValueError("k_max must be at least 1")
    check_same_dimension(alpha, beta)
    diagonal = tuple(
        wick_b(alpha.add(j, k), beta.add(j, k)) for k in range(k_max + 1)
    )
    one_sided = tuple(wick_b(alpha, beta.add(j, k)) for k in range(k_max + 1))
    stabilized = wick_b(alpha.without(j), beta.without(j))
    start_sign = diagonal[0].sign
    if start_sign == 0:
        # parity obstructions survive diagonal shifts: the sequence is 0
        limit = WickB(0, Fraction(0))
    else:
        limit = WickB(start_sign, stabilized.square)
    return StabilizationScan(
        diagonal=diagonal,
        diagonal_limit=limit,
        stabilized_pair=stabilized,
        one_sided=one_sided,
        one_sided_limit=WickB(0, Fraction(0)),
    )
