"""Exact Wick constants A and B by their closed form.

For multi-indices alpha, beta with per-index multiplicities (a_r, b_r) and
sigma_r = (a_r + b_r)/2, the constants are

    A(alpha, beta) = (-1)^((|alpha|-|beta|)/2) * prod_r (2 sigma_r - 1)!!
    B(alpha, beta) = A(alpha, beta) / sqrt(A(alpha, alpha) A(beta, beta))

when every a_r + b_r is even, and 0 otherwise.  A is computed three ways:

* the closed form above (exact integers), in this module;
* exhaustive enumeration of signed same-color perfect matchings, in
  :mod:`spectraljet.oracles`;
* Gaussian moments via the half-integer Gamma identity (floats), in
  :mod:`spectraljet.oracles`.

The routes share no code, so each can falsify the others.  B is stored as a
sign together with its exact rational square, which keeps comparisons such as
B = 1 <=> alpha = beta radical-free.  The square is a ``Fraction``, which
:func:`wick_b` imports when it runs: the lattice suite decides on the
integers of :func:`wick_kernel`, so the lattice command never loads
:mod:`fractions`.
"""
from __future__ import annotations

import math
from collections.abc import Mapping, Sequence
from typing import NamedTuple

from .multiindex import MultiIndex, check_same_dimension


def double_factorial(k: int) -> int:
    """(2k - 1)!! = 1 * 3 * ... * (2k - 1), with k = 0 giving 1."""
    if k < 0:
        raise ValueError("k must be non-negative")
    out = 1
    for i in range(1, 2 * k, 2):
        out *= i
    return out


class WickA(NamedTuple("WickA", [("sign", int), ("magnitude", int)])):
    """Signed exact value of A: sign in {-1, 0, +1}, arbitrary-precision magnitude."""

    __slots__ = ()

    def __new__(cls, sign: int, magnitude: int):
        if (sign == 0) != (magnitude == 0):
            raise ValueError("sign is zero exactly when magnitude is zero")
        return tuple.__new__(cls, (sign, magnitude))

    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace validates

    @property
    def value(self) -> int:
        return self.sign * self.magnitude


class WickB(NamedTuple("WickB", [("sign", int), ("square", "Fraction")])):
    """B as (sign, exact rational square); the float view is derived."""

    __slots__ = ()

    def __new__(cls, sign: int, square: Fraction):
        if (sign == 0) != (square == 0):
            raise ValueError("sign is zero exactly when the square is zero")
        if square < 0 or square > 1:
            raise ValueError(f"square must lie in [0, 1], got {square}")
        return tuple.__new__(cls, (sign, square))

    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace validates

    @property
    def value(self) -> float:
        return self.sign * math.sqrt(self.square)


def double_factorial_table(size: int) -> list[int]:
    """``table[k] = (2k - 1)!!`` for 0 <= k < size, one multiplication per entry."""
    table = [1] * size
    for k in range(1, size):
        table[k] = table[k - 1] * (2 * k - 1)
    return table


def wick_kernel(
    a: tuple[int, ...], b: tuple[int, ...], df: Sequence[int] | Mapping[int, int]
) -> tuple[int, int, int, int]:
    """The closed form on count tuples: (sign, |A(a, b)|, A(a, a), A(b, b)).

    B(a, b)^2 = |A(a, b)|^2 / (A(a, a) A(b, b)), so every B decision can be
    made by integer cross-multiplication.  When some a_r + b_r is odd, A = 0
    and all four entries are 0.  ``df[k]`` must give (2k - 1)!! for every
    a_r, b_r and (a_r + b_r) // 2: a :func:`double_factorial_table` or a dict
    of just those entries.  Nothing is validated: callers pass count tuples
    of one length.
    """
    magnitude = diag_a = diag_b = 1
    gap = 0
    for x, y in zip(a, b):
        if (x + y) % 2:
            return 0, 0, 0, 0
        magnitude *= df[(x + y) // 2]
        diag_a *= df[x]
        diag_b *= df[y]
        gap += x - y
    return (-1 if (gap // 2) % 2 else 1), magnitude, diag_a, diag_b


def _closed_form(alpha: MultiIndex, beta: MultiIndex) -> tuple[int, int, int, int]:
    check_same_dimension(alpha, beta)
    # Only the entries the kernel reads: O(sum of counts) multiplications,
    # where a table up to the degree would cost O(degree^2).
    df = {k: double_factorial(k)
          for x, y in zip(alpha.counts, beta.counts) for k in (x, y, (x + y) // 2)}
    return wick_kernel(alpha.counts, beta.counts, df)


def wick_a(alpha: MultiIndex, beta: MultiIndex) -> WickA:
    """A(alpha, beta) by the closed double-factorial form."""
    sign, magnitude, _, _ = _closed_form(alpha, beta)
    return WickA(sign, magnitude)


def wick_b(alpha: MultiIndex, beta: MultiIndex) -> WickB:
    """B(alpha, beta) as sign plus exact rational square A^2 / (A_aa * A_bb)."""
    # a plain import: in a function, ``from fractions import Fraction`` also
    # asks the module for the ``__path__`` it lacks, which took 0.6 us a call
    # against 0.1 us (2-vCPU x86-64 VM, Python 3.11)
    import fractions

    sign, magnitude, diag_a, diag_b = _closed_form(alpha, beta)
    if sign == 0:
        return WickB(0, fractions.Fraction(0))
    return WickB(sign, fractions.Fraction(magnitude * magnitude, diag_a * diag_b))
