"""Derivative multi-indices as lattice points of Z_+^n.

A multi-index records how many derivatives are taken along each of the n
coordinate directions.  Only multiplicities matter (reordering derivatives
changes the operator by lower-order terms that drop out of every leading
asymptote), so the canonical representation is a vector of counts, i.e. a
point of the lattice Z_+^n.
"""
from __future__ import annotations

from itertools import combinations
from operator import mul
from typing import Iterable, NamedTuple

_UNITS = tuple(f"{j}," for j in range(1, 65))  # the text of one copy of j


def counts_text(counts: tuple[int, ...]) -> str:
    """Comma-separated index list of a count tuple, e.g. (2, 0, 1) -> '1,1,3';
    all-zero counts give ''.  The one renderer of a lattice point's text."""
    units = _UNITS
    if len(counts) > len(units):
        units = [f"{j}," for j in range(1, len(counts) + 1)]
    return "".join(map(mul, units, counts))[:-1]


class MultiIndex(NamedTuple("MultiIndex", [("counts", tuple[int, ...])])):
    """A point of Z_+^n: counts[j] = multiplicity of coordinate j+1.

    An immutable record (a tuple subclass), validated on construction;
    ``_replace`` validates too, since it builds through ``_make``.
    """

    __slots__ = ()

    def __new__(cls, counts: tuple[int, ...]):
        if len(counts) == 0:
            raise ValueError("ambient dimension must be positive")
        for c in counts:
            if not isinstance(c, int) or c < 0:
                raise ValueError(f"counts must be non-negative integers, got {counts}")
        return tuple.__new__(cls, (counts,))

    _make = classmethod(lambda cls, fields: cls(*fields))

    @property
    def n(self) -> int:
        return len(self.counts)

    @property
    def degree(self) -> int:
        return sum(self.counts)

    def multiplicity(self, index: int) -> int:
        """Multiplicity of coordinate ``index`` (1-based)."""
        self._check_index(index)
        return self.counts[index - 1]

    def add(self, index: int, k: int = 1) -> "MultiIndex":
        """Return the multi-index with ``k`` extra copies of ``index``."""
        self._check_index(index)
        if k < 0 and self.counts[index - 1] + k < 0:
            raise ValueError(f"cannot remove {-k} copies of index {index}")
        c = list(self.counts)
        c[index - 1] += k
        return MultiIndex(tuple(c))

    def removed(self, index: int) -> "MultiIndex":
        """Return the multi-index with one copy of ``index`` removed."""
        return self.add(index, -1)

    def without(self, index: int) -> "MultiIndex":
        """Return the multi-index with the ``index`` component zeroed."""
        self._check_index(index)
        c = list(self.counts)
        c[index - 1] = 0
        return MultiIndex(tuple(c))

    def parity(self) -> tuple[int, ...]:
        """Component-wise parity vector in {0,1}^n."""
        return tuple(c % 2 for c in self.counts)

    def indices(self) -> tuple[int, ...]:
        """Expand to the sorted list of 1-based indices, e.g. (2,1,1) -> (1,1,2,3)."""
        out: list[int] = []
        for j, c in enumerate(self.counts, start=1):
            out.extend([j] * c)
        return tuple(out)

    def text(self) -> str:
        """Comma-separated index list; the empty multi-index is ''."""
        return counts_text(self.counts)

    def _check_index(self, index: int) -> None:
        if not 1 <= index <= self.n:
            raise ValueError(f"index {index} out of range 1..{self.n}")

    def __str__(self) -> str:
        return self.text()


def empty(n: int) -> MultiIndex:
    return MultiIndex((0,) * n)


def from_indices(indices: Iterable[int], n: int) -> MultiIndex:
    """Build a MultiIndex from an ordered index list (order is irrelevant)."""
    counts = [0] * n
    for j in indices:
        if not isinstance(j, int) or not 1 <= j <= n:
            raise ValueError(f"index {j} out of range 1..{n}")
        counts[j - 1] += 1
    return MultiIndex(tuple(counts))


def parse(text: str, n: int) -> MultiIndex:
    """Parse the CLI form, e.g. '1,1,2'; '' denotes the empty multi-index."""
    text = text.strip()
    if not text:
        return empty(n)
    try:
        indices = [int(tok) for tok in text.split(",")]
    except ValueError as exc:
        raise ValueError(f"cannot parse multi-index {text!r}") from exc
    return from_indices(indices, n)


class ProfileEntry(NamedTuple):
    index: int   # 1-based coordinate
    a: int       # multiplicity in alpha
    b: int       # multiplicity in beta
    sigma2: int  # a + b, i.e. twice the average multiplicity


class PairProfile(NamedTuple):
    """Per-index multiplicity table of a pair (alpha, beta).

    Only indices with a + b > 0 appear.  sigma2 stores twice the average
    multiplicity so that all profile arithmetic stays in exact integers.
    """

    entries: tuple[ProfileEntry, ...]

    @property
    def s(self) -> int:
        return len(self.entries)

    def even_total(self) -> bool:
        """True iff every index has even total multiplicity a + b."""
        return all(e.sigma2 % 2 == 0 for e in self.entries)


def check_same_dimension(alpha: MultiIndex, beta: MultiIndex) -> None:
    if alpha.n != beta.n:
        raise ValueError(f"dimension mismatch: {alpha.n} != {beta.n}")


def pair_profile(alpha: MultiIndex, beta: MultiIndex) -> PairProfile:
    """Collect (index, a, b, a+b) for every index occurring in alpha or beta."""
    check_same_dimension(alpha, beta)
    entries = []
    for j in range(1, alpha.n + 1):
        a = alpha.counts[j - 1]
        b = beta.counts[j - 1]
        if a + b > 0:
            entries.append(ProfileEntry(j, a, b, a + b))
    return PairProfile(tuple(entries))


def symmetric_difference_size(alpha: MultiIndex, beta: MultiIndex) -> int:
    """Multiset symmetric-difference size d0 = sum_j |a_j - b_j|."""
    check_same_dimension(alpha, beta)
    return sum(abs(a - b) for a, b in zip(alpha.counts, beta.counts))


def enumerate_multiindices(n: int, max_degree: int) -> list[MultiIndex]:
    """All multi-indices of degree <= max_degree, ordered by (degree, counts).

    The counts of degree d are the gaps between n - 1 bars placed among
    d + n - 1 slots; bar positions in lexicographic order give the counts
    in ascending order."""
    out: list[MultiIndex] = []
    for d in range(max_degree + 1):
        end = (d + n - 1,)
        for bars in combinations(range(d + n - 1), n - 1):
            out.append(MultiIndex(tuple(
                b - a - 1 for a, b in zip((-1,) + bars, bars + end)
            )))
    return out
