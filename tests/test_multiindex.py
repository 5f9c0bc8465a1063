import math
import random
import re
from collections import Counter
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spectraljet import multiindex
from spectraljet.multiindex import (
    MultiIndex,
    empty,
    enumerate_multiindices,
    from_indices,
    pair_profile,
    symmetric_difference_size,
)


def test_from_indices_counts():
    assert from_indices([1, 1, 2, 3], 3).counts == (2, 1, 1)


def test_from_indices_empty():
    assert from_indices([], 2).counts == (0, 0)
    assert empty(2) == from_indices([], 2)


def test_from_indices_permutation_invariant_example():
    assert from_indices([3, 1, 1, 2], 3) == from_indices([1, 1, 2, 3], 3)


def test_from_indices_out_of_range():
    with pytest.raises(ValueError):
        from_indices([0], 2)
    with pytest.raises(ValueError):
        from_indices([3], 2)


@given(st.lists(st.integers(min_value=1, max_value=4), max_size=12), st.randoms())
@settings(max_examples=200, derandomize=True)
def test_from_indices_permutation_invariant(indices, rng):
    shuffled = list(indices)
    rng.shuffle(shuffled)
    assert from_indices(shuffled, 4) == from_indices(indices, 4)


def test_parse_round_trip():
    m = multiindex.parse("1,1,2", 3)
    assert m.counts == (2, 1, 0)
    assert m.text() == "1,1,2"
    assert multiindex.parse("", 2) == empty(2)
    with pytest.raises(ValueError):
        multiindex.parse("1,x", 2)


def test_text_is_the_index_list():
    # n = 64 and 65 sit on both sides of the precomputed per-index units
    points = enumerate_multiindices(4, 7) + [
        MultiIndex((12, 0, 21, 7)),
        MultiIndex((2,) + (0,) * 62 + (3,)),
        MultiIndex((1,) * 65),
        MultiIndex((0,) * 99 + (2,)),
    ]
    for m in points:
        assert m.text() == ",".join(map(str, m.indices()))
        assert multiindex.parse(m.text(), m.n) == m


def test_record_semantics():
    m = MultiIndex((1, 2))
    assert repr(m) == "MultiIndex(counts=(1, 2))"
    assert m == MultiIndex(counts=(1, 2)) and m != MultiIndex((2, 1))
    assert hash(m) == hash(MultiIndex((1, 2))) == hash(((1, 2),))
    with pytest.raises(AttributeError):
        m.counts = (3, 4)
    with pytest.raises(AttributeError):
        m.extra = 1
    assert m._replace(counts=(0, 5)) == MultiIndex((0, 5))
    # isinstance(c, int) is the check, so a bool count passes as before
    assert MultiIndex((True, 0)) == MultiIndex((1, 0))


@pytest.mark.parametrize("counts, message", [
    ((), "ambient dimension must be positive"),
    ((1, -1), "counts must be non-negative integers, got (1, -1)"),
    ((1, 2.0), "counts must be non-negative integers, got (1, 2.0)"),
    ((None,), "counts must be non-negative integers, got (None,)"),
])
def test_invalid_counts(counts, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        MultiIndex(counts)
    with pytest.raises(ValueError, match=re.escape(message)):
        MultiIndex((1,))._replace(counts=counts)


def test_degree_and_indices():
    m = from_indices([2, 1, 1], 3)
    assert m.degree == 3
    assert m.indices() == (1, 1, 2)
    assert m.multiplicity(1) == 2


def test_add_remove_without():
    m = from_indices([1, 2], 2)
    assert m.add(1).counts == (2, 1)
    assert m.removed(2).counts == (1, 0)
    assert m.add(1, 3).without(1) == from_indices([2], 2)
    with pytest.raises(ValueError):
        m.removed(2).removed(2)


def test_pair_profile_worked_example():
    # alpha = two derivatives along 1, beta = two along 2
    prof = pair_profile(from_indices([1, 1], 2), from_indices([2, 2], 2))
    assert prof.s == 2
    assert [(e.index, e.a, e.b) for e in prof.entries] == [(1, 2, 0), (2, 0, 2)]
    assert prof.even_total()


def test_pair_profile_empty():
    prof = pair_profile(empty(2), empty(2))
    assert prof.s == 0
    assert prof.even_total()


def test_pair_profile_odd():
    prof = pair_profile(from_indices([1], 2), from_indices([2], 2))
    assert not prof.even_total()
    assert [(e.index, e.a, e.b) for e in prof.entries] == [(1, 1, 0), (2, 0, 1)]


def test_pair_profile_dimension_mismatch():
    with pytest.raises(ValueError):
        pair_profile(empty(2), empty(3))


def test_pair_profile_conservation_random():
    rng = random.Random(7)
    for _ in range(100):
        a = from_indices([rng.randint(1, 3) for _ in range(rng.randint(0, 8))], 3)
        b = from_indices([rng.randint(1, 3) for _ in range(rng.randint(0, 8))], 3)
        prof = pair_profile(a, b)
        assert sum(e.a for e in prof.entries) == a.degree
        assert sum(e.b for e in prof.entries) == b.degree
        assert all(e.sigma2 == e.a + e.b >= 1 for e in prof.entries)
        parity_even = all((x + y) % 2 == 0 for x, y in zip(a.counts, b.counts))
        assert prof.even_total() == parity_even


def _multiset_symmetric_difference(a: MultiIndex, b: MultiIndex) -> int:
    ca, cb = Counter(a.indices()), Counter(b.indices())
    return sum(((ca - cb) + (cb - ca)).values())


def test_symmetric_difference_examples():
    assert symmetric_difference_size(from_indices([1, 1], 2), from_indices([2, 2], 2)) == 4
    a = from_indices([1, 2, 2], 3)
    assert symmetric_difference_size(a, a) == 0
    # |2-1| + |1-0| = 2, cross-checked by the multiset route
    a = from_indices([1, 1, 2], 2)
    b = from_indices([1], 2)
    assert symmetric_difference_size(a, b) == 2
    assert symmetric_difference_size(a, b) == _multiset_symmetric_difference(a, b)


@given(
    st.lists(st.integers(min_value=1, max_value=3), max_size=10),
    st.lists(st.integers(min_value=1, max_value=3), max_size=10),
    st.lists(st.integers(min_value=1, max_value=3), max_size=10),
)
@settings(max_examples=200, derandomize=True)
def test_symmetric_difference_is_metric(ia, ib, ic):
    a, b, c = (from_indices(i, 3) for i in (ia, ib, ic))
    d_ab = symmetric_difference_size(a, b)
    d_bc = symmetric_difference_size(b, c)
    d_ac = symmetric_difference_size(a, c)
    assert d_ab == symmetric_difference_size(b, a)
    assert (d_ab == 0) == (a == b)
    assert d_ac <= d_ab + d_bc
    assert d_ab == _multiset_symmetric_difference(a, b)


def test_enumerate_multiindices_counts():
    for n in (1, 2, 3):
        for d in (0, 2, 4):
            got = enumerate_multiindices(n, d)
            assert len(got) == math.comb(d + n, n)
            assert len(set(got)) == len(got)
            assert all(m.degree <= d for m in got)
            degrees = [m.degree for m in got]
            assert degrees == sorted(degrees)


def test_enumerate_multiindices_order():
    # against a brute-force filter of the box [0, d]^n, in the documented
    # (degree, counts) order
    for n in range(1, 6):
        for d in range(9):
            box = [c for c in product(range(d + 1), repeat=n) if sum(c) <= d]
            want = sorted(box, key=lambda c: (sum(c), c))
            assert [m.counts for m in enumerate_multiindices(n, d)] == want, (n, d)
