import math
import random
import re
from fractions import Fraction

import pytest

from spectraljet import oracles, wick
from spectraljet.multiindex import (
    MultiIndex,
    empty,
    enumerate_multiindices,
    from_indices,
    pair_profile,
)
from spectraljet.oracles import (
    b_stabilization_scan,
    check_inductive_relations,
    enumerate_admissible_graphs,
    gaussian_moment_oracle,
)
from spectraljet.wick import (
    WickA,
    WickB,
    double_factorial,
    wick_a,
    wick_b,
)


def mi(indices, n):
    return from_indices(indices, n)


def gaussian_moment_quadrature(alpha, beta, extra_nodes=4):
    """Gauss-Hermite cross-check of ``gaussian_moment_oracle``, exact (up to
    rounding) once the node count exceeds half the polynomial degree;
    ``extra_nodes`` adds margin."""
    from numpy.polynomial.hermite import hermgauss

    prof = pair_profile(alpha, beta)
    if not prof.even_total():
        return 0.0
    total = alpha.degree + beta.degree
    nodes, weights = hermgauss(total // 2 + 1 + extra_nodes)
    integral = 1.0
    for e in prof.entries:
        integral *= float(sum(weights * nodes ** e.sigma2)) / math.sqrt(math.pi)
    sign = -1.0 if (alpha.degree - beta.degree) // 2 % 2 else 1.0
    return sign * math.ldexp(integral, total // 2)


def test_double_factorial():
    assert [double_factorial(k) for k in range(6)] == [1, 1, 3, 15, 105, 945]
    assert wick.double_factorial_table(40) == [double_factorial(k) for k in range(40)]


class TestWickA:
    def test_cross_second_jets(self):
        # two derivatives along i against two along j, i != j
        assert wick_a(mi([1, 1], 2), mi([2, 2], 2)).value == 1

    def test_pure_second_jets(self):
        a = mi([1, 1], 2)
        assert wick_a(a, a).value == 3

    def test_normalization(self):
        assert wick_a(empty(1), empty(1)).value == 1

    def test_odd_multiplicity_vanishes(self):
        assert wick_a(mi([1], 2), mi([2], 2)).value == 0

    def test_third_against_first(self):
        # sigma = 2 gives 3!! = 3, sign (-1)^1
        assert wick_a(mi([1, 1, 1], 1), mi([1], 1)).value == -3

    def test_symmetry_exhaustive(self):
        basis = enumerate_multiindices(2, 4)
        for a in basis:
            for b in basis:
                assert wick_a(a, b) == wick_a(b, a)
                assert wick_b(a, b) == wick_b(b, a)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            wick_a(empty(1), empty(2))


class TestWickB:
    def test_one_third(self):
        b = wick_b(mi([1, 1], 2), mi([2, 2], 2))
        assert b.square == Fraction(1, 9)
        assert b.sign == 1
        assert abs(b.value - 1 / 3) < 1e-15

    def test_minus_sqrt_three_fifths(self):
        b = wick_b(mi([1, 1, 1], 1), mi([1], 1))
        assert (b.sign, b.square) == (-1, Fraction(3, 5))
        assert abs(b.value + math.sqrt(3 / 5)) < 1e-15

    def test_minus_inv_sqrt_three(self):
        b = wick_b(mi([1, 2, 2], 2), mi([1], 2))
        assert (b.sign, b.square) == (-1, Fraction(1, 3))

    def test_large_degree_pair(self, monkeypatch):
        # B^2((D, 0), (D - 2, 2)) = (2D - 3) / (3 (2D - 1)); the closed form
        # evaluates a double factorial only per entry it reads, not a table
        # up to the degree
        d = 3000
        calls = []

        def counted(k):
            calls.append(k)
            return double_factorial(k)

        monkeypatch.setattr(wick, "double_factorial", counted)
        b = wick_b(MultiIndex((d, 0)), MultiIndex((d - 2, 2)))
        assert (b.sign, b.square) == (1, Fraction(2 * d - 3, 3 * (2 * d - 1)))
        assert len(calls) <= 6

    def test_diagonal_is_one(self):
        for a in enumerate_multiindices(2, 4):
            b = wick_b(a, a)
            assert (b.sign, b.square) == (1, Fraction(1))

    def test_float_view_consistency(self):
        for a in enumerate_multiindices(2, 4):
            for b in enumerate_multiindices(2, 4):
                w = wick_b(a, b)
                assert abs(w.value * w.value - float(w.square)) <= 1e-15

    def test_range_and_equality_iff(self):
        # -1 < B <= 1 with B = 1 exactly when the pair is equal
        basis = enumerate_multiindices(3, 4)
        for a in basis:
            for b in basis:
                w = wick_b(a, b)
                assert w.square <= 1
                if w.square == 1 and w.sign == 1:
                    assert a == b
                # the lower bound is strict: B = -1 never occurs
                assert not (w.sign == -1 and w.square == 1)

    def test_record_semantics(self):
        w = WickB(-1, Fraction(1, 3))
        assert repr(w) == "WickB(sign=-1, square=Fraction(1, 3))"
        assert w == WickB(sign=-1, square=Fraction(1, 3)) and w != WickB(1, w.square)
        assert hash(w) == hash((-1, Fraction(1, 3)))
        with pytest.raises(AttributeError):
            w.sign = 1
        assert WickA(1, 3) == WickA(sign=1, magnitude=3)
        with pytest.raises(AttributeError):
            WickA(1, 3).magnitude = 5

    @pytest.mark.parametrize("sign, square, message", [
        (1, Fraction(0), "sign is zero exactly when the square is zero"),
        (0, Fraction(1, 2), "sign is zero exactly when the square is zero"),
        (1, Fraction(3, 2), "square must lie in [0, 1], got 3/2"),
        (-1, Fraction(-1, 2), "square must lie in [0, 1], got -1/2"),
    ])
    def test_invalid_fields(self, sign, square, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            WickB(sign, square)
        with pytest.raises(ValueError, match=re.escape(message)):
            WickB(1, Fraction(1, 3))._replace(sign=sign, square=square)
        if sign == 0 or square == 0:
            with pytest.raises(ValueError, match="sign is zero exactly when magnitude"):
                WickA(sign, int(square * 2))


class TestGraphEnumeration:
    def test_three_matchings(self):
        g = enumerate_admissible_graphs(mi([1, 1], 1), mi([1, 1], 1))
        assert (g.count, g.common_sign) == (3, 1)

    def test_single_matching(self):
        g = enumerate_admissible_graphs(mi([1, 1], 2), mi([2, 2], 2))
        assert (g.count, g.common_sign) == (1, 1)

    def test_no_partner(self):
        g = enumerate_admissible_graphs(mi([1], 2), mi([2], 2))
        assert (g.count, g.common_sign) == (0, None)

    def test_cap(self):
        with pytest.raises(ValueError, match="exceeds enumeration cap 16"):
            enumerate_admissible_graphs(mi([1] * 9, 1), mi([1] * 9, 1))
        g = enumerate_admissible_graphs(mi([1] * 7, 1), mi([1] * 7, 1))
        assert g.count == double_factorial(7)

    def test_sign_is_constant_within_color(self):
        # every enumerated matching of one color class carries one sign
        for a in range(0, 7):
            for b in range(0, 7 - a):
                count, sign = oracles._color_matchings(a, b)
                if (a + b) % 2 == 1:
                    assert count == 0
                    continue
                assert count == double_factorial((a + b) // 2)
                assert sign == (-1) ** (((a - b) // 2) % 2)

    def test_matches_closed_form_small(self):
        basis = enumerate_multiindices(3, 6)
        for a in basis:
            assert wick_a(a, a).magnitude == enumerate_admissible_graphs(a, a).count
            for b in basis:
                g = enumerate_admissible_graphs(a, b)
                w = wick_a(a, b)
                assert g.count == w.magnitude
                if g.count:
                    assert g.common_sign == w.sign


class TestGaussianOracle:
    def test_fourth_moment(self):
        # 4 Gamma(5/2)/sqrt(pi) = 3
        got = gaussian_moment_oracle(mi([1, 1], 1), mi([1, 1], 1))
        assert abs(got - 3.0) < 1e-12

    def test_odd_vanishes(self):
        assert gaussian_moment_oracle(mi([1], 1), empty(1)) == 0.0
        assert gaussian_moment_oracle(mi([1, 1, 2], 2), mi([1], 2)) == 0.0

    def test_product_of_second_moments(self):
        got = gaussian_moment_oracle(mi([1, 1], 2), mi([2, 2], 2))
        assert abs(got - 1.0) < 1e-9

    def test_sign(self):
        got = gaussian_moment_oracle(mi([1, 1, 1], 1), mi([1], 1))
        assert abs(got + 3.0) < 1e-12

    def test_quadrature_cross_check(self):
        basis = enumerate_multiindices(2, 4)
        for a in basis:
            for b in basis:
                gamma_route = gaussian_moment_oracle(a, b)
                quad_route = gaussian_moment_quadrature(a, b)
                assert abs(gamma_route - quad_route) <= 1e-9 * max(1.0, abs(gamma_route))

    def test_agreement_with_closed_form(self):
        basis = enumerate_multiindices(3, 3)
        for a in basis:
            for b in basis:
                exact = wick_a(a, b).value
                oracle = gaussian_moment_oracle(a, b)
                assert abs(oracle - exact) <= 1e-9 * max(1.0, abs(exact))


class TestInductiveRelations:
    def test_leibniz_worked_example(self):
        # A((1,1), {}) = -A((1),(1)) = -1
        assert wick_a(mi([1, 1], 1), empty(1)).value == -1
        report = check_inductive_relations(mi([1], 1), mi([1], 1), 1)
        assert report.all_ok()

    def test_adding_worked_example(self):
        # A((1,1),(1,1)) = A((1),(1)) * (1 + 1 + 1) = 3
        assert wick_a(mi([1, 1], 1), mi([1, 1], 1)).value == 3 * wick_a(
            mi([1], 1), mi([1], 1)
        ).value

    def test_normalization(self):
        assert wick_a(empty(3), empty(3)).value == 1

    def test_leibniz_requires_index_in_beta(self):
        with pytest.raises(ValueError):
            check_inductive_relations(mi([1], 2), mi([1], 2), 2)
        report = check_inductive_relations(mi([1], 2), mi([1], 2), 2, leibniz=False)
        assert report.leibniz_ok is None
        assert report.all_ok()

    def test_randomized_exhaustive(self):
        rng = random.Random(2024)
        basis = enumerate_multiindices(2, 4)
        for _ in range(300):
            a = rng.choice(basis)
            b = rng.choice(basis)
            j = rng.randint(1, 2)
            leibniz = b.multiplicity(j) > 0
            report = check_inductive_relations(a, b, j, leibniz=leibniz)
            assert report.all_ok(), (a, b, j)


class TestStabilization:
    def test_monotone_and_limit(self):
        # alpha = {1,1}, beta = {2,2}: B = 1/3, diagonal tends to +1/sqrt(3)
        scan = b_stabilization_scan(mi([1, 1], 2), mi([2, 2], 2), 1, 40)
        assert scan.monotone_ok()
        assert scan.diagonal[0].square == Fraction(1, 9)
        assert scan.diagonal_limit.sign == 1
        assert scan.diagonal_limit.square == Fraction(1, 3)
        # the stabilized pair B({}, {2,2}) has the opposite sign
        assert scan.stabilized_pair.sign == -1
        assert scan.stabilized_pair.square == Fraction(1, 3)
        # convergence of the exact squares toward the limit square
        gap = abs(scan.diagonal[-1].square - scan.diagonal_limit.square)
        assert gap < Fraction(1, 50)
        assert scan.diagonal[-1].sign == scan.diagonal_limit.sign

    def test_equal_pair_constant(self):
        a = mi([1, 2, 2], 2)
        scan = b_stabilization_scan(a, a, 2, 5)
        assert all(b.square == 1 and b.sign == 1 for b in scan.diagonal)

    def test_sign_preserved_to_negative_limit(self):
        # alpha = {1}, beta = {1,2,2}: B < 0, so the diagonal limit is -1,
        # not B((1),(1)) = +1
        scan = b_stabilization_scan(mi([1], 2), mi([1, 2, 2], 2), 2, 60)
        # |B| never shrinks along the diagonal: each step moves the angle
        # away from pi/2
        assert scan.monotone_ok()
        assert scan.stabilized_pair.value == 1.0
        assert scan.diagonal_limit.sign == -1
        assert scan.diagonal_limit.square == Fraction(1)
        assert scan.diagonal[-1].sign == -1
        assert abs(scan.diagonal[-1].square - 1) < Fraction(1, 30)

    def test_one_sided_tends_to_zero(self):
        scan = b_stabilization_scan(mi([1, 1], 2), mi([2, 2], 2), 1, 60)
        assert scan.one_sided_limit == WickB(0, Fraction(0))
        # odd shifts are parity-blocked outright
        assert all(b.sign == 0 for b in scan.one_sided[1::2])
        # squares rise while the shifted index catches up (k=2 matches the
        # multiplicity on the other side), then decay monotonically to 0
        squares = [float(b.square) for b in scan.one_sided[::2]]
        assert squares[1] > squares[0]
        assert squares[1:] == sorted(squares[1:], reverse=True)
        assert squares[-1] < 1e-3

    def test_parity_blocked_diagonal_stays_zero(self):
        scan = b_stabilization_scan(mi([1], 2), empty(2), 1, 10)
        assert all(b.sign == 0 for b in scan.diagonal)
        assert scan.diagonal_limit == WickB(0, Fraction(0))

    def test_monotone_strictness_condition(self):
        # equality in the diagonal step iff the shifted index has equal
        # multiplicities on both sides
        rng = random.Random(11)
        basis = enumerate_multiindices(2, 5)
        for _ in range(200):
            a, b = rng.choice(basis), rng.choice(basis)
            j = rng.randint(1, 2)
            b0 = wick_b(a, b)
            b1 = wick_b(a.add(j), b.add(j))
            assert b1.square >= b0.square
            if b0.sign != 0 and a.multiplicity(j) != b.multiplicity(j):
                assert b1.square > b0.square
            if a.multiplicity(j) == b.multiplicity(j):
                assert b1.square == b0.square
