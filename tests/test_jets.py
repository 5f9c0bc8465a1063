import math
import random
from itertools import product

import pytest

from spectraljet.jets import (
    COS,
    EXP,
    SIN,
    SQRT_COS,
    SQRT_SINC,
    SQUARED_GEODESIC,
    TruncatedSeries,
    compose_univariate,
    extract_mixed_partial,
)
from spectraljet.multiindex import MultiIndex, from_indices

# ---------------------------------------------------------------------------
# finite-difference oracle (4th-order central stencils, composed per order)
# ---------------------------------------------------------------------------

_D1 = [(-2, 1 / 12), (-1, -8 / 12), (1, 8 / 12), (2, -1 / 12)]          # f'/h
_D2 = [(-2, -1 / 12), (-1, 16 / 12), (0, -30 / 12), (1, 16 / 12), (2, -1 / 12)]


def _stencil(order):
    ops = {0: [(0, 1.0)]}
    base = {1: _D1, 2: _D2}
    if order in ops:
        return ops[order]
    if order in base:
        return base[order]
    lower = _stencil(order - 2)
    out = {}
    for o1, w1 in lower:
        for o2, w2 in _D2:
            out[o1 + o2] = out.get(o1 + o2, 0.0) + w1 * w2
    return list(out.items())


def fd_mixed_partial(f, orders, h):
    """Mixed partial of f at 0 by tensorized central differences."""
    axes = [_stencil(m) for m in orders]
    total = 0.0
    for combo in product(*axes):
        point = [o * h for o, _ in combo]
        weight = math.prod(w for _, w in combo)
        total += weight * f(point)
    return total / h ** sum(orders)


def series_from_dict(coeffs, num_vars, max_degree):
    return TruncatedSeries(num_vars, max_degree, coeffs)


def random_series(rng, num_vars, max_degree, scale=1.0, density=0.5):
    coeffs = {}

    def fill(prefix, remaining):
        if len(prefix) == num_vars - 1:
            for last in range(remaining + 1):
                if rng.random() < density:
                    coeffs[tuple(prefix + [last])] = scale * rng.uniform(-1, 1)
            return
        for c in range(remaining + 1):
            fill(prefix + [c], remaining - c)

    fill([], max_degree)
    return TruncatedSeries(num_vars, max_degree, coeffs)


class TestSeriesOps:
    def test_mul_monomials(self):
        u1 = TruncatedSeries.variable(0, 4, 4)
        sq = u1 * u1
        assert sq.coefficient((2, 0, 0, 0)) == 1.0

    def test_truncation_drops_high_degree(self):
        u1 = TruncatedSeries.variable(0, 2, 2)
        cube = u1 * u1 * u1
        assert cube.coeffs == {}

    def test_compose_exp_of_zero(self):
        zero = TruncatedSeries(2, 3)
        one = compose_univariate(EXP, zero)
        assert one.coefficient((0, 0)) == 1.0
        assert len(one.coeffs) == 1

    def test_incompatible_series(self):
        with pytest.raises(ValueError):
            TruncatedSeries(2, 3) + TruncatedSeries(3, 3)
        with pytest.raises(ValueError):
            TruncatedSeries(2, 3) * TruncatedSeries(2, 4)

    def test_exponent_validation(self):
        with pytest.raises(ValueError):
            TruncatedSeries(2, 2, {(2, 1): 1.0})
        with pytest.raises(ValueError):
            TruncatedSeries(2, 2, {(1,): 1.0})

    def test_mul_matches_reference_convolution(self):
        # independent naive convolution (no bucketing, no compensation)
        rng = random.Random(31)
        a = random_series(rng, 3, 5)
        b = random_series(rng, 3, 5)
        ref = {}
        for e1, c1 in a.coeffs.items():
            for e2, c2 in b.coeffs.items():
                if sum(e1) + sum(e2) > 5:
                    continue
                key = tuple(x + y for x, y in zip(e1, e2))
                ref[key] = ref.get(key, 0.0) + c1 * c2
        prod = a * b
        for key in set(ref) | set(prod.coeffs):
            assert abs(prod.coefficient(key) - ref.get(key, 0.0)) <= 1e-13

    def test_ring_axioms_random(self):
        rng = random.Random(5)
        for _ in range(12):
            a = random_series(rng, 3, 4)
            b = random_series(rng, 3, 4)
            c = random_series(rng, 3, 4)
            ab_c = (a * b) * c
            a_bc = a * (b * c)
            scale = max(ab_c.max_abs_coefficient(), 1.0)
            for exps in set(ab_c.coeffs) | set(a_bc.coeffs):
                assert abs(ab_c.coefficient(exps) - a_bc.coefficient(exps)) <= 1e-13 * scale
            ab = a * b
            ba = b * a
            for exps in set(ab.coeffs) | set(ba.coeffs):
                assert abs(ab.coefficient(exps) - ba.coefficient(exps)) == 0.0
            lhs = a * (b + c)
            rhs = a * b + a * c
            scale = max(lhs.max_abs_coefficient(), 1.0)
            for exps in set(lhs.coeffs) | set(rhs.coeffs):
                assert abs(lhs.coefficient(exps) - rhs.coefficient(exps)) <= 1e-13 * scale


class TestKernels:
    def test_exp_cos_sin_coefficients_at_zero(self):
        assert EXP.coefficients(0.0, 4) == [1.0, 1.0, 0.5, 1 / 6]
        cos_c = COS.coefficients(0.0, 5)
        assert cos_c == [1.0, 0.0, -0.5, 0.0, 1 / 24]
        sin_c = SIN.coefficients(0.0, 4)
        assert sin_c == [0.0, 1.0, 0.0, -1 / 6]

    def test_recentred_cos_coefficients(self):
        c = COS.coefficients(0.7, 3)
        assert abs(c[0] - math.cos(0.7)) < 1e-15
        assert abs(c[1] + math.sin(0.7)) < 1e-15
        assert abs(c[2] + math.cos(0.7) / 2) < 1e-15

    def test_entire_sqrt_kernels_match_sympy(self):
        import sympy

        z = sympy.Symbol("z")
        cos_series = sympy.series(sympy.cos(sympy.sqrt(z)), z, 0, 5).removeO()
        sinc_series = sympy.series(
            sympy.sin(sympy.sqrt(z)) / sympy.sqrt(z), z, 0, 5
        ).removeO()
        got_c = SQRT_COS.coefficients(0.0, 5)
        got_s = SQRT_SINC.coefficients(0.0, 5)
        for k in range(5):
            want_c = float(cos_series.coeff(z, k))
            want_s = float(sinc_series.coeff(z, k))
            assert abs(got_c[k] - want_c) <= 1e-14 * max(1.0, abs(want_c))
            assert abs(got_s[k] - want_s) <= 1e-14 * max(1.0, abs(want_s))

    def test_squared_geodesic_series_numeric(self):
        coeffs = SQUARED_GEODESIC.coefficients(0.0, 9)
        assert coeffs[1] == -2.0
        assert abs(coeffs[2] - 1 / 3) < 1e-15
        for w in (-0.02, -0.005, -0.001):
            series_val = sum(c * w**k for k, c in enumerate(coeffs))
            assert abs(series_val - SQUARED_GEODESIC(w)) < 1e-13

    def test_origin_only_kernels_refuse_recentring(self):
        with pytest.raises(ValueError):
            SQRT_COS.coefficients(1.0, 3)


class TestComposition:
    def test_sin_sq_plus_cos_sq(self):
        rng = random.Random(9)
        inner = random_series(rng, 2, 4, scale=0.3)
        s = compose_univariate(SIN, inner)
        c = compose_univariate(COS, inner)
        total = s * s + c * c
        assert abs(total.coefficient((0, 0)) - 1.0) <= 1e-13
        for exps in total.coeffs:
            if sum(exps):
                assert abs(total.coeffs[exps]) <= 1e-13

    def test_pythagoras_for_sqrt_kernels(self):
        z = TruncatedSeries.variable(0, 1, 6)
        s = compose_univariate(SQRT_SINC, z)
        c = compose_univariate(SQRT_COS, z)
        total = s * s * z + c * c
        assert abs(total.coefficient((0,)) - 1.0) <= 1e-13
        for exps, val in total.coeffs.items():
            if sum(exps):
                assert abs(val) <= 1e-13

    def test_compose_matches_finite_differences(self):
        # cos of a |u - v|-style quadratic, first derivative at 1e-6 step
        nv, D = 4, 4
        q = {}
        for i in range(2):
            eu = [0] * nv
            eu[i] = 2
            q[tuple(eu)] = 0.5
            ev = [0] * nv
            ev[2 + i] = 2
            q[tuple(ev)] = 0.5
            em = [0] * nv
            em[i] = 1
            em[2 + i] = 1
            q[tuple(em)] = -1.0
        inner = series_from_dict(q, nv, D)
        composed = compose_univariate(COS, inner)

        def f(point):
            return math.cos(inner.evaluate(point))

        h = 1e-6
        for var in range(nv):
            offsets = [0.0] * nv
            plus = list(offsets)
            plus[var] = h
            minus = list(offsets)
            minus[var] = -h
            fd = (f(plus) - f(minus)) / (2 * h)
            if var < 2:
                alpha = MultiIndex(tuple(1 if v == var else 0 for v in range(2)))
                got = extract_mixed_partial(composed, alpha, MultiIndex((0, 0)))
            else:
                beta = MultiIndex(tuple(1 if v == var - 2 else 0 for v in range(2)))
                got = extract_mixed_partial(composed, MultiIndex((0, 0)), beta)
            assert abs(got - fd) < 1e-6

    def test_recentred_composition_value(self):
        # inner with nonzero constant term: kernel expands about it
        rng = random.Random(3)
        inner = random_series(rng, 2, 4, scale=0.2) + 0.9
        composed = compose_univariate(COS, inner)

        def f(point):
            return math.cos(inner.evaluate(point))

        assert abs(composed.coefficient((0, 0)) - f([0, 0])) < 1e-14
        fd = fd_mixed_partial(f, (1, 1), 0.02)
        got = extract_mixed_partial(
            composed, MultiIndex((1,)), MultiIndex((1,))
        )
        assert abs(got - fd) < 1e-6


class TestExtraction:
    def test_u1_v1(self):
        s = series_from_dict({(1, 1): 1.0}, 2, 2)
        got = extract_mixed_partial(s, MultiIndex((1,)), MultiIndex((1,)))
        assert got == 1.0

    def test_quarter_u1sq_v1sq(self):
        s = series_from_dict({(2, 2): 0.25}, 2, 4)
        got = extract_mixed_partial(
            s, from_indices([1, 1], 1), from_indices([1, 1], 1)
        )
        assert got == 1.0

    def test_degree_cap(self):
        s = series_from_dict({(1, 1): 1.0}, 2, 2)
        with pytest.raises(ValueError):
            extract_mixed_partial(s, from_indices([1, 1], 1), from_indices([1], 1))

    def test_against_sympy_polynomials(self):
        import sympy

        rng = random.Random(17)
        xs = sympy.symbols("u1 u2 v1 v2")
        for _ in range(6):
            series = random_series(rng, 4, 6, density=0.25)
            expr = sum(
                c * math.prod(s**e for s, e in zip(xs, exps))
                for exps, c in series.coeffs.items()
            )
            for alpha_idx, beta_idx in (
                ([1], [1]), ([1, 2], [2]), ([1, 1], [1, 1]),
                ([2, 2, 2], [1, 1, 2]), ([1, 1, 1, 2, 2], [2]),
            ):
                alpha = from_indices(alpha_idx, 2)
                beta = from_indices(beta_idx, 2)
                if alpha.degree + beta.degree > 6:
                    continue
                d = expr
                for s, m in zip(xs, alpha.counts + beta.counts):
                    if m:
                        d = sympy.diff(d, s, m)
                want = float(d.subs({s: 0 for s in xs}))
                got = extract_mixed_partial(series, alpha, beta)
                assert abs(got - want) <= 1e-12 * max(1.0, abs(want))

    def test_fd_oracle_through_degree_four(self):
        rng = random.Random(23)
        series = random_series(rng, 4, 6, density=0.4)

        def f(point):
            return series.evaluate(point)

        cases = [
            ((1, 0), (1, 0)), ((2, 0), (0, 0)), ((1, 1), (1, 1)),
            ((2, 0), (0, 2)), ((0, 3), (0, 1)), ((4, 0), (0, 0)),
        ]
        for ac, bc in cases:
            alpha, beta = MultiIndex(ac), MultiIndex(bc)
            got = extract_mixed_partial(series, alpha, beta)
            fd = fd_mixed_partial(f, ac + bc, h=0.03)
            assert abs(got - fd) <= 1e-5 * max(1.0, abs(got))
