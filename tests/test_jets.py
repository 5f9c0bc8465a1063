import math
import random
from fractions import Fraction
from itertools import product

import pytest

from spectraljet.jets import (
    SQRT_COS,
    SQRT_SINC,
    SQUARED_GEODESIC,
    X,
    Y,
    Z,
    CosinePowerTable,
    compose_univariate,
    extract_mixed_partial,
    series_add,
    series_mul,
)
from spectraljet.manifolds import (
    Sphere,
    _rounded_jet,
    _sphere_series_tables,
    squared_distance_jets,
)
from spectraljet.multiindex import MultiIndex, enumerate_multiindices, from_indices
from tests.oracles import sphere_cosine_powers, squared_geodesic

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


def random_series(rng, cap, density=0.5, constant=True):
    """Random rational coefficients on the monomials x^a y^b z^c, a+b+c <= cap."""
    coeffs = {}
    for key in product(range(cap + 1), repeat=3):
        if sum(key) > cap or (not constant and not any(key)):
            continue
        if rng.random() < density:
            value = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
            if value:
                coeffs[key] = value
    return coeffs


def evaluate(series, point):
    """The series at a chart point (u then v), through x, y and z."""
    n = len(point) // 2
    u, v = point[:n], point[n:]
    x = sum(a * a for a in u)
    y = sum(b * b for b in v)
    z = sum(a * b for a, b in zip(u, v))
    return math.fsum(float(c) * x**a * y**b * z**k for (a, b, k), c in series.items())


def sympy_w_powers(n, degree):
    """[w^0, ..., w^(degree // 2)] for w = cos Theta - 1 on the unit S^n,
    expanded by sympy in the 2n chart offsets and truncated at total degree
    `degree`: the kernels from sympy's own series, and no invariants."""
    import sympy
    from sympy.polys.domains import QQ
    from sympy.polys.rings import ring

    names = [f"u{i}" for i in range(n)] + [f"v{i}" for i in range(n)]
    R, *gens = ring(",".join(names), QQ)
    u, v = gens[:n], gens[n:]
    cap = degree // 2
    t = sympy.Symbol("t")

    def kernel(expr):
        poly = sympy.series(expr, t, 0, cap + 1).removeO()
        return [sympy.Rational(poly.coeff(t, k)) for k in range(cap + 1)]

    def trunc(p):
        return R({m: c for m, c in p.items() if sum(m) <= degree})

    def compose(coeffs, q):
        out, power = R(0), R(1)
        for c in coeffs:
            out += power * QQ(int(c.p), int(c.q))
            power = trunc(power * q)
        return out

    c = kernel(sympy.cos(sympy.sqrt(t)))
    s = kernel(sympy.sin(sympy.sqrt(t)) / sympy.sqrt(t))
    x = sum(a**2 for a in u)
    y = sum(b**2 for b in v)
    z = sum(a * b for a, b in zip(u, v))
    w = trunc(compose(c, x) * compose(c, y) + compose(s, x) * compose(s, y) * z) - 1
    powers = [R(1)]
    for _ in range(cap):
        powers.append(trunc(powers[-1] * w))
    return powers


def sympy_jet(poly, alpha, beta):
    """D_u^alpha D_v^beta at 0 of a sympy ring element, as a Fraction."""
    exps = alpha.counts + beta.counts
    c = dict(poly.items()).get(exps)
    if c is None:
        return Fraction(0)
    return Fraction(int(c.numerator), int(c.denominator)) * math.prod(
        math.factorial(e) for e in exps
    )


def ordered_pairs(n, degree):
    basis = enumerate_multiindices(n, degree)
    return [(a, b) for a in basis for b in basis if a.degree + b.degree <= degree]


class TestSeriesOps:
    def test_mul_monomials(self):
        assert series_mul(X, X, 4) == {(2, 0, 0): 1}
        assert series_mul(X, Z, 4) == {(1, 0, 1): 1}

    def test_truncation_drops_high_degree(self):
        cube = series_mul(series_mul(X, Y, 2), Z, 2)
        assert cube == {}

    def test_compose_of_zero(self):
        assert compose_univariate(SQRT_COS, {}, 3) == {(0, 0, 0): 1}
        assert compose_univariate(SQUARED_GEODESIC, {}, 3) == {}

    def test_mul_matches_reference_convolution(self):
        # independent naive convolution, truncated after the fact
        rng = random.Random(31)
        a = random_series(rng, 4)
        b = random_series(rng, 4)
        ref = {}
        for e1, c1 in a.items():
            for e2, c2 in b.items():
                key = tuple(x + y for x, y in zip(e1, e2))
                ref[key] = ref.get(key, 0) + c1 * c2
        ref = {k: c for k, c in ref.items() if sum(k) <= 4 and c}
        assert series_mul(a, b, 4) == ref

    def test_ring_axioms_random(self):
        rng = random.Random(5)
        for _ in range(12):
            a, b, c = (random_series(rng, 3) for _ in range(3))
            assert series_mul(series_mul(a, b, 3), c, 3) == series_mul(
                a, series_mul(b, c, 3), 3)
            assert series_mul(a, b, 3) == series_mul(b, a, 3)
            assert series_mul(a, series_add(b, c), 3) == series_add(
                series_mul(a, b, 3), series_mul(a, c, 3))
            assert series_add(a, {k: -v for k, v in a.items()}) == {}


class TestKernels:
    def test_entire_sqrt_kernels_match_sympy(self):
        import sympy

        z = sympy.Symbol("z")
        cos_series = sympy.series(sympy.cos(sympy.sqrt(z)), z, 0, 6).removeO()
        sinc_series = sympy.series(
            sympy.sin(sympy.sqrt(z)) / sympy.sqrt(z), z, 0, 6
        ).removeO()
        got_c = SQRT_COS.coefficients(6)
        got_s = SQRT_SINC.coefficients(6)
        for k in range(6):
            assert sympy.Rational(got_c[k].numerator, got_c[k].denominator) \
                == cos_series.coeff(z, k)
            assert sympy.Rational(got_s[k].numerator, got_s[k].denominator) \
                == sinc_series.coeff(z, k)

    def test_squared_geodesic_series_numeric(self):
        coeffs = SQUARED_GEODESIC.coefficients(9)
        assert coeffs[:3] == [0, -2, Fraction(1, 3)]
        for w in (-0.02, -0.005, -0.001):
            series_val = sum(float(c) * w**k for k, c in enumerate(coeffs))
            assert abs(series_val - squared_geodesic(w)) < 1e-13

    def test_squared_geodesic_matches_sympy(self):
        # arccos(1 + w) = 2 arcsin(sqrt(-w/2)), and arcsin(sqrt s)^2 is
        # analytic in s
        import sympy

        s, w = sympy.symbols("s w")
        h = sympy.series(sympy.asin(sympy.sqrt(s)) ** 2, s, 0, 7).removeO()
        g = sympy.expand(4 * h.subs(s, -w / 2))
        for k, c in enumerate(SQUARED_GEODESIC.coefficients(7)):
            assert sympy.Rational(c.numerator, c.denominator) == g.coeff(w, k)

    def test_origin_only_kernels_refuse_recentring(self):
        # a kernel is expanded at 0 only, so its inner series must vanish there
        with pytest.raises(ValueError):
            compose_univariate(SQRT_COS, series_add(X, {(0, 0, 0): 1}), 3)


class TestComposition:
    def test_sin_sq_plus_cos_sq(self):
        # cos^2 sqrt(q) + sin^2 sqrt(q) = 1 for a random inner series q
        rng = random.Random(9)
        for _ in range(4):
            q = random_series(rng, 4, constant=False)
            c = compose_univariate(SQRT_COS, q, 4)
            s = compose_univariate(SQRT_SINC, q, 4)
            total = series_add(series_mul(c, c, 4),
                               series_mul(series_mul(s, s, 4), q, 4))
            assert total == {(0, 0, 0): 1}

    def test_pythagoras_for_sqrt_kernels(self):
        c = compose_univariate(SQRT_COS, X, 6)
        s = compose_univariate(SQRT_SINC, X, 6)
        total = series_add(series_mul(c, c, 6), series_mul(series_mul(s, s, 6), X, 6))
        assert total == {(0, 0, 0): 1}

    def test_compose_matches_finite_differences(self):
        # cos|u - v| through |u - v|^2 = x + y - 2z, on R^2 x R^2
        inner = {(1, 0, 0): 1, (0, 1, 0): 1, (0, 0, 1): -2}
        composed = compose_univariate(SQRT_COS, inner, 3)

        def f(point):
            return math.cos(math.dist(point[:2], point[2:]))

        cases = [
            ((1, 0), (1, 0)), ((2, 0), (0, 0)), ((1, 1), (1, 1)),
            ((2, 0), (0, 2)), ((0, 3), (0, 1)), ((4, 0), (0, 0)),
        ]
        for ac, bc in cases:
            got = extract_mixed_partial(composed, MultiIndex(ac), MultiIndex(bc))
            fd = fd_mixed_partial(f, ac + bc, h=0.02)
            assert abs(float(got) - fd) <= 1e-5 * max(1.0, abs(fd))
        assert extract_mixed_partial(composed, MultiIndex((1, 0)), MultiIndex((1, 0))) == 1


class TestExtraction:
    def test_u1_v1(self):
        got = extract_mixed_partial(Z, MultiIndex((1,)), MultiIndex((1,)))
        assert got == 1

    def test_quarter_u1sq_v1sq(self):
        s = {(1, 1, 0): Fraction(1, 4)}
        got = extract_mixed_partial(s, from_indices([1, 1], 1), from_indices([1, 1], 1))
        assert got == 1

    def test_degree_cap(self):
        # a pair of unequal dimensions is refused, not 0
        with pytest.raises(ValueError):
            extract_mixed_partial(Z, MultiIndex((1,)), MultiIndex((1, 0)))

    def test_against_sympy_polynomials(self):
        import sympy

        rng = random.Random(17)
        u1, u2, v1, v2 = xs = sympy.symbols("u1 u2 v1 v2")
        x, y, z = u1**2 + u2**2, v1**2 + v2**2, u1 * v1 + u2 * v2
        for _ in range(6):
            series = random_series(rng, 3, density=0.4)
            expr = sum(
                sympy.Rational(c.numerator, c.denominator) * x**a * y**b * z**k
                for (a, b, k), c in series.items()
            )
            for alpha_idx, beta_idx in (
                ([1], [1]), ([1, 2], [2]), ([1, 1], [1, 1]), ([1, 1, 2, 2], [2, 2]),
                ([2, 2, 2], [1, 1, 2]), ([1, 1, 1, 2, 2], [2]), ([1, 2, 2], [1, 1, 1]),
            ):
                alpha = from_indices(alpha_idx, 2)
                beta = from_indices(beta_idx, 2)
                d = expr
                for s, m in zip(xs, alpha.counts + beta.counts):
                    if m:
                        d = sympy.diff(d, s, m)
                want = d.subs({s: 0 for s in xs})
                got = extract_mixed_partial(series, alpha, beta)
                assert sympy.Rational(got.numerator, got.denominator) == want

    def test_fd_oracle_through_degree_four(self):
        rng = random.Random(23)
        series = {k: c / 4 for k, c in random_series(rng, 3, density=0.4).items()}

        def f(point):
            return evaluate(series, point)

        cases = [
            ((1, 0), (1, 0)), ((2, 0), (0, 0)), ((1, 1), (1, 1)),
            ((2, 0), (0, 2)), ((0, 3), (0, 1)), ((4, 0), (0, 0)),
        ]
        for ac, bc in cases:
            got = float(extract_mixed_partial(series, MultiIndex(ac), MultiIndex(bc)))
            fd = fd_mixed_partial(f, ac + bc, h=0.03)
            assert abs(got - fd) <= 1e-5 * max(1.0, abs(got))


class TestCosinePowerTable:
    """The powers of w grown by weighted degree against the powers built by
    truncated products at each cap."""

    @pytest.mark.parametrize("caps", [range(1, 9), [8], [3, 8, 5]],
                             ids=["one degree at a time", "top at once", "mixed"])
    def test_monomials_up_to_each_cap_match_truncated_products(self, caps):
        table = CosinePowerTable()
        for cap in caps:
            for top in range(cap + 1):
                got = table.upto(top)
                fresh = sphere_cosine_powers(top)
                assert len(got) == len(fresh) == top + 1
                for power, want in zip(got, fresh):
                    assert {k: v for k, v in power.items() if sum(k) <= top} == want
            assert table.cap == max(caps[:caps.index(cap) + 1])

    def test_sliced_tables_give_fresh_extraction_vectors(self):
        # the top table first, so that every smaller degree is a slice of it
        _sphere_series_tables(16)
        s = Sphere(2, 1.3)
        even = [(a, b) for a, b in ordered_pairs(2, 16)
                if not any((i + j) % 2 for i, j in zip(a.counts, b.counts))]
        for degree in range(2, 17, 2):
            fresh = sphere_cosine_powers(degree // 2)
            checked = 0
            for a, b in even:
                order = a.degree + b.degree
                if max(2, order + order % 2) != degree:
                    continue
                got = s._extract_vector(a, b)
                want = tuple(_rounded_jet(extract_mixed_partial(p, a, b), 1.3,
                                          -order, order) for p in fresh)
                assert len(got) == degree // 2 + 1
                assert got == want, (degree, a, b)
                checked += 1
            assert checked, degree


class TestSphereExtraction:
    # the exact route against sympy's expansion in the 2n chart offsets
    @pytest.mark.parametrize("n, degree", [(2, 6), (3, 6), (4, 4)])
    def test_extraction_vectors_match_sympy(self, n, degree):
        oracle = sympy_w_powers(n, degree)
        tables = sphere_cosine_powers(degree // 2)
        checked = 0
        for alpha, beta in ordered_pairs(n, degree):
            for power, table in zip(oracle, tables):
                want = sympy_jet(power, alpha, beta)
                assert extract_mixed_partial(table, alpha, beta) == want, (alpha, beta)
                checked += want != 0
        assert checked > 100

    def test_radius_rounds_once(self):
        # em(a) = em(1) a^-k, rounded once from the exact value
        s = Sphere(3, 1.75)
        oracle = sympy_w_powers(3, 6)
        for alpha, beta in ordered_pairs(3, 6):
            k = alpha.degree + beta.degree
            if k == 0:
                continue
            got = s._extract_vector(alpha, beta)
            assert len(got) == max(2, k + k % 2) // 2 + 1, (alpha, beta)
            want = tuple(float(sympy_jet(p, alpha, beta) * Fraction(4, 7) ** k)
                         for p in oracle[:len(got)])
            assert got == want, (alpha, beta)

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("radius", [1.0, 1.75])
    def test_squared_distance_jets_match_sympy(self, n, radius):
        import sympy

        w = sympy.Symbol("w")
        s = sympy.Symbol("s")
        h = sympy.series(sympy.asin(sympy.sqrt(s)) ** 2, s, 0, 3).removeO()
        g = sympy.expand(4 * h.subs(s, -w / 2))
        powers = sympy_w_powers(n, 4)
        model = Sphere(n, radius)
        scale = Fraction(radius)
        for alpha, beta in ordered_pairs(n, 4):
            k = alpha.degree + beta.degree
            exact = sum(
                Fraction(int(g.coeff(w, m).p), int(g.coeff(w, m).q))
                * sympy_jet(p, alpha, beta)
                for m, p in enumerate(powers)
            )
            want = float(exact * scale ** (2 - k))
            assert squared_distance_jets(model, alpha, beta) == want, (alpha, beta)

    def test_overflow_names_order_and_radius(self):
        s = Sphere(2, 1e-77)
        a = from_indices([1, 1], 2)
        with pytest.raises(ValueError, match=r"order 4 overflows for radius 1e-77"):
            s._extract_vector(a, a)
        # the second jets stay in range
        assert s._extract_vector(from_indices([1], 2), from_indices([1], 2))[1] > 0
