import math
import re
import signal
from fractions import Fraction
from itertools import product, zip_longest

import numpy as np
import pytest

from spectraljet.asymptotics import (
    NOISE_GAIN_LIMIT,
    _canonical_pairs,
    _noise_gain,
    curvature_suites,
    fit_on_smallest,
    jet_relation_suite,
    normalization_factor,
    time_grid,
)
from spectraljet.jets import extract_mixed_partial
from spectraljet import manifolds
from spectraljet.manifolds import (
    DEFAULT_POLICY,
    Circle,
    FlatTorus,
    SpectralModel,
    Sphere,
    TruncationError,
    TruncationPolicy,
    _sphere_series_tables,
    _tail_sum,
    curvature_symmetry_residuals,
    jet_gram,
    make_model,
    mean_curvature_proxy,
    pullback_metric,
    ricci_scalar_extract,
    squared_distance_jets,
    squared_distance_target,
    third_jet_umbilical,
)
from spectraljet.multiindex import empty, enumerate_multiindices, from_indices
from spectraljet.wick import wick_a, wick_b
from tests.oracles import (
    chart_cosine,
    embedding_point,
    fixed_sum_twin,
    kernel_value,
    truncation_stability,
)

GRID = time_grid()


def mi(indices, n):
    return from_indices(indices, n)


def gauss_pairs(n, i, j, k, l):
    """The Gram pairs ((i,l),(j,k)) and ((i,k),(j,l)), 1-based, whose
    difference has the t -> 0 limit R(V_i, V_j, V_k, V_l)."""
    return (mi([i, l], n), mi([j, k], n)), (mi([i, k], n), mi([j, l], n))


class TestModelBasics:
    def test_factory(self):
        assert make_model("circle", radius=2.0).volume == pytest.approx(4 * math.pi)
        assert make_model("torus", radii=(1.0, 1.3)).n == 2
        assert make_model("sphere2", radius=2.0).scalar() == Fraction(1, 2)
        assert make_model("sphere3").scalar() == 6
        with pytest.raises(ValueError):
            make_model("klein_bottle")
        with pytest.raises(ValueError):
            make_model("torus")

    def test_validation(self):
        s = Sphere(3, 1.0)
        a = mi([1], 3)
        with pytest.raises(ValueError):
            s.diag_jet(-0.1, a, a)
        with pytest.raises(ValueError):
            s.diag_jet(0.1, mi([1], 2), mi([1], 2))
        with pytest.raises(ValueError):
            Sphere(1, 1.0)
        with pytest.raises(ValueError):
            FlatTorus(())

    def test_huge_dimension_refused_at_once(self):
        # the unit-sphere area underflows to 0 at S^455, so a dimension past
        # it is refused there, without a table of dim + 1 areas
        def expire(signum, frame):
            raise TimeoutError("Sphere(10**9) still running after 2 s")

        previous = signal.signal(signal.SIGALRM, expire)
        signal.setitimer(signal.ITIMER_REAL, 2)
        try:
            with pytest.raises(ValueError, match=re.escape(
                "sphere dimension 1000000000 out of range: the area of the "
                "unit S^455 underflows to 0"
            )):
                Sphere(10**9)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        # the last area above 0 (5e-324), scaled by a radius, still serves
        assert Sphere(454, 2.0).volume > 0.0
        with pytest.raises(ValueError, match="the area of the unit S.455 underflows"):
            Sphere(455, 2.0)

    def test_volume_past_a_subnormal_unit_area(self):
        # |S^438|..|S^454| are subnormal; the recurrence carries them scaled,
        # so the volume at radius 2 keeps full precision
        for n in range(438, 455):
            log_volume = (math.log(2.0) + (n + 1) / 2 * math.log(math.pi)
                          - math.lgamma((n + 1) / 2) + n * math.log(2.0))
            want = math.exp(log_volume)
            assert abs(Sphere(n, 2.0).volume / want - 1.0) < 1e-12, n

    def test_volume_out_of_range_says_which_way(self):
        with pytest.raises(ValueError, match=re.escape(
            "S^3 at radius 1e+120 out of range: its volume overflows; "
            "a smaller radius makes it valid"
        )):
            Sphere(3, 1e120)
        with pytest.raises(ValueError, match=re.escape(
            "torus with radii [1e-150, 1e-150, 1e-150] out of range: its volume "
            "0.0 has no finite inverse; a larger radius makes it valid"
        )):
            FlatTorus((1e-150,) * 3)

    def test_heat_kernel_diagonal_positive_decreasing(self):
        for model in (Circle(1.0), FlatTorus((1.0, 1.3)), Sphere(2, 1.0), Sphere(3, 1.0)):
            values = [model.heat_diagonal(t) for t in (0.05, 0.1, 0.2, 0.5, 1.0)]
            assert all(v > 0 for v in values)
            assert values == sorted(values, reverse=True)


class TestFlatJets:
    def test_circle_normalized_jets_all_degrees(self):
        c = Circle(1.0)
        t = 0.01
        for a_deg in range(0, 7):
            for b_deg in range(0, 7 - a_deg):
                a = mi([1] * a_deg, 1)
                b = mi([1] * b_deg, 1)
                target = wick_a(a, b).value
                got = normalization_factor(1, t, a, b) * c.diag_jet(t, a, b)
                assert abs(got - target) < 1e-6, (a_deg, b_deg)

    def test_odd_jets_exactly_zero(self):
        T = FlatTorus((1.0, 1.3))
        assert T.diag_jet(0.05, mi([1], 2), empty(2)) == 0.0
        assert T.diag_jet(0.05, mi([1, 2], 2), mi([2], 2)) == 0.0

    def test_symmetry_in_pair(self):
        T = FlatTorus((1.0, 1.3))
        a, b = mi([1, 1], 2), mi([2, 2], 2)
        assert T.diag_jet(0.05, a, b) == T.diag_jet(0.05, b, a)

    def test_point_independence_via_embedding(self):
        # differentiate the finite embedding Gram at two base points; the
        # jets must agree with each other and with the closed form
        c = Circle(1.0)
        t = 0.05
        h = 1e-3
        target = c.diag_jet(t, mi([1], 1), mi([1], 1))
        for x0 in (0.3, 1.1):
            def gram(dx, dy):
                px = embedding_point(c, t, (x0 + dx,), 40)
                py = embedding_point(c, t, (x0 + dy,), 40)
                return float(np.dot(px, py)) / c.gram_prefactor(t)

            fd = (
                gram(h, h) - gram(h, -h) - gram(-h, h) + gram(-h, -h)
            ) / (4 * h * h)
            # cross-derivative d/dx d/dy of H(x, y); signs: y-derivative only
            assert abs(fd - target) < 1e-4 * abs(target)

    def test_embedding_gram_matches_kernel(self):
        T = FlatTorus((1.0, 1.3))
        t = 0.05
        x = (0.2, -0.4)
        y = (0.1, 0.3)
        px = embedding_point(T, t, x, 30)
        py = embedding_point(T, t, y, 30)
        lhs = float(np.dot(px, py))
        rhs = T.gram_prefactor(t) * (kernel_value(T, t, x, y) - 1.0 / T.volume)
        assert abs(lhs - rhs) < 1e-12


class TestSphereJets:
    def test_pair_symmetry_exact(self):
        s = Sphere(3, 1.0)
        a, b = mi([1, 1], 3), mi([2, 2], 3)
        assert s.diag_jet(0.05, a, b) == s.diag_jet(0.05, b, a)

    def test_odd_jets_exactly_zero(self):
        s = Sphere(2, 1.0)
        assert s.diag_jet(0.05, mi([1], 2), empty(2)) == 0.0
        assert s.diag_jet(0.05, mi([1, 1], 2), mi([2], 2)) == 0.0

    def test_zonal_closed_form_matches_sympy_gegenbauer(self):
        # Z_l = (2l+n-1)/(n-1) C_l^((n-1)/2): its Taylor coefficients at 1
        # and its value there (the multiplicity), from sympy's polynomials;
        # the volume against 2 pi^((n+1)/2) / Gamma((n+1)/2)
        import sympy

        x = sympy.Symbol("x")
        for n in (2, 3, 4, 5):
            s = Sphere(n, 1.0)
            area = 2 * math.pi ** ((n + 1) / 2) / math.gamma((n + 1) / 2)
            assert s.volume == pytest.approx(area, rel=1e-14), n
            lam = sympy.Rational(n - 1, 2)
            for l in range(13):
                zonal = sympy.Rational(2 * l + n - 1, n - 1) * sympy.gegenbauer(l, lam, x)
                assert s.multiplicity(l) == zonal.subs(x, 1), (n, l)
                for m in range(9):
                    want = sympy.diff(zonal, x, m).subs(x, 1) / math.factorial(m)
                    assert s._zonal_taylor(l, m) == float(want), (n, l, m)

    def test_normalized_jets_converge(self):
        s = Sphere(3, 1.0)
        a = mi([1, 2], 3)
        errs = []
        for t in (0.05, 0.025, 0.0125, 0.00625):
            got = normalization_factor(3, t, a, a) * s.diag_jet(t, a, a)
            errs.append(abs(got - 1.0))
        assert errs == sorted(errs, reverse=True)
        assert errs[-1] < 0.01

    def test_finite_difference_cross_check(self):
        # jets vs 4th-order central differences of the closed-form zonal
        # kernel along chart 2-parameter families
        from tests.test_jets import fd_mixed_partial

        for model in (Sphere(2, 1.0), Sphere(3, 1.0), Sphere(4, 1.0)):
            t = 0.1
            n = model.n
            cases = [
                (mi([1], n), mi([1], n)),
                (mi([1], n), mi([2], n)),
                (mi([1, 1], n), mi([1], n)),
                (mi([1, 2], n), mi([2], n)),
            ]
            for a, b in cases:
                want = model.diag_jet(t, a, b)

                def f(point):
                    return kernel_value(model, t, point[:n], point[n:])

                fd = fd_mixed_partial(f, a.counts + b.counts, h=0.02)
                scale = max(1.0, abs(want))
                assert abs(fd - want) < 1e-5 * scale, (model.label, a, b)


class TestSphere3ImageSum:
    def test_kernel_matches_jacobi_image_sum(self):
        # independent closed form from the theta transformation:
        # H(t, theta) = e^t (4 pi t)^(-3/2) sum_j (theta + 2 pi j)/sin(theta)
        #               * exp(-(theta + 2 pi j)^2 / (4t))   (unit radius)
        def image_sum(t, theta):
            total = 0.0
            for j in range(-4, 5):
                ang = theta + 2.0 * math.pi * j
                total += ang * math.exp(-ang * ang / (4.0 * t))
            return math.exp(t) * (4.0 * math.pi * t) ** -1.5 * total / math.sin(theta)

        for radius in (1.0, 2.0):
            s = Sphere(3, radius)
            for t in (0.05, 0.2):
                for u, v in (((0.3, 0.0, 0.0), (0.0, 0.2, 0.1)),
                             ((0.5, -0.2, 0.1), (-0.1, 0.4, 0.0))):
                    theta = math.acos(chart_cosine(s, u, v))
                    want = image_sum(t / radius**2, theta) / radius**3
                    got = kernel_value(s, t, u, v)
                    assert abs(got - want) <= 1e-12 * abs(want), (radius, t)


class TestJetGram:
    def test_symmetric_and_psd(self):
        for model in (FlatTorus((1.0, 1.3)), Sphere(3, 1.0)):
            g = jet_gram(model, 0.05, 2)
            m = np.asarray(g.matrix())
            assert np.allclose(m, m.T, rtol=0, atol=1e-12)
            eig = np.linalg.eigvalsh(m)
            assert eig.min() > -1e-9

    def test_psd_higher_order_jet_sets(self):
        # Gram matrices of Hilbert-space vectors stay PSD at higher jet order
        for model, order in ((Sphere(2, 1.0), 3), (Circle(1.0), 4)):
            m = np.asarray(jet_gram(model, 0.05, order).matrix())
            eig = np.linalg.eigvalsh(m)
            assert eig.min() > -1e-9, model.label

    def test_torus_first_order_identity(self):
        g = jet_gram(FlatTorus((1.0, 1.3)), 0.01, 1)
        for i in (1, 2):
            for j in (1, 2):
                want = 1.0 if i == j else 0.0
                assert abs(g.entry(mi([i], 2), mi([j], 2)) - want) < 1e-8

    def test_pure_second_jet_length(self):
        s = Sphere(3, 1.0)
        a = mi([1, 1], 3)
        vals = [2 * t * s.gram_entry(t, a, a) for t in (0.05, 0.025, 0.0125)]
        errs = [abs(v - 3.0) for v in vals]
        assert errs == sorted(errs, reverse=True)
        assert errs[-1] < 0.03

    def test_mixed_second_first_vanishes(self):
        s = Sphere(3, 1.0)
        vals = [
            abs(s.gram_entry(t, mi([1], 3), mi([2, 3], 3)))
            for t in (0.05, 0.025)
        ]
        assert all(v == 0.0 for v in vals)  # parity-blocked exactly
        # a non-parity-blocked odd pair decays like O(t) after normalization
        g = [
            normalization_factor(3, t, mi([1], 3), mi([1, 1], 3))
            * s.diag_jet(t, mi([1], 3), mi([1, 1], 3))
            for t in (0.05, 0.025)
        ]
        assert all(v == 0.0 for v in g)

    def test_any_order(self):
        # order 5 holds jets of order 10; the flat cosines are B up to
        # exp(-pi^2 / t)
        g = jet_gram(Circle(1.0), 0.05, 5)
        for a in g.basis[1:]:
            for b in g.basis[1:]:
                cos = g.entry(a, b) / math.sqrt(g.entry(a, a) * g.entry(b, b))
                assert cos == pytest.approx(wick_b(a, b).value, abs=1e-12), (a, b)


class TestGeometryOps:
    def test_pullback_metric_torus(self):
        p = pullback_metric(FlatTorus((1.0, 1.3)), 0.01)
        assert np.allclose(p, np.eye(2), atol=1e-8)

    def test_scalar_ricci_sphere3(self):
        report = ricci_scalar_extract(Sphere(3, 1.0), GRID)
        assert abs(report.scalar_estimate - 6.0) < 0.12
        assert np.allclose(report.pullback_c1, np.eye(3) / 3, atol=0.017)
        assert np.allclose(report.ricci_estimate, 2.0 * np.eye(3), atol=0.1)

    def test_scalar_ricci_judges_the_fitted_times(self):
        # every fit takes the five smallest times: their noise gain is
        # 1.17e8, while the whole grid's is 1.08
        ts = time_grid(0.01, 0.99993, 5) + (0.5, 1.0)
        assert _noise_gain(ts) < NOISE_GAIN_LIMIT < _noise_gain(ts[:5])
        with pytest.raises(ValueError, match="ill-conditioned"):
            ricci_scalar_extract(Sphere(3, 1.0), ts)

    def test_scalar_ricci_torus(self):
        report = ricci_scalar_extract(FlatTorus((1.0, 1.3)), GRID)
        assert abs(report.scalar_estimate) < 1e-6
        assert np.allclose(report.ricci_estimate, 0.0, atol=1e-6)

    def test_mean_curvature_targets(self):
        cases = [
            (Circle(1.0), math.sqrt(1.5)),
            (FlatTorus((1.0, 1.3)), 1.0),
            (Sphere(3, 1.0), math.sqrt(5.0 / 6.0)),
        ]
        for model, target in cases:
            got = mean_curvature_proxy(model, 0.004)
            assert abs(got - target) < 0.02 * target, model.label

    def test_third_jet_umbilical_cases(self):
        for model in (Sphere(3, 1.0), FlatTorus((1.0, 1.3))):
            t = 0.005
            assert abs(third_jet_umbilical(model, t, 1, 1, 1) + 3.0) < 0.09
            assert abs(third_jet_umbilical(model, t, 1, 1, 2) + 1.0) < 0.03
            assert abs(third_jet_umbilical(model, t, 1, 2, 1)) < 0.05

    def test_gauss_curvature_flat_exact_zero(self):
        T = FlatTorus((1.0, 1.3))
        for idx in product((1, 2), repeat=4):
            difference = T.gram_difference(0.05, *gauss_pairs(2, *idx))
            assert difference == pytest.approx(0.0, abs=1e-12)

    def test_gauss_curvature_sphere3(self):
        r = curvature_symmetry_residuals(Sphere(3, 1.0), GRID)
        assert abs(r[0][1][1][0] - 1.0) < 0.05

    def test_gauss_curvature_sphere2_radius2(self):
        r = curvature_symmetry_residuals(Sphere(2, 2.0), GRID)
        assert abs(r[0][1][1][0] - 0.25) < 0.0125

    SYMMETRY_MODELS = {
        "sphere2": lambda: Sphere(2, 1.0),
        "sphere2-r1.5": lambda: Sphere(2, 1.5),
        "sphere3": lambda: Sphere(3, 1.0),
        "sphere3-r1.37": lambda: Sphere(3, 1.37),
        "sphere5": lambda: Sphere(5, 1.0),
        "torus2": lambda: FlatTorus((1.0, 1.3)),
        "torus3": lambda: FlatTorus((1.0, 1.3, 1.7)),
    }

    @pytest.mark.parametrize("name", list(SYMMETRY_MODELS))
    def test_symmetry_residuals_exact(self, name):
        # the algebraic symmetries of the fitted tensor hold exactly, so the
        # curvature suite judges only its independent entries
        r = curvature_symmetry_residuals(self.SYMMETRY_MODELS[name](), GRID)
        if name.startswith("sphere"):  # the identities relate nonzero entries
            assert r[0][1][1][0] > 0.1
        for i, j, k, l in product(range(len(r)), repeat=4):
            assert r[i][j][k][l] + r[j][i][k][l] == 0.0, (i, j, k, l)
            assert r[i][j][k][l] + r[i][j][l][k] == 0.0, (i, j, k, l)
            assert r[i][j][k][l] - r[k][l][i][j] == 0.0, (i, j, k, l)
            assert r[i][j][k][l] + r[k][i][j][l] + r[j][k][i][l] == 0.0, (i, j, k, l)


class TestRiemannTargets:
    """Ric and S are contractions of the exact ``riemann``; at constant
    curvature K they are (n - 1) K delta and n (n - 1) K."""

    @pytest.mark.parametrize("radius", [1.0, 1.5, 2.0, 1.37])
    def test_sphere_contractions_closed_form(self, radius):
        K = 1 / Fraction(radius) ** 2
        a2 = radius * radius
        for n in range(2, 11):
            model = Sphere(n, radius)
            assert model.riemann(0, 1, 1, 0) == K
            assert model.riemann(0, 1, 0, 1) == -K
            for j, k in product(range(n), repeat=2):
                assert model.ricci(j, k) == (n - 1) * K * (j == k), (n, j, k)
            assert model.scalar() == n * (n - 1) * K, n
            if Fraction(a2) == Fraction(radius) ** 2:
                # where radius^2 is a float, rounding once gives the float
                # quotients the targets were written as before
                assert float(model.scalar()) == n * (n - 1) / a2, n
                assert float(model.ricci(0, 0)) == (n - 1) / a2, n
                assert float(model.riemann(0, 1, 1, 0)) == 1.0 / a2, n

    def test_flat_contractions_vanish(self):
        for model in (Circle(1.3), FlatTorus((1.0, 1.3, 1.7))):
            n = model.n
            for quad in product(range(n), repeat=4):
                assert model.riemann(*quad) == 0, quad
            assert model.ricci(0, 0) == 0
            assert model.scalar() == 0


class TestSquaredDistanceJets:
    def test_full_catalog_unit_sphere2(self):
        s = Sphere(2, 1.0)
        basis = enumerate_multiindices(2, 4)
        checked = 0
        for a in basis:
            for b in basis:
                if not 1 <= a.degree + b.degree <= 4:
                    continue
                got = squared_distance_jets(s, a, b)
                want = squared_distance_target(s, a, b)
                assert abs(got - want) < 1e-8, (a, b)
                checked += 1
        assert checked == 69

    def test_mixed_fourth_jet_value(self):
        s = Sphere(2, 1.0)
        got = squared_distance_jets(s, mi([1, 1], 2), mi([2, 2], 2))
        # -(2/3)(R_1212 + R_1212) with R_1212 = +1
        assert abs(got + 4.0 / 3.0) < 1e-12

    def test_radius_scaling(self):
        s = Sphere(2, 2.0)
        got = squared_distance_jets(s, mi([1, 1], 2), mi([2, 2], 2))
        want = squared_distance_target(s, mi([1, 1], 2), mi([2, 2], 2))
        assert abs(got - want) < 1e-10
        assert abs(want + (2.0 / 3.0) * 2 * 0.25) < 1e-15

    def test_sphere3_catalog_sample(self):
        s = Sphere(3, 1.0)
        for a_idx, b_idx in (([1], [1]), ([1, 2], [1, 2]), ([1, 1], [2, 2]),
                             ([1, 2], [3, 3]), ([1, 2, 3], [1])):
            a, b = mi(a_idx, 3), mi(b_idx, 3)
            got = squared_distance_jets(s, a, b)
            want = squared_distance_target(s, a, b)
            assert abs(got - want) < 1e-8

    def test_rejects_flat_model_and_high_order(self):
        with pytest.raises(ValueError):
            squared_distance_jets(FlatTorus((1.0,)), mi([1], 1), mi([1], 1))
        s = Sphere(2, 1.0)
        with pytest.raises(ValueError):
            squared_distance_jets(s, mi([1, 1, 2], 2), mi([1, 2], 2))
        # the closed form stops at order 4; this order-6 jet is -8/45
        with pytest.raises(ValueError, match="up to order 4"):
            squared_distance_target(s, mi([2, 2], 2), mi([1, 1, 2, 2], 2))


class TestTruncation:
    def test_circle_stability(self):
        rep = truncation_stability(Circle(1.0), 0.01, mi([1, 1], 1), mi([1, 1], 1))
        assert rep.delta < 1e-10

    def test_sphere_stability_degree4(self):
        rep = truncation_stability(
            Sphere(3, 1.0), 0.05, mi([1, 1], 3), mi([2, 2], 3)
        )
        assert rep.delta < 1e-9

    def test_large_time_tiny_cutoff(self):
        rep = truncation_stability(Circle(1.0), 1.0, mi([1], 1), mi([1], 1))
        assert rep.delta < 1e-14
        assert rep.cutoff < 40

    def test_hard_cap_raises(self):
        capped = Circle(1.0, TruncationPolicy(hard_cap=5))
        with pytest.raises(TruncationError):
            capped.diag_jet(0.001, mi([1, 1], 1), mi([1, 1], 1))

    def test_fixed_cutoff_mode(self):
        a = mi([1], 1)
        v1, last = fixed_sum_twin(Circle(1.0), 200).diag_jet_with_cutoff(0.05, a, a)
        v2 = Circle(1.0).diag_jet(0.05, a, a)
        assert last == 200  # the circle sums from k = 1
        assert abs(v1 - v2) < 1e-12

    def test_tail_sum_term_counts(self):
        calls = []

        def term(k):
            calls.append(k)
            return 1.0

        # the sum raises after exactly hard_cap terms of a flat series
        with pytest.raises(TruncationError, match="hard cap 5 reached"):
            _tail_sum(term, 0, 8, TruncationPolicy(), hard_cap=5)
        assert calls == list(range(5))
        # and stops at the first index past min_index where the rule fires:
        # 2^-46 <= 1e-14 * (2 - 2^-46) < 2^-45
        s, last = _tail_sum(lambda k: 2.0 ** -k, 0, 8, TruncationPolicy(), 1000)
        assert last == 46 and s == 2.0 - 2.0 ** -46


class TestModeSumMemo:
    """A model memoizes its mode sums; a warm model must return, bit for bit,
    what a fresh model computes for every value and cutoff."""

    MODELS = {
        "sphere2": lambda: Sphere(2, 1.5),
        "sphere3": lambda: Sphere(3, 1.0),
        "torus": lambda: FlatTorus((1.0, 1.3)),
    }
    TS = time_grid(0.1, 0.5, 4)

    @staticmethod
    def pairs(n):
        basis = list(enumerate_multiindices(n, 2))
        return [(a, b) for i, a in enumerate(basis) for b in basis[i:]]

    @pytest.mark.parametrize("kind", MODELS)
    def test_warm_model_equals_fresh_model(self, kind):
        make = self.MODELS[kind]
        warm = make()
        jet_relation_suite(warm, 4, ts=self.TS)
        for t in self.TS:
            for a, b in self.pairs(warm.n):
                truncation_stability(warm, t, a, b)
        for t in self.TS:
            for a, b in self.pairs(warm.n):
                got = warm.diag_jet_with_cutoff(t, a, b)
                assert got == make().diag_jet_with_cutoff(t, a, b), (t, a, b)
                assert truncation_stability(warm, t, a, b) == (
                    truncation_stability(make(), t, a, b)
                ), (t, a, b, "doubled")
            n = warm.n
            for ijkl in product(range(1, n + 1), repeat=4):
                pairs = gauss_pairs(n, *ijkl)
                assert warm.gram_difference(t, *pairs) == (
                    make().gram_difference(t, *pairs)
                ), (t, ijkl)

    @pytest.mark.parametrize("kind", MODELS)
    def test_short_fixed_cutoff_does_not_shadow_default(self, kind):
        make = self.MODELS[kind]
        model = make()
        a = b = mi([1, 1], model.n)
        t = 0.05
        short = fixed_sum_twin(model, 3).diag_jet_with_cutoff(t, a, b)
        full = model.diag_jet_with_cutoff(t, a, b)
        assert full == make().diag_jet_with_cutoff(t, a, b)
        assert full != short and full[1] > short[1]


class TestJetKey:
    """A sphere caches its extraction vectors per orbit, ``jet_key``: every
    pair must read, bit for bit, what a model whose caches only that pair
    has filled computes for it."""

    @pytest.mark.parametrize("dim", [2, 3, 5])
    def test_shared_cache_equals_fresh_model(self, dim):
        pairs = _canonical_pairs(dim, 4)
        shared = Sphere(dim, 1.3)
        keys = {shared.jet_key(a, b) for a, b in pairs}
        assert len(keys) < len(pairs)  # some pair reads another's entry
        for a, b in pairs:
            fresh = Sphere(dim, 1.3)
            for t in (0.05, 0.0125):
                assert shared.diag_jet(t, a, b) == fresh.diag_jet(t, a, b), (t, a, b)
                assert shared.gram_entry(t, a, b) == fresh.gram_entry(t, a, b), (t, a, b)

    def test_sphere_merges_permuted_pairs(self):
        s = Sphere(3)
        assert s.jet_key(mi([1, 1], 3), mi([2], 3)) == s.jet_key(mi([3, 3], 3), mi([1], 3))
        assert s.jet_key(mi([1, 1], 3), mi([2], 3)) != s.jet_key(mi([1, 1], 3), mi([1], 3))

    def test_unequal_torus_merges_nothing(self):
        torus = FlatTorus((1.0, 1.3))
        e1, e2 = mi([1], 2), mi([2], 2)
        assert torus.jet_key(e1, e1) != torus.jet_key(e2, e2)
        assert torus.diag_jet(0.01, e1, e1) != torus.diag_jet(0.01, e2, e2)


class TestForcedZeros:
    """Every coordinate flip fixes the base point, so a pair whose
    alpha + beta has an odd entry is exactly (0.0, 0): the one entry point
    ``diag_jet_with_cutoff`` returns it before any extraction or sum, and
    the sphere's ``gram_difference`` adds it as the empty vector."""

    MODELS = {
        "circle": lambda: Circle(1.0),
        "torus": lambda: FlatTorus((1.0, 1.3)),
        "sphere2": lambda: Sphere(2, 1.3),
        "sphere3": lambda: Sphere(3, 1.3),
        "sphere5": lambda: Sphere(5, 1.3),
    }

    @pytest.mark.parametrize("kind", MODELS)
    def test_odd_pairs_are_exact_zeros(self, monkeypatch, kind):
        def refuse(*args):
            raise AssertionError("a forced zero was extracted or summed")

        model = self.MODELS[kind]()
        monkeypatch.setattr(manifolds, "extract_mixed_partial", refuse)
        monkeypatch.setattr(SpectralModel, "_sum", refuse)
        basis = enumerate_multiindices(model.n, 5)
        odd = [(a, b) for a in basis for b in basis
               if a.degree + b.degree <= 5
               and any((x + y) % 2 for x, y in zip(a.counts, b.counts))]
        assert odd
        for t in (0.1, 0.01):
            for a, b in odd:
                value, cutoff = model.diag_jet_with_cutoff(t, a, b)
                assert (value, cutoff) == (0.0, 0), (t, a, b)
                assert math.copysign(1.0, value) == 1.0, (t, a, b)  # not -0.0
            for pair1, pair2 in zip(odd, odd[1:]):
                value = model.gram_difference(t, pair1, pair2)
                assert value == 0.0, (t, pair1, pair2)
                assert math.copysign(1.0, value) == 1.0, (t, pair1, pair2)

    def test_sphere_extracts_one_nonzero_vector_per_key(self):
        s = Sphere(3, 1.3)
        jet_relation_suite(s, 6, GRID)
        even = [(a, b) for a, b in _canonical_pairs(3, 6)
                if a.degree + b.degree
                and not any((x + y) % 2 for x, y in zip(a.counts, b.counts))]
        assert set(s._extract_cache) == {s.jet_key(a, b) for a, b in even}
        assert len(s._extract_cache) == 28
        assert all(any(em) for em in s._extract_cache.values())

    @pytest.mark.parametrize("dim", [3, 8])
    def test_curvature_suites_extract_no_zero_vector(self, dim):
        # the Gram differences of the Gauss formula pair forced zeros too
        s = Sphere(dim, 1.3)
        curvature_suites(s, GRID)
        assert s._extract_cache
        assert all(any(em) for em in s._extract_cache.values())


class TestCurvatureOrbitMemo:
    """``curvature_symmetry_residuals`` fits one Gram difference per pair of
    jet keys; every entry must read what its own fit gives, bit for bit."""

    MODELS = {
        "sphere2": lambda: Sphere(2, 1.0),
        "sphere3": lambda: Sphere(3, 1.0),
        "unequal-torus": lambda: FlatTorus((1.5, 1.2)),
    }

    @pytest.mark.parametrize("name", sorted(MODELS))
    def test_tensor_equals_every_estimate(self, name):
        tensor = curvature_symmetry_residuals(self.MODELS[name](), GRID)
        reference = self.MODELS[name]()
        n = reference.n
        for i, j, k, l in product(range(1, n + 1), repeat=4):
            pairs = gauss_pairs(n, i, j, k, l)
            expected = fit_on_smallest(
                [(t, reference.gram_difference(t, *pairs)) for t in GRID]
            ).c0
            assert tensor[i - 1][j - 1][k - 1][l - 1] == expected, (name, i, j, k, l)

    @pytest.mark.parametrize("name, estimates", [
        ("sphere2", 8), ("sphere3", 13), ("unequal-torus", 15),
    ])
    def test_one_estimate_per_key_pair(self, monkeypatch, name, estimates):
        model = self.MODELS[name]()
        calls = []
        difference = model.gram_difference

        def counting(t, pair1, pair2):
            calls.append(t)
            return difference(t, pair1, pair2)

        monkeypatch.setattr(model, "gram_difference", counting)
        curvature_symmetry_residuals(model, GRID)
        assert len(calls) == estimates * len(GRID)


class TestPolicyRecord:
    def test_record_semantics(self):
        policy = TruncationPolicy(epsilon=1e-12)
        assert repr(policy) == (
            "TruncationPolicy(epsilon=1e-12, rho=0.5, hard_cap=None)"
        )
        assert TruncationPolicy() == DEFAULT_POLICY
        assert hash(TruncationPolicy()) == hash(DEFAULT_POLICY)
        with pytest.raises(AttributeError):
            policy.epsilon = 1e-10

    @pytest.mark.parametrize("fields, message", [
        # a cap is an int >= 1: not negative, not a whole float such as
        # JSON's 1e3, not a string
        ({"hard_cap": -1}, "hard_cap must be null/None or an integer >= 1, got -1"),
        ({"hard_cap": 1000.0},
         "hard_cap must be null/None or an integer >= 1, got 1000.0"),
        ({"hard_cap": "8"},
         "hard_cap must be null/None or an integer >= 1, got '8'"),
        ({"epsilon": 0.0}, "epsilon and rho must be positive"),
        ({"rho": -1.0}, "epsilon and rho must be positive"),
        ({"hard_cap": 0}, "hard_cap must be null/None or an integer >= 1, got 0"),
        ({"hard_cap": True}, "hard_cap must be null/None or an integer >= 1, got True"),
        ({"hard_cap": 2.5}, "hard_cap must be null/None or an integer >= 1, got 2.5"),
        # NaN never meets the tail rule, and an infinite rho puts the peak
        # at the hard cap
        ({"epsilon": math.nan}, "epsilon and rho must be finite"),
        ({"rho": math.inf}, "epsilon and rho must be finite"),
    ])
    def test_invalid_fields(self, fields, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            TruncationPolicy(**fields)
        with pytest.raises(ValueError, match=re.escape(message)):
            DEFAULT_POLICY._replace(**fields)

    def test_equal_policies_share_memo_entries(self):
        # the memo is keyed without the policy: a model holds one, and
        # models built with equal policies store equal entries
        s = Sphere(3, 1.0)
        a = mi([1, 1], 3)
        value = s.diag_jet_with_cutoff(0.05, a, a)
        stored = dict(s._sums)
        assert s.diag_jet_with_cutoff(0.05, a, a) == value
        assert s._sums == stored
        equal = Sphere(3, 1.0, TruncationPolicy())
        assert equal.diag_jet_with_cutoff(0.05, a, a) == value
        assert equal._sums == stored
        # twins that sum twice the cutoff agree, and leave both memos as
        # they were
        doubled = fixed_sum_twin(s, 2 * value[1])
        again = fixed_sum_twin(equal, 2 * value[1])
        assert doubled.diag_jet_with_cutoff(0.05, a, a) == (
            again.diag_jet_with_cutoff(0.05, a, a)
        )
        assert s._sums == stored and equal._sums == stored


class TestSphereMoments:
    """Each sphere moment S_m(t) is one memoized sum, equal to a direct loop
    over the closed-form coefficients bit for bit and cutoff for cutoff, and
    every zonal sum is a combination of moments."""

    TS = (0.2, 0.05, 0.01, 0.003)
    MODELS = [(2, 1.5), (3, 1.0), (4, 1.2)]

    @staticmethod
    def spheres(dim, radius):
        """The sphere, which sums by the tail rule, and its twin that sums
        exactly 37 terms."""
        s = Sphere(dim, radius)
        return {"tail": s, "fixed": fixed_sum_twin(s, 37)}

    @staticmethod
    def direct_sum(s, term, min_index):
        # a fixed-sum twin's own _sum keeps no memo
        if "_sum" in vars(s):
            return s._sum(None, term, 0, min_index)
        return _tail_sum(term, 0, min_index, s.policy, s._hard_cap)

    def moment_reference(self, s, m, t):
        def term(l):
            return math.exp(-s.eigenvalue(l) * t) * s._zonal_taylor(l, m)

        min_index = max(m + 1, s._min_index(s.radius, t, 2 * m + s.n - 1.0))
        return self.direct_sum(s, term, min_index)

    def diagonal_reference(self, s, t):
        def term(l):
            return math.exp(-s.eigenvalue(l) * t) * s.multiplicity(l)

        min_index = s._min_index(s.radius, t, s.n - 1.0)
        return self.direct_sum(s, term, min_index)

    @staticmethod
    def combination(s, em, t):
        total, cutoff = 0.0, 0
        for m, e in enumerate(em):
            if e:
                value, used = s._moment(m, t)
                total += e * value
                cutoff = max(cutoff, used)
        return total, cutoff

    @pytest.mark.parametrize("dim, radius", MODELS)
    def test_moments_equal_direct_loop(self, dim, radius):
        for rule, s in self.spheres(dim, radius).items():
            for t in self.TS:
                for m in range(7):
                    assert s._moment(m, t) == self.moment_reference(s, m, t), (
                        rule, t, m)
                assert s._moment(0, t) == self.diagonal_reference(s, t), (rule, t)
                assert s._zonal_sum((1.0,), t) == s._moment(0, t)

    @pytest.mark.parametrize("dim, radius", MODELS)
    def test_zonal_sums_are_moment_combinations(self, dim, radius):
        basis = enumerate_multiindices(dim, 2)
        pairs = [(a, b) for i, a in enumerate(basis) for b in basis[i:]]
        for rule, s in self.spheres(dim, radius).items():
            ems = {s._extract_vector(a, b) for a, b in pairs}
            ems |= {(0.5, -1.25, 3.0), (0.0, 0.0, -2.0, 0.0, 7.5), (0.0, 0.0),
                    (0.0,) * 8 + (1.5,)}
            for t in self.TS:
                for em in sorted(ems):
                    assert s._zonal_sum(em, t) == self.combination(s, em, t), (
                        rule, t, em)
                for (a1, b1), (a2, b2) in zip(pairs, pairs[1:]):
                    # vectors of unequal length are padded with 0.0
                    em1 = s._extract_vector(a1, b1)
                    em2 = s._extract_vector(a2, b2)
                    diff = tuple(
                        x - y for x, y in zip_longest(em1, em2, fillvalue=0.0))
                    value, _ = self.combination(s, diff, t)
                    want = s.gram_prefactor(t) * value * s._zonal_scale
                    assert s.gram_difference(t, (a1, b1), (a2, b2)) == want, (
                        rule, t, a1, b1, a2, b2)

    def test_sums_keyed_by_order_and_time(self):
        # a verify run, and the Gram differences of a curvature run, sum
        # nothing but the moments: one per (order, t)
        s = Sphere(3, 1.3)
        jet_relation_suite(s, 6, GRID)
        curvature_symmetry_residuals(s, GRID)
        keys = set(s._sums)
        assert keys == {(m, t) for m in range(4) for t in GRID}
        assert all(type(m) is int and type(t) is float for m, t in keys)

    def test_high_moment_waits_past_its_vanishing_terms(self):
        # on S^2 at t = 0.5 the estimated peak of S_9 lies below l = 9, where
        # its terms start; the sum must not stop on the zeros before them
        s = Sphere(2, 1.0)
        value, cutoff = s._moment(9, 0.5)
        assert cutoff > 9
        long = fixed_sum_twin(s, 200)._moment(9, 0.5)[0]
        assert value > 0.0 and value == pytest.approx(long, rel=1e-14, abs=0)

    def test_served_sums_change_no_jet(self):
        # a model that has summed the moments of a degree-12 jet serves every
        # lower jet exactly as a fresh instance does
        served = Sphere(3, 1.5)
        served.diag_jet(0.01, mi([1], 3), mi([1], 3))
        high = served.diag_jet(0.01, mi([1, 1, 2, 2, 3, 3], 3),
                               mi([1, 1, 1, 1, 2, 2], 3))
        assert high != 0.0 and math.isfinite(high)
        assert (6, 0.01) in served._sums
        basis = enumerate_multiindices(3, 3)
        for t in (0.05, 0.01):
            for a in basis:
                for b in basis:
                    assert served.diag_jet(t, a, b) == Sphere(3, 1.5).diag_jet(t, a, b)


class TestSphereJetAccuracy:
    """Sphere jets against a 40-digit mpmath zonal sum: the exact extraction
    vector of each jet against moments summed in mpmath until the terms past
    the peak fall below 1e-45 of the sum."""

    @staticmethod
    def moment(mp, n, a, t, m):
        rise = mp.mpf(2) ** m * mp.rf(mp.mpf(n - 1) / 2, m) / mp.factorial(m)
        scale = mp.mpf(t) / mp.mpf(a) ** 2
        acc, l = mp.mpf(0), m
        while True:
            taylor = mp.mpf((2 * l + n - 1) * math.comb(l + m + n - 2, l - m)) / (n - 1)
            term = mp.exp(-l * (l + n - 1) * scale) * taylor * rise
            acc += term
            if l * l * scale > 2 * m + n and term < acc * mp.mpf(10) ** -45:
                return acc
            l += 1

    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_jets_match_a_40_digit_zonal_sum(self, dim):
        import mpmath
        mp = mpmath.mp.clone()
        mp.dps = 40
        for radius in (1.0, 1.5, 1.9):
            s = Sphere(dim, radius)
            volume = (2 * mp.pi ** (mp.mpf(dim + 1) / 2) / mp.gamma(mp.mpf(dim + 1) / 2)
                      * mp.mpf(radius) ** dim)
            orbits = {s.jet_key(a, b): (a, b) for a, b in _canonical_pairs(dim, 6)}
            moments = {}
            for t in GRID:
                for a, b in orbits.values():
                    order = a.degree + b.degree
                    scale = Fraction(radius) ** -order
                    exact = mp.mpf(0)
                    for m, p in enumerate(_sphere_series_tables(max(2, order + order % 2))):
                        e = extract_mixed_partial(p, a, b) * scale
                        if e:
                            if (m, t) not in moments:
                                moments[m, t] = self.moment(mp, dim, radius, t, m)
                            exact += mp.mpf(e.numerator) / e.denominator * moments[m, t]
                    got = s.diag_jet(t, a, b)
                    if not exact:
                        assert got == 0.0, (radius, t, a, b)
                        continue
                    err = abs((got - exact / volume) / (exact / volume))
                    assert err <= 1e-13, (radius, t, a, b, float(err))


class TestScalarDiagonal:
    def test_sphere3_diagonal_closed_form(self):
        # (4 pi t)^{3/2} H(t,x,x) = e^t up to exponentially small terms
        s = Sphere(3, 1.0)
        for t in (0.1, 0.05):
            lhs = (4 * math.pi * t) ** 1.5 * s.heat_diagonal(t)
            assert abs(lhs - math.exp(t)) < 1e-12

    def test_flat_diagonal_is_one(self):
        for model in (Circle(1.0), FlatTorus((1.0, 1.3))):
            t = 0.01
            lhs = (4 * math.pi * t) ** (model.n / 2.0) * model.heat_diagonal(t)
            assert abs(lhs - 1.0) < 1e-6

    def test_gram_entry_drops_constant_mode(self):
        # the embedding leaves out the constant eigenfunction: G(0, 0) is
        # the heat diagonal less 1/volume, bit for bit on the flat models,
        # whose diagonal sums from the first nonconstant mode, and up to
        # rounding on spheres, whose sums start at the constant mode
        for model, rel in ((Circle(1.0), 0.0), (FlatTorus((1.0, 1.3)), 0.0),
                           (Sphere(2, 1.5), 1e-13), (Sphere(3, 1.0), 1e-13)):
            e = empty(model.n)
            for t in (0.1, 0.05, 0.01):
                want = model.gram_prefactor(t) * (
                    model.heat_diagonal(t) - 1.0 / model.volume
                )
                got = model.gram_entry(t, e, e)
                assert abs(got - want) <= rel * abs(want), (model.label, t)
                a = mi([1], model.n)
                assert model.gram_entry(t, a, a) == (
                    model.gram_prefactor(t) * model.diag_jet(t, a, a)
                ), (model.label, t)
