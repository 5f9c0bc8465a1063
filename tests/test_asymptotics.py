import math
import random
import re
from fractions import Fraction

import numpy as np
import pytest

from spectraljet import asymptotics
from spectraljet.asymptotics import (
    DEFAULT_GRID,
    TOLERANCES,
    curvature_suite,
    fit_on_smallest,
    isometry_suite,
    jet_relation_suite,
    limit_fit,
    mean_curvature_suite,
    normalization_factor,
    scalar_ricci_suite,
    scalar_suite,
    time_grid,
    umbilical_suite,
)
from spectraljet.manifolds import Circle, FlatTorus, Sphere, ricci_scalar_extract
from spectraljet.multiindex import from_indices


def mi(indices, n):
    return from_indices(indices, n)


class TestTimeGrid:
    def test_default(self):
        grid = time_grid()
        assert len(grid) == 7
        assert grid[-1] == 0.1
        assert grid[0] == pytest.approx(0.1 * 2**-6)
        with pytest.raises(ValueError):
            time_grid(start=-1)
        with pytest.raises(ValueError):
            time_grid(ratio=1.5)


class TestLimitFit:
    def test_exact_line(self):
        samples = [(t, 2.0 + 5.0 * t) for t in (0.1, 0.2, 0.3, 0.4, 0.5)]
        fit = limit_fit(samples)
        assert abs(fit.c0 - 2.0) < 1e-12
        assert abs(fit.c1 - 5.0) < 1e-12
        assert fit.stderr < 1e-12

    def test_constant_data(self):
        samples = [(t, 7.25) for t in (0.1, 0.2, 0.4, 0.8)]
        fit = limit_fit(samples)
        assert abs(fit.c0 - 7.25) < 1e-12
        assert abs(fit.c1) < 1e-10

    def test_exact_quadratic(self):
        A, B, C = -1.5, 0.75, 4.0
        samples = [(t, A + B * t + C * t * t) for t in time_grid()]
        fit = limit_fit(samples)
        assert abs(fit.c0 - A) < 1e-10
        assert abs(fit.c1 - B) < 1e-8
        assert abs(fit.c2 - C) < 1e-6

    def test_refuses_degenerate_grids(self):
        with pytest.raises(ValueError):
            limit_fit([(0.1, 1.0), (0.2, 2.0)])
        with pytest.raises(ValueError):
            limit_fit([(0.1, 1.0), (0.2, 2.0), (0.3, 1.0)])
        with pytest.raises(ValueError):
            limit_fit([(0.1, 1.0), (0.1, 1.0), (0.2, 2.0), (0.3, 1.0)])
        with pytest.raises(ValueError):
            limit_fit([(-0.1, 1.0), (0.1, 1.0), (0.2, 2.0), (0.3, 1.0)])

    def test_grid_stability_on_polynomial_data(self):
        # fitted limit invariant under halving the largest grid element
        def y(t):
            return 0.31 - 2.2 * t + 9.0 * t * t

        g1 = time_grid(start=0.1)
        g2 = time_grid(start=0.05)
        f1 = limit_fit([(t, y(t)) for t in g1])
        f2 = limit_fit([(t, y(t)) for t in g2])
        assert abs(f1.c0 - f2.c0) < 1e-9

    def test_fit_on_smallest(self):
        samples = [(t, 1.0 + t) for t in time_grid()]
        fit = fit_on_smallest(samples)
        assert len(fit.grid) == 5
        assert max(fit.grid) == sorted(s[0] for s in samples)[4]
        assert fit == limit_fit(sorted(samples)[:5])


def _det(m):
    if len(m) == 1:
        return m[0][0]
    return sum(
        (-1) ** k * m[0][k] * _det([row[:k] + row[k + 1:] for row in m[1:]])
        for k in range(len(m))
    )


def _cramer_fit(samples):
    """Independent exact oracle: Cramer's rule on the quadratic fit's normal
    equations in Fractions, each coefficient rounded once."""
    size = 3
    ts = [Fraction(t) for t, _ in samples]
    ys = [Fraction(y) for _, y in samples]
    gram = [[sum(t ** (p + q) for t in ts) for q in range(size)]
            for p in range(size)]
    rhs = [sum(y * t**p for t, y in zip(ts, ys)) for p in range(size)]
    det = _det(gram)
    return [
        float(_det([row[:k] + [b] + row[k + 1:] for row, b in zip(gram, rhs)]) / det)
        for k in range(size)
    ]


def _random_fit_case(rng, degree):
    """A geometric grid like the tool's and a random polynomial of the given
    degree in t plus noise."""
    count = rng.randint(4, 7)
    ts = time_grid(rng.uniform(0.02, 0.2), rng.uniform(0.4, 0.6), count)
    c = [rng.uniform(-10, 10) for _ in range(degree + 1)]
    noise = 10 ** rng.uniform(-12, 0)
    return [(t, sum(ck * t**k for k, ck in enumerate(c)) + rng.gauss(0, noise))
            for t in ts]


class TestExactFit:
    # the quadratic fit on data from lines and from parabolas
    @pytest.mark.parametrize("degree", [1, 2])
    def test_bit_equal_to_fraction_normal_equations(self, degree):
        rng = random.Random(degree)
        for _ in range(150):
            if rng.random() < 0.5:
                samples = _random_fit_case(rng, degree)
            else:  # arbitrary distinct times and data over many scales
                ts = {10 ** rng.uniform(-6, 2) for _ in range(rng.randint(4, 7))}
                samples = [(t, rng.gauss(0, 1) * 10 ** rng.uniform(-8, 8)) for t in ts]
            fit = limit_fit(samples)
            got = [fit.c0, fit.c1, fit.c2]
            assert got == _cramer_fit(samples), samples
            # stderr: the exact residuals of the rounded coefficients
            coeffs = [Fraction(c) for c in got]
            sq = sum(
                (Fraction(y) - sum(c * Fraction(t) ** j for j, c in enumerate(coeffs))) ** 2
                for t, y in samples
            )
            assert fit.stderr == math.sqrt(float(sq / len(samples)))

    @pytest.mark.parametrize("degree", [1, 2])
    def test_within_rounding_of_lstsq(self, degree):
        rng = random.Random(10 + degree)
        for _ in range(150):
            samples = sorted(_random_fit_case(rng, degree))
            fit = limit_fit(samples)
            design = np.vander([t for t, _ in samples], 3, increasing=True)
            ref, _, _, _ = np.linalg.lstsq(
                design, np.array([y for _, y in samples]), rcond=None
            )
            # the reported c0 and c1 to 1e-12; lstsq's own rounding error
            # in the curvature term c2 reaches 2e-11 on these grids
            for got, want, tol in zip([fit.c0, fit.c1, fit.c2], ref,
                                      (1e-12, 1e-12, 1e-10)):
                assert abs(got - want) <= tol * max(1.0, abs(want))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_sample_gives_nan_fit(self, bad):
        for pos in range(5):
            ys = [1.0, 2.0, 0.5, 3.0, 1.5]
            ys[pos] = bad
            fit = limit_fit(list(zip((0.1, 0.2, 0.3, 0.4, 0.5), ys)))
            assert math.isnan(fit.c0) and math.isnan(fit.c1)
            assert math.isnan(fit.stderr)
            assert math.isnan(fit.c2)

    def test_huge_and_tiny_data_stay_finite(self):
        for scale in (1e300, 1e-300):
            samples = [(t, scale * y) for t, y in
                       ((1.0, 1.0), (2.0, -1.0), (3.0, 1.0), (4.0, 0.5))]
            fit = limit_fit(samples)
            assert fit.c0 == _cramer_fit(samples)[0]
            assert 0.0 < fit.stderr / scale < 2.0

    # The condition of a grid is the noise gain sum_i |w_i| of the fitted
    # c0 = sum_i w_i y_i on its five smallest times: from 1.9 to 5.7e9 here,
    # no grid within a factor of 2 of the limit.  numpy's pseudo-inverse
    # agrees to about eps * cond_2 of the design.
    @pytest.mark.parametrize("start, ratio, count", [
        (0.1, 0.5, 7), (0.01, 0.9, 4), (0.1, 0.99, 7), (0.01, 0.998, 7),
        (0.001, 0.9998, 7), (0.01, 0.99995, 7), (0.001, 0.9995, 4),
        (0.01, 0.99999, 7),
    ])
    def test_grid_condition_matches_numpy(self, start, ratio, count):
        ts = time_grid(start, ratio, count)[:5]
        design = np.vander(np.array(ts), 3, increasing=True)
        want = np.abs(np.linalg.pinv(design)[0]).sum()
        got = asymptotics._noise_gain(ts)
        assert abs(got - want) <= max(1e-15, 2.3e-16 * np.linalg.cond(design)) * want
        assert not 0.5 < got / asymptotics.NOISE_GAIN_LIMIT < 2.0
        samples = [(t, 1.0 + t) for t in ts]
        model = FlatTorus((1.0, 1.3))
        if got > asymptotics.NOISE_GAIN_LIMIT:
            with pytest.raises(ValueError, match=re.escape(f"noise gain {got:.3g} ")):
                fit_on_smallest(samples)
            with pytest.raises(ValueError, match="ill-conditioned"):
                ricci_scalar_extract(model, ts)
        else:
            assert fit_on_smallest(samples).grid == ts
            ricci_scalar_extract(model, ts)

    def test_grid_condition_non_finite(self):
        # cond_2 of [1, t, t^2] overflows on huge times; the gain stays finite
        huge = (1e200, 2e200, 3e200, 4e200, 5e200)
        assert asymptotics._noise_gain(huge) == pytest.approx(
            asymptotics._noise_gain((1.0, 2.0, 3.0, 4.0, 5.0)), rel=1e-12)
        assert fit_on_smallest([(t, 1.0) for t in huge]).c0 == 1.0
        # a singular or non-finite grid is refused before its gain is taken
        for ts in ((1.0,) * 5, (1.0, 2.0, 3.0, 4.0, math.inf)):
            with pytest.raises(ValueError, match="distinct and positive"):
                fit_on_smallest([(t, 1.0) for t in ts])


class TestJetRelationSuite:
    def test_circle_degree_six_single_time(self):
        result = jet_relation_suite(Circle(1.0), 6, ts=(0.01,))
        assert result.passed
        # one record per pair per time
        assert all(r.t == 0.01 for r in result.records)
        for r in result.records:
            assert r.abs_err < 1e-6

    def test_records_normalization_consistency(self):
        result = jet_relation_suite(Circle(1.0), 4, ts=(0.02,))
        for r in result.records:
            f = normalization_factor(1, r.t, r.alpha, r.beta)
            assert r.normalized == pytest.approx(f * r.raw_jet, rel=0, abs=0)
            assert r.abs_err == abs(r.normalized - r.target)

    def test_sphere3_degree_two_fit(self):
        result = jet_relation_suite(Sphere(3, 1.0), 2, ts=DEFAULT_GRID)
        assert result.passed
        key = "A[1|1]"
        summary = result.summaries[key]
        assert abs(summary.fitted_c0 - 1.0) < 0.01
        assert summary.fitted_c1 == pytest.approx(1 / 3, rel=0.1)

    def test_angle_one_third_everywhere(self):
        for model in (FlatTorus((1.0, 1.3)), Sphere(3, 1.0), Sphere(2, 2.0)):
            ts = (0.01,) if model.is_flat else DEFAULT_GRID
            result = jet_relation_suite(model, 4, ts=ts)
            summary = result.summaries.get("B[1,1|2,2]") or result.summaries[
                "B[2,2|1,1]"
            ]
            assert summary.target == pytest.approx(1 / 3)
            assert summary.passes, model.label

    def test_flat_invariant_smallest_time(self):
        result = jet_relation_suite(FlatTorus((1.0, 1.3)), 4, ts=(0.04, 0.02, 0.01))
        smallest = min(r.t for r in result.records)
        for r in result.records:
            if r.t == smallest:
                assert r.abs_err < 1e-6

    def test_flat_grid_reports_fit_on_every_entry(self):
        # a flat model still passes on its smallest-t sample, but A and B
        # entries both report the fit once the grid has 4 or more times
        ts = time_grid(0.1, 0.5, 5)
        result = jet_relation_suite(FlatTorus((1.0, 1.3)), 4, ts=ts)
        assert result.passed
        b_keys = [k for k in result.summaries if k.startswith("B[")]
        assert b_keys
        for key, summary in result.summaries.items():
            assert summary.fitted_c0 == pytest.approx(summary.target, abs=1e-6), key
            assert summary.stderr is not None, key
        short = jet_relation_suite(FlatTorus((1.0, 1.3)), 4, ts=ts[:3])
        assert all(s.fitted_c0 is None for s in short.summaries.values())

    def test_no_degree_cap(self):
        # |A| reaches 23!! = 316234143225 at degree 24, where jets correct
        # to a few ulps are off by up to 4.3e-4: the flat rule is relative
        # to max(|A|, 1)
        result = jet_relation_suite(Circle(1.0), 24, ts=(0.01,))
        assert len(result.summaries) == 247
        assert result.passed
        worst = max(abs(s.observed - s.target) for s in result.summaries.values())
        assert worst > TOLERANCES["flat_jet_abs"]

    def test_curved_needs_grid(self):
        with pytest.raises(ValueError):
            jet_relation_suite(Sphere(2, 1.0), 2, ts=(0.01,))

    def test_pair_count_closed_form(self):
        for n in range(1, 7):
            for max_degree in range(9):
                assert (asymptotics._pair_count(n, max_degree)
                        == len(asymptotics._canonical_pairs(n, max_degree)))
        # S^5 at degree 8 is the largest pinned run
        assert asymptotics._pair_count(5, 8) == 21942
        assert asymptotics._pair_count(10, 8) == 1554553

    def test_too_many_pairs_refused_before_enumeration(self, monkeypatch):
        def enumerate_nothing(n, max_degree):
            raise AssertionError("enumerated")

        monkeypatch.setattr(asymptotics, "_canonical_pairs", enumerate_nothing)
        with pytest.raises(ValueError, match="^8640507801 jet pairs on sphere400 "):
            jet_relation_suite(Sphere(400, 1.0), 4)
        with pytest.raises(ValueError, match="lower --max-degree"):
            jet_relation_suite(Sphere(10, 1.0), 8)

    def test_one_fit_per_jet_key(self, monkeypatch):
        # pairs with one jet_key share their fit: S^3 at degree 6 fits each
        # A key and each B key once, not each of its 662 checks
        fits = []

        def counted(samples, *args, **kwargs):
            fits.append(samples)
            return fit_on_smallest(samples, *args, **kwargs)

        monkeypatch.setattr(asymptotics, "fit_on_smallest", counted)
        model = Sphere(3, 1.0)
        result = jet_relation_suite(model, 6)
        pairs = asymptotics._canonical_pairs(3, 6)
        a_keys = {model.jet_key(a, b) for a, b in pairs}
        b_keys = {model.jet_key(a, b) for a, b in pairs
                  if 0 < a.degree <= 3 and 0 < b.degree <= 3}
        assert len(result.summaries) == 662
        assert (len(a_keys), len(b_keys)) == (113, 51)
        assert len(fits) == 113 + 51
        assert len(result.records) == len(pairs) * len(DEFAULT_GRID)


class TestUniversalLimits:
    def test_degree_six_every_model(self):
        # normalized even jets converge to the signed pairing constants on
        # every model, for all pairs of total degree <= 6
        cases = [
            (Circle(1.0), (0.01,)),
            (FlatTorus((1.0, 1.3)), (0.01,)),
            (Sphere(2, 2.0), DEFAULT_GRID),
            (Sphere(3, 1.0), DEFAULT_GRID),
            (Sphere(4, 1.3), DEFAULT_GRID),
        ]
        for model, ts in cases:
            result = jet_relation_suite(model, 6, ts=ts)
            assert result.passed, model.label


class TestResidualShrinkage:
    def test_sphere_residual_scales_like_t_squared(self):
        # after removing the fitted line, the remainder behaves like t^2
        s = Sphere(3, 1.0)
        a = mi([1], 3)
        samples = [
            (t, normalization_factor(3, t, a, a) * s.diag_jet(t, a, a))
            for t in DEFAULT_GRID
        ]
        c1, c0 = np.polyfit(*zip(*sorted(samples)[:5]), 1)
        resid = {t: y - (c0 + c1 * t) for t, y in samples}
        ts = sorted(resid)
        r_big, r_mid = abs(resid[ts[-1]]), abs(resid[ts[-2]])
        assert r_big > r_mid
        assert 2.5 < r_big / r_mid < 8.5


class TestSuitePassFlags:
    def test_scalar_suite_targets(self):
        assert scalar_suite(Sphere(3, 1.0), DEFAULT_GRID).passed
        assert scalar_suite(FlatTorus((1.0, 1.3)), DEFAULT_GRID).passed
        r = scalar_suite(Sphere(2, 2.0), DEFAULT_GRID)
        assert r.passed
        assert r.summaries["scalar.slope"].target == pytest.approx(1 / 12)
        assert scalar_suite(Sphere(4, 1.3), DEFAULT_GRID).passed

    def test_isometry_suite(self):
        r = isometry_suite(Sphere(3, 1.0), DEFAULT_GRID)
        assert r.passed
        c1 = r.summaries["isometry.c1[1,1]"]
        assert c1.target == pytest.approx(1 / 3)
        assert abs(c1.fitted_c1 - 1 / 3) < 0.05 / 3

    def test_c1_summaries_observe_the_fitted_slope(self):
        # a check of an O(t) coefficient observes the fitted slope, not the
        # sample at the smallest time; isometry.c1[i,j] observes the slope
        # of the isometry.g[i,j] fit and reports that fit's c0 and c1
        for model, count in ((Sphere(3, 1.0), 6), (Sphere(2, 2.0), 3),
                             (FlatTorus((1.0, 1.3)), 0)):
            slope = scalar_suite(model).summaries["scalar.slope"]
            assert slope.observed == slope.fitted_c1, model.label
            summaries = isometry_suite(model).summaries
            c1 = [(name, s) for name, s in summaries.items()
                  if name.startswith("isometry.c1")]
            assert len(c1) == count, model.label
            for name, s in c1:
                g = summaries[name.replace("c1", "g")]
                assert s.observed == s.fitted_c1 == g.fitted_c1, (model.label, name)
                assert s.fitted_c0 == g.fitted_c0, (model.label, name)

    def test_mean_curvature_suite(self):
        for model, target in (
            (Circle(1.0), math.sqrt(1.5)),
            (FlatTorus((1.0, 1.3)), 1.0),
            (Sphere(3, 1.0), math.sqrt(5 / 6)),
        ):
            r = mean_curvature_suite(model, DEFAULT_GRID)
            assert r.passed
            assert r.summaries["mean_curvature.length"].target == pytest.approx(target)

    def test_umbilical_suite_reports_the_shape_constant(self):
        r = umbilical_suite(Sphere(3, 1.0), DEFAULT_GRID)
        assert r.passed
        aggregates = [name for name in r.summaries
                      if not name.startswith("umbilical.jet[")]
        assert aggregates == ["umbilical.shape_constant"]
        shape = r.summaries["umbilical.shape_constant"]
        assert shape.target == pytest.approx(-5 / 6)
        # -(n+2)/(2n), not -3/2, for n = 3
        assert abs(shape.fitted_c0 + 5 / 6) < 0.03
        assert shape.observed == shape.fitted_c0

    def test_umbilical_circle_aggregates_agree(self):
        # n = 1 is the one case where -(n+2)/(2n) = -3/2
        r = umbilical_suite(Circle(1.0), DEFAULT_GRID)
        shape = r.summaries["umbilical.shape_constant"]
        assert shape.target == pytest.approx(-1.5)
        assert abs(shape.fitted_c0 + 1.5) < 0.045

    @pytest.mark.parametrize("n, radius", [(3, 1.37), (5, 1.5)])
    def test_curvature_targets_round_once(self, n, radius):
        # every target is its exact value in K = 1/radius^2, rounded once;
        # S/6 and (S/2 - Ric)/3 in floats would round two and three times
        K = 1 / Fraction(radius) ** 2
        model = Sphere(n, radius)
        assert scalar_suite(model).summaries["scalar.slope"].target == float(
            n * (n - 1) * K / 6)
        iso = isometry_suite(model).summaries
        ricci = scalar_ricci_suite(model).summaries
        assert ricci["scalar_ricci.scalar"].target == float(n * (n - 1) * K)
        for i in range(1, n + 1):
            for j in range(i, n + 1):
                c1 = (n - 1) * (n - 2) * K / 6 if i == j else 0
                ric = (n - 1) * K if i == j else 0
                assert iso[f"isometry.c1[{i},{j}]"].target == float(c1), (i, j)
                assert ricci[f"scalar_ricci.ric[{i},{j}]"].target == float(ric), (i, j)

    def test_curvature_suite(self):
        assert curvature_suite(Sphere(3, 1.0), DEFAULT_GRID).passed
        assert curvature_suite(FlatTorus((1.0, 1.3)), DEFAULT_GRID).passed
        assert curvature_suite(Sphere(4, 1.3), DEFAULT_GRID).passed
        with pytest.raises(ValueError):
            curvature_suite(Circle(1.0), DEFAULT_GRID)

    @pytest.mark.parametrize("model, count", [
        (Sphere(2, 1.5), 1), (Sphere(3, 1.0), 6), (Sphere(4, 1.3), 21),
        (FlatTorus((1.0, 1.3)), 1),
    ], ids=lambda v: getattr(v, "label", v))
    def test_curvature_entries_read_the_model_tensor(self, model, count):
        # one check per entry i < j, k < l, (i, j) <= (k, l), 1-based
        summaries = curvature_suite(model, DEFAULT_GRID).summaries
        assert len(summaries) == count
        for name, s in summaries.items():
            i, j, k, l = (int(x) - 1 for x in name[12:-1].split(","))
            assert i < j and k < l and (i, j) <= (k, l), name
            assert s.target == float(model.riemann(i, j, k, l)), name
            assert s.passes, name

    def test_curvature_entries_fail_on_a_scaled_tensor(self, monkeypatch):
        # a model whose tensor is 1.1 times the true one fails every
        # nonzero entry and still passes the zero ones
        model = Sphere(3, 1.0)

        def scaled(*quad):
            return Fraction(11, 10) * Sphere.riemann(model, *quad)

        monkeypatch.setattr(model, "riemann", scaled)
        summaries = curvature_suite(model, DEFAULT_GRID).summaries
        assert {s.target for s in summaries.values()} == {-1.1, 0.0}
        for name, s in summaries.items():
            assert s.passes == (s.target == 0.0), name

    @pytest.mark.parametrize("model, nudge, passes", [
        # a zero target passes within residual_rel = 1e-3 times max |R|
        (Sphere(3, 1.0), 1e-2, False), (Sphere(3, 1.0), 1e-4, True),
        (Sphere(3, 1.5), 1e-2 / 2.25, False), (Sphere(3, 1.5), 1e-4 / 2.25, True),
        # max |R| is 0 on a flat model: curvature_flat_abs = 1e-6
        (FlatTorus((1.0, 1.3, 1.7)), 1e-5, False),
        (FlatTorus((1.0, 1.3, 1.7)), 1e-7, True),
    ], ids=["sphere3-fails", "sphere3-passes", "sphere3-r1.5-fails",
            "sphere3-r1.5-passes", "torus3-fails", "torus3-passes"])
    def test_curvature_zero_entry_nudged(self, monkeypatch, model, nudge, passes):
        fitted = asymptotics.curvature_symmetry_residuals

        def nudged(model, ts):
            r = fitted(model, ts)
            r[0][1][0][2] += nudge
            return r

        monkeypatch.setattr(asymptotics, "curvature_symmetry_residuals", nudged)
        summaries = curvature_suite(model, DEFAULT_GRID).summaries
        assert summaries["curvature.R[1,2,1,3]"].target == 0.0
        assert summaries["curvature.R[1,2,1,3]"].passes is passes
        assert all(s.passes for name, s in summaries.items()
                   if name != "curvature.R[1,2,1,3]")

    def test_scalar_ricci_suite(self):
        assert scalar_ricci_suite(Sphere(3, 1.0), DEFAULT_GRID).passed

    def test_failure_is_reported_not_hidden(self):
        r = scalar_suite(Sphere(3, 1.0), DEFAULT_GRID,
                         tol={**TOLERANCES, "scalar_rel": 1e-9})
        assert not r.passed
        assert not r.summaries["scalar.slope"].passes

    def test_summary_dict_schema(self):
        r = scalar_suite(Sphere(3, 1.0), DEFAULT_GRID)
        d = r.summary_dict()["scalar.slope"]
        assert set(d) == {"target", "fitted_c0", "fitted_c1", "stderr", "observed", "pass"}


class TestOneFitRule:
    """Every curvature suite fits its t -> 0 limits on the five smallest
    times; ``ricci_scalar_extract`` fits each upper pullback entry once and
    mirrors it, and ``umbilical_suite`` measures each third jet once."""

    def test_every_curvature_fit_takes_five_smallest(self, monkeypatch):
        grids = []

        def counted(samples, *args, **kwargs):
            fit = limit_fit(samples, *args, **kwargs)
            grids.append(fit.grid)
            return fit

        monkeypatch.setattr(asymptotics, "limit_fit", counted)
        model = Sphere(3, 1.0)
        for suite in (scalar_suite, isometry_suite, mean_curvature_suite,
                      umbilical_suite, curvature_suite, scalar_ricci_suite):
            suite(model, DEFAULT_GRID[::-1])
        assert grids
        assert set(grids) == {DEFAULT_GRID[:5]}

    @pytest.mark.parametrize("model", [
        Sphere(3, 1.0), Sphere(4, 1.3), FlatTorus((1.0, 1.3)),
    ], ids=lambda m: m.label)
    def test_ricci_fits_each_pullback_entry_once(self, monkeypatch, model):
        # the pullback is symmetric sample for sample, so the n(n+1)/2 upper
        # entries are fitted and mirrored, plus one fit of the diagonal
        fits = []

        def counted(samples, *args, **kwargs):
            fits.append(samples)
            return fit_on_smallest(samples, *args, **kwargs)

        monkeypatch.setattr(asymptotics, "fit_on_smallest", counted)
        report = ricci_scalar_extract(model, DEFAULT_GRID)
        n = model.n
        assert len(fits) == n * (n + 1) // 2 + 1
        for name in ("pullback_c0", "pullback_c1", "ricci_estimate"):
            m = getattr(report, name)
            for i in range(n):
                for j in range(n):
                    assert m[i][j].hex() == m[j][i].hex(), (name, i, j)

    def test_umbilical_measures_each_jet_once(self, monkeypatch):
        # the aggregate sums the (1, 1, k) samples the jet checks hold
        calls = []
        measure = asymptotics.third_jet_umbilical

        def counted(model, t, i, j, k):
            calls.append((t, i, j, k))
            return measure(model, t, i, j, k)

        monkeypatch.setattr(asymptotics, "third_jet_umbilical", counted)
        result = umbilical_suite(Sphere(3, 1.0), DEFAULT_GRID)
        assert len(calls) == len(set(calls)) == 27 * len(DEFAULT_GRID)
        samples = [
            (t, sum(measure(Sphere(3, 1.0), t, 1, 1, k) for k in (1, 2, 3)) / 3)
            for t in DEFAULT_GRID
        ]
        shape = result.summaries["umbilical.shape_constant"]
        assert shape.fitted_c0 == fit_on_smallest(samples).c0 / 2.0
