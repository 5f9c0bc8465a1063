import math
import random
import re
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from spectraljet import asymptotics
from spectraljet.asymptotics import (
    DEFAULT_GRID,
    TOLERANCES,
    curvature_suite,
    curvature_suites,
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
from spectraljet.manifolds import (
    Circle,
    FlatTorus,
    Sphere,
    pullback_metric,
    ricci_scalar_extract,
)
from spectraljet.multiindex import from_indices
from spectraljet.wick import wick_a

# the one refusal of a grid too short for a fitted limit, of N times
SHORT_GRID = (r"^fitted limits need a t-grid of at least 4 times "
              r"\(--t-grid start:ratio:count\), got %d$")


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

    def test_refuses_a_count_past_the_limit(self):
        # each fit reads only the five smallest times, so a longer grid adds
        # rows and no check; the count is refused before any time is built
        assert asymptotics.MAX_GRID_COUNT == 1000
        assert len(time_grid(0.1, 0.5, 1000)) == 1000
        # 0.1:0.999:1500 is a healthy grid (smallest time about 0.022) that
        # ran before the limit; it is refused with the rest
        for ratio, count in ((0.999, 1500), (0.9999999, 1001),
                             (0.9999999, 10**18)):
            with pytest.raises(ValueError, match=(
                rf"^t-grid 0.1:{ratio!r}:{count} has {count} times, above "
                r"the limit of 1000; lower the count$"
            )):
                time_grid(0.1, ratio, count)

    @pytest.mark.parametrize("start, ratio, count", [
        (0.1, 1e-320, 5), (1e-300, 1e-10, 5), (5e-324, 0.5, 5), (1e-300, 0.5, 900),
    ])
    def test_refuses_a_smallest_time_that_underflows(self, start, ratio, count):
        with pytest.raises(ValueError, match=(
            rf"^t-grid {start!r}:{ratio!r}:{count} has a smallest time "
            r"start \* ratio\*\*\(count - 1\) that underflows to 0; raise "
            r"the start or the ratio, or lower the count$"
        )):
            time_grid(start, ratio, count)

    def test_keeps_a_positive_subnormal_smallest_time(self):
        assert time_grid(5e-324, 0.5, 1) == (5e-324,)
        assert time_grid(1e-320, 0.5, 2) == (1e-320 * 0.5, 1e-320)


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
        # one row per pair per time
        for _, _, rows in result.records:
            (t, _, _, _, abs_err), = rows
            assert t == 0.01
            assert abs_err < 1e-6

    def test_records_normalization_consistency(self):
        result = jet_relation_suite(Circle(1.0), 4, ts=(0.02,))
        for a, b, rows in result.records:
            for t, raw, normalized, target, abs_err in rows:
                f = normalization_factor(1, t, a, b)
                assert normalized == pytest.approx(f * raw, rel=0, abs=0)
                assert abs_err == abs(normalized - target)

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
        rows = [row for _, _, key_rows in result.records for row in key_rows]
        smallest = min(t for t, *_ in rows)
        for t, *_, abs_err in rows:
            if t == smallest:
                assert abs_err < 1e-6

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
        with pytest.raises(ValueError, match=SHORT_GRID % 1):
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
        # one record per pair, in pair order, and one rows list per A key,
        # a row per time, shared by the pairs of the key
        assert [(a, b) for a, b, _ in result.records] == pairs
        shared = {}
        for a, b, rows in result.records:
            assert shared.setdefault(model.jet_key(a, b), rows) is rows
            assert [t for t, *_ in rows] == list(DEFAULT_GRID)
        assert len(shared) == len({id(rows) for *_, rows in result.records}) == 113

    def test_one_read_per_jet_key_and_time(self, monkeypatch):
        # S^5 at degree 8: the model runs its sums for the same 574 (t, jet
        # key) pairs as when every pair read its jets and its norms through
        # gram_entry; the suite reads each (t, jet key) once, so each norm
        # G(alpha, alpha) once per (alpha, t), and gram_prefactor once per t
        reads, runs, prefactors = [], [], []
        read, jet = Sphere.diag_jet_with_cutoff, Sphere._jet
        prefactor = Sphere.gram_prefactor

        def counted_read(model, t, alpha, beta):
            reads.append((t, alpha, beta))
            return read(model, t, alpha, beta)

        def counted_jet(model, t, alpha, beta, key):
            runs.append((t, key))
            return jet(model, t, alpha, beta, key)

        def counted_prefactor(model, t):
            prefactors.append(t)
            return prefactor(model, t)

        def refuse(*args):
            raise AssertionError("a Gram entry was read through gram_entry")

        monkeypatch.setattr(Sphere, "diag_jet_with_cutoff", counted_read)
        monkeypatch.setattr(Sphere, "_jet", counted_jet)
        monkeypatch.setattr(Sphere, "gram_prefactor", counted_prefactor)
        monkeypatch.setattr(Sphere, "gram_entry", refuse)
        model = Sphere(5, 1.0)
        jet_relation_suite(model, 8)
        assert len(runs) == len(set(runs)) == 574
        keys = [(t, model.jet_key(a, b)) for t, a, b in reads]
        assert len(keys) == len(set(keys))
        norms = Counter((t, a) for t, a, b in reads if a == b)
        assert len(norms) == 84
        assert set(norms.values()) == {1}
        assert prefactors == list(DEFAULT_GRID)


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
        for model in (Sphere(3, 1.0), FlatTorus((1.0, 1.3)), Sphere(4, 1.3)):
            report = ricci_scalar_extract(model, DEFAULT_GRID)
            assert scalar_suite(model, report).passed
        model = Sphere(2, 2.0)
        r = scalar_suite(model, ricci_scalar_extract(model, DEFAULT_GRID))
        assert r.passed
        assert r.summaries["scalar.slope"].target == pytest.approx(1 / 12)

    def test_isometry_suite(self):
        model = Sphere(3, 1.0)
        r = isometry_suite(model, ricci_scalar_extract(model, DEFAULT_GRID))
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
            report = ricci_scalar_extract(model, DEFAULT_GRID)
            slope = scalar_suite(model, report).summaries["scalar.slope"]
            assert slope.observed == slope.fitted_c1, model.label
            summaries = isometry_suite(model, report).summaries
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
        report = ricci_scalar_extract(model, DEFAULT_GRID)
        assert scalar_suite(model, report).summaries["scalar.slope"].target == float(
            n * (n - 1) * K / 6)
        iso = isometry_suite(model, report).summaries
        ricci = scalar_ricci_suite(model, report).summaries
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
        model = Sphere(3, 1.0)
        report = ricci_scalar_extract(model, DEFAULT_GRID)
        assert scalar_ricci_suite(model, report).passed

    def test_failure_is_reported_not_hidden(self):
        model = Sphere(3, 1.0)
        r = scalar_suite(model, ricci_scalar_extract(model, DEFAULT_GRID),
                         tol={**TOLERANCES, "scalar_rel": 1e-9})
        assert not r.passed
        assert not r.summaries["scalar.slope"].passes

    def test_summary_dict_schema(self):
        model = Sphere(3, 1.0)
        r = scalar_suite(model, ricci_scalar_extract(model, DEFAULT_GRID))
        d = r.summary_dict()["scalar.slope"]
        assert set(d) == {"target", "fitted_c0", "fitted_c1", "stderr", "observed", "pass"}


class TestOneFlatnessFlag:
    """``is_flat`` is read from the curvature that ``riemann`` reads, and
    every suite with a flat-model rule takes it from there."""

    def test_flag_follows_the_curvature(self):
        assert Circle().is_flat and FlatTorus((1.0, 1.3)).is_flat
        assert not Sphere(3, 1.0).is_flat and not Sphere(2, 2.0).is_flat

    def test_sphere_with_zero_curvature_gets_every_flat_rule(self):
        s = Sphere(3, 1.0)
        s.curvature = Fraction(0)
        assert s.is_flat
        # jets and angles are judged at the smallest time: one time suffices
        jets = jet_relation_suite(s, 2, ts=(0.01,))
        assert jets.summaries
        assert all(x.fitted_c0 is None for x in jets.summaries.values())
        # the pullback is judged as the identity at the smallest time, and
        # no O(t) coefficient is checked
        iso = isometry_suite(s, ricci_scalar_extract(s, DEFAULT_GRID))
        smallest = pullback_metric(s, DEFAULT_GRID[0])
        assert set(iso.summaries) == {
            f"isometry.g[{i + 1},{j + 1}]" for i in range(3) for j in range(i, 3)
        }
        for name, summary in iso.summaries.items():
            i, j = (int(c) - 1 for c in name[-4:-1].split(","))
            assert summary.observed == smallest[i][j], name
        # every entry has target 0 and is judged within curvature_flat_abs:
        # the fitted sectional entries, about 1, pass a bound of 10 and fail
        # the default one
        loose = {**TOLERANCES, "curvature_flat_abs": 10.0}
        curv = curvature_suite(s, DEFAULT_GRID, loose)
        assert {x.target for x in curv.summaries.values()} == {0.0}
        assert curv.passed
        assert not curvature_suite(s, DEFAULT_GRID).passed


class TestTargetsFromWick:
    """Every c0 target of the curvature suites is a Wick constant A, and
    equals bit for bit the closed form it replaced."""

    @pytest.mark.parametrize("n", range(1, 9))
    def test_c0_targets(self, n):
        model = Circle(1.0) if n == 1 else Sphere(n, 1.0)
        report = ricci_scalar_extract(model, DEFAULT_GRID)
        iso = isometry_suite(model, report).summaries
        umb = umbilical_suite(model).summaries
        mean = mean_curvature_suite(model).summaries["mean_curvature.length"]
        for i in range(1, n + 1):
            for j in range(i, n + 1):
                target = iso[f"isometry.g[{i},{j}]"].target
                assert target == wick_a(mi([i], n), mi([j], n)).value
                assert target.hex() == (1.0 if i == j else 0.0).hex(), (i, j)
        first = []
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                for k in range(1, n + 1):
                    target = umb[f"umbilical.jet[{i},{j},{k}]"].target
                    exact = wick_a(mi([i, k, k], n), mi([j], n)).value
                    assert target == exact
                    closed = -3.0 if i == j == k else -1.0 if i == j else 0.0
                    assert target.hex() == closed.hex(), (i, j, k)
                    if i == j == 1:
                        first.append(exact)
        shape = umb["umbilical.shape_constant"].target
        assert shape == float(Fraction(sum(first), 2 * n))
        assert shape.hex() == (-(n + 2.0) / (2.0 * n)).hex()
        pure = [mi([k, k], n) for k in range(1, n + 1)]
        total = sum(wick_a(a, b).value for a in pure for b in pure)
        assert mean.target == math.sqrt(float(Fraction(total, 2 * n * n)))
        assert mean.target.hex() == math.sqrt((n + 2.0) / (2.0 * n)).hex()


class TestOneReader:
    """``scalar_suite``, ``isometry_suite`` and ``scalar_ricci_suite`` judge
    exactly the ``ricci_scalar_extract`` report they are given and sample
    nothing themselves; ``curvature_suites`` builds that report once."""

    @pytest.mark.parametrize("model", [
        Sphere(3, 1.0), FlatTorus((1.0, 1.3)),
    ], ids=lambda m: m.label)
    def test_suites_judge_the_report(self, monkeypatch, model):
        n = model.n
        report = ricci_scalar_extract(model, DEFAULT_GRID)

        def moved(fit, k):
            return fit._replace(c0=fit.c0 + k, c1=fit.c1 + 2 * k,
                                stderr=fit.stderr + 3 * k)

        # every number of the given report differs from the model's own,
        # so a suite that judged anything else would show it
        given = report._replace(
            diagonal=moved(report.diagonal, 0.5),
            pullback=[[moved(report.pullback[i][j], 1 + i + j) for j in range(n)]
                      for i in range(n)],
            smallest_pullback=[[x + 7 + i + j for j, x in enumerate(row)]
                               for i, row in enumerate(report.smallest_pullback)],
            scalar_estimate=report.scalar_estimate + 11,
            ricci_estimate=[[x + 13 + i + j for j, x in enumerate(row)]
                            for i, row in enumerate(report.ricci_estimate)],
        )

        def refuse(*args, **kwargs):
            raise AssertionError("a suite sampled the model")

        monkeypatch.setattr(asymptotics, "ricci_scalar_extract", refuse)
        monkeypatch.setattr(type(model), "_jet", refuse)

        def fitted(summary):
            return summary.fitted_c0, summary.fitted_c1, summary.stderr

        slope = scalar_suite(model, given).summaries["scalar.slope"]
        d = given.diagonal
        assert fitted(slope) == (d.c0, d.c1, d.stderr)
        assert slope.observed == d.c1

        iso = isometry_suite(model, given).summaries
        for i in range(n):
            for j in range(i, n):
                name = f"[{i + 1},{j + 1}]"
                g = iso["isometry.g" + name]
                assert g.observed == given.smallest_pullback[i][j]
                if model.is_flat:
                    assert fitted(g) == (None, None, None)
                    continue
                fit = given.pullback[i][j]
                assert fitted(g) == (fit.c0, fit.c1, fit.stderr)
                assert fitted(iso["isometry.c1" + name]) == (fit.c0, fit.c1, fit.stderr)

        ricci = scalar_ricci_suite(model, given).summaries
        scalar = ricci["scalar_ricci.scalar"]
        assert fitted(scalar) == (given.scalar_estimate, d.c1, d.stderr)
        for i in range(n):
            for j in range(i, n):
                entry = ricci[f"scalar_ricci.ric[{i + 1},{j + 1}]"]
                assert entry.observed == given.ricci_estimate[i][j]

    # (model, fits of the whole command); the three readers of the report
    # share its fits: one of the diagonal and one per jet key of the
    # pullback entries, two on a sphere of any dimension
    FITS = {
        "sphere3": (lambda: Sphere(3, 1.0), 23),
        "sphere8": (lambda: Sphere(8, 1.0), 24),
        "torus": (lambda: FlatTorus((1.0, 1.3)), 29),
        "circle": (lambda: Circle(1.0), 5),
    }
    SUITES = ("scalar", "isometry", "mean_curvature", "umbilical",
              "curvature", "scalar_ricci")

    @pytest.mark.parametrize("case", FITS)
    def test_curvature_suites_extract_once(self, monkeypatch, case):
        make, count = self.FITS[case]
        reports, fits = [], []
        extract = asymptotics.ricci_scalar_extract

        def counted_extract(*args, **kwargs):
            reports.append(extract(*args, **kwargs))
            return reports[-1]

        def counted_fit(samples, *args, **kwargs):
            fits.append(samples)
            return limit_fit(samples, *args, **kwargs)

        monkeypatch.setattr(asymptotics, "ricci_scalar_extract", counted_extract)
        monkeypatch.setattr(asymptotics, "limit_fit", counted_fit)
        model = make()
        suites = curvature_suites(model, DEFAULT_GRID)
        assert len(reports) == 1
        assert len(fits) == count
        names = self.SUITES if model.n >= 2 else self.SUITES[:4]
        assert tuple(s.name for s in suites) == names
        assert all(s.model == model.label for s in suites)

    @pytest.mark.parametrize("model", [Sphere(3, 1.0), Circle(1.0)],
                             ids=lambda m: m.label)
    def test_curvature_suites_refuse_a_short_grid(self, monkeypatch, model):
        def refuse(*args, **kwargs):
            raise AssertionError("a short grid was sampled")

        monkeypatch.setattr(asymptotics, "ricci_scalar_extract", refuse)
        with pytest.raises(ValueError, match=SHORT_GRID % 3):
            curvature_suites(model, DEFAULT_GRID[:3])


class TestOneFitRule:
    """Every curvature suite fits its t -> 0 limits on the five smallest
    times; ``ricci_scalar_extract`` fits each jet key of the pullback entries
    once and mirrors its fit, ``umbilical_suite`` measures and fits each jet key of its
    third jets once, and a model runs its sums once per (t, jet key)."""

    # (model, suites, distinct (t, jet key) reads); the jet suite's angle
    # checks read the jets of its A checks again, and the curvature suites
    # share one model, so each measured jet is read again in later suites
    JET_RUNS = {
        "jets-sphere3-d6": (lambda: Sphere(3, 1.3),
                            lambda m: jet_relation_suite(m, 6), 203),
        "jets-sphere3-d7": (lambda: Sphere(3, 1.3),
                            lambda m: jet_relation_suite(m, 7), 231),
        "jets-torus-d6": (lambda: FlatTorus((1.2, 1.7)),
                          lambda m: jet_relation_suite(m, 6, (0.01,)), 40),
        "curvature-sphere3": (lambda: Sphere(3, 1.3), curvature_suites, 42),
        "curvature-sphere8": (lambda: Sphere(8, 1.3), curvature_suites, 42),
        "curvature-torus": (lambda: FlatTorus((1.2, 1.7)), curvature_suites, 84),
    }

    @pytest.mark.parametrize("case", JET_RUNS)
    def test_one_jet_run_per_time_and_key(self, monkeypatch, case):
        make, run, distinct = self.JET_RUNS[case]
        runs = []
        for cls in (Sphere, FlatTorus):
            def counted(model, t, alpha, beta, key, jet=cls._jet):
                assert key == model.jet_key(alpha, beta)
                runs.append((t, key))
                return jet(model, t, alpha, beta, key)

            monkeypatch.setattr(cls, "_jet", counted)
        run(make())
        assert len(runs) == len(set(runs)) == distinct

    def test_every_curvature_fit_takes_five_smallest(self, monkeypatch):
        grids = []

        def counted(samples, *args, **kwargs):
            fit = limit_fit(samples, *args, **kwargs)
            grids.append(fit.grid)
            return fit

        monkeypatch.setattr(asymptotics, "limit_fit", counted)
        model = Sphere(3, 1.0)
        curvature_suites(model, DEFAULT_GRID[::-1])
        assert grids
        assert set(grids) == {DEFAULT_GRID[:5]}

    @pytest.mark.parametrize("model, keys", [
        pytest.param(Sphere(3, 1.0), 2, id="sphere3"),
        pytest.param(Sphere(4, 1.3), 2, id="sphere4"),
        pytest.param(FlatTorus((1.0, 1.3)), 3, id="torus"),
    ])
    def test_ricci_fits_each_pullback_entry_once(self, monkeypatch, model, keys):
        # the upper entries (e_i, e_j) of one jet key have bit-identical
        # samples, so each key is fitted once and its fit serves its entries
        # and their mirrors (on a sphere one key of i = j and one of i != j;
        # on the torus each entry is its own key), plus one fit of the diagonal
        fits = []

        def counted(samples, *args, **kwargs):
            fits.append(samples)
            return fit_on_smallest(samples, *args, **kwargs)

        monkeypatch.setattr(asymptotics, "fit_on_smallest", counted)
        report = ricci_scalar_extract(model, DEFAULT_GRID)
        n = model.n
        assert len(fits) == keys + 1
        units = [from_indices([i], n) for i in range(1, n + 1)]
        by_key = {}
        for i in range(n):
            for j in range(i, n):
                fit = by_key.setdefault(model.jet_key(units[i], units[j]),
                                        report.pullback[i][j])
                assert report.pullback[i][j] is fit, (i, j)
        assert len(by_key) == keys
        for i in range(n):
            for j in range(n):
                assert report.pullback[i][j] is report.pullback[j][i], (i, j)
        for name in ("smallest_pullback", "pullback_c1", "ricci_estimate"):
            m = getattr(report, name)
            for i in range(n):
                for j in range(n):
                    assert m[i][j].hex() == m[j][i].hex(), (name, i, j)

    def test_umbilical_measures_each_jet_once(self, monkeypatch):
        # one measurement per jet key and time: S^3 has 5 keys among its
        # 27 triples; the aggregate sums the (1, 1, k) samples the jet
        # checks hold
        calls = []
        measure = asymptotics.third_jet_umbilical

        def counted(model, t, i, j, k):
            calls.append((t, i, j, k))
            return measure(model, t, i, j, k)

        monkeypatch.setattr(asymptotics, "third_jet_umbilical", counted)
        result = umbilical_suite(Sphere(3, 1.0), DEFAULT_GRID)
        assert len(calls) == len(set(calls)) == 5 * len(DEFAULT_GRID)
        samples = [
            (t, sum(measure(Sphere(3, 1.0), t, 1, 1, k) for k in (1, 2, 3)) / 3)
            for t in DEFAULT_GRID
        ]
        shape = result.summaries["umbilical.shape_constant"]
        assert shape.fitted_c0 == fit_on_smallest(samples).c0 / 2.0

    def test_umbilical_fits_each_jet_key_once(self, monkeypatch):
        # S^4 has 64 triples but 5 jet keys: 5 fits and the aggregate's
        fits = []

        def counted(samples, *args, **kwargs):
            fits.append(samples)
            return fit_on_smallest(samples, *args, **kwargs)

        monkeypatch.setattr(asymptotics, "fit_on_smallest", counted)
        result = umbilical_suite(Sphere(4, 1.3), DEFAULT_GRID)
        assert len(fits) == 6
        assert len(result.summaries) == 4**3 + 1
