"""Special functions validated against scipy."""

import numpy as np
import pytest

from repro.stats import special

scipy_special = pytest.importorskip("scipy.special")
scipy_stats = pytest.importorskip("scipy.stats")


class TestGammaln:
    @pytest.mark.parametrize("x", [0.1, 0.5, 1.0, 1.5, 2.0, 5.0, 10.5, 100.0, 500.0])
    def test_matches_scipy(self, x):
        assert special.gammaln(x) == pytest.approx(
            float(scipy_special.gammaln(x)), rel=1e-10
        )

    def test_vectorized(self):
        xs = np.linspace(0.05, 50, 200)
        np.testing.assert_allclose(
            special.gammaln(xs), scipy_special.gammaln(xs), rtol=1e-10
        )

    def test_integer_factorials(self):
        # Gamma(n) = (n-1)!
        import math
        for n in range(1, 15):
            assert special.gammaln(n) == pytest.approx(
                math.log(math.factorial(n - 1)), abs=1e-9
            )

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            special.gammaln(0.0)
        with pytest.raises(ValueError):
            special.gammaln(-2.0)


def ref_gser(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The series as it was before large shapes got their own path."""
    ap = a.astype(float).copy()
    term = 1.0 / a
    total = term.copy()
    active = x > 0.0
    for _ in range(500):
        if not active.any():
            break
        ap[active] += 1.0
        term[active] *= x[active] / ap[active]
        total[active] += term[active]
        active = active & (np.abs(term) >= np.abs(total) * 1e-15)
    return total * np.exp(
        -x + a * np.log(np.where(x > 0, x, 1.0)) - special.gammaln(a)
    )


def ref_gcf(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The continued fraction as it was, capped at 500 rounds."""
    tiny = 1e-300
    b = x + 1.0 - a
    c = np.full_like(b, 1.0 / tiny)
    d = 1.0 / b
    h = d.copy()
    active = np.ones(b.shape, dtype=bool)
    for i in range(1, 501):
        if not active.any():
            break
        an = -i * (i - a)
        b = b + 2.0
        d = an * d + b
        d = np.where(np.abs(d) < tiny, tiny, d)
        c = b + an / c
        c = np.where(np.abs(c) < tiny, tiny, c)
        d = 1.0 / d
        delta = d * c
        h = np.where(active, h * delta, h)
        active = active & (np.abs(delta - 1.0) >= 1e-15)
    return h * np.exp(-x + a * np.log(x) - special.gammaln(a))


class TestIncompleteGamma:
    @pytest.mark.parametrize("a", [0.3, 0.5, 1.0, 2.5, 10.0, 50.0])
    @pytest.mark.parametrize("x", [0.0, 0.1, 1.0, 5.0, 30.0, 200.0])
    def test_lower_matches_scipy(self, a, x):
        assert special.gammainc_lower(a, x) == pytest.approx(
            float(scipy_special.gammainc(a, x)), abs=1e-10
        )

    @pytest.mark.parametrize(
        "a, tol", [(1e3, 1e-8), (1e4, 1e-8), (1e5, 1e-8), (1e6, 1e-8),
                   (1e7, 5e-8)],
    )
    def test_large_shapes_match_scipy(self, a, tol):
        """Near x = a the series needs about 8·√a terms; stopping at 500
        left shapes from 1e4 up unconverged (off by 0.44 at 1e7).  At
        1e7 the exp(-x + a·log x - gammaln(a)) factor itself loses
        about 1e-8."""
        x = a + np.arange(-3, 4) * np.sqrt(a)
        np.testing.assert_allclose(
            special.gammainc_lower(a, x), scipy_special.gammainc(a, x),
            rtol=0, atol=tol,
        )

    def test_converging_inputs_are_bit_identical(self):
        """Inputs that converge within 500 rounds give the bits of the
        500-round loops the large-shape paths were added to."""
        a = np.repeat([0.3, 1.0, 2.5, 10.0, 49.0, 1e3], 60)
        x = np.tile(np.linspace(0.0, 1300.0, 60), 6)
        series = (x > 0.0) & (x < a + 1.0)
        tail = x >= a + 1.0
        want = np.zeros_like(x)
        want[series] = np.minimum(1.0, ref_gser(a[series], x[series]))
        want[tail] = np.maximum(0.0, 1.0 - ref_gcf(a[tail], x[tail]))
        np.testing.assert_array_equal(special.gammainc_lower(a, x), want)

    def test_upper_is_complement(self):
        for a, x in [(0.5, 1.0), (3.0, 2.0), (10.0, 12.0)]:
            assert special.gammainc_upper(a, x) == pytest.approx(
                1.0 - special.gammainc_lower(a, x)
            )

    def test_monotone_in_x(self):
        xs = np.linspace(0, 20, 50)
        vals = special.gammainc_lower(2.0, xs)
        assert np.all(np.diff(vals) >= 0)

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            special.gammainc_lower(2.0, -1.0)
        with pytest.raises(ValueError):
            special.gammainc_lower(-1.0, 2.0)

    def test_broadcasting(self):
        out = special.gammainc_lower(np.array([1.0, 2.0]), np.array([1.0, 1.0]))
        assert out.shape == (2,)


class TestErf:
    @pytest.mark.parametrize("x", [-3.0, -1.0, -0.2, 0.0, 0.2, 1.0, 3.0])
    def test_matches_scipy(self, x):
        assert special.erf(x) == pytest.approx(
            float(scipy_special.erf(x)), abs=1e-10
        )

    def test_odd_function(self):
        xs = np.linspace(0.01, 4, 40)
        np.testing.assert_allclose(special.erf(-xs), -special.erf(xs))


class TestNormalCdf:
    def test_standard_values(self):
        assert special.normal_cdf(0.0) == pytest.approx(0.5)
        assert special.normal_cdf(1.96) == pytest.approx(0.975, abs=1e-4)

    def test_location_scale(self):
        assert special.normal_cdf(10.0, mean=10.0, std=3.0) == pytest.approx(0.5)


class TestChi2Sf:
    @pytest.mark.parametrize("df", [1, 2, 5, 10, 23, 39])
    @pytest.mark.parametrize("x", [0.0, 0.5, 3.0, 12.0, 50.0])
    def test_matches_scipy(self, df, x):
        assert special.chi2_sf(x, df) == pytest.approx(
            float(scipy_stats.chi2.sf(x, df)), abs=1e-10
        )

    def test_known_critical_value(self):
        # chi2(df=1) 95th percentile is 3.841.
        assert special.chi2_sf(3.841, 1) == pytest.approx(0.05, abs=1e-3)

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            special.chi2_sf(-1.0, 2)
        with pytest.raises(ValueError):
            special.chi2_sf(1.0, 0)


class TestDigamma:
    @pytest.mark.parametrize("x", [0.05, 0.3, 1.0, 2.0, 5.5, 30.0, 500.0])
    def test_matches_scipy(self, x):
        assert special.digamma(x) == pytest.approx(
            float(scipy_special.digamma(x)), abs=1e-9
        )

    def test_recurrence(self):
        # psi(x+1) = psi(x) + 1/x
        for x in [0.7, 1.3, 4.2]:
            assert special.digamma(x + 1) == pytest.approx(
                special.digamma(x) + 1.0 / x, abs=1e-9
            )

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            special.digamma(0.0)
