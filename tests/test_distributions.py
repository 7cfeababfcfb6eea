"""Distribution library: MLE recovery, CDF/PPF consistency, properties."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.stats.distributions import (
    Exponential,
    FitError,
    Gamma,
    LogNormal,
    TBF_FAMILIES,
    Uniform,
    Weibull,
    fit_all,
)

ALL_FAMILIES = (Uniform, Exponential, Weibull, Gamma, LogNormal)


def make_dist(family, rng):
    if family is Uniform:
        return Uniform(2.0, 9.0)
    if family is Exponential:
        return Exponential(0.25)
    if family is Weibull:
        return Weibull(1.6, 5.0)
    if family is Gamma:
        return Gamma(2.5, 3.0)
    return LogNormal(1.2, 0.7)


class TestBasicShape:
    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_pdf_nonnegative_cdf_monotone(self, family, rng):
        dist = make_dist(family, rng)
        xs = np.linspace(0.01, 30, 300)
        pdf = dist.pdf(xs)
        cdf = dist.cdf(xs)
        assert np.all(pdf >= 0)
        assert np.all(np.diff(cdf) >= -1e-12)
        assert np.all((cdf >= 0) & (cdf <= 1))

    @pytest.mark.parametrize("family", [Exponential, Weibull, Gamma, LogNormal])
    def test_no_mass_below_zero(self, family, rng):
        dist = make_dist(family, rng)
        assert dist.pdf(np.array([-1.0]))[0] == 0.0
        assert dist.cdf(np.array([-1.0]))[0] == 0.0

    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_ppf_inverts_cdf(self, family, rng):
        dist = make_dist(family, rng)
        for q in [0.05, 0.25, 0.5, 0.9, 0.99]:
            x = float(np.atleast_1d(dist.ppf(q))[0])
            assert float(np.atleast_1d(dist.cdf(x))[0]) == pytest.approx(q, abs=1e-6)

    @pytest.mark.parametrize("family", ALL_FAMILIES)
    @pytest.mark.parametrize(
        "q", [0.3, np.float64(0.3), np.array(0.3), np.array([0.3]),
              np.array([0.0, 0.3, 0.9]), np.array([[0.1, 0.5], [0.0, 0.9]])],
        ids=["float", "np.float64", "0-d", "1-element", "vector", "matrix"],
    )
    def test_ppf_keeps_input_shape(self, family, q, rng):
        out = make_dist(family, rng).ppf(q)
        if np.ndim(q) == 0:
            assert isinstance(out, float)
        else:
            assert isinstance(out, np.ndarray) and out.shape == np.shape(q)

    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_sample_mean_matches(self, family, rng):
        dist = make_dist(family, rng)
        samples = dist.sample(60_000, rng)
        assert samples.mean() == pytest.approx(dist.mean, rel=0.05)

    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_cdf_integrates_pdf(self, family, rng):
        dist = make_dist(family, rng)
        xs = np.linspace(0.001, 50, 20_000)
        integral = np.trapezoid(dist.pdf(xs), xs)
        expected = float(
            np.atleast_1d(dist.cdf(50.0))[0] - np.atleast_1d(dist.cdf(0.001))[0]
        )
        assert integral == pytest.approx(expected, abs=2e-3)


class TestMLERecovery:
    """Fitting samples from a known distribution recovers its parameters."""

    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_recovery(self, family, rng):
        true = make_dist(family, rng)
        data = true.sample(40_000, rng)
        fitted = family.fit(data)
        for name, value in true.params.items():
            assert fitted.params[name] == pytest.approx(value, rel=0.08), (
                f"{family.name} parameter {name}"
            )

    def test_exponential_fit_is_inverse_mean(self, rng):
        data = np.array([1.0, 2.0, 3.0])
        assert Exponential.fit(data).lam == pytest.approx(0.5)

    def test_lognormal_fit_closed_form(self, rng):
        data = np.exp(rng.normal(2.0, 0.5, 10_000))
        fitted = LogNormal.fit(data)
        assert fitted.mu == pytest.approx(2.0, abs=0.02)
        assert fitted.sigma == pytest.approx(0.5, abs=0.02)

    @pytest.mark.parametrize("family", [Exponential, Weibull, Gamma, LogNormal])
    def test_positive_support_required(self, family):
        with pytest.raises(FitError):
            family.fit(np.array([1.0, -2.0, 3.0]))

    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_too_small_sample_rejected(self, family):
        with pytest.raises(FitError):
            family.fit(np.array([1.0]))

    def test_degenerate_sample_rejected(self):
        const = np.full(100, 3.0)
        for family in (Uniform, Weibull, Gamma, LogNormal):
            with pytest.raises(FitError):
                family.fit(const)

    @pytest.mark.parametrize("base, width", [(3600.0, 60.0), (86400.0, 3600.0), (1e5, 100.0)])
    def test_weibull_fits_tight_samples_of_large_values(self, base, width):
        # x**k overflows long before the MLE shape (about 100 to 4000
        # here) is reached, so the fit must not form the raw powers.
        data = base + np.random.default_rng(17).uniform(0.0, width, 200)
        fitted = Weibull.fit(data)
        assert fitted.shape > 50
        best = fitted.log_likelihood(data)
        for dk in (0.99, 1.01):
            for ds in (0.9999, 1.0001):
                worse = Weibull(fitted.shape * dk, fitted.scale * ds)
                assert worse.log_likelihood(data) < best

    def test_fit_beats_wrong_params_in_likelihood(self, rng):
        data = Gamma(3.0, 2.0).sample(5_000, rng)
        fitted = Gamma.fit(data)
        worse = Gamma(1.0, 6.0)
        assert fitted.log_likelihood(data) > worse.log_likelihood(data)


class TestFitAll:
    def test_fits_every_family_on_good_data(self, rng):
        data = rng.gamma(2.0, 3.0, 3_000)
        fits = fit_all(data)
        assert set(fits) == {f.name for f in TBF_FAMILIES}

    def test_skips_failing_families(self):
        # Constant data: exponential still fits, the others cannot.
        fits = fit_all(np.full(50, 2.0))
        assert "exponential" in fits
        assert "weibull" not in fits


class TestValidation:
    def test_bad_params_rejected(self):
        with pytest.raises(ValueError):
            Exponential(0.0)
        with pytest.raises(ValueError):
            Weibull(-1.0, 2.0)
        with pytest.raises(ValueError):
            Gamma(1.0, 0.0)
        with pytest.raises(ValueError):
            LogNormal(0.0, 0.0)
        with pytest.raises(ValueError):
            Uniform(3.0, 3.0)


class TestPropertyBased:
    @given(
        shape=st.floats(min_value=0.5, max_value=5.0),
        scale=st.floats(min_value=0.1, max_value=100.0),
        q=st.floats(min_value=0.01, max_value=0.99),
    )
    @settings(max_examples=60, deadline=None)
    def test_weibull_ppf_cdf_round_trip(self, shape, scale, q):
        dist = Weibull(shape, scale)
        x = float(np.atleast_1d(dist.ppf(q))[0])
        assert float(np.atleast_1d(dist.cdf(x))[0]) == pytest.approx(q, abs=1e-9)

    @given(
        lam=st.floats(min_value=1e-4, max_value=1e3),
        q=st.floats(min_value=0.01, max_value=0.99),
    )
    @settings(max_examples=60, deadline=None)
    def test_exponential_ppf_cdf_round_trip(self, lam, q):
        dist = Exponential(lam)
        x = float(np.atleast_1d(dist.ppf(q))[0])
        assert float(np.atleast_1d(dist.cdf(x))[0]) == pytest.approx(q, abs=1e-9)

    @given(data=st.lists(st.floats(min_value=0.01, max_value=1e5), min_size=5, max_size=60))
    @settings(max_examples=50, deadline=None)
    def test_exponential_fit_mean_inverse(self, data):
        arr = np.asarray(data)
        fitted = Exponential.fit(arr)
        assert fitted.mean == pytest.approx(float(arr.mean()), rel=1e-9)

    @given(data=st.lists(st.floats(min_value=1e-3, max_value=1e4), min_size=10, max_size=80, unique=True))
    @settings(max_examples=40, deadline=None)
    def test_uniform_fit_brackets_data(self, data):
        arr = np.asarray(data)
        fitted = Uniform.fit(arr)
        assert fitted.low == pytest.approx(arr.min())
        assert fitted.high == pytest.approx(arr.max())
        assert np.all(fitted.pdf(arr) > 0)
