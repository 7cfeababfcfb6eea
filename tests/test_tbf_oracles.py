"""Differential and scipy oracles for the TBF fits and their tests.

The references below are the implementations the fast path replaced,
kept verbatim: ``Weibull.fit`` bisecting on the raw powers ``data**k``,
the batched-bisection quantiles ``_bisect_ppf`` (gamma) and
``_normal_ppf`` (lognormal), ``chi_square_fit`` binning with
``np.histogram``, and ``hypotheses._tbf`` / ``test_tbf_all_families``,
which derived the gaps a second time and fitted every family again.

On Hypothesis samples (ties with runs of the one-second floor up to
most of the sample, 10-element samples, heavy tails from 1 s to 1e7 s,
tight samples of large values) the new code must:

* fit the Weibull within 1e-9 relative of the reference wherever the
  reference fits, with a log-likelihood not below scipy's
  ``weibull_min.fit(floc=0)`` by more than 1e-9 relative, and raise
  ``FitError`` exactly where the reference does — except where the
  reference's ``data**k`` overflowed, which the new fit must survive;
* place gamma quantiles within 1e-12 relative of scipy and normal
  quantiles within 1e-12 absolute, on every chi-squared grid;
* give every ``ChiSquareResult`` field bit for bit, unless a sample
  value lies within 1e-9 relative of a reference bin edge (there the
  two quantile solvers may legitimately bin it differently), and raise
  the same exception type where the reference raises.

scipy is imported directly: it is in the ``test`` extra, so a missing
scipy fails this module instead of skipping it.
"""

from __future__ import annotations

import dataclasses
from collections import Counter
from typing import AbstractSet, Dict, FrozenSet, Optional, Sequence

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy import stats as scipy_stats

from repro.analysis import tbf
from repro.core.dataset import FOTDataset
from repro.stats import distributions, hypotheses
from repro.stats.chisquare import (
    MIN_EXPECTED,
    ChiSquareResult,
    _pool_low_expected,
    chi_square_fit,
)
from repro.stats.distributions import (
    TBF_FAMILIES,
    Distribution,
    Exponential,
    FitError,
    Gamma,
    LogNormal,
    Weibull,
    _validate_positive_sample,
    fit_all,
)
from repro.stats.empirical import ecdf
from repro.stats.special import chi2_sf, normal_cdf
from tests.test_ticket import make_ticket

# ---------------------------------------------------------------------------
# References: the replaced implementations, unchanged.


def ref_weibull_fit(data) -> Weibull:
    data = _validate_positive_sample(data, "weibull")
    logs = np.log(data)
    mean_log = logs.mean()

    def profile(k: float) -> float:
        # d/dk of the profile log-likelihood; root gives the MLE shape.
        with np.errstate(over="ignore", invalid="ignore"):
            xk = data**k
            value = (xk * logs).sum() / xk.sum() - 1.0 / k - mean_log
        return float(value) if np.isfinite(value) else float("-inf")

    # ``profile`` is increasing in k; bracket the root then bisect.
    lo, hi = 1e-3, 1.0
    for _ in range(200):
        if profile(hi) > 0:
            break
        hi *= 2.0
    else:
        raise FitError("weibull shape bracket search failed")
    if profile(lo) > 0:
        raise FitError("weibull fit requires sample with spread")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if profile(mid) > 0:
            hi = mid
        else:
            lo = mid
        if hi - lo < 1e-10 * hi:
            break
    k = 0.5 * (lo + hi)
    scale = float((data**k).mean() ** (1.0 / k))
    return Weibull(k, scale)


def ref_bisect_ppf(cdf, q: np.ndarray, *, hi0: float) -> np.ndarray:
    """Quantiles of a vectorized ``cdf`` on support ``[0, inf)`` by
    batched bisection: every element is bracketed by doubling and then
    refined together, with converged elements masked out."""
    hi = np.full_like(q, float(hi0))
    for _ in range(1024):
        short = cdf(hi) < q
        if not short.any():
            break
        hi[short] *= 2.0
        if np.any(hi > 1e300):  # pragma: no cover - numerical guard
            raise FitError("ppf failed to bracket quantile")
    lo = np.zeros_like(q)
    active = np.ones(q.shape, dtype=bool)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        less = cdf(mid) < q
        lo = np.where(active & less, mid, lo)
        hi = np.where(active & ~less, mid, hi)
        active = active & (hi - lo > 1e-12 * np.maximum(hi, 1.0))
        if not active.any():
            break
    return 0.5 * (lo + hi)


def ref_normal_ppf(q: np.ndarray) -> np.ndarray:
    """Standard normal quantiles by batched bisection on
    :func:`normal_cdf`."""
    q = np.asarray(q, dtype=float)
    lo = np.full_like(q, -40.0)
    hi = np.full_like(q, 40.0)
    active = np.ones(q.shape, dtype=bool)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        less = normal_cdf(mid) < q
        lo = np.where(active & less, mid, lo)
        hi = np.where(active & ~less, mid, hi)
        active = active & (hi - lo >= 1e-12)
        if not active.any():
            break
    return 0.5 * (lo + hi)


class RefWeibull(Weibull):
    @classmethod
    def fit(cls, data):
        return ref_weibull_fit(data)


class RefGamma(Gamma):
    def ppf(self, q):
        # No closed form: bisection on the CDF over the whole quantile
        # batch at once (the CDF is vectorized, so 200 masked rounds beat
        # a Python loop over elements by orders of magnitude).
        q = np.atleast_1d(np.asarray(q, dtype=float))
        if np.any((q < 0) | (q >= 1)):
            raise ValueError("gamma ppf requires 0 <= q < 1")
        out = np.zeros_like(q)
        pos = q > 0.0
        if pos.any():
            out[pos] = ref_bisect_ppf(
                self.cdf, q[pos], hi0=max(self.mean, self.scale)
            )
        return out if out.size > 1 else out[0]


class RefLogNormal(LogNormal):
    def ppf(self, q):
        q = np.atleast_1d(np.asarray(q, dtype=float))
        if np.any((q < 0) | (q >= 1)):
            raise ValueError("lognormal ppf requires 0 <= q < 1")
        out = np.zeros_like(q)
        pos = q > 0.0
        if pos.any():
            out[pos] = np.exp(self.mu + self.sigma * ref_normal_ppf(q[pos]))
        return out if out.size > 1 else out[0]


#: The reference families, in TBF_FAMILIES order and under the same names.
REF_FAMILIES = (Exponential, RefWeibull, RefGamma, RefLogNormal)


def ref_chi_square_fit(
    data: Sequence[float],
    dist: Distribution,
    *,
    n_bins: int = 0,
    hypothesis: str = "",
) -> ChiSquareResult:
    data = np.asarray(data, dtype=float)
    if data.size < 10:
        raise ValueError("chi-squared fit test needs at least 10 observations")
    n = data.size
    if n_bins <= 0:
        n_bins = int(min(100, max(10, n // 50)))
    # Need expected counts >= MIN_EXPECTED per bin.
    n_bins = min(n_bins, max(2, int(n / MIN_EXPECTED)))

    qs = np.linspace(0.0, 1.0, n_bins + 1)[1:-1]
    edges = np.concatenate(([-np.inf], np.atleast_1d(dist.ppf(qs)), [np.inf]))
    observed = np.histogram(data, bins=edges)[0].astype(float)
    expected = np.full(n_bins, n / n_bins)

    observed, expected = _pool_low_expected(observed, expected)
    statistic = float(((observed - expected) ** 2 / expected).sum())
    df = observed.size - 1 - dist.n_params
    if df < 1:
        raise ValueError("not enough bins after pooling for the parameter charge")
    return ChiSquareResult(
        statistic=statistic,
        df=df,
        p_value=float(chi2_sf(statistic, df)),
        n=n,
        bins=observed.size,
        hypothesis=hypothesis or f"data ~ {dist!r}",
    )


def ref_tbf(dataset: FOTDataset) -> np.ndarray:
    times = np.sort(dataset.failures().error_times)
    if times.size < 2:
        raise ValueError("need at least 2 failures to compute TBF")
    gaps = np.diff(times)
    return np.maximum(gaps, 1.0)


def ref_test_tbf_family(
    dataset: FOTDataset,
    family: type,
    *,
    label: str = "",
    gaps: Optional[np.ndarray] = None,
) -> ChiSquareResult:
    if gaps is None:
        gaps = ref_tbf(dataset)
    dist: Distribution = family.fit(gaps)
    return ref_chi_square_fit(
        gaps,
        dist,
        hypothesis=label or f"TBF ~ {family.name}",
    )


def ref_test_tbf_all_families(
    dataset: FOTDataset,
    families: Sequence[type] = REF_FAMILIES,
) -> Dict[str, ChiSquareResult]:
    results: Dict[str, ChiSquareResult] = {}
    try:
        gaps = ref_tbf(dataset)
    except ValueError:
        return results
    for family in families:
        try:
            results[family.name] = ref_test_tbf_family(dataset, family, gaps=gaps)
        except (FitError, ValueError):
            continue
    return results


# ---------------------------------------------------------------------------
# Helpers.


def ref_bin_edges(n: int, dist: Distribution) -> np.ndarray:
    """The interior bin edges ``ref_chi_square_fit`` places for ``n``
    observations under ``dist``."""
    n_bins = min(int(min(100, max(10, n // 50))), max(2, int(n / MIN_EXPECTED)))
    return np.atleast_1d(dist.ppf(np.linspace(0.0, 1.0, n_bins + 1)[1:-1]))


def near_edges(sample: np.ndarray, edges: np.ndarray) -> bool:
    """True when a sample value lies within 1e-9 relative of an edge."""
    gap = np.abs(sample[:, None] - edges[None, :])
    return bool(np.any(gap <= 1e-9 * np.abs(edges)[None, :]))


def near_ref_edges(sample: np.ndarray, skip: AbstractSet[str] = frozenset()) -> bool:
    """``near_edges`` against every reference family that fits, except
    those named in ``skip``."""
    for family in REF_FAMILIES:
        if family.name in skip:
            continue
        try:
            dist = family.fit(sample)
        except FitError:
            continue
        if near_edges(sample, ref_bin_edges(sample.size, dist)):
            return True
    return False


def not_comparable(sample: np.ndarray) -> FrozenSet[str]:
    """Families whose reference result on ``sample`` is no target: the
    Weibull where the reference's ``data**k`` overflowed.  (Gamma fits
    of every shape are compared: near-constant samples, the tight ones
    below, fit shapes of 7e3 to 1e7, and ``gammainc_lower`` converges
    there.)"""
    return frozenset({"weibull"} if ref_bracket_overflowed(sample) else ())


def ref_bracket_overflowed(data: np.ndarray) -> bool:
    """Whether the reference's doubling search met a non-finite profile
    (``data**k`` overflowing) before a positive one — the defect the
    shifted powers fix, not a property of the sample."""
    logs = np.log(data)
    hi = 1.0
    for _ in range(200):
        with np.errstate(over="ignore", invalid="ignore"):
            xk = data**hi
            value = (xk * logs).sum() / xk.sum() - 1.0 / hi - logs.mean()
        if not np.isfinite(value):
            return True
        if value > 0:
            return False
        hi *= 2.0
    return False


def scipy_loglik(data: np.ndarray, shape: float, scale: float) -> float:
    return float(scipy_stats.weibull_min.logpdf(data, shape, scale=scale).sum())


def rel(a: float, b: float) -> float:
    return abs(a - b) / abs(b)


def dataset_from_gaps(gaps: np.ndarray) -> FOTDataset:
    times = np.concatenate(([0.0], np.cumsum(gaps)))
    return FOTDataset(
        [make_ticket(fot_id=i, error_time=float(t), host_id=i) for i, t in enumerate(times)]
    )


TIGHT_BASES = (3600.0, 86400.0, 1e5)


@st.composite
def tbf_samples(draw, max_size: int = 3000) -> np.ndarray:
    """Positive TBF-like samples of the shapes that stress the fits."""
    kind = draw(st.sampled_from(["ties", "small", "heavy", "tight", "family"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = 10 if kind == "small" else draw(st.integers(10, max_size))
    if kind == "ties":
        # Whole seconds with runs of the one-second floor.
        mean = draw(st.sampled_from([5.0, 600.0, 3600.0]))
        x = np.maximum(np.round(rng.exponential(mean, n)), 1.0)
        x[rng.random(n) < draw(st.floats(0.0, 0.98))] = 1.0
    elif kind == "small":
        x = np.maximum(np.round(rng.lognormal(3.0, draw(st.floats(0.1, 3.0)), n)), 1.0)
    elif kind == "heavy":
        x = np.where(
            rng.random(n) < 0.5,
            np.exp(rng.uniform(0.0, np.log(1e7), n)),
            np.minimum(np.round(1.0 + rng.pareto(draw(st.floats(0.3, 2.0)), n)), 1e7),
        )
    elif kind == "tight":
        base = draw(st.sampled_from(TIGHT_BASES))
        x = base + rng.uniform(0.0, base * draw(st.sampled_from([1e-3, 1e-2, 4e-2])), n)
    else:
        family = draw(st.sampled_from(["weibull", "gamma", "lognormal"]))
        shape = draw(st.floats(0.2, 5.0))
        scale = draw(st.floats(1.0, 1e5))
        if family == "weibull":
            x = scale * rng.weibull(shape, n)
        elif family == "gamma":
            x = rng.gamma(shape, scale, n)
        else:
            x = np.exp(rng.normal(np.log(scale), shape, n))
        x = np.maximum(x, 1.0)
    return x


# Every quantile of every chi-squared grid (2 to 100 bins).
GRID_QS = np.unique(
    np.concatenate([np.linspace(0.0, 1.0, b + 1)[1:-1] for b in range(2, 101)])
)
GAMMA_SHAPES = sorted({*np.geomspace(0.05, 400.0, 24).tolist(), 0.62, 1.0})


# ---------------------------------------------------------------------------
# Weibull MLE.


class TestWeibullFit:
    @given(sample=tbf_samples())
    @example(sample=np.full(50, 3.0))
    @example(sample=np.r_[np.ones(99), 2.0])
    @settings(max_examples=120, deadline=None)
    def test_matches_reference_and_scipy(self, sample):
        ref = new = None
        ref_err = new_err = None
        try:
            ref = ref_weibull_fit(sample)
        except FitError as exc:
            ref_err = str(exc)
        try:
            new = Weibull.fit(sample)
        except FitError as exc:
            new_err = str(exc)
        if ref_err is not None and new is not None:
            # Only the overflow defect may turn a reference failure into a fit.
            assert ref_bracket_overflowed(sample)
        else:
            assert new_err == ref_err
        if new is None:
            return
        if ref is not None:
            assert rel(new.shape, ref.shape) <= 1e-9
            assert rel(new.scale, ref.scale) <= 1e-9
        shape, _, scale = scipy_stats.weibull_min.fit(sample, floc=0)
        best = scipy_loglik(sample, shape, scale)
        assert scipy_loglik(sample, new.shape, new.scale) >= best - 1e-9 * abs(best)

    @pytest.mark.parametrize("base, width", [(3600.0, 60.0), (86400.0, 3600.0), (1e5, 100.0)])
    def test_tight_samples_of_large_values_match_scipy(self, base, width):
        sample = base + np.random.default_rng(2017).uniform(0.0, width, 200)
        with pytest.raises(FitError, match="bracket search failed"):
            ref_weibull_fit(sample)
        new = Weibull.fit(sample)
        shape, _, scale = scipy_stats.weibull_min.fit(sample, floc=0)
        # scipy polishes its guess with Nelder-Mead (xtol 1e-4 absolute),
        # so its shape is only that close; the likelihood check is exact.
        assert rel(new.shape, shape) <= 1e-5
        best = scipy_loglik(sample, shape, scale)
        assert scipy_loglik(sample, new.shape, new.scale) >= best - 1e-9 * abs(best)


# ---------------------------------------------------------------------------
# Quantiles.


class TestQuantiles:
    @pytest.mark.parametrize("shape", GAMMA_SHAPES)
    def test_gamma_matches_scipy_in_four_cdf_calls(self, shape, monkeypatch):
        calls = []
        cdf = distributions.gammainc_lower

        def counted(a, x):
            calls.append(1)
            return cdf(a, x)

        monkeypatch.setattr(distributions, "gammainc_lower", counted)
        x = Gamma(shape, 7.0).ppf(GRID_QS)
        ref = scipy_stats.gamma.ppf(GRID_QS, shape, scale=7.0)
        assert np.max(np.abs(x - ref) / ref) <= 1e-12
        assert len(calls) <= 4

    @given(
        shape=st.floats(0.05, 400.0),
        q=st.floats(0.01, 0.99),
    )
    @settings(max_examples=150, deadline=None)
    def test_gamma_matches_scipy_anywhere(self, shape, q):
        x = Gamma(shape, 1.0).ppf(q)
        assert rel(x, float(scipy_stats.gamma.ppf(q, shape))) <= 1e-12

    def test_gamma_stops_on_an_exact_cdf_hit(self, monkeypatch):
        # A CDF that hits q exactly at the first guess must end the
        # search there, not fall back to bisection or doubling.
        calls = []

        def exact(a, x):
            calls.append(1)
            return np.full_like(x, 0.3)

        monkeypatch.setattr(distributions, "gammainc_lower", exact)
        x = distributions._gamma_quantile(2.5, np.array([0.3, 0.3]))
        assert len(calls) == 1
        assert x[0] == x[1] and 0.0 < x[0] < np.inf

    def test_normal_matches_scipy_on_every_grid(self):
        z = distributions._normal_quantile(GRID_QS)
        assert np.max(np.abs(z - scipy_stats.norm.ppf(GRID_QS))) <= 1e-12

    @given(q=st.floats(1e-300, 1.0 - 2.0**-53))
    @settings(max_examples=200, deadline=None)
    def test_normal_matches_scipy_anywhere(self, q):
        z = float(distributions._normal_quantile(np.array([q]))[0])
        assert abs(z - float(scipy_stats.norm.ppf(q))) <= 1e-12

    @given(mu=st.floats(-5.0, 15.0), sigma=st.floats(0.05, 5.0))
    @settings(max_examples=40, deadline=None)
    def test_lognormal_matches_scipy(self, mu, sigma):
        x = LogNormal(mu, sigma).ppf(GRID_QS)
        ref = scipy_stats.lognorm.ppf(GRID_QS, sigma, scale=np.exp(mu))
        assert np.max(np.abs(x - ref) / ref) <= 1e-12


# ---------------------------------------------------------------------------
# Chi-squared tests.


def _outcome(fn, *args):
    """``(result, None)``, or ``(None, exc)`` when ``fn`` raises a
    ``ValueError`` (``FitError`` included)."""
    try:
        return fn(*args), None
    except ValueError as exc:
        return None, exc


class TestChiSquare:
    @given(sample=tbf_samples(), index=st.integers(0, len(TBF_FAMILIES) - 1))
    @settings(max_examples=150, deadline=None)
    def test_family_tests_match_reference(self, sample, index):
        family, ref_family = TBF_FAMILIES[index], REF_FAMILIES[index]
        label = f"TBF ~ {family.name}"
        ref, ref_exc = _outcome(
            lambda: ref_chi_square_fit(sample, ref_family.fit(sample), hypothesis=label)
        )
        ordered = np.sort(sample)
        new, new_exc = _outcome(
            lambda: chi_square_fit(ordered, family.fit(ordered), hypothesis=label)
        )
        if family.name in not_comparable(sample):
            return
        if ref_exc is not None:
            assert type(new_exc) is type(ref_exc)
            return
        assert new_exc is None
        assume(not near_edges(sample, ref_bin_edges(sample.size, ref_family.fit(sample))))
        assert dataclasses.astuple(new) == dataclasses.astuple(ref)

    @given(
        n=st.integers(10, 800),
        seed=st.integers(0, 2**32 - 1),
        on_edge=st.floats(0.05, 0.9),
        infinite=st.integers(0, 3),
        dist=st.sampled_from([Exponential(0.01), Weibull(0.6, 40.0)]),
    )
    @settings(max_examples=80, deadline=None)
    def test_values_on_edges_bin_like_histogram(self, n, seed, on_edge, infinite, dist):
        # Exponential and Weibull quantiles are closed forms, so both
        # implementations place the same edges and may not differ even
        # for values sitting exactly on one (half-open bins) or at +inf
        # (the last bin is closed).
        rng = np.random.default_rng(seed)
        values = dist.sample(n, rng)
        on = rng.random(n) < on_edge
        values[on] = rng.choice(ref_bin_edges(n, dist), int(on.sum()))
        values[:infinite] = np.inf
        rng.shuffle(values)
        ref, ref_exc = _outcome(ref_chi_square_fit, values, dist)
        for given_values in (values, np.sort(values)):
            new, new_exc = _outcome(chi_square_fit, given_values, dist)
            if ref_exc is not None:
                assert type(new_exc) is type(ref_exc)
            else:
                assert dataclasses.astuple(new) == dataclasses.astuple(ref)

    def test_decreasing_edges_raise(self):
        class Backwards(Exponential):
            def ppf(self, q):
                return -np.asarray(q, dtype=float)

        values = np.arange(1.0, 101.0)
        with pytest.raises(ValueError):
            ref_chi_square_fit(values, Backwards(1.0))
        with pytest.raises(ValueError):
            chi_square_fit(values, Backwards(1.0))


# ---------------------------------------------------------------------------
# Dataset-level tests and analyze_tbf.


class TestDatasetLevel:
    @given(gaps=tbf_samples(max_size=200), index=st.integers(0, len(TBF_FAMILIES) - 1))
    @settings(max_examples=25, deadline=None)
    def test_all_families_match_reference(self, gaps, index):
        dataset = dataset_from_gaps(gaps)
        ref_gaps = ref_tbf(dataset)
        skip = not_comparable(ref_gaps)
        assume(not near_ref_edges(ref_gaps, skip))
        ref = ref_test_tbf_all_families(dataset)
        new = hypotheses.test_tbf_all_families(dataset)
        for name in skip:
            ref.pop(name, None)
            new.pop(name, None)
        assert new == ref
        family, ref_family = TBF_FAMILIES[index], REF_FAMILIES[index]
        if family.name in skip:
            return
        one, one_exc = _outcome(hypotheses.test_tbf_family, dataset, family)
        ref_one, ref_exc = _outcome(ref_test_tbf_family, dataset, ref_family)
        if ref_exc is not None:
            assert type(one_exc) is type(ref_exc)
        else:
            assert one == ref_one

    def test_too_few_failures(self):
        for dataset in (FOTDataset([]), FOTDataset([make_ticket()])):
            assert hypotheses.test_tbf_all_families(dataset) == {}
            with pytest.raises(ValueError):
                hypotheses.test_tbf_family(dataset, Exponential)
            with pytest.raises(ValueError):
                ref_test_tbf_family(dataset, Exponential)

    def test_per_component_and_product_line_match_reference(self, small_dataset):
        failures = small_dataset.failures()
        ref_comp = {}
        for component, subset in failures.by_component().items():
            if len(subset) >= 100:
                results = ref_test_tbf_all_families(subset)
                if results:
                    ref_comp[component] = results
        assert hypotheses.test_tbf_per_component(small_dataset) == ref_comp
        ref_line = {}
        for line, subset in failures.by_product_line().items():
            if len(subset) >= 500:
                results = ref_test_tbf_all_families(subset)
                if results:
                    ref_line[line] = results
        assert hypotheses.test_tbf_per_product_line(small_dataset) == ref_line

    def test_analyze_tbf_matches_reference_on_small_trace(self, small_dataset):
        analysis = tbf.analyze_tbf(small_dataset)
        gaps = ref_tbf(small_dataset)
        assert analysis.tests == ref_test_tbf_all_families(small_dataset)
        assert set(analysis.tests) == {f.name for f in TBF_FAMILIES}
        assert analysis.mtbf_seconds == float(gaps.mean())
        assert analysis.n_gaps == gaps.size
        ref_fits = fit_all(gaps, REF_FAMILIES)
        assert set(analysis.fits) == set(ref_fits)
        for name, ref_fit in ref_fits.items():
            for param, value in ref_fit.params.items():
                assert rel(analysis.fits[name].params[param], value) <= 1e-9
        reference_ecdf = ecdf(gaps)
        assert np.array_equal(analysis.empirical.xs, reference_ecdf.xs)
        assert np.array_equal(analysis.empirical.ps, reference_ecdf.ps)

    def test_analyze_tbf_fits_each_family_once(self, small_dataset, monkeypatch):
        calls: Counter = Counter()
        for family in TBF_FAMILIES:

            def counted(data, _family=family, _fit=family.fit):
                calls[_family.name] += 1
                return _fit(data)

            monkeypatch.setattr(family, "fit", counted)
        tbf.analyze_tbf(small_dataset)
        assert calls == Counter({f.name: 1 for f in TBF_FAMILIES})
